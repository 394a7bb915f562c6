#include "faults/dictionary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "circuits/nf_biquad.hpp"
#include "util/error.hpp"

namespace ftdiag::faults {
namespace {

class DictionaryTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    cut_ = new circuits::CircuitUnderTest(circuits::make_paper_cut());
    dict_ = new FaultDictionary(
        FaultDictionary::build(*cut_, FaultUniverse::over_testable(*cut_)));
  }
  static void TearDownTestSuite() {
    delete dict_;
    delete cut_;
    dict_ = nullptr;
    cut_ = nullptr;
  }
  static circuits::CircuitUnderTest* cut_;
  static FaultDictionary* dict_;
};

circuits::CircuitUnderTest* DictionaryTest::cut_ = nullptr;
FaultDictionary* DictionaryTest::dict_ = nullptr;

TEST_F(DictionaryTest, SizesMatchUniverse) {
  EXPECT_EQ(dict_->fault_count(), 56u);  // 7 sites x 8 deviations
  EXPECT_EQ(dict_->site_labels().size(), 7u);
  EXPECT_EQ(dict_->entries().size(), 56u);
}

TEST_F(DictionaryTest, GoldenOnDictionaryGrid) {
  EXPECT_EQ(dict_->golden().frequencies(), dict_->frequencies());
  EXPECT_EQ(dict_->golden().size(),
            cut_->dictionary_grid.frequencies().size());
}

TEST_F(DictionaryTest, EntriesShareTheGrid) {
  for (const auto& entry : dict_->entries()) {
    EXPECT_EQ(entry.response.frequencies(), dict_->frequencies());
  }
}

TEST_F(DictionaryTest, PerSiteIndexOrderedByDeviation) {
  for (const auto& site : dict_->site_labels()) {
    const auto& indices = dict_->entries_for(site);
    EXPECT_EQ(indices.size(), 8u);
    double prev = -1.0;
    for (std::size_t idx : indices) {
      const auto& fault = dict_->entries()[idx].fault;
      EXPECT_EQ(fault.site.label(), site);
      EXPECT_GT(fault.deviation, prev);
      prev = fault.deviation;
    }
  }
}

TEST_F(DictionaryTest, UnknownSiteThrows) {
  // Regression for the hashed site index: misses must throw, and near-miss
  // labels (prefixes, different case, empty) must not alias a real site.
  EXPECT_THROW((void)dict_->entries_for("R99"), ConfigError);
  EXPECT_THROW((void)dict_->entries_for(""), ConfigError);
  const std::string first = dict_->site_labels().front();
  EXPECT_THROW((void)dict_->entries_for(first.substr(0, first.size() - 1)),
               ConfigError);
  EXPECT_THROW((void)dict_->entries_for(first + "x"), ConfigError);
}

TEST_F(DictionaryTest, AssembleRebuildsTheSiteIndex) {
  // Re-assemble with the entries (faults and rows) in reversed order: the
  // per-site index must still resolve every site (deviations ascending)
  // and reject unknown labels.
  const std::size_t n = dict_->fault_count();
  const std::size_t grid = dict_->frequencies().size();
  auto planes = std::make_shared<mna::ResponsePlanes>(dict_->frequencies(),
                                                      1 + n);
  std::vector<ParametricFault> reversed;
  for (std::size_t row = 0; row <= n; ++row) {
    const mna::AcResponse& source =
        row == 0 ? dict_->golden() : dict_->entries()[n - row].response;
    std::copy_n(source.reals().data(), grid, planes->row_re(row));
    std::copy_n(source.imags().data(), grid, planes->row_im(row));
    if (row > 0) reversed.push_back(dict_->entries()[n - row].fault);
  }
  const auto rebuilt =
      FaultDictionary::assemble(std::move(reversed), std::move(planes));
  ASSERT_EQ(rebuilt.site_labels().size(), dict_->site_labels().size());
  for (const auto& site : dict_->site_labels()) {
    const auto& indices = rebuilt.entries_for(site);
    ASSERT_EQ(indices.size(), 8u);
    double prev = -1.0;
    for (std::size_t idx : indices) {
      EXPECT_EQ(rebuilt.entries()[idx].fault.site.label(), site);
      EXPECT_GT(rebuilt.entries()[idx].fault.deviation, prev);
      prev = rebuilt.entries()[idx].fault.deviation;
    }
  }
  EXPECT_THROW((void)rebuilt.entries_for("missing_site"), ConfigError);
}

TEST_F(DictionaryTest, LargerDeviationMovesResponseFurther) {
  // |response - golden| should grow with |deviation| for a smooth circuit.
  const auto& indices = dict_->entries_for("C1");
  const auto& small = dict_->entries()[indices[4]];   // +10%
  const auto& large = dict_->entries()[indices[7]];   // +40%
  ASSERT_DOUBLE_EQ(small.fault.deviation, 0.10);
  ASSERT_DOUBLE_EQ(large.fault.deviation, 0.40);
  EXPECT_GT(large.response.max_deviation(dict_->golden()),
            small.response.max_deviation(dict_->golden()));
}

TEST_F(DictionaryTest, ExplicitGridOverload) {
  const std::vector<double> freqs = {100.0, 1000.0, 10000.0};
  const auto small_dict = FaultDictionary::build(
      *cut_, FaultUniverse::over_testable(*cut_), freqs);
  EXPECT_EQ(small_dict.frequencies(), freqs);
  EXPECT_EQ(small_dict.fault_count(), 56u);
}

TEST(Dictionary, NominalIncludedUniverseKeepsGoldenPoint) {
  const auto cut = circuits::make_paper_cut();
  DeviationSpec spec;
  spec.include_nominal = true;
  const auto dict = FaultDictionary::build(
      cut, FaultUniverse::over_testable(cut, spec),
      std::vector<double>{100.0, 1000.0});
  EXPECT_EQ(dict.fault_count(), 7u * 9u);
  // The 0% entry equals the golden response.
  const auto& indices = dict.entries_for("Ra");
  const auto& nominal_entry = dict.entries()[indices[4]];
  ASSERT_TRUE(nominal_entry.fault.is_nominal());
  EXPECT_NEAR(nominal_entry.response.max_deviation(dict.golden()), 0.0, 1e-12);
}

}  // namespace
}  // namespace ftdiag::faults
