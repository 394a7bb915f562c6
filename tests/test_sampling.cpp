#include "core/sampling.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/nf_biquad.hpp"
#include "faults/fault_injector.hpp"
#include "mna/ac_analysis.hpp"
#include "util/error.hpp"

namespace ftdiag::core {
namespace {

class SamplingTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    cut_ = new circuits::CircuitUnderTest(circuits::make_paper_cut());
    golden_ = new mna::AcResponse(
        mna::AcAnalysis(cut_->circuit).sweep(grid(), cut_->output_node));
  }
  static void TearDownTestSuite() {
    delete golden_;
    delete cut_;
    golden_ = nullptr;
    cut_ = nullptr;
  }

  /// The CUT's dictionary grid.
  static std::vector<double> grid() {
    return cut_->dictionary_grid.frequencies();
  }

  /// Response of the CUT with \p fault injected.
  static mna::AcResponse simulate(const faults::ParametricFault& fault,
                                  const std::vector<double>& freqs) {
    return mna::AcAnalysis(faults::inject(cut_->circuit, fault))
        .sweep(freqs, cut_->output_node);
  }

  static circuits::CircuitUnderTest* cut_;
  static mna::AcResponse* golden_;
};

circuits::CircuitUnderTest* SamplingTest::cut_ = nullptr;
mna::AcResponse* SamplingTest::golden_ = nullptr;

TEST_F(SamplingTest, GoldenMapsToOriginWhenRelative) {
  const SpectralSampler sampler(*golden_, SamplingPolicy{});
  const Point p = sampler.sample(*golden_, {100.0, 2000.0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0], 0.0, 1e-12);
  EXPECT_NEAR(p[1], 0.0, 1e-12);
  EXPECT_EQ(sampler.golden_point({100.0, 2000.0}), Point({0.0, 0.0}));
}

TEST_F(SamplingTest, AbsolutePolicyKeepsRawMagnitudes) {
  SamplingPolicy policy;
  policy.golden_relative = false;
  const SpectralSampler sampler(*golden_, policy);
  const Point p = sampler.sample(*golden_, {100.0});
  EXPECT_NEAR(p[0], 1.0, 1e-3);  // unity passband
  EXPECT_NEAR(sampler.golden_point({100.0})[0], p[0], 1e-12);
}

TEST_F(SamplingTest, FaultMovesThePointAwayFromOrigin) {
  const SpectralSampler sampler(*golden_, SamplingPolicy{});
  const auto faulty =
      simulate({faults::FaultSite::value_of("C1"), 0.30}, grid());
  const Point p = sampler.sample(faulty, {500.0, 1500.0});
  EXPECT_GT(norm(p), 1e-4);
}

TEST_F(SamplingTest, DecibelScale) {
  SamplingPolicy policy;
  policy.scale = MagnitudeScale::kDecibel;
  policy.golden_relative = false;
  const SpectralSampler sampler(*golden_, policy);
  const Point p = sampler.sample(*golden_, {100.0});
  EXPECT_NEAR(p[0], 0.0, 0.01);  // 0 dB passband
}

TEST_F(SamplingTest, PhaseAugmentationDoublesDimension) {
  SamplingPolicy policy;
  policy.include_phase = true;
  EXPECT_EQ(policy.dimension(2), 4u);
  const SpectralSampler sampler(*golden_, policy);
  const Point p = sampler.sample(*golden_, {100.0, 2000.0});
  EXPECT_EQ(p.size(), 4u);
}

TEST_F(SamplingTest, SamplingOrderMatchesFrequencyOrder) {
  const SpectralSampler sampler(*golden_, SamplingPolicy{});
  const auto faulty =
      simulate({faults::FaultSite::value_of("R2"), 0.40}, grid());
  const Point p12 = sampler.sample(faulty, {300.0, 3000.0});
  const Point p21 = sampler.sample(faulty, {3000.0, 300.0});
  EXPECT_DOUBLE_EQ(p12[0], p21[1]);
  EXPECT_DOUBLE_EQ(p12[1], p21[0]);
}

TEST_F(SamplingTest, InterpolatedOffGridSamplingIsClose) {
  // Sample at an off-grid frequency; compare against direct simulation.
  const SpectralSampler sampler(*golden_, SamplingPolicy{});
  const faults::ParametricFault fault{faults::FaultSite::value_of("R3"), 0.2};
  const auto on_dict = simulate(fault, grid());
  const double f_off = 1234.567;
  const auto exact = simulate(fault, {f_off});
  const Point p_interp = sampler.sample(on_dict, {f_off});
  const Point p_exact = sampler.sample(exact, {f_off});
  EXPECT_NEAR(p_interp[0], p_exact[0], 5e-4);
}

TEST_F(SamplingTest, EmptyGoldenRejected) {
  EXPECT_THROW(SpectralSampler(mna::AcResponse{}, SamplingPolicy{}),
               ConfigError);
}

TEST_F(SamplingTest, EmptyFrequencyListRejected) {
  const SpectralSampler sampler(*golden_, SamplingPolicy{});
  EXPECT_DEATH(sampler.sample(*golden_, {}), "frequency");
}

}  // namespace
}  // namespace ftdiag::core
