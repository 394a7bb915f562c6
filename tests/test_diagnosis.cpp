#include "core/diagnosis.hpp"

#include <gtest/gtest.h>

#include "circuits/nf_biquad.hpp"
#include "core/test_vector.hpp"
#include "faults/dictionary.hpp"
#include "util/error.hpp"

namespace ftdiag::core {
namespace {

FaultTrajectory ray(const std::string& site, double dx, double dy) {
  std::vector<TrajectoryPoint> pts;
  for (double d : {-0.4, -0.2, 0.0, 0.2, 0.4}) {
    pts.push_back({d, {d * dx, d * dy}});
  }
  return FaultTrajectory(site, std::move(pts));
}

TEST(Engine, RequiresTrajectories) {
  EXPECT_THROW(DiagnosisEngine({}), ConfigError);
}

TEST(Diagnosis, EmptyRankingThrowsInsteadOfUb) {
  // Regression: best() on a default-constructed Diagnosis used to be
  // undefined behaviour (ranking.front() on an empty vector).
  const Diagnosis empty;
  EXPECT_THROW((void)empty.best(), ConfigError);
  EXPECT_THROW((void)empty.confidence(), ConfigError);
  EXPECT_TRUE(empty.ambiguity_set().empty());
}

TEST(Diagnosis, EngineAlwaysRanksEveryTrajectory) {
  // diagnose() guarantees one match per trajectory — never empty.
  DiagnosisEngine engine({ray("X", 1, 0), ray("Y", 0, 1)});
  const Diagnosis d = engine.diagnose({0.05, 0.07});
  ASSERT_EQ(d.ranking.size(), 2u);
  EXPECT_NO_THROW((void)d.best());
}

TEST(Engine, RejectsMixedDimensions) {
  std::vector<TrajectoryPoint> three_d = {{-0.1, {0, 0, 0}}, {0.1, {1, 1, 1}}};
  std::vector<FaultTrajectory> trajs;
  trajs.push_back(ray("A", 1, 0));
  trajs.push_back(FaultTrajectory("B", std::move(three_d)));
  EXPECT_THROW(DiagnosisEngine(std::move(trajs)), ConfigError);
}

TEST(Engine, PointOnTrajectoryDiagnosesExactly) {
  DiagnosisEngine engine({ray("X", 1, 0), ray("Y", 0, 1)});
  const Diagnosis d = engine.diagnose({0.3, 0.0});
  EXPECT_EQ(d.best().site, "X");
  EXPECT_NEAR(d.best().distance, 0.0, 1e-12);
  EXPECT_NEAR(d.best().estimated_deviation, 0.3, 1e-12);
}

TEST(Engine, NegativeBranchDeviationEstimated) {
  DiagnosisEngine engine({ray("X", 1, 0), ray("Y", 0, 1)});
  const Diagnosis d = engine.diagnose({-0.25, 0.0});
  EXPECT_EQ(d.best().site, "X");
  EXPECT_NEAR(d.best().estimated_deviation, -0.25, 1e-12);
}

TEST(Engine, PerpendicularAssignmentMatchesPaperFig3) {
  // An observed point near X's pathway but off it: nearest-segment wins.
  DiagnosisEngine engine({ray("M", 1, 0), ray("N", 0, 1)});
  const Diagnosis d = engine.diagnose({0.05, 0.30});
  EXPECT_EQ(d.best().site, "N");
  EXPECT_EQ(d.ranking.size(), 2u);
  EXPECT_EQ(d.ranking[1].site, "M");
  EXPECT_LT(d.best().distance, d.ranking[1].distance);
}

TEST(Engine, RankingSortedByDistance) {
  DiagnosisEngine engine(
      {ray("A", 1, 0), ray("B", 0, 1), ray("C", 1, 1)});
  const Diagnosis d = engine.diagnose({0.2, 0.05});
  for (std::size_t i = 1; i < d.ranking.size(); ++i) {
    EXPECT_LE(d.ranking[i - 1].distance, d.ranking[i].distance);
  }
}

TEST(Engine, DimensionMismatchRejected) {
  DiagnosisEngine engine({ray("A", 1, 0)});
  EXPECT_THROW(engine.diagnose({1.0, 2.0, 3.0}), ConfigError);
}

TEST(Confidence, HighWhenUnambiguous) {
  DiagnosisEngine engine({ray("A", 1, 0), ray("B", 0, 1)});
  // On A, far from B.
  const Diagnosis clear = engine.diagnose({0.35, 0.0});
  EXPECT_GT(clear.confidence(), 0.9);
}

TEST(Confidence, LowWhenEquidistant) {
  DiagnosisEngine engine({ray("A", 1, 0), ray("B", 0, 1)});
  // Diagonal point equidistant from both axes.
  const Diagnosis murky = engine.diagnose({0.2, 0.2});
  EXPECT_LT(murky.confidence(), 0.05);
}

TEST(Confidence, SingleCandidateIsCertain) {
  DiagnosisEngine engine({ray("A", 1, 0)});
  EXPECT_DOUBLE_EQ(engine.diagnose({0.1, 0.1}).confidence(), 1.0);
}

TEST(AmbiguitySet, ContainsNearTies) {
  DiagnosisEngine engine({ray("A", 1, 0), ray("B", 0, 1), ray("C", -1, 0)});
  const Diagnosis d = engine.diagnose({0.15, 0.14});
  const auto ambiguous = d.ambiguity_set(1.25);
  EXPECT_GE(ambiguous.size(), 2u);
  EXPECT_EQ(ambiguous.front(), d.best().site);
}

TEST(AmbiguitySet, TightFactorKeepsOnlyBest) {
  DiagnosisEngine engine({ray("A", 1, 0), ray("B", 0, 1)});
  const Diagnosis d = engine.diagnose({0.3, 0.01});
  EXPECT_EQ(d.ambiguity_set(1.0).size(), 1u);
}

TEST(EndToEnd, DictionaryFaultsDiagnoseThemselves) {
  // Every dictionary fault, observed exactly, must diagnose to its own
  // site with ~zero distance (self-consistency of the whole pipeline).
  const auto cut = circuits::make_paper_cut();
  const auto dict = faults::FaultDictionary::build(
      cut, faults::FaultUniverse::over_testable(cut));
  const TestVector tv{{400.0, 1300.0}};
  const TestVectorEvaluator evaluator(dict);
  const DiagnosisEngine engine = evaluator.make_engine(tv);
  const SpectralSampler& sampler = evaluator.sampler();

  for (const auto& entry : dict.entries()) {
    const Point observed =
        sampler.sample(entry.response, tv.frequencies_hz);
    const Diagnosis d = engine.diagnose(observed);
    EXPECT_NEAR(d.best().distance, 0.0, 1e-9) << entry.fault.label();
    EXPECT_EQ(d.best().site, entry.fault.site.label()) << entry.fault.label();
    EXPECT_NEAR(d.best().estimated_deviation, entry.fault.deviation, 0.05)
        << entry.fault.label();
  }
}

}  // namespace
}  // namespace ftdiag::core
