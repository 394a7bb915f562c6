/// The ATPG-for-diagnosis flow through the Session facade: configuration
/// validation, genome decoding, the paper GA on nf_biquad and the
/// alternative search set-ups (baseline optimizer, fitness kinds,
/// sensitivity seeding, three test frequencies).
#include "session.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ga/baselines.hpp"
#include "util/error.hpp"

namespace ftdiag {
namespace {

class AtpgTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    session_ = new Session(Session::open("builtin:nf_biquad"));
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }
  static Session* session_;
};

Session* AtpgTest::session_ = nullptr;

TEST(AtpgOptions, DefaultsAreValid) {
  EXPECT_NO_THROW(SessionOptions{}.check());
}

TEST(AtpgOptions, BadConfigsRejected) {
  SessionOptions no_freq;
  no_freq.search.n_frequencies = 0;
  EXPECT_THROW(no_freq.check(), ConfigError);

  // Fitness selection is typed; bad names die at the parse helper.
  EXPECT_THROW((void)core::parse_fitness_kind("nope"), ConfigError);

  SessionOptions bad_ga;
  bad_ga.search.ga.population_size = 0;
  EXPECT_THROW(bad_ga.check(), ConfigError);
}

TEST(Atpg, ToTestVectorConvertsAndSorts) {
  const auto tv = Session::to_test_vector({4.0, 2.0});  // 10^4, 10^2
  ASSERT_EQ(tv.frequencies_hz.size(), 2u);
  EXPECT_NEAR(tv.frequencies_hz[0], 100.0, 1e-9);
  EXPECT_NEAR(tv.frequencies_hz[1], 10000.0, 1e-6);
}

TEST_F(AtpgTest, BoundsDerivedFromBand) {
  const auto bounds = session_->bounds();
  EXPECT_NEAR(bounds.lo, 1.0, 1e-12);  // 10 Hz
  EXPECT_NEAR(bounds.hi, 5.0, 1e-12);  // 100 kHz
}

TEST_F(AtpgTest, DictionaryCoversThePaperUniverse) {
  EXPECT_EQ(session_->dictionary()->fault_count(), 56u);
  EXPECT_EQ(session_->cut().name, "nf_biquad");
}

TEST_F(AtpgTest, PaperGaFindsNonIntersectingVector) {
  const TestGenResult result = session_->run_search();
  // The headline reproduction: the GA must find a frequency pair whose
  // seven trajectories do not intersect (fitness 1 = zero intersections).
  EXPECT_DOUBLE_EQ(result.best.fitness, 1.0);
  EXPECT_EQ(result.best.intersections, 0u);
  EXPECT_EQ(result.best.vector.frequencies_hz.size(), 2u);
  EXPECT_EQ(result.dictionary_faults, 56u);
  // Paper parameters: 128 individuals, 15 generations.
  EXPECT_EQ(result.search.history.front().evaluations, 128u);
  EXPECT_EQ(result.search.history.size(), 16u);  // gen 0..15
}

TEST_F(AtpgTest, ConvergenceHistoryIsMonotoneInBest) {
  const TestGenResult result = session_->run_search();
  double prev = 0.0;
  for (const auto& g : result.search.history) {
    EXPECT_GE(g.best + 1e-12, prev);  // elitism forbids regression
    prev = g.best;
    EXPECT_LE(g.worst, g.mean + 1e-12);
    EXPECT_LE(g.mean, g.best + 1e-12);
  }
}

TEST_F(AtpgTest, DeterministicForFixedSeed) {
  const TestGenResult a = session_->run_search();
  const TestGenResult b = session_->run_search();
  EXPECT_EQ(a.best.vector.frequencies_hz, b.best.vector.frequencies_hz);
  EXPECT_EQ(a.search.evaluations, b.search.evaluations);
}

TEST_F(AtpgTest, RunWithBaselineOptimizer) {
  const ga::RandomSearch random(512);
  const TestGenResult result = session_->run_search(random, 7);
  EXPECT_GT(result.best.fitness, 0.0);
  EXPECT_EQ(result.search.evaluations, 512u);
}

TEST_F(AtpgTest, ScoreExternalVector) {
  const auto score = session_->score({{700.0, 1600.0}});
  EXPECT_GT(score.fitness, 0.0);
  EXPECT_EQ(score.vector.frequencies_hz.size(), 2u);
}

TEST(Atpg, SeparationFitnessFlowAlsoConverges) {
  SearchOptions search;
  search.fitness = FitnessKind::kSeparation;
  search.ga.generations = 8;
  const Session session =
      SessionBuilder::from_registry("nf_biquad").search(search).build();
  const TestGenResult result = session.run_search();
  EXPECT_GT(result.best.fitness, 0.1);
  // A good separation vector should also have zero intersections here.
  EXPECT_EQ(result.best.intersections, 0u);
}

TEST(Atpg, SensitivitySeededFlowStartsStrong) {
  // Seeded with screened frequency pairs, the very first generation's best
  // must already be high on the continuous hybrid objective.
  SearchOptions seeded;
  seeded.fitness = FitnessKind::kHybrid;
  seeded.seed_with_sensitivity = true;
  seeded.ga.generations = 3;
  const Session session =
      SessionBuilder::from_registry("nf_biquad").search(seeded).build();
  const TestGenResult result = session.run_search();
  EXPECT_GT(result.search.history.front().best, 0.70);
  EXPECT_EQ(result.best.intersections, 0u);
}

TEST(Atpg, ThreeFrequencyFlow) {
  SearchOptions search;
  search.n_frequencies = 3;
  search.ga.generations = 5;
  search.ga.population_size = 32;
  const Session session =
      SessionBuilder::from_registry("nf_biquad").search(search).build();
  const TestGenResult result = session.run_search();
  EXPECT_EQ(result.best.vector.frequencies_hz.size(), 3u);
  EXPECT_GT(result.best.fitness, 0.0);
}

}  // namespace
}  // namespace ftdiag
