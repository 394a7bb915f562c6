#include "core/fitness.hpp"

#include <gtest/gtest.h>

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

TEST(PaperFitness, PerfectSeparationScoresOne) {
  const std::vector<FaultTrajectory> trajs = {ray("A", 1, 0), ray("B", 0, 1)};
  EXPECT_DOUBLE_EQ(IntersectionFitness().evaluate(trajs), 1.0);
}

TEST(PaperFitness, EachIntersectionLowersFitnessHyperbolically) {
  // fitness = 1/(1+I): with one crossing, 0.5.
  std::vector<TrajectoryPoint> crossing;
  for (double d : {-0.4, -0.2, 0.0, 0.2, 0.4}) {
    crossing.push_back({d, {d + 0.1, 0.2 - d}});
  }
  const std::vector<FaultTrajectory> trajs = {
      ray("A", 1, 1), FaultTrajectory("B", std::move(crossing))};
  const double fitness = IntersectionFitness().evaluate(trajs);
  const auto report = count_intersections(trajs);
  EXPECT_DOUBLE_EQ(fitness, 1.0 / (1.0 + static_cast<double>(report.count)));
  EXPECT_LT(fitness, 1.0);
}

TEST(PaperFitness, CoincidentTrajectoriesScoreLow) {
  const std::vector<FaultTrajectory> trajs = {ray("A", 1, 1), ray("B", 1, 1)};
  EXPECT_LT(IntersectionFitness().evaluate(trajs), 0.5);
}

TEST(SeparationFitness, WideAnglesScoreHigherThanNarrow) {
  const std::vector<FaultTrajectory> wide = {ray("A", 1, 0), ray("B", 0, 1)};
  const std::vector<FaultTrajectory> narrow = {ray("A", 1, 0),
                                               ray("B", 1, 0.05)};
  SeparationFitness fitness;
  EXPECT_GT(fitness.evaluate(wide), fitness.evaluate(narrow));
  EXPECT_GT(fitness.margin(wide), fitness.margin(narrow));
}

TEST(SeparationFitness, SingleTrajectoryIsPerfect) {
  const std::vector<FaultTrajectory> one = {ray("A", 1, 0)};
  EXPECT_DOUBLE_EQ(SeparationFitness().margin(one), 1.0);
}

TEST(SeparationFitness, CoincidentTrajectoriesHaveZeroMargin) {
  const std::vector<FaultTrajectory> trajs = {ray("A", 1, 1), ray("B", 1, 1)};
  EXPECT_NEAR(SeparationFitness().margin(trajs), 0.0, 1e-12);
}

TEST(SeparationFitness, AlwaysInUnitInterval) {
  const std::vector<FaultTrajectory> trajs = {ray("A", 1, 0), ray("B", 0, 1),
                                              ray("C", -1, 1)};
  const double v = SeparationFitness().evaluate(trajs);
  EXPECT_GT(v, 0.0);
  EXPECT_LE(v, 1.0);
}

TEST(HybridFitness, BlendsBothObjectives) {
  const std::vector<FaultTrajectory> wide = {ray("A", 1, 0), ray("B", 0, 1)};
  const HybridFitness hybrid(0.5);
  const double expected = 0.5 * IntersectionFitness().evaluate(wide) +
                          0.5 * SeparationFitness().evaluate(wide);
  EXPECT_DOUBLE_EQ(hybrid.evaluate(wide), expected);
}

TEST(HybridFitness, WeightOutOfRangeRejected) {
  EXPECT_THROW(HybridFitness(1.5), ConfigError);
  EXPECT_THROW(HybridFitness(-0.1), ConfigError);
}

TEST(Factory, ByName) {
  EXPECT_EQ(make_fitness(parse_fitness_kind("paper"))->name(),
            "paper-1/(1+I)");
  EXPECT_EQ(make_fitness(parse_fitness_kind("separation"))->name(),
            "separation");
  EXPECT_EQ(make_fitness(parse_fitness_kind("hybrid"))->name(), "hybrid");
  EXPECT_THROW(make_fitness(parse_fitness_kind("bogus")), ConfigError);
}

TEST(Factory, ByKind) {
  EXPECT_EQ(make_fitness(FitnessKind::kPaper)->name(), "paper-1/(1+I)");
  EXPECT_EQ(make_fitness(FitnessKind::kSeparation)->name(), "separation");
  EXPECT_EQ(make_fitness(FitnessKind::kHybrid)->name(), "hybrid");
}

TEST(Factory, ParseRoundTripsToString) {
  for (FitnessKind kind : {FitnessKind::kPaper, FitnessKind::kSeparation,
                           FitnessKind::kHybrid}) {
    EXPECT_EQ(parse_fitness_kind(to_string(kind)), kind);
  }
  EXPECT_THROW((void)parse_fitness_kind("bogus"), ConfigError);
}

TEST(Fitness, OrderingMatchesDiagnosability) {
  // separated > slightly-crossing > coincident, under every fitness.
  const std::vector<FaultTrajectory> separated = {ray("A", 1, 0),
                                                  ray("B", 0, 1)};
  std::vector<TrajectoryPoint> crossing_pts;
  for (double d : {-0.4, -0.2, 0.0, 0.2, 0.4}) {
    crossing_pts.push_back({d, {d + 0.1, 0.2 - d}});
  }
  const std::vector<FaultTrajectory> crossing = {
      ray("A", 1, 1), FaultTrajectory("B", std::move(crossing_pts))};
  const std::vector<FaultTrajectory> coincident = {ray("A", 1, 1),
                                                   ray("B", 1, 1)};
  for (const char* name : {"paper", "hybrid"}) {
    const auto fitness = make_fitness(parse_fitness_kind(name));
    EXPECT_GT(fitness->evaluate(separated), fitness->evaluate(crossing))
        << name;
    EXPECT_GE(fitness->evaluate(crossing), fitness->evaluate(coincident))
        << name;
  }
}

}  // namespace
}  // namespace ftdiag::core
