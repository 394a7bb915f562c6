#include "core/intersection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "circuits/registry.hpp"
#include "core/evaluation_pipeline.hpp"
#include "ga/genetic_algorithm.hpp"
#include "session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ftdiag::core {
namespace {

FaultTrajectory straight_line(const std::string& site, Point direction,
                              std::size_t dim = 2) {
  (void)dim;
  std::vector<TrajectoryPoint> pts;
  for (double d : {-0.4, -0.2, 0.0, 0.2, 0.4}) {
    Point p(direction.size());
    for (std::size_t i = 0; i < direction.size(); ++i) p[i] = d * direction[i];
    pts.push_back({d, std::move(p)});
  }
  return FaultTrajectory(site, std::move(pts));
}

TEST(Intersections, TwoSeparatedLinesThroughOriginDoNotCount) {
  // Both trajectories pass through the shared origin; that structural
  // contact must not count as an intersection.
  const std::vector<FaultTrajectory> trajs = {
      straight_line("A", {1.0, 0.0}), straight_line("B", {0.0, 1.0})};
  const auto report = count_intersections(trajs);
  EXPECT_EQ(report.count, 0u);
}

TEST(Intersections, CrossingAwayFromOriginCounts) {
  // B is A's direction shifted so they cross away from the origin.
  std::vector<TrajectoryPoint> pts_b;
  for (double d : {-0.4, -0.2, 0.0, 0.2, 0.4}) {
    pts_b.push_back({d, {d + 0.1, 0.2 - d}});
  }
  const std::vector<FaultTrajectory> trajs = {
      straight_line("A", {1.0, 1.0}), FaultTrajectory("B", std::move(pts_b))};
  const auto report = count_intersections(trajs);
  EXPECT_GE(report.count, 1u);
  EXPECT_EQ(report.conflicts.front().site_a, "A");
  EXPECT_EQ(report.conflicts.front().site_b, "B");
}

TEST(Intersections, IdenticalTrajectoriesOverlapHeavily) {
  const std::vector<FaultTrajectory> trajs = {
      straight_line("A", {1.0, 0.5}), straight_line("B", {1.0, 0.5})};
  const auto report = count_intersections(trajs);
  EXPECT_GT(report.count, 0u);  // collinear overlaps counted
}

TEST(Intersections, OverlapCountingCanBeDisabled) {
  // Coincident trajectories still touch at shared vertices, but disabling
  // overlap counting must strictly reduce the conflict count.
  const std::vector<FaultTrajectory> trajs = {
      straight_line("A", {1.0, 0.5}), straight_line("B", {1.0, 0.5})};
  IntersectionOptions with_overlaps;
  IntersectionOptions without_overlaps;
  without_overlaps.count_overlaps = false;
  const auto full = count_intersections(trajs, with_overlaps);
  const auto reduced = count_intersections(trajs, without_overlaps);
  EXPECT_LT(reduced.count, full.count);
  for (const auto& c : reduced.conflicts) {
    EXPECT_EQ(c.separation, 0.0);  // only touching contacts remain
  }
}

TEST(Intersections, SingleTrajectoryHasNoConflicts) {
  const std::vector<FaultTrajectory> trajs = {straight_line("A", {1.0, 0.0})};
  EXPECT_EQ(count_intersections(trajs).count, 0u);
  EXPECT_EQ(count_intersections(std::vector<FaultTrajectory>{}).count, 0u);
}

TEST(Intersections, MixedDimensionsRejected) {
  const std::vector<FaultTrajectory> trajs = {
      straight_line("A", {1.0, 0.0}), straight_line("B", {0.0, 1.0, 0.0})};
  EXPECT_THROW(count_intersections(trajs), ConfigError);
}

TEST(Intersections, ThreeDimensionalNearMiss) {
  // In 3-D, exact crossings are non-generic: near-misses below the
  // threshold count instead.
  const std::vector<FaultTrajectory> trajs = {
      straight_line("A", {1.0, 0.0, 0.0}),
      straight_line("B", {0.0, 1.0, 1e-6})};  // hugs the xy plane near A
  IntersectionOptions options;
  options.near_threshold = 0.05;
  const auto report = count_intersections(trajs, options);
  // They only approach near the origin, which is excluded...
  // so move B away from the origin to create a genuine near pass.
  std::vector<TrajectoryPoint> pts;
  for (double d : {-0.4, -0.2, 0.0, 0.2, 0.4}) {
    pts.push_back({d, {0.2, d, 0.001}});
  }
  const std::vector<FaultTrajectory> trajs2 = {
      straight_line("A", {1.0, 0.0, 0.0}), FaultTrajectory("B", std::move(pts))};
  const auto report2 = count_intersections(trajs2, options);
  EXPECT_GE(report2.count, 1u);
  EXPECT_GT(report2.conflicts.front().separation, 0.0);
  (void)report;
}

TEST(Intersections, PerConflictMetadataPopulated) {
  std::vector<TrajectoryPoint> pts_b;
  for (double d : {-0.4, -0.2, 0.0, 0.2, 0.4}) {
    pts_b.push_back({d, {d + 0.1, 0.2 - d}});
  }
  const std::vector<FaultTrajectory> trajs = {
      straight_line("A", {1.0, 1.0}), FaultTrajectory("B", std::move(pts_b))};
  const auto report = count_intersections(trajs);
  ASSERT_FALSE(report.conflicts.empty());
  const auto& c = report.conflicts.front();
  EXPECT_EQ(c.at.size(), 2u);
  EXPECT_GT(norm(c.at), 0.0);
}

TEST(Intersections, CountMatchesConflictListSize) {
  std::vector<TrajectoryPoint> pts_b;
  for (double d : {-0.4, -0.2, 0.0, 0.2, 0.4}) {
    pts_b.push_back({d, {d + 0.05, 0.1 - d}});
  }
  const std::vector<FaultTrajectory> trajs = {
      straight_line("A", {1.0, 1.0}),
      FaultTrajectory("B", std::move(pts_b)),
      straight_line("C", {0.0, 1.0})};
  const auto report = count_intersections(trajs);
  EXPECT_EQ(report.count, report.conflicts.size());
}

// ---------------------------------------------------------------------
// Differential verification: the grid-pruned sweep must reproduce the
// exact all-pairs sweep verbatim on randomized trajectory sets.

std::vector<FaultTrajectory> random_trajectories(Rng& rng, std::size_t count,
                                                 std::size_t dim) {
  std::vector<FaultTrajectory> out;
  for (std::size_t t = 0; t < count; ++t) {
    // A random direction through the origin with per-vertex wobble, so the
    // set is rich in crossings, near misses and an occasional overlap.
    Point direction(dim);
    for (double& v : direction) v = rng.uniform(-1.0, 1.0);
    const double wobble = rng.uniform(0.0, 0.3);
    std::vector<TrajectoryPoint> pts;
    for (double d : {-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4}) {
      Point p(dim);
      for (std::size_t k = 0; k < dim; ++k) {
        p[k] = d * direction[k] + (d == 0.0 ? 0.0 : wobble * d * rng.normal());
      }
      pts.push_back({d, std::move(p)});
    }
    out.emplace_back("T" + std::to_string(t), std::move(pts));
  }
  return out;
}

void expect_identical_reports(const IntersectionReport& exact,
                              const IntersectionReport& pruned) {
  ASSERT_EQ(exact.count, pruned.count);
  ASSERT_EQ(exact.conflicts.size(), pruned.conflicts.size());
  for (std::size_t c = 0; c < exact.conflicts.size(); ++c) {
    const auto& e = exact.conflicts[c];
    const auto& p = pruned.conflicts[c];
    EXPECT_EQ(e.site_a, p.site_a);
    EXPECT_EQ(e.site_b, p.site_b);
    EXPECT_EQ(e.segment_a, p.segment_a);
    EXPECT_EQ(e.segment_b, p.segment_b);
    EXPECT_EQ(e.at, p.at);
    EXPECT_EQ(e.separation, p.separation);
  }
}

TEST(PrunedIntersections, MatchesExactSweepOn2dRandomSets) {
  Rng rng(20250731);
  for (int round = 0; round < 60; ++round) {
    const std::size_t count =
        static_cast<std::size_t>(rng.uniform_int(2, 14));
    const auto trajs = random_trajectories(rng, count, 2);
    IntersectionOptions exact_options;
    exact_options.algorithm = IntersectionAlgorithm::kExact;
    IntersectionOptions pruned_options;
    pruned_options.algorithm = IntersectionAlgorithm::kPruned;
    expect_identical_reports(count_intersections(trajs, exact_options),
                             count_intersections(trajs, pruned_options));
  }
}

TEST(PrunedIntersections, MatchesExactSweepInNearMissMode) {
  Rng rng(777);
  for (std::size_t dim : {3u, 4u, 6u}) {
    for (int round = 0; round < 20; ++round) {
      const auto trajs = random_trajectories(rng, 10, dim);
      IntersectionOptions exact_options;
      exact_options.algorithm = IntersectionAlgorithm::kExact;
      // A fat threshold so near misses actually fire.
      exact_options.near_threshold = 0.1;
      IntersectionOptions pruned_options = exact_options;
      pruned_options.algorithm = IntersectionAlgorithm::kPruned;
      const auto exact = count_intersections(trajs, exact_options);
      expect_identical_reports(exact,
                               count_intersections(trajs, pruned_options));
    }
  }
}

TEST(PrunedIntersections, MatchesExactWithOverlapCountingDisabled) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    const auto trajs = random_trajectories(rng, 8, 2);
    IntersectionOptions exact_options;
    exact_options.algorithm = IntersectionAlgorithm::kExact;
    exact_options.count_overlaps = false;
    IntersectionOptions pruned_options = exact_options;
    pruned_options.algorithm = IntersectionAlgorithm::kPruned;
    expect_identical_reports(count_intersections(trajs, exact_options),
                             count_intersections(trajs, pruned_options));
  }
}

TEST(PrunedIntersections, CountOnlyModeReportsTheSameCount) {
  Rng rng(4242);
  for (int round = 0; round < 30; ++round) {
    const std::size_t dim = round % 2 == 0 ? 2 : 3;
    const auto trajs = random_trajectories(rng, 9, dim);
    for (auto algorithm :
         {IntersectionAlgorithm::kExact, IntersectionAlgorithm::kPruned}) {
      IntersectionOptions collecting;
      collecting.algorithm = algorithm;
      collecting.near_threshold = 0.05;
      IntersectionOptions count_only = collecting;
      count_only.collect_conflicts = false;
      const auto full = count_intersections(trajs, collecting);
      const auto bare = count_intersections(trajs, count_only);
      EXPECT_EQ(full.count, bare.count);
      EXPECT_EQ(full.count, full.conflicts.size());
      EXPECT_TRUE(bare.conflicts.empty());
    }
  }
}

TEST(PrunedIntersections, HandlesCoincidentAndDegenerateSets) {
  // Identical trajectories (everything overlaps) and axis-aligned lines
  // (zero extent on one axis) exercise the grid's degenerate paths.
  const std::vector<FaultTrajectory> coincident = {
      straight_line("A", {1.0, 0.5}), straight_line("B", {1.0, 0.5}),
      straight_line("C", {1.0, 0.5})};
  const std::vector<FaultTrajectory> flat = {
      straight_line("A", {1.0, 0.0}), straight_line("B", {2.0, 0.0})};
  for (const auto* trajs : {&coincident, &flat}) {
    IntersectionOptions exact_options;
    exact_options.algorithm = IntersectionAlgorithm::kExact;
    IntersectionOptions pruned_options;
    pruned_options.algorithm = IntersectionAlgorithm::kPruned;
    expect_identical_reports(count_intersections(*trajs, exact_options),
                             count_intersections(*trajs, pruned_options));
  }
}

TEST(PrunedIntersections, MatchesExactWithNonFiniteCoordinates) {
  // A dB signature of an exactly-zero response is -inf, and golden-relative
  // coordinates then hold NaN: the pruned sweep must still report what the
  // exact sweep reports.
  Rng rng(5);
  for (std::size_t dim : {2u, 3u}) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       -std::numeric_limits<double>::infinity()}) {
      std::vector<FaultTrajectory> trajs = random_trajectories(rng, 8, dim);
      std::vector<TrajectoryPoint> pts = trajs[3].points();
      pts.front().coords[0] = bad;
      pts.back().coords[dim - 1] = bad;
      trajs[3] = FaultTrajectory(trajs[3].site(), std::move(pts));
      IntersectionOptions exact_options;
      exact_options.algorithm = IntersectionAlgorithm::kExact;
      exact_options.near_threshold = 0.1;
      IntersectionOptions pruned_options = exact_options;
      pruned_options.algorithm = IntersectionAlgorithm::kPruned;
      // NaN never compares equal, so the pairs are compared, not `at`.
      const auto exact = count_intersections(trajs, exact_options);
      const auto pruned = count_intersections(trajs, pruned_options);
      ASSERT_EQ(exact.count, pruned.count);
      ASSERT_EQ(exact.conflicts.size(), pruned.conflicts.size());
      for (std::size_t c = 0; c < exact.conflicts.size(); ++c) {
        EXPECT_EQ(exact.conflicts[c].site_a, pruned.conflicts[c].site_a);
        EXPECT_EQ(exact.conflicts[c].site_b, pruned.conflicts[c].site_b);
        EXPECT_EQ(exact.conflicts[c].segment_a, pruned.conflicts[c].segment_a);
        EXPECT_EQ(exact.conflicts[c].segment_b, pruned.conflicts[c].segment_b);
      }
    }
  }
}

/// Scores through the pipeline and keeps every genome the optimizer
/// proposed, snapped and sorted (so repeats are replayed once).
class RecordingObjective final : public ga::BatchObjective {
public:
  explicit RecordingObjective(const EvaluationPipeline& pipeline)
      : pipeline_(pipeline) {}

  [[nodiscard]] std::vector<double> evaluate(
      const std::vector<std::vector<double>>& genomes) const override {
    for (const auto& genes : genomes) {
      std::vector<double> snapped;
      for (double g : genes) snapped.push_back(pipeline_.snap(g));
      std::sort(snapped.begin(), snapped.end());
      proposed_.insert(std::move(snapped));
    }
    return pipeline_.evaluate(genomes);
  }

  [[nodiscard]] const std::set<std::vector<double>>& proposed() const {
    return proposed_;
  }

private:
  const EvaluationPipeline& pipeline_;
  mutable std::set<std::vector<double>> proposed_;
};

TEST(PrunedIntersections, MatchesExactOnEveryPaperGaGenomeOfTheRegistry) {
  // The trajectory sets the paper GA actually scores: 2 frequencies give
  // 2-D crossings, 3 frequencies the n-D near-miss mode.
  for (const std::string& name : circuits::registry_names()) {
    for (std::size_t n : {2u, 3u}) {
      SearchOptions search;
      search.n_frequencies = n;
      const Session session =
          SessionBuilder::from_registry(name).search(search).build();
      const EvaluationPipeline pipeline(session.evaluator());
      const RecordingObjective recorder(pipeline);
      Rng rng(search.seed);
      (void)ga::GeneticAlgorithm(search.ga)
          .optimize(recorder, n, session.bounds(), rng);
      ASSERT_GT(recorder.proposed().size(), 100u) << name;

      IntersectionOptions exact;
      exact.algorithm = IntersectionAlgorithm::kExact;
      IntersectionOptions pruned;
      pruned.algorithm = IntersectionAlgorithm::kPruned;
      IntersectionOptions exact_count = exact;
      exact_count.collect_conflicts = false;
      IntersectionOptions pruned_count = pruned;
      pruned_count.collect_conflicts = false;
      for (const auto& genes : recorder.proposed()) {
        const auto trajs = pipeline.trajectories(genes);
        const IntersectionReport reference = count_intersections(trajs, exact);
        ASSERT_EQ(count_intersections(trajs, exact_count).count,
                  reference.count);
        ASSERT_EQ(count_intersections(trajs, pruned_count).count,
                  reference.count)
            << name << " n=" << n;
        expect_identical_reports(reference,
                                 count_intersections(trajs, pruned));
        if (HasFailure()) {
          FAIL() << name << " n=" << n << ": pruned sweep differs";
        }
      }
    }
  }
}

}  // namespace
}  // namespace ftdiag::core
