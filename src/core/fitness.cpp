#include "core/fitness.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace ftdiag::core {

double TrajectoryFitness::evaluate(
    const std::vector<FaultTrajectory>& trajectories) const {
  FlatTrajectories flat;
  flat.assign(trajectories);
  return evaluate(flat);
}

double IntersectionFitness::evaluate(
    const FlatTrajectories& trajectories) const {
  // Only the count enters the fitness, so skip the per-conflict records
  // (the GA inner loop calls this thousands of times per search).
  IntersectionOptions count_only = options_;
  count_only.collect_conflicts = false;
  const IntersectionReport report =
      count_intersections(trajectories, count_only);
  return 1.0 / (1.0 + static_cast<double>(report.count));
}

double SeparationFitness::margin(const FlatTrajectories& trajectories) const {
  if (trajectories.size() < 2) return 1.0;
  const double scale = trajectories.max_excursion();
  if (scale <= 0.0) return 0.0;
  const std::size_t dim = trajectories.dim;
  const double origin_ball = origin_exclusion_ * scale;
  thread_local std::vector<double> origin;
  if (origin.size() < dim) origin.resize(dim, 0.0);

  double min_separation = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < trajectories.size(); ++i) {
    for (std::size_t j = i + 1; j < trajectories.size(); ++j) {
      for (std::size_t si = 0; si < trajectories.segment_count(i); ++si) {
        const double* a = trajectories.segment(i, si);
        const double a_to_origin =
            point_segment_distance(origin.data(), a, a + dim, dim);
        for (std::size_t sj = 0; sj < trajectories.segment_count(j); ++sj) {
          const double* b = trajectories.segment(j, sj);
          // A contact forced by the shared golden point is structural.
          if (a_to_origin <= origin_ball &&
              point_segment_distance(origin.data(), b, b + dim, dim) <=
                  origin_ball) {
            continue;
          }
          min_separation = std::min(
              min_separation, segment_segment_distance(a, a + dim, b, b + dim,
                                                       dim));
        }
      }
    }
  }
  if (!std::isfinite(min_separation)) return 0.0;
  return std::min(min_separation / scale, 1.0);
}

double SeparationFitness::margin(
    const std::vector<FaultTrajectory>& trajectories) const {
  FlatTrajectories flat;
  flat.assign(trajectories);
  return margin(flat);
}

double SeparationFitness::evaluate(
    const FlatTrajectories& trajectories) const {
  const double m = margin(trajectories);
  // Map [0, 1] margin into (0, 1] with a soft knee so tiny margins still
  // produce a usable gradient for the optimizer.
  return m / (m + 0.05) * 0.95 + 0.05;
}

HybridFitness::HybridFitness(double intersection_weight,
                             IntersectionOptions options,
                             double origin_exclusion)
    : weight_(intersection_weight),
      intersection_(options),
      separation_(origin_exclusion) {
  if (weight_ < 0.0 || weight_ > 1.0) {
    throw ConfigError("hybrid fitness weight must lie in [0, 1]");
  }
}

double HybridFitness::evaluate(const FlatTrajectories& trajectories) const {
  // Separation first: its early outs then branch before the blend, which
  // keeps the blend's multiply-adds in one block (the contraction, and so
  // the rounding, of the original single-expression form).
  const double separation = separation_.evaluate(trajectories);
  return weight_ * intersection_.evaluate(trajectories) +
         (1.0 - weight_) * separation;
}

std::unique_ptr<TrajectoryFitness> make_fitness(FitnessKind kind) {
  switch (kind) {
    case FitnessKind::kPaper:
      return std::make_unique<IntersectionFitness>();
    case FitnessKind::kSeparation:
      return std::make_unique<SeparationFitness>();
    case FitnessKind::kHybrid:
      return std::make_unique<HybridFitness>();
  }
  throw ConfigError("unknown FitnessKind value");
}

FitnessKind parse_fitness_kind(const std::string& name) {
  if (name == "paper") return FitnessKind::kPaper;
  if (name == "separation") return FitnessKind::kSeparation;
  if (name == "hybrid") return FitnessKind::kHybrid;
  throw ConfigError("unknown fitness '" + name +
                    "' (expected paper|separation|hybrid)");
}

std::string to_string(FitnessKind kind) {
  switch (kind) {
    case FitnessKind::kPaper:
      return "paper";
    case FitnessKind::kSeparation:
      return "separation";
    case FitnessKind::kHybrid:
      return "hybrid";
  }
  throw ConfigError("unknown FitnessKind value");
}

}  // namespace ftdiag::core
