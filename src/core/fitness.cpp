#include "core/fitness.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace ftdiag::core {

double IntersectionFitness::evaluate(
    const std::vector<FaultTrajectory>& trajectories) const {
  // Only the count enters the fitness, so skip the per-conflict records
  // (the GA inner loop calls this thousands of times per search).
  IntersectionOptions count_only = options_;
  count_only.collect_conflicts = false;
  const IntersectionReport report =
      count_intersections(trajectories, count_only);
  return 1.0 / (1.0 + static_cast<double>(report.count));
}

double SeparationFitness::margin(
    const std::vector<FaultTrajectory>& trajectories) const {
  if (trajectories.size() < 2) return 1.0;
  double scale = 0.0;
  for (const auto& t : trajectories) {
    scale = std::max(scale, t.max_excursion());
  }
  if (scale <= 0.0) return 0.0;
  const std::size_t dim = trajectories.front().dimension();
  const Point origin(dim, 0.0);
  const double origin_ball = origin_exclusion_ * scale;

  std::vector<std::vector<Segment>> segs;
  segs.reserve(trajectories.size());
  for (const auto& t : trajectories) segs.push_back(t.segments());

  double min_separation = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      for (const auto& a : segs[i]) {
        const double a_to_origin = project_point(origin, a).distance;
        for (const auto& b : segs[j]) {
          // A contact forced by the shared golden point is structural.
          if (a_to_origin <= origin_ball &&
              project_point(origin, b).distance <= origin_ball) {
            continue;
          }
          min_separation =
              std::min(min_separation, segment_segment_distance(a, b));
        }
      }
    }
  }
  if (!std::isfinite(min_separation)) return 0.0;
  return std::min(min_separation / scale, 1.0);
}

double SeparationFitness::evaluate(
    const std::vector<FaultTrajectory>& trajectories) const {
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

double HybridFitness::evaluate(
    const std::vector<FaultTrajectory>& trajectories) const {
  return weight_ * intersection_.evaluate(trajectories) +
         (1.0 - weight_) * separation_.evaluate(trajectories);
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
