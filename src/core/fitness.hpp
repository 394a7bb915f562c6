/// \file fitness.hpp
/// \brief Fitness functions over trajectory sets.
///
/// The paper's fitness is 1/(1+I) with I the intersection count (§2.4).
/// Alternatives are provided for the ablation benchmarks: a separation
/// margin (how far apart the closest pair of trajectories stays) and a
/// hybrid of both.  All fitnesses map to (0, 1], larger is better.
///
/// Every fitness scores the flat trajectory layout (core/trajectory.hpp),
/// which the evaluation pipeline writes straight from its signature
/// columns; the FaultTrajectory overload flattens once and forwards.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/intersection.hpp"
#include "core/trajectory.hpp"

namespace ftdiag::core {

/// Typed selector for the built-in fitness functions.
enum class FitnessKind : std::uint8_t {
  kPaper,       ///< the paper's 1/(1+I)
  kSeparation,  ///< normalized minimum trajectory separation
  kHybrid,      ///< weighted blend of both
};

/// Interface: score a trajectory set.
class TrajectoryFitness {
public:
  virtual ~TrajectoryFitness() = default;

  /// Score in (0, 1]; larger means better diagnosability.  Must be safe to
  /// call concurrently (the pipeline scores genomes on several lanes).
  [[nodiscard]] virtual double evaluate(
      const FlatTrajectories& trajectories) const = 0;

  /// Same, flattening \p trajectories first.
  [[nodiscard]] double evaluate(
      const std::vector<FaultTrajectory>& trajectories) const;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// The paper's fitness: 1 / (1 + I).
class IntersectionFitness final : public TrajectoryFitness {
public:
  explicit IntersectionFitness(IntersectionOptions options = {})
      : options_(options) {}

  using TrajectoryFitness::evaluate;
  [[nodiscard]] double evaluate(
      const FlatTrajectories& trajectories) const override;
  [[nodiscard]] std::string name() const override { return "paper-1/(1+I)"; }

  [[nodiscard]] const IntersectionOptions& options() const { return options_; }

private:
  IntersectionOptions options_;
};

/// Separation fitness: s / (s + 1) where s is the minimum pairwise
/// trajectory distance (origin-adjacent contacts excluded) normalized by
/// the largest trajectory excursion.  Rewards spreading trajectories apart
/// even when none intersect.
class SeparationFitness final : public TrajectoryFitness {
public:
  /// \param origin_exclusion fraction of the excursion scale around the
  /// origin within which contacts are structural.
  explicit SeparationFitness(double origin_exclusion = 0.05)
      : origin_exclusion_(origin_exclusion) {}

  using TrajectoryFitness::evaluate;
  [[nodiscard]] double evaluate(
      const FlatTrajectories& trajectories) const override;
  [[nodiscard]] std::string name() const override { return "separation"; }

  /// The raw normalized separation margin in [0, 1].
  [[nodiscard]] double margin(const FlatTrajectories& trajectories) const;
  [[nodiscard]] double margin(
      const std::vector<FaultTrajectory>& trajectories) const;

private:
  double origin_exclusion_;
};

/// weight * paper + (1 - weight) * separation.
class HybridFitness final : public TrajectoryFitness {
public:
  HybridFitness(double intersection_weight = 0.7,
                IntersectionOptions options = {},
                double origin_exclusion = 0.05);

  using TrajectoryFitness::evaluate;
  [[nodiscard]] double evaluate(
      const FlatTrajectories& trajectories) const override;
  [[nodiscard]] std::string name() const override { return "hybrid"; }

private:
  double weight_;
  IntersectionFitness intersection_;
  SeparationFitness separation_;
};

/// Factory over the typed selector.
[[nodiscard]] std::unique_ptr<TrajectoryFitness> make_fitness(FitnessKind kind);

/// Parse helper for CLI-ish surfaces: "paper" | "separation" | "hybrid".
/// \throws ConfigError for unknown names.
[[nodiscard]] FitnessKind parse_fitness_kind(const std::string& name);

/// Canonical name of a kind (the string parse_fitness_kind accepts).
[[nodiscard]] std::string to_string(FitnessKind kind);

}  // namespace ftdiag::core
