/// \file baselines.hpp
/// \brief Baseline frequency searchers the GA is compared against in the
/// Ext-A benchmark: random search, exhaustive grid, stochastic hill
/// climbing and simulated annealing — all under the same evaluation budget.
///
/// All baselines run on the batch interface: random and grid search stream
/// chunks of independent genomes through the BatchObjective; hill climbing
/// advances its restart chains in lockstep so every step evaluates one
/// genome per chain in a single batch.  Simulated annealing is inherently
/// sequential (each proposal depends on the previous accept/reject) and
/// evaluates singleton batches.
#pragma once

#include "ga/optimizer.hpp"

namespace ftdiag::ga {

/// Uniform random sampling of the gene box; keeps the best.  Genomes are
/// drawn from per-genome forked streams and evaluated in chunked batches.
class RandomSearch final : public FrequencyOptimizer {
public:
  explicit RandomSearch(std::size_t budget = 2048);
  [[nodiscard]] OptimizerResult optimize(const BatchObjective& objective,
                                         std::size_t dimensions,
                                         const GeneBounds& bounds,
                                         Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "random"; }

private:
  std::size_t budget_;
};

/// Full factorial grid over the gene box (points_per_axis^dimensions
/// evaluations).  For 2 frequencies this is the exhaustive "frequency
/// sweep" the paper calls unfeasible on silicon but which is a legitimate
/// software baseline.
class GridSearch final : public FrequencyOptimizer {
public:
  explicit GridSearch(std::size_t points_per_axis = 45);
  [[nodiscard]] OptimizerResult optimize(const BatchObjective& objective,
                                         std::size_t dimensions,
                                         const GeneBounds& bounds,
                                         Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "grid"; }

private:
  std::size_t points_per_axis_;
};

/// Random-restart stochastic hill climbing with a decaying step.  The
/// restart chains advance in lockstep (one batched evaluation per step,
/// one genome per chain), each chain on its own forked RNG stream.
class HillClimb final : public FrequencyOptimizer {
public:
  HillClimb(std::size_t budget = 2048, std::size_t restarts = 8,
            double initial_step = 0.5);
  [[nodiscard]] OptimizerResult optimize(const BatchObjective& objective,
                                         std::size_t dimensions,
                                         const GeneBounds& bounds,
                                         Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "hillclimb"; }

private:
  std::size_t budget_;
  std::size_t restarts_;
  double initial_step_;
};

/// Simulated annealing with geometric cooling.  Inherently sequential:
/// evaluates one genome per batch.
class SimulatedAnnealing final : public FrequencyOptimizer {
public:
  SimulatedAnnealing(std::size_t budget = 2048, double initial_temperature = 0.3,
                     double cooling = 0.995, double step = 0.3);
  [[nodiscard]] OptimizerResult optimize(const BatchObjective& objective,
                                         std::size_t dimensions,
                                         const GeneBounds& bounds,
                                         Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "anneal"; }

private:
  std::size_t budget_;
  double initial_temperature_;
  double cooling_;
  double step_;
};

}  // namespace ftdiag::ga
