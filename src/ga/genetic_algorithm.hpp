/// \file genetic_algorithm.hpp
/// \brief The paper's GA (§2.4): 128 individuals, 15 generations,
/// 50 % reproduction rate, 40 % mutation rate, roulette-wheel selection,
/// generation count as the stop criterion.
///
/// The GA is batch-first: each generation it constructs every offspring
/// genome up front (selection, crossover and mutation drawn from a
/// per-genome forked RNG stream, in slot order) and hands the whole slice
/// to the BatchObjective in one call.  Scores are consumed in slot order,
/// so the result is bit-identical however the objective parallelizes.
///
/// The generation step runs serially between two parallel evaluations, so
/// it is kept small: the population is one flat population × dimensions
/// buffer ranked by sorting (fitness, row) pairs, offspring overwrite the
/// rows of the individuals they replace, the batch of genomes is reused
/// from one generation to the next, and parents are drawn from a
/// cumulative roulette/rank table by binary search (SelectionContext).
#pragma once

#include "ga/operators.hpp"
#include "ga/optimizer.hpp"

namespace ftdiag::ga {

struct GaConfig {
  std::size_t population_size = 128;
  std::size_t generations = 15;
  /// Fraction of the next generation produced by crossover; the remainder
  /// is filled with the best survivors (generational with elitist refill).
  double reproduction_rate = 0.5;
  /// Probability that an offspring undergoes mutation.
  double mutation_rate = 0.4;
  /// Gaussian mutation step in gene units (decades of frequency).
  double mutation_sigma = 0.25;
  SelectionKind selection = SelectionKind::kRoulette;
  CrossoverKind crossover = CrossoverKind::kArithmetic;
  MutationKind mutation = MutationKind::kGaussian;
  /// Individuals copied unchanged to the next generation.  Must leave room
  /// for at least one non-elite individual.
  std::size_t elite_count = 1;
  /// Optional early stop: quit once this fitness is reached (0 disables).
  double target_fitness = 0.0;
  /// Genomes injected into the initial population (e.g. from sensitivity
  /// screening); the remainder is random.  Extra seeds are dropped.
  std::vector<std::vector<double>> seed_genomes;

  /// The configuration published in the paper.
  [[nodiscard]] static GaConfig paper() { return GaConfig{}; }

  /// \throws ConfigError on out-of-range rates, a zero population, a
  /// non-positive mutation sigma, or elite_count >= population_size.
  void check() const;

  /// Like check(), and additionally rejects seed genomes whose dimension
  /// does not match the search.  \throws ConfigError.
  void check(std::size_t dimensions) const;
};

class GeneticAlgorithm final : public FrequencyOptimizer {
public:
  explicit GeneticAlgorithm(GaConfig config = GaConfig::paper());

  [[nodiscard]] OptimizerResult optimize(const BatchObjective& objective,
                                         std::size_t dimensions,
                                         const GeneBounds& bounds,
                                         Rng& rng) const override;

  [[nodiscard]] std::string name() const override { return "ga"; }

  [[nodiscard]] const GaConfig& config() const { return config_; }

private:
  GaConfig config_;
};

}  // namespace ftdiag::ga
