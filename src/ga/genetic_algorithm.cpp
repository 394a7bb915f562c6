#include "ga/genetic_algorithm.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "util/error.hpp"

namespace ftdiag::ga {

void GaConfig::check() const {
  if (population_size == 0) throw ConfigError("GA population must be > 0");
  if (generations == 0) throw ConfigError("GA generations must be > 0");
  if (reproduction_rate < 0.0 || reproduction_rate > 1.0) {
    throw ConfigError("GA reproduction rate must lie in [0, 1]");
  }
  if (mutation_rate < 0.0 || mutation_rate > 1.0) {
    throw ConfigError("GA mutation rate must lie in [0, 1]");
  }
  if (!(mutation_sigma > 0.0)) {
    throw ConfigError("GA mutation sigma must be positive");
  }
  if (elite_count >= population_size) {
    throw ConfigError(
        "GA elite count must leave room for at least one non-elite "
        "individual (elite_count < population_size)");
  }
}

void GaConfig::check(std::size_t dimensions) const {
  check();
  for (const auto& seed : seed_genomes) {
    if (seed.size() != dimensions) {
      throw ConfigError("GA seed genome has dimension " +
                        std::to_string(seed.size()) + ", search expects " +
                        std::to_string(dimensions));
    }
  }
}

GeneticAlgorithm::GeneticAlgorithm(GaConfig config) : config_(config) {
  config_.check();
}

OptimizerResult GeneticAlgorithm::optimize(const BatchObjective& objective,
                                           std::size_t dimensions,
                                           const GeneBounds& bounds,
                                           Rng& rng) const {
  FTDIAG_ASSERT(dimensions >= 1, "GA needs at least one gene");
  config_.check(dimensions);
  const std::size_t size = config_.population_size;
  OptimizerResult result;

  // The population: one row of `genes` (`dimensions` wide) per individual,
  // and `ranking` listing (fitness, row) best-first.  Rank i of a
  // selection draw names ranking[i].
  struct Ranked {
    double fitness;
    std::size_t row;
  };
  std::vector<double> genes(size * dimensions);
  std::vector<Ranked> ranking(size);
  std::vector<Ranked> next(size);
  std::vector<double> ranked_fitness(size);
  const auto row = [&](std::size_t r) {
    return std::span<double>(genes).subspan(r * dimensions, dimensions);
  };

  // The genomes handed to the objective, reused by every generation.  One
  // call scores the whole batch, and genome k goes to row rows[k] scored
  // scores[k]: slot order, so the outcome cannot depend on evaluation
  // scheduling.
  std::vector<std::vector<double>> batch;
  const auto evaluate_into = [&](std::span<const std::size_t> rows,
                                 std::span<Ranked> out) {
    const std::vector<double> scores = objective.evaluate(batch);
    FTDIAG_ASSERT(scores.size() == batch.size(),
                  "batch objective returned a mismatched score count");
    result.evaluations += batch.size();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      std::copy(batch[k].begin(), batch[k].end(), row(rows[k]).begin());
      out[k] = {scores[k], rows[k]};
    }
  };

  // std::sort is not stable: tied individuals rank by where they stand in
  // the sequence it sorts, so that sequence is part of the result (elites,
  // offspring, survivors each generation).
  const auto by_fitness_desc = [](const Ranked& a, const Ranked& b) {
    return a.fitness > b.fitness;
  };

  const auto record_generation = [&](std::size_t generation) {
    GenerationStats stats;
    stats.generation = generation;
    stats.evaluations = result.evaluations;
    stats.best = 0.0;
    stats.worst = 1.0;
    double sum = 0.0;
    for (const Ranked& r : ranking) {
      stats.best = std::max(stats.best, r.fitness);
      stats.worst = std::min(stats.worst, r.fitness);
      sum += r.fitness;
    }
    stats.mean = sum / static_cast<double>(size);
    result.history.push_back(stats);
  };

  // Initial population: injected seed genomes first, random fill after.
  // Each random genome draws from its own forked stream so its
  // construction is independent of every other slot.
  batch.resize(size);
  std::size_t filled = 0;
  for (const auto& seed : config_.seed_genomes) {
    if (filled >= size) break;
    std::vector<double>& slot = batch[filled++];
    slot.resize(dimensions);
    for (std::size_t i = 0; i < dimensions; ++i) slot[i] = bounds.clamp(seed[i]);
  }
  for (; filled < size; ++filled) {
    Rng stream = rng.fork();
    std::vector<double>& slot = batch[filled];
    slot.resize(dimensions);
    for (double& g : slot) g = stream.uniform(bounds.lo, bounds.hi);
  }
  std::vector<std::size_t> rows(size);
  std::iota(rows.begin(), rows.end(), 0);
  evaluate_into(rows, ranking);
  std::sort(ranking.begin(), ranking.end(), by_fitness_desc);
  record_generation(0);

  const std::size_t elites = config_.elite_count;
  const std::size_t offspring_count = std::min(
      static_cast<std::size_t>(config_.reproduction_rate *
                               static_cast<double>(size)),
      size - elites);
  batch.resize(offspring_count);
  rows.resize(offspring_count);

  for (std::size_t gen = 1; gen <= config_.generations; ++gen) {
    if (config_.target_fitness > 0.0 &&
        ranking.front().fitness >= config_.target_fitness) {
      break;
    }

    // Construct every offspring genome up front.  Selection, crossover and
    // mutation for slot k draw from a stream forked in slot order, so the
    // genomes are a pure function of (population, rng) — ready for one
    // batched evaluation.
    for (std::size_t i = 0; i < size; ++i) ranked_fitness[i] = ranking[i].fitness;
    const SelectionContext selection(ranked_fitness, config_.selection);
    for (std::size_t k = 0; k < offspring_count; ++k) {
      Rng stream = rng.fork();
      const std::size_t ia = selection.select(stream);
      const std::size_t ib = selection.select(stream);
      std::vector<double>& child = batch[k];
      child.resize(dimensions);
      crossover(row(ranking[ia].row), row(ranking[ib].row), child,
                config_.crossover, stream);
      if (stream.bernoulli(config_.mutation_rate)) {
        // The paper quotes a whole-individual mutation rate; apply a
        // per-gene gaussian nudge once an individual is chosen to mutate.
        mutate(child, config_.mutation, 1.0, config_.mutation_sigma, bounds,
               stream);
      }
      for (double& g : child) g = bounds.clamp(g);
    }

    // Elites survive unchanged, then the offspring, then the best
    // remaining survivors refill.  The offspring take the rows of the
    // `offspring_count` worst, which drop out.
    const std::size_t survivors = size - elites - offspring_count;
    for (std::size_t k = 0; k < offspring_count; ++k) {
      rows[k] = ranking[size - offspring_count + k].row;
    }
    std::copy_n(ranking.begin(), elites, next.begin());
    evaluate_into(rows, std::span<Ranked>(next).subspan(elites, offspring_count));
    std::copy_n(ranking.begin() + static_cast<std::ptrdiff_t>(elites),
                survivors,
                next.begin() + static_cast<std::ptrdiff_t>(elites + offspring_count));
    ranking.swap(next);
    std::sort(ranking.begin(), ranking.end(), by_fitness_desc);
    record_generation(gen);
  }

  const auto best = row(ranking.front().row);
  result.best = {std::vector<double>(best.begin(), best.end()),
                 ranking.front().fitness};
  return result;
}

}  // namespace ftdiag::ga
