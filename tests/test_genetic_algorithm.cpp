#include "ga/genetic_algorithm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace ftdiag::ga {
namespace {

/// Smooth single-peak objective over [0, 5]^n with optimum at 3.0, scored
/// one genome at a time; \p inspect, when set, sees every genome first.
class Bump final : public BatchObjective {
public:
  using Inspect = std::function<void(const std::vector<double>&)>;
  explicit Bump(Inspect inspect = {}) : inspect_(std::move(inspect)) {}

  [[nodiscard]] std::vector<double> evaluate(
      const std::vector<std::vector<double>>& genomes) const override {
    std::vector<double> scores;
    scores.reserve(genomes.size());
    for (const auto& genes : genomes) {
      if (inspect_) inspect_(genes);
      double acc = 1.0;
      for (double g : genes) acc *= std::exp(-(g - 3.0) * (g - 3.0));
      scores.push_back(acc);
    }
    return scores;
  }

private:
  Inspect inspect_;
};

const Bump bump;

TEST(GaConfig, PaperParameters) {
  const GaConfig paper = GaConfig::paper();
  EXPECT_EQ(paper.population_size, 128u);
  EXPECT_EQ(paper.generations, 15u);
  EXPECT_DOUBLE_EQ(paper.reproduction_rate, 0.5);
  EXPECT_DOUBLE_EQ(paper.mutation_rate, 0.4);
  EXPECT_EQ(paper.selection, SelectionKind::kRoulette);
  EXPECT_NO_THROW(paper.check());
}

TEST(GaConfig, InvalidValuesRejected) {
  GaConfig c;
  c.population_size = 0;
  EXPECT_THROW(c.check(), ConfigError);
  c = GaConfig{};
  c.generations = 0;
  EXPECT_THROW(c.check(), ConfigError);
  c = GaConfig{};
  c.reproduction_rate = 1.5;
  EXPECT_THROW(c.check(), ConfigError);
  c = GaConfig{};
  c.mutation_rate = -0.1;
  EXPECT_THROW(c.check(), ConfigError);
  c = GaConfig{};
  c.mutation_sigma = 0.0;
  EXPECT_THROW(c.check(), ConfigError);
  c = GaConfig{};
  c.mutation_sigma = -0.5;
  EXPECT_THROW(c.check(), ConfigError);
  c = GaConfig{};
  c.elite_count = 1000;
  EXPECT_THROW(c.check(), ConfigError);
}

TEST(GaConfig, EliteCountMustLeaveRoomForOffspring) {
  GaConfig c;
  c.population_size = 16;
  c.elite_count = 16;  // a population of pure elites never searches
  EXPECT_THROW(c.check(), ConfigError);
  c.elite_count = 15;
  EXPECT_NO_THROW(c.check());
}

TEST(GaConfig, SeedGenomeDimensionMismatchRejected) {
  GaConfig c;
  c.population_size = 8;
  c.generations = 1;
  c.seed_genomes = {{1.0, 2.0, 3.0}};  // 3 genes in a 2-gene search
  EXPECT_THROW(c.check(2), ConfigError);
  EXPECT_NO_THROW(c.check(3));

  const GeneticAlgorithm ga(c);
  Rng rng(1);
  EXPECT_THROW((void)ga.optimize(bump, 2, {0.0, 5.0}, rng), ConfigError);
}

TEST(Ga, FindsTheBumpOptimum) {
  GaConfig config;
  config.population_size = 64;
  config.generations = 30;
  const GeneticAlgorithm ga(config);
  Rng rng(42);
  const auto result = ga.optimize(bump, 2, {0.0, 5.0}, rng);
  EXPECT_GT(result.best.fitness, 0.95);
  EXPECT_NEAR(result.best.genes[0], 3.0, 0.3);
  EXPECT_NEAR(result.best.genes[1], 3.0, 0.3);
}

TEST(Ga, HistoryCoversEveryGeneration) {
  const GeneticAlgorithm ga(GaConfig::paper());
  Rng rng(1);
  const auto result = ga.optimize(bump, 1, {0.0, 5.0}, rng);
  EXPECT_EQ(result.history.size(), 16u);  // initial + 15 generations
  EXPECT_EQ(result.history.front().generation, 0u);
  EXPECT_EQ(result.history.back().generation, 15u);
  // Cumulative evaluation counts are non-decreasing.
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GE(result.history[i].evaluations,
              result.history[i - 1].evaluations);
  }
}

TEST(Ga, ElitismMakesBestMonotone) {
  GaConfig config;
  config.population_size = 32;
  config.generations = 20;
  config.elite_count = 2;
  const GeneticAlgorithm ga(config);
  Rng rng(5);
  const auto result = ga.optimize(bump, 3, {0.0, 5.0}, rng);
  double prev = 0.0;
  for (const auto& g : result.history) {
    EXPECT_GE(g.best + 1e-12, prev);
    prev = g.best;
  }
}

TEST(Ga, DeterministicPerSeed) {
  const GeneticAlgorithm ga(GaConfig::paper());
  Rng rng_a(7), rng_b(7);
  const auto a = ga.optimize(bump, 2, {0.0, 5.0}, rng_a);
  const auto b = ga.optimize(bump, 2, {0.0, 5.0}, rng_b);
  EXPECT_EQ(a.best.genes, b.best.genes);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Ga, TargetFitnessStopsEarly) {
  GaConfig config;
  config.population_size = 64;
  config.generations = 100;
  config.target_fitness = 0.5;
  const GeneticAlgorithm ga(config);
  Rng rng(3);
  const auto result = ga.optimize(bump, 1, {0.0, 5.0}, rng);
  EXPECT_GE(result.best.fitness, 0.5);
  EXPECT_LT(result.history.size(), 101u);
}

TEST(Ga, GenesStayWithinBounds) {
  GaConfig config;
  config.population_size = 32;
  config.generations = 10;
  config.mutation_sigma = 3.0;  // aggressive, will hit the walls
  const GeneticAlgorithm ga(config);
  Rng rng(11);
  const GeneBounds bounds{1.0, 2.0};
  const auto result = ga.optimize(
      Bump([&](const std::vector<double>& genes) {
        for (double g : genes) {
          EXPECT_GE(g, bounds.lo);
          EXPECT_LE(g, bounds.hi);
        }
      }),
      2, bounds, rng);
  for (double g : result.best.genes) {
    EXPECT_GE(g, bounds.lo);
    EXPECT_LE(g, bounds.hi);
  }
}

TEST(Ga, EvaluationBudgetMatchesConfig) {
  GaConfig config;
  config.population_size = 50;
  config.generations = 10;
  config.reproduction_rate = 0.5;
  const GeneticAlgorithm ga(config);
  Rng rng(13);
  const auto result = ga.optimize(bump, 1, {0.0, 5.0}, rng);
  // 50 initial + 10 * 25 offspring.
  EXPECT_EQ(result.evaluations, 50u + 10u * 25u);
}

TEST(Ga, ZeroReproductionRateStillRuns) {
  GaConfig config;
  config.population_size = 16;
  config.generations = 3;
  config.reproduction_rate = 0.0;  // pure survival
  const GeneticAlgorithm ga(config);
  Rng rng(17);
  const auto result = ga.optimize(bump, 1, {0.0, 5.0}, rng);
  EXPECT_EQ(result.evaluations, 16u);  // only the initial population
}

TEST(Ga, SeedGenomesEnterTheInitialPopulation) {
  // With elitism and a seed at the exact optimum, the final best must be
  // that seed (nothing random can beat fitness 1 at the bump's peak).
  GaConfig config;
  config.population_size = 16;
  config.generations = 2;
  config.seed_genomes = {{3.0, 3.0}};
  const GeneticAlgorithm ga(config);
  Rng rng(23);
  const auto result = ga.optimize(bump, 2, {0.0, 5.0}, rng);
  EXPECT_DOUBLE_EQ(result.best.fitness, 1.0);
  EXPECT_DOUBLE_EQ(result.best.genes[0], 3.0);
  EXPECT_DOUBLE_EQ(result.best.genes[1], 3.0);
}

TEST(Ga, SeedGenomesClampedToBounds) {
  GaConfig config;
  config.population_size = 8;
  config.generations = 1;
  config.seed_genomes = {{-100.0, 100.0}};
  const GeneticAlgorithm ga(config);
  Rng rng(29);
  const auto result = ga.optimize(
      Bump([&](const std::vector<double>& genes) {
        EXPECT_GE(genes[0], 1.0);
        EXPECT_LE(genes[1], 2.0);
      }),
      2, {1.0, 2.0}, rng);
  (void)result;
}

TEST(Ga, ExcessSeedsAreDropped) {
  GaConfig config;
  config.population_size = 4;
  config.generations = 1;
  for (int i = 0; i < 10; ++i) {
    config.seed_genomes.push_back({static_cast<double>(i)});
  }
  const GeneticAlgorithm ga(config);
  Rng rng(31);
  const auto result = ga.optimize(bump, 1, {0.0, 5.0}, rng);
  // 4 initial (seeded) + 2 offspring.
  EXPECT_EQ(result.history.front().evaluations, 4u);
}

/// FNV-1a over every field of an OptimizerResult, in a fixed order.
class ResultFingerprint {
public:
  void add(const OptimizerResult& result) {
    for (double g : result.best.genes) add_double(g);
    add_double(result.best.fitness);
    add_word(result.evaluations);
    for (const GenerationStats& stats : result.history) {
      add_word(stats.generation);
      add_double(stats.best);
      add_double(stats.mean);
      add_double(stats.worst);
      add_word(stats.evaluations);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

private:
  void add_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add_word(bits);
  }
  void add_word(std::uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Bump rounded down to eighths: distinct genomes tie on fitness, so the
/// order in which the GA ranks ties shows in its result.
class SteppedBump final : public BatchObjective {
public:
  [[nodiscard]] std::vector<double> evaluate(
      const std::vector<std::vector<double>>& genomes) const override {
    std::vector<double> scores = bump.evaluate(genomes);
    for (double& score : scores) score = std::floor(8.0 * score) / 8.0;
    return scores;
  }
};

TEST(Ga, ResultsArePinnedForEverySelectionKind) {
  // Paper-sized runs (128 x 15) over 20 seeds per selection kind, pinned to
  // the values of the GA that kept its population as scored candidate
  // vectors and drew parents with Rng::weighted_index.  Uniform crossover
  // and uniform-reset mutation over [0, 4] keep every genome operation
  // exact (a copy, or 4u), so the pins hold whether or not the compiler
  // fuses multiply-adds; the arithmetic-crossover path is covered by the
  // bit-identity of the registry searches.
  const SteppedBump stepped;
  const struct {
    SelectionKind kind;
    std::uint64_t bump;
    std::uint64_t stepped;
  } cases[] = {
      {SelectionKind::kRoulette, 0x9fb90594c86618d6ULL, 0xe87c6f0a799a3b34ULL},
      {SelectionKind::kRank, 0x2d1ffc31f729c079ULL, 0x1dec2e437e453b14ULL},
      {SelectionKind::kTournament, 0x8487ade640df3b25ULL, 0x82211a78208aca11ULL},
  };
  for (const auto& c : cases) {
    GaConfig config;
    config.selection = c.kind;
    config.crossover = CrossoverKind::kUniform;
    config.mutation = MutationKind::kUniformReset;
    const GeneticAlgorithm ga(config);
    ResultFingerprint on_bump;
    ResultFingerprint on_stepped;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed);
      on_bump.add(ga.optimize(bump, 2, {0.0, 4.0}, rng));
      Rng again(seed);
      on_stepped.add(ga.optimize(stepped, 2, {0.0, 4.0}, again));
    }
    EXPECT_EQ(on_bump.value(), c.bump)
        << "selection kind " << static_cast<int>(c.kind);
    EXPECT_EQ(on_stepped.value(), c.stepped)
        << "selection kind " << static_cast<int>(c.kind);
  }
}

TEST(GaDeathTest, NanFitnessAbortsRouletteSelection) {
  class NanObjective final : public BatchObjective {
  public:
    [[nodiscard]] std::vector<double> evaluate(
        const std::vector<std::vector<double>>& genomes) const override {
      return std::vector<double>(genomes.size(),
                                 std::numeric_limits<double>::quiet_NaN());
    }
  };
  GaConfig config;
  config.population_size = 8;
  config.generations = 1;
  const GeneticAlgorithm ga(config);
  Rng rng(1);
  EXPECT_DEATH((void)ga.optimize(NanObjective{}, 1, {0.0, 5.0}, rng),
               "negative or NaN weight");
}

TEST(Ga, TournamentVariantAlsoConverges) {
  GaConfig config;
  config.population_size = 64;
  config.generations = 25;
  config.selection = SelectionKind::kTournament;
  config.crossover = CrossoverKind::kBlend;
  const GeneticAlgorithm ga(config);
  Rng rng(19);
  const auto result = ga.optimize(bump, 2, {0.0, 5.0}, rng);
  EXPECT_GT(result.best.fitness, 0.9);
}

}  // namespace
}  // namespace ftdiag::ga
