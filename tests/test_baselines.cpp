#include "ga/baselines.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
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

TEST(RandomSearch, UsesExactBudget) {
  const RandomSearch rs(300);
  Rng rng(1);
  const auto result = rs.optimize(bump, 2, {0.0, 5.0}, rng);
  EXPECT_EQ(result.evaluations, 300u);
  EXPECT_GT(result.best.fitness, 0.3);
  EXPECT_FALSE(result.history.empty());
}

TEST(RandomSearch, ZeroBudgetRejected) {
  EXPECT_THROW(RandomSearch(0), ConfigError);
}

TEST(RandomSearch, BestNeverWorseThanAnyHistoryPoint) {
  const RandomSearch rs(512);
  Rng rng(2);
  const auto result = rs.optimize(bump, 2, {0.0, 5.0}, rng);
  for (const auto& h : result.history) {
    EXPECT_GE(result.best.fitness + 1e-12, h.best);
  }
}

TEST(GridSearch, ExhaustiveOverTheBox) {
  const GridSearch grid(11);
  Rng rng(3);
  const auto result = grid.optimize(bump, 2, {0.0, 5.0}, rng);
  EXPECT_EQ(result.evaluations, 121u);
  // Grid point 3.0 exists exactly (0, 0.5, ..., 5.0).
  EXPECT_NEAR(result.best.genes[0], 3.0, 1e-12);
  EXPECT_NEAR(result.best.genes[1], 3.0, 1e-12);
  EXPECT_NEAR(result.best.fitness, 1.0, 1e-12);
}

TEST(GridSearch, DeterministicRegardlessOfRng) {
  const GridSearch grid(9);
  Rng rng_a(1), rng_b(999);
  const auto a = grid.optimize(bump, 2, {0.0, 5.0}, rng_a);
  const auto b = grid.optimize(bump, 2, {0.0, 5.0}, rng_b);
  EXPECT_EQ(a.best.genes, b.best.genes);
}

TEST(GridSearch, GuardsAgainstExplosion) {
  const GridSearch grid(2000);
  Rng rng(1);
  EXPECT_THROW(grid.optimize(bump, 3, {0.0, 5.0}, rng), ConfigError);
}

TEST(GridSearch, TooFewPointsRejected) { EXPECT_THROW(GridSearch(1), ConfigError); }

TEST(HillClimb, ConvergesOnSmoothObjective) {
  const HillClimb hc(2000, 8, 0.5);
  Rng rng(4);
  const auto result = hc.optimize(bump, 2, {0.0, 5.0}, rng);
  EXPECT_GT(result.best.fitness, 0.9);
  EXPECT_LE(result.evaluations, 2000u);
}

TEST(HillClimb, InvalidParamsRejected) {
  EXPECT_THROW(HillClimb(0, 4, 0.5), ConfigError);
  EXPECT_THROW(HillClimb(100, 0, 0.5), ConfigError);
  EXPECT_THROW(HillClimb(100, 4, 0.0), ConfigError);
}

TEST(SimulatedAnnealing, ConvergesOnSmoothObjective) {
  const SimulatedAnnealing sa(3000, 0.3, 0.995, 0.3);
  Rng rng(5);
  const auto result = sa.optimize(bump, 2, {0.0, 5.0}, rng);
  EXPECT_GT(result.best.fitness, 0.9);
  EXPECT_EQ(result.evaluations, 3000u);
}

TEST(SimulatedAnnealing, InvalidParamsRejected) {
  EXPECT_THROW(SimulatedAnnealing(0, 0.3, 0.99, 0.3), ConfigError);
  EXPECT_THROW(SimulatedAnnealing(100, 0.0, 0.99, 0.3), ConfigError);
  EXPECT_THROW(SimulatedAnnealing(100, 0.3, 1.5, 0.3), ConfigError);
  EXPECT_THROW(SimulatedAnnealing(100, 0.3, 0.99, 0.0), ConfigError);
}

TEST(AllBaselines, RespectBoundsAndReportNames) {
  const GeneBounds bounds{1.0, 2.0};
  auto check = [&](const FrequencyOptimizer& opt) {
    Rng rng(6);
    const auto result = opt.optimize(
        Bump([&](const std::vector<double>& genes) {
          for (double g : genes) {
            EXPECT_GE(g, bounds.lo - 1e-12) << opt.name();
            EXPECT_LE(g, bounds.hi + 1e-12) << opt.name();
          }
        }),
        2, bounds, rng);
    EXPECT_FALSE(result.best.genes.empty()) << opt.name();
    EXPECT_FALSE(opt.name().empty());
  };
  check(RandomSearch(128));
  check(GridSearch(8));
  check(HillClimb(128, 4, 0.2));
  check(SimulatedAnnealing(128, 0.2, 0.99, 0.1));
}

}  // namespace
}  // namespace ftdiag::ga
