#include "ga/operators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace ftdiag::ga {
namespace {

/// Fitness of a three-member population.
const std::vector<double> kFitness = {0.1, 0.3, 0.6};

TEST(Roulette, SelectsProportionallyToFitness) {
  Rng rng(1);
  const SelectionContext selection(kFitness, SelectionKind::kRoulette);
  std::vector<int> histogram(3, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++histogram[selection.select(rng)];
  }
  EXPECT_NEAR(histogram[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(histogram[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(histogram[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Tournament, FavorsTheBest) {
  Rng rng(2);
  const SelectionContext selection(kFitness, SelectionKind::kTournament, 3);
  int best_wins = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (selection.select(rng) == 2) {
      ++best_wins;
    }
  }
  // P(best in 3 draws with replacement) = 1 - (2/3)^3 ~ 0.704.
  EXPECT_NEAR(best_wins / static_cast<double>(n), 0.704, 0.02);
}

TEST(RankSelection, OrdersByRankNotMagnitude) {
  Rng rng(3);
  // Huge fitness gap: rank selection must NOT behave like roulette.
  const std::vector<double> fitness = {1e-9, 1.0};
  const SelectionContext selection(fitness, SelectionKind::kRank);
  std::vector<int> histogram(2, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ++histogram[selection.select(rng)];
  }
  // Rank weights 1:2 -> 1/3 vs 2/3.
  EXPECT_NEAR(histogram[0] / static_cast<double>(n), 1.0 / 3.0, 0.02);
}

/// Draws \p draws parents through a SelectionContext and as many
/// Rng::weighted_index calls over \p weights, on two copies of one stream:
/// the indices must agree draw for draw and leave the streams in step.
void expect_draws_match_weighted_index(const std::vector<double>& fitness,
                                       SelectionKind kind,
                                       const std::vector<double>& weights,
                                       std::uint64_t seed) {
  const SelectionContext selection(fitness, kind);
  Rng via_context(seed);
  Rng via_rng(seed);
  for (int draw = 0; draw < 2000; ++draw) {
    ASSERT_EQ(selection.select(via_context), via_rng.weighted_index(weights))
        << "draw " << draw << " seed " << seed;
  }
  EXPECT_EQ(via_context(), via_rng());
}

TEST(SelectionContext, RouletteDrawsEqualWeightedIndexDraws) {
  Rng gen(11);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    // Random weights.
    std::vector<double> fitness(128);
    for (double& f : fitness) f = gen.uniform();
    expect_draws_match_weighted_index(fitness, SelectionKind::kRoulette,
                                      fitness, seed);
    // Zeros among them, including the first and the last slot.
    for (std::size_t i = 0; i < fitness.size(); i += 3) fitness[i] = 0.0;
    fitness.back() = 0.0;
    expect_draws_match_weighted_index(fitness, SelectionKind::kRoulette,
                                      fitness, seed);
    // A negative fitness weighs zero.
    std::vector<double> clamped = fitness;
    fitness[5] = -0.25;
    clamped[5] = 0.0;
    expect_draws_match_weighted_index(fitness, SelectionKind::kRoulette,
                                      clamped, seed);
  }
  // All zero: the uniform fallback.
  const std::vector<double> zeros(64, 0.0);
  expect_draws_match_weighted_index(zeros, SelectionKind::kRoulette, zeros, 9);
  // Fitness values whose running sums round: the sums are taken in the
  // same order, so the rounding is the same too.
  std::vector<double> uneven(100);
  for (std::size_t i = 0; i < uneven.size(); ++i) {
    uneven[i] = (i % 2 == 0) ? 1e-17 : 1.0 / static_cast<double>(i + 3);
  }
  expect_draws_match_weighted_index(uneven, SelectionKind::kRoulette, uneven,
                                    13);
}

TEST(SelectionContext, RankDrawsEqualWeightedIndexDrawsOverRanks) {
  Rng gen(12);
  std::vector<double> fitness(128);
  for (double& f : fitness) f = std::floor(8.0 * gen.uniform()) / 8.0;  // ties
  std::vector<std::size_t> order(fitness.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return fitness[a] < fitness[b];
  });
  std::vector<double> ranks(fitness.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    ranks[order[rank]] = static_cast<double>(rank + 1);
  }
  expect_draws_match_weighted_index(fitness, SelectionKind::kRank, ranks, 21);
}

TEST(SelectionContextDeathTest, NanRouletteFitnessAborts) {
  std::vector<double> fitness = {0.5, std::numeric_limits<double>::quiet_NaN(),
                                 0.25};
  EXPECT_DEATH(SelectionContext(fitness, SelectionKind::kRoulette),
               "negative or NaN weight");
}

TEST(Crossover, ArithmeticStaysWithinParentSpan) {
  Rng rng(4);
  const std::vector<double> a = {0.0, 10.0};
  const std::vector<double> b = {1.0, 20.0};
  std::vector<double> child(2);
  for (int i = 0; i < 200; ++i) {
    crossover(a, b, child, CrossoverKind::kArithmetic, rng);
    EXPECT_GE(child[0], 0.0);
    EXPECT_LE(child[0], 1.0);
    EXPECT_GE(child[1], 10.0);
    EXPECT_LE(child[1], 20.0);
    // Same blend weight for every gene (whole-arithmetic crossover):
    // child = w*a + (1-w)*b  =>  child[1] = 10 + 10*child[0].
    EXPECT_NEAR(child[1], 10.0 + 10.0 * child[0], 1e-9);
  }
}

TEST(Crossover, UniformPicksParentGenes) {
  Rng rng(5);
  const std::vector<double> a = {1.0, 1.0, 1.0};
  const std::vector<double> b = {2.0, 2.0, 2.0};
  bool saw_mix = false;
  std::vector<double> child(3);
  for (int i = 0; i < 100; ++i) {
    crossover(a, b, child, CrossoverKind::kUniform, rng);
    for (double g : child) EXPECT_TRUE(g == 1.0 || g == 2.0);
    if (std::count(child.begin(), child.end(), 1.0) % 3 != 0) saw_mix = true;
  }
  EXPECT_TRUE(saw_mix);
}

TEST(Crossover, BlendCanExplodeBeyondParents) {
  Rng rng(6);
  const std::vector<double> a = {0.0};
  const std::vector<double> b = {1.0};
  bool outside = false;
  std::vector<double> child(1);
  for (int i = 0; i < 500; ++i) {
    crossover(a, b, child, CrossoverKind::kBlend, rng, 0.5);
    EXPECT_GE(child[0], -0.5);
    EXPECT_LE(child[0], 1.5);
    if (child[0] < 0.0 || child[0] > 1.0) outside = true;
  }
  EXPECT_TRUE(outside);  // extension region actually used
}

TEST(Mutate, RateZeroLeavesGenesAlone) {
  Rng rng(7);
  std::vector<double> genes = {1.0, 2.0};
  mutate(genes, MutationKind::kGaussian, 0.0, 0.5, {0.0, 5.0}, rng);
  EXPECT_DOUBLE_EQ(genes[0], 1.0);
  EXPECT_DOUBLE_EQ(genes[1], 2.0);
}

TEST(Mutate, RateOneChangesEveryGene) {
  Rng rng(8);
  std::vector<double> genes = {1.0, 2.0, 3.0};
  const auto original = genes;
  mutate(genes, MutationKind::kGaussian, 1.0, 0.5, {0.0, 5.0}, rng);
  for (std::size_t i = 0; i < genes.size(); ++i) {
    EXPECT_NE(genes[i], original[i]);
  }
}

TEST(Mutate, RespectsBounds) {
  Rng rng(9);
  const GeneBounds bounds{0.0, 1.0};
  for (int i = 0; i < 500; ++i) {
    std::vector<double> genes = {0.5};
    mutate(genes, MutationKind::kGaussian, 1.0, 10.0, bounds, rng);
    EXPECT_GE(genes[0], 0.0);
    EXPECT_LE(genes[0], 1.0);
  }
}

TEST(Mutate, UniformResetCoversTheBox) {
  Rng rng(10);
  const GeneBounds bounds{2.0, 4.0};
  double min_seen = 1e300, max_seen = -1e300;
  for (int i = 0; i < 2000; ++i) {
    std::vector<double> genes = {3.0};
    mutate(genes, MutationKind::kUniformReset, 1.0, 0.0, bounds, rng);
    min_seen = std::min(min_seen, genes[0]);
    max_seen = std::max(max_seen, genes[0]);
  }
  EXPECT_LT(min_seen, 2.1);
  EXPECT_GT(max_seen, 3.9);
}

TEST(GeneBounds, ClampAndSpan) {
  const GeneBounds bounds{1.0, 5.0};
  EXPECT_DOUBLE_EQ(bounds.clamp(0.0), 1.0);
  EXPECT_DOUBLE_EQ(bounds.clamp(9.0), 5.0);
  EXPECT_DOUBLE_EQ(bounds.clamp(3.0), 3.0);
  EXPECT_DOUBLE_EQ(bounds.span(), 4.0);
}

}  // namespace
}  // namespace ftdiag::ga
