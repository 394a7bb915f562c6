/// \file operators.hpp
/// \brief Genetic operators: selection, crossover, mutation.
///
/// The paper's GA uses roulette-wheel selection; tournament and rank
/// selection are provided for ablations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ga/optimizer.hpp"
#include "util/rng.hpp"

namespace ftdiag::ga {

enum class SelectionKind : std::uint8_t { kRoulette, kTournament, kRank };
enum class CrossoverKind : std::uint8_t { kArithmetic, kUniform, kBlend };
enum class MutationKind : std::uint8_t { kGaussian, kUniformReset };

/// Reusable selection state over one fixed (already scored) population,
/// given as its fitness values: index i of a draw names fitness[i].  The
/// roulette/rank wheel is built once as a table of running weight sums,
/// so a whole generation of offspring draws parents by binary search
/// instead of one O(n) scan each.  Draw-for-draw identical to
/// Rng::weighted_index over the same weights (the same sums in the same
/// order, the same uniform fallback when they total zero).  Aborts on a
/// NaN roulette weight, as weighted_index does.  The fitness values must
/// outlive the context and stay unmodified while it is used.
class SelectionContext {
public:
  SelectionContext(std::span<const double> fitness, SelectionKind kind,
                   std::size_t tournament_size = 3);

  /// One parent index.  Consumes from \p rng what one weighted_index call
  /// over the weights would (roulette, rank), or tournament_size
  /// uniform_int draws (tournament).
  [[nodiscard]] std::size_t select(Rng& rng) const;

private:
  std::span<const double> fitness_;
  SelectionKind kind_;
  std::size_t tournament_size_;
  std::vector<double> cumulative_;  ///< roulette / rank running sums (else empty)
};

/// Write one child genome of two parents into \p child (all three the
/// same length).
void crossover(std::span<const double> a, std::span<const double> b,
               std::span<double> child, CrossoverKind kind, Rng& rng,
               double blend_alpha = 0.5);

/// Mutate a genome in place.  Each gene mutates independently with
/// probability \p per_gene_rate.
void mutate(std::span<double> genes, MutationKind kind, double per_gene_rate,
            double gaussian_sigma, const GeneBounds& bounds, Rng& rng);

}  // namespace ftdiag::ga
