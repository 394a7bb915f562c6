#include "ga/operators.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace ftdiag::ga {

SelectionContext::SelectionContext(std::span<const double> fitness,
                                   SelectionKind kind,
                                   std::size_t tournament_size)
    : fitness_(fitness), kind_(kind), tournament_size_(tournament_size) {
  FTDIAG_ASSERT(!fitness_.empty(), "selection from an empty population");
  switch (kind_) {
    case SelectionKind::kRoulette:
      cumulative_.resize(fitness_.size());
      for (std::size_t i = 0; i < fitness_.size(); ++i) {
        cumulative_[i] = std::max(fitness_[i], 0.0);
      }
      break;
    case SelectionKind::kTournament:
      FTDIAG_ASSERT(tournament_size_ >= 1, "tournament size must be >= 1");
      return;
    case SelectionKind::kRank: {
      // Weight = rank position (worst = 1 .. best = n).
      std::vector<std::size_t> order(fitness_.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return fitness_[a] < fitness_[b];
      });
      cumulative_.resize(fitness_.size());
      for (std::size_t rank = 0; rank < order.size(); ++rank) {
        cumulative_[order[rank]] = static_cast<double>(rank + 1);
      }
      break;
    }
  }
  // Weights -> running sums, accumulated left to right from 0.0 exactly as
  // Rng::weighted_index accumulates them.
  double acc = 0.0;
  for (double& entry : cumulative_) {
    FTDIAG_ASSERT(entry >= 0.0, "selection: negative or NaN weight");
    acc += entry;
    entry = acc;
  }
}

std::size_t SelectionContext::select(Rng& rng) const {
  switch (kind_) {
    case SelectionKind::kRoulette:
    case SelectionKind::kRank: {
      const double total = cumulative_.back();
      if (total <= 0.0) {
        return static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(cumulative_.size()) - 1));
      }
      // The first running sum above the target is the slot whose interval
      // holds it; a target that rounds up to the total takes the last.
      const double target = rng.uniform() * total;
      const auto hit =
          std::upper_bound(cumulative_.begin(), cumulative_.end(), target);
      return hit == cumulative_.end()
                 ? cumulative_.size() - 1
                 : static_cast<std::size_t>(hit - cumulative_.begin());
    }
    case SelectionKind::kTournament: {
      const auto n = static_cast<std::int64_t>(fitness_.size());
      std::size_t best = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      for (std::size_t k = 1; k < tournament_size_; ++k) {
        const std::size_t challenger =
            static_cast<std::size_t>(rng.uniform_int(0, n - 1));
        if (fitness_[challenger] > fitness_[best]) best = challenger;
      }
      return best;
    }
  }
  FTDIAG_ASSERT(false, "unknown selection kind");
  return 0;
}

void crossover(std::span<const double> a, std::span<const double> b,
               std::span<double> child, CrossoverKind kind, Rng& rng,
               double blend_alpha) {
  FTDIAG_ASSERT(a.size() == b.size() && child.size() == a.size(),
                "crossover genomes of different length");
  switch (kind) {
    case CrossoverKind::kArithmetic: {
      const double w = rng.uniform();
      for (std::size_t i = 0; i < a.size(); ++i) {
        child[i] = w * a[i] + (1.0 - w) * b[i];
      }
      break;
    }
    case CrossoverKind::kUniform: {
      for (std::size_t i = 0; i < a.size(); ++i) {
        child[i] = rng.bernoulli(0.5) ? a[i] : b[i];
      }
      break;
    }
    case CrossoverKind::kBlend: {
      // BLX-alpha: sample uniformly in the interval extended by alpha.
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double lo = std::min(a[i], b[i]);
        const double hi = std::max(a[i], b[i]);
        const double pad = blend_alpha * (hi - lo);
        child[i] = rng.uniform(lo - pad, hi + pad);
      }
      break;
    }
  }
}

void mutate(std::span<double> genes, MutationKind kind, double per_gene_rate,
            double gaussian_sigma, const GeneBounds& bounds, Rng& rng) {
  for (double& gene : genes) {
    if (!rng.bernoulli(per_gene_rate)) continue;
    switch (kind) {
      case MutationKind::kGaussian:
        gene = bounds.clamp(gene + rng.normal(0.0, gaussian_sigma));
        break;
      case MutationKind::kUniformReset:
        gene = rng.uniform(bounds.lo, bounds.hi);
        break;
    }
  }
}

}  // namespace ftdiag::ga
