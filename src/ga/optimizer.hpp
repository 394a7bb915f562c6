/// \file optimizer.hpp
/// \brief Common interface for the test-frequency optimizers: the paper's
/// GA and the baseline searchers it is benchmarked against.
///
/// Genomes are real vectors in log10-frequency space (one gene per test
/// frequency), bounded by the CUT's recommended band.  Working in decades
/// makes mutation steps scale-free across the audio band.
///
/// The evaluation interface is *batched*: optimizers hand a whole
/// population slice to a BatchObjective per generation, which lets the
/// evaluation layer (core::EvaluationPipeline) fan the genomes out over a
/// thread pool and share cached signature samples between them.
#pragma once

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ftdiag::ga {

/// Batch evaluation interface: scores a whole slice of genomes at once,
/// mapping each genome (log10 frequencies) to a fitness (larger is better,
/// in (0, 1]).
/// Implementations must be pure (same genomes -> same scores, regardless of
/// batch composition or call history) and safe to call from the optimizer's
/// driving thread; internal parallelism is the implementation's business.
class BatchObjective {
public:
  virtual ~BatchObjective() = default;

  /// Score genomes[i] into slot i of the returned vector (same size as
  /// \p genomes).  Genome i must be evaluated independently of genome j.
  [[nodiscard]] virtual std::vector<double> evaluate(
      const std::vector<std::vector<double>>& genomes) const = 0;
};

/// Inclusive per-gene bounds in log10(Hz).
struct GeneBounds {
  double lo = 1.0;  ///< 10 Hz
  double hi = 5.0;  ///< 100 kHz

  [[nodiscard]] double clamp(double gene) const;
  [[nodiscard]] double span() const { return hi - lo; }
};

/// One scored genome.
struct Candidate {
  std::vector<double> genes;
  double fitness = 0.0;

  [[nodiscard]] bool operator==(const Candidate&) const = default;
};

/// Per-generation (or per-batch) statistics for convergence plots.
struct GenerationStats {
  std::size_t generation = 0;
  double best = 0.0;
  double mean = 0.0;
  double worst = 0.0;
  std::size_t evaluations = 0;  ///< cumulative objective calls so far

  [[nodiscard]] bool operator==(const GenerationStats&) const = default;
};

struct OptimizerResult {
  Candidate best;
  std::size_t evaluations = 0;
  std::vector<GenerationStats> history;

  [[nodiscard]] bool operator==(const OptimizerResult&) const = default;
};

/// Interface all searchers implement.
///
/// Determinism contract: for a fixed seed the result depends only on the
/// objective's values, never on how the BatchObjective schedules its work —
/// optimizers draw all randomness on the calling thread (forking a
/// per-genome stream where construction is independent) and consume batch
/// scores in slot order.
class FrequencyOptimizer {
public:
  virtual ~FrequencyOptimizer() = default;

  /// Run the search.  \p dimensions is the number of test frequencies.
  [[nodiscard]] virtual OptimizerResult optimize(
      const BatchObjective& objective, std::size_t dimensions,
      const GeneBounds& bounds, Rng& rng) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace ftdiag::ga
