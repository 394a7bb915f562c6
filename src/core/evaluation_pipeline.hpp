/// \file evaluation_pipeline.hpp
/// \brief Batch genome evaluation for the frequency search — the
/// ga::BatchObjective implementation behind Session::generate_tests.
///
/// For every genome the GA proposes, the pipeline must interpolate each
/// dictionary response at the genome's frequencies, assemble one fault
/// trajectory per site and score the trajectory set.  Three things make
/// this fast without changing any result:
///
///   1. *Batch fan-out*: a whole population slice is evaluated over
///      util::parallel with index-ordered result slots, so scores are
///      bit-identical for any thread count.
///   2. *Cached signature columns*: genes are snapped to a fine
///      log-frequency quantum and, per quantized frequency, the
///      interpolated signature samples of every dictionary entry (plus the
///      golden response) are computed once and shared — across sites,
///      genomes and generations.  Snapping happens with the cache on or
///      off, so the cache knob can never change a fitness value.
///   3. *Pruned intersection counting*: the fitness's conflict sweep runs
///      the uniform-grid pruned counter (core/intersection.hpp), which is
///      differentially verified against the exact all-pairs sweep.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/test_vector.hpp"
#include "core/trajectory.hpp"
#include "ga/optimizer.hpp"

namespace ftdiag::core {

struct PipelineOptions {
  /// Worker threads for the genome fan-out; 0 means "auto"
  /// (util::resolve_threads — FTDIAG_THREADS when set, otherwise the
  /// hardware concurrency).  Thread count never changes results, only
  /// wall time.
  std::size_t threads = 0;

  /// Share interpolated signature columns between genomes, and memoize
  /// whole-genome fitness values (a converged GA re-proposes identical
  /// genomes: crossover of two copies of the leader is the identity).  Off
  /// recomputes everything; fitness values are identical either way.
  bool cache_signatures = true;

  /// Gene quantum in decades of frequency: genes are snapped to multiples
  /// of this before sampling, making the objective a pure function of the
  /// snapped genome (and cacheable).  The default, ~4e-3 decades (~0.9 %
  /// in frequency), sits well below the dictionary grid's own resolution
  /// (typically 1/60 decade) while letting a converging population share
  /// cached columns.
  double frequency_quantum = 1.0 / 256.0;

  /// \throws ConfigError on a non-positive quantum.
  void check() const;

  /// The effective pool size (resolves 0 to the hardware concurrency).
  [[nodiscard]] std::size_t resolved_threads() const;
};

/// Observability counters (monotone; snapshot via stats()).
struct PipelineStats {
  std::size_t genomes_evaluated = 0;
  std::size_t genome_hits = 0;    ///< whole-genome fitness memo hits
  std::size_t column_hits = 0;    ///< cached signature columns reused
  std::size_t column_misses = 0;  ///< columns interpolated from scratch
};

/// Scores whole population slices against one TestVectorEvaluator.  The
/// evaluator must outlive the pipeline.  evaluate() is safe to call from
/// one thread at a time (the optimizer's driving thread); the internal
/// fan-out is the pipeline's own.
class EvaluationPipeline final : public ga::BatchObjective {
public:
  explicit EvaluationPipeline(const TestVectorEvaluator& evaluator,
                              PipelineOptions options = {});
  ~EvaluationPipeline() override;

  EvaluationPipeline(const EvaluationPipeline&) = delete;
  EvaluationPipeline& operator=(const EvaluationPipeline&) = delete;

  /// Score genomes[i] (log10 frequencies) into slot i.  Bit-identical for
  /// any thread count and any cache state.
  [[nodiscard]] std::vector<double> evaluate(
      const std::vector<std::vector<double>>& genomes) const override;

  /// One genome, inline on the calling thread.
  [[nodiscard]] double evaluate_one(const std::vector<double>& genes) const;

  /// The trajectory set a genome induces (after snapping) — the exact
  /// geometry evaluate() scores; exposed for differential tests.
  [[nodiscard]] std::vector<FaultTrajectory> trajectories(
      const std::vector<double>& genes) const;

  /// Snap one gene to the quantum grid.
  [[nodiscard]] double snap(double gene) const;

  [[nodiscard]] const PipelineOptions& options() const { return options_; }
  [[nodiscard]] PipelineStats stats() const;

private:
  /// Interpolated signature samples of every dictionary entry at one
  /// quantized frequency.
  struct Column;
  struct SitePlan;

  /// Per-lane scratch of the batch fan-out: key and column buffers are
  /// reused across every genome a lane evaluates, so the steady-state
  /// per-genome cost allocates only what it must return.
  struct EvalScratch {
    std::vector<std::int64_t> keys;
    std::vector<std::shared_ptr<const Column>> columns;
  };

  [[nodiscard]] std::shared_ptr<const Column> column_for(
      std::int64_t key) const;
  [[nodiscard]] Column build_column(std::int64_t key) const;
  [[nodiscard]] std::vector<FaultTrajectory> assemble(
      const std::vector<std::shared_ptr<const Column>>& columns) const;

  void snapped_keys(const std::vector<double>& genes,
                    std::vector<std::int64_t>& keys) const;
  [[nodiscard]] std::vector<FaultTrajectory> trajectories_for_keys(
      const std::vector<std::int64_t>& keys,
      std::vector<std::shared_ptr<const Column>>& columns) const;
  [[nodiscard]] double evaluate_with(const std::vector<double>& genes,
                                     EvalScratch& scratch) const;

  struct KeyHash {
    std::size_t operator()(const std::vector<std::int64_t>& keys) const {
      std::size_t h = 14695981039346656037ull;
      for (std::int64_t k : keys) {
        h ^= static_cast<std::size_t>(k);
        h *= 1099511628211ull;
      }
      return h;
    }
  };

  const TestVectorEvaluator& evaluator_;
  PipelineOptions options_;
  std::vector<SitePlan> plans_;

  /// Precomputed per-response interpolation tables (|H|, log |H|, arg H at
  /// every grid index; response 0 is the golden, then the entries in
  /// order).  Every response shares the golden's grid, so a column build
  /// locates the frequency once and reconstructs each response's value
  /// from the tables, bit-identical to AcResponse::interpolate but without
  /// its per-response binary search, hypots and atan2s.
  std::size_t grid_size_ = 0;
  std::vector<const std::vector<mna::Complex>*> response_values_;
  std::vector<double> table_mag_;
  std::vector<double> table_log_mag_;
  std::vector<double> table_phase_;

  mutable std::mutex cache_mutex_;
  mutable std::unordered_map<std::int64_t, std::shared_ptr<const Column>>
      cache_;
  mutable std::unordered_map<std::vector<std::int64_t>, double, KeyHash>
      fitness_memo_;
  mutable PipelineStats stats_;
};

}  // namespace ftdiag::core
