/// \file evaluation_pipeline.hpp
/// \brief Batch genome evaluation for the frequency search — the
/// ga::BatchObjective implementation behind Session::generate_tests.
///
/// For every genome the GA proposes, the pipeline must interpolate each
/// dictionary response at the genome's frequencies, assemble one fault
/// trajectory per site and score the trajectory set.  Genes are snapped to
/// a fine log-frequency quantum first, with the cache on or off, so a
/// score is a pure function of the snapped genome and the cache knob can
/// never change it.  evaluate() then runs every batch in four phases:
///
///   1. *Plan* (serial): snap the genomes, answer whole-genome memo hits,
///      fold genomes repeated within the batch onto one scoring job, and
///      give every key of every job a signature column: a cached one, or
///      a new slot when no earlier genome used the key.  A column holds
///      the interpolated signature samples of every dictionary entry (and
///      the golden response) at one quantized frequency.
///   2. *Build* (parallel): interpolate the new columns, one slot each.
///   3. *Score* (parallel): write each job's trajectory set straight from
///      its columns into the lane's flat buffer (core/trajectory.hpp),
///      reused across batches, and score it with the evaluator's fitness,
///      whose conflict sweep is the sort-and-sweep pruned counter
///      (core/intersection.hpp).
///   4. *Commit* (serial): memoize the new scores, copy every genome's
///      score into its slot and update the counters.
///
/// Phases 2 and 3 write only their own slots: they take no lock, touch no
/// shared counter and allocate nothing per genome.  Which lane computes a
/// slot is scheduling, never semantics, so scores and PipelineStats are
/// bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/test_vector.hpp"
#include "core/trajectory.hpp"
#include "ga/optimizer.hpp"
#include "mna/response.hpp"

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

/// Observability counters (monotone; snapshot via stats()).  They follow
/// the batch order, so they are identical for any thread count.
struct PipelineStats {
  std::size_t genomes_evaluated = 0;
  /// Whole-genome memo hits, counting a genome repeated within one batch
  /// as a hit on its first occurrence.
  std::size_t genome_hits = 0;
  std::size_t column_hits = 0;    ///< cached signature columns reused
  std::size_t column_misses = 0;  ///< columns interpolated from scratch
};

/// Scores whole population slices against one TestVectorEvaluator.  The
/// evaluator must outlive the pipeline.  evaluate() and stats() are called
/// from one thread at a time (the optimizer's driving thread); the
/// internal fan-out is the pipeline's own.
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

  /// The trajectory set a genome induces (after snapping) — the exact
  /// geometry evaluate() scores; exposed for differential tests.  Builds
  /// its own columns and leaves the caches and counters alone.
  [[nodiscard]] std::vector<FaultTrajectory> trajectories(
      const std::vector<double>& genes) const;

  /// Snap one gene to the quantum grid.
  [[nodiscard]] double snap(double gene) const;

  [[nodiscard]] const PipelineOptions& options() const { return options_; }
  [[nodiscard]] PipelineStats stats() const { return stats_; }

private:
  /// Dense index over runs of snapped keys (one key per column, one run
  /// per genome), numbered in insertion order.  Open addressing over flat
  /// storage: adding an entry appends to vectors, allocating no node.
  class KeyIndex {
  public:
    /// The entry of \p keys, appending one when absent (.second is true
    /// then).
    std::pair<std::size_t, bool> find_or_insert(
        std::span<const std::int64_t> keys);
    [[nodiscard]] std::size_t size() const { return begin_.size() - 1; }
    /// Drop every entry from number \p entries on.
    void truncate(std::size_t entries);

  private:
    static std::size_t hash(std::span<const std::int64_t> keys);
    void rehash(std::size_t buckets);

    std::vector<std::int64_t> keys_;       ///< every entry's run, in order
    std::vector<std::size_t> begin_{0};    ///< run starts, + the end
    std::vector<std::uint32_t> buckets_;   ///< entry + 1; 0 marks empty
  };

  /// Per-lane scratch of the scoring phase, reused across batches.
  struct Lane {
    FlatTrajectories set;
    std::vector<const double*> columns;
  };

  /// Phase 1's plan for the current batch; the buffers are reused across
  /// batches.
  struct Batch {
    std::vector<std::int64_t> keys;        ///< snapped, genome by genome
    std::vector<std::size_t> key_begin;    ///< per genome, + the end
    std::vector<std::uint32_t> slots;      ///< column slot per key
    std::vector<std::size_t> genome_job;   ///< per genome; kNoJob = memo hit
    std::vector<std::size_t> job_genome;   ///< first genome of each job
    std::vector<double> job_scores;
    std::vector<std::pair<std::int64_t, std::uint32_t>> new_columns;
  };

  void snap_keys(const std::vector<double>& genes,
                 std::vector<std::int64_t>& keys) const;
  void build_column(std::int64_t key, double* column) const;
  void assemble(const std::vector<const double*>& columns,
                FlatTrajectories& set) const;

  const TestVectorEvaluator& evaluator_;
  PipelineOptions options_;

  /// Every genome's trajectory layout: vertex v comes from response
  /// vertex_source_[v] (see TrajectoryVertex) at deviation
  /// vertex_deviation_[v]; layout_ holds the sites' offsets and labels.
  std::vector<std::uint32_t> vertex_source_;
  std::vector<double> vertex_deviation_;
  FlatTrajectories layout_;

  /// Precomputed per-response interpolation table (every grid sample in
  /// polar form; response 0 is the golden, then the entries in order).
  /// Every response shares the golden's grid, so a column build locates
  /// the frequency once and reconstructs each response's value from the
  /// table, bit-identical to AcResponse::interpolate but without its
  /// per-response binary search, hypots and atan2s.
  std::size_t grid_size_ = 0;
  std::size_t responses_ = 0;
  std::vector<mna::PolarSample> table_;

  /// Column slot c holds column_size_ values at column_data_[c]: every
  /// response's magnitude sample, then (if the policy samples phase) every
  /// phase; new slots get one block per batch.  With the cache on, slots
  /// are column_index_ entries; with it off, each batch restarts at 0.
  std::size_t column_size_ = 0;
  mutable std::vector<std::unique_ptr<double[]>> column_blocks_;
  mutable std::vector<double*> column_data_;
  mutable KeyIndex column_index_;

  /// Fitness memo: genome_index_ entry e scored memo_scores_[e].
  mutable KeyIndex genome_index_;
  mutable std::vector<double> memo_scores_;

  mutable std::vector<Lane> lanes_;
  mutable Batch batch_;
  mutable PipelineStats stats_;
};

}  // namespace ftdiag::core
