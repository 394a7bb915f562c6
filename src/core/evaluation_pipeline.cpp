#include "core/evaluation_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/threads.hpp"

namespace ftdiag::core {

namespace {

/// Process-wide GA-pipeline cache metrics (`ftdiag_pipeline_*`); the
/// per-instance PipelineStats struct keeps its exact local counts.
struct PipelineMetrics {
  ftdiag::obs::Counter& genomes_evaluated;
  ftdiag::obs::Counter& genome_hits;
  ftdiag::obs::Counter& column_hits;
  ftdiag::obs::Counter& column_misses;

  static PipelineMetrics& get() {
    static PipelineMetrics* m = [] {
      auto& reg = ftdiag::obs::Registry::global();
      return new PipelineMetrics{
          reg.counter("ftdiag_pipeline_genomes_evaluated_total", {},
                      "genome fitness evaluations requested"),
          reg.counter("ftdiag_pipeline_genome_hits_total", {},
                      "evaluations answered from the fitness memo"),
          reg.counter("ftdiag_pipeline_column_hits_total", {},
                      "signature columns answered from the cache"),
          reg.counter("ftdiag_pipeline_column_misses_total", {},
                      "signature columns interpolated from scratch"),
      };
    }();
    return *m;
  }
};

/// Marks a genome answered from the memo in Batch::genome_job.
constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

}  // namespace

void PipelineOptions::check() const {
  if (!(frequency_quantum > 0.0)) {
    throw ConfigError("pipeline frequency quantum must be positive");
  }
}

std::size_t PipelineOptions::resolved_threads() const {
  // One resolution rule for the whole code base (FTDIAG_THREADS override,
  // hardware concurrency as the default).  A lane count beyond the
  // persistent pool's width just means fewer lanes attach — the pool
  // never oversubscribes the machine.
  return util::resolve_threads(threads);
}

std::size_t EvaluationPipeline::KeyIndex::hash(
    std::span<const std::int64_t> keys) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::int64_t k : keys) {
    h ^= static_cast<std::uint64_t>(k);
    h *= 1099511628211ull;
  }
  // A product only carries low bits upward; fold the high half back down
  // before the bucket mask keeps the low bits.
  return static_cast<std::size_t>(h ^ (h >> 32));
}

std::pair<std::size_t, bool> EvaluationPipeline::KeyIndex::find_or_insert(
    std::span<const std::int64_t> keys) {
  if (2 * (size() + 1) > buckets_.size()) {
    rehash(std::max<std::size_t>(64, 2 * buckets_.size()));
  }
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t b = hash(keys) & mask;; b = (b + 1) & mask) {
    if (buckets_[b] == 0) {
      keys_.insert(keys_.end(), keys.begin(), keys.end());
      begin_.push_back(keys_.size());
      buckets_[b] = static_cast<std::uint32_t>(size());
      return {size() - 1, true};
    }
    const std::size_t e = buckets_[b] - 1;
    if (std::equal(keys.begin(), keys.end(), keys_.begin() + begin_[e],
                   keys_.begin() + begin_[e + 1])) {
      return {e, false};
    }
  }
}

void EvaluationPipeline::KeyIndex::truncate(std::size_t entries) {
  keys_.resize(begin_[entries]);
  begin_.resize(entries + 1);
  rehash(buckets_.size());
}

void EvaluationPipeline::KeyIndex::rehash(std::size_t buckets) {
  buckets_.assign(buckets, 0);
  const std::size_t mask = buckets - 1;
  for (std::size_t e = 0; e < size(); ++e) {
    std::size_t b =
        hash({keys_.data() + begin_[e], keys_.data() + begin_[e + 1]}) & mask;
    while (buckets_[b] != 0) b = (b + 1) & mask;
    buckets_[b] = static_cast<std::uint32_t>(e + 1);
  }
}

EvaluationPipeline::EvaluationPipeline(const TestVectorEvaluator& evaluator,
                                       PipelineOptions options)
    : evaluator_(evaluator), options_(options) {
  options_.check();
  const std::size_t threads = options_.resolved_threads();

  // The vertex recipe build_trajectories follows, once for every genome.
  const faults::FaultDictionary& dictionary = evaluator_.dictionary();
  layout_.offsets.push_back(0);
  for (const auto& site : dictionary.site_labels()) {
    for (const TrajectoryVertex& v : trajectory_vertices(dictionary, site)) {
      vertex_source_.push_back(static_cast<std::uint32_t>(v.response));
      vertex_deviation_.push_back(v.deviation);
    }
    layout_.offsets.push_back(static_cast<std::uint32_t>(vertex_source_.size()));
    layout_.labels.push_back(&site);
  }
  lanes_.assign(std::max<std::size_t>(1, threads), Lane{layout_, {}});

  // Interpolation tables, built straight off the dictionary's SoA block
  // (the storage every response is a row of), one response row per pool
  // item.
  const mna::ResponsePlanes& planes = dictionary.planes();
  grid_size_ = planes.grid();
  responses_ = planes.rows;
  table_.resize(responses_ * grid_size_);
  par::parallel_for(responses_, threads, [&](std::size_t r) {
    for (std::size_t i = r * grid_size_; i < (r + 1) * grid_size_; ++i) {
      table_[i] = mna::polar_sample({planes.re[i], planes.im[i]});
    }
  });
  column_size_ = responses_ * (evaluator_.policy().include_phase ? 2 : 1);
}

EvaluationPipeline::~EvaluationPipeline() = default;

double EvaluationPipeline::snap(double gene) const {
  return static_cast<double>(std::llround(gene / options_.frequency_quantum)) *
         options_.frequency_quantum;
}

void EvaluationPipeline::snap_keys(const std::vector<double>& genes,
                                   std::vector<std::int64_t>& keys) const {
  FTDIAG_ASSERT(!genes.empty(), "pipeline needs >= 1 gene");
  const std::size_t first = keys.size();
  for (double g : genes) {
    keys.push_back(std::llround(g / options_.frequency_quantum));
  }
  // Canonical ascending order: trajectory geometry is invariant to
  // frequency order (TestVector::normalize does the same).
  std::sort(keys.begin() + static_cast<std::ptrdiff_t>(first), keys.end());
}

void EvaluationPipeline::build_column(std::int64_t key, double* column) const {
  const double f_hz =
      std::pow(10.0, static_cast<double>(key) * options_.frequency_quantum);
  const SamplingPolicy& policy = evaluator_.policy();
  const faults::FaultDictionary& dictionary = evaluator_.dictionary();
  const mna::ResponsePlanes& planes = dictionary.planes();

  // One locate serves every response; values are reconstructed from the
  // precomputed tables, bit-identical to AcResponse::interpolate.
  const mna::AcResponse::GridPosition pos = dictionary.golden().locate(f_hz);
  for (std::size_t r = 0; r < responses_; ++r) {
    const std::size_t base = r * grid_size_;
    const mna::Complex h =
        pos.lo == pos.hi
            ? mna::Complex(planes.re[base + pos.lo], planes.im[base + pos.lo])
            : mna::interpolate_polar(table_[base + pos.lo],
                                     table_[base + pos.hi], pos.t);
    column[r] = policy.scale == MagnitudeScale::kLinear ? std::abs(h)
                                                        : linalg::to_db(h);
    if (policy.include_phase) column[responses_ + r] = std::arg(h);
  }
}

void EvaluationPipeline::assemble(const std::vector<const double*>& columns,
                                  FlatTrajectories& set) const {
  const SamplingPolicy& policy = evaluator_.policy();
  const std::size_t n = columns.size();
  const std::size_t dim = policy.dimension(n);
  set.dim = dim;
  set.coords.resize(vertex_source_.size() * dim);
  // Coordinate k of every vertex comes from column k (magnitudes) or, for
  // k >= n, column k - n (phases).  The golden vertex is the origin under
  // a golden-relative policy and the raw golden sample otherwise.
  for (std::size_t k = 0; k < dim; ++k) {
    const double* column =
        k < n ? columns[k] : columns[k - n] + responses_;
    double* out = set.coords.data() + k;
    for (std::size_t v = 0; v < vertex_source_.size(); ++v, out += dim) {
      const std::uint32_t r = vertex_source_[v];
      if (r == 0) {
        *out = policy.golden_relative ? 0.0 : column[0];
      } else {
        *out = policy.golden_relative ? column[r] - column[0] : column[r];
      }
    }
  }
}

std::vector<FaultTrajectory> EvaluationPipeline::trajectories(
    const std::vector<double>& genes) const {
  std::vector<std::int64_t> keys;
  snap_keys(genes, keys);
  std::vector<double> storage(keys.size() * column_size_);
  Lane lane;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    build_column(keys[k], storage.data() + k * column_size_);
    lane.columns.push_back(storage.data() + k * column_size_);
  }
  assemble(lane.columns, lane.set);

  std::vector<FaultTrajectory> out;
  for (std::size_t s = 0; s < layout_.size(); ++s) {
    std::vector<TrajectoryPoint> points;
    for (std::size_t v = layout_.offsets[s]; v < layout_.offsets[s + 1]; ++v) {
      const double* at = lane.set.coords.data() + v * lane.set.dim;
      points.push_back({vertex_deviation_[v], Point(at, at + lane.set.dim)});
    }
    out.emplace_back(*layout_.labels[s], std::move(points));
  }
  return out;
}

std::vector<double> EvaluationPipeline::evaluate(
    const std::vector<std::vector<double>>& genomes) const {
  std::vector<double> scores(genomes.size(), 0.0);
  const bool cache = options_.cache_signatures;
  Batch& batch = batch_;
  PipelineStats delta;
  delta.genomes_evaluated = genomes.size();

  // Phase 1, plan (serial).  Snap every genome before touching an index,
  // so a rejected genome leaves the caches as they were.
  batch.keys.clear();
  batch.key_begin.assign(1, 0);
  for (const auto& genes : genomes) {
    snap_keys(genes, batch.keys);
    batch.key_begin.push_back(batch.keys.size());
  }
  batch.slots.resize(batch.keys.size());
  batch.genome_job.resize(genomes.size());
  batch.job_genome.clear();
  batch.new_columns.clear();
  const std::size_t memo_base = memo_scores_.size();
  const std::size_t columns_base = column_index_.size();
  std::size_t slots = cache ? columns_base : 0;  // column slots in use
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    const std::span<const std::int64_t> keys(
        batch.keys.data() + batch.key_begin[i],
        batch.keys.data() + batch.key_begin[i + 1]);
    if (cache) {
      // Entries past memo_base were added by this batch: a repeat of a
      // genome that is already a job here shares its job.
      const auto [entry, inserted] = genome_index_.find_or_insert(keys);
      if (!inserted) {
        ++delta.genome_hits;
        if (entry < memo_base) {
          scores[i] = memo_scores_[entry];
          batch.genome_job[i] = kNoJob;
        } else {
          batch.genome_job[i] = entry - memo_base;
        }
        continue;
      }
    }
    batch.genome_job[i] = batch.job_genome.size();
    batch.job_genome.push_back(i);
    for (std::size_t k = batch.key_begin[i]; k < batch.key_begin[i + 1]; ++k) {
      std::size_t slot = slots;
      bool fresh = true;
      if (cache) {
        std::tie(slot, fresh) =
            column_index_.find_or_insert({&batch.keys[k], 1});
      }
      if (fresh) {
        batch.new_columns.emplace_back(batch.keys[k],
                                       static_cast<std::uint32_t>(slot));
        slots = slot + 1;
        ++delta.column_misses;
      } else {
        ++delta.column_hits;
      }
      batch.slots[k] = static_cast<std::uint32_t>(slot);
    }
  }
  if (slots > column_data_.size()) {
    // Storage for the slots no earlier batch created, in one block.
    const std::size_t fresh = slots - column_data_.size();
    column_blocks_.push_back(
        std::make_unique_for_overwrite<double[]>(fresh * column_size_));
    for (std::size_t c = 0; c < fresh; ++c) {
      column_data_.push_back(column_blocks_.back().get() + c * column_size_);
    }
  }

  // Phases 2 and 3 run user fitness code; if anything throws, forget the
  // index entries this batch added, so the caches stay as they were.
  try {
    // Phase 2, build (parallel): one new column per item, each into its
    // own slot.
    const std::size_t lanes = lanes_.size();
    par::parallel_for(batch.new_columns.size(), lanes, [&](std::size_t c) {
      const auto& [key, slot] = batch.new_columns[c];
      build_column(key, column_data_[slot]);
    });

    // Phase 3, score (parallel): each job reads its columns and writes its
    // own score slot through the lane's reused buffers.
    batch.job_scores.resize(batch.job_genome.size());
    const TrajectoryFitness& fitness = evaluator_.objective();
    par::parallel_for_lanes(
        batch.job_genome.size(), lanes, [&](std::size_t lane, std::size_t j) {
          Lane& scratch = lanes_[lane];
          const std::size_t g = batch.job_genome[j];
          scratch.columns.clear();
          for (std::size_t k = batch.key_begin[g]; k < batch.key_begin[g + 1];
               ++k) {
            scratch.columns.push_back(column_data_[batch.slots[k]]);
          }
          assemble(scratch.columns, scratch.set);
          batch.job_scores[j] = fitness.evaluate(scratch.set);
        });
  } catch (...) {
    genome_index_.truncate(memo_base);
    column_index_.truncate(columns_base);
    throw;
  }

  // Phase 4, commit (serial).  Jobs were appended to the memo index in
  // job order, so job j is memo entry memo_base + j.
  if (cache) {
    memo_scores_.insert(memo_scores_.end(), batch.job_scores.begin(),
                        batch.job_scores.end());
  }
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    if (batch.genome_job[i] != kNoJob) {
      scores[i] = batch.job_scores[batch.genome_job[i]];
    }
  }
  stats_.genomes_evaluated += delta.genomes_evaluated;
  stats_.genome_hits += delta.genome_hits;
  stats_.column_hits += delta.column_hits;
  stats_.column_misses += delta.column_misses;
  PipelineMetrics& metrics = PipelineMetrics::get();
  metrics.genomes_evaluated.inc(delta.genomes_evaluated);
  metrics.genome_hits.inc(delta.genome_hits);
  metrics.column_hits.inc(delta.column_hits);
  metrics.column_misses.inc(delta.column_misses);
  return scores;
}

}  // namespace ftdiag::core
