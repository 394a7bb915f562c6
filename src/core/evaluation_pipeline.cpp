#include "core/evaluation_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

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

}  // namespace

namespace {

/// Marks the golden point in a site plan.
constexpr std::size_t kGoldenStep = static_cast<std::size_t>(-1);

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

/// Interpolated signature samples of every dictionary entry (and the
/// golden response) at one quantized frequency.  A column is a pure
/// function of its key, so concurrent rebuild races are benign.
struct EvaluationPipeline::Column {
  double golden_mag = 0.0;
  double golden_phase = 0.0;
  std::vector<double> entry_mag;    ///< one slot per dictionary entry
  std::vector<double> entry_phase;  ///< filled only when the policy needs it
};

/// The per-site recipe build_trajectories follows, precomputed once: which
/// entry (or the golden point) supplies each vertex, in deviation order.
struct EvaluationPipeline::SitePlan {
  std::string site;
  struct Step {
    std::size_t entry = kGoldenStep;
    double deviation = 0.0;
  };
  std::vector<Step> steps;
};

EvaluationPipeline::EvaluationPipeline(const TestVectorEvaluator& evaluator,
                                       PipelineOptions options)
    : evaluator_(evaluator), options_(options) {
  options_.check();

  const faults::FaultDictionary& dictionary = evaluator_.dictionary();
  plans_.reserve(dictionary.site_labels().size());
  for (const auto& site : dictionary.site_labels()) {
    SitePlan plan;
    plan.site = site;
    const auto& indices = dictionary.entries_for(site);
    plan.steps.reserve(indices.size() + 1);
    bool golden_inserted = false;
    for (std::size_t idx : indices) {
      const double deviation = dictionary.entries()[idx].fault.deviation;
      if (!golden_inserted && deviation > 0.0) {
        plan.steps.push_back({kGoldenStep, 0.0});
        golden_inserted = true;
      }
      if (deviation == 0.0) {
        // Universe kept the nominal point explicitly; use the golden
        // signature for it rather than re-sampling.
        plan.steps.push_back({kGoldenStep, 0.0});
        golden_inserted = true;
        continue;
      }
      plan.steps.push_back({idx, deviation});
    }
    if (!golden_inserted) plan.steps.push_back({kGoldenStep, 0.0});
    std::stable_sort(plan.steps.begin(), plan.steps.end(),
                     [](const SitePlan::Step& a, const SitePlan::Step& b) {
                       return a.deviation < b.deviation;
                     });
    plans_.push_back(std::move(plan));
  }

  // Interpolation tables.  Every response shares the golden's grid:
  // FaultDictionary::from_parts rejects an entry off it.
  const mna::AcResponse& golden = dictionary.golden();
  grid_size_ = golden.size();
  const std::size_t responses = dictionary.entries().size() + 1;
  response_values_.reserve(responses);
  response_values_.push_back(&golden.values());
  for (const auto& entry : dictionary.entries()) {
    response_values_.push_back(&entry.response.values());
  }
  // Build the interpolation tables straight off the dictionary's
  // consolidated SoA planes — one linear pass over two contiguous arrays
  // instead of a pointer-chase through per-entry vectors.  The planes hold
  // the same bits as values(), and the mag/log/arg math is unchanged, so
  // columns stay bit-identical to AcResponse::interpolate.
  const faults::FaultDictionary::SignaturePlanes& planes = dictionary.planes();
  FTDIAG_ASSERT(planes.grid == grid_size_ && planes.responses == responses,
                "dictionary planes mismatch the shared grid");
  table_mag_.resize(responses * grid_size_);
  table_log_mag_.resize(responses * grid_size_);
  table_phase_.resize(responses * grid_size_);
  for (std::size_t i = 0; i < responses * grid_size_; ++i) {
    const mna::Complex v(planes.re[i], planes.im[i]);
    const double mag = std::abs(v);
    table_mag_[i] = mag;
    table_log_mag_[i] = mag > 0.0 ? std::log(mag) : 0.0;
    table_phase_[i] = std::arg(v);
  }
}

EvaluationPipeline::~EvaluationPipeline() = default;

double EvaluationPipeline::snap(double gene) const {
  return static_cast<double>(std::llround(gene / options_.frequency_quantum)) *
         options_.frequency_quantum;
}

EvaluationPipeline::Column EvaluationPipeline::build_column(
    std::int64_t key) const {
  const double f_hz =
      std::pow(10.0, static_cast<double>(key) * options_.frequency_quantum);
  const SamplingPolicy& policy = evaluator_.policy();
  const faults::FaultDictionary& dictionary = evaluator_.dictionary();
  const std::size_t entries = dictionary.entries().size();

  Column column;
  column.entry_mag.resize(entries);
  if (policy.include_phase) column.entry_phase.resize(entries);

  auto store = [&](std::size_t r, const mna::Complex& h) {
    const double mag = policy.scale == MagnitudeScale::kLinear
                           ? std::abs(h)
                           : linalg::to_db(h);
    if (r == 0) {
      column.golden_mag = mag;
      if (policy.include_phase) column.golden_phase = std::arg(h);
    } else {
      column.entry_mag[r - 1] = mag;
      if (policy.include_phase) column.entry_phase[r - 1] = std::arg(h);
    }
  };

  // One locate serves every response; values are reconstructed from the
  // precomputed tables, bit-identical to AcResponse::interpolate.
  const mna::AcResponse::GridPosition pos = dictionary.golden().locate(f_hz);
  constexpr double kPi = 3.14159265358979323846;
  for (std::size_t r = 0; r < response_values_.size(); ++r) {
    if (pos.lo == pos.hi) {
      store(r, (*response_values_[r])[pos.lo]);
      continue;
    }
    const std::size_t base = r * grid_size_;
    const double mag_a = table_mag_[base + pos.lo];
    const double mag_b = table_mag_[base + pos.hi];
    double m;
    if (mag_a > 0.0 && mag_b > 0.0) {
      m = std::exp((1.0 - pos.t) * table_log_mag_[base + pos.lo] +
                   pos.t * table_log_mag_[base + pos.hi]);
    } else {
      m = (1.0 - pos.t) * mag_a + pos.t * mag_b;
    }
    const double ph_a = table_phase_[base + pos.lo];
    double ph_b = table_phase_[base + pos.hi];
    while (ph_b - ph_a > kPi) ph_b -= 2.0 * kPi;
    while (ph_b - ph_a < -kPi) ph_b += 2.0 * kPi;
    const double ph = (1.0 - pos.t) * ph_a + pos.t * ph_b;
    store(r, {m * std::cos(ph), m * std::sin(ph)});
  }
  return column;
}

std::shared_ptr<const EvaluationPipeline::Column>
EvaluationPipeline::column_for(std::int64_t key) const {
  if (options_.cache_signatures) {
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        PipelineMetrics::get().column_hits.inc();
        ++stats_.column_hits;
        return it->second;
      }
    }
    auto built = std::make_shared<const Column>(build_column(key));
    std::lock_guard<std::mutex> lock(cache_mutex_);
    PipelineMetrics::get().column_misses.inc();
    ++stats_.column_misses;
    // A concurrent builder may have won the race; columns are pure
    // functions of the key, so keeping the first insertion is safe.
    auto [it, inserted] = cache_.emplace(key, std::move(built));
    return it->second;
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    PipelineMetrics::get().column_misses.inc();
    ++stats_.column_misses;
  }
  return std::make_shared<const Column>(build_column(key));
}

std::vector<FaultTrajectory> EvaluationPipeline::assemble(
    const std::vector<std::shared_ptr<const Column>>& columns) const {
  const SamplingPolicy& policy = evaluator_.policy();
  const std::size_t n = columns.size();
  const std::size_t dim = policy.dimension(n);

  // The golden signature: the origin under a golden-relative policy, the
  // raw golden samples otherwise.
  Point golden(dim, 0.0);
  if (!policy.golden_relative) {
    for (std::size_t i = 0; i < n; ++i) golden[i] = columns[i]->golden_mag;
    if (policy.include_phase) {
      for (std::size_t i = 0; i < n; ++i) {
        golden[n + i] = columns[i]->golden_phase;
      }
    }
  }

  std::vector<FaultTrajectory> out;
  out.reserve(plans_.size());
  for (const auto& plan : plans_) {
    std::vector<TrajectoryPoint> points;
    points.reserve(plan.steps.size());
    for (const auto& step : plan.steps) {
      if (step.entry == kGoldenStep) {
        points.push_back({0.0, golden});
        continue;
      }
      Point p(dim, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = columns[i]->entry_mag[step.entry];
        if (policy.golden_relative) p[i] -= columns[i]->golden_mag;
      }
      if (policy.include_phase) {
        for (std::size_t i = 0; i < n; ++i) {
          p[n + i] = columns[i]->entry_phase[step.entry];
          if (policy.golden_relative) p[n + i] -= columns[i]->golden_phase;
        }
      }
      points.push_back({step.deviation, std::move(p)});
    }
    out.emplace_back(plan.site, std::move(points));
  }
  return out;
}

void EvaluationPipeline::snapped_keys(const std::vector<double>& genes,
                                      std::vector<std::int64_t>& keys) const {
  FTDIAG_ASSERT(!genes.empty(), "pipeline needs >= 1 gene");
  keys.clear();
  keys.reserve(genes.size());
  for (double g : genes) {
    keys.push_back(std::llround(g / options_.frequency_quantum));
  }
  // Canonical ascending order: trajectory geometry is invariant to
  // frequency order (TestVector::normalize does the same).
  std::sort(keys.begin(), keys.end());
}

std::vector<FaultTrajectory> EvaluationPipeline::trajectories_for_keys(
    const std::vector<std::int64_t>& keys,
    std::vector<std::shared_ptr<const Column>>& columns) const {
  columns.clear();
  columns.reserve(keys.size());
  for (std::int64_t key : keys) columns.push_back(column_for(key));
  return assemble(columns);
}

std::vector<FaultTrajectory> EvaluationPipeline::trajectories(
    const std::vector<double>& genes) const {
  EvalScratch scratch;
  snapped_keys(genes, scratch.keys);
  return trajectories_for_keys(scratch.keys, scratch.columns);
}

double EvaluationPipeline::evaluate_with(const std::vector<double>& genes,
                                         EvalScratch& scratch) const {
  snapped_keys(genes, scratch.keys);
  if (options_.cache_signatures) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = fitness_memo_.find(scratch.keys);
    if (it != fitness_memo_.end()) {
      PipelineMetrics::get().genome_hits.inc();
      PipelineMetrics::get().genomes_evaluated.inc();
      ++stats_.genome_hits;
      ++stats_.genomes_evaluated;
      return it->second;
    }
  }
  const double fitness = evaluator_.objective().evaluate(
      trajectories_for_keys(scratch.keys, scratch.columns));
  PipelineMetrics::get().genomes_evaluated.inc();
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    ++stats_.genomes_evaluated;
    if (options_.cache_signatures) {
      fitness_memo_.emplace(scratch.keys, fitness);
    }
  }
  return fitness;
}

double EvaluationPipeline::evaluate_one(const std::vector<double>& genes) const {
  EvalScratch scratch;
  return evaluate_with(genes, scratch);
}

std::vector<double> EvaluationPipeline::evaluate(
    const std::vector<std::vector<double>>& genomes) const {
  std::vector<double> scores(genomes.size(), 0.0);
  const std::size_t threads = options_.resolved_threads();
  // Per-lane scratch: one genome's key/column buffers are recycled by
  // every later genome the lane evaluates.
  std::vector<EvalScratch> scratch(
      std::max<std::size_t>(1, std::min(threads, genomes.size())));
  par::parallel_for_lanes(genomes.size(), threads,
                          [&](std::size_t lane, std::size_t i) {
                            scores[i] = evaluate_with(genomes[i],
                                                      scratch[lane]);
                          });
  return scores;
}

PipelineStats EvaluationPipeline::stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return stats_;
}

}  // namespace ftdiag::core
