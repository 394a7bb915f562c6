/// The `testgen` workload: the paper's test-generation flow, cold, for
/// every registry circuit — Session::dictionary() (dense engine, 240-point
/// grid) then Session::run_search() (paper GA) — over many passes.
#include <algorithm>
#include <map>

#include "circuits/registry.hpp"
#include "core/evaluation_pipeline.hpp"
#include "core/intersection.hpp"
#include "faults/fault_universe.hpp"
#include "faults/simulation_engine.hpp"
#include "ga/genetic_algorithm.hpp"
#include "loadgen.hpp"
#include "obs/metrics.hpp"
#include "session.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftdiag;

/// The registry circuits in a seeded order per pass (the work of a pass
/// does not depend on the order; the seed only decides it).
std::vector<std::string> circuit_order(std::uint64_t seed, std::uint64_t pass) {
  std::vector<std::string> names = circuits::registry_names();
  SplitMix64 rng(derive_seed(seed, 100, pass));
  for (std::size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[rng.next() % i]);
  }
  return names;
}

struct Pass {
  double build_ms = 0.0;
  double search_ms = 0.0;
  std::map<std::string, TestGenResult> results;
};

/// One cold pass: forget every cached dictionary, then build and search
/// each circuit through fresh sessions.
Pass cold_pass(const std::vector<std::string>& order) {
  Session::clear_dictionary_cache();
  Pass pass;
  for (const std::string& name : order) {
    const Session session = SessionBuilder::from_registry(name).build();
    const Clock::time_point t0 = Clock::now();
    (void)session.dictionary();
    const Clock::time_point t1 = Clock::now();
    TestGenResult result = session.run_search();
    const Clock::time_point t2 = Clock::now();
    pass.build_ms += elapsed_ms(t0, t1);
    pass.search_ms += elapsed_ms(t1, t2);
    pass.results.emplace(name, std::move(result));
  }
  return pass;
}

bool same_program(const TestGenResult& a, const TestGenResult& b) {
  return a.search == b.search &&
         a.best.vector.frequencies_hz == b.best.vector.frequencies_hz &&
         a.best.fitness == b.best.fitness;
}

/// Output checks: every pass equals the first, the first equals a
/// one-thread search of the same circuit, and nf_biquad reaches the
/// paper's zero-intersection vector (fitness 1).
void check_passes(Report& report, const std::vector<Pass>& passes) {
  const Pass& first = passes.front();
  for (const auto& [name, result] : first.results) {
    const Session serial = SessionBuilder::from_registry(name).threads(1).build();
    std::size_t bad = 0;
    if (!same_program(serial.run_search(), result)) bad = passes.size();
    for (std::size_t p = 1; p < passes.size() && bad == 0; ++p) {
      if (!same_program(passes[p].results.at(name), result)) ++bad;
    }
    report.fail(bad, "testgen " + name +
                         ": search differs from the one-thread search");
  }
  const auto it = first.results.find("nf_biquad");
  report.check(it != first.results.end() && it->second.best.fitness == 1.0,
               "testgen: nf_biquad did not reach fitness 1 (zero intersections)");
}

/// Times every evaluate() of the pipeline it wraps and keeps the last
/// batch (the final generation) for the intersection replay.
class TimedObjective final : public ga::BatchObjective {
public:
  TimedObjective(const ga::BatchObjective& inner, SpanLog& spans,
                 std::uint64_t parent, std::uint64_t group)
      : inner_(inner), spans_(spans), parent_(parent), group_(group) {}

  [[nodiscard]] std::vector<double> evaluate(
      const std::vector<std::vector<double>>& genomes) const override {
    const Clock::time_point start = Clock::now();
    std::vector<double> scores = inner_.evaluate(genomes);
    const Clock::time_point end = Clock::now();
    spans_.record("core.EvaluationPipeline.evaluate", start, end, parent_, group_);
    evaluate_ms_ += elapsed_ms(start, end);
    ++calls_;
    last_ = genomes;
    return scores;
  }

  [[nodiscard]] double evaluate_ms() const { return evaluate_ms_; }
  [[nodiscard]] std::size_t calls() const { return calls_; }
  [[nodiscard]] const std::vector<std::vector<double>>& last() const { return last_; }

private:
  const ga::BatchObjective& inner_;
  SpanLog& spans_;
  std::uint64_t parent_, group_;
  mutable double evaluate_ms_ = 0.0;
  mutable std::size_t calls_ = 0;
  mutable std::vector<std::vector<double>> last_;
};

struct PoolCounters {
  double busy_us = 0.0, jobs = 0.0, stolen = 0.0;
  static PoolCounters read() {
    obs::Registry& reg = obs::Registry::global();
    return {static_cast<double>(reg.sharded_counter("ftdiag_pool_busy_us_total").value()),
            static_cast<double>(reg.counter("ftdiag_pool_jobs_total").value()),
            static_cast<double>(reg.sharded_counter("ftdiag_pool_stolen_blocks_total").value())};
  }
};

}  // namespace

void testgen_setup() { (void)cold_pass(circuit_order(0, 0)); }

void testgen_e2e(RunContext& ctx) {
  Report& report = ctx.report;
  const double setup_s = probe_setup_s(ctx, 3);
  (void)cold_pass(circuit_order(ctx.seed, 0));  // warm-up: pool start, first touch

  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  while (passes.size() < 3 || elapsed_s(start) < ctx.seconds) {
    passes.push_back(cold_pass(circuit_order(ctx.seed, passes.size() + 1)));
  }
  const double wall_s = elapsed_s(start);
  const double rss = peak_rss_mb();
  report.attempt(passes.size() * passes.front().results.size());
  check_passes(report, passes);

  std::vector<double> build, search;
  for (const Pass& p : passes) {
    build.push_back(p.build_ms);
    search.push_back(p.search_ms);
  }
  report.add("setup_s", setup_s, "s", "testgen");
  report.add("rss_mb", rss, "MB", "testgen");
  report.add(kLightP50, median(build), "ms", "testgen");
  report.add(kHeavyP50, median(search), "ms", "testgen");
  report.add(kDonePerS, static_cast<double>(passes.size()) / wall_s, "1/s", "testgen");
  report.add("testgen.passes", static_cast<double>(passes.size()), "count", "testgen");
  report.note("testgen.e2e_mapping",
              "p50_ms.light = build_ms (median per pass of the summed cold "
              "Session::dictionary()), p50_ms.heavy = search_ms (median per "
              "pass of the summed Session::run_search()), done_per_s = cold "
              "test-program passes per second");
}

void testgen_traced(RunContext& ctx) {
  Report& report = ctx.report;
  SpanLog& spans = ctx.spans;
  ScopedSpan root(spans, "testgen", 0, 0);
  (void)cold_pass(circuit_order(ctx.seed, 0));  // warm-up

  const double lanes = static_cast<double>(util::resolve_threads(0));
  constexpr std::size_t kPasses = 5;
  struct PassLayers {
    double dictionary_ms = 0, simulate_ms = 0, search_ms = 0, optimize_ms = 0;
    double evaluate_ms = 0, busy_build_us = 0, busy_search_us = 0, jobs = 0;
    double stolen = 0, evaluations = 0, evaluate_calls = 0, column_hits = 0;
    double column_lookups = 0, genome_hits = 0, genomes = 0;
    double intersections_us = 0, intersection_calls = 0;
    faults::EngineStats engine;
  };
  std::vector<PassLayers> layers;
  for (std::size_t p = 1; p <= kPasses; ++p) {
    ScopedSpan pass_span(spans, "testgen.pass", root.id(), p);
    Session::clear_dictionary_cache();
    PassLayers L;
    const PoolCounters pass_before = PoolCounters::read();
    for (const std::string& name : circuit_order(ctx.seed, p)) {
      const Session session = SessionBuilder::from_registry(name).build();
      {
        const PoolCounters before = PoolCounters::read();
        ScopedSpan span(spans, "session.dictionary", pass_span.id(), p);
        (void)session.dictionary();
        L.dictionary_ms += span.finish();
        L.busy_build_us += PoolCounters::read().busy_us - before.busy_us;
      }
      {
        // The engine alone on the same inputs: the gap to the facade's
        // build is the cache key plus the FaultDictionary copies.
        const auto& cut = session.cut();
        const auto faults =
            faults::FaultUniverse::over_testable(cut, session.options().deviations)
                .enumerate();
        const faults::SimulationEngine engine(cut, session.options().sim);
        ScopedSpan span(spans, "faults.SimulationEngine.simulate_all",
                        pass_span.id(), p);
        const faults::BatchResult batch =
            engine.simulate_all(faults, cut.dictionary_grid.frequencies());
        L.simulate_ms += span.finish();
        L.engine.rank1_solves += batch.stats.rank1_solves;
        L.engine.full_solves += batch.stats.full_solves;
        L.engine.fallback_faults += batch.stats.fallback_faults;
      }
      // Session::run_search, replayed with a timing decorator around the
      // evaluation pipeline.
      const PoolCounters before = PoolCounters::read();
      ScopedSpan search(spans, "testgen.search", pass_span.id(), p);
      const SearchOptions& options = session.options().search;
      const core::TestVectorEvaluator& evaluator = [&]() -> const auto& {
        ScopedSpan span(spans, "session.evaluator", search.id(), p);
        return session.evaluator();
      }();
      core::PipelineOptions pipeline_options;
      pipeline_options.threads = options.resolved_threads();
      pipeline_options.cache_signatures = options.eval_cache;
      const core::EvaluationPipeline pipeline(evaluator, pipeline_options);
      const ga::GeneticAlgorithm ga(options.ga);
      Rng rng(options.seed);
      ScopedSpan optimize(spans, "ga.GeneticAlgorithm.optimize", search.id(), p);
      const TimedObjective timed(pipeline, spans, optimize.id(), p);
      const ga::OptimizerResult result =
          ga.optimize(timed, options.n_frequencies, session.bounds(), rng);
      L.optimize_ms += optimize.finish();
      L.search_ms += search.finish();
      L.busy_search_us += PoolCounters::read().busy_us - before.busy_us;
      L.evaluate_ms += timed.evaluate_ms();
      L.evaluate_calls += static_cast<double>(timed.calls());
      L.evaluations += static_cast<double>(result.evaluations);
      const core::PipelineStats stats = pipeline.stats();
      L.column_hits += static_cast<double>(stats.column_hits);
      L.column_lookups += static_cast<double>(stats.column_hits + stats.column_misses);
      L.genome_hits += static_cast<double>(stats.genome_hits);
      L.genomes += static_cast<double>(stats.genomes_evaluated);
      if (p == 1) {
        report.attempt();
        report.fail(session.run_search().search == result ? 0 : 1,
                    "testgen " + name +
                        ": the decorated search differs from Session::run_search()");
      }
      core::IntersectionOptions count_only;
      count_only.collect_conflicts = false;
      ScopedSpan span(spans, "core.count_intersections", pass_span.id(), p);
      for (const auto& genes : timed.last()) {
        const auto trajectories = pipeline.trajectories(genes);
        const Clock::time_point t = Clock::now();
        (void)core::count_intersections(trajectories, count_only);
        L.intersections_us += elapsed_us(t);
        L.intersection_calls += 1.0;
      }
    }
    const PoolCounters pass_after = PoolCounters::read();
    L.jobs = pass_after.jobs - pass_before.jobs;
    L.stolen = pass_after.stolen - pass_before.stolen;
    layers.push_back(L);
  }

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const PassLayers& L : layers) v.push_back(field(L));
    return median(v);
  };
  const char* w = "testgen";
  report.add("session.dictionary_ms", med([](const PassLayers& L) { return L.dictionary_ms; }),
             "ms", w, "p50_ms.light");
  report.add("faults.simulate_ms", med([](const PassLayers& L) { return L.simulate_ms; }),
             "ms", w, "p50_ms.light");
  report.add("session.facade_ms",
             med([](const PassLayers& L) { return L.dictionary_ms - L.simulate_ms; }),
             "ms", w, "p50_ms.light (cache key + FaultDictionary::from_parts copies)");
  const faults::EngineStats& engine = layers.front().engine;
  report.add("faults.rank1_solves", static_cast<double>(engine.rank1_solves), "count", w,
             "p50_ms.light");
  report.add("faults.full_solves", static_cast<double>(engine.full_solves), "count", w,
             "p50_ms.light");
  report.add("faults.fallback_faults", static_cast<double>(engine.fallback_faults),
             "count", w, "p50_ms.light");
  report.add("util.pool_busy_ratio.build",
             med([&](const PassLayers& L) { return L.busy_build_us / (L.dictionary_ms * 1e3 * lanes); }),
             "ratio", w, "p50_ms.light");
  report.add("util.pool_busy_ratio.search",
             med([&](const PassLayers& L) { return L.busy_search_us / (L.search_ms * 1e3 * lanes); }),
             "ratio", w, "p50_ms.heavy");
  report.add("util.pool_jobs", med([](const PassLayers& L) { return L.jobs; }), "count", w,
             "p50_ms.light, p50_ms.heavy");
  report.add("util.pool_stolen", med([](const PassLayers& L) { return L.stolen; }), "count", w,
             "p50_ms.light, p50_ms.heavy");
  report.add("ga.self_ms", med([](const PassLayers& L) { return L.optimize_ms - L.evaluate_ms; }),
             "ms", w, "p50_ms.heavy");
  report.add("ga.evaluations", med([](const PassLayers& L) { return L.evaluations; }), "count",
             w, "p50_ms.heavy");
  report.add("ga.evaluate_calls", med([](const PassLayers& L) { return L.evaluate_calls; }),
             "count", w, "p50_ms.heavy");
  report.add("core.evaluate_ms", med([](const PassLayers& L) { return L.evaluate_ms; }), "ms", w,
             "p50_ms.heavy");
  report.add("core.column_hit_ratio",
             med([](const PassLayers& L) { return L.column_hits / std::max(1.0, L.column_lookups); }),
             "ratio", w, "p50_ms.heavy");
  report.add("core.genome_hit_ratio",
             med([](const PassLayers& L) { return L.genome_hits / std::max(1.0, L.genomes); }),
             "ratio", w, "p50_ms.heavy");
  report.add("core.intersections_us",
             med([](const PassLayers& L) { return L.intersections_us / std::max(1.0, L.intersection_calls); }),
             "us", w, "p50_ms.heavy");
  // The unaccounted remainder of the search decomposition: the search
  // wall minus ga.self_ms and core.evaluate_ms (evaluator and pipeline
  // construction).
  report.add("testgen.search_unaccounted_ms",
             med([](const PassLayers& L) { return L.search_ms - L.optimize_ms; }), "ms", w,
             "p50_ms.heavy");
}

}  // namespace perfbench
