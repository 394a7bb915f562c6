/// The `build_sparse` workload: cold Session::dictionary() builds of two
/// large circuits that run the sparse backend and load it in opposite
/// ways — a 5000-section RC ladder (no fill) and a 30x30 RC mesh (fill).
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "circuits/ladders.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_universe.hpp"
#include "faults/simulation_engine.hpp"
#include "linalg/rank1.hpp"
#include "linalg/simd.hpp"
#include "loadgen.hpp"
#include "mna/ac_analysis.hpp"
#include "mna/stamp_update.hpp"
#include "mna/sweep_solver.hpp"
#include "obs/metrics.hpp"
#include "session.hpp"
#include "util/threads.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftdiag;
using linalg::Complex;

struct SparseCircuit {
  std::string tag;
  circuits::CircuitUnderTest cut;
};

/// 5002 unknowns / 64 faults, and 901 unknowns / 144 faults, each on its
/// 240-point grid.
std::vector<SparseCircuit> sparse_circuits() {
  circuits::RcLadderDesign ladder;
  ladder.sections = 5000;
  ladder.testable_stride = 1250;
  circuits::RcMeshDesign mesh;
  mesh.rows = 30;
  mesh.cols = 30;
  mesh.testable_stride = 112;
  return {{"ladder", circuits::make_rc_ladder(ladder)},
          {"mesh", circuits::make_rc_mesh(mesh)}};
}

std::vector<faults::ParametricFault> fault_list(const circuits::CircuitUnderTest& cut) {
  return faults::FaultUniverse::over_testable(cut).enumerate();
}

/// One cold build through the facade: no cached dictionary, fresh session.
std::shared_ptr<const faults::FaultDictionary> cold_build(
    const circuits::CircuitUnderTest& cut, double& ms) {
  Session::clear_dictionary_cache();
  const Session session = SessionBuilder(cut).build();
  const Clock::time_point t0 = Clock::now();
  auto dictionary = session.dictionary();
  ms = elapsed_ms(t0);
  return dictionary;
}

bool identical(const faults::FaultDictionary& a, const faults::FaultDictionary& b) {
  return a.planes().re == b.planes().re && a.planes().im == b.planes().im;
}

double response_scale(const mna::AcResponse& golden) {
  double scale = 0.0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    scale = std::max(scale, std::abs(golden.value(i)));
  }
  return scale;
}

/// Re-solve sampled (fault, frequency) pairs from scratch — inject the
/// fault, fresh AcAnalysis — and compare with the built dictionary within
/// the engine tests' tolerance, 1e-9 relative to (|naive| + response scale).
std::size_t check_samples(const SparseCircuit& circuit,
                          const faults::FaultDictionary& dictionary,
                          std::uint64_t seed, std::uint64_t stream,
                          std::size_t samples) {
  SplitMix64 rng(derive_seed(seed, 200, stream));
  const double scale = response_scale(dictionary.golden());
  std::size_t bad = 0;
  for (std::size_t k = 0; k < samples; ++k) {
    const auto& entry = dictionary.entries()[rng.next() % dictionary.fault_count()];
    const std::size_t fi = rng.next() % dictionary.frequencies().size();
    const mna::AcAnalysis naive(faults::inject(circuit.cut.circuit, entry.fault));
    const Complex expected =
        naive.node_voltage(dictionary.frequencies()[fi], circuit.cut.output_node);
    const Complex got = entry.response.value(fi);
    if (!(std::abs(got - expected) <= 1e-9 * (std::abs(expected) + scale))) ++bad;
  }
  return bad;
}

struct EngineRun {
  double ms = 0.0;
  faults::BatchResult result;
};

EngineRun simulate(const circuits::CircuitUnderTest& cut, std::size_t threads,
                   const std::vector<double>& frequencies) {
  faults::SimOptions options;
  options.threads = threads;
  const faults::SimulationEngine engine(cut, options);
  const auto faults = fault_list(cut);
  const Clock::time_point t0 = Clock::now();
  EngineRun run{0.0, engine.simulate_all(faults, frequencies)};
  run.ms = elapsed_ms(t0);
  return run;
}

/// The engine's phases replayed serially with the public mna/linalg
/// calls it is built from, each timed: MnaSystem + prepare_sweep, the
/// symbolic analysis, the per-frequency factor, the golden solve, one
/// w = A^-1 u solve per fault site, and the Sherman-Morrison sweep over
/// sites x deviations x frequencies.
struct Replay {
  double prepare_ms = 0, analyze_ms = 0, factor_ms = 0, golden_solve_ms = 0;
  double w_solve_ms = 0, sm_sweep_ms = 0;
  double factor_nnz = 0;
  std::map<std::size_t, std::vector<Complex>> responses;  ///< fault index -> values
};

Replay replay(const circuits::CircuitUnderTest& cut, SpanLog& spans,
              std::uint64_t parent) {
  Replay r;
  const auto faults = fault_list(cut);
  const std::vector<double> freqs = cut.dictionary_grid.frequencies();
  const std::size_t m = freqs.size();

  ScopedSpan prepare(spans, "mna.MnaSystem+prepare_sweep", parent);
  const mna::MnaSystem system(cut.circuit);
  const mna::SweepAssembler assembler = system.prepare_sweep();
  r.prepare_ms = prepare.finish();

  ScopedSpan analyze(spans, "mna.SweepSolver.analyze", parent);
  const auto context = mna::SweepSolver::analyze(assembler, mna::SolverBackend::kAuto);
  r.analyze_ms = analyze.finish();
  r.factor_nnz = context->sparse ? static_cast<double>(context->prototype.factor_nnz()) : 0.0;

  const std::size_t n = system.unknown_count();
  const std::size_t out = system.node_unknown(cut.output_node);
  struct Site {
    mna::Rank1StampUpdate update;
    std::vector<std::size_t> faults;
    std::vector<Complex> u;
    std::vector<double> vx0_re, vx0_im, vw_re, vw_im, x0_re, x0_im, w_re, w_im;
  };
  std::vector<Site> sites;
  std::map<std::string, std::size_t> site_of;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::string& component = faults[i].site.component;
    auto it = site_of.find(component);
    if (it == site_of.end()) {
      auto update = mna::rank1_stamp_update(system, component);
      if (!update) throw Error("replay: " + component + " has no rank-1 update");
      Site site;
      site.u = update->u.densify(n);
      site.update = std::move(*update);
      for (auto* v : {&site.vx0_re, &site.vx0_im, &site.vw_re, &site.vw_im,
                      &site.x0_re, &site.x0_im, &site.w_re, &site.w_im}) {
        v->resize(m);
      }
      it = site_of.emplace(component, sites.size()).first;
      sites.push_back(std::move(site));
    }
    sites[it->second].faults.push_back(i);
  }

  mna::SweepSolver solver(assembler, context);
  std::vector<Complex> x0(n), w(n);
  for (std::size_t fi = 0; fi < m; ++fi) {
    const Complex s = linalg::s_of_hz(freqs[fi]);
    Clock::time_point t = Clock::now();
    solver.factor(s);
    Clock::time_point t_next = Clock::now();
    spans.record("mna.SweepSolver.factor", t, t_next, parent);
    r.factor_ms += elapsed_ms(t, t_next);
    t = t_next;
    solver.solve_into(assembler.rhs(), x0);
    t_next = Clock::now();
    spans.record("mna.SweepSolver.solve_into.golden", t, t_next, parent);
    r.golden_solve_ms += elapsed_ms(t, t_next);
    t = t_next;
    for (Site& site : sites) {
      solver.solve_into(site.u, w);
      const Complex vx0 = linalg::sparse_dot(site.update.v, x0);
      const Complex vw = linalg::sparse_dot(site.update.v, w);
      site.vx0_re[fi] = vx0.real();
      site.vx0_im[fi] = vx0.imag();
      site.vw_re[fi] = vw.real();
      site.vw_im[fi] = vw.imag();
      site.x0_re[fi] = x0[out].real();
      site.x0_im[fi] = x0[out].imag();
      site.w_re[fi] = w[out].real();
      site.w_im[fi] = w[out].imag();
    }
    t_next = Clock::now();
    spans.record("mna.SweepSolver.solve_into.w", t, t_next, parent);
    r.w_solve_ms += elapsed_ms(t, t_next);
  }

  ScopedSpan sweep(spans, "linalg.sherman_morrison_sweep_simd", parent);
  linalg::simd::AlignedVector scale_re(m), scale_im(m), out_re(m), out_im(m);
  std::vector<unsigned char> refused(m);
  double sweep_ms = 0.0;
  for (const Site& site : sites) {
    for (std::size_t i : site.faults) {
      for (std::size_t fi = 0; fi < m; ++fi) {
        const Complex c =
            site.update.coefficient(linalg::s_of_hz(freqs[fi]), faults[i].multiplier());
        scale_re[fi] = c.real();
        scale_im[fi] = c.imag();
      }
      const Clock::time_point t = Clock::now();
      (void)linalg::sherman_morrison_sweep_simd<linalg::simd::DefaultPack>(
          m, scale_re.data(), scale_im.data(), site.vx0_re.data(),
          site.vx0_im.data(), site.vw_re.data(), site.vw_im.data(),
          site.x0_re.data(), site.x0_im.data(), site.w_re.data(),
          site.w_im.data(), linalg::kRank1MaxGrowth, out_re.data(),
          out_im.data(), refused.data());
      sweep_ms += elapsed_ms(t);
      std::vector<Complex>& values = r.responses[i];
      for (std::size_t fi = 0; fi < m; ++fi) {
        values.emplace_back(out_re[fi], out_im[fi]);
      }
    }
  }
  sweep.finish();
  r.sm_sweep_ms = sweep_ms;
  return r;
}

double pool_busy_us() {
  return static_cast<double>(
      obs::Registry::global().sharded_counter("ftdiag_pool_busy_us_total").value());
}

}  // namespace

void build_sparse_setup() {
  for (const SparseCircuit& circuit : sparse_circuits()) {
    std::vector<double> freqs = circuit.cut.dictionary_grid.frequencies();
    freqs.resize(8);
    (void)simulate(circuit.cut, 0, freqs);
  }
}

void build_sparse_e2e(RunContext& ctx) {
  Report& report = ctx.report;
  const double setup_s = probe_setup_s(ctx, 3);
  build_sparse_setup();  // warm-up: pool start, first touch

  const std::vector<SparseCircuit> circuits = sparse_circuits();
  std::vector<std::shared_ptr<const faults::FaultDictionary>> first(circuits.size());
  std::vector<std::vector<double>> ms(circuits.size());
  std::size_t builds = 0, differing = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t pass = 0; pass < 3 || elapsed_s(start) < ctx.seconds; ++pass) {
    // The seed decides which circuit a pass builds first.
    const std::size_t lead = SplitMix64(derive_seed(ctx.seed, 300, pass)).next() % 2;
    for (std::size_t k = 0; k < circuits.size(); ++k) {
      const std::size_t c = (lead + k) % circuits.size();
      double build_ms = 0.0;
      auto dictionary = cold_build(circuits[c].cut, build_ms);
      ms[c].push_back(build_ms);
      ++builds;
      if (!first[c]) {
        first[c] = std::move(dictionary);
      } else if (!identical(*first[c], *dictionary)) {
        ++differing;
      }
    }
  }
  const double wall_s = elapsed_s(start);
  const double rss = peak_rss_mb();

  report.attempt(builds);
  report.fail(differing, "build_sparse: a rebuild differs from the first build");
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    report.fail(check_samples(circuits[c], *first[c], ctx.seed, c, 3),
                "build_sparse " + circuits[c].tag +
                    ": dictionary differs from inject + AcAnalysis re-solves");
  }
  report.add("setup_s", setup_s, "s", "build_sparse");
  report.add("rss_mb", rss, "MB", "build_sparse");
  report.add(kLightP50, median(ms[0]), "ms", "build_sparse");
  report.add(kHeavyP50, median(ms[1]), "ms", "build_sparse");
  report.add(kDonePerS, static_cast<double>(builds) / wall_s, "1/s", "build_sparse");
  report.add("build_sparse.builds_per_circuit", static_cast<double>(ms[0].size()),
             "count", "build_sparse");
  report.note("build_sparse.e2e_mapping",
              "p50_ms.light = build_ms.ladder, p50_ms.heavy = build_ms.mesh "
              "(median cold Session::dictionary()), done_per_s = cold builds "
              "per second");
}

void build_sparse_traced(RunContext& ctx) {
  Report& report = ctx.report;
  SpanLog& spans = ctx.spans;
  ScopedSpan root(spans, "build_sparse", 0, 0);
  build_sparse_setup();
  const double lanes = static_cast<double>(util::resolve_threads(0));
  std::uint64_t group = 0;
  for (const SparseCircuit& circuit : sparse_circuits()) {
    ++group;
    ScopedSpan span(spans, "build_sparse." + circuit.tag, root.id(), group);
    const std::string p = circuit.tag + ".";
    const char* w = "build_sparse";
    const std::string build = circuit.tag == "ladder" ? "p50_ms.light" : "p50_ms.heavy";
    const std::vector<double> freqs = circuit.cut.dictionary_grid.frequencies();

    {
      ScopedSpan facade(spans, "session.dictionary", span.id(), group);
      double ms = 0.0;
      (void)cold_build(circuit.cut, ms);
      report.add(p + "session.dictionary_ms", ms, "ms", w, build);
    }
    const double busy_before = pool_busy_us();
    ScopedSpan parallel_span(spans, "faults.SimulationEngine.simulate_all", span.id(), group);
    const EngineRun parallel = simulate(circuit.cut, 0, freqs);
    parallel_span.finish();
    const double busy = pool_busy_us() - busy_before;
    ScopedSpan serial_span(spans, "faults.SimulationEngine.simulate_all.t1", span.id(), group);
    const EngineRun serial = simulate(circuit.cut, 1, freqs);
    serial_span.finish();
    ScopedSpan replay_span(spans, "build_sparse.replay", span.id(), group);
    const Replay r = replay(circuit.cut, spans, replay_span.id());
    replay_span.finish();

    // The replay must compute what the engine computed, or it is not
    // measuring the real build.
    std::size_t bad = 0;
    const double scale = response_scale(serial.result.golden);
    for (const auto& [i, values] : r.responses) {
      const mna::AcResponse& engine = serial.result.responses[i];
      for (std::size_t fi = 0; fi < values.size(); ++fi) {
        if (!(std::abs(values[fi] - engine.value(fi)) <=
              1e-9 * (std::abs(engine.value(fi)) + scale))) {
          ++bad;
          break;
        }
      }
    }
    report.attempt(r.responses.size());
    report.fail(bad, "build_sparse " + circuit.tag + ": the replay differs from the engine");

    const double accounted = r.prepare_ms + r.analyze_ms + r.factor_ms +
                             r.golden_solve_ms + r.w_solve_ms + r.sm_sweep_ms;
    report.add(p + "mna.prepare_ms", r.prepare_ms, "ms", w, build);
    report.add(p + "mna.analyze_ms", r.analyze_ms, "ms", w, "p50_ms.light");
    report.add(p + "mna.factor_ms", r.factor_ms, "ms", w, "p50_ms.heavy");
    report.add(p + "mna.golden_solve_ms", r.golden_solve_ms, "ms", w, "p50_ms.light");
    report.add(p + "mna.w_solve_ms", r.w_solve_ms, "ms", w, "p50_ms.light");
    report.add(p + "linalg.sm_sweep_ms", r.sm_sweep_ms, "ms", w, build);
    report.add(p + "linalg.factor_nnz", r.factor_nnz, "count", w, "p50_ms.heavy");
    report.add(p + "faults.simulate_ms.t1", serial.ms, "ms", w, build);
    report.add(p + "faults.unaccounted_ms", serial.ms - accounted, "ms", w, build);
    report.add(p + "faults.thread_speedup", serial.ms / parallel.ms, "ratio", w, build);
    report.add(p + "util.pool_busy_ratio", busy / (parallel.ms * 1e3 * lanes), "ratio", w,
               build);
    report.add(p + "faults.rank1_solves",
               static_cast<double>(parallel.result.stats.rank1_solves), "count", w, build);
    report.add(p + "faults.full_solves",
               static_cast<double>(parallel.result.stats.full_solves), "count", w, build);
    report.add(p + "faults.fallback_faults",
               static_cast<double>(parallel.result.stats.fallback_faults), "count", w,
               build);
  }
}

}  // namespace perfbench
