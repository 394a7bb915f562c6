#include "faults/simulation_engine.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "faults/fault_injector.hpp"
#include "linalg/rank1.hpp"
#include "linalg/simd.hpp"
#include "mna/ac_analysis.hpp"
#include "mna/stamp_update.hpp"
#include "mna/sweep_solver.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/threads.hpp"

namespace ftdiag::faults {

using linalg::Complex;
using linalg::simd::AlignedVector;

void SimOptions::check() const {
  if (max_growth <= 1.0) {
    throw ConfigError("simulation-engine max_growth must be > 1");
  }
}

std::size_t SimOptions::resolved_threads() const {
  return util::resolve_threads(threads);
}

namespace {

/// All deviations of one rank-1-capable site: one unit of parallel work.
struct SiteItem {
  std::vector<std::size_t> fault_indices;  ///< into the input list
  mna::Rank1StampUpdate update;
};

/// Per-site state that survives across frequency blocks (the responses
/// themselves go straight into the batch's block).
struct SiteState {
  /// Refactorized analyses for ill-conditioned pairs, lazy per fault.
  std::vector<std::unique_ptr<mna::AcAnalysis>> refactorized;
  std::size_t rank1_solves = 0;
  std::size_t full_solves = 0;
};

/// Phase-1 output of one frequency block: the four numbers the
/// Sherman–Morrison sweep reads per (site, frequency) — x0[out], shared by
/// every site, and each site's w[out], v.x0 and v.w — as split planes.
/// Site si's frequencies sit at [si * stride, si * stride + m).
struct SweepInputs {
  AlignedVector x0_re, x0_im;                      ///< stride
  AlignedVector w_re, w_im, vx0_re, vx0_im, vw_re, vw_im;  ///< sites * stride

  void resize(std::size_t site_count, std::size_t stride) {
    x0_re.resize(stride);
    x0_im.resize(stride);
    for (auto* v : {&w_re, &w_im, &vx0_re, &vx0_im, &vw_re, &vw_im}) {
      v->resize(site_count * stride);
    }
  }
};

/// Phase-1 workspace of a lane: one batch solver plus the solutions of
/// the golden system and of the current site's u, every frequency of the
/// batch in its own lane (n unknowns of Solver::kStride doubles).
template <typename Solver>
struct GoldenLane {
  Solver solver;
  linalg::simd::AlignedBuffer x0, w;
};

/// Per-lane SoA scratch of the rank-1 phase.
struct SiteLane {
  AlignedVector scale_re, scale_im, out_re, out_im;
  std::vector<unsigned char> refused;

  void ensure(std::size_t m) {
    if (scale_re.size() >= m) return;
    for (auto* v : {&scale_re, &scale_im, &out_re, &out_im}) v->resize(m);
    refused.resize(m);
  }
};

/// Frequencies are processed in blocks of this size so the sweep inputs
/// take O(block * S) memory instead of O(frequencies * S), without
/// changing any result bit.
/// A multiple of every supported pack width, so batch membership — and
/// therefore every lane's arithmetic — depends only on the grid, never
/// on the thread count.
constexpr std::size_t kFrequencyBlock = 64;

/// The sparse backend factors four frequencies per pack kernel call, not
/// the native width, because a lane's value block is factor_nnz 64-byte
/// lines at four (1.5 MB on the 5000-section ladder, inside L2) and every
/// pool lane holds one.  An FTDIAG_SIMD=OFF build runs it at width 1.
#if FTDIAG_SIMD_NATIVE
using SparsePack = linalg::simd::Pack4;
#else
using SparsePack = linalg::simd::ScalarPack;
#endif

/// Process-wide engine metrics (`ftdiag_engine_*`).  Deliberately
/// registry-global rather than per-engine: BatchResult::stats stays the
/// deterministic per-call record, while these accumulate across every
/// engine in the process for live monitoring.  Leaked references into
/// the leaked global registry, so worker threads can bump them at any
/// point of shutdown.
struct EngineMetrics {
  obs::Counter& builds;
  obs::Counter& rank1_solves;
  obs::Counter& full_solves;
  obs::Counter& fallback_faults;
  obs::Counter& refactorizations;
  obs::Histogram& block_us;
  obs::Gauge& simd_width;

  static EngineMetrics& get() {
    static EngineMetrics* m = [] {
      obs::Registry& reg = obs::Registry::global();
      return new EngineMetrics{
          reg.counter("ftdiag_engine_builds_total", {},
                      "batch fault simulations run"),
          reg.counter("ftdiag_engine_rank1_solves_total", {},
                      "fault-frequency solutions via Sherman-Morrison reuse"),
          reg.counter("ftdiag_engine_full_solves_total", {},
                      "fault-frequency solutions via full factorization"),
          reg.counter("ftdiag_engine_fallback_faults_total", {},
                      "faults served by the naive inject-and-sweep path"),
          reg.counter("ftdiag_engine_refactorizations_total", {},
                      "lazy exact refactorizations for refused rank-1 "
                      "updates"),
          reg.histogram("ftdiag_engine_block_solve_us",
                        obs::Histogram::latency_us_bounds(), {},
                        "wall time per 64-frequency block (golden factor + "
                        "all sites' rank-1 sweeps)"),
          reg.gauge("ftdiag_engine_simd_width", {},
                    "SIMD pack width of the active sweep kernel"),
      };
    }();
    return *m;
  }
};

/// Naive per-fault path: inject and sweep from scratch into the fault's
/// row.  This is the exact computation of the legacy serial loop, so
/// reuse-off results (and fallback faults) stay bit-identical to it.
void naive_row(const circuits::CircuitUnderTest& cut,
               const ParametricFault& fault,
               const std::vector<double>& frequencies_hz,
               mna::ResponsePlanes& block, std::size_t row) {
  mna::AcAnalysis(inject(cut.circuit, fault))
      .sweep_into(frequencies_hz, cut.output_node, block.row_re(row),
                  block.row_im(row));
}

/// The per-fault Sherman–Morrison scale over a frequency block, written
/// as split-plane arithmetic: the pack-friendly mirror of
/// Rank1StampUpdate::coefficient (identical per-lane formulas — the
/// conductance scale is frequency-independent, susceptance/impedance are
/// s times a real constant).
void fill_scale(const mna::Rank1StampUpdate& update, double multiplier,
                std::size_t m, const double* s_re, const double* s_im,
                double* scale_re, double* scale_im) {
  switch (update.kind) {
    case mna::StampCoefficientKind::kConductance: {
      const double g =
          1.0 / (multiplier * update.nominal) - 1.0 / update.nominal;
      std::fill_n(scale_re, m, g);
      std::fill_n(scale_im, m, 0.0);
      return;
    }
    case mna::StampCoefficientKind::kSusceptance: {
      const double k = update.nominal * (multiplier - 1.0);
      for (std::size_t i = 0; i < m; ++i) {
        scale_re[i] = s_re[i] * k;
        scale_im[i] = s_im[i] * k;
      }
      return;
    }
    case mna::StampCoefficientKind::kImpedance: {
      const double k = update.nominal * (multiplier - 1.0);
      for (std::size_t i = 0; i < m; ++i) {
        scale_re[i] = -s_re[i] * k;
        scale_im[i] = -s_im[i] * k;
      }
      return;
    }
  }
}

/// The factorization-reuse sweep over frequency blocks.  Phase 1 factors
/// the golden system and reduces it to the sweep inputs, Solver::kWidth
/// frequencies per batch, one per SIMD lane: the dense BatchSweepSolver
/// solves every unknown, the SparseBatchSolver only the read set.  Phase 2
/// fans the sites out over the SIMD Sherman–Morrison sweep, reading
/// nothing but those inputs.  The golden goes to row 0 of \p block and
/// fault i to row 1 + i.  Every frequency's arithmetic is independent of
/// which lane computes it and batch membership is width-determined, so
/// results are bit-stable across thread counts.
template <typename Solver>
void reuse_sweep(const circuits::CircuitUnderTest& cut,
                 const SimOptions& options,
                 const std::vector<ParametricFault>& faults,
                 const std::vector<double>& frequencies_hz,
                 const mna::SweepAssembler& assembler,
                 const std::shared_ptr<const mna::SweepSolver::Context>&
                     context,
                 const std::vector<SiteItem>& sites,
                 std::vector<SiteState>& state, std::size_t threads,
                 std::size_t out, mna::ResponsePlanes& block) {
  using P = linalg::simd::DefaultPack;
  constexpr std::size_t kW = Solver::kWidth;
  constexpr std::size_t kStride = Solver::kStride;

  const std::size_t n = assembler.size();
  const std::size_t site_count = sites.size();
  const std::size_t total = frequencies_hz.size();

  static_assert(kFrequencyBlock % kW == 0 && kFrequencyBlock % P::width == 0,
                "block size must hold whole packs");
  const std::size_t block_cap = std::min(kFrequencyBlock, total);
  // Room for the block padded to whole batches, and every site's inputs
  // starting on a whole sweep pack.
  constexpr std::size_t kPad = std::max(kW, P::width);
  const std::size_t stride = (block_cap + kPad - 1) / kPad * kPad;
  SweepInputs in;
  in.resize(site_count, stride);
  std::vector<Complex> s_padded(stride);
  AlignedVector s_re_block(stride), s_im_block(stride);

  std::vector<std::pair<std::size_t, Complex>> rhs_entries;
  for (std::size_t i = 0; i < n; ++i) {
    if (assembler.rhs()[i] != Complex{}) {
      rhs_entries.emplace_back(i, assembler.rhs()[i]);
    }
  }
  // Allocated here, first touched by the workers' first batch.
  const std::size_t lane_count = std::max<std::size_t>(
      1, std::min(threads, (block_cap + kW - 1) / kW));
  std::vector<GoldenLane<Solver>> lanes;
  lanes.reserve(lane_count);
  for (std::size_t i = 0; i < lane_count; ++i) {
    lanes.push_back({Solver(assembler, context),
                     linalg::simd::aligned_buffer(n * kStride),
                     linalg::simd::aligned_buffer(n * kStride)});
  }
  std::vector<SiteLane> site_lanes(
      std::max<std::size_t>(1, std::min(threads, site_count)));

  for (std::size_t begin = 0; begin < total; begin += kFrequencyBlock) {
    // Timed at the sequential outer loop: one observation per block,
    // covering the golden factor phase plus every site's rank-1 sweep.
    const bool timed = obs::enabled();
    const auto block_start = timed ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
    const std::size_t end = std::min(total, begin + kFrequencyBlock);
    const std::size_t m = end - begin;
    const std::size_t batches = (m + kW - 1) / kW;
    // Laplace points of the block, padded to a whole batch by replicating
    // the last frequency (padding lanes compute unused values).
    for (std::size_t bi = 0; bi < batches * kW; ++bi) {
      const std::size_t fi = std::min(begin + bi, total - 1);
      const Complex s = linalg::s_of_hz(frequencies_hz[fi]);
      s_padded[bi] = s;
      s_re_block[bi] = s.real();
      s_im_block[bi] = s.imag();
    }

    // Batch b holds the block's frequencies [kW * b, kW * b + kW).  Each
    // real lane is reduced to its frequency's sweep inputs, read out as
    // std::complex.
    par::parallel_for_lanes(batches, threads, [&](std::size_t lane,
                                                  std::size_t batch) {
      GoldenLane<Solver>& ws = lanes[lane];
      const std::size_t at = batch * kW;
      const std::size_t valid = std::min(kW, m - at);
      const auto lane_value = [&](const double* x, std::size_t unknown,
                                  std::size_t l) {
        return Complex(x[unknown * kStride + l], x[unknown * kStride + kW + l]);
      };
      ws.solver.factor(std::span<const Complex>(s_padded).subspan(at, kW),
                       valid);
      ws.solver.solve_read_set(rhs_entries, ws.x0.get());
      for (std::size_t l = 0; l < valid; ++l) {
        const Complex x0_out = lane_value(ws.x0.get(), out, l);
        in.x0_re[at + l] = x0_out.real();
        in.x0_im[at + l] = x0_out.imag();
      }
      for (std::size_t si = 0; si < site_count; ++si) {
        const mna::Rank1StampUpdate& update = sites[si].update;
        ws.solver.solve_read_set(update.u.entries, ws.w.get());
        for (std::size_t l = 0; l < valid; ++l) {
          Complex v_dot_x0{};
          Complex v_dot_w{};
          for (const auto& [index, value] : update.v.entries) {
            v_dot_x0 += value * lane_value(ws.x0.get(), index, l);
            v_dot_w += value * lane_value(ws.w.get(), index, l);
          }
          const Complex w_out = lane_value(ws.w.get(), out, l);
          const std::size_t i = si * stride + at + l;
          in.w_re[i] = w_out.real();
          in.w_im[i] = w_out.imag();
          in.vx0_re[i] = v_dot_x0.real();
          in.vx0_im[i] = v_dot_x0.imag();
          in.vw_re[i] = v_dot_w.real();
          in.vw_im[i] = v_dot_w.imag();
        }
      }
    });
    std::copy_n(in.x0_re.data(), m, block.row_re(0) + begin);
    std::copy_n(in.x0_im.data(), m, block.row_im(0) + begin);

    par::parallel_for_lanes(site_count, threads, [&](std::size_t lane,
                                                     std::size_t si) {
      const SiteItem& item = sites[si];
      SiteState& site = state[si];
      SiteLane& ws = site_lanes[lane];
      ws.ensure(m);
      const std::size_t at = si * stride;
      for (std::size_t k = 0; k < item.fault_indices.size(); ++k) {
        const ParametricFault& fault = faults[item.fault_indices[k]];
        fill_scale(item.update, fault.multiplier(), m, s_re_block.data(),
                   s_im_block.data(), ws.scale_re.data(),
                   ws.scale_im.data());
        const std::size_t refusals = linalg::sherman_morrison_sweep_simd<P>(
            m, ws.scale_re.data(), ws.scale_im.data(), &in.vx0_re[at],
            &in.vx0_im[at], &in.vw_re[at], &in.vw_im[at], in.x0_re.data(),
            in.x0_im.data(), &in.w_re[at], &in.w_im[at], options.max_growth,
            ws.out_re.data(), ws.out_im.data(), ws.refused.data());
        double* re = block.row_re(1 + item.fault_indices[k]);
        double* im = block.row_im(1 + item.fault_indices[k]);
        for (std::size_t bi = 0; bi < m; ++bi) {
          if (!ws.refused[bi]) {
            re[begin + bi] = ws.out_re[bi];
            im[begin + bi] = ws.out_im[bi];
            continue;
          }
          // Ill-conditioned update: fall back to an exact refactorized
          // sweep for this fault (lazy; rare by construction).
          if (!site.refactorized[k]) {
            site.refactorized[k] = std::make_unique<mna::AcAnalysis>(
                inject(cut.circuit, fault));
            EngineMetrics::get().refactorizations.inc();
          }
          const Complex v = site.refactorized[k]->node_voltage(
              frequencies_hz[begin + bi], cut.output_node);
          re[begin + bi] = v.real();
          im[begin + bi] = v.imag();
        }
        site.rank1_solves += m - refusals;
        site.full_solves += refusals;
      }
    });
    if (timed) {
      EngineMetrics::get().block_us.observe(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - block_start)
              .count());
    }
  }
}

}  // namespace

SimulationEngine::SimulationEngine(circuits::CircuitUnderTest cut,
                                   SimOptions options)
    : cut_(std::move(cut)), options_(options) {
  options_.check();
  cut_.check();
}

BatchResult SimulationEngine::simulate_all(
    const std::vector<ParametricFault>& faults,
    const std::vector<double>& frequencies_hz) const {
  return run(cut_, options_, faults, frequencies_hz);
}

BatchResult SimulationEngine::simulate(
    const circuits::CircuitUnderTest& cut, const SimOptions& options,
    const std::vector<ParametricFault>& faults,
    const std::vector<double>& frequencies_hz) {
  options.check();
  cut.check();
  return run(cut, options, faults, frequencies_hz);
}

BatchResult SimulationEngine::run(const circuits::CircuitUnderTest& cut,
                                  const SimOptions& options,
                                  const std::vector<ParametricFault>& faults,
                                  const std::vector<double>& frequencies_hz) {
  if (!mna::is_valid_grid(frequencies_hz)) {
    throw ConfigError("engine frequencies must be finite and ascending");
  }
  const std::size_t threads = options.resolved_threads();
  // The system holds a copy of the elaborated circuit; it serves the
  // set-up below and is gone before phase 1's lanes are allocated.
  std::optional<mna::MnaSystem> system(std::in_place, cut.circuit);
  const std::size_t out = system->node_unknown(cut.output_node);

  // The batch's one block: the golden in row 0, fault i in row 1 + i.
  // Every path below writes its rows in place; the result's responses are
  // row views of it.
  auto block =
      std::make_shared<mna::ResponsePlanes>(frequencies_hz, 1 + faults.size());
  BatchResult result;
  auto publish_rows = [&] {
    const std::shared_ptr<const mna::ResponsePlanes> planes = std::move(block);
    result.golden = mna::AcResponse(planes, 0);
    for (std::size_t r = 1; r < planes->rows; ++r) {
      result.responses.emplace_back(planes, r);
    }
  };

  // Reuse works on every size: the golden phase factors through the
  // backend-neutral SweepSolver context (batched dense LU small, per-lane
  // pattern-reusing sparse LU large).  Only reuse-off configurations and
  // a ground output take the naive path, still fault-parallel.
  EngineMetrics& metrics = EngineMetrics::get();
  metrics.builds.inc();
  metrics.simd_width.set(
      static_cast<std::int64_t>(linalg::simd::DefaultPack::width));

  const bool reuse = options.reuse_factorization && out != mna::kNoUnknown;
  if (!reuse) {
    mna::AcAnalysis(cut.circuit)
        .sweep_into(frequencies_hz, cut.output_node, block->row_re(0),
                    block->row_im(0));
    par::parallel_for(faults.size(), threads, [&](std::size_t i) {
      naive_row(cut, faults[i], frequencies_hz, *block, 1 + i);
    });
    result.stats.full_solves = faults.size() * frequencies_hz.size();
    result.stats.fallback_faults = faults.size();
    metrics.full_solves.inc(result.stats.full_solves);
    metrics.fallback_faults.inc(result.stats.fallback_faults);
    publish_rows();
    return result;
  }

  // Group faults: all deviations of one site share the same structural
  // update (computed once per site) and thus the same per-frequency w
  // solve; faults whose stamp is not a single dyad go to the fallback
  // list.  site_of_label stores npos for known-unsupported sites so each
  // site is classified exactly once.
  constexpr std::size_t kUnsupported = static_cast<std::size_t>(-1);
  std::vector<SiteItem> sites;
  std::vector<std::size_t> fallback;
  std::map<std::string, std::size_t> site_of_label;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const ParametricFault& fault = faults[i];
    if (fault.site.target != FaultSite::Target::kComponentValue) {
      fallback.push_back(i);
      continue;
    }
    const std::string label = fault.site.label();
    auto it = site_of_label.find(label);
    if (it == site_of_label.end()) {
      std::optional<mna::Rank1StampUpdate> update =
          mna::rank1_stamp_update(*system, fault.site.component);
      const std::size_t slot = update ? sites.size() : kUnsupported;
      it = site_of_label.emplace(label, slot).first;
      if (update) sites.push_back({{}, std::move(*update)});
    }
    if (it->second == kUnsupported) {
      fallback.push_back(i);
    } else {
      sites[it->second].fault_indices.push_back(i);
    }
  }

  // Fallback faults need no golden factorization: naive inject-and-sweep,
  // fanned out across the pool.
  par::parallel_for(fallback.size(), threads, [&](std::size_t j) {
    const std::size_t i = fallback[j];
    naive_row(cut, faults[i], frequencies_hz, *block, 1 + i);
  });
  result.stats.fallback_faults = fallback.size();
  result.stats.full_solves = fallback.size() * frequencies_hz.size();

  const std::size_t site_count = sites.size();
  std::vector<SiteState> state(site_count);
  for (std::size_t si = 0; si < site_count; ++si) {
    state[si].refactorized.resize(sites[si].fault_indices.size());
  }

  // The one symbolic analysis of the build.  On the sparse backend it
  // orders the unknowns phase 1 reads last: the output, every site's u/v
  // support and the excitation rows.
  const mna::SweepAssembler assembler = system->prepare_sweep();
  system.reset();
  std::vector<std::size_t> read_set{out};
  for (const SiteItem& item : sites) {
    for (const auto* vec : {&item.update.u, &item.update.v}) {
      for (const auto& entry : vec->entries) read_set.push_back(entry.first);
    }
  }
  for (std::size_t i = 0; i < assembler.size(); ++i) {
    if (assembler.rhs()[i] != Complex{}) read_set.push_back(i);
  }
  const auto context =
      mna::SweepSolver::analyze(assembler, options.backend, read_set);

  // One sweep body over the batch solver of the analysed backend.
  if (context->sparse) {
    reuse_sweep<mna::SparseBatchSolver<SparsePack>>(
        cut, options, faults, frequencies_hz, assembler, context, sites,
        state, threads, out, *block);
  } else {
    reuse_sweep<mna::BatchSweepSolver<linalg::simd::DefaultPack>>(
        cut, options, faults, frequencies_hz, assembler, context, sites,
        state, threads, out, *block);
  }
  for (const SiteState& site : state) {
    result.stats.rank1_solves += site.rank1_solves;
    result.stats.full_solves += site.full_solves;
  }
  metrics.rank1_solves.inc(result.stats.rank1_solves);
  metrics.full_solves.inc(result.stats.full_solves);
  metrics.fallback_faults.inc(result.stats.fallback_faults);
  publish_rows();
  return result;
}

}  // namespace ftdiag::faults
