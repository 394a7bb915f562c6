/// Perf: google-benchmark microbenchmarks of every pipeline stage —
/// MNA solves (dense + sparse), fault-dictionary construction (serial and
/// engine), trajectory building, intersection counting, fitness evaluation
/// and diagnosis.  After the registered benchmarks run, main() times the
/// serial vs engine dictionary build on the largest registry circuit and
/// writes the comparison to BENCH_engine.json so the perf trajectory of
/// the simulation engine is tracked per PR.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/ladders.hpp"
#include "circuits/nf_biquad.hpp"
#include "circuits/registry.hpp"
#include "core/evaluation.hpp"
#include "core/evaluation_pipeline.hpp"
#include "faults/dictionary.hpp"
#include "faults/simulation_engine.hpp"
#include "ga/genetic_algorithm.hpp"
#include "io/dictionary_io.hpp"
#include "io/mapped_file.hpp"
#include "linalg/lu.hpp"
#include "linalg/rank1.hpp"
#include "linalg/simd.hpp"
#include "linalg/sparse_factorization.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "linalg/sparse.hpp"
#include "mna/ac_analysis.hpp"
#include "mna/stamp_update.hpp"
#include "mna/sweep_solver.hpp"
#include "mna/system.hpp"
#include "obs/metrics.hpp"
#include "service/diagnosis_service.hpp"
#include "service/dictionary_store.hpp"
#include "session.hpp"
#include "util/rng.hpp"

using namespace ftdiag;

namespace {

void BM_DenseComplexLu(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  linalg::ComplexMatrix a(n, n);
  std::vector<linalg::Complex> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = {rng.uniform(), rng.uniform()};
    for (std::size_t j = 0; j < n; ++j) a(i, j) = {rng.uniform(), rng.uniform()};
    a(i, i) += 4.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::solve_dense(a, b));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_DenseComplexLu)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Complexity(benchmark::oNCubed);

void BM_SparseComplexLu(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  linalg::CooMatrix<linalg::Complex> coo(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    coo.add(i, i, {4.0 + rng.uniform(), rng.uniform()});
    if (i + 1 < n) {
      coo.add(i, i + 1, {rng.uniform(), 0.0});
      coo.add(i + 1, i, {rng.uniform(), 0.0});
    }
  }
  std::vector<linalg::Complex> b(n, {1.0, 0.0});
  for (auto _ : state) {
    const linalg::SparseFactorization<linalg::Complex> lu(coo);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_SparseComplexLu)->Arg(32)->Arg(128)->Arg(512)->Arg(1024);

void BM_AcSolveBiquad(benchmark::State& state) {
  const auto cut = circuits::make_paper_cut();
  const mna::AcAnalysis analysis(cut.circuit);
  double f = 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis.solve(f));
    f = f < 50e3 ? f * 1.1 : 100.0;
  }
}
BENCHMARK(BM_AcSolveBiquad);

void BM_AcSolveLadder(benchmark::State& state) {
  circuits::RcLadderDesign design;
  design.sections = static_cast<std::size_t>(state.range(0));
  const auto cut = circuits::make_rc_ladder(design);
  const mna::AcAnalysis analysis(cut.circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis.solve(1000.0));
  }
}
BENCHMARK(BM_AcSolveLadder)->Arg(10)->Arg(50)->Arg(149)->Arg(200)->Arg(400);

/// Synthetic frequency-block inputs for the Sherman–Morrison sweep
/// kernels: moderate magnitudes so no lane refuses and both variants do
/// the full arithmetic every iteration.
struct ShermanInputs {
  explicit ShermanInputs(std::size_t count)
      : scale_re(count), scale_im(count), vx0_re(count), vx0_im(count),
        vw_re(count), vw_im(count), x0_re(count), x0_im(count), w_re(count),
        w_im(count), out_re(count), out_im(count), refused(count) {
    Rng rng(3);
    for (std::size_t i = 0; i < count; ++i) {
      scale_re[i] = rng.uniform(-2.0, 2.0);
      scale_im[i] = rng.uniform(-2.0, 2.0);
      vx0_re[i] = rng.uniform(-1.0, 1.0);
      vx0_im[i] = rng.uniform(-1.0, 1.0);
      vw_re[i] = rng.uniform(-0.4, 0.4);
      vw_im[i] = rng.uniform(-0.4, 0.4);
      x0_re[i] = rng.uniform(-1.0, 1.0);
      x0_im[i] = rng.uniform(-1.0, 1.0);
      w_re[i] = rng.uniform(-1.0, 1.0);
      w_im[i] = rng.uniform(-1.0, 1.0);
    }
  }
  linalg::simd::AlignedVector scale_re, scale_im, vx0_re, vx0_im, vw_re,
      vw_im, x0_re, x0_im, w_re, w_im, out_re, out_im;
  std::vector<unsigned char> refused;
};

void BM_ShermanSweepScalar(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  ShermanInputs in(count);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::sherman_morrison_sweep(
        count, in.scale_re.data(), in.scale_im.data(), in.vx0_re.data(),
        in.vx0_im.data(), in.vw_re.data(), in.vw_im.data(), in.x0_re.data(),
        in.x0_im.data(), in.w_re.data(), in.w_im.data(),
        linalg::kRank1MaxGrowth, in.out_re.data(), in.out_im.data(),
        in.refused.data()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ShermanSweepScalar)->Arg(64)->Arg(4096);

void BM_ShermanSweepSimd(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  ShermanInputs in(count);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::sherman_morrison_sweep_simd<>(
        count, in.scale_re.data(), in.scale_im.data(), in.vx0_re.data(),
        in.vx0_im.data(), in.vw_re.data(), in.vw_im.data(), in.x0_re.data(),
        in.x0_im.data(), in.w_re.data(), in.w_im.data(),
        linalg::kRank1MaxGrowth, in.out_re.data(), in.out_im.data(),
        in.refused.data()));
    benchmark::ClobberMemory();
  }
  state.counters["width"] =
      static_cast<double>(linalg::simd::DefaultPack::width);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ShermanSweepSimd)->Arg(64)->Arg(4096);

void BM_DictionaryBuild(benchmark::State& state) {
  const auto cut = circuits::make_paper_cut();
  const auto universe = faults::FaultUniverse::over_testable(cut);
  const std::size_t grid_points = static_cast<std::size_t>(state.range(0));
  auto grid = mna::FrequencyGrid::log_sweep(10.0, 100e3, grid_points);
  const auto freqs = grid.frequencies();
  faults::SimOptions serial;
  serial.threads = 1;
  serial.reuse_factorization = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        faults::FaultDictionary::build(cut, universe, freqs, serial));
  }
  state.counters["faults"] = static_cast<double>(universe.fault_count());
}
BENCHMARK(BM_DictionaryBuild)->Arg(60)->Arg(240)->Arg(960)
    ->Unit(benchmark::kMillisecond);

void BM_DictionaryBuildEngine(benchmark::State& state) {
  const auto cut = circuits::make_paper_cut();
  const auto universe = faults::FaultUniverse::over_testable(cut);
  const std::size_t grid_points = static_cast<std::size_t>(state.range(0));
  auto grid = mna::FrequencyGrid::log_sweep(10.0, 100e3, grid_points);
  const auto freqs = grid.frequencies();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        faults::FaultDictionary::build(cut, universe, freqs,
                                       faults::SimOptions{}));
  }
  state.counters["faults"] = static_cast<double>(universe.fault_count());
}
BENCHMARK(BM_DictionaryBuildEngine)->Arg(60)->Arg(240)->Arg(960)
    ->Unit(benchmark::kMillisecond);

class TrajectoryFixture : public benchmark::Fixture {
public:
  void SetUp(const benchmark::State&) override {
    if (dict) return;
    cut = std::make_unique<circuits::CircuitUnderTest>(
        circuits::make_paper_cut());
    dict = std::make_unique<faults::FaultDictionary>(
        faults::FaultDictionary::build(
            *cut, faults::FaultUniverse::over_testable(*cut)));
    evaluator = std::make_unique<core::TestVectorEvaluator>(*dict);
  }
  static std::unique_ptr<circuits::CircuitUnderTest> cut;
  static std::unique_ptr<faults::FaultDictionary> dict;
  static std::unique_ptr<core::TestVectorEvaluator> evaluator;
};
std::unique_ptr<circuits::CircuitUnderTest> TrajectoryFixture::cut;
std::unique_ptr<faults::FaultDictionary> TrajectoryFixture::dict;
std::unique_ptr<core::TestVectorEvaluator> TrajectoryFixture::evaluator;

BENCHMARK_F(TrajectoryFixture, BuildTrajectories)(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->trajectories({{700.0, 1600.0}}));
  }
}

BENCHMARK_F(TrajectoryFixture, FitnessEvaluation)(benchmark::State& state) {
  // This is the GA's inner loop: one objective call.
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->fitness({{700.0, 1600.0}}));
  }
}

BENCHMARK_F(TrajectoryFixture, IntersectionCount)(benchmark::State& state) {
  const auto trajectories = evaluator->trajectories({{700.0, 1600.0}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::count_intersections(trajectories));
  }
}

BENCHMARK_F(TrajectoryFixture, Diagnosis)(benchmark::State& state) {
  const auto engine = evaluator->make_engine({{700.0, 1600.0}});
  const core::Point observed = {0.0123, -0.0456};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.diagnose(observed));
  }
}

/// CSV-vs-binary dictionary deserialization on the paper CUT (both parse
/// in-memory images, so the comparison is format cost, not disk cache).
class DictionaryLoadFixture : public benchmark::Fixture {
public:
  void SetUp(const benchmark::State&) override {
    if (!csv_text.empty()) return;
    const auto cut = circuits::make_paper_cut();
    const auto dict = faults::FaultDictionary::build(
        cut, faults::FaultUniverse::over_testable(cut));
    std::ostringstream csv_os;
    io::save_dictionary(csv_os, dict);
    csv_text = csv_os.str();
    std::ostringstream fdx_os;
    io::save_dictionary_binary(fdx_os, dict);
    fdx_bytes = fdx_os.str();
  }
  static std::string csv_text;
  static std::string fdx_bytes;
};
std::string DictionaryLoadFixture::csv_text;
std::string DictionaryLoadFixture::fdx_bytes;

BENCHMARK_F(DictionaryLoadFixture, BM_DictionaryLoadCsv)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::load_dictionary(csv_text));
  }
  state.counters["bytes"] = static_cast<double>(csv_text.size());
}

BENCHMARK_F(DictionaryLoadFixture, BM_DictionaryLoadBinary)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::load_dictionary_binary(fdx_bytes));
  }
  state.counters["bytes"] = static_cast<double>(fdx_bytes.size());
}

BENCHMARK_F(DictionaryLoadFixture, BM_DictionaryMmapAttach)
(benchmark::State& state) {
  // Zero-copy attach: map + validate the whole image (checksums included)
  // without decoding a single double.  Compare against
  // BM_DictionaryLoadBinary, which allocates and decodes everything.
  const std::string path = "/tmp/ftdiag_bench_attach.fdx";
  std::ofstream(path, std::ios::binary) << fdx_bytes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::DictionaryView::map(path));
  }
  state.counters["bytes"] = static_cast<double>(fdx_bytes.size());
  std::remove(path.c_str());
}

/// End-to-end diagnoses/sec over a loopback TCP connection: the wire
/// protocol, per-connection reader/writer threads and the service's
/// micro-batching, all under the state.range(0) pipelined clients.
void BM_NetThroughput(benchmark::State& state) {
  if (!net::sockets_supported()) {
    state.SkipWithError("no socket support in this build");
    return;
  }
  static Session* session = nullptr;
  if (session == nullptr) {
    session = new Session(
        SessionBuilder(circuits::make_paper_cut()).build());
    session->use_vector(core::TestVector{{700.0, 1600.0}});
  }
  Rng rng(11);
  std::vector<core::Point> points;
  for (std::size_t i = 0; i < 256; ++i) {
    points.push_back(
        core::Point{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)});
  }

  service::DiagnosisService service;
  service.add_session("paper", *session);
  net::Server server(service);

  const std::size_t n_clients = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kWindow = 8;
  std::size_t served = 0;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < n_clients; ++c) {
      clients.emplace_back([&, c] {
        net::Client client("127.0.0.1", server.port());
        std::vector<service::DiagnosisRequest> requests;
        for (std::size_t i = c; i < points.size(); i += n_clients) {
          service::DiagnosisRequest request;
          request.circuit = "paper";
          request.points.push_back(points[i]);
          requests.push_back(std::move(request));
        }
        benchmark::DoNotOptimize(
            client.diagnose_pipelined(requests, kWindow));
      });
    }
    for (auto& client : clients) client.join();
    served += points.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(served));
}
BENCHMARK(BM_NetThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Requests/sec through the DiagnosisService vs dispatcher threads: four
/// producers submit single-point requests as fast as the bounded queue
/// accepts them.  The service is built once, outside the timed loop, so
/// the worker count changes serving cost only, not thread start-up.
void BM_ServiceThroughput(benchmark::State& state) {
  static Session* session = nullptr;
  if (session == nullptr) {
    session = new Session(
        SessionBuilder(circuits::make_paper_cut()).build());
    session->use_vector(core::TestVector{{700.0, 1600.0}});
  }
  Rng rng(11);
  std::vector<core::Point> points;
  for (std::size_t i = 0; i < 512; ++i) {
    points.push_back(
        core::Point{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)});
  }

  ServiceOptions options;
  options.workers = static_cast<std::size_t>(state.range(0));
  options.max_batch = 32;
  service::DiagnosisService service(options);
  service.add_session("paper", *session);
  std::size_t served = 0;
  for (auto _ : state) {
    constexpr std::size_t kProducers = 4;
    std::vector<std::future<service::DiagnosisReply>> futures(points.size());
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = p; i < points.size(); i += kProducers) {
          service::DiagnosisRequest request;
          request.circuit = "paper";
          request.points.push_back(points[i]);
          futures[i] = service.submit(std::move(request));
        }
      });
    }
    for (auto& producer : producers) producer.join();
    for (auto& future : futures) benchmark::DoNotOptimize(future.get());
    served += points.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(served));
}
BENCHMARK(BM_ServiceThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FullPaperGa(benchmark::State& state) {
  const Session session = SessionBuilder(circuits::make_paper_cut()).build();
  (void)session.dictionary();  // build outside the timed loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_search());
  }
}
BENCHMARK(BM_FullPaperGa)->Unit(benchmark::kMillisecond);

/// The seed repository's count_intersections, verbatim: per-call segment
/// extraction, all-pairs sweep, per-conflict records.  Kept here so
/// BM_SearchSerial measures the genuine pre-batch-pipeline cost rather
/// than today's (already faster) exact sweep.
core::IntersectionReport legacy_count_intersections(
    const std::vector<core::FaultTrajectory>& trajectories,
    const core::IntersectionOptions& options = {}) {
  using namespace ftdiag::core;
  IntersectionReport report;
  if (trajectories.size() < 2) return report;

  const std::size_t dim = trajectories.front().dimension();
  double scale = 0.0;
  for (const auto& t : trajectories) scale = std::max(scale, t.max_excursion());
  if (scale <= 0.0) scale = 1.0;
  const double origin_ball = options.origin_exclusion * scale;
  const Point origin(dim, 0.0);

  std::vector<std::vector<Segment>> segs;
  segs.reserve(trajectories.size());
  for (const auto& t : trajectories) segs.push_back(t.segments());

  for (std::size_t i = 0; i < trajectories.size(); ++i) {
    for (std::size_t j = i + 1; j < trajectories.size(); ++j) {
      for (std::size_t si = 0; si < segs[i].size(); ++si) {
        for (std::size_t sj = 0; sj < segs[j].size(); ++sj) {
          const Segment& a = segs[i][si];
          const Segment& b = segs[j][sj];
          if (dim == 2) {
            const Intersection2d hit = intersect_segments_2d(a, b);
            if (hit.relation == SegmentRelation::kDisjoint) continue;
            if (hit.relation == SegmentRelation::kCollinearOverlap &&
                !options.count_overlaps) {
              continue;
            }
            if (distance(hit.at, origin) <= origin_ball) continue;
            report.conflicts.push_back({trajectories[i].site(),
                                        trajectories[j].site(), si, sj,
                                        hit.at, 0.0});
          } else {
            const double d = segment_segment_distance(a, b);
            if (d > options.near_threshold * scale) continue;
            const double a_to_origin = project_point(origin, a).distance;
            const double b_to_origin = project_point(origin, b).distance;
            if (a_to_origin <= origin_ball && b_to_origin <= origin_ball) {
              continue;
            }
            Point mid(dim, 0.0);
            for (std::size_t k = 0; k < dim; ++k) {
              mid[k] = 0.25 * (a.a[k] + a.b[k] + b.a[k] + b.b[k]);
            }
            report.conflicts.push_back({trajectories[i].site(),
                                        trajectories[j].site(), si, sj,
                                        std::move(mid), d});
          }
        }
      }
    }
  }
  report.count = report.conflicts.size();
  return report;
}

/// The pre-batch search path: one genome at a time, uncached trajectory
/// building, the seed's all-pairs intersection sweep, one thread.
class SerialObjective final : public ga::BatchObjective {
public:
  explicit SerialObjective(const faults::FaultDictionary& dictionary)
      : dictionary_(dictionary) {}

  [[nodiscard]] std::vector<double> evaluate(
      const std::vector<std::vector<double>>& genomes) const override {
    std::vector<double> scores;
    scores.reserve(genomes.size());
    for (const auto& genes : genomes) {
      const auto trajectories = core::build_trajectories(
          dictionary_, Session::to_test_vector(genes).frequencies_hz, {});
      const auto report = legacy_count_intersections(trajectories);
      scores.push_back(1.0 / (1.0 + static_cast<double>(report.count)));
    }
    return scores;
  }

private:
  const faults::FaultDictionary& dictionary_;
};

ga::GaConfig bench_ga_config() {
  ga::GaConfig config;
  config.population_size = 24;
  config.generations = 4;
  return config;
}

BENCHMARK_DEFINE_F(TrajectoryFixture, BM_SearchSerial)
(benchmark::State& state) {
  const SerialObjective objective(*dict);
  const ga::GeneticAlgorithm ga(bench_ga_config());
  for (auto _ : state) {
    Rng rng(42);
    benchmark::DoNotOptimize(ga.optimize(objective, 2, {1.0, 5.0}, rng));
  }
}
BENCHMARK_REGISTER_F(TrajectoryFixture, BM_SearchSerial)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(TrajectoryFixture, BM_SearchBatch)
(benchmark::State& state) {
  core::PipelineOptions options;
  options.threads = 8;
  const ga::GeneticAlgorithm ga(bench_ga_config());
  core::PipelineStats stats;
  for (auto _ : state) {
    // A fresh pipeline per iteration: cold caches, the honest end-to-end
    // cost of one search.
    const core::EvaluationPipeline pipeline(*evaluator, options);
    Rng rng(42);
    benchmark::DoNotOptimize(ga.optimize(pipeline, 2, {1.0, 5.0}, rng));
    stats = pipeline.stats();
  }
  state.counters["column_hits"] = static_cast<double>(stats.column_hits);
  state.counters["genome_hits"] = static_cast<double>(stats.genome_hits);
}
BENCHMARK_REGISTER_F(TrajectoryFixture, BM_SearchBatch)
    ->Unit(benchmark::kMillisecond);

/// One row of the dense-vs-sparse n-scaling sweep: a full engine
/// dictionary build with the solver backend forced each way, on an
/// n-section RC ladder or on the 30x30 RC mesh (sections = its 900 grid
/// nodes).  dense_ms < 0 means the dense leg was skipped.  analyze_ms is
/// the sparse build's one symbolic analysis (SweepSolver::analyze with
/// the engine's read set).
struct ScalingPoint {
  std::string circuit;
  std::size_t sections = 0;
  std::size_t unknowns = 0;
  std::size_t faults = 0;
  double dense_ms = -1.0;
  double sparse_ms = 0.0;
  double analyze_ms = 0.0;
};

/// The read set the engine orders last: the output, every testable
/// site's u and v support, and the excitation rows.
std::vector<std::size_t> engine_read_set(const circuits::CircuitUnderTest& cut,
                                         const mna::MnaSystem& system,
                                         const mna::SweepAssembler& assembler) {
  std::vector<std::size_t> read_set{system.node_unknown(cut.output_node)};
  for (const auto& name : cut.testable) {
    if (const auto update = mna::rank1_stamp_update(system, name)) {
      for (const auto* vec : {&update->u, &update->v}) {
        for (const auto& entry : vec->entries) read_set.push_back(entry.first);
      }
    }
  }
  for (std::size_t i = 0; i < assembler.size(); ++i) {
    if (assembler.rhs()[i] != linalg::Complex{}) read_set.push_back(i);
  }
  return read_set;
}

/// Best-of-\p reps wall time of SweepSolver::analyze on \p cut's sparse
/// backend with the engine's read set.
double analyze_ms(const circuits::CircuitUnderTest& cut, int reps) {
  using Clock = std::chrono::steady_clock;
  const mna::MnaSystem system(cut.circuit);
  const mna::SweepAssembler assembler = system.prepare_sweep();
  const std::vector<std::size_t> read_set =
      engine_read_set(cut, system, assembler);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    benchmark::DoNotOptimize(mna::SweepSolver::analyze(
        assembler, mna::SolverBackend::kSparse, read_set));
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

/// Dictionary-build wall time vs circuit size: ladders of n in {10, 100,
/// 1000, 5000} sections, then the 30x30 mesh, whose elimination fills.
/// The testable stride scales with n so the fault universe stays bounded
/// and the measurement isolates the per-frequency solve cost; the dense
/// leg stops at 1000 ladder sections (an O(n^3) factor per frequency is
/// already minutes at 5000) and skips the mesh.
std::vector<ScalingPoint> run_scaling_sweep(std::size_t grid_points) {
  using Clock = std::chrono::steady_clock;
  std::vector<ScalingPoint> rows;
  struct Case {
    std::string circuit;
    std::size_t sections;
    circuits::CircuitUnderTest cut;
  };
  std::vector<Case> cases;
  for (const std::size_t sections :
       {std::size_t{10}, std::size_t{100}, std::size_t{1000},
        std::size_t{5000}}) {
    circuits::RcLadderDesign design;
    design.sections = sections;
    design.testable_stride = std::max<std::size_t>(1, sections / 4);
    cases.push_back({"ladder", sections, circuits::make_rc_ladder(design)});
  }
  circuits::RcMeshDesign mesh;
  mesh.rows = 30;
  mesh.cols = 30;
  mesh.testable_stride = 112;
  cases.push_back(
      {"mesh", mesh.rows * mesh.cols, circuits::make_rc_mesh(mesh)});
  for (const auto& [circuit, sections, cut] : cases) {
    const bool ladder = circuit == "ladder";
    const auto universe = faults::FaultUniverse::over_testable(cut);
    const auto faults_list = universe.enumerate();
    const auto freqs =
        mna::FrequencyGrid::log_sweep(cut.band_low_hz, cut.band_high_hz,
                                      grid_points)
            .frequencies();

    ScalingPoint row;
    row.circuit = circuit;
    row.sections = sections;
    row.unknowns = mna::MnaSystem(cut.circuit).unknown_count();
    row.faults = universe.fault_count();

    auto build_ms = [&](mna::SolverBackend backend, int reps) {
      faults::SimOptions sim;
      sim.backend = backend;
      double best = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        const auto start = Clock::now();
        const faults::SimulationEngine engine(cut, sim);
        benchmark::DoNotOptimize(engine.simulate_all(faults_list, freqs));
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
        if (rep == 0 || ms < best) best = ms;
      }
      return best;
    };

    const int reps = sections >= 900 ? 1 : 3;
    row.sparse_ms = build_ms(mna::SolverBackend::kSparse, reps);
    row.analyze_ms = analyze_ms(cut, 5);
    if (ladder && sections <= 1000) {
      row.dense_ms = build_ms(mna::SolverBackend::kDense, reps);
    }
    std::printf(
        "scaling %s n=%zu (%zu unknowns, %zu faults): sparse %.3f ms "
        "(analyze %.3f ms)",
        row.circuit.c_str(), sections, row.unknowns, row.faults,
        row.sparse_ms, row.analyze_ms);
    if (row.dense_ms >= 0.0) {
      std::printf(", dense %.3f ms (%.2fx)", row.dense_ms,
                  row.dense_ms / row.sparse_ms);
    }
    std::printf("\n");
    rows.push_back(row);
  }
  return rows;
}

/// The 5000-section ladder and the 30x30 mesh, as build_sparse and the
/// scaling sweep build them.
std::vector<std::pair<std::string, circuits::CircuitUnderTest>>
sparse_workload_circuits() {
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

/// One full-grid sparse build: best-of-3 engine dictionary build of a
/// sparse workload circuit on its own dictionary grid, where the
/// per-frequency phase, not the analysis, is most of the time.
struct SparseBuildRow {
  std::string circuit;
  std::size_t unknowns = 0;
  std::size_t faults = 0;
  std::size_t grid_points = 0;
  double sparse_ms = 0.0;
};

std::vector<SparseBuildRow> run_sparse_builds() {
  using Clock = std::chrono::steady_clock;
  std::vector<SparseBuildRow> rows;
  for (const auto& [circuit, cut] : sparse_workload_circuits()) {
    const auto faults_list =
        faults::FaultUniverse::over_testable(cut).enumerate();
    const auto freqs = cut.dictionary_grid.frequencies();
    SparseBuildRow row{circuit, mna::MnaSystem(cut.circuit).unknown_count(),
                       faults_list.size(), freqs.size(), 0.0};
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = Clock::now();
      benchmark::DoNotOptimize(faults::SimulationEngine::simulate(
          cut, faults::SimOptions{}, faults_list, freqs));
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      if (rep == 0 || ms < row.sparse_ms) row.sparse_ms = ms;
    }
    std::printf("sparse build %s (%zu unknowns, %zu faults, %zu points): "
                "%.3f ms\n",
                row.circuit.c_str(), row.unknowns, row.faults,
                row.grid_points, row.sparse_ms);
    rows.push_back(row);
  }
  return rows;
}

/// Scalar-vs-batch wall time of the sparse numeric phase on the 30x30
/// mesh: its 240 dictionary frequencies loaded, refactored and solved for
/// the golden read set, by the ScalarPack twin one frequency at a time
/// and by the 4-wide batch (best of 5 each).  ~1 in a build without
/// SIMD, where both run at width 1.
double sparse_batch_speedup() {
  using Clock = std::chrono::steady_clock;
  const circuits::CircuitUnderTest cut = sparse_workload_circuits()[1].second;
  const mna::MnaSystem system(cut.circuit);
  const mna::SweepAssembler assembler = system.prepare_sweep();
  const auto context = mna::SweepSolver::analyze(
      assembler, mna::SolverBackend::kSparse,
      engine_read_set(cut, system, assembler));
  std::vector<std::pair<std::size_t, linalg::Complex>> rhs;
  for (std::size_t i = 0; i < assembler.size(); ++i) {
    if (assembler.rhs()[i] != linalg::Complex{}) {
      rhs.emplace_back(i, assembler.rhs()[i]);
    }
  }
  std::vector<linalg::Complex> s;
  for (const double f : cut.dictionary_grid.frequencies()) {
    s.push_back(linalg::s_of_hz(f));
  }
  auto best_ms = [&](auto batch) {
    using Batch = decltype(batch);
    constexpr std::size_t kW = Batch::kWidth;
    std::vector<double> x(assembler.size() * Batch::kStride);
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = Clock::now();
      for (std::size_t at = 0; at + kW <= s.size(); at += kW) {
        batch.factor(std::span<const linalg::Complex>(s).subspan(at, kW));
        batch.solve_read_set(rhs, x.data());
        benchmark::DoNotOptimize(x.data());
      }
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      if (rep == 0 || ms < best) best = ms;
    }
    return best;
  };
#if FTDIAG_SIMD_NATIVE
  using BatchPack = linalg::simd::Pack4;
#else
  using BatchPack = linalg::simd::ScalarPack;
#endif
  const double scalar_ms = best_ms(
      mna::SparseBatchSolver<linalg::simd::ScalarPack>(assembler, context));
  const double batch_ms =
      best_ms(mna::SparseBatchSolver<BatchPack>(assembler, context));
  std::printf("sparse numeric phase (mesh, %zu points): scalar %.3f ms, "
              "batch of %zu %.3f ms (%.2fx)\n",
              s.size(), scalar_ms, BatchPack::width, batch_ms,
              scalar_ms / batch_ms);
  return scalar_ms / batch_ms;
}

/// Scalar-vs-SIMD wall time of the Sherman–Morrison sweep kernel on one
/// synthetic frequency block (best of several reps, many passes per rep
/// so the measurement is well above timer resolution).  The returned
/// ratio scalar/simd is ~1 in a forced-scalar build (DefaultPack width 1)
/// and > 1 whenever the vector kernel pays for itself.
double sherman_kernel_speedup() {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kCount = 4096;
  constexpr int kPasses = 2000;
  ShermanInputs in(kCount);
  auto best_of = [&](auto&& kernel) {
    double best_ms = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = Clock::now();
      for (int pass = 0; pass < kPasses; ++pass) {
        benchmark::DoNotOptimize(kernel());
        benchmark::ClobberMemory();
      }
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    return best_ms;
  };
  const double scalar_ms = best_of([&] {
    return linalg::sherman_morrison_sweep(
        kCount, in.scale_re.data(), in.scale_im.data(), in.vx0_re.data(),
        in.vx0_im.data(), in.vw_re.data(), in.vw_im.data(), in.x0_re.data(),
        in.x0_im.data(), in.w_re.data(), in.w_im.data(),
        linalg::kRank1MaxGrowth, in.out_re.data(), in.out_im.data(),
        in.refused.data());
  });
  const double simd_ms = best_of([&] {
    return linalg::sherman_morrison_sweep_simd<>(
        kCount, in.scale_re.data(), in.scale_im.data(), in.vx0_re.data(),
        in.vx0_im.data(), in.vw_re.data(), in.vw_im.data(), in.x0_re.data(),
        in.x0_im.data(), in.w_re.data(), in.w_im.data(),
        linalg::kRank1MaxGrowth, in.out_re.data(), in.out_im.data(),
        in.refused.data());
  });
  return scalar_ms / simd_ms;
}

/// Serial-vs-engine dictionary build comparison on the largest registry
/// circuit (by MNA unknown count), plus the dense-vs-sparse n-scaling
/// sweep, the full-grid sparse builds of the ladder and the mesh, and the
/// scalar-vs-SIMD ratios of the Sherman–Morrison kernel and the sparse
/// numeric phase, written to BENCH_engine.json.
void write_engine_report(const char* path) {
  using Clock = std::chrono::steady_clock;

  std::string largest_name;
  std::size_t largest_unknowns = 0;
  for (const auto& name : circuits::registry_names()) {
    const auto cut = circuits::make_by_name(name);
    const std::size_t unknowns = mna::MnaSystem(cut.circuit).unknown_count();
    if (unknowns > largest_unknowns) {
      largest_unknowns = unknowns;
      largest_name = name;
    }
  }
  const auto cut = circuits::make_by_name(largest_name);
  const auto universe = faults::FaultUniverse::over_testable(cut);
  const auto faults = universe.enumerate();
  const auto freqs = cut.dictionary_grid.frequencies();

  faults::EngineStats stats;
  auto best_of = [&](const faults::SimOptions& sim) {
    const faults::SimulationEngine engine(cut, sim);
    double best_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = Clock::now();
      const auto batch = engine.simulate_all(faults, freqs);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
      stats = batch.stats;
    }
    return best_ms;
  };

  faults::SimOptions serial;
  serial.threads = 1;
  serial.reuse_factorization = false;
  const double serial_ms = best_of(serial);
  const faults::SimOptions engine_options;
  const double engine_ms = best_of(engine_options);  // stats = engine run's

  const double kernel_speedup = sherman_kernel_speedup();
  const double batch_speedup = sparse_batch_speedup();

  constexpr std::size_t kScalingGridPoints = 8;
  const auto scaling = run_scaling_sweep(kScalingGridPoints);
  const auto sparse_builds = run_sparse_builds();

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"dictionary_build_serial_vs_engine\",\n"
               "  \"circuit\": \"%s\",\n"
               "  \"unknowns\": %zu,\n"
               "  \"faults\": %zu,\n"
               "  \"grid_points\": %zu,\n"
               "  \"threads\": %zu,\n"
               "  \"serial_ms\": %.3f,\n"
               "  \"engine_ms\": %.3f,\n"
               "  \"speedup\": %.2f,\n"
               "  \"rank1_solves\": %zu,\n"
               "  \"full_solves\": %zu,\n"
               "  \"simd_width\": %zu,\n"
               "  \"simd_kernel_speedup\": %.2f,\n"
               "  \"sparse_batch_speedup\": %.2f,\n"
               "  \"scaling_grid_points\": %zu,\n"
               "  \"scaling\": [\n",
               largest_name.c_str(), largest_unknowns,
               universe.fault_count(), freqs.size(),
               engine_options.resolved_threads(), serial_ms, engine_ms,
               serial_ms / engine_ms, stats.rank1_solves, stats.full_solves,
               linalg::simd::DefaultPack::width, kernel_speedup,
               batch_speedup, kScalingGridPoints);
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const auto& row = scaling[i];
    std::fprintf(out,
                 "    {\"circuit\": \"%s\", \"sections\": %zu, "
                 "\"unknowns\": %zu, \"faults\": %zu, "
                 "\"analyze_ms\": %.3f, ",
                 row.circuit.c_str(), row.sections, row.unknowns, row.faults,
                 row.analyze_ms);
    if (row.dense_ms >= 0.0) {
      std::fprintf(out,
                   "\"dense_ms\": %.3f, \"sparse_ms\": %.3f, "
                   "\"sparse_speedup\": %.2f}",
                   row.dense_ms, row.sparse_ms, row.dense_ms / row.sparse_ms);
    } else {
      std::fprintf(out,
                   "\"dense_ms\": null, \"sparse_ms\": %.3f, "
                   "\"sparse_speedup\": null}",
                   row.sparse_ms);
    }
    std::fprintf(out, "%s\n", i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"sparse_builds\": [\n");
  for (std::size_t i = 0; i < sparse_builds.size(); ++i) {
    const auto& row = sparse_builds[i];
    std::fprintf(out,
                 "    {\"circuit\": \"%s\", \"unknowns\": %zu, "
                 "\"faults\": %zu, \"grid_points\": %zu, "
                 "\"sparse_ms\": %.3f}%s\n",
                 row.circuit.c_str(), row.unknowns, row.faults,
                 row.grid_points, row.sparse_ms,
                 i + 1 < sparse_builds.size() ? "," : "");
  }
  std::fprintf(out,
               "  ]\n"
               "}\n");
  std::fclose(out);
  std::printf("engine dictionary build (%s): serial %.3f ms, engine %.3f ms "
              "(%.2fx); sherman kernel width %zu, simd %.2fx -> %s\n",
              largest_name.c_str(), serial_ms, engine_ms,
              serial_ms / engine_ms, linalg::simd::DefaultPack::width,
              kernel_speedup, path);
}

/// Serial-vs-batch GA search comparison on the largest registry circuit
/// (by MNA unknown count), written to BENCH_search.json.  The serial leg
/// is the pre-batch pipeline (scalar objective, uncached sampling, exact
/// all-pairs sweep, one thread); the batch leg runs the evaluation
/// pipeline at 8 threads with the signature cache and pruned counting.
void write_search_report(const char* path) {
  using Clock = std::chrono::steady_clock;

  std::string largest_name;
  std::size_t largest_unknowns = 0;
  for (const auto& name : circuits::registry_names()) {
    const auto cut = circuits::make_by_name(name);
    const std::size_t unknowns = mna::MnaSystem(cut.circuit).unknown_count();
    if (unknowns > largest_unknowns) {
      largest_unknowns = unknowns;
      largest_name = name;
    }
  }
  const auto cut = circuits::make_by_name(largest_name);
  const auto dictionary = faults::FaultDictionary::build(
      cut, faults::FaultUniverse::over_testable(cut));
  const ga::GeneBounds bounds{std::log10(cut.band_low_hz),
                              std::log10(cut.band_high_hz)};
  const ga::GeneticAlgorithm ga(ga::GaConfig::paper());
  constexpr std::size_t kThreads = 8;

  auto best_of = [&](auto&& run) {
    double best_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = Clock::now();
      run();
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    return best_ms;
  };

  std::size_t evaluations = 0;
  const SerialObjective objective(dictionary);
  const double serial_ms = best_of([&] {
    Rng rng(42);
    evaluations = ga.optimize(objective, 2, bounds, rng).evaluations;
  });

  const core::TestVectorEvaluator evaluator(dictionary);
  core::PipelineOptions options;
  options.threads = kThreads;
  core::PipelineStats stats;
  const double batch_ms = best_of([&] {
    const core::EvaluationPipeline pipeline(evaluator, options);
    Rng rng(42);
    (void)ga.optimize(pipeline, 2, bounds, rng);
    stats = pipeline.stats();
  });

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"ga_search_serial_vs_batch\",\n"
               "  \"circuit\": \"%s\",\n"
               "  \"unknowns\": %zu,\n"
               "  \"faults\": %zu,\n"
               "  \"population\": %zu,\n"
               "  \"generations\": %zu,\n"
               "  \"evaluations\": %zu,\n"
               "  \"threads\": %zu,\n"
               "  \"serial_ms\": %.3f,\n"
               "  \"batch_ms\": %.3f,\n"
               "  \"speedup\": %.2f,\n"
               "  \"column_hits\": %zu,\n"
               "  \"column_misses\": %zu,\n"
               "  \"genome_hits\": %zu\n"
               "}\n",
               largest_name.c_str(), largest_unknowns,
               dictionary.fault_count(), ga.config().population_size,
               ga.config().generations, evaluations, kThreads, serial_ms,
               batch_ms, serial_ms / batch_ms, stats.column_hits,
               stats.column_misses, stats.genome_hits);
  std::fclose(out);
  std::printf("ga search (%s): serial %.3f ms, batch %.3f ms (%.2fx) -> %s\n",
              largest_name.c_str(), serial_ms, batch_ms,
              serial_ms / batch_ms, path);
}

bool dictionaries_identical(const faults::FaultDictionary& a,
                            const faults::FaultDictionary& b) {
  if (a.fault_count() != b.fault_count() ||
      a.frequencies() != b.frequencies() ||
      a.golden().values() != b.golden().values()) {
    return false;
  }
  for (std::size_t i = 0; i < a.fault_count(); ++i) {
    if (!(a.entries()[i].fault == b.entries()[i].fault) ||
        a.entries()[i].response.values() != b.entries()[i].response.values()) {
      return false;
    }
  }
  return true;
}

/// Serving-layer report on the largest registry circuit: CSV vs binary
/// dictionary load, binary round-trip bit-identity, and service
/// throughput vs dispatcher threads.  Written to BENCH_service.json.
void write_service_report(const char* path) {
  using Clock = std::chrono::steady_clock;

  const auto cut = circuits::make_by_name("state_variable");
  const auto universe = faults::FaultUniverse::over_testable(cut);
  const auto dictionary = faults::FaultDictionary::build(cut, universe);

  std::ostringstream csv_os;
  io::save_dictionary(csv_os, dictionary);
  const std::string csv_text = csv_os.str();
  std::ostringstream fdx_os;
  io::save_dictionary_binary(fdx_os, dictionary);
  const std::string fdx_bytes = fdx_os.str();

  const bool round_trip_ok =
      dictionaries_identical(dictionary,
                             io::load_dictionary_binary(fdx_bytes)) &&
      dictionaries_identical(dictionary, io::load_dictionary(csv_text));

  auto best_of = [](auto&& run) {
    double best_ms = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = Clock::now();
      run();
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    return best_ms;
  };
  const double csv_ms =
      best_of([&] { benchmark::DoNotOptimize(io::load_dictionary(csv_text)); });
  const double fdx_ms = best_of(
      [&] { benchmark::DoNotOptimize(io::load_dictionary_binary(fdx_bytes)); });

  // Zero-copy attach: map + validate (checksums included), no decode.
  const std::string mmap_path = "/tmp/ftdiag_bench_service.fdx";
  std::ofstream(mmap_path, std::ios::binary) << fdx_bytes;
  bool mmap_zero_copy = false;
  const double mmap_ms = best_of([&] {
    const auto view = io::DictionaryView::map(mmap_path);
    mmap_zero_copy = view.zero_copy();
    benchmark::DoNotOptimize(view.frequencies().data());
  });
  std::remove(mmap_path.c_str());

  // Throughput: four producers pushing single-point requests, measured at
  // 1 and 4 dispatcher threads.
  Session session = SessionBuilder(cut).build();
  session.use_vector(core::TestVector{{700.0, 1600.0}});
  Rng rng(11);
  std::vector<core::Point> points;
  for (std::size_t i = 0; i < 1024; ++i) {
    points.push_back(
        core::Point{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)});
  }
  auto requests_per_second = [&](std::size_t workers,
                                 service::ServiceStats* stats_out = nullptr) {
    ServiceOptions options;
    options.workers = workers;
    options.max_batch = 32;
    double best_rps = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      service::DiagnosisService service(options);
      service.add_session("state_variable", session);
      const auto start = Clock::now();
      constexpr std::size_t kProducers = 4;
      std::vector<std::future<service::DiagnosisReply>> futures(points.size());
      std::vector<std::thread> producers;
      for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          for (std::size_t i = p; i < points.size(); i += kProducers) {
            service::DiagnosisRequest request;
            request.circuit = "state_variable";
            request.points.push_back(points[i]);
            futures[i] = service.submit(std::move(request));
          }
        });
      }
      for (auto& producer : producers) producer.join();
      for (auto& future : futures) benchmark::DoNotOptimize(future.get());
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      best_rps = std::max(best_rps,
                          static_cast<double>(points.size()) / seconds);
      if (stats_out != nullptr) *stats_out = service.stats();
    }
    return best_rps;
  };
  // Workers sweep: the persistent pool must not make more dispatchers
  // slower than one (the fork/join regression this report used to show).
  const double rps_1 = requests_per_second(1);
  const double rps_2 = requests_per_second(2);
  service::ServiceStats service_stats;
  const double rps_4 = requests_per_second(4, &service_stats);

  // Observability overhead: only the timing layer (histograms, spans) is
  // gated by obs::enabled(), so toggling it isolates exactly the cost the
  // instrumentation adds to the hot paths — counters stay on either way.
  // Runs alternate on/off so slow machine phases hit both sides equally,
  // and each side is summarised by its *minimum* — the fastest run is the
  // one least disturbed by scheduling noise, so min(on)/min(off) is the
  // most noise-resistant estimate of the true cost ratio.  Sub-noise
  // differences clamp to zero.
  const bool obs_was_enabled = obs::enabled();
  auto alternated_overhead_pct = [&](auto&& run) {
    double min_on = std::numeric_limits<double>::infinity();
    double min_off = min_on;
    for (int rep = 0; rep < 31; ++rep) {
      obs::set_enabled(true);
      auto start = Clock::now();
      run();
      min_on = std::min(
          min_on,
          std::chrono::duration<double>(Clock::now() - start).count());
      obs::set_enabled(false);
      start = Clock::now();
      run();
      min_off = std::min(
          min_off,
          std::chrono::duration<double>(Clock::now() - start).count());
    }
    return std::max(0.0, (min_on / min_off - 1.0) * 100.0);
  };
  const double engine_obs_overhead_pct = alternated_overhead_pct([&] {
    for (int i = 0; i < 10; ++i) {
      benchmark::DoNotOptimize(
          faults::FaultDictionary::build(cut, universe, faults::SimOptions{}));
    }
  });
  ServiceOptions overhead_options;
  overhead_options.workers = 2;
  overhead_options.max_batch = 32;
  // The service lives outside the timed region: constructing one spawns
  // and joins worker threads, which on a small box costs far more (and
  // far less predictably) than the request path being measured.
  service::DiagnosisService overhead_service(overhead_options);
  overhead_service.add_session("state_variable", session);
  const double service_obs_overhead_pct = alternated_overhead_pct([&] {
    for (int pass = 0; pass < 10; ++pass) {
      std::vector<std::future<service::DiagnosisReply>> futures;
      futures.reserve(points.size());
      for (const auto& point : points) {
        service::DiagnosisRequest request;
        request.circuit = "state_variable";
        request.points.push_back(point);
        futures.push_back(overhead_service.submit(std::move(request)));
      }
      for (auto& future : futures) benchmark::DoNotOptimize(future.get());
    }
  });
  obs::set_enabled(obs_was_enabled);

  // Store hit-rate over a warm->cold->warm exercise: one build, one
  // memory hit, one disk hit from a second store over the same root.
  const std::string store_dir = "/tmp/ftdiag_bench_store";
  std::filesystem::remove_all(store_dir);
  double store_hit_rate = 0.0;
  {
    service::StoreOptions store_options;
    store_options.root_dir = store_dir;
    const faults::DeviationSpec spec;
    const faults::SimOptions sim;
    service::DictionaryStore first(store_options);
    benchmark::DoNotOptimize(first.get(cut, spec, sim));   // cold build
    benchmark::DoNotOptimize(first.get(cut, spec, sim));   // memory hit
    service::DictionaryStore second(store_options);
    benchmark::DoNotOptimize(second.get(cut, spec, sim));  // disk hit
    const auto s1 = first.stats();
    const auto s2 = second.stats();
    const double hits = static_cast<double>(s1.memory_hits + s2.memory_hits +
                                            s1.disk_hits + s2.disk_hits);
    store_hit_rate = hits / (hits + static_cast<double>(s1.builds + s2.builds));
  }
  std::filesystem::remove_all(store_dir);

  // Networked serving: loopback server, 4 pipelined clients, per-request
  // submit->reply latency percentiles over the wire.
  double net_rps = 0.0;
  double net_p50_us = 0.0;
  double net_p95_us = 0.0;
  double net_p99_us = 0.0;
  if (net::sockets_supported()) {
    service::DiagnosisService service;
    service.add_session("state_variable", session);
    net::Server server(service);
    constexpr std::size_t kClients = 4;
    constexpr std::size_t kWindow = 8;
    constexpr std::size_t kPerClient = 512;
    std::vector<std::vector<double>> latencies(kClients);
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        net::Client client("127.0.0.1", server.port());
        std::deque<Clock::time_point> sent_at;
        std::size_t sent = 0;
        std::size_t received = 0;
        while (received < kPerClient) {
          while (sent < kPerClient && sent - received < kWindow) {
            service::DiagnosisRequest request;
            request.circuit = "state_variable";
            request.points.push_back(points[(c + sent) % points.size()]);
            sent_at.push_back(Clock::now());
            (void)client.send(request);
            ++sent;
          }
          benchmark::DoNotOptimize(client.receive());
          latencies[c].push_back(
              std::chrono::duration<double, std::micro>(Clock::now() -
                                                        sent_at.front())
                  .count());
          sent_at.pop_front();
          ++received;
        }
      });
    }
    for (auto& client : clients) client.join();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::vector<double> all;
    for (auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    std::sort(all.begin(), all.end());
    auto percentile = [&](double fraction) {
      return all[static_cast<std::size_t>(fraction *
                                          static_cast<double>(all.size() - 1))];
    };
    net_rps = static_cast<double>(all.size()) / seconds;
    net_p50_us = percentile(0.50);
    net_p95_us = percentile(0.95);
    net_p99_us = percentile(0.99);
  }

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"dictionary_store_and_service\",\n"
               "  \"circuit\": \"state_variable\",\n"
               "  \"faults\": %zu,\n"
               "  \"grid_points\": %zu,\n"
               "  \"csv_bytes\": %zu,\n"
               "  \"binary_bytes\": %zu,\n"
               "  \"csv_load_ms\": %.3f,\n"
               "  \"binary_load_ms\": %.3f,\n"
               "  \"load_speedup\": %.2f,\n"
               "  \"mmap_load_ms\": %.3f,\n"
               "  \"mmap_zero_copy\": %s,\n"
               "  \"round_trip_bit_identical\": %s,\n"
               "  \"hardware_threads\": %zu,\n"
               "  \"service_rps_workers1\": %.0f,\n"
               "  \"service_rps_workers2\": %.0f,\n"
               "  \"service_rps_workers4\": %.0f,\n"
               "  \"queue_depth\": %zu,\n"
               "  \"mean_batch\": %.2f,\n"
               "  \"store_hit_rate\": %.3f,\n"
               "  \"service_obs_overhead_pct\": %.2f,\n"
               "  \"engine_obs_overhead_pct\": %.2f,\n"
               "  \"net_rps\": %.0f,\n"
               "  \"net_p50_us\": %.0f,\n"
               "  \"net_p95_us\": %.0f,\n"
               "  \"net_p99_us\": %.0f\n"
               "}\n",
               dictionary.fault_count(), dictionary.frequencies().size(),
               csv_text.size(), fdx_bytes.size(), csv_ms, fdx_ms,
               csv_ms / fdx_ms, mmap_ms, mmap_zero_copy ? "true" : "false",
               round_trip_ok ? "true" : "false",
               static_cast<std::size_t>(std::thread::hardware_concurrency()),
               rps_1, rps_2, rps_4, service_stats.queue_depth,
               service_stats.mean_batch, store_hit_rate,
               service_obs_overhead_pct, engine_obs_overhead_pct, net_rps,
               net_p50_us, net_p95_us, net_p99_us);
  std::fclose(out);
  std::printf("dictionary load (state_variable): csv %.3f ms, binary %.3f ms "
              "(%.2fx), mmap attach %.3f ms%s, round trip %s; service "
              "%.0f -> %.0f -> %.0f req/s (mean batch %.2f, store hit-rate "
              "%.3f); obs overhead service %.2f%%, engine %.2f%%; "
              "net %.0f req/s (p50 %.0f us, p95 %.0f us, p99 %.0f us) "
              "-> %s\n",
              csv_ms, fdx_ms, csv_ms / fdx_ms, mmap_ms,
              mmap_zero_copy ? " (zero-copy)" : "",
              round_trip_ok ? "bit-identical" : "MISMATCH", rps_1, rps_2,
              rps_4, service_stats.mean_batch, store_hit_rate,
              service_obs_overhead_pct, engine_obs_overhead_pct, net_rps,
              net_p50_us, net_p95_us, net_p99_us, path);
}

}  // namespace

int main(int argc, char** argv) {
  // The serial-vs-engine and serial-vs-batch reports run on a full sweep
  // (no arguments) or when explicitly requested via
  // FTDIAG_ENGINE_REPORT=<path> / FTDIAG_SEARCH_REPORT=<path>, so filtered
  // micro-runs don't pay for the extra dictionary builds and GA runs.
  const char* engine_report_path = std::getenv("FTDIAG_ENGINE_REPORT");
  const char* search_report_path = std::getenv("FTDIAG_SEARCH_REPORT");
  const char* service_report_path = std::getenv("FTDIAG_SERVICE_REPORT");
  const bool full_run = (argc == 1);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (engine_report_path != nullptr || full_run) {
    write_engine_report(engine_report_path != nullptr ? engine_report_path
                                                      : "BENCH_engine.json");
  }
  if (search_report_path != nullptr || full_run) {
    write_search_report(search_report_path != nullptr ? search_report_path
                                                      : "BENCH_search.json");
  }
  if (service_report_path != nullptr || full_run) {
    write_service_report(service_report_path != nullptr
                             ? service_report_path
                             : "BENCH_service.json");
  }
  return 0;
}
