/// Allocation-count guard of the sweep hot path: global operator new is
/// replaced with a counting wrapper, the distilled per-frequency loop
/// (split G+sC assembly -> in-place factor -> golden solve -> one solve
/// per site -> split re/im Sherman–Morrison sweep) must perform
/// ZERO heap allocations once its buffers are warm, and the full engine's
/// allocation count must be independent of the frequency-grid size (the
/// per-frequency inner loop allocates nothing; only per-fault result
/// storage scales).  The GA's batch scoring is held to the same standard:
/// once the signature columns are cached, a batch's allocation count must
/// not grow with the number of genomes it scores.  Decoding a `.fdx` image
/// is held to its bytes: about one copy of the samples, not three.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/ladders.hpp"
#include "circuits/nf_biquad.hpp"
#include "circuits/registry.hpp"
#include "core/evaluation_pipeline.hpp"
#include "faults/dictionary.hpp"
#include "faults/fault_universe.hpp"
#include "faults/simulation_engine.hpp"
#include "io/dictionary_io.hpp"
#include "io/mapped_file.hpp"
#include "linalg/lu.hpp"
#include "linalg/rank1.hpp"
#include "linalg/simd.hpp"
#include "mna/ac_analysis.hpp"
#include "mna/frequency_grid.hpp"
#include "mna/stamp_update.hpp"
#include "mna/sweep_solver.hpp"
#include "mna/system.hpp"

namespace {
std::atomic<std::size_t> g_allocation_count{0};
std::atomic<std::size_t> g_allocation_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  g_allocation_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  g_allocation_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ftdiag {
namespace {

using linalg::Complex;

TEST(ZeroAllocation, SweepInnerLoopIsAllocationFreeAfterWarmup) {
  const auto cut = circuits::make_by_name("state_variable");
  const mna::AcAnalysis analysis(cut.circuit);
  const mna::SweepAssembler& assembler = analysis.sweep_assembler();
  const mna::MnaSystem& system = analysis.system();
  const std::size_t n = system.unknown_count();
  const std::size_t out = system.node_unknown(cut.output_node);
  ASSERT_NE(out, mna::kNoUnknown);

  // Structural u/v pairs of the first few rank-1-capable sites, with
  // their u columns densified for one solve each.
  std::vector<mna::Rank1StampUpdate> updates;
  for (const auto& component : system.circuit().components()) {
    if (auto update = mna::rank1_stamp_update(system, component.name)) {
      updates.push_back(std::move(*update));
      if (updates.size() == 4) break;
    }
  }
  ASSERT_FALSE(updates.empty());
  const std::size_t site_count = updates.size();
  std::vector<std::vector<Complex>> u_columns;
  for (const auto& update : updates) u_columns.push_back(update.u.densify(n));

  const std::vector<double> freqs =
      mna::FrequencyGrid::log_sweep(10.0, 100e3, 240).frequencies();
  const std::size_t f_count = freqs.size();

  // The workspace arena: everything the steady-state loop touches.
  linalg::Matrix<Complex> a;
  linalg::LuFactorization<Complex> lu;
  std::vector<Complex> x0(n);
  std::vector<std::vector<Complex>> w(site_count, std::vector<Complex>(n));
  std::vector<double> x0_re(f_count), x0_im(f_count), w_re(f_count),
      w_im(f_count), vx0_re(f_count), vx0_im(f_count), vw_re(f_count),
      vw_im(f_count), scale_re(f_count), scale_im(f_count),
      out_re(f_count), out_im(f_count);
  std::vector<unsigned char> refused(f_count);

  const auto sweep_point = [&](std::size_t fi) {
    const Complex s = linalg::s_of_hz(freqs[fi]);
    assembler.assemble(s, a);
    lu.factor_in_place(a);
    lu.solve_into(assembler.rhs(), x0);
    for (std::size_t si = 0; si < site_count; ++si) {
      lu.solve_into(u_columns[si], w[si]);
    }
    const Complex v_dot_x0 = linalg::sparse_dot(
        updates[0].v, std::span<const Complex>(x0));
    const Complex v_dot_w = linalg::sparse_dot(
        updates[0].v, std::span<const Complex>(w[0]));
    x0_re[fi] = x0[out].real();
    x0_im[fi] = x0[out].imag();
    w_re[fi] = w[0][out].real();
    w_im[fi] = w[0][out].imag();
    vx0_re[fi] = v_dot_x0.real();
    vx0_im[fi] = v_dot_x0.imag();
    vw_re[fi] = v_dot_w.real();
    vw_im[fi] = v_dot_w.imag();
    const Complex scale = updates[0].coefficient(s, 1.4);
    scale_re[fi] = scale.real();
    scale_im[fi] = scale.imag();
  };

  // Warm-up: the first pass sizes every buffer.
  sweep_point(0);
  sweep_point(1);

  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (std::size_t fi = 0; fi < f_count; ++fi) sweep_point(fi);
  const std::size_t refusals = linalg::sherman_morrison_sweep(
      f_count, scale_re.data(), scale_im.data(), vx0_re.data(),
      vx0_im.data(), vw_re.data(), vw_im.data(), x0_re.data(),
      x0_im.data(), w_re.data(), w_im.data(), linalg::kRank1MaxGrowth,
      out_re.data(), out_im.data(), refused.data());
  const std::size_t after =
      g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "the steady-state sweep inner loop must not touch the heap";
  EXPECT_EQ(refusals, 0u);
  // The sweep must have produced finite output (guards against the loop
  // being optimized into nothing).
  EXPECT_TRUE(std::isfinite(out_re[f_count / 2]));
}

/// The whole engine's allocation count must not scale with the frequency
/// grid: per-fault result storage is one vector each regardless of
/// length, and the per-frequency loop is allocation-free.
std::size_t engine_allocation_count(const circuits::CircuitUnderTest& cut,
                                    std::size_t grid_points) {
  const auto faults_list =
      faults::FaultUniverse::over_testable(cut).enumerate();
  const std::vector<double> freqs =
      mna::FrequencyGrid::log_sweep(10.0, 100e3, grid_points).frequencies();
  faults::SimOptions options;
  options.threads = 1;
  const faults::SimulationEngine engine(cut, options);
  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  const auto batch = engine.simulate_all(faults_list, freqs);
  const std::size_t after =
      g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(batch.responses.size(), faults_list.size());
  EXPECT_EQ(batch.stats.fallback_faults, 0u);
  return after - before;
}

TEST(ZeroAllocation, EngineAllocationCountIsFrequencyCountIndependent) {
  // The paper CUT runs the dense batched path; a 200-section ladder (202
  // unknowns) runs the sparse refactor + read-set solves.
  circuits::RcLadderDesign ladder;
  ladder.sections = 200;
  ladder.testable_stride = 50;
  for (const auto& cut :
       {circuits::make_paper_cut(), circuits::make_rc_ladder(ladder)}) {
    // The sparse path factors four frequencies per batch; grids 41, 42
    // and 43 end on a batch padded from one, two and three real lanes.
    const std::size_t at_40 = engine_allocation_count(cut, 40);
    const std::size_t at_41 = engine_allocation_count(cut, 41);
    const std::size_t at_42 = engine_allocation_count(cut, 42);
    const std::size_t at_43 = engine_allocation_count(cut, 43);
    const std::size_t at_400 = engine_allocation_count(cut, 400);
    const std::size_t at_401 = engine_allocation_count(cut, 401);
    // A single allocation per frequency would add >= 360 here; allow a
    // small constant of slack for block bookkeeping.
    EXPECT_LE(at_400, at_40 + 64)
        << cut.name << ": engine allocations grew with the frequency grid";
    EXPECT_LE(at_401, at_41 + 64)
        << cut.name << ": engine allocations grew with the odd frequency grid";
    for (const std::size_t tail : {at_42, at_43}) {
      EXPECT_LE(tail, at_40 + 64)
          << cut.name << ": a padded tail batch added allocations";
      EXPECT_LE(at_40, tail + 64) << cut.name;
    }
  }
}

/// A warm sparse batch — the engine's phase-1 lane: four frequencies per
/// factor where the build has SIMD — runs 8 batches of factor, golden
/// read-set solve and one read-set solve per site without touching the
/// heap.
TEST(ZeroAllocation, WarmSparseBatchIsAllocationFree) {
#if FTDIAG_SIMD_NATIVE
  using Batch = mna::SparseBatchSolver<linalg::simd::Pack4>;
#else
  using Batch = mna::SparseBatchSolver<linalg::simd::ScalarPack>;
#endif
  circuits::RcLadderDesign design;
  design.sections = 200;
  design.testable_stride = 50;
  const auto cut = circuits::make_rc_ladder(design);
  const mna::MnaSystem system(cut.circuit);
  const mna::SweepAssembler assembler = system.prepare_sweep();
  const std::size_t n = assembler.size();
  std::vector<std::size_t> read_set{system.node_unknown(cut.output_node)};
  std::vector<mna::Rank1StampUpdate> updates;
  for (const auto& name : cut.testable) {
    auto update = mna::rank1_stamp_update(system, name);
    ASSERT_TRUE(update.has_value()) << name;
    for (const auto* vec : {&update->u, &update->v}) {
      for (const auto& entry : vec->entries) read_set.push_back(entry.first);
    }
    updates.push_back(std::move(*update));
  }
  std::vector<std::pair<std::size_t, Complex>> rhs;
  for (std::size_t i = 0; i < n; ++i) {
    if (assembler.rhs()[i] != Complex{}) {
      rhs.emplace_back(i, assembler.rhs()[i]);
      read_set.push_back(i);
    }
  }
  const auto context = mna::SweepSolver::analyze(
      assembler, mna::SolverBackend::kSparse, read_set);
  ASSERT_TRUE(context->prototype.analyzed());
  Batch batch(assembler, context);
  std::vector<double> x0(n * Batch::kStride), w(n * Batch::kStride);
  const std::vector<double> freqs =
      mna::FrequencyGrid::log_sweep(10.0, 100e3, 9 * Batch::kWidth)
          .frequencies();
  std::vector<Complex> s(Batch::kWidth);
  const auto run_batch = [&](std::size_t b) {
    for (std::size_t l = 0; l < Batch::kWidth; ++l) {
      s[l] = linalg::s_of_hz(freqs[b * Batch::kWidth + l]);
    }
    batch.factor(s);
    batch.solve_read_set(rhs, x0.data());
    for (const auto& update : updates) {
      batch.solve_read_set(update.u.entries, w.data());
    }
  };
  run_batch(0);  // warm-up

  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (std::size_t b = 1; b <= 8; ++b) run_batch(b);
  const std::size_t after =
      g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "a warm sparse batch must not touch the heap";
  const std::size_t out = system.node_unknown(cut.output_node);
  EXPECT_TRUE(std::isfinite(x0[out * Batch::kStride]));
}

/// Heap allocations of one SweepSolver::analyze of an n-section RC
/// ladder, with the read set the engine orders last.
std::size_t sparse_analysis_allocation_count(std::size_t sections) {
  circuits::RcLadderDesign design;
  design.sections = sections;
  design.testable_stride = sections / 4;
  const auto cut = circuits::make_rc_ladder(design);
  const mna::MnaSystem system(cut.circuit);
  const mna::SweepAssembler assembler = system.prepare_sweep();
  std::vector<std::size_t> read_set{system.node_unknown(cut.output_node)};
  for (const auto& name : cut.testable) {
    const auto update = mna::rank1_stamp_update(system, name);
    EXPECT_TRUE(update.has_value()) << name;
    if (!update) continue;
    for (const auto* vec : {&update->u, &update->v}) {
      for (const auto& entry : vec->entries) read_set.push_back(entry.first);
    }
  }
  for (std::size_t i = 0; i < assembler.size(); ++i) {
    if (assembler.rhs()[i] != Complex{}) read_set.push_back(i);
  }
  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  const auto context = mna::SweepSolver::analyze(
      assembler, mna::SolverBackend::kSparse, read_set);
  const std::size_t after =
      g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_TRUE(context->prototype.analyzed());
  return after - before;
}

TEST(ZeroAllocation, SparseAnalysisAllocationsDoNotGrowWithSize) {
  // The symbolic analysis works on flat arrays: ten times the unknowns
  // may only add the odd doubling of a growing array, never an
  // allocation per row or per entry.
  const std::size_t small = sparse_analysis_allocation_count(500);
  const std::size_t large = sparse_analysis_allocation_count(5000);
  EXPECT_LE(large, small + 8) << "analysis allocations grew with n";
  EXPECT_LE(small, large + 8);
}

TEST(ZeroAllocation, WarmPipelineBatchAllocationsDoNotGrowWithBatchSize) {
  const auto cut = circuits::make_by_name("sallen_key_lp");
  const auto dictionary = faults::FaultDictionary::build(
      cut, faults::FaultUniverse::over_testable(cut));
  const core::TestVectorEvaluator evaluator(dictionary);
  core::PipelineOptions options;
  options.threads = 1;  // every lane buffer is then warm after one batch
  const core::EvaluationPipeline pipeline(evaluator, options);

  // Genes on 48 quantum steps: the diagonal genomes cache every column,
  // and the 1128 off-diagonal pairs are distinct genomes that reuse them.
  constexpr std::size_t kGenes = 48;
  auto gene = [&](std::size_t k) {
    return 2.0 + static_cast<double>(3 * k) * options.frequency_quantum;
  };
  std::vector<std::vector<double>> pairs;
  for (std::size_t a = 0; a < kGenes; ++a) {
    for (std::size_t b = a + 1; b < kGenes; ++b) {
      pairs.push_back({gene(a), gene(b)});
    }
  }
  std::vector<std::vector<double>> diagonal;
  for (std::size_t k = 0; k < kGenes; ++k) diagonal.push_back({gene(k), gene(k)});
  (void)pipeline.evaluate(diagonal);
  const std::size_t misses = pipeline.stats().column_misses;
  ASSERT_EQ(misses, kGenes);

  // A large warm-up batch sizes the per-batch buffers, then a small and a
  // large batch of fresh genomes are counted.
  std::size_t next = 0;
  auto batch_of = [&](std::size_t count) {
    std::vector<std::vector<double>> batch(pairs.begin() + next,
                                           pairs.begin() + next + count);
    next += count;
    return batch;
  };
  (void)pipeline.evaluate(batch_of(512));
  auto allocations = [&](const std::vector<std::vector<double>>& batch) {
    const std::size_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    const std::vector<double> scores = pipeline.evaluate(batch);
    const std::size_t after =
        g_allocation_count.load(std::memory_order_relaxed);
    EXPECT_EQ(scores.size(), batch.size());
    return after - before;
  };
  const std::vector<std::vector<double>> small = batch_of(16);
  const std::vector<std::vector<double>> large = batch_of(256);
  const std::size_t at_16 = allocations(small);
  const std::size_t at_256 = allocations(large);

  EXPECT_EQ(pipeline.stats().column_misses, misses)
      << "the counted batches must only reuse cached columns";
  EXPECT_EQ(pipeline.stats().genome_hits, 0u)
      << "the counted batches must only hold unmemoized genomes";
  // One allocation per genome would add 240 here; the slack covers the
  // geometric growth of the fitness memo's flat storage.
  EXPECT_LE(at_256, at_16 + 4)
      << "pipeline allocations grew with the batch size (16 genomes: "
      << at_16 << ", 256 genomes: " << at_256 << ")";
}

TEST(ZeroAllocation, FdxDecodersAllocateAboutOneCopyOfTheSamples) {
  const auto cut = circuits::make_by_name("state_variable");
  const auto dictionary = faults::FaultDictionary::build(
      cut, faults::FaultUniverse::over_testable(cut));
  std::ostringstream os;
  io::save_dictionary_binary(os, dictionary);
  const std::string image = os.str();
  const io::DictionaryView view = io::DictionaryView::over(image);

  // The samples (16 bytes each, golden included) plus the grid; the 25 %
  // covers the fault list, the site index and the row views.
  const std::size_t faults = dictionary.fault_count();
  const std::size_t grid = dictionary.frequencies().size();
  const double bound = 1.25 * (16.0 * static_cast<double>((faults + 1) * grid) +
                               8.0 * static_cast<double>(grid));
  auto bytes_of = [&](auto decode) {
    const std::size_t before =
        g_allocation_bytes.load(std::memory_order_relaxed);
    const faults::FaultDictionary decoded = decode();
    const std::size_t after =
        g_allocation_bytes.load(std::memory_order_relaxed);
    EXPECT_EQ(decoded.fault_count(), faults);
    return static_cast<double>(after - before);
  };
  const double materialized = bytes_of([&] { return view.materialize(); });
  const double loaded =
      bytes_of([&] { return io::load_dictionary_binary(image); });
  EXPECT_LE(materialized, bound) << "x" << materialized / (bound / 1.25);
  EXPECT_LE(loaded, bound) << "x" << loaded / (bound / 1.25);
}

}  // namespace
}  // namespace ftdiag
