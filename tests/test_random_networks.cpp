/// Randomized-network property tests: generate random connected RC
/// networks and check physical invariants of the MNA engine that must hold
/// for ANY such network — properties no hand-written example can cover.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "circuits/ladders.hpp"
#include "faults/fault_universe.hpp"
#include "faults/simulation_engine.hpp"
#include "linalg/lu.hpp"
#include "linalg/sparse_factorization.hpp"
#include "mna/ac_analysis.hpp"
#include "mna/dc_analysis.hpp"
#include "mna/frequency_grid.hpp"
#include "mna/stamp_update.hpp"
#include "netlist/circuit.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ftdiag {
namespace {

/// Random connected RC network: a spine guarantees connectivity, extra
/// chords add meshes.  Driven by V1 at node n0, observed anywhere.
netlist::Circuit random_rc_network(Rng& rng, std::size_t nodes,
                                   std::size_t chords) {
  netlist::Circuit c;
  c.add_vsource("V1", "n0", "0", 0.0, 1.0);
  std::size_t part = 0;
  auto add_part = [&](const std::string& a, const std::string& b) {
    const std::string name = str::format("P%zu", part++);
    if (rng.bernoulli(0.7)) {
      c.add_resistor(name, a, b, rng.uniform(100.0, 100e3));
    } else {
      c.add_capacitor(name, a, b, rng.uniform(1e-10, 1e-6));
    }
  };
  // Spine: n0 - n1 - ... - n{N-1}, with a resistor to keep DC defined.
  for (std::size_t i = 1; i < nodes; ++i) {
    const std::string prev = str::format("n%zu", i - 1);
    const std::string here = str::format("n%zu", i);
    c.add_resistor(str::format("RS%zu", i), prev, here,
                   rng.uniform(100.0, 50e3));
  }
  c.add_resistor("RL", str::format("n%zu", nodes - 1), "0",
                 rng.uniform(1e3, 100e3));
  // Chords between random nodes (including ground).
  for (std::size_t k = 0; k < chords; ++k) {
    const auto a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    const auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    const std::string node_a = str::format("n%zu", a);
    const std::string node_b = rng.bernoulli(0.25) ? "0" : str::format("n%zu", b);
    if (node_a == node_b) continue;
    add_part(node_a, node_b);
  }
  return c;
}

class RandomRcNetworkTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomRcNetworkTest, PassiveGainNeverExceedsUnity) {
  // An RC network (no inductors) cannot resonate: |H| <= 1 everywhere.
  Rng rng(GetParam());
  const auto circuit = random_rc_network(rng, 8, 10);
  if (!circuit.validate().empty()) GTEST_SKIP() << "degenerate draw";
  mna::AcAnalysis analysis(circuit);
  for (double f : {1.0, 100.0, 10e3, 1e6}) {
    for (std::size_t n = 1; n < 8; ++n) {
      const double mag =
          std::abs(analysis.node_voltage(f, str::format("n%zu", n)));
      EXPECT_LE(mag, 1.0 + 1e-9)
          << "node n" << n << " at " << f << " Hz";
    }
  }
}

TEST_P(RandomRcNetworkTest, DcLimitMatchesDcAnalysis) {
  // AC at a vanishing frequency must agree with the dedicated DC solve
  // (with the AC magnitude as the DC excitation).
  Rng rng(GetParam() + 1000);
  netlist::Circuit circuit = random_rc_network(rng, 6, 6);
  if (!circuit.validate().empty()) GTEST_SKIP() << "degenerate draw";
  mna::AcAnalysis ac(circuit);

  netlist::Circuit dc_circuit = circuit;
  // Same excitation as DC value (fresh circuit, V1 dc=1).
  netlist::Circuit rebuilt;
  for (const auto& comp : dc_circuit.components()) {
    netlist::Component copy = comp;
    if (comp.name == "V1") copy.dc = 1.0;
    copy.nodes.clear();
    for (auto n : comp.nodes) {
      copy.nodes.push_back(rebuilt.node(dc_circuit.node_name(n)));
    }
    rebuilt.add_component(copy);
  }
  mna::DcAnalysis dc(rebuilt);
  const auto dc_solution = dc.solve();
  for (std::size_t n = 1; n < 6; ++n) {
    const std::string name = str::format("n%zu", n);
    const auto v_ac = ac.node_voltage(1e-6, name);
    const double v_dc = dc_solution[dc.system().node_unknown(name)];
    EXPECT_NEAR(v_ac.real(), v_dc, 1e-6) << name;
    EXPECT_NEAR(v_ac.imag(), 0.0, 1e-6) << name;
  }
}

TEST_P(RandomRcNetworkTest, SparseAndDenseSolversAgree) {
  Rng rng(GetParam() + 2000);
  const auto circuit = random_rc_network(rng, 10, 12);
  if (!circuit.validate().empty()) GTEST_SKIP() << "degenerate draw";
  const mna::MnaSystem system(circuit);
  const std::size_t n = system.unknown_count();
  linalg::CooMatrix<mna::Complex> matrix(n, n);
  std::vector<mna::Complex> rhs(n, mna::Complex{});
  system.assemble_ac(linalg::s_of_hz(1234.5), matrix, rhs);

  const auto dense = linalg::LuFactorization<mna::Complex>(matrix.to_dense())
                         .solve(rhs);
  const auto sparse =
      linalg::SparseFactorization<mna::Complex>(matrix).solve(rhs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(dense[i] - sparse[i]), 0.0, 1e-8);
  }
}

TEST_P(RandomRcNetworkTest, MagnitudeIsContinuousInFrequency) {
  // No jumps: neighbouring frequencies give neighbouring responses.
  Rng rng(GetParam() + 3000);
  const auto circuit = random_rc_network(rng, 7, 8);
  if (!circuit.validate().empty()) GTEST_SKIP() << "degenerate draw";
  mna::AcAnalysis analysis(circuit);
  const auto response = analysis.sweep(
      mna::FrequencyGrid::log_sweep(10.0, 1e6, 200), "n6");
  for (std::size_t i = 1; i < response.size(); ++i) {
    EXPECT_LT(std::fabs(response.magnitude(i) - response.magnitude(i - 1)),
              0.15)
        << "jump at " << response.frequency(i);
  }
}

TEST_P(RandomRcNetworkTest, SparseFactorizationRefactorsAcrossFrequencies) {
  // Analyze the MNA pattern once at one frequency, refactor at others and
  // match the dense solution at each — the symbolic/numeric contract on a
  // random complex system.
  Rng rng(GetParam() + 4000);
  const auto circuit = random_rc_network(rng, 12, 15);
  if (!circuit.validate().empty()) GTEST_SKIP() << "degenerate draw";
  const mna::MnaSystem system(circuit);
  const std::size_t n = system.unknown_count();

  auto assemble = [&](double f) {
    linalg::CooMatrix<mna::Complex> coo(n, n);
    std::vector<mna::Complex> rhs(n, mna::Complex{});
    system.assemble_ac(linalg::s_of_hz(f), coo, rhs);
    return std::make_pair(std::move(coo), std::move(rhs));
  };

  auto [first, rhs] = assemble(1e3);
  (void)rhs;
  linalg::SparseFactorization<mna::Complex> f(first);
  for (double hz : {1.0, 250.0, 1e3, 47e3, 1e6}) {
    const auto [coo, rhs_f] = assemble(hz);
    f.refactor(coo);
    const auto xs = f.solve(rhs_f);
    const auto xd =
        linalg::LuFactorization<mna::Complex>(coo.to_dense()).solve(rhs_f);
    double scale = 0.0;
    for (const auto& v : xd) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(xs[i] - xd[i]), 1e-9 * (std::abs(xd[i]) + scale))
          << "unknown " << i << " at " << hz << " Hz";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRcNetworkTest,
                         ::testing::Range<std::uint64_t>(1, 13));

/// The engine's sparse frequency batch: four wide where the build has
/// SIMD, the width-1 twin otherwise.
#if FTDIAG_SIMD_NATIVE
using BatchPack = linalg::simd::Pack4;
#else
using BatchPack = linalg::simd::ScalarPack;
#endif

/// The sparse batch is SweepSolver, lane by lane and bit for bit: the
/// system, forced onto the sparse backend with the read set the engine
/// orders last (the output, each site's u and v support, the excitation
/// rows), is factored over \p grid kWidth frequencies at a time by a
/// SparseBatchSolver (a short last batch padded) and one at a time by a
/// SweepSolver.  The golden read-set solve and every site's u solve must
/// agree at every read-set unknown, and the full solve everywhere.
void expect_batch_matches_scalar(const mna::MnaSystem& system,
                                 std::size_t out,
                                 const std::vector<std::string>& sites,
                                 const std::vector<double>& grid,
                                 const std::string& tag) {
  using Batch = mna::SparseBatchSolver<BatchPack>;
  constexpr std::size_t kW = Batch::kWidth;
  const auto assembler = system.prepare_sweep();
  const std::size_t n = assembler.size();
  std::vector<std::size_t> read_set{out};
  std::vector<mna::Rank1StampUpdate> updates;
  for (const auto& name : sites) {
    auto update = mna::rank1_stamp_update(system, name);
    ASSERT_TRUE(update.has_value()) << tag << " " << name;
    for (const auto* vec : {&update->u, &update->v}) {
      for (const auto& [index, value] : vec->entries) read_set.push_back(index);
    }
    updates.push_back(std::move(*update));
  }
  std::vector<std::pair<std::size_t, mna::Complex>> rhs;
  for (std::size_t i = 0; i < n; ++i) {
    if (assembler.rhs()[i] != mna::Complex{}) {
      rhs.emplace_back(i, assembler.rhs()[i]);
      read_set.push_back(i);
    }
  }
  const auto context = mna::SweepSolver::analyze(
      assembler, mna::SolverBackend::kSparse, read_set);
  ASSERT_TRUE(context->prototype.analyzed()) << tag;

  Batch batch(assembler, context);
  mna::SweepSolver single(assembler, context);
  std::vector<double> x0(n * Batch::kStride), full(n * Batch::kStride);
  std::vector<std::vector<double>> w(updates.size(),
                                     std::vector<double>(n * Batch::kStride));
  std::vector<mna::Complex> x(n);
  auto expect_lane = [&](const std::vector<double>& block, std::size_t l,
                         std::span<const std::size_t> unknowns,
                         const std::string& what) {
    for (std::size_t u : unknowns) {
      EXPECT_EQ(block[u * Batch::kStride + l], x[u].real())
          << tag << " " << what << " lane " << l << " unknown " << u;
      EXPECT_EQ(block[u * Batch::kStride + kW + l], x[u].imag())
          << tag << " " << what << " lane " << l << " unknown " << u;
    }
  };
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  for (std::size_t at = 0; at < grid.size(); at += kW) {
    const std::size_t valid = std::min(kW, grid.size() - at);
    std::vector<mna::Complex> s(kW);
    for (std::size_t l = 0; l < kW; ++l) {
      s[l] = linalg::s_of_hz(grid[std::min(at + l, grid.size() - 1)]);
    }
    batch.factor(s, valid);
    batch.solve_read_set(rhs, x0.data());
    for (std::size_t si = 0; si < updates.size(); ++si) {
      batch.solve_read_set(updates[si].u.entries, w[si].data());
    }
    batch.solve_into(assembler.rhs(), full.data());
    for (std::size_t l = 0; l < valid; ++l) {
      single.factor(s[l]);
      single.solve_read_set(rhs, x);
      expect_lane(x0, l, read_set, "golden");
      for (std::size_t si = 0; si < updates.size(); ++si) {
        single.solve_read_set(updates[si].u.entries, x);
        expect_lane(w[si], l, read_set, "site " + sites[si]);
      }
      single.solve_into(assembler.rhs(), x);
      expect_lane(full, l, all, "full solve");
    }
  }
}

class SparseBatchTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SparseBatchTest, BatchedFactorsMatchTheScalarTwinBitForBit) {
  const std::size_t nodes = GetParam();
  Rng rng(700 + nodes);
  const netlist::Circuit circuit = random_rc_network(rng, nodes, 3 * nodes);
  if (!circuit.validate().empty()) GTEST_SKIP() << "degenerate draw";
  const mna::MnaSystem system(circuit);
  // Sites: the network's first few parts, the spine and chords alike.
  std::vector<std::string> sites;
  for (const auto& component : circuit.components()) {
    if (sites.size() == 3) break;
    if (component.name != "V1" &&
        mna::rank1_stamp_update(system, component.name).has_value()) {
      sites.push_back(component.name);
    }
  }
  // 11 points: two whole batches of four and a tail of three.
  expect_batch_matches_scalar(
      system, system.node_unknown(str::format("n%zu", nodes - 1)), sites,
      mna::FrequencyGrid::log_sweep(10.0, 1e6, 11).frequencies(),
      str::format("%zu nodes", nodes));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseBatchTest,
                         ::testing::Values(2, 5, 10, 25, 50, 100, 200));

/// Ladder differential at scale: sparse pattern-reuse path vs the dense
/// reference on a 1000-section RC ladder (1002 unknowns), rel tol 1e-9.
TEST(LargeLadder, SparseFactorizationMatchesDenseAt1000Nodes) {
  circuits::RcLadderDesign design;
  design.sections = 1000;
  design.testable_stride = 250;
  const auto cut = circuits::make_rc_ladder(design);
  const mna::MnaSystem system(cut.circuit);
  const auto assembler = system.prepare_sweep();
  const std::size_t n = assembler.size();
  ASSERT_GT(n, mna::SweepAssembler::kDenseLimit);

  linalg::CooMatrix<mna::Complex> coo(n, n);
  assembler.assemble(linalg::s_of_hz(mna::SweepSolver::kReferenceHz), coo);
  linalg::SparseFactorization<mna::Complex> f(coo);

  const double f_section = std::sqrt(cut.band_low_hz * cut.band_high_hz);
  assembler.assemble(linalg::s_of_hz(f_section), coo);
  f.refactor(coo);
  const auto xs = f.solve(assembler.rhs());
  const auto xd = linalg::LuFactorization<mna::Complex>(coo.to_dense())
                      .solve(assembler.rhs());
  double scale = 0.0;
  for (const auto& v : xd) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(xs[i] - xd[i]), 1e-9 * (std::abs(xd[i]) + scale))
        << "unknown " << i;
  }
}

/// The read set the simulation engine orders last: the output, every
/// testable site's u and v support, and the excitation rows.
std::vector<std::size_t> engine_read_set(const circuits::CircuitUnderTest& cut,
                                         const mna::MnaSystem& system,
                                         const mna::SweepAssembler& assembler) {
  std::vector<std::size_t> read_set{system.node_unknown(cut.output_node)};
  for (const auto& name : cut.testable) {
    const auto update = mna::rank1_stamp_update(system, name);
    EXPECT_TRUE(update.has_value()) << name;
    if (!update) continue;
    for (const auto* vec : {&update->u, &update->v}) {
      for (const auto& [index, value] : vec->entries) read_set.push_back(index);
    }
  }
  for (std::size_t i = 0; i < assembler.size(); ++i) {
    if (assembler.rhs()[i] != mna::Complex{}) read_set.push_back(i);
  }
  return read_set;
}

/// The fill-reducing order: a 30x30 RC mesh (901 unknowns) factored in
/// natural column order fills to ~51k factor entries.  Minimum degree's
/// exact counts are pinned — the order, pivots and pattern are a function
/// of the structure — without a read set, with the output and the sites'
/// v support ordered last, and with the engine's full read set.
TEST(LargeLadder, MeshFactorFillStaysBounded) {
  circuits::RcMeshDesign design;
  design.rows = 30;
  design.cols = 30;
  design.testable_stride = 112;
  const auto cut = circuits::make_rc_mesh(design);
  const mna::MnaSystem system(cut.circuit);
  const auto assembler = system.prepare_sweep();
  const auto context =
      mna::SweepSolver::analyze(assembler, mna::SolverBackend::kAuto);
  ASSERT_TRUE(context->sparse);
  EXPECT_EQ(context->prototype.factor_nnz(), 19800u);

  std::vector<std::size_t> read_set{system.node_unknown(cut.output_node)};
  for (const auto& name : cut.testable) {
    const auto update = mna::rank1_stamp_update(system, name);
    ASSERT_TRUE(update.has_value()) << name;
    for (const auto& [index, value] : update->v.entries) {
      read_set.push_back(index);
    }
  }
  const auto with_reads = mna::SweepSolver::analyze(
      assembler, mna::SolverBackend::kAuto, read_set);
  EXPECT_EQ(with_reads->prototype.factor_nnz(), 21738u);
  const auto with_engine_reads = mna::SweepSolver::analyze(
      assembler, mna::SolverBackend::kAuto,
      engine_read_set(cut, system, assembler));
  EXPECT_EQ(with_engine_reads->prototype.factor_nnz(), 21830u);

  // The read-set solve agrees with the full solve wherever it is read.
  mna::SweepSolver solver(assembler, with_reads);
  solver.factor(
      linalg::s_of_hz(std::sqrt(cut.band_low_hz * cut.band_high_hz)));
  const std::size_t n = assembler.size();
  std::vector<mna::Complex> full(n), reads(n);
  solver.solve_into(assembler.rhs(), full);
  std::vector<std::pair<std::size_t, mna::Complex>> rhs;
  for (std::size_t i = 0; i < n; ++i) {
    if (assembler.rhs()[i] != mna::Complex{}) {
      rhs.emplace_back(i, assembler.rhs()[i]);
    }
  }
  solver.solve_read_set(rhs, reads);
  for (std::size_t u : read_set) {
    EXPECT_LE(std::abs(reads[u] - full[u]), 1e-12 * (1.0 + std::abs(full[u])))
        << "unknown " << u;
  }
}

/// The same pin on the 5000-section ladder, whose elimination fills only
/// where the read set is ordered last.
TEST(LargeLadder, LadderFactorFillIsPinned) {
  circuits::RcLadderDesign design;
  design.sections = 5000;
  design.testable_stride = 1250;
  const auto cut = circuits::make_rc_ladder(design);
  const mna::MnaSystem system(cut.circuit);
  const auto assembler = system.prepare_sweep();
  const auto context =
      mna::SweepSolver::analyze(assembler, mna::SolverBackend::kAuto);
  ASSERT_TRUE(context->sparse);
  EXPECT_EQ(context->prototype.factor_nnz(), 15003u);
  const auto with_engine_reads = mna::SweepSolver::analyze(
      assembler, mna::SolverBackend::kAuto,
      engine_read_set(cut, system, assembler));
  EXPECT_EQ(with_engine_reads->prototype.factor_nnz(), 23739u);
}

/// The batch-vs-scalar contract on the 5000-section ladder and the 30x30
/// mesh, with their testable sites and a 9-point band grid (two whole
/// batches of four and a tail of one).
TEST(LargeLadder, SparseBatchMatchesScalarTwinOnLadderAndMesh) {
  circuits::RcLadderDesign ladder;
  ladder.sections = 5000;
  ladder.testable_stride = 1250;
  circuits::RcMeshDesign mesh;
  mesh.rows = 30;
  mesh.cols = 30;
  mesh.testable_stride = 112;
  for (const auto& cut :
       {circuits::make_rc_ladder(ladder), circuits::make_rc_mesh(mesh)}) {
    const mna::MnaSystem system(cut.circuit);
    expect_batch_matches_scalar(
        system, system.node_unknown(cut.output_node), cut.testable,
        mna::FrequencyGrid::log_sweep(cut.band_low_hz, cut.band_high_hz, 9)
            .frequencies(),
        cut.name);
  }
}

/// Medium random network through the full AC path: the auto-selected
/// sparse sweep must match a forced-dense sweep point for point.
TEST(LargeLadder, RandomNetworkAutoSparseMatchesForcedDense) {
  circuits::RandomNetworkDesign design;
  design.nodes = 300;  // past kDenseLimit -> auto picks sparse
  design.chords = 450;
  design.testable_stride = 100;
  const auto cut = circuits::make_random_network(design);
  mna::AcAnalysis analysis(cut.circuit);
  ASSERT_GT(analysis.system().unknown_count(), mna::AcAnalysis::kDenseLimit);
  ASSERT_TRUE(analysis.solver_context()->sparse);

  const auto dense_context = mna::SweepSolver::analyze(
      analysis.sweep_assembler(), mna::SolverBackend::kDense);
  mna::SweepSolver dense(analysis.sweep_assembler(), dense_context);
  const std::size_t n = analysis.system().unknown_count();
  std::vector<mna::Complex> xd(n);
  for (double hz : {10.0, 1e3, 1e5}) {
    const auto xs = analysis.solve(hz);
    dense.factor(linalg::s_of_hz(hz));
    dense.solve_into(analysis.sweep_assembler().rhs(), xd);
    double scale = 0.0;
    for (const auto& v : xd) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(xs[i] - xd[i]), 1e-9 * (std::abs(xd[i]) + scale))
          << "unknown " << i << " at " << hz << " Hz";
    }
  }
}

/// Sparse-built dictionaries must stay bit-identical across thread counts
/// — slot-ordered writes plus a call-history-independent symbolic phase.
TEST(LargeLadder, SparseEngineBatchIsBitStableAcrossThreadCounts) {
  circuits::RcLadderDesign design;
  design.sections = 400;  // 402 unknowns -> sparse reuse path
  design.testable_stride = 100;
  const auto cut = circuits::make_rc_ladder(design);
  const auto freqs =
      mna::FrequencyGrid::log_sweep(cut.band_low_hz, cut.band_high_hz, 16)
          .frequencies();
  const auto faults = faults::FaultUniverse::over_testable(cut).enumerate();

  faults::SimOptions one;
  one.threads = 1;
  const faults::BatchResult single =
      faults::SimulationEngine(cut, one).simulate_all(faults, freqs);
  EXPECT_GT(single.stats.rank1_solves, 0u);
  EXPECT_EQ(single.stats.fallback_faults, 0u);

  for (std::size_t threads : {2u, 8u}) {
    faults::SimOptions options;
    options.threads = threads;
    const faults::BatchResult batch =
        faults::SimulationEngine(cut, options).simulate_all(faults, freqs);
    ASSERT_EQ(batch.responses.size(), single.responses.size());
    for (std::size_t i = 0; i < single.responses.size(); ++i) {
      for (std::size_t k = 0; k < single.responses[i].size(); ++k) {
        EXPECT_EQ(batch.responses[i].value(k).real(),
                  single.responses[i].value(k).real())
            << "fault " << i << " point " << k << " threads " << threads;
        EXPECT_EQ(batch.responses[i].value(k).imag(),
                  single.responses[i].value(k).imag())
            << "fault " << i << " point " << k << " threads " << threads;
      }
    }
    EXPECT_EQ(batch.stats.rank1_solves, single.stats.rank1_solves);
    EXPECT_EQ(batch.stats.full_solves, single.stats.full_solves);
  }
}

}  // namespace
}  // namespace ftdiag
