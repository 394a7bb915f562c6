/// Randomized-network property tests: generate random connected RC
/// networks and check physical invariants of the MNA engine that must hold
/// for ANY such network — properties no hand-written example can cover.
#include <gtest/gtest.h>

#include <cmath>

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

/// Paired sparse factors are the single ones, bit for bit: a random
/// network of each SparseFactorizationAgreementTest size, forced onto the
/// sparse backend with a read set, factored over a grid two frequencies at
/// a time by one solver and one frequency at a time by another.  The
/// read-set solutions of both points, and the full solve of point 0, must
/// agree in every bit.
class SweepSolverPairTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SweepSolverPairTest, PairedFactorsMatchSingleFactorsBitForBit) {
  const std::size_t nodes = GetParam();
  Rng rng(700 + nodes);
  const netlist::Circuit circuit = random_rc_network(rng, nodes, 3 * nodes);
  if (!circuit.validate().empty()) GTEST_SKIP() << "degenerate draw";
  const mna::MnaSystem system(circuit);
  const auto assembler = system.prepare_sweep();
  const std::size_t n = assembler.size();
  std::vector<std::size_t> read_set{
      system.node_unknown(str::format("n%zu", nodes - 1))};
  std::vector<std::pair<std::size_t, mna::Complex>> rhs;
  for (std::size_t i = 0; i < n; ++i) {
    if (assembler.rhs()[i] != mna::Complex{}) {
      rhs.emplace_back(i, assembler.rhs()[i]);
      read_set.push_back(i);
    }
  }
  const auto context = mna::SweepSolver::analyze(
      assembler, mna::SolverBackend::kSparse, read_set);
  ASSERT_TRUE(context->sparse);
  ASSERT_TRUE(context->prototype.analyzed());

  mna::SweepSolver paired(assembler, context);
  mna::SweepSolver single(assembler, context);
  std::vector<mna::Complex> x_pair(n), x_single(n);
  auto expect_same = [&](std::size_t point, double hz) {
    for (std::size_t u : read_set) {
      EXPECT_EQ(x_pair[u].real(), x_single[u].real())
          << "point " << point << " unknown " << u << " at " << hz << " Hz";
      EXPECT_EQ(x_pair[u].imag(), x_single[u].imag())
          << "point " << point << " unknown " << u << " at " << hz << " Hz";
    }
  };
  const std::vector<double> grid =
      mna::FrequencyGrid::log_sweep(10.0, 1e6, 8).frequencies();
  for (std::size_t i = 0; i < grid.size(); i += 2) {
    paired.factor_pair(linalg::s_of_hz(grid[i]), linalg::s_of_hz(grid[i + 1]));
    for (std::size_t point = 0; point < 2; ++point) {
      single.factor(linalg::s_of_hz(grid[i + point]));
      paired.solve_read_set(rhs, x_pair, point);
      single.solve_read_set(rhs, x_single);
      expect_same(point, grid[i + point]);
      if (point == 0) {
        paired.solve_into(assembler.rhs(), x_pair);
        single.solve_into(assembler.rhs(), x_single);
        EXPECT_EQ(x_pair, x_single) << "full solve at " << grid[i] << " Hz";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SweepSolverPairTest,
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

/// The fill-reducing order: a 30x30 RC mesh (901 unknowns) factored in
/// natural column order fills to ~51k factor entries; minimum degree must
/// keep it under 30k, with and without a read set ordered last.
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
  EXPECT_LE(context->prototype.factor_nnz(), 30000u);

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
  EXPECT_LE(with_reads->prototype.factor_nnz(), 30000u);

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
