#include "mna/dc_analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/ladders.hpp"
#include "circuits/registry.hpp"
#include "linalg/lu.hpp"
#include "linalg/sparse_factorization.hpp"
#include "netlist/circuit.hpp"
#include "util/error.hpp"

namespace ftdiag::mna {
namespace {

TEST(DcAnalysis, ResistorDivider) {
  netlist::Circuit c;
  c.add_vsource("V1", "in", "0", 10.0);
  c.add_resistor("R1", "in", "out", 3e3);
  c.add_resistor("R2", "out", "0", 1e3);
  DcAnalysis dc(c);
  EXPECT_NEAR(dc.node_voltage("out"), 2.5, 1e-12);
  EXPECT_NEAR(dc.node_voltage("in"), 10.0, 1e-12);
}

TEST(DcAnalysis, CapacitorIsOpen) {
  netlist::Circuit c;
  c.add_vsource("V1", "in", "0", 5.0);
  c.add_resistor("R1", "in", "out", 1e3);
  c.add_capacitor("C1", "out", "0", 1e-6);
  c.add_resistor("R2", "out", "0", 1e6);
  DcAnalysis dc(c);
  // Nearly no drop across R1 (only the 1M leak draws current).
  EXPECT_NEAR(dc.node_voltage("out"), 5.0 * 1e6 / (1e6 + 1e3), 1e-9);
}

TEST(DcAnalysis, InductorIsShort) {
  netlist::Circuit c;
  c.add_vsource("V1", "in", "0", 4.0);
  c.add_resistor("R1", "in", "mid", 1e3);
  c.add_inductor("L1", "mid", "out", 10e-3);
  c.add_resistor("R2", "out", "0", 1e3);
  DcAnalysis dc(c);
  EXPECT_NEAR(dc.node_voltage("mid"), dc.node_voltage("out"), 1e-12);
  EXPECT_NEAR(dc.node_voltage("out"), 2.0, 1e-12);
}

TEST(DcAnalysis, BranchCurrentOfSource) {
  netlist::Circuit c;
  c.add_vsource("V1", "in", "0", 10.0);
  c.add_resistor("R1", "in", "0", 2e3);
  DcAnalysis dc(c);
  // Branch current flows + -> - through the source: -5 mA.
  EXPECT_NEAR(dc.branch_current("V1"), -5e-3, 1e-12);
}

TEST(DcAnalysis, InductorBranchCurrent) {
  netlist::Circuit c;
  c.add_vsource("V1", "in", "0", 1.0);
  c.add_inductor("L1", "in", "out", 1e-3);
  c.add_resistor("R1", "out", "0", 100.0);
  DcAnalysis dc(c);
  EXPECT_NEAR(dc.branch_current("L1"), 10e-3, 1e-9);
}

TEST(DcAnalysis, CurrentSourceDcValue) {
  netlist::Circuit c;
  c.add_isource("I1", "0", "out", 1e-3);
  c.add_resistor("R1", "out", "0", 1e3);
  DcAnalysis dc(c);
  EXPECT_NEAR(dc.node_voltage("out"), 1.0, 1e-12);
}

TEST(DcAnalysis, IdealOpAmpDcOperatingPoint) {
  netlist::Circuit c;
  c.add_vsource("V1", "in", "0", 2.0);
  c.add_resistor("R1", "in", "n", 1e3);
  c.add_resistor("R2", "n", "out", 2e3);
  c.add_ideal_opamp("OA1", "0", "n", "out");
  DcAnalysis dc(c);
  EXPECT_NEAR(dc.node_voltage("out"), -4.0, 1e-9);
  EXPECT_NEAR(dc.node_voltage("n"), 0.0, 1e-12);
}

TEST(DcAnalysis, AcOnlySourceGivesZeroDc) {
  netlist::Circuit c;
  c.add_vsource("V1", "in", "0", 0.0, 1.0);
  c.add_resistor("R1", "in", "out", 1e3);
  c.add_resistor("R2", "out", "0", 1e3);
  DcAnalysis dc(c);
  EXPECT_NEAR(dc.node_voltage("out"), 0.0, 1e-15);
}

// Solve the same assembled DC system with both backends and require
// agreement to 1e-9 relative, regardless of which one DcAnalysis picked.
void expect_dense_matches_sparse(const netlist::Circuit& circuit,
                                 const std::string& context) {
  const DcAnalysis dc(circuit);
  const std::size_t n = dc.system().unknown_count();
  linalg::CooMatrix<double> matrix(n, n);
  std::vector<double> rhs(n, 0.0);
  dc.system().assemble_dc(matrix, rhs);
  std::vector<double> dense;
  try {
    dense = linalg::LuFactorization<double>(matrix.to_dense()).solve(rhs);
  } catch (const NumericError&) {
    // DC-singular circuit: both backends must agree on that, too.
    EXPECT_THROW((void)linalg::SparseFactorization<double>(matrix),
                 NumericError)
        << context;
    return;
  }
  const auto sparse = linalg::SparseFactorization<double>(matrix).solve(rhs);
  const auto via_analysis = dc.solve();
  double scale = 0.0;
  for (const double v : dense) scale = std::max(scale, std::fabs(v));
  if (scale == 0.0) scale = 1.0;
  ASSERT_EQ(dense.size(), sparse.size()) << context;
  ASSERT_EQ(dense.size(), via_analysis.size()) << context;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR(dense[i], sparse[i], 1e-9 * scale)
        << context << " unknown " << i;
    EXPECT_NEAR(dense[i], via_analysis[i], 1e-9 * scale)
        << context << " unknown " << i;
  }
}

TEST(DcAnalysis, DenseAndSparseBackendsAgreeOnRegistry) {
  for (const auto& name : circuits::registry_names()) {
    const auto cut = circuits::make_by_name(name);
    expect_dense_matches_sparse(cut.circuit, name);
  }
}

TEST(DcAnalysis, DenseAndSparseBackendsAgreeBeyondDenseLimit) {
  // 400 sections -> well past SweepAssembler::kDenseLimit, so
  // DcAnalysis::solve() itself takes the sparse branch here.
  circuits::RcLadderDesign design;
  design.sections = 400;
  design.testable_stride = 100;
  const auto cut = circuits::make_rc_ladder(design);
  ASSERT_GT(DcAnalysis(cut.circuit).system().unknown_count(),
            SweepAssembler::kDenseLimit);
  expect_dense_matches_sparse(cut.circuit, "rc_ladder_400");
}

TEST(DcAnalysis, FloatingNodeThroughCapacitorIsSingular) {
  netlist::Circuit c;
  c.add_vsource("V1", "in", "0", 1.0);
  c.add_capacitor("C1", "in", "island", 1e-9);
  c.add_capacitor("C2", "island", "0", 1e-9);
  DcAnalysis dc(c);
  EXPECT_THROW(dc.solve(), NumericError);
}

}  // namespace
}  // namespace ftdiag::mna
