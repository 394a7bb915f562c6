#include "mna/ac_analysis.hpp"

#include <algorithm>

#include "linalg/lu.hpp"
#include "util/error.hpp"

namespace ftdiag::mna {

namespace {

bool has_ac_source(const netlist::Circuit& circuit) {
  for (const auto& c : circuit.components()) {
    if ((c.kind == netlist::ComponentKind::kVoltageSource ||
         c.kind == netlist::ComponentKind::kCurrentSource) &&
        c.ac_magnitude != 0.0) {
      return true;
    }
  }
  return false;
}

}  // namespace

static_assert(SweepAssembler::kDenseLimit == AcAnalysis::kDenseLimit,
              "the sweep assembler and the AC analysis must agree on where "
              "the dense path ends");

AcAnalysis::AcAnalysis(const netlist::Circuit& circuit)
    : system_(circuit),
      assembler_(system_.prepare_sweep()),
      context_(SweepSolver::analyze(assembler_, SolverBackend::kAuto)) {
  if (!has_ac_source(system_.circuit())) {
    throw CircuitError(
        "AC analysis requires at least one source with a non-zero AC "
        "magnitude");
  }
}

std::vector<Complex> AcAnalysis::solve(double frequency_hz) const {
  const std::size_t n = system_.unknown_count();
  SweepSolver solver(assembler_, context_);
  solver.factor(linalg::s_of_hz(frequency_hz));
  std::vector<Complex> x(n);
  solver.solve_into(assembler_.rhs(), x);
  return x;
}

Complex AcAnalysis::node_voltage(double frequency_hz,
                                 const std::string& node) const {
  const std::size_t unknown = system_.node_unknown(node);
  if (unknown == kNoUnknown) return Complex{};  // ground
  return solve(frequency_hz)[unknown];
}

AcResponse AcAnalysis::sweep(const FrequencyGrid& grid,
                             const std::string& node) const {
  return sweep(grid.frequencies(), node);
}

AcResponse AcAnalysis::sweep(const std::vector<double>& frequencies_hz,
                             const std::string& node) const {
  auto block = std::make_shared<ResponsePlanes>(frequencies_hz, 1);
  sweep_into(frequencies_hz, node, block->row_re(0), block->row_im(0));
  return AcResponse(std::move(block), 0);
}

void AcAnalysis::sweep_into(const std::vector<double>& frequencies_hz,
                            const std::string& node, double* re,
                            double* im) const {
  FTDIAG_ASSERT(std::is_sorted(frequencies_hz.begin(), frequencies_hz.end()),
                "sweep frequencies must ascend");
  const std::size_t unknown = system_.node_unknown(node);
  if (unknown == kNoUnknown) {
    std::fill_n(re, frequencies_hz.size(), 0.0);
    std::fill_n(im, frequencies_hz.size(), 0.0);
    return;
  }
  // One solver for the whole grid: on the dense backend the matrix buffer
  // ping-pongs between the assembler and the factorization, on the sparse
  // backend the symbolic analysis is refilled per frequency — either way
  // the steady-state loop allocates nothing.  Operation-for-operation each
  // point is solve(), which keeps sweeps bit-identical to point solves.
  SweepSolver solver(assembler_, context_);
  std::vector<Complex> x(system_.unknown_count());
  for (std::size_t i = 0; i < frequencies_hz.size(); ++i) {
    solver.factor(linalg::s_of_hz(frequencies_hz[i]));
    solver.solve_into(assembler_.rhs(), x);
    re[i] = x[unknown].real();
    im[i] = x[unknown].imag();
  }
}

}  // namespace ftdiag::mna
