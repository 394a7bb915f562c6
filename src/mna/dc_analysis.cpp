#include "mna/dc_analysis.hpp"

#include "linalg/lu.hpp"
#include "linalg/sparse_factorization.hpp"
#include "util/error.hpp"

namespace ftdiag::mna {

DcAnalysis::DcAnalysis(const netlist::Circuit& circuit) : system_(circuit) {}

std::vector<double> DcAnalysis::solve() const {
  const std::size_t n = system_.unknown_count();
  linalg::CooMatrix<double> matrix(n, n);
  std::vector<double> rhs(n, 0.0);
  system_.assemble_dc(matrix, rhs);
  // Same dense/sparse auto-selection boundary as the AC path — one shared
  // constant instead of a drifting hardcoded copy.
  if (n <= SweepAssembler::kDenseLimit) {
    return linalg::LuFactorization<double>(matrix.to_dense()).solve(rhs);
  }
  return linalg::SparseFactorization<double>(matrix).solve(rhs);
}

double DcAnalysis::node_voltage(const std::string& node) const {
  const std::size_t unknown = system_.node_unknown(node);
  if (unknown == kNoUnknown) return 0.0;
  return solve()[unknown];
}

double DcAnalysis::branch_current(const std::string& component) const {
  return solve()[system_.branch_unknown(component)];
}

}  // namespace ftdiag::mna
