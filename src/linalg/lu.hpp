/// \file lu.hpp
/// \brief Dense LU factorization with partial pivoting.
///
/// The factorization object owns the packed LU matrix plus the pivot
/// permutation and can be reused for many right-hand sides — the AC sweep
/// factors once per frequency and solves for each independent source.
///
/// Two entry points serve the allocation-free sweep hot path:
///   - factor_in_place() adopts a caller-assembled matrix by O(1) buffer
///     swap and hands the previous buffer back, so the caller re-assembles
///     into warm storage on the next frequency;
///   - solve_into() writes into caller-owned memory.
/// See src/linalg/README.md for the workspace contract.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace ftdiag::linalg {

/// LU factorization PA = LU (L unit-diagonal, packed in place).
template <typename T>
class LuFactorization {
public:
  /// An empty factorization; factor_in_place() before solving.
  LuFactorization() = default;

  /// Factor \p a (copied). \throws ftdiag::NumericError if \p a is not
  /// square or is numerically singular.
  explicit LuFactorization(Matrix<T> a);

  /// Factor \p a in place: the matrix buffer is swapped into this object
  /// (no copy) and \p a receives the previous factorization's equally
  /// sized buffer — assemble the next system into it and the sweep never
  /// allocates after warm-up.  \throws ftdiag::NumericError on a
  /// non-square or singular matrix (the swap has already happened; the
  /// factorization is unusable until the next successful factor).
  void factor_in_place(Matrix<T>& a);

  /// Solve A x = b into caller-owned \p x (size n, distinct from b).
  /// Allocation-free.
  void solve_into(std::span<const T> b, std::span<T> x) const;

  /// Solve A x = b.  \p b must have size n.
  [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const;

  /// Determinant of A (product of U diagonal times pivot sign).
  [[nodiscard]] T determinant() const;

  /// Cheap condition estimate: max|U_ii| / min|U_ii|.  A large value warns
  /// of an ill-conditioned MNA system (e.g. badly scaled components).
  [[nodiscard]] double diagonal_condition_estimate() const;

  [[nodiscard]] std::size_t size() const { return lu_.rows(); }

  /// Number of row swaps performed (parity gives the pivot sign).
  [[nodiscard]] std::size_t swap_count() const { return swaps_; }

private:
  void factor();

  Matrix<T> lu_;
  std::vector<std::size_t> perm_;  ///< row i of PA is row perm_[i] of A
  std::size_t swaps_ = 0;
};

/// Convenience: factor and solve a single system.
template <typename T>
[[nodiscard]] std::vector<T> solve_dense(Matrix<T> a, const std::vector<T>& b) {
  return LuFactorization<T>(std::move(a)).solve(b);
}

extern template class LuFactorization<double>;
extern template class LuFactorization<std::complex<double>>;

}  // namespace ftdiag::linalg
