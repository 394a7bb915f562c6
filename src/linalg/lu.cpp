#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ftdiag::linalg {

namespace {

/// Singularity threshold relative to the largest pivot candidate seen.
constexpr double kPivotTolerance = 1e-13;

}  // namespace

template <typename T>
LuFactorization<T>::LuFactorization(Matrix<T> a) : lu_(std::move(a)) {
  factor();
}

template <typename T>
void LuFactorization<T>::factor_in_place(Matrix<T>& a) {
  lu_.swap(a);
  factor();
}

template <typename T>
void LuFactorization<T>::factor() {
  if (!lu_.square()) {
    throw NumericError("LU requires a square matrix");
  }
  const std::size_t n = lu_.rows();
  swaps_ = 0;
  perm_.resize(n);  // allocates only when n grows past previous factors
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  // Scale reference for the singularity test.
  double max_entry = lu_.max_abs();
  if (max_entry == 0.0) {
    throw NumericError("LU of the zero matrix");
  }

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag <= kPivotTolerance * max_entry) {
      throw NumericError(str::format(
          "singular matrix in LU at column %zu (pivot %.3e, scale %.3e)", k,
          pivot_mag, max_entry));
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(k, c), lu_(pivot_row, c));
      }
      std::swap(perm_[k], perm_[pivot_row]);
      ++swaps_;
    }
    const T pivot = lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const T factor = lu_(r, k) / pivot;
      lu_(r, k) = factor;
      if (factor == T{}) continue;
      const T* krow = lu_.row_data(k);
      T* rrow = lu_.row_data(r);
      for (std::size_t c = k + 1; c < n; ++c) rrow[c] -= factor * krow[c];
    }
  }
}

template <typename T>
void LuFactorization<T>::solve_into(std::span<const T> b,
                                    std::span<T> x) const {
  const std::size_t n = size();
  FTDIAG_ASSERT(b.size() == n && x.size() == n,
                "rhs/solution size mismatch in LU solve");
  // Apply permutation, then forward substitution (L unit diagonal).
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  for (std::size_t i = 0; i < n; ++i) {
    const T* row = lu_.row_data(i);
    T acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    const T* row = lu_.row_data(ii);
    T acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= row[j] * x[j];
    x[ii] = acc / row[ii];
  }
}

template <typename T>
std::vector<T> LuFactorization<T>::solve(const std::vector<T>& b) const {
  std::vector<T> x(size());
  solve_into(b, x);
  return x;
}

template <typename T>
T LuFactorization<T>::determinant() const {
  T det = (swaps_ % 2 == 0) ? T{1} : T{-1};
  for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

template <typename T>
double LuFactorization<T>::diagonal_condition_estimate() const {
  double max_d = 0.0;
  double min_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < size(); ++i) {
    const double d = std::abs(lu_(i, i));
    max_d = std::max(max_d, d);
    min_d = std::min(min_d, d);
  }
  return min_d > 0.0 ? max_d / min_d
                     : std::numeric_limits<double>::infinity();
}

template class LuFactorization<double>;
template class LuFactorization<std::complex<double>>;

}  // namespace ftdiag::linalg
