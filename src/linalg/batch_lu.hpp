/// \file batch_lu.hpp
/// \brief Dense complex LU factorization batched across SIMD lanes.
///
/// `BatchLu<P>` factors P::width independent n x n complex systems at
/// once — lane l of every pack holds system l's entry.  The AC sweep maps
/// one *frequency* to each lane: the golden matrix A(s) = G + s*C has the
/// same structure at every s, so 4–8 frequencies march through pivot
/// search, elimination and the triangular solves in lockstep, turning the
/// per-frequency factor bottleneck of the dictionary build into wide
/// arithmetic.
///
/// Lane independence is exact: each lane runs precisely the scalar
/// algorithm (same pivot-by-|.|^2 search, same unscaled complex division
/// as sherman_morrison_sweep, same operation order), so BatchLu<ScalarPack>
/// is the differential twin of BatchLu<NativePack> lane by lane, and
/// results never depend on which other frequencies share the batch.
/// Differences against LuFactorization<Complex> are confined to rounding:
/// the scalar path compares pivots by std::abs (hypot) and divides through
/// __divdc3, this path compares |.|^2 and divides by conj/|.|^2 — equal
/// values to ~1 ulp, and near-exact ties may pick a different (equally
/// valid) pivot row per lane.
///
/// Storage is split re/im planes: entry (r, c) of all lanes lives at
/// plane[(r*n + c) * width .. +width), 64-byte aligned.  Pivot
/// permutations are tracked per lane.  A solve writes each unknown's
/// lanes at a caller-chosen row stride: split planes, or the
/// [width re | width im] block per unknown that mna::BatchSweepSolver
/// shares with the sparse batch.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "linalg/simd.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace ftdiag::linalg {

template <typename P>
class BatchLu {
public:
  static constexpr std::size_t kWidth = P::width;
  using C = simd::CPack<P>;

  /// Relative singularity threshold — LuFactorization's kPivotTolerance,
  /// applied per lane on squared magnitudes.
  static constexpr double kPivotTolerance = 1e-13;

  BatchLu() = default;

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Pointers into the unfactored matrix planes for entry (r, c): a group
  /// of kWidth contiguous doubles per plane.  The caller (the batched
  /// sweep assembler) writes A(s_l) for every lane l, then calls factor().
  void reshape(std::size_t n) {
    if (n_ == n && !a_re_.empty()) return;
    n_ = n;
    a_re_.assign(n * n * kWidth, 0.0);
    a_im_.assign(n * n * kWidth, 0.0);
    perm_.resize(n * kWidth);
  }
  [[nodiscard]] double* re_at(std::size_t r, std::size_t c) {
    return a_re_.data() + (r * n_ + c) * kWidth;
  }
  [[nodiscard]] double* im_at(std::size_t r, std::size_t c) {
    return a_im_.data() + (r * n_ + c) * kWidth;
  }

  /// Factor all lanes in place (PA = LU per lane, L unit diagonal).
  /// \throws NumericError when any lane is numerically singular — the
  /// same all-or-nothing contract a per-frequency scalar factor sweep
  /// has, since one singular sweep point fails the whole sweep.
  void factor() {
    const std::size_t n = n_;
    // Per-lane scale reference: max |entry|^2, for the relative pivot
    // tolerance (the scalar path uses max |entry|; squaring both sides
    // keeps the comparison equivalent up to rounding).
    P max_sq = P::broadcast(0.0);
    for (std::size_t i = 0; i < n * n; ++i) {
      const C a = C::load(a_re_.data() + i * kWidth, a_im_.data() + i * kWidth);
      max_sq = simd::max(max_sq, a.norm());
    }
    if (!simd::all_of(max_sq > P::broadcast(0.0))) {
      throw NumericError("batched LU of the zero matrix");
    }
    const P tol_sq =
        P::broadcast(kPivotTolerance * kPivotTolerance) * max_sq;

    for (std::size_t lane = 0; lane < kWidth; ++lane) {
      for (std::size_t i = 0; i < n; ++i) perm_[i * kWidth + lane] = i;
    }

    for (std::size_t k = 0; k < n; ++k) {
      // Partial pivoting per lane: largest |.|^2 in column k at/below k.
      P best_sq = C::load(re_at(k, k), im_at(k, k)).norm();
      P best_row = P::broadcast(static_cast<double>(k));
      for (std::size_t r = k + 1; r < n; ++r) {
        const P sq = C::load(re_at(r, k), im_at(r, k)).norm();
        const auto better = sq > best_sq;
        best_sq = simd::select(better, sq, best_sq);
        best_row = simd::select(better, P::broadcast(static_cast<double>(r)),
                                best_row);
      }
      if (simd::any_of(best_sq <= tol_sq)) {
        throw NumericError(str::format(
            "singular matrix in batched LU at column %zu", k));
      }
      // Row swaps.  The lanes are nearby frequencies of one circuit, so
      // they almost always agree on the pivot row — vector-swap that
      // case, fall back to per-lane scalar swaps otherwise.
      const std::size_t row0 = static_cast<std::size_t>(best_row[0]);
      bool uniform = true;
      for (std::size_t lane = 1; lane < kWidth; ++lane) {
        if (static_cast<std::size_t>(best_row[lane]) != row0) {
          uniform = false;
          break;
        }
      }
      if (uniform) {
        if (row0 != k) {
          for (std::size_t c = 0; c < n; ++c) {
            swap_groups(re_at(k, c), re_at(row0, c));
            swap_groups(im_at(k, c), im_at(row0, c));
          }
          for (std::size_t lane = 0; lane < kWidth; ++lane) {
            std::swap(perm_[k * kWidth + lane], perm_[row0 * kWidth + lane]);
          }
        }
      } else {
        for (std::size_t lane = 0; lane < kWidth; ++lane) {
          const std::size_t pr = static_cast<std::size_t>(best_row[lane]);
          if (pr == k) continue;
          for (std::size_t c = 0; c < n; ++c) {
            std::swap(re_at(k, c)[lane], re_at(pr, c)[lane]);
            std::swap(im_at(k, c)[lane], im_at(pr, c)[lane]);
          }
          std::swap(perm_[k * kWidth + lane], perm_[pr * kWidth + lane]);
        }
      }

      // Elimination below the pivot, all lanes at once.
      const C pivot = C::load(re_at(k, k), im_at(k, k));
      for (std::size_t r = k + 1; r < n; ++r) {
        const C factor = C::load(re_at(r, k), im_at(r, k)) / pivot;
        factor.store(re_at(r, k), im_at(r, k));
        for (std::size_t c = k + 1; c < n; ++c) {
          const C update = C::load(re_at(r, c), im_at(r, c)) -
                           factor * C::load(re_at(k, c), im_at(k, c));
          update.store(re_at(r, c), im_at(r, c));
        }
      }
    }
  }

  /// Solve A_l x_l = b for every lane against the shared right-hand side
  /// \p b, writing lane l of unknown i to x_re[i * stride + l] and
  /// x_im[i * stride + l]: split planes at stride kWidth, one
  /// [kWidth re | kWidth im] block per unknown at stride 2 * kWidth with
  /// x_im = x_re + kWidth.  Allocation-free.
  void solve_shared(std::span<const std::complex<double>> b, double* x_re,
                    double* x_im, std::size_t stride) const {
    const std::size_t n = n_;
    FTDIAG_ASSERT(b.size() == n, "rhs size mismatch in batched LU solve");
    // x = P_l b per lane (per-lane permutation gather).
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t lane = 0; lane < kWidth; ++lane) {
        const std::complex<double> v = b[perm_[i * kWidth + lane]];
        x_re[i * stride + lane] = v.real();
        x_im[i * stride + lane] = v.imag();
      }
    }
    const double* a_re = a_re_.data();
    const double* a_im = a_im_.data();
    // Forward substitution (L unit diagonal).
    for (std::size_t i = 0; i < n; ++i) {
      C acc = C::load(x_re + i * stride, x_im + i * stride);
      for (std::size_t j = 0; j < i; ++j) {
        const C l = C::load(a_re + (i * n_ + j) * kWidth,
                            a_im + (i * n_ + j) * kWidth);
        acc = acc - l * C::load(x_re + j * stride, x_im + j * stride);
      }
      acc.store(x_re + i * stride, x_im + i * stride);
    }
    // Back substitution with U.
    for (std::size_t ii = n; ii-- > 0;) {
      C acc = C::load(x_re + ii * stride, x_im + ii * stride);
      for (std::size_t j = ii + 1; j < n; ++j) {
        const C u = C::load(a_re + (ii * n_ + j) * kWidth,
                            a_im + (ii * n_ + j) * kWidth);
        acc = acc - u * C::load(x_re + j * stride, x_im + j * stride);
      }
      const C diag = C::load(a_re + (ii * n_ + ii) * kWidth,
                             a_im + (ii * n_ + ii) * kWidth);
      (acc / diag).store(x_re + ii * stride, x_im + ii * stride);
    }
  }

  /// Row i of A went to position perm(i, lane) after pivoting — exposed
  /// for tests.
  [[nodiscard]] std::size_t perm(std::size_t i, std::size_t lane) const {
    return perm_[i * kWidth + lane];
  }

private:
  static void swap_groups(double* a, double* b) {
    const P pa = P::load(a);
    const P pb = P::load(b);
    pb.store(a);
    pa.store(b);
  }

  std::size_t n_ = 0;
  simd::AlignedVector a_re_, a_im_;
  std::vector<std::size_t> perm_;
};

}  // namespace ftdiag::linalg
