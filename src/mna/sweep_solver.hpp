/// \file sweep_solver.hpp
/// \brief Backend-neutral per-frequency factor/solve seam for AC sweeps.
///
/// `SweepSolver` hides the dense-vs-sparse choice behind one contract:
///
///   - `analyze()` builds an immutable per-circuit Context ONCE: it picks
///     the backend (by unknown count, or forced) and runs the expensive
///     value-independent preparation — the sparse symbolic analysis at a
///     fixed canonical reference point, with an optional read set ordered
///     last, plus the map from the assembler's G and C entry lists to the
///     frozen pattern; or the dense premerge of G when the backend is
///     forced dense past the assembler's premerge limit.
///   - each sweep lane owns one `SweepSolver` (cheap: sparse clones share
///     the symbolic phase) and calls `factor(s)` + a solve per frequency
///     with zero steady-state allocations on both backends.  On the sparse
///     backend `solve_read_set` computes the read set alone, and
///     `factor_pair(s0, s1)` factors two frequencies in one replay of the
///     compiled elimination schedule (linalg::SparseFactorization::
///     refactor_pair), bit-identical to factoring them one at a time.
///
/// Determinism: the Context depends only on the circuit, the read set and
/// the fixed reference point, never on which frequencies were solved
/// first or how many threads are sweeping — so dictionaries built through
/// this seam are bit-identical for any thread count.  When the frozen
/// pivot order breaks down numerically at some point, that lane falls
/// back to a fresh local analysis *for that point only* (counted by
/// `ftdiag_sparse_pivot_breakdowns_total`); the shared Context is never
/// mutated.  A pair whose replay breaks down is refactored one point at a
/// time, so the count and the fallback stay with the point that broke.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "linalg/batch_lu.hpp"
#include "linalg/lu.hpp"
#include "linalg/simd.hpp"
#include "linalg/sparse_factorization.hpp"
#include "mna/system.hpp"

namespace ftdiag::mna {

/// Which factorization backend a sweep runs on.
enum class SolverBackend {
  kAuto,    ///< dense up to SweepAssembler::kDenseLimit, sparse beyond
  kDense,   ///< dense LU regardless of size (benchmark baseline)
  kSparse,  ///< pattern-reusing sparse LU regardless of size
};

class SweepSolver {
public:
  /// Immutable per-circuit preparation shared by all lanes of a sweep.
  struct Context {
    bool sparse = false;
    /// Sparse backend: factorization analyzed at the canonical reference
    /// point, cloned per lane.  May be unanalyzed when the reference-point
    /// analysis failed (e.g. singular there); lanes then run a fresh
    /// analysis per frequency instead of reusing a pattern.
    linalg::SparseFactorization<Complex> prototype;
    /// Sparse backend: the unknowns ordered last, by the prototype and by
    /// every point-local fresh analysis.
    std::vector<std::size_t> read_set;
    /// Sparse backend: the prototype's value slots holding G (merged in
    /// stamp order), and the slot of each nonzero reactive entry — a
    /// refactor starts from a copy of g_values and adds s * C.
    std::vector<Complex> g_values;
    std::vector<std::pair<std::size_t, double>> c_slots;
    /// Forced-dense backend past the assembler's premerge limit: G merged
    /// densely here (the assembler only premerges up to kDenseLimit).
    linalg::Matrix<Complex> g_dense;
  };

  /// The fixed Laplace reference point (in Hz) of the symbolic analysis.
  /// Any positive frequency sees the full G + s*C sparsity union (real
  /// static and imaginary reactive parts cannot cancel), so the analyzed
  /// pattern covers every sweep point; the value only influences the
  /// frozen pivot magnitudes.
  static constexpr double kReferenceHz = 1e3;

  /// One-time per-circuit preparation.  On the sparse backend the
  /// unknowns in \p read_set are ordered last, so solve_read_set() can
  /// stop at them.  Never throws on numeric trouble — a failed sparse
  /// reference analysis degrades to per-point analysis.
  [[nodiscard]] static std::shared_ptr<const Context> analyze(
      const SweepAssembler& assembler, SolverBackend backend,
      std::span<const std::size_t> read_set = {});

  /// A per-lane solver over \p assembler with shared \p context.  The
  /// assembler must outlive the solver; the context is retained.
  SweepSolver(const SweepAssembler& assembler,
              std::shared_ptr<const Context> context);

  /// Assemble and factor A(s) as point 0; zero allocations in steady
  /// state on both backends.  \throws NumericError if A(s) is singular.
  void factor(Complex s);

  /// Sparse backend only: factor A(s0) as point 0 and A(s1) as point 1,
  /// bit-identical to factor(s0) and a one-point factor(s1), with zero
  /// allocations in steady state.  \throws NumericError if either is
  /// singular.
  void factor_pair(Complex s0, Complex s1);

  /// Solve A x = b with point 0's factorization (allocation-free).
  void solve_into(std::span<const Complex> b, std::span<Complex> x) const;

  /// Sparse backend only: solve A x = b at \p point (0, or 1 after
  /// factor_pair) for the context's read set, with \p b as (row, value)
  /// entries.  \p x has size n; on return it holds the solution at every
  /// read-set unknown, and its other entries are scratch.
  /// Allocation-free.
  void solve_read_set(std::span<const std::pair<std::size_t, Complex>> b,
                      std::span<Complex> x, std::size_t point = 0) const;

  [[nodiscard]] bool sparse() const { return context_->sparse; }
  [[nodiscard]] std::size_t size() const { return assembler_->size(); }

private:
  /// Sparse backend state of one factored frequency.  `reused` clones the
  /// context prototype and is refilled per frequency; `fresh` holds a
  /// point-local full analysis when the frozen pivot order is numerically
  /// unusable at that point.  Both points are cloned up front, on the
  /// thread that builds the solver.
  struct SparsePoint {
    linalg::SparseFactorization<Complex> reused;
    linalg::SparseFactorization<Complex> fresh;
    bool use_fresh = false;

    [[nodiscard]] const linalg::SparseFactorization<Complex>& lu() const {
      return use_fresh ? fresh : reused;
    }
  };

  /// Write G + s*C into \p lu's values through the context's slot maps.
  void load(linalg::SparseFactorization<Complex>& lu, Complex s) const;
  /// Factor A(s) into \p point alone, falling back to a fresh analysis.
  void factor_point(SparsePoint& point, Complex s);

  const SweepAssembler* assembler_;
  std::shared_ptr<const Context> context_;

  // Dense backend state.
  linalg::Matrix<Complex> a_;
  linalg::LuFactorization<Complex> lu_;

  // Sparse backend state; `coo_` assembles the fresh analyses.
  linalg::CooMatrix<Complex> coo_{0, 0};
  std::array<SparsePoint, 2> points_;
};

/// SweepSolver's batched dense sibling: factor/solve P::width frequencies
/// at once, one frequency per SIMD lane, against the same immutable dense
/// Context.  The batch goes through the SweepAssembler's SIMD G + s*C
/// combine and linalg::BatchLu, so pivot search, elimination and the
/// multi-RHS solves all run as wide arithmetic.
///
/// Outputs are split re/im planes of layout [slot * width + lane]: lane l
/// of pack slot i holds frequency l's solution component i, i.e. the
/// frequency-major SoA form the Sherman–Morrison sweep consumes directly
/// (no transpose pass).
///
/// Determinism: which frequencies share a batch is fixed by the caller's
/// batching (width-determined, never thread-determined), and lanes are
/// arithmetically independent, so results are bit-stable across thread
/// counts and identical for ScalarPack/NativePack instantiations up to
/// multiply-add contraction.
template <typename P>
class BatchSweepSolver {
public:
  static constexpr std::size_t kWidth = P::width;

  BatchSweepSolver(const SweepAssembler& assembler,
                   std::shared_ptr<const SweepSolver::Context> context)
      : assembler_(&assembler), context_(std::move(context)) {
    FTDIAG_ASSERT(context_ != nullptr && !context_->sparse,
                  "batched sweep solver needs an analyzed dense context");
  }

  /// Assemble and factor A(s_l) for every lane; \p s must hold kWidth
  /// Laplace points (callers pad short tails by replicating the last
  /// frequency).  \throws NumericError if any lane is singular.
  void factor(std::span<const Complex> s) {
    FTDIAG_ASSERT(s.size() == kWidth, "batched factor needs kWidth points");
    linalg::simd::CPack<P> pack;
    for (std::size_t lane = 0; lane < kWidth; ++lane) {
      s_re_[lane] = s[lane].real();
      s_im_[lane] = s[lane].imag();
    }
    pack.re = P::load(s_re_.data());
    pack.im = P::load(s_im_.data());
    assembler_->assemble_batch(
        pack, lu_, context_->g_dense.empty() ? nullptr : &context_->g_dense);
    lu_.factor();
  }

  /// Solve every lane against the shared right-hand side \p b into split
  /// planes x_re/x_im of layout [i * kWidth + lane].
  void solve_shared(std::span<const Complex> b, double* x_re, double* x_im) {
    lu_.solve_shared(b, x_re, x_im);
  }

  /// Solve against shared columns (column c of \p b at [c*n, c*n + n))
  /// into planes of layout [(c*n + i) * kWidth + lane].
  void solve_shared_multi(std::span<const Complex> b, std::size_t cols,
                          double* x_re, double* x_im) {
    lu_.solve_shared_multi(b, cols, x_re, x_im);
  }

private:
  const SweepAssembler* assembler_;
  std::shared_ptr<const SweepSolver::Context> context_;
  linalg::BatchLu<P> lu_;
  std::array<double, kWidth> s_re_{}, s_im_{};
};

}  // namespace ftdiag::mna
