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
///   - each sweep lane owns a solver and calls `factor` + a solve per
///     frequency with zero steady-state allocations on both backends.
///     `SweepSolver` factors one frequency; `BatchSweepSolver<P>` (dense)
///     and `SparseBatchSolver<P>` (sparse) factor P::width of them at
///     once, one per SIMD lane, behind one contract — `factor(s, valid)`
///     and `solve_read_set` into a [width re | width im] block per
///     unknown — so the engine's golden phase is one body over either.
///     The sparse batch is one pack kernel that loads G + s*C into the
///     frozen pattern, replays the compiled elimination schedule
///     (linalg::SparseFactorization::refactor_lanes) and solves for the
///     read set alone; every lane gets the bits a one-frequency factor
///     gives it, and `SweepSolver`'s sparse backend is that kernel's
///     ScalarPack instantiation.
///
/// Determinism: the Context depends only on the circuit, the read set and
/// the fixed reference point, never on which frequencies were solved
/// first or how many threads are sweeping — so dictionaries built through
/// this seam are bit-identical for any thread count.  When the frozen
/// pivot order breaks down numerically at some point, that lane alone
/// falls back to a fresh local analysis *for that point only* (counted by
/// `ftdiag_sparse_pivot_breakdowns_total`); the shared Context is never
/// mutated, and the lanes sharing its batch keep their bits.
#pragma once

#include <array>
#include <memory>
#include <optional>
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

/// Immutable per-circuit preparation shared by all lanes of a sweep
/// (SweepSolver::analyze builds it).
struct SweepContext {
  bool sparse = false;
  /// Sparse backend: the analysis at the canonical reference point, whose
  /// pattern and schedule every lane refactors.  May be unanalyzed when
  /// the reference-point analysis failed (e.g. singular there); lanes
  /// then run a fresh analysis per frequency instead of reusing a pattern.
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

/// SweepSolver's batched dense sibling: factor/solve P::width frequencies
/// at once, one frequency per SIMD lane, against the same immutable dense
/// Context.  The batch goes through the SweepAssembler's SIMD G + s*C
/// combine and linalg::BatchLu, so pivot search, elimination and the
/// triangular solves all run as wide arithmetic.
///
/// Its contract is SparseBatchSolver's: factor(s, valid), and solves
/// into blocks of n unknowns of kStride doubles, lane l of unknown i at
/// (x[i * kStride + l], x[i * kStride + kWidth + l]).  A dense factor
/// has no read set, so solve_read_set() solves every unknown.
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
  static constexpr std::size_t kStride = 2 * kWidth;

  BatchSweepSolver(const SweepAssembler& assembler,
                   std::shared_ptr<const SweepContext> context)
      : assembler_(&assembler),
        context_(std::move(context)),
        rhs_(assembler.size()) {
    FTDIAG_ASSERT(context_ != nullptr && !context_->sparse,
                  "batched sweep solver needs an analyzed dense context");
  }

  /// Assemble and factor A(s_l) for every lane; \p s must hold kWidth
  /// Laplace points, of which the first \p valid are real.  Callers pad a
  /// short tail by replicating the last frequency, so every lane is
  /// factored.  \throws NumericError if any lane is singular.
  void factor(std::span<const Complex> s, std::size_t valid = kWidth) {
    FTDIAG_ASSERT(s.size() == kWidth && valid >= 1 && valid <= kWidth,
                  "batched factor needs kWidth points, one or more real");
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

  /// Solve every lane against the shared right-hand side \p b, given as
  /// (row, value) entries summed in order, into \p x (n unknowns of
  /// kStride doubles).  Allocation-free.
  void solve_read_set(std::span<const std::pair<std::size_t, Complex>> b,
                      double* x) {
    for (const auto& [row, value] : b) rhs_[row] += value;
    lu_.solve_shared(rhs_, x, x + kWidth, kStride);
    for (const auto& entry : b) rhs_[entry.first] = Complex{};
  }

private:
  const SweepAssembler* assembler_;
  std::shared_ptr<const SweepContext> context_;
  linalg::BatchLu<P> lu_;
  std::vector<Complex> rhs_;  ///< all zero between solves
  std::array<double, kWidth> s_re_{}, s_im_{};
};

/// The sparse backend's batch: factor/solve P::width frequencies at once
/// against one analyzed sparse Context, one frequency per SIMD lane —
/// P is ScalarPack (SweepSolver's sparse backend, and the engine in an
/// FTDIAG_SIMD=OFF build) or the 4-wide Pack4.
///
/// The lanes' factor values live in one block, allocated uninitialized
/// at construction so its pages are first touched by the first factor,
/// on the thread that runs it.  It is interleaved per slot as
/// [width re | width im] — one 64-byte line per slot at width 4.  A
/// factor loads G + s_l*C into every lane and refactors all of them in
/// one pass over the compiled schedule; solves write every lane of x,
/// laid out the same way per unknown.  Every lane gets the bits the
/// ScalarPack instantiation gives its frequency.  A real lane whose
/// frozen pivot breaks down gets a fresh point-local analysis (counted),
/// whose solutions are scattered into its lane; padding lanes never fall
/// back or count.
template <typename P>
class SparseBatchSolver {
public:
  static constexpr std::size_t kWidth = P::width;
  /// Doubles per unknown of a solution block: lane l's value at unknown i
  /// is (x[i * kStride + l], x[i * kStride + kWidth + l]).
  static constexpr std::size_t kStride = 2 * kWidth;

  SparseBatchSolver(const SweepAssembler& assembler,
                    std::shared_ptr<const SweepContext> context);

  /// Load and factor A(s_l) = G + s_l*C for every lane; \p s holds kWidth
  /// Laplace points, of which the first \p valid are real (callers pad a
  /// short tail by replicating the last frequency).  Zero allocations in
  /// steady state.  \throws NumericError if a real lane's fresh analysis
  /// finds its matrix singular.
  void factor(std::span<const Complex> s, std::size_t valid = kWidth);

  /// Solve every lane against the shared right-hand side \p b into \p x
  /// (n unknowns of kStride doubles).  Allocation-free unless a lane fell
  /// back to a fresh analysis.
  void solve_into(std::span<const Complex> b, double* x) const;

  /// The same for the context's read set, with \p b as (row, value)
  /// entries; on return x holds every lane's solution at every read-set
  /// unknown, and its other entries are scratch.
  void solve_read_set(std::span<const std::pair<std::size_t, Complex>> b,
                      double* x) const;

private:
  /// Overwrite lane l of \p x at \p unknowns (every unknown when empty)
  /// with \p solve's solution from lane l's fresh analysis, for every
  /// lane that has one.
  template <typename Solve>
  void scatter_fresh(double* x, std::span<const std::size_t> unknowns,
                     const Solve& solve) const;

  const SweepAssembler* assembler_;
  std::shared_ptr<const SweepContext> context_;
  linalg::simd::AlignedBuffer values_;
  /// Lane l's fresh analysis, valid while bit l of fresh_lanes_ is set.
  std::array<linalg::SparseFactorization<Complex>, kWidth> fresh_;
  unsigned fresh_lanes_ = 0;
  linalg::CooMatrix<Complex> coo_;  ///< assembles the fresh analyses
};

class SweepSolver {
public:
  using Context = SweepContext;

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

  /// Assemble and factor A(s); zero allocations in steady state on both
  /// backends.  \throws NumericError if A(s) is singular.
  void factor(Complex s);

  /// Solve A x = b with the last factorization (allocation-free).
  void solve_into(std::span<const Complex> b, std::span<Complex> x) const;

  /// Sparse backend only: solve A x = b for the context's read set, with
  /// \p b as (row, value) entries.  \p x has size n; on return it holds
  /// the solution at every read-set unknown, and its other entries are
  /// scratch.  Allocation-free.
  void solve_read_set(std::span<const std::pair<std::size_t, Complex>> b,
                      std::span<Complex> x) const;

  [[nodiscard]] bool sparse() const { return context_->sparse; }
  [[nodiscard]] std::size_t size() const { return assembler_->size(); }

private:
  const SweepAssembler* assembler_;
  std::shared_ptr<const Context> context_;

  // Dense backend state.
  linalg::Matrix<Complex> a_;
  linalg::LuFactorization<Complex> lu_;

  /// Sparse backend state: a one-lane batch, whose kernels are the
  /// ScalarPack twins of the wide ones.
  std::optional<SparseBatchSolver<linalg::simd::ScalarPack>> sparse_;
};

}  // namespace ftdiag::mna
