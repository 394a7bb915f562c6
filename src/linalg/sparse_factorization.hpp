/// \file sparse_factorization.hpp
/// \brief Pattern-reusing sparse LU: a fill-reducing symbolic analysis once
/// per circuit, allocation-free numeric refactorization per frequency
/// point, and a solve that computes only the unknowns the caller reads.
///
/// The AC sweep factors the same sparsity pattern at every Laplace point —
/// A(s) = G + s*C has a frequency-invariant structure — so the work splits
/// the way circuit simulators split it:
///
///   1. **Symbolic phase** (construction).  Columns are ordered by minimum
///      degree on the graph of A + A^T (Tinney & Walker), ties broken by
///      index, so the order depends on the structure alone.  An optional
///      *trailing* set of unknowns (the ones a caller reads) is ordered
///      after every other column.  Elimination then walks that order with
///      threshold pivoting: a row is acceptable when its entry is at least
///      pivot_threshold times the column's largest candidate, and among
///      acceptable rows the winner is the first by (row outside the
///      column's block, active row length, off-diagonal, row index) — so
///      the trailing set's own rows stay in the trailing block whenever
///      they are acceptable.  Candidate rows come from a per-column index.
///      Entries that cancel to exactly 0.0 stay in the pattern as explicit
///      zeros, so the pattern is a function of the input structure only.
///   2. **Numeric phase** (`refactor`).  The caller writes A's values into
///      the frozen pattern's slots (`slot()` maps an entry once, `values()`
///      is the array) and the elimination replays an update schedule the
///      symbolic phase compiled: per factor row, each multiplier slot's
///      pivot, and for every (multiplier, U entry) pair the destination
///      slot in the row being eliminated.  The replay updates the slots in
///      place — no dense accumulator, no scatter/gather, no column lookups,
///      no allocation — with O(flops of the factor) work.
///      `refactor_pair` replays the schedule over two value sets of one
///      analysis at once, so each one's pivot -> reciprocal -> next-row
///      latency chain overlaps the other's.  Every slot sees the same
///      operations in the same order either way, so a paired refactor is
///      bit-identical to two single ones.
///   3. **Solves.**  `solve_into` is the full solve.  `solve_trailing`
///      computes the trailing unknowns only: forward substitution starts
///      at the first nonzero row of the permuted right-hand side and back
///      substitution covers the trailing block alone.  When the
///      right-hand side's rows pivot inside the trailing block, a solve
///      costs O(trailing block²) instead of O(factor) — computing only
///      the entries of A^-1 that are needed (Erisman & Tinney).
///
/// Copies share the immutable symbolic phase and its schedule (cheap
/// per-lane clones for parallel sweeps); each copy owns its numeric
/// values, so concurrent refactor/solve on different copies is safe.
///
/// `refactor` throws NumericError when the frozen pivot order turns
/// numerically unacceptable at the new values (a pivot collapsing towards
/// zero); callers fall back to a fresh full analysis at that point.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "linalg/sparse.hpp"

namespace ftdiag::linalg {

template <typename T>
class SparseFactorization {
public:
  /// An empty object; assign from an analyzed one before use.
  SparseFactorization() = default;

  /// Symbolic analysis + first numeric factorization of \p a, with the
  /// unknowns listed in \p trailing ordered last.
  /// \param pivot_threshold in (0,1]; see the file comment.
  /// \throws NumericError on a non-square, zero or singular matrix.
  explicit SparseFactorization(const CooMatrix<T>& a,
                               std::span<const std::size_t> trailing = {},
                               double pivot_threshold = 0.1);

  /// Index into values() of entry (row, col) of A.  Map an entry list
  /// once, then refill values() per point.  \throws NumericError when
  /// (row, col) lies outside the analyzed pattern.
  [[nodiscard]] std::size_t slot(std::size_t row, std::size_t col) const;

  /// The numeric values, one per pattern slot.  Before refactor(): A's
  /// entries summed into their slot(), every other slot zero.
  [[nodiscard]] std::span<T> values() { return values_; }

  /// Allocation-free numeric refactorization of the values written into
  /// values(), reusing the analysis' pivot order and fill pattern.
  /// \throws NumericError when a reused pivot is numerically unacceptable
  /// for these values; the factorization is unusable until the next
  /// successful refactor.
  void refactor();

  /// refactor() of \p a and \p b — copies sharing one analysis, their
  /// values() written — in one pass over the schedule.  Bit-identical to
  /// a.refactor() and b.refactor().  \throws NumericError when a reused
  /// pivot breaks down in either; both are then unusable until their next
  /// successful refactor, and which one broke down is only learned by
  /// refactoring them one at a time.
  static void refactor_pair(SparseFactorization& a, SparseFactorization& b);

  /// Refill from \p a — a structural subset of the analyzed pattern, e.g.
  /// the reactive part vanishing at s = 0 — and refactor().  \throws
  /// NumericError as refactor() does, or when an entry falls outside the
  /// pattern.
  void refactor(const CooMatrix<T>& a);

  /// Solve A x = b into caller-owned \p x (size n, distinct storage from
  /// \p b).  Allocation-free.
  void solve_into(std::span<const T> b, std::span<T> x) const;

  /// Solve A x = b for the trailing unknowns only.  \p b is given as
  /// (row, value) entries, duplicates summed.  \p x has size n; on return
  /// it holds the solution at every trailing unknown, and its other
  /// entries are scratch.  Allocation-free.
  void solve_trailing(std::span<const std::pair<std::size_t, T>> b,
                      std::span<T> x) const;

  /// Convenience single solve.
  [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const;

  [[nodiscard]] bool analyzed() const { return symbolic_ != nullptr; }
  [[nodiscard]] std::size_t size() const;

  /// Non-zeros (pattern positions) in the combined L+U factors.  Fixed by
  /// the symbolic phase: value-independent by construction.
  [[nodiscard]] std::size_t factor_nnz() const;

private:
  /// The immutable outcome of the symbolic phase, shared across copies.
  /// Pivot k eliminates column order[k] with row perm[k] of A; factor row
  /// k holds its L multipliers, then the pivot, then its U entries, in
  /// ascending pivot position of their columns.
  struct Symbolic {
    std::size_t n = 0;
    std::size_t trailing = 0;            ///< pivots [n - trailing, n)
    std::vector<std::size_t> row_start;  ///< size n+1, offsets into col
    std::vector<std::size_t> col;        ///< column of A at each slot
    std::vector<std::size_t> diag;       ///< slot of pivot k
    std::vector<std::size_t> perm;       ///< row of A at pivot k
    std::vector<std::size_t> inv_perm;   ///< pivot of row r of A
    std::vector<std::size_t> order;      ///< column of A at pivot k
    std::vector<std::size_t> position;   ///< pivot of column c of A
    /// The compiled elimination, in replay order.  The L slots of every
    /// row, ascending, each name the pivot j whose U entries they apply;
    /// each such U entry's update lands in the slot that follows in
    /// update_slot.  Pivot j's U-row length gives the count.
    std::vector<std::uint32_t> multiplier_pivot;  ///< per L slot
    std::vector<std::uint32_t> update_slot;  ///< per (multiplier, U entry)
  };

  /// The numeric refactor of N copies sharing one analysis, replaying the
  /// schedule once for all of them.
  template <std::size_t N>
  static void replay(const std::array<SparseFactorization*, N>& factors);

  /// Forward substitution over pivots [first, n), then back substitution
  /// over pivots [back_from, n), on \p x indexed by unknown (pivot k's
  /// value at x[order[k]]).
  void substitute(std::size_t first, std::size_t back_from,
                  std::span<T> x) const;

  std::shared_ptr<const Symbolic> symbolic_;
  std::vector<T> values_;     ///< factor values in slot order
  std::vector<T> inv_pivot_;  ///< 1 / pivot k, reused by refactor and solves
};

extern template class SparseFactorization<double>;
extern template class SparseFactorization<std::complex<double>>;

}  // namespace ftdiag::linalg
