/// \file sparse_factorization.hpp
/// \brief Pattern-reusing sparse LU: a fill-reducing symbolic analysis once
/// per circuit, allocation-free numeric refactorization per frequency
/// point, and a solve that computes only the unknowns the caller reads.
///
/// The AC sweep factors the same sparsity pattern at every Laplace point —
/// A(s) = G + s*C has a frequency-invariant structure — so the work splits
/// the way circuit simulators split it:
///
///   1. **Symbolic phase** (construction).  A's entries are assembled by
///      two stable counting sorts, duplicates summed in entry order — the
///      rounding of a running `sum += value` — and entries that cancel to
///      exactly 0.0 stay in the pattern as explicit zeros, so the pattern
///      is a function of the input structure only.  Columns are ordered by
///      minimum degree on the graph of A + A^T (Tinney & Walker), ties
///      broken by index, so the order depends on the structure alone.  An
///      optional *trailing* set of unknowns (the ones a caller reads) is
///      ordered after every other column.  The elimination graph stays
///      implicit, as a quotient graph with element absorption (George &
///      Liu): no clique is built, degrees are exact unions counted with a
///      marker array, and a min-tournament over packed (flag, degree,
///      index) keys picks each pivot.  Elimination then walks that order
///      with threshold pivoting: a row is acceptable when its entry is at
///      least pivot_threshold times the column's largest candidate, and
///      among acceptable rows the winner is the first by (row outside the
///      column's block, active row length, off-diagonal, row index) — so
///      the trailing set's own rows stay in the trailing block whenever
///      they are acceptable.  Rows live in one flat arena, each sized by
///      the symmetric fill minimum degree predicts and moved to the
///      arena's end only if threshold pivoting fills it further; a
///      column's candidate rows are a list threaded through one node per
///      entry.  Every step works in a handful of arrays, so an analysis
///      makes a few dozen allocations whatever n, none per row or entry.
///      The analysis also records each input entry's slot
///      (`entry_slots()`).
///   2. **Numeric phase** (`refactor`).  The caller writes A's values into
///      the frozen pattern's slots (`slot()` maps an entry once, `values()`
///      is the array) and the elimination replays an update schedule the
///      symbolic phase compiled: per factor row, each multiplier slot's
///      pivot, and for every (multiplier, U entry) pair the destination
///      slot in the row being eliminated.  The replay updates the slots in
///      place — no dense accumulator, no scatter/gather, no column lookups,
///      no allocation — with O(flops of the factor) work, and leaves each
///      pivot's reciprocal in its diagonal slot.  It is one pack kernel
///      (`refactor_lanes<P>`) over P::width value sets held by the caller,
///      interleaved slot by slot ([W re | W im] per complex slot: one
///      64-byte line at W = 4); `refactor()` is its ScalarPack
///      instantiation on the object's own values.  Every rounding is
///      spelled out, so each lane gets the bits `refactor()` gives that
///      value set, and a lane whose pivot breaks down leaves the others
///      untouched.
///   3. **Solves.**  `solve_into` is the full solve.  `solve_trailing`
///      computes the trailing unknowns only: forward substitution starts
///      at the first nonzero row of the permuted right-hand side and back
///      substitution covers the trailing block alone.  When the
///      right-hand side's rows pivot inside the trailing block, a solve
///      costs O(trailing block²) instead of O(factor) — computing only
///      the entries of A^-1 that are needed (Erisman & Tinney).  Both are
///      the ScalarPack instantiations of the lane kernels `solve_lanes`
///      and `solve_trailing_lanes`, which solve every lane of a
///      `refactor_lanes` value block against one shared right-hand side.
///
/// Copies share the immutable symbolic phase and its schedule; each copy
/// owns its numeric values, so concurrent refactor/solve on different
/// copies is safe, and so are lane kernels on distinct value blocks.
///
/// `refactor` throws NumericError when the frozen pivot order turns
/// numerically unacceptable at the new values (a pivot collapsing towards
/// zero); `refactor_lanes` flags the lanes where it does.  Callers fall
/// back to a fresh full analysis at that point.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
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

  /// slot() of every entry of the analyzed matrix, in entry order: the
  /// analysis places each entry, so no lookup searches.
  [[nodiscard]] std::span<const std::uint32_t> entry_slots() const;

  /// The numeric values, one per pattern slot.  Before refactor(): A's
  /// entries summed into their slot(), every other slot zero; after it,
  /// the factor, each pivot's slot holding the pivot's reciprocal.
  [[nodiscard]] std::span<T> values() { return values_; }

  /// Allocation-free numeric refactorization of the values written into
  /// values(), reusing the analysis' pivot order and fill pattern.
  /// \throws NumericError when a reused pivot is numerically unacceptable
  /// for these values; the factorization is unusable until the next
  /// successful refactor.
  void refactor();

  /// Doubles per slot (and per unknown of a solution) in a block of
  /// P::width value sets: slot i's lane l at [i * stride + l], and for
  /// complex T its imaginary part at [i * stride + P::width + l].
  template <typename P>
  static constexpr std::size_t lane_stride =
      (std::is_same_v<T, double> ? 1 : 2) * P::width;

  /// refactor() of the P::width value sets in \p values (factor_nnz()
  /// slots of lane_stride<P> doubles, A's values written in), in place
  /// and allocation-free; this object's own values are not touched.
  /// \return the lanes whose reused pivot broke down (bit l for lane l),
  /// which stay unusable until refactored; the other lanes hold the bits
  /// refactor() gives their values.
  template <typename P>
  [[nodiscard]] unsigned refactor_lanes(double* values) const;

  /// solve_into() of every lane of \p values (refactored by
  /// refactor_lanes<P>) against the shared \p b, into \p x (size() unknowns
  /// of lane_stride<P> doubles).  Allocation-free.
  template <typename P>
  void solve_lanes(const double* values, std::span<const T> b,
                   double* x) const;

  /// solve_trailing() of every lane of \p values against the shared \p b,
  /// into \p x laid out as for solve_lanes.  Allocation-free.
  template <typename P>
  void solve_trailing_lanes(const double* values,
                            std::span<const std::pair<std::size_t, T>> b,
                            double* x) const;

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

  /// The analysis alone: a copy that shares this one's symbolic phase and
  /// holds no values — for callers that keep theirs in lane blocks.  Only
  /// the lane kernels and the structural queries apply to it.
  [[nodiscard]] SparseFactorization analysis() const;

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
    /// slot() of each entry of the analyzed matrix, in entry order.
    std::vector<std::uint32_t> entry_slot;
  };

  /// Forward substitution over pivots [first, n), then back substitution
  /// over pivots [back_from, n), on the lanes of \p x indexed by unknown
  /// (pivot k's value at unknown order[k]).
  template <typename P>
  void substitute(const double* values, std::size_t first,
                  std::size_t back_from, double* x) const;

  std::shared_ptr<const Symbolic> symbolic_;
  /// Factor values in slot order, each pivot's slot holding its
  /// reciprocal once factored.
  std::vector<T> values_;
};

extern template class SparseFactorization<double>;
extern template class SparseFactorization<std::complex<double>>;

}  // namespace ftdiag::linalg
