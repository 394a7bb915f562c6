#include "linalg/sparse_factorization.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ftdiag::linalg {

namespace {

/// Singularity threshold relative to the largest input entry (matches the
/// dense LU).
constexpr double kPivotTolerance = 1e-13;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Plain complex arithmetic for the elimination and substitution loops,
/// without std::complex's NaN-recovery branches and scaled library
/// division (the dense batched LU's conj/|.|^2 form): MNA magnitudes stay
/// far inside the double range, and a NaN propagates either way.
double mul(double a, double b) { return a * b; }
std::complex<double> mul(const std::complex<double>& a,
                         const std::complex<double>& b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}
/// acc - a * b.
template <typename T>
T sub_mul(const T& acc, const T& a, const T& b) {
  return acc - mul(a, b);
}
double reciprocal(double p) { return 1.0 / p; }
std::complex<double> reciprocal(const std::complex<double>& p) {
  return std::conj(p) * (1.0 / std::norm(p));
}

/// Minimum-degree elimination order on the graph of A + A^T, kept as an
/// explicit elimination graph: eliminating a vertex joins its remaining
/// neighbours into a clique.  Vertices flagged in \p last come after all
/// others; ties go to the lower index.
template <typename Rows>
std::vector<std::size_t> minimum_degree_order(const Rows& rows,
                                              const std::vector<char>& last) {
  const std::size_t n = rows.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& entry : rows[r]) {
      if (entry.first == r) continue;
      adj[r].push_back(entry.first);
      adj[entry.first].push_back(r);
    }
  }
  // (trailing flag, degree, vertex): the set's first key is the next pivot.
  using Key = std::tuple<char, std::size_t, std::size_t>;
  std::set<Key> queue;
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(adj[v].begin(), adj[v].end());
    adj[v].erase(std::unique(adj[v].begin(), adj[v].end()), adj[v].end());
    queue.emplace(last[v], adj[v].size(), v);
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> merged;
  while (!queue.empty()) {
    const std::size_t p = std::get<2>(*queue.begin());
    queue.erase(queue.begin());
    order.push_back(p);
    const std::vector<std::size_t> clique = std::move(adj[p]);
    for (std::size_t v : clique) {
      queue.erase(Key{last[v], adj[v].size(), v});
      merged.clear();
      std::set_union(adj[v].begin(), adj[v].end(), clique.begin(),
                     clique.end(), std::back_inserter(merged));
      std::erase_if(merged, [&](std::size_t u) { return u == v || u == p; });
      adj[v].swap(merged);
      queue.emplace(last[v], adj[v].size(), v);
    }
  }
  return order;
}

}  // namespace

template <typename T>
SparseFactorization<T>::SparseFactorization(
    const CooMatrix<T>& a, std::span<const std::size_t> trailing,
    double pivot_threshold) {
  if (a.rows() != a.cols()) {
    throw NumericError("sparse factorization requires a square matrix");
  }
  FTDIAG_ASSERT(pivot_threshold > 0.0 && pivot_threshold <= 1.0,
                "pivot threshold must lie in (0, 1]");
  const std::size_t n = a.rows();

  // Rows of A with duplicates summed.  Entries that sum to exactly zero
  // stay structural: the pattern depends on where stamps land, never on
  // their values.
  std::vector<std::map<std::size_t, T>> rows(n);
  for (const auto& e : a.entries()) rows[e.row][e.col] += e.value;
  double max_entry = 0.0;
  for (const auto& row : rows) {
    for (const auto& entry : row) {
      max_entry = std::max(max_entry, std::abs(entry.second));
    }
  }
  if (max_entry == 0.0) {
    throw NumericError("sparse factorization of the zero matrix");
  }

  auto sym = std::make_shared<Symbolic>();
  sym->n = n;
  std::vector<char> last(n, 0);
  for (std::size_t u : trailing) {
    FTDIAG_ASSERT(u < n, "trailing unknown out of range");
    last[u] = 1;
  }
  sym->trailing =
      static_cast<std::size_t>(std::count(last.begin(), last.end(), 1));
  sym->order = minimum_degree_order(rows, last);
  sym->position.resize(n);
  for (std::size_t k = 0; k < n; ++k) sym->position[sym->order[k]] = k;

  // Row-list elimination in pivot-position space: active[r] holds row r's
  // entries at uneliminated columns (ascending position), lower[r] its
  // multipliers, and col_rows[k] every row with an entry at position k —
  // so each column's candidate pivots are found without scanning rows.
  struct Entry {
    std::size_t pos;
    T value;
  };
  std::vector<std::vector<Entry>> active(n), lower(n);
  std::vector<std::vector<std::size_t>> col_rows(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& [c, v] : rows[r]) {
      active[r].push_back({sym->position[c], v});
      col_rows[sym->position[c]].push_back(r);
    }
    std::sort(active[r].begin(), active[r].end(),
              [](const Entry& x, const Entry& y) { return x.pos < y.pos; });
  }
  rows = {};

  sym->perm.resize(n);
  sym->inv_perm.assign(n, kNpos);  // kNpos: row not pivoted yet
  const std::size_t head = n - sym->trailing;
  std::vector<Entry> merged;
  for (std::size_t k = 0; k < n; ++k) {
    double best = 0.0;
    for (std::size_t r : col_rows[k]) {
      if (sym->inv_perm[r] == kNpos) {
        best = std::max(best, std::abs(active[r].front().value));
      }
    }
    if (best <= kPivotTolerance * max_entry) {
      throw NumericError(
          str::format("singular matrix in sparse factorization at column %zu",
                      sym->order[k]));
    }
    // Threshold pivoting: among acceptable rows, own block first, then
    // the sparsest, then the diagonal, then the lowest index.
    const bool trailing_column = k >= head;
    std::size_t p = kNpos;
    std::tuple<bool, std::size_t, bool, std::size_t> p_key;
    for (std::size_t r : col_rows[k]) {
      if (sym->inv_perm[r] != kNpos ||
          std::abs(active[r].front().value) < pivot_threshold * best) {
        continue;
      }
      const std::tuple key{(last[r] != 0) != trailing_column,
                           active[r].size(), r != sym->order[k], r};
      if (p == kNpos || key < p_key) {
        p = r;
        p_key = key;
      }
    }
    sym->perm[k] = p;
    sym->inv_perm[p] = k;

    const std::vector<Entry>& pivot_row = active[p];
    const T pivot = pivot_row.front().value;
    for (std::size_t r : col_rows[k]) {
      if (sym->inv_perm[r] != kNpos) continue;
      const T multiplier = active[r].front().value / pivot;
      lower[r].push_back({k, multiplier});
      // active[r] -= multiplier * pivot_row, past position k.  Exact
      // cancellations stay in the pattern.
      const std::vector<Entry>& row = active[r];
      merged.clear();
      std::size_t i = 1, j = 1;
      while (i < row.size() || j < pivot_row.size()) {
        if (j == pivot_row.size() ||
            (i < row.size() && row[i].pos < pivot_row[j].pos)) {
          merged.push_back(row[i++]);
        } else if (i == row.size() || pivot_row[j].pos < row[i].pos) {
          merged.push_back(
              {pivot_row[j].pos, -multiplier * pivot_row[j].value});
          col_rows[pivot_row[j].pos].push_back(r);  // fill-in
          ++j;
        } else {
          merged.push_back(
              {row[i].pos, row[i].value - multiplier * pivot_row[j].value});
          ++i;
          ++j;
        }
      }
      active[r].swap(merged);
    }
  }

  // Freeze the elimination outcome: factor row k is pivot row perm[k].
  sym->row_start.assign(n + 1, 0);
  sym->diag.resize(n);
  const auto append = [&](const Entry& e) {
    sym->col.push_back(sym->order[e.pos]);
    values_.push_back(e.value);
  };
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t r = sym->perm[k];
    std::for_each(lower[r].begin(), lower[r].end(), append);
    sym->diag[k] = sym->col.size();
    std::for_each(active[r].begin(), active[r].end(), append);
    sym->row_start[k + 1] = sym->col.size();
  }
  inv_pivot_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    inv_pivot_[k] = reciprocal(values_[sym->diag[k]]);
  }

  // Compile the elimination the refactor replays.  Row k's pattern is
  // closed under its updates (that is what the fill above recorded), so
  // every U entry of every pivot it uses has a slot in row k.
  if (sym->col.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw NumericError("sparse factor too large for a 32-bit schedule");
  }
  std::vector<std::uint32_t> slot_of_col(n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t idx = sym->row_start[k]; idx < sym->row_start[k + 1];
         ++idx) {
      slot_of_col[sym->col[idx]] = static_cast<std::uint32_t>(idx);
    }
    for (std::size_t idx = sym->row_start[k]; idx < sym->diag[k]; ++idx) {
      const std::size_t j = sym->position[sym->col[idx]];
      sym->multiplier_pivot.push_back(static_cast<std::uint32_t>(j));
      for (std::size_t u = sym->diag[j] + 1; u < sym->row_start[j + 1]; ++u) {
        sym->update_slot.push_back(slot_of_col[sym->col[u]]);
      }
    }
  }
  symbolic_ = std::move(sym);
}

template <typename T>
std::size_t SparseFactorization<T>::slot(std::size_t row,
                                         std::size_t col) const {
  FTDIAG_ASSERT(symbolic_ != nullptr, "slot lookup before symbolic analysis");
  const Symbolic& sym = *symbolic_;
  FTDIAG_ASSERT(row < sym.n && col < sym.n, "slot lookup out of range");
  const std::size_t k = sym.inv_perm[row];
  const std::size_t* const cols = sym.col.data();
  const std::size_t* const end = cols + sym.row_start[k + 1];
  const std::size_t* const it = std::partition_point(
      cols + sym.row_start[k], end,
      [&](std::size_t c) { return sym.position[c] < sym.position[col]; });
  if (it == end || *it != col) {
    throw NumericError(str::format(
        "entry (%zu, %zu) outside the analyzed sparsity pattern", row, col));
  }
  return static_cast<std::size_t>(it - cols);
}

template <typename T>
void SparseFactorization<T>::refactor(const CooMatrix<T>& a) {
  FTDIAG_ASSERT(symbolic_ != nullptr, "refactor before symbolic analysis");
  if (a.rows() != size() || a.cols() != size()) {
    throw NumericError("refactor matrix shape differs from the analysis");
  }
  std::fill(values_.begin(), values_.end(), T{});
  for (const auto& e : a.entries()) values_[slot(e.row, e.col)] += e.value;
  refactor();
}

template <typename T>
void SparseFactorization<T>::refactor() {
  FTDIAG_ASSERT(symbolic_ != nullptr, "refactor before symbolic analysis");
  replay<1>({this});
}

template <typename T>
void SparseFactorization<T>::refactor_pair(SparseFactorization& a,
                                           SparseFactorization& b) {
  FTDIAG_ASSERT(a.symbolic_ != nullptr && a.symbolic_ == b.symbolic_,
                "paired refactor needs copies of one analysis");
  replay<2>({&a, &b});
}

template <typename T>
template <std::size_t N>
void SparseFactorization<T>::replay(
    const std::array<SparseFactorization*, N>& factors) {
  const Symbolic& sym = *factors[0]->symbolic_;
  std::array<T*, N> vals;
  std::array<T*, N> inv;
  // Squared magnitudes: the analysis' |pivot| <= 1e-13 * max|a| test
  // without a hypot per value.  Row k's slots still hold A's values when
  // its turn comes, so the largest entry is gathered on the way and the
  // test is settled once the largest is known.  Neither counts NaN.
  std::array<double, N> max_norm;
  std::array<double, N> min_pivot_norm;
  for (std::size_t p = 0; p < N; ++p) {
    vals[p] = factors[p]->values_.data();
    inv[p] = factors[p]->inv_pivot_.data();
    max_norm[p] = 0.0;
    min_pivot_norm[p] = std::numeric_limits<double>::infinity();
  }

  // Up-looking elimination in place, in the analysis' operation order:
  // each multiplier of row k is finished by the updates of the pivots
  // before it, then applies its own pivot's U row to the slots the
  // schedule names.  Each pivot is inverted once and multiplied
  // thereafter.  The N value sets are independent; interleaving them
  // lets one's dependency chain fill the other's stalls.
  const std::uint32_t* pivot = sym.multiplier_pivot.data();
  const std::uint32_t* slot = sym.update_slot.data();
  for (std::size_t k = 0; k < sym.n; ++k) {
    const std::size_t rd = sym.diag[k];
    for (std::size_t p = 0; p < N; ++p) {
      for (std::size_t idx = sym.row_start[k]; idx < sym.row_start[k + 1];
           ++idx) {
        max_norm[p] = std::max(max_norm[p], std::norm(vals[p][idx]));
      }
    }
    for (std::size_t idx = sym.row_start[k]; idx < rd; ++idx, ++pivot) {
      const std::size_t j = *pivot;
      std::array<T, N> multiplier;
      for (std::size_t p = 0; p < N; ++p) {
        multiplier[p] = mul(vals[p][idx], inv[p][j]);
        vals[p][idx] = multiplier[p];
      }
      const std::size_t u_end = sym.row_start[j + 1];
      for (std::size_t u = sym.diag[j] + 1; u < u_end; ++u, ++slot) {
        for (std::size_t p = 0; p < N; ++p) {
          vals[p][*slot] = sub_mul(vals[p][*slot], multiplier[p], vals[p][u]);
        }
      }
    }
    for (std::size_t p = 0; p < N; ++p) {
      min_pivot_norm[p] = std::min(min_pivot_norm[p], std::norm(vals[p][rd]));
      inv[p][k] = reciprocal(vals[p][rd]);
    }
  }

  for (std::size_t p = 0; p < N; ++p) {
    if (max_norm[p] == 0.0) {
      throw NumericError("sparse refactorization of the zero matrix");
    }
    const double tolerance = kPivotTolerance * kPivotTolerance * max_norm[p];
    if (min_pivot_norm[p] > tolerance) continue;
    // The analysis-time pivot order is numerically unacceptable for these
    // values; the caller falls back to a fresh analysis.  Pivots up to
    // the first small one are exact, so that one is found again.
    std::size_t k = 0;
    while (!(std::norm(vals[p][sym.diag[k]]) <= tolerance)) ++k;
    throw NumericError(str::format(
        "reused pivot order broke down at pivot %zu in sparse refactor", k));
  }
}

template <typename T>
void SparseFactorization<T>::substitute(std::size_t first,
                                        std::size_t back_from,
                                        std::span<T> x) const {
  const Symbolic& sym = *symbolic_;
  const std::size_t* const cols = sym.col.data();
  const T* const vals = values_.data();
  // Forward substitution (L unit-diagonal) from the first nonzero pivot of
  // the permuted right-hand side: earlier pivots are zero and stay zero,
  // so their L columns — the leading ones of each row — are skipped.
  for (std::size_t k = first; k < sym.n; ++k) {
    const std::size_t* idx = cols + sym.row_start[k];
    const std::size_t* const end = cols + sym.diag[k];
    if (first > 0) {
      idx = std::partition_point(idx, end, [&](std::size_t c) {
        return sym.position[c] < first;
      });
    }
    T acc = x[sym.order[k]];
    for (; idx < end; ++idx) acc = sub_mul(acc, vals[idx - cols], x[*idx]);
    x[sym.order[k]] = acc;
  }
  // Back substitution with U over pivots [back_from, n).
  for (std::size_t k = sym.n; k-- > back_from;) {
    T acc = x[sym.order[k]];
    for (std::size_t idx = sym.diag[k] + 1; idx < sym.row_start[k + 1]; ++idx) {
      acc = sub_mul(acc, vals[idx], x[cols[idx]]);
    }
    x[sym.order[k]] = mul(acc, inv_pivot_[k]);
  }
}

template <typename T>
void SparseFactorization<T>::solve_into(std::span<const T> b,
                                        std::span<T> x) const {
  FTDIAG_ASSERT(symbolic_ != nullptr, "solve before symbolic analysis");
  const Symbolic& sym = *symbolic_;
  FTDIAG_ASSERT(b.size() == sym.n && x.size() == sym.n,
                "rhs/solution size mismatch in sparse solve");
  // x is indexed by unknown throughout: pivot k's value lives at
  // x[order[k]].
  std::size_t first = sym.n;
  for (std::size_t k = 0; k < sym.n; ++k) {
    x[sym.order[k]] = b[sym.perm[k]];
    if (first == sym.n && !(b[sym.perm[k]] == T{})) first = k;
  }
  substitute(first, 0, x);
}

template <typename T>
void SparseFactorization<T>::solve_trailing(
    std::span<const std::pair<std::size_t, T>> b, std::span<T> x) const {
  FTDIAG_ASSERT(symbolic_ != nullptr, "solve before symbolic analysis");
  const Symbolic& sym = *symbolic_;
  FTDIAG_ASSERT(x.size() == sym.n, "solution size mismatch in sparse solve");
  const std::size_t head = sym.n - sym.trailing;
  std::size_t first = sym.n;
  for (const auto& entry : b) {
    FTDIAG_ASSERT(entry.first < sym.n, "rhs row out of range in sparse solve");
    first = std::min(first, sym.inv_perm[entry.first]);
  }
  for (std::size_t k = std::min(first, head); k < sym.n; ++k) {
    x[sym.order[k]] = T{};
  }
  for (const auto& [row, value] : b) x[sym.order[sym.inv_perm[row]]] += value;
  substitute(first, head, x);
}

template <typename T>
std::vector<T> SparseFactorization<T>::solve(const std::vector<T>& b) const {
  std::vector<T> x(size());
  solve_into(b, x);
  return x;
}

template <typename T>
std::size_t SparseFactorization<T>::size() const {
  return symbolic_ ? symbolic_->n : 0;
}

template <typename T>
std::size_t SparseFactorization<T>::factor_nnz() const {
  return symbolic_ ? symbolic_->col.size() : 0;
}

template class SparseFactorization<double>;
template class SparseFactorization<std::complex<double>>;

}  // namespace ftdiag::linalg
