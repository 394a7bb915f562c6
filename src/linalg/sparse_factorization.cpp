#include "linalg/sparse_factorization.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ftdiag::linalg {

namespace {

/// Singularity threshold relative to the largest input entry (matches the
/// dense LU).
constexpr double kPivotTolerance = 1e-13;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
/// "None" in the symbolic phase's 32-bit index arrays.
constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

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

/// The symbolic phase's elimination steps — the update row - m * u of an
/// entry the row has, and the fill value -m * u of one it gains — with
/// every rounding spelled out, so the first factor does not depend on how
/// the compiler contracts or inlines the loops around them.  Where the
/// target has FMA each complex component fuses one product, in the
/// pairing GCC gives those std::complex expressions; otherwise every
/// product rounds on its own.  A NaN product takes std::complex's C99
/// Annex G path.
double update_entry(double row, double m, double u) {
#if defined(__FMA__)
  return std::fma(-m, u, row);
#else
  return row - m * u;
#endif
}
double fill_entry(double m, double u) { return -m * u; }

[[gnu::cold]] std::complex<double> annex_g_product(
    const std::complex<double>& a, const std::complex<double>& b) {
  return a * b;
}
std::complex<double> update_entry(const std::complex<double>& row,
                                  const std::complex<double>& m,
                                  const std::complex<double>& u) {
#if defined(__FMA__)
  const double re = std::fma(m.real(), u.real(), -(m.imag() * u.imag()));
  const double im = std::fma(m.real(), u.imag(), m.imag() * u.real());
#else
  const double re = m.real() * u.real() - m.imag() * u.imag();
  const double im = m.real() * u.imag() + m.imag() * u.real();
#endif
  if (std::isunordered(re, im)) return row - annex_g_product(m, u);
  return {row.real() - re, row.imag() - im};
}
std::complex<double> fill_entry(const std::complex<double>& m,
                                const std::complex<double>& u) {
  const std::complex<double> a = -m;
#if defined(__FMA__)
  const double re = std::fma(a.real(), u.real(), -(a.imag() * u.imag()));
  const double im = std::fma(a.imag(), u.real(), a.real() * u.imag());
#else
  const double re = a.real() * u.real() - a.imag() * u.imag();
  const double im = a.real() * u.imag() + a.imag() * u.real();
#endif
  if (std::isunordered(re, im)) return annex_g_product(a, u);
  return {re, im};
}

/// Magnitude comparisons settled on squares: |x|^2 is a few ulps from
/// exact while it stays within [kSquareFloor, kSquareCeiling], so two
/// squares more than kMargin apart order the std::abs values the same
/// way, and std::abs — a hypot — is only needed for near ties.
constexpr double kSquareFloor = 1e-280;
constexpr double kSquareCeiling = 1e280;
constexpr double kMargin = 1e-9;
double square(double x) { return x * x; }
double square(const std::complex<double>& x) { return std::norm(x); }

/// The largest std::abs(value(i)) for i < count, NaNs skipped as std::max
/// skips them.  std::abs runs only for the values whose squares come
/// within kMargin of the largest square.
template <typename Value>
double largest_magnitude(std::size_t count, Value value) {
  double top = 0.0;
  bool settled = true;
  for (std::size_t i = 0; i < count; ++i) {
    const double sq = square(value(i));
    settled = settled && sq <= kSquareCeiling;  // false for NaN
    top = std::max(top, sq);
  }
  settled = settled && top >= kSquareFloor;
  double largest = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (settled && square(value(i)) < top * (1.0 - kMargin)) continue;
    largest = std::max(largest, std::abs(value(i)));
  }
  return largest;
}

/// Whether std::abs(x) < bound, where bound_square = bound * bound.
template <typename T>
bool magnitude_below(const T& x, double bound, double bound_square) {
  if (bound_square >= kSquareFloor && bound_square <= kSquareCeiling) {
    const double sq = square(x);
    if (sq < bound_square * (1.0 - kMargin)) return true;
    if (sq > bound_square * (1.0 + kMargin) && sq <= kSquareCeiling) {
      return false;
    }
  }
  return std::abs(x) < bound;
}

/// A's entries with duplicates summed, column by column: unique entry i
/// of column c, i in [start[c], start[c+1]) with rows ascending, is
/// (row[i], value[i]).  `by_row` lists the input entries stably sorted by
/// row, input row r's at [entry_start[r], entry_start[r+1]).
template <typename T>
struct Columns {
  std::vector<std::uint32_t> start, row;
  std::vector<T> value;
  std::vector<std::uint32_t> entry_start, by_row;
};

/// Two stable counting sorts of \p entries — by row, then by column — and
/// one pass that sums each run of duplicates in entry order from T{}, the
/// rounding a per-entry `sum += value` gives.  Runs that cancel to exactly
/// 0.0 stay: the pattern depends on where stamps land, never on their
/// values.
template <typename T>
Columns<T> assemble_columns(
    std::size_t n, const std::vector<typename CooMatrix<T>::Entry>& entries) {
  const std::size_t m = entries.size();
  Columns<T> a;
  a.entry_start.assign(n + 1, 0);
  for (const auto& e : entries) ++a.entry_start[e.row + 1];
  std::partial_sum(a.entry_start.begin(), a.entry_start.end(),
                   a.entry_start.begin());
  std::vector<std::uint32_t> next(a.entry_start.begin(),
                                  a.entry_start.end() - 1);
  a.by_row.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    a.by_row[next[entries[i].row]++] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> col_start(n + 1, 0);
  for (const auto& e : entries) ++col_start[e.col + 1];
  std::partial_sum(col_start.begin(), col_start.end(), col_start.begin());
  next.assign(col_start.begin(), col_start.end() - 1);
  std::vector<std::uint32_t> by_col(m);
  for (const std::uint32_t i : a.by_row) by_col[next[entries[i].col]++] = i;

  a.start.assign(n + 1, 0);
  a.row.reserve(m);
  a.value.reserve(m);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::uint32_t i = col_start[c]; i < col_start[c + 1];) {
      const std::size_t r = entries[by_col[i]].row;
      T sum{};
      for (; i < col_start[c + 1] && entries[by_col[i]].row == r; ++i) {
        sum += entries[by_col[i]].value;
      }
      a.row.push_back(static_cast<std::uint32_t>(r));
      a.value.push_back(sum);
    }
    a.start[c + 1] = static_cast<std::uint32_t>(a.row.size());
  }
  return a;
}

/// Min-tournament over packed vertex keys: a complete binary tree whose
/// leaves [n, 2n) hold the keys of vertices [0, n) and whose every inner
/// node holds the least of its two children, so the root holds the least
/// key, and changing a key replays one leaf-to-root path — stopping where
/// a node's least is unchanged.
class KeyTournament {
public:
  static constexpr std::uint64_t kRemoved =
      std::numeric_limits<std::uint64_t>::max();

  /// \p key(v) is vertex v's initial key; \p n >= 1.
  template <typename Key>
  KeyTournament(std::size_t n, Key key) : leaves_(n), tree_(2 * n) {
    for (std::size_t v = 0; v < n; ++v) tree_[n + v] = key(v);
    for (std::size_t i = n; i-- > 1;) {
      tree_[i] = std::min(tree_[2 * i], tree_[2 * i + 1]);
    }
  }

  [[nodiscard]] std::uint64_t least() const { return tree_[1]; }

  void set(std::size_t v, std::uint64_t key) {
    std::size_t i = leaves_ + v;
    tree_[i] = key;
    for (; i > 1; i >>= 1) {
      const std::uint64_t least = std::min(tree_[i], tree_[i ^ 1]);
      if (tree_[i >> 1] == least) break;
      tree_[i >> 1] = least;
    }
  }

private:
  std::size_t leaves_;
  std::vector<std::uint64_t> tree_;
};

/// Minimum-degree elimination order on the graph of A + A^T (\p start,
/// \p row: A's pattern by column, as assemble_columns gives it).
/// Vertices flagged in \p last come after all others; the next pivot is
/// the least (flag, degree, index).
///
/// The elimination graph is kept implicit, as a quotient graph (George &
/// Liu): an uneliminated *variable* lists its uneliminated neighbours,
/// then the *elements* it touches — eliminated vertices, each standing
/// for the clique its elimination made and listing that clique's
/// variables.  Eliminating p merges p's neighbours and its elements'
/// variables into the new element p and absorbs those elements, so no
/// clique is built and a variable's list never outgrows its original
/// adjacency.  Degrees are exact — the size of the union of a variable's
/// neighbours and its elements' variables, counted with a marker array —
/// so they equal the explicit elimination graph's, and so does the order.
///
/// \p estimate[v] receives the length row v of L+U would have with every
/// pivot on the diagonal (1 + |U| + |L|), a capacity hint for the rows.
std::vector<std::size_t> minimum_degree_order(
    std::size_t n, const std::vector<std::uint32_t>& start,
    const std::vector<std::uint32_t>& row, const std::vector<char>& last,
    std::vector<std::uint32_t>& estimate) {
  // Variable v's list: `vars[v]` neighbours, then `elems[v]` elements, in
  // list[head[v], ...).  Room for its row and column entries of A.
  std::vector<std::uint32_t> head(n + 1, 0), vars(n, 0), elems(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::uint32_t i = start[c]; i < start[c + 1]; ++i) {
      if (row[i] == c) continue;
      ++head[c + 1];
      ++head[row[i] + 1];
    }
  }
  std::partial_sum(head.begin(), head.end(), head.begin());
  std::vector<std::uint32_t> list(head[n]);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::uint32_t i = start[c]; i < start[c + 1]; ++i) {
      const std::uint32_t r = row[i];
      if (r == c) continue;
      list[head[c] + vars[c]++] = r;
      list[head[r] + vars[r]++] = static_cast<std::uint32_t>(c);
    }
  }
  // mark[u] == tag: u is in the set being gathered under that tag.
  std::vector<std::uint64_t> mark(n, 0);
  std::uint64_t tag = 0;
  std::vector<std::uint32_t> degree(n);
  for (std::size_t v = 0; v < n; ++v) {  // drop (r, c)/(c, r) duplicates
    ++tag;
    std::uint32_t* const l = list.data() + head[v];
    std::uint32_t kept = 0;
    for (std::uint32_t j = 0; j < vars[v]; ++j) {
      if (mark[l[j]] != tag) {
        mark[l[j]] = tag;
        l[kept++] = l[j];
      }
    }
    vars[v] = kept;
    degree[v] = kept;
  }

  enum : std::uint8_t { kVariable, kElement, kAbsorbed };
  std::vector<std::uint8_t> state(n, kVariable);
  // Element p's variables: members[member_start[p], + member_count[p]).
  std::vector<std::uint32_t> members, member_start(n), member_count(n);
  // outside[e]: element e's variables outside the newest element, valid
  // while outside_tag[e] is that element's pivot tag.
  std::vector<std::uint32_t> outside(n);
  std::vector<std::uint64_t> outside_tag(n, 0);
  members.reserve(head[n] + n);
  const auto key = [&](std::size_t v) {
    return std::uint64_t{last[v] != 0} << 63 |
           std::uint64_t{degree[v]} << 32 | v;
  };
  KeyTournament queue(n, key);

  estimate.assign(n, 1);
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t step = 0; step < n; ++step) {
    const auto p = static_cast<std::uint32_t>(queue.least());
    queue.set(p, KeyTournament::kRemoved);
    order.push_back(p);

    // The new element: p's neighbours and its elements' variables.
    const std::uint64_t pivot_tag = ++tag;
    mark[p] = pivot_tag;
    const auto begin = static_cast<std::uint32_t>(members.size());
    const auto gather = [&](std::uint32_t u) {
      if (mark[u] != pivot_tag) {
        mark[u] = pivot_tag;
        members.push_back(u);
      }
    };
    for (std::uint32_t j = 0; j < vars[p]; ++j) gather(list[head[p] + j]);
    for (std::uint32_t j = vars[p]; j < vars[p] + elems[p]; ++j) {
      const std::uint32_t e = list[head[p] + j];
      for (std::uint32_t i = 0; i < member_count[e]; ++i) {
        gather(members[member_start[e] + i]);
      }
      state[e] = kAbsorbed;
    }
    if (members.size() >= kNil) {
      throw NumericError("sparse factorization too large for 32-bit indices");
    }
    state[p] = kElement;
    member_start[p] = begin;
    member_count[p] = static_cast<std::uint32_t>(members.size()) - begin;
    estimate[p] += member_count[p];
    const std::uint32_t end = begin + member_count[p];

    // How many variables each other element touching the new one has
    // outside it.  One with none lies inside the new element, adds
    // nothing any more, and is absorbed as well.
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t v = members[i];
      for (std::uint32_t j = vars[v]; j < vars[v] + elems[v]; ++j) {
        const std::uint32_t e = list[head[v] + j];
        if (state[e] != kElement) continue;
        if (outside_tag[e] != pivot_tag) {
          outside_tag[e] = pivot_tag;
          outside[e] = member_count[e];
        }
        --outside[e];
      }
    }

    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t v = members[i];
      ++estimate[v];
      // Element p now covers v's edges to p and to p's other variables,
      // and replaces the elements it absorbed.  Compacting left and
      // appending p stays in place: v lost p as a neighbour or lost an
      // absorbed element.
      std::uint32_t* const l = list.data() + head[v];
      std::uint32_t kept = 0;
      for (std::uint32_t j = 0; j < vars[v]; ++j) {
        if (mark[l[j]] != pivot_tag) l[kept++] = l[j];
      }
      const std::uint32_t kept_vars = kept;
      for (std::uint32_t j = vars[v]; j < vars[v] + elems[v]; ++j) {
        const std::uint32_t e = l[j];
        if (state[e] != kElement) continue;
        if (outside[e] == 0) {
          state[e] = kAbsorbed;
        } else {
          l[kept++] = e;
        }
      }
      l[kept++] = p;
      vars[v] = kept_vars;
      elems[v] = kept - kept_vars;

      // Exact degree: p's other variables, v's neighbours, and whatever
      // v's other elements add — counted directly when they cannot
      // overlap, with the marker array otherwise.
      std::uint32_t d = member_count[p] - 1 + kept_vars;
      if (elems[v] == 2 && kept_vars == 0) {
        d += outside[l[0]];
      } else if (elems[v] > 1) {
        const std::uint64_t own = ++tag;
        for (std::uint32_t j = 0; j < kept_vars; ++j) mark[l[j]] = own;
        for (std::uint32_t j = kept_vars; j + 1 < kept; ++j) {
          const std::uint32_t e = l[j];
          const std::uint32_t* const em = members.data() + member_start[e];
          for (std::uint32_t k = 0; k < member_count[e]; ++k) {
            if (mark[em[k]] != pivot_tag && mark[em[k]] != own) {
              mark[em[k]] = own;
              ++d;
            }
          }
        }
      }
      degree[v] = d;
      queue.set(v, key(v));
    }
  }
  return order;
}

/// Compile the elimination the refactor replays.  Factor row k's
/// multiplier slots, ascending, each name the pivot j whose U entries they
/// apply, and each such U entry's update lands in the slot of row k at
/// the same position — row k's pattern is closed under its updates (that
/// is what the elimination's fill recorded), so every one has a slot.
/// The same pass gives every input entry of row perm[k] its slot.
/// \p pos is each factor slot's pivot position; \p slot_of_pos is
/// scratch of size n.
template <typename Entry>
void compile_schedule(std::size_t n, const std::size_t* __restrict row_start,
                      const std::size_t* __restrict diag,
                      const std::size_t* __restrict perm,
                      const std::uint32_t* __restrict pos,
                      const std::uint32_t* __restrict entry_start,
                      const std::uint32_t* __restrict by_row,
                      const Entry* __restrict entries,
                      const std::size_t* __restrict position,
                      std::uint32_t* __restrict slot_of_pos,
                      std::uint32_t* __restrict multiplier_pivot,
                      std::uint32_t* __restrict update_slot,
                      std::uint32_t* __restrict entry_slot) {
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t idx = row_start[k]; idx < row_start[k + 1]; ++idx) {
      slot_of_pos[pos[idx]] = static_cast<std::uint32_t>(idx);
    }
    for (std::size_t idx = row_start[k]; idx < diag[k]; ++idx) {
      const std::uint32_t j = pos[idx];
      *multiplier_pivot++ = j;
      for (std::size_t u = diag[j] + 1; u < row_start[j + 1]; ++u) {
        *update_slot++ = slot_of_pos[pos[u]];
      }
    }
    for (std::uint32_t i = entry_start[perm[k]]; i < entry_start[perm[k] + 1];
         ++i) {
      entry_slot[by_row[i]] = slot_of_pos[position[entries[by_row[i]].col]];
    }
  }
}

/// One entry of a row during elimination: its column's pivot position and
/// its value.
template <typename T>
struct RowEntry {
  std::uint32_t pos;
  T value;
};

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
  // 32-bit indices inside; the top bit of a degree key is the flag.
  if (n >= (std::size_t{1} << 31) || a.entry_count() >= kNil) {
    throw NumericError("sparse factorization too large for 32-bit indices");
  }

  Columns<T> columns = assemble_columns<T>(n, a.entries());
  const double max_entry = largest_magnitude(
      columns.value.size(), [&](std::size_t i) { return columns.value[i]; });
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
  std::vector<std::uint32_t> estimate;
  sym->order =
      minimum_degree_order(n, columns.start, columns.row, last, estimate);
  sym->position.resize(n);
  for (std::size_t k = 0; k < n; ++k) sym->position[sym->order[k]] = k;

  // Row-list elimination in pivot-position space, on one flat arena: row
  // r is arena[begin[r], + size[r]), ascending by position — its first
  // front[r] entries finished multipliers, the rest active — with room up
  // to capacity[r], and moves to the arena's end when fill outgrows that.
  // Column k's rows (every row with an entry at k) are a list threaded
  // through one node per entry, so a column's candidate pivots are found
  // without scanning rows.
  using Entry = RowEntry<T>;
  std::vector<std::uint32_t> begin(n), size(n, 0), front(n, 0), capacity(n);
  for (const std::uint32_t r : columns.row) ++size[r];
  std::size_t capacity_sum = 0;
  for (std::size_t r = 0; r < n; ++r) {
    begin[r] = static_cast<std::uint32_t>(capacity_sum);
    capacity[r] = std::max(estimate[r], size[r]);
    capacity_sum += capacity[r];
    size[r] = 0;
  }
  if (capacity_sum >= kNil) {
    throw NumericError("sparse factorization too large for 32-bit indices");
  }
  std::vector<Entry> arena;
  arena.reserve(capacity_sum + capacity_sum / 4);
  arena.resize(capacity_sum);
  struct Node {
    std::uint32_t row, next;
  };
  std::vector<Node> nodes;
  nodes.reserve(capacity_sum);
  std::vector<std::uint32_t> col_head(n, kNil);
  const auto link = [&](std::uint32_t pos, std::uint32_t r) {
    nodes.push_back({r, col_head[pos]});
    col_head[pos] = static_cast<std::uint32_t>(nodes.size() - 1);
  };
  // Columns in pivot order, so every row fills in ascending position.
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::size_t c = sym->order[k];
    for (std::uint32_t i = columns.start[c]; i < columns.start[c + 1]; ++i) {
      const std::uint32_t r = columns.row[i];
      arena[begin[r] + size[r]++] = {k, columns.value[i]};
      link(k, r);
    }
  }
  columns.start = {};
  columns.row = {};
  columns.value = {};

  sym->perm.resize(n);
  sym->inv_perm.assign(n, kNpos);  // kNpos: row not pivoted yet
  const std::size_t head = n - sym->trailing;
  std::vector<std::uint32_t> candidates, in_pivot(n, kNil);
  candidates.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    candidates.clear();
    for (std::uint32_t node = col_head[k]; node != kNil;
         node = nodes[node].next) {
      const std::uint32_t r = nodes[node].row;
      if (sym->inv_perm[r] == kNpos) candidates.push_back(r);
    }
    const auto candidate = [&](std::size_t i) {
      return arena[begin[candidates[i]] + front[candidates[i]]].value;
    };
    const double best = largest_magnitude(candidates.size(), candidate);
    if (best <= kPivotTolerance * max_entry) {
      throw NumericError(
          str::format("singular matrix in sparse factorization at column %zu",
                      sym->order[k]));
    }
    // Threshold pivoting: among acceptable rows, own block first, then
    // the sparsest, then the diagonal, then the lowest index.
    const bool trailing_column = k >= head;
    const double bound = pivot_threshold * best;
    std::uint32_t p = kNil;
    std::tuple<bool, std::uint32_t, bool, std::uint32_t> p_key;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (magnitude_below(candidate(i), bound, bound * bound)) continue;
      const std::uint32_t r = candidates[i];
      const std::tuple key{(last[r] != 0) != trailing_column,
                           size[r] - front[r], r != sym->order[k], r};
      if (p == kNil || key < p_key) {
        p = r;
        p_key = key;
      }
    }
    sym->perm[k] = p;
    sym->inv_perm[p] = k;

    // Every other candidate row, past position k, -= multiplier * the
    // pivot row past position k: shared positions are updated in place
    // (found through the pivot row's scattered positions), then any fill
    // is merged in from the back.  Exact cancellations stay in the
    // pattern.
    const T pivot = arena[begin[p] + front[p]].value;
    const std::uint32_t pivot_size = size[p] - front[p];
    for (std::uint32_t j = 1; j < pivot_size; ++j) {
      in_pivot[arena[begin[p] + front[p] + j].pos] = j;
    }
    for (const std::uint32_t r : candidates) {
      if (r == p) continue;
      Entry* row = arena.data() + begin[r];
      const Entry* pivot_row = arena.data() + begin[p] + front[p];
      const T multiplier = row[front[r]].value / pivot;
      row[front[r]].value = multiplier;
      const std::uint32_t done = ++front[r];
      const std::uint32_t old_size = size[r];
      std::uint32_t fill = pivot_size - 1;
      for (std::uint32_t i = done; i < old_size; ++i) {
        const std::uint32_t j = in_pivot[row[i].pos];
        if (j == kNil) continue;
        row[i].value =
            update_entry(row[i].value, multiplier, pivot_row[j].value);
        --fill;
      }
      if (fill == 0) continue;
      const std::uint32_t new_size = old_size + fill;
      if (new_size > capacity[r]) {
        const std::size_t moved = arena.size();
        if (moved + 2 * std::size_t{new_size} >= kNil) {
          throw NumericError(
              "sparse factorization too large for 32-bit indices");
        }
        arena.resize(moved + 2 * std::size_t{new_size});
        std::copy_n(arena.begin() + begin[r], old_size,
                    arena.begin() + static_cast<std::ptrdiff_t>(moved));
        begin[r] = static_cast<std::uint32_t>(moved);
        capacity[r] = 2 * new_size;
        row = arena.data() + begin[r];
        pivot_row = arena.data() + begin[p] + front[p];
      }
      std::uint32_t i = old_size, j = pivot_size, w = new_size;
      while (w > i) {  // w - i fill entries still to place
        if (i > done && row[i - 1].pos >= pivot_row[j - 1].pos) {
          if (row[i - 1].pos == pivot_row[j - 1].pos) --j;
          row[--w] = row[--i];
        } else {
          --j;
          row[--w] = {pivot_row[j].pos,
                      fill_entry(multiplier, pivot_row[j].value)};
          link(pivot_row[j].pos, r);
        }
      }
      size[r] = new_size;
    }
    for (std::uint32_t j = 1; j < pivot_size; ++j) {
      in_pivot[arena[begin[p] + front[p] + j].pos] = kNil;
    }
  }
  nodes = {};
  col_head = {};

  // Freeze the elimination outcome: factor row k is pivot row perm[k] —
  // its multipliers, then the pivot, then its U entries.  `pos` keeps
  // each slot's pivot position for the compile below.
  std::size_t nnz = 0;
  for (std::size_t r = 0; r < n; ++r) nnz += size[r];
  if (nnz > std::numeric_limits<std::uint32_t>::max()) {
    throw NumericError("sparse factor too large for a 32-bit schedule");
  }
  sym->row_start.resize(n + 1);
  sym->diag.resize(n);
  sym->col.reserve(nnz);
  values_.reserve(nnz);
  std::vector<std::uint32_t> pos;
  pos.reserve(nnz);
  sym->row_start[0] = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t r = sym->perm[k];
    const Entry* const src = arena.data() + begin[r];
    sym->diag[k] = sym->row_start[k] + front[r];
    for (std::uint32_t i = 0; i < size[r]; ++i) {
      pos.push_back(src[i].pos);
      sym->col.push_back(sym->order[src[i].pos]);
      values_.push_back(src[i].value);
    }
    sym->row_start[k + 1] = sym->row_start[k] + size[r];
  }
  arena = {};
  inv_pivot_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    inv_pivot_[k] = reciprocal(values_[sym->diag[k]]);
  }

  // Compile the elimination the refactor replays, and give every input
  // entry its slot.
  std::size_t multipliers = 0, updates = 0;
  for (std::size_t k = 0; k < n; ++k) {
    multipliers += sym->diag[k] - sym->row_start[k];
    for (std::size_t idx = sym->row_start[k]; idx < sym->diag[k]; ++idx) {
      updates += sym->row_start[pos[idx] + 1] - sym->diag[pos[idx]] - 1;
    }
  }
  sym->multiplier_pivot.resize(multipliers);
  sym->update_slot.resize(updates);
  sym->entry_slot.resize(a.entry_count());
  std::vector<std::uint32_t> slot_of_pos(n);
  compile_schedule(n, sym->row_start.data(), sym->diag.data(), sym->perm.data(),
                   pos.data(), columns.entry_start.data(),
                   columns.by_row.data(), a.entries().data(),
                   sym->position.data(), slot_of_pos.data(),
                   sym->multiplier_pivot.data(), sym->update_slot.data(),
                   sym->entry_slot.data());
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

template <typename T>
std::span<const std::uint32_t> SparseFactorization<T>::entry_slots() const {
  FTDIAG_ASSERT(symbolic_ != nullptr, "slot lookup before symbolic analysis");
  return symbolic_->entry_slot;
}

template class SparseFactorization<double>;
template class SparseFactorization<std::complex<double>>;

}  // namespace ftdiag::linalg
