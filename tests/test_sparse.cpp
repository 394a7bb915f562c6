#include "linalg/sparse_factorization.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <map>
#include <utility>
#include <vector>

#include "circuits/ladders.hpp"
#include "linalg/complex_utils.hpp"
#include "linalg/lu.hpp"
#include "linalg/simd.hpp"
#include "mna/system.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ftdiag::linalg {
namespace {

using C = std::complex<double>;

TEST(Coo, DuplicatesSumOnDensify) {
  CooMatrix<double> coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 0, 2.5);
  coo.add(1, 1, -1.0);
  const auto dense = coo.to_dense();
  EXPECT_DOUBLE_EQ(dense(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(dense(1, 1), -1.0);
  EXPECT_DOUBLE_EQ(dense(0, 1), 0.0);
}

TEST(Coo, ExactZerosDropped) {
  CooMatrix<double> coo(2, 2);
  coo.add(0, 0, 0.0);
  EXPECT_EQ(coo.entry_count(), 0u);
}

// ---------------------------------------------------- SparseFactorization

TEST(SparseFactorization, SolvesAndReportsShape) {
  CooMatrix<double> coo(2, 2);
  coo.add(0, 0, 2.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 3.0);
  const SparseFactorization<double> f(coo);
  EXPECT_TRUE(f.analyzed());
  EXPECT_EQ(f.size(), 2u);
  const auto x = f.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseFactorization, RequiresSquareAndNonZero) {
  CooMatrix<double> rect(2, 3);
  rect.add(0, 0, 1.0);
  EXPECT_THROW((void)SparseFactorization<double>(rect), NumericError);
  CooMatrix<double> zero(3, 3);
  EXPECT_THROW((void)SparseFactorization<double>(zero), NumericError);
}

TEST(SparseFactorization, SingularThrows) {
  CooMatrix<double> coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 0, 1.0);  // column 1 empty -> singular
  EXPECT_THROW((void)SparseFactorization<double>(coo), NumericError);
}

TEST(SparseFactorization, InvalidPivotThresholdRejected) {
  CooMatrix<double> coo(1, 1);
  coo.add(0, 0, 1.0);
  EXPECT_DEATH(SparseFactorization<double>(coo, {}, 0.0), "pivot threshold");
}

TEST(SparseFactorization, PermutedIdentity) {
  CooMatrix<double> coo(3, 3);
  coo.add(0, 2, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(2, 1, 1.0);
  const SparseFactorization<double> f(coo);
  EXPECT_EQ(f.factor_nnz(), 3u);  // pure permutation, no fill-in
  const auto x = f.solve({10.0, 20.0, 30.0});
  EXPECT_NEAR(x[2], 10.0, 1e-12);
  EXPECT_NEAR(x[0], 20.0, 1e-12);
  EXPECT_NEAR(x[1], 30.0, 1e-12);
}

/// Elimination must keep entries that cancel to exactly 0.0, so two
/// matrices with the SAME sparsity pattern produce factors with the same
/// structure.  In the first matrix the (1,1) entry cancels exactly during
/// the elimination (2 - 2*1 = 0); the second has the same pattern without
/// cancellation.
TEST(SparseFactorization, ExactCancellationKeepsFactorStructure) {
  auto build = [](double a11) {
    CooMatrix<double> coo(3, 3);
    coo.add(0, 0, 2.0);
    coo.add(0, 1, 1.0);
    coo.add(1, 0, 4.0);
    coo.add(1, 1, a11);
    coo.add(1, 2, 1.0);
    coo.add(2, 1, 1.0);
    coo.add(2, 2, 1.0);
    return coo;
  };
  const CooMatrix<double> cancelling = build(2.0);  // det = -2, nonsingular
  const CooMatrix<double> plain = build(5.0);       // det = 4
  const SparseFactorization<double> f_cancel(cancelling);
  const SparseFactorization<double> f_plain(plain);
  EXPECT_EQ(f_cancel.factor_nnz(), f_plain.factor_nnz())
      << "factor structure depended on values, not just the pattern";
  const std::vector<double> b{1.0, 2.0, 3.0};
  for (const auto* coo : {&cancelling, &plain}) {
    const auto xs = SparseFactorization<double>(*coo).solve(b);
    const auto xd = solve_dense(coo->to_dense(), b);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-12);
  }
}

/// Entries of the INPUT that sum to exactly zero are structural too.
TEST(SparseFactorization, InputEntriesCancellingToZeroStayStructural) {
  auto build = [](double extra) {
    CooMatrix<double> coo(2, 2);
    coo.add(0, 0, 1.0);
    coo.add(0, 1, 1.0);
    coo.add(0, 1, extra);  // duplicate stamp; -1 cancels the entry exactly
    coo.add(1, 0, 1.0);
    coo.add(1, 1, 3.0);
    return coo;
  };
  const SparseFactorization<double> cancelled(build(-1.0));
  const SparseFactorization<double> kept(build(1.0));
  EXPECT_EQ(cancelled.factor_nnz(), kept.factor_nnz());
  EXPECT_NO_THROW((void)cancelled.slot(0, 1));
  const auto x = cancelled.solve({2.0, 5.0});
  EXPECT_NEAR(x[0], 2.0, 1e-12);  // [[1,0],[1,3]] x = [2,5]
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

/// Arrow matrix: a hub row/column coupled to every other unknown.  Any
/// order that eliminates the hub first fills the whole matrix; minimum
/// degree eliminates the leaves first and fills nothing.
TEST(SparseFactorization, MinimumDegreeOrderAvoidsFill) {
  const std::size_t n = 40;
  CooMatrix<double> coo(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0 + static_cast<double>(i));
    if (i > 0) {
      coo.add(0, i, 1.0);
      coo.add(i, 0, 1.0);
    }
  }
  const SparseFactorization<double> f(coo);
  EXPECT_EQ(f.factor_nnz(), 3 * n - 2);
  std::vector<double> b(n, 1.0);
  const auto xs = f.solve(b);
  const auto xd = solve_dense(coo.to_dense(), b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-12);
}

/// The core contract: analyze once, refill with OTHER same-pattern values,
/// and match the dense solution of the new values — including values
/// whose elimination cancels a factor entry to exactly zero.
TEST(SparseFactorization, RefactorMatchesDenseForNewValues) {
  auto build = [](double a12) {
    CooMatrix<double> coo(3, 3);
    coo.add(0, 0, 2.0);
    coo.add(0, 1, 1.0);
    coo.add(0, 2, 1.0);
    coo.add(1, 0, 4.0);
    coo.add(1, 1, 5.0);
    coo.add(1, 2, a12);
    coo.add(2, 1, 1.0);
    coo.add(2, 2, 1.0);
    return coo;
  };
  SparseFactorization<double> f(build(3.0));
  const std::size_t nnz = f.factor_nnz();
  const std::vector<double> b{1.0, -2.0, 3.0};
  for (double a12 : {7.0, 2.0 /* exact cancellation: 2 - 2*1 */, -3.0}) {
    const auto coo = build(a12);
    f.refactor(coo);
    EXPECT_EQ(f.factor_nnz(), nnz) << "pattern must never change";
    const auto xs = f.solve(b);
    const auto xd = solve_dense(coo.to_dense(), b);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(xs[i], xd[i], 1e-12) << "a12=" << a12;
    }
  }
}

/// A structural SUBSET is a legal refactor input (the reactive part of
/// G + s*C vanishing at some frequency); a superset is not.
TEST(SparseFactorization, SubsetPatternRefactorsSupersetThrows) {
  CooMatrix<double> full(2, 2);
  full.add(0, 0, 2.0);
  full.add(0, 1, 1.0);
  full.add(1, 0, 1.0);
  full.add(1, 1, 3.0);
  SparseFactorization<double> f(full);

  CooMatrix<double> subset(2, 2);  // off-diagonals absent
  subset.add(0, 0, 4.0);
  subset.add(1, 1, 2.0);
  f.refactor(subset);
  const auto x = f.solve({8.0, 6.0});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);

  CooMatrix<double> superset(2, 2);
  superset.add(0, 0, 2.0);
  superset.add(1, 1, 3.0);
  superset.add(1, 0, 1.0);
  superset.add(0, 1, 1.0);
  f.refactor(superset);  // same pattern: fine
  CooMatrix<double> outside(2, 2);
  outside.add(0, 0, 2.0);
  outside.add(1, 1, 3.0);
  EXPECT_NO_THROW(f.refactor(outside));
  SparseFactorization<double> diag_only(outside);
  CooMatrix<double> off(2, 2);
  off.add(0, 0, 2.0);
  off.add(0, 1, 1.0);  // outside the diagonal-only pattern
  off.add(1, 1, 3.0);
  EXPECT_THROW(diag_only.refactor(off), NumericError);
}

/// When the frozen pivot order is numerically unusable for the new values
/// the refactor must refuse instead of producing garbage.
TEST(SparseFactorization, PivotBreakdownThrows) {
  CooMatrix<double> good(2, 2);
  good.add(0, 0, 1.0);
  good.add(0, 1, 1.0);
  good.add(1, 0, 1.0);
  good.add(1, 1, 2.0);
  SparseFactorization<double> f(good);
  CooMatrix<double> bad(2, 2);
  bad.add(0, 0, 1e-30);  // frozen pivot collapses
  bad.add(0, 1, 1.0);
  bad.add(1, 0, 1.0);
  bad.add(1, 1, 2.0);
  EXPECT_THROW(f.refactor(bad), NumericError);
}

/// Structural zero diagonals (voltage-source/branch rows in MNA) force row
/// exchanges; the frozen permutation must survive a refactor.
TEST(SparseFactorization, PivotingStressPermutedSystem) {
  auto build = [](double scale) {
    CooMatrix<double> coo(4, 4);
    // Rows 0/1 have zero diagonals, saddle-point style.
    coo.add(0, 2, 1.0 * scale);
    coo.add(0, 3, 2.0);
    coo.add(1, 2, 3.0);
    coo.add(1, 3, -1.0 * scale);
    coo.add(2, 0, 1.0);
    coo.add(2, 2, 0.5 * scale);
    coo.add(3, 1, 2.0 * scale);
    coo.add(3, 3, 0.25);
    return coo;
  };
  SparseFactorization<double> f(build(1.0));
  const std::vector<double> b{1.0, 2.0, 3.0, 4.0};
  for (double scale : {1.0, 5.0, -2.0}) {
    const auto coo = build(scale);
    f.refactor(coo);
    const auto xs = f.solve(b);
    const auto xd = solve_dense(coo.to_dense(), b);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(xs[i], xd[i], 1e-10) << "scale=" << scale;
    }
  }
}

/// Randomized differential sweep: analyze at one draw of values, refactor
/// at another, always matching dense; copies share the symbolic phase but
/// never numeric state.
class SparseFactorizationAgreementTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SparseFactorizationAgreementTest, RefactorMatchesDenseSolver) {
  const std::size_t n = GetParam();
  Rng rng(900 + n);
  // One fixed pattern, two value draws over it.
  std::vector<std::pair<std::size_t, std::size_t>> pattern;
  for (std::size_t i = 0; i < n; ++i) {
    pattern.emplace_back(i, i);
    for (int k = 0; k < 3; ++k) {
      const std::size_t j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (j != i) pattern.emplace_back(i, j);
    }
  }
  auto draw = [&]() {
    CooMatrix<double> coo(n, n);
    for (const auto& [i, j] : pattern) {
      coo.add(i, j, i == j ? 4.0 + rng.uniform() : rng.uniform(-1.0, 1.0));
    }
    return coo;
  };
  const auto first = draw();
  const auto second = draw();
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  SparseFactorization<double> f(first);
  {
    const auto xs = f.solve(b);
    const auto xd = solve_dense(first.to_dense(), b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
  }
  SparseFactorization<double> clone = f;  // shares the symbolic phase
  clone.refactor(second);
  {
    const auto xs = clone.solve(b);
    const auto xd = solve_dense(second.to_dense(), b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
  }
  // The original is untouched by the clone's refactor.
  const auto xs = f.solve(b);
  const auto xd = solve_dense(first.to_dense(), b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseFactorizationAgreementTest,
                         ::testing::Values(2, 5, 10, 25, 50, 100, 200));

/// Random complex system with a few off-diagonals per row.
CooMatrix<C> random_complex_system(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix<C> coo(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    coo.add(i, i, C(3.0 + rng.uniform(), rng.uniform()));
    for (int k = 0; k < 2; ++k) {
      const std::size_t j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (j != i) {
        coo.add(i, j, C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)));
      }
    }
  }
  return coo;
}

TEST(SparseFactorization, ComplexAgreesWithDense) {
  const std::size_t n = 60;
  const CooMatrix<C> coo = random_complex_system(n, 77);
  Rng rng(78);
  std::vector<C> b(n);
  for (auto& v : b) v = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  const auto xs = SparseFactorization<C>(coo).solve(b);
  const auto xd = solve_dense(coo.to_dense(), b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(xs[i] - xd[i]), 0.0, 1e-11);
  }
}

/// The trailing solve must reproduce the full solve at every trailing
/// unknown, for right-hand sides inside and outside the trailing rows.
TEST(SparseFactorization, TrailingSolveMatchesFullSolveOnTrailingSet) {
  const std::size_t n = 80;
  const CooMatrix<C> coo = random_complex_system(n, 91);
  const std::vector<std::size_t> trailing{3, 17, 18, 42, 79};
  const SparseFactorization<C> f(coo, trailing);
  Rng rng(92);
  std::vector<C> x(n, C(1e300, 0.0));  // stale scratch must not leak in
  for (const std::vector<std::size_t>& rows :
       {std::vector<std::size_t>{}, std::vector<std::size_t>{17},
        std::vector<std::size_t>{3, 79}, std::vector<std::size_t>{0, 42},
        std::vector<std::size_t>{55, 56, 18}}) {
    std::vector<std::pair<std::size_t, C>> entries;
    std::vector<C> b(n, C{});
    for (std::size_t r : rows) {
      const C v(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
      entries.emplace_back(r, v);
      b[r] += v;
    }
    f.solve_trailing(entries, x);
    const auto full = f.solve(b);
    for (std::size_t u : trailing) {
      EXPECT_NEAR(std::abs(x[u] - full[u]), 0.0,
                  1e-12 * (1.0 + std::abs(full[u])))
          << "unknown " << u << " with " << rows.size() << " rhs rows";
    }
  }
}

/// The analysis is a function of the matrix, not of the order its entries
/// arrive in: a 200-unknown random RC network's COO (duplicates summed
/// first, so every entry's value is the same either way) analyzed as
/// given and shuffled gives the same pattern, the same slots and the same
/// first factor, bit for bit.
TEST(SparseFactorization, AnalysisDependsOnStructureNotEntryOrder) {
  circuits::RandomNetworkDesign design;
  design.nodes = 199;
  design.chords = 300;
  design.seed = 23;
  const auto cut = circuits::make_random_network(design);
  const mna::MnaSystem system(cut.circuit);
  const auto assembler = system.prepare_sweep();
  const std::size_t n = assembler.size();
  ASSERT_EQ(n, 200u);
  CooMatrix<C> stamped(n, n);
  assembler.assemble(linalg::s_of_hz(1e3), stamped);
  std::map<std::pair<std::size_t, std::size_t>, C> merged;
  for (const auto& e : stamped.entries()) merged[{e.row, e.col}] += e.value;
  std::vector<CooMatrix<C>::Entry> entries;
  for (const auto& [at, value] : merged) {
    entries.push_back({at.first, at.second, value});
  }
  CooMatrix<C> given(n, n), shuffled(n, n);
  for (const auto& e : entries) given.add(e.row, e.col, e.value);
  std::shuffle(entries.begin(), entries.end(), Rng(24));
  for (const auto& e : entries) shuffled.add(e.row, e.col, e.value);

  const SparseFactorization<C> a(given), b(shuffled);
  EXPECT_EQ(a.factor_nnz(), b.factor_nnz());
  for (const auto& e : given.entries()) {
    EXPECT_EQ(a.slot(e.row, e.col), b.slot(e.row, e.col))
        << "entry (" << e.row << ", " << e.col << ")";
  }
  std::vector<C> xa(n), xb(n);
  a.solve_into(assembler.rhs(), xa);
  b.solve_into(assembler.rhs(), xb);
  EXPECT_EQ(xa, xb);
}

/// slot() + values() + refactor() is the same refactorization as
/// refactor(coo).
TEST(SparseFactorization, SlotRefillMatchesCooRefactor) {
  const std::size_t n = 50;
  const CooMatrix<C> first = random_complex_system(n, 5);
  CooMatrix<C> second(n, n);
  Rng rng(6);
  for (const auto& e : first.entries()) {
    second.add(e.row, e.col, e.value * C(rng.uniform(0.5, 2.0), 0.0));
  }
  const std::vector<std::size_t> trailing{1, 2, 30};
  SparseFactorization<C> by_coo(first, trailing);
  SparseFactorization<C> by_slot = by_coo;
  by_coo.refactor(second);
  std::fill(by_slot.values().begin(), by_slot.values().end(), C{});
  for (const auto& e : second.entries()) {
    by_slot.values()[by_slot.slot(e.row, e.col)] += e.value;
  }
  by_slot.refactor();
  std::vector<C> b(n, C(1.0, -0.5));
  EXPECT_EQ(by_coo.solve(b), by_slot.solve(b));
}

/// The 4-wide frequency batch where the build has SIMD, the width-1 twin
/// otherwise.
#if FTDIAG_SIMD_NATIVE
using BatchPack = simd::Pack4;
#else
using BatchPack = simd::ScalarPack;
#endif
constexpr std::size_t kLanes = BatchPack::width;
constexpr std::size_t kStride = SparseFactorization<C>::lane_stride<BatchPack>;

/// A lane block's lane l, as std::complex values.
std::vector<C> lane_of(const std::vector<double>& block, std::size_t count,
                       std::size_t l) {
  std::vector<C> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = C(block[i * kStride + l], block[i * kStride + kLanes + l]);
  }
  return out;
}

/// A batched refactor is kLanes scalar ones, bit for bit — every factor
/// value and every full and trailing solution — and flags exactly the
/// lane whose frozen pivot collapses, leaving the others bit-equal.
TEST(SparseFactorization, LaneBatchMatchesScalarTwinAndFlagsOnlyTheBrokenLane) {
  const std::size_t n = 40;
  const CooMatrix<C> first = random_complex_system(n, 31);
  const std::vector<std::size_t> trailing{0, 7};
  const SparseFactorization<C> factored(first, trailing);
  const SparseFactorization<C> analysis = factored.analysis();
  const std::size_t slots = analysis.factor_nnz();
  // Lane l's values: A's entries scaled by a lane-specific factor.  With
  // `collapse`, every entry of row 20 made tiny: its pivot collapses
  // whichever column it eliminates.
  auto lane_values = [&](std::size_t l, bool collapse) {
    SparseFactorization<C> f = factored;
    std::fill(f.values().begin(), f.values().end(), C{});
    const C scale(1.5 - 0.25 * static_cast<double>(l),
                  0.5 + 0.75 * static_cast<double>(l));
    for (const auto& e : first.entries()) {
      f.values()[f.slot(e.row, e.col)] +=
          e.value * scale * (collapse && e.row == 20 ? 1e-30 : 1.0);
    }
    return f;
  };
  const std::vector<C> b(n, C(0.25, 1.0));
  const std::vector<std::pair<std::size_t, C>> entries{{3, C(1.0, -0.5)},
                                                       {7, C(0.5, 2.0)}};
  for (std::size_t broken = 0; broken <= kLanes; ++broken) {
    // broken == kLanes: no lane breaks down.
    std::vector<double> block(slots * kStride);
    std::vector<SparseFactorization<C>> singles;
    for (std::size_t l = 0; l < kLanes; ++l) {
      singles.push_back(lane_values(l, l == broken));
      for (std::size_t i = 0; i < slots; ++i) {
        block[i * kStride + l] = singles[l].values()[i].real();
        block[i * kStride + kLanes + l] = singles[l].values()[i].imag();
      }
    }
    const unsigned flagged = analysis.refactor_lanes<BatchPack>(block.data());
    EXPECT_EQ(flagged, broken < kLanes ? 1u << broken : 0u)
        << "broken lane " << broken;

    std::vector<double> x(n * kStride), xt(n * kStride);
    analysis.solve_lanes<BatchPack>(block.data(), b, x.data());
    analysis.solve_trailing_lanes<BatchPack>(block.data(), entries,
                                             xt.data());
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (l == broken) {
        EXPECT_THROW(singles[l].refactor(), NumericError);
        continue;
      }
      singles[l].refactor();
      const std::vector<C> values(singles[l].values().begin(),
                                  singles[l].values().end());
      EXPECT_EQ(lane_of(block, slots, l), values) << "lane " << l;
      EXPECT_EQ(lane_of(x, n, l), singles[l].solve(b)) << "lane " << l;
      std::vector<C> reads(n);
      singles[l].solve_trailing(entries, reads);
      const std::vector<C> batched = lane_of(xt, n, l);
      for (std::size_t u : trailing) {
        EXPECT_EQ(batched[u].real(), reads[u].real()) << "lane " << l;
        EXPECT_EQ(batched[u].imag(), reads[u].imag()) << "lane " << l;
      }
    }
  }
}

/// The analysis alone shares the pattern and schedule, not the values.
TEST(SparseFactorization, AnalysisAloneKeepsStructureOnly) {
  const SparseFactorization<C> full(random_complex_system(30, 5));
  const SparseFactorization<C> alone = full.analysis();
  EXPECT_TRUE(alone.analyzed());
  EXPECT_EQ(alone.size(), full.size());
  EXPECT_EQ(alone.factor_nnz(), full.factor_nnz());
  EXPECT_EQ(alone.slot(0, 0), full.slot(0, 0));
}

}  // namespace
}  // namespace ftdiag::linalg
