#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <complex>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ftdiag::linalg {
namespace {

using C = std::complex<double>;

TEST(Lu, Solves2x2) {
  RealMatrix a{{2, 1}, {1, 3}};
  const auto x = solve_dense(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SolvesWithPivoting) {
  // Zero on the diagonal forces a row swap.
  RealMatrix a{{0, 1}, {1, 0}};
  const auto x = solve_dense(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  RealMatrix a{{1, 2}, {2, 4}};
  EXPECT_THROW((void)LuFactorization<double>(a), NumericError);
}

TEST(Lu, ZeroMatrixThrows) {
  RealMatrix a(3, 3);
  EXPECT_THROW((void)LuFactorization<double>(a), NumericError);
}

TEST(Lu, NonSquareThrows) {
  RealMatrix a(2, 3);
  EXPECT_THROW((void)LuFactorization<double>(a), NumericError);
}

TEST(Lu, Determinant) {
  RealMatrix a{{1, 2}, {3, 4}};
  const LuFactorization<double> lu(a);
  EXPECT_NEAR(lu.determinant(), -2.0, 1e-12);
}

TEST(Lu, DeterminantWithSwapKeepsSign) {
  RealMatrix a{{0, 1}, {1, 0}};  // det = -1
  const LuFactorization<double> lu(a);
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
  EXPECT_EQ(lu.swap_count() % 2, 1u);
}

TEST(Lu, ComplexSystem) {
  ComplexMatrix a{{C(1, 1), C(0, 0)}, {C(0, 0), C(0, 2)}};
  const auto x = solve_dense(a, std::vector<C>{C(2, 0), C(4, 0)});
  // (1+i) x0 = 2  ->  x0 = 1 - i
  EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(x[0].imag(), -1.0, 1e-12);
  // 2i x1 = 4  ->  x1 = -2i
  EXPECT_NEAR(x[1].real(), 0.0, 1e-12);
  EXPECT_NEAR(x[1].imag(), -2.0, 1e-12);
}

TEST(Lu, ConditionEstimateOrdersByConditioning) {
  RealMatrix well{{1, 0}, {0, 1}};
  RealMatrix badly{{1, 0}, {0, 1e-9}};
  EXPECT_LT(LuFactorization<double>(well).diagonal_condition_estimate(),
            LuFactorization<double>(badly).diagonal_condition_estimate());
}

/// Property sweep: random systems of several sizes must satisfy
/// ||Ax - b|| small relative to ||b||.
class LuResidualTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuResidualTest, ResidualIsSmall) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  RealMatrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-1.0, 1.0);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += 2.0;  // keep comfortably nonsingular
  }
  const auto x = solve_dense(a, b);
  const auto ax = a * x;
  double residual = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    residual = std::max(residual, std::fabs(ax[i] - b[i]));
    scale = std::max(scale, std::fabs(b[i]));
  }
  EXPECT_LT(residual, 1e-10 * (1.0 + scale));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuResidualTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

/// Complex property sweep with the same residual bound.
class ComplexLuResidualTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ComplexLuResidualTest, ResidualIsSmall) {
  const std::size_t n = GetParam();
  Rng rng(2000 + n);
  ComplexMatrix a(n, n);
  std::vector<C> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    }
    a(i, i) += C(3.0, 0.0);
  }
  const auto x = solve_dense(a, b);
  const auto ax = a * x;
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    residual = std::max(residual, std::abs(ax[i] - b[i]));
  }
  EXPECT_LT(residual, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ComplexLuResidualTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

// ----------------------------------------------------- in-place / blocked

/// A random comfortably conditioned complex system.
ComplexMatrix random_system(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ComplexMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    }
    a(i, i) += C(3.0, 0.0);
  }
  return a;
}

TEST(Lu, FactorInPlaceMatchesConstructor) {
  const ComplexMatrix a = random_system(17, 301);
  const LuFactorization<C> by_copy(a);

  ComplexMatrix scratch = a;
  LuFactorization<C> in_place;
  in_place.factor_in_place(scratch);
  EXPECT_EQ(in_place.size(), by_copy.size());
  EXPECT_EQ(in_place.swap_count(), by_copy.swap_count());

  std::vector<C> b(17);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = C(double(i), -1.0);
  const auto x_copy = by_copy.solve(b);
  const auto x_in_place = in_place.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(x_copy[i], x_in_place[i]) << "slot " << i;
  }
}

TEST(Lu, FactorInPlaceHandsBackAnEquallySizedBuffer) {
  LuFactorization<C> lu;
  ComplexMatrix a = random_system(9, 77);
  lu.factor_in_place(a);
  // The returned buffer is the factorization's previous storage: empty
  // after the first factor, 9x9 after the second.
  EXPECT_TRUE(a.empty());
  a = random_system(9, 78);
  lu.factor_in_place(a);
  EXPECT_EQ(a.rows(), 9u);
  EXPECT_EQ(a.cols(), 9u);
  // And the refactored object solves the *new* system.
  const ComplexMatrix fresh = random_system(9, 78);
  std::vector<C> b(9, C(1.0, 0.5));
  const auto x = lu.solve(b);
  const auto ax = fresh * x;
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_LT(std::abs(ax[i] - b[i]), 1e-10);
  }
}

TEST(Lu, SolveIntoMatchesSolve) {
  const ComplexMatrix a = random_system(23, 404);
  const LuFactorization<C> lu(a);
  Rng rng(11);
  std::vector<C> b(23), x(23);
  for (auto& v : b) v = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  lu.solve_into(b, x);
  const auto reference = lu.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(x[i], reference[i]) << "slot " << i;
  }
}

}  // namespace
}  // namespace ftdiag::linalg
