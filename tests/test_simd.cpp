/// Property and differential tests of the SIMD kernel layer
/// (src/linalg/simd.hpp and its consumers): pack operations lane by lane
/// against plain doubles, the Sherman–Morrison sweep against its scalar
/// twin at every remainder shape and alignment offset, the batched LU
/// against the scalar dense LU, the sparse zero-prefix skip against the
/// dense solve, and diagnose() against diagnose_scalar().  The whole file
/// also runs in the FTDIAG_SIMD=OFF build, where DefaultPack is
/// ScalarPack — the forced-scalar configuration must satisfy the same
/// contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <random>
#include <vector>

#include "core/diagnosis.hpp"
#include "core/trajectory.hpp"
#include "linalg/batch_lu.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/rank1.hpp"
#include "linalg/simd.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_factorization.hpp"

namespace ftdiag {
namespace {

namespace simd = linalg::simd;
using linalg::Complex;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative bound the SIMD kernel contract guarantees against the scalar
/// twin (src/linalg/README.md); empirically the values are bit-equal.
constexpr double kKernelRelTol = 1e-12;

void expect_rel_close(double a, double b, const std::string& context) {
  if (std::isnan(a) || std::isnan(b)) {
    EXPECT_TRUE(std::isnan(a) && std::isnan(b)) << context;
    return;
  }
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  EXPECT_LE(std::fabs(a - b), kKernelRelTol * scale) << context;
}

// ------------------------------------------------------------- pack ops

template <typename P>
void pack_roundtrip_case() {
  constexpr std::size_t kW = P::width;
  // Load/store through every 8-byte offset of an aligned buffer: the
  // contract requires only element alignment.
  simd::AlignedVector buffer(kW + 8, 0.0);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-5.0, 5.0);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t i = 0; i < kW; ++i) buffer[offset + i] = dist(rng);
    const P p = P::load(buffer.data() + offset);
    for (std::size_t lane = 0; lane < kW; ++lane) {
      EXPECT_EQ(p[lane], buffer[offset + lane]) << "offset " << offset;
    }
    std::vector<double> out(kW, 0.0);
    p.store(out.data());
    for (std::size_t lane = 0; lane < kW; ++lane) {
      EXPECT_EQ(out[lane], buffer[offset + lane]);
    }
  }
}

TEST(SimdPacks, LoadStoreRoundTripsAtAnyOffset) {
  pack_roundtrip_case<simd::ScalarPack>();
  pack_roundtrip_case<simd::DefaultPack>();
}

template <typename P>
void pack_arithmetic_case() {
  constexpr std::size_t kW = P::width;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  std::vector<double> a(kW), b(kW);
  for (std::size_t i = 0; i < kW; ++i) {
    a[i] = dist(rng);
    b[i] = dist(rng);
  }
  const P pa = P::load(a.data());
  const P pb = P::load(b.data());
  for (std::size_t lane = 0; lane < kW; ++lane) {
    EXPECT_EQ((pa + pb)[lane], a[lane] + b[lane]);
    EXPECT_EQ((pa - pb)[lane], a[lane] - b[lane]);
    EXPECT_EQ((pa * pb)[lane], a[lane] * b[lane]);
    EXPECT_EQ((pa / pb)[lane], a[lane] / b[lane]);
    EXPECT_EQ((-pa)[lane], -a[lane]);
    EXPECT_EQ(simd::sqrt(pa * pa)[lane], std::sqrt(a[lane] * a[lane]));
    EXPECT_EQ(simd::max(pa, pb)[lane], std::max(a[lane], b[lane]));
    EXPECT_EQ(simd::min(pa, pb)[lane], std::min(a[lane], b[lane]));
    EXPECT_EQ((pa < pb)[lane], a[lane] < b[lane]);
    EXPECT_EQ(simd::select(pa < pb, pa, pb)[lane],
              a[lane] < b[lane] ? a[lane] : b[lane]);
  }
}

TEST(SimdPacks, ArithmeticMatchesScalarLaneByLane) {
  pack_arithmetic_case<simd::ScalarPack>();
  pack_arithmetic_case<simd::DefaultPack>();
}

template <typename P>
void finite_mask_case() {
  constexpr std::size_t kW = P::width;
  const double specials[] = {0.0,  -0.0, 1.5,  kNan,
                             kInf, -kInf, -2.25, 1e300};
  std::vector<double> values(kW);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t i = 0; i < kW; ++i) values[i] = specials[(start + i) % 8];
    const auto mask = simd::finite_mask(P::load(values.data()));
    for (std::size_t lane = 0; lane < kW; ++lane) {
      EXPECT_EQ(mask[lane], std::isfinite(values[lane]))
          << "lane " << lane << " value " << values[lane];
    }
  }
}

TEST(SimdPacks, FiniteMaskMatchesStdIsfinite) {
  finite_mask_case<simd::ScalarPack>();
  finite_mask_case<simd::DefaultPack>();
}

template <typename P>
void cpack_case() {
  constexpr std::size_t kW = P::width;
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  simd::AlignedVector a_re(kW), a_im(kW), b_re(kW), b_im(kW);
  for (std::size_t i = 0; i < kW; ++i) {
    a_re[i] = dist(rng);
    a_im[i] = dist(rng);
    b_re[i] = dist(rng);
    b_im[i] = dist(rng);
  }
  using C = simd::CPack<P>;
  const C a = C::load(a_re.data(), a_im.data());
  const C b = C::load(b_re.data(), b_im.data());
  for (std::size_t lane = 0; lane < kW; ++lane) {
    const Complex za(a_re[lane], a_im[lane]);
    const Complex zb(b_re[lane], b_im[lane]);
    EXPECT_EQ((a + b).lane(lane), za + zb);
    EXPECT_EQ((a - b).lane(lane), za - zb);
    // Multiplication is the textbook formula std::complex also uses, but
    // multiply-add contraction can differ between the two inline
    // contexts, so equality holds to rounding, not bitwise.
    const Complex p = (a * b).lane(lane);
    const Complex ps = za * zb;
    expect_rel_close(p.real(), ps.real(), "mul re");
    expect_rel_close(p.imag(), ps.imag(), "mul im");
    // Division uses conj/|.|^2 instead of libm's scaled __divdc3: equal
    // up to rounding, not bitwise.
    const Complex q = (a / b).lane(lane);
    const Complex qs = za / zb;
    expect_rel_close(q.real(), qs.real(), "div re");
    expect_rel_close(q.imag(), qs.imag(), "div im");
    expect_rel_close(a.norm()[lane], std::norm(za), "norm");
  }
}

TEST(SimdPacks, ComplexPackMatchesStdComplex) {
  cpack_case<simd::ScalarPack>();
  cpack_case<simd::DefaultPack>();
}

// ----------------------------------------- Sherman–Morrison sweep twin

/// One randomized split-plane input set of length \p count, with a few
/// NaN/Inf scales and near-singular denominators mixed in to exercise the
/// refusal mask.
struct SweepInput {
  std::vector<double> scale_re, scale_im, vx0_re, vx0_im, vw_re, vw_im;
  std::vector<double> x0_re, x0_im, w_re, w_im;

  explicit SweepInput(std::size_t count, unsigned seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    auto fill = [&](std::vector<double>& v) {
      v.resize(count);
      for (double& x : v) x = dist(rng);
    };
    fill(scale_re);
    fill(scale_im);
    fill(vx0_re);
    fill(vx0_im);
    fill(vw_re);
    fill(vw_im);
    fill(x0_re);
    fill(x0_im);
    fill(w_re);
    fill(w_im);
    for (std::size_t i = 0; i < count; ++i) {
      switch (i % 7) {
        case 2:  // force denom ~ -1 + tiny: growth refusal
          scale_re[i] = -1.0 / vw_re[i] * (vw_re[i] * vw_re[i] + vw_im[i] * vw_im[i]) /
                        (vw_re[i] * vw_re[i] + vw_im[i] * vw_im[i]);
          break;
        case 4:
          scale_re[i] = kNan;
          break;
        case 5:
          scale_im[i] = kInf;
          break;
        default:
          break;
      }
    }
  }
};

template <typename P>
void sweep_twin_case(std::size_t count, unsigned seed, double max_growth) {
  SweepInput in(count, seed);
  constexpr double kSentinel = -777.25;
  std::vector<double> out_re_a(count, kSentinel), out_im_a(count, kSentinel);
  std::vector<double> out_re_b(count, kSentinel), out_im_b(count, kSentinel);
  std::vector<unsigned char> refused_a(count, 9), refused_b(count, 9);

  const std::size_t ra = linalg::sherman_morrison_sweep(
      count, in.scale_re.data(), in.scale_im.data(), in.vx0_re.data(),
      in.vx0_im.data(), in.vw_re.data(), in.vw_im.data(), in.x0_re.data(),
      in.x0_im.data(), in.w_re.data(), in.w_im.data(), max_growth,
      out_re_a.data(), out_im_a.data(), refused_a.data());
  const std::size_t rb = linalg::sherman_morrison_sweep_simd<P>(
      count, in.scale_re.data(), in.scale_im.data(), in.vx0_re.data(),
      in.vx0_im.data(), in.vw_re.data(), in.vw_im.data(), in.x0_re.data(),
      in.x0_im.data(), in.w_re.data(), in.w_im.data(), max_growth,
      out_re_b.data(), out_im_b.data(), refused_b.data());

  EXPECT_EQ(ra, rb) << "count " << count;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string at = "count " + std::to_string(count) + " i " +
                           std::to_string(i);
    ASSERT_EQ(refused_a[i], refused_b[i]) << at;
    if (refused_a[i]) {
      // Refused slots stay untouched in both kernels.
      EXPECT_EQ(out_re_a[i], kSentinel) << at;
      EXPECT_EQ(out_re_b[i], kSentinel) << at;
      EXPECT_EQ(out_im_b[i], kSentinel) << at;
    } else {
      expect_rel_close(out_re_a[i], out_re_b[i], at + " re");
      expect_rel_close(out_im_a[i], out_im_b[i], at + " im");
    }
  }
}

TEST(ShermanMorrisonSweepSimd, MatchesScalarTwinAtEveryRemainderShape) {
  constexpr std::size_t kW = simd::DefaultPack::width;
  const std::size_t counts[] = {0,      1,          kW - 1, kW,
                                kW + 1, 2 * kW + 3, 33};
  unsigned seed = 100;
  for (std::size_t count : counts) {
    sweep_twin_case<simd::DefaultPack>(count, ++seed, 1e8);
    sweep_twin_case<simd::ScalarPack>(count, ++seed, 1e8);
    // A tight growth bound turns most entries into refusals.
    sweep_twin_case<simd::DefaultPack>(count, ++seed, 1.5);
  }
}

TEST(ShermanMorrisonSweepSimd, MatchesScalarTwinAtUnalignedOffsets) {
  // The kernel must accept pointers at any 8-byte boundary: offset every
  // plane by one double and compare against the scalar twin on the same
  // offset views.
  constexpr std::size_t kCount = 37;
  SweepInput in(kCount + 1, 42);
  std::vector<double> out_re_a(kCount, 0.0), out_im_a(kCount, 0.0);
  std::vector<double> out_re_b(kCount, 0.0), out_im_b(kCount, 0.0);
  std::vector<unsigned char> refused_a(kCount, 0), refused_b(kCount, 0);
  const std::size_t ra = linalg::sherman_morrison_sweep(
      kCount, in.scale_re.data() + 1, in.scale_im.data() + 1,
      in.vx0_re.data() + 1, in.vx0_im.data() + 1, in.vw_re.data() + 1,
      in.vw_im.data() + 1, in.x0_re.data() + 1, in.x0_im.data() + 1,
      in.w_re.data() + 1, in.w_im.data() + 1, 1e8, out_re_a.data(),
      out_im_a.data(), refused_a.data());
  const std::size_t rb = linalg::sherman_morrison_sweep_simd<>(
      kCount, in.scale_re.data() + 1, in.scale_im.data() + 1,
      in.vx0_re.data() + 1, in.vx0_im.data() + 1, in.vw_re.data() + 1,
      in.vw_im.data() + 1, in.x0_re.data() + 1, in.x0_im.data() + 1,
      in.w_re.data() + 1, in.w_im.data() + 1, 1e8, out_re_b.data(),
      out_im_b.data(), refused_b.data());
  EXPECT_EQ(ra, rb);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(refused_a[i], refused_b[i]) << i;
    if (!refused_a[i]) {
      expect_rel_close(out_re_a[i], out_re_b[i], "re @ " + std::to_string(i));
      expect_rel_close(out_im_a[i], out_im_b[i], "im @ " + std::to_string(i));
    }
  }
}

// --------------------------------------------------- batched LU vs dense

/// Random diagonally-dominant complex system (always well-conditioned).
linalg::Matrix<Complex> random_system(std::size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  linalg::Matrix<Complex> a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = Complex(dist(rng), dist(rng));
    }
    a(r, r) += Complex(4.0 + static_cast<double>(n), 2.0);
  }
  return a;
}

template <typename P>
void batch_lu_case(std::size_t n, unsigned seed) {
  constexpr std::size_t kW = P::width;
  // One independent system per lane.
  std::vector<linalg::Matrix<Complex>> systems;
  systems.reserve(kW);
  for (std::size_t lane = 0; lane < kW; ++lane) {
    systems.push_back(random_system(n, seed + static_cast<unsigned>(lane)));
  }
  linalg::BatchLu<P> batch;
  batch.reshape(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t lane = 0; lane < kW; ++lane) {
        batch.re_at(r, c)[lane] = systems[lane](r, c).real();
        batch.im_at(r, c)[lane] = systems[lane](r, c).imag();
      }
    }
  }
  batch.factor();

  std::mt19937_64 rng(seed + 999);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Complex> b(n);
  for (auto& v : b) v = Complex(dist(rng), dist(rng));

  std::vector<double> x_re(n * kW), x_im(n * kW);
  batch.solve_shared(b, x_re.data(), x_im.data(), kW);

  for (std::size_t lane = 0; lane < kW; ++lane) {
    const linalg::LuFactorization<Complex> lu(systems[lane]);
    const std::vector<Complex> x = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string at = "n " + std::to_string(n) + " lane " +
                             std::to_string(lane) + " i " + std::to_string(i);
      expect_rel_close(x_re[i * kW + lane], x[i].real(), at + " re");
      expect_rel_close(x_im[i * kW + lane], x[i].imag(), at + " im");
    }
  }

  // Strided: one [kW re | kW im] block per unknown, the layout
  // mna::BatchSweepSolver solves into — the same bits as split planes.
  std::vector<double> blocks(n * 2 * kW);
  batch.solve_shared(b, blocks.data(), blocks.data() + kW, 2 * kW);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t lane = 0; lane < kW; ++lane) {
      EXPECT_EQ(blocks[i * 2 * kW + lane], x_re[i * kW + lane]) << i;
      EXPECT_EQ(blocks[i * 2 * kW + kW + lane], x_im[i * kW + lane]) << i;
    }
  }
}

TEST(BatchLu, MatchesScalarDenseLuPerLane) {
  for (std::size_t n : {1, 2, 5, 17, 40}) {
    batch_lu_case<simd::DefaultPack>(n, 500 + static_cast<unsigned>(n));
    batch_lu_case<simd::ScalarPack>(n, 900 + static_cast<unsigned>(n));
  }
}

TEST(BatchLu, ThrowsOnSingularLane) {
  constexpr std::size_t kW = simd::DefaultPack::width;
  linalg::BatchLu<simd::DefaultPack> batch;
  batch.reshape(2);
  // Lane 0 gets a singular matrix (duplicate rows); other lanes identity.
  for (std::size_t lane = 0; lane < kW; ++lane) {
    const bool singular = lane == 0;
    batch.re_at(0, 0)[lane] = 1.0;
    batch.re_at(0, 1)[lane] = 2.0;
    batch.re_at(1, 0)[lane] = singular ? 1.0 : 0.0;
    batch.re_at(1, 1)[lane] = singular ? 2.0 : 1.0;
  }
  EXPECT_THROW(batch.factor(), NumericError);
}

// ----------------------------------------- sparse zero-prefix skip (S1)

TEST(SparsePrefixSkip, MatchesDenseSolveOnSparseRhs) {
  // A banded system whose RHS is zero except near the bottom — the shape
  // the golden sweep's excitation vectors have.  The sparse solve (with
  // the structurally-zero prefix skip) must agree with the dense LU.
  const std::size_t n = 60;
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  linalg::CooMatrix<Complex> coo(n, n);
  linalg::Matrix<Complex> dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i > 2 ? i - 3 : 0; j < std::min(n, i + 4); ++j) {
      const Complex v = i == j ? Complex(8.0 + dist(rng), 3.0)
                               : Complex(dist(rng), dist(rng));
      coo.add(i, j, v);
      dense(i, j) += v;
    }
  }
  const linalg::SparseFactorization<Complex> sparse(coo);
  const linalg::LuFactorization<Complex> lu(dense);

  for (std::size_t nonzeros : {0u, 1u, 3u}) {
    std::vector<Complex> b(n, Complex{});
    for (std::size_t k = 0; k < nonzeros; ++k) {
      b[n - 1 - 2 * k] = Complex(dist(rng), dist(rng));
    }
    std::vector<Complex> xs(n), xd(n);
    sparse.solve_into(b, xs);
    lu.solve_into(b, xd);
    for (std::size_t i = 0; i < n; ++i) {
      expect_rel_close(xs[i].real(), xd[i].real(), "sparse re");
      expect_rel_close(xs[i].imag(), xd[i].imag(), "sparse im");
    }
  }
}

// ---------------------------------------------- diagnose vs scalar twin

TEST(DiagnoseSimd, MatchesScalarDiagnoseOnRandomTrajectories) {
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  const std::size_t dim = 5;
  std::vector<core::FaultTrajectory> trajectories;
  for (std::size_t t = 0; t < 9; ++t) {
    std::vector<core::TrajectoryPoint> points;
    const std::size_t count = 2 + t % 6;  // 1..6 segments
    double deviation = -0.4;
    for (std::size_t p = 0; p < count; ++p) {
      core::Point coords(dim);
      for (double& x : coords) x = dist(rng);
      points.push_back({deviation, std::move(coords)});
      deviation += 0.15;
    }
    trajectories.emplace_back("site" + std::to_string(t), std::move(points));
  }
  const core::DiagnosisEngine engine(std::move(trajectories));

  for (std::size_t trial = 0; trial < 50; ++trial) {
    core::Point observed(dim);
    for (double& x : observed) x = dist(rng);
    const core::Diagnosis wide = engine.diagnose(observed);
    const core::Diagnosis scalar = engine.diagnose_scalar(observed);
    ASSERT_EQ(wide.ranking.size(), scalar.ranking.size());
    for (std::size_t i = 0; i < wide.ranking.size(); ++i) {
      const std::string at = "trial " + std::to_string(trial) + " rank " +
                             std::to_string(i);
      EXPECT_EQ(wide.ranking[i].site, scalar.ranking[i].site) << at;
      EXPECT_EQ(wide.ranking[i].segment_index,
                scalar.ranking[i].segment_index)
          << at;
      expect_rel_close(wide.ranking[i].distance, scalar.ranking[i].distance,
                       at + " distance");
      expect_rel_close(wide.ranking[i].t, scalar.ranking[i].t, at + " t");
      expect_rel_close(wide.ranking[i].estimated_deviation,
                       scalar.ranking[i].estimated_deviation,
                       at + " deviation");
    }
  }
}

}  // namespace
}  // namespace ftdiag
