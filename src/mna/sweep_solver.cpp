#include "mna/sweep_solver.hpp"

#include "linalg/complex_utils.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace ftdiag::mna {

namespace {

/// Frozen sparse pivot orders that broke down at a sweep point and were
/// answered by a point-local fresh analysis (leaked reference into the
/// leaked global registry, safe from any thread at any time).
obs::Counter& pivot_breakdowns() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "ftdiag_sparse_pivot_breakdowns_total", {},
      "sparse refactors whose frozen pivot order broke down, answered by a "
      "point-local fresh analysis");
  return counter;
}

/// Write A(s_l) = G + s_l*C into every lane of \p values, the context's
/// slot layout: G's merged slot values, then each reactive entry's
/// fma(s, c, value) per component, in list order — the roundings of
/// `value += s * c` on a std::complex.
template <typename P>
void load_lanes(const SweepContext& context, std::span<const Complex> s,
                double* values) {
  constexpr std::size_t kWidth = P::width;
  constexpr std::size_t kStride = 2 * kWidth;
  std::array<double, kWidth> s_re, s_im;
  for (std::size_t l = 0; l < kWidth; ++l) {
    s_re[l] = s[l].real();
    s_im[l] = s[l].imag();
  }
  const P lane_re = P::load(s_re.data());
  const P lane_im = P::load(s_im.data());
  const std::size_t slots = context.g_values.size();
  for (std::size_t i = 0; i < slots; ++i) {
    P::broadcast(context.g_values[i].real()).store(values + i * kStride);
    P::broadcast(context.g_values[i].imag())
        .store(values + i * kStride + kWidth);
  }
  for (const auto& [slot, coefficient] : context.c_slots) {
    double* const at = values + slot * kStride;
    const P c = P::broadcast(coefficient);
    fma(lane_re, c, P::load(at)).store(at);
    fma(lane_im, c, P::load(at + kWidth)).store(at + kWidth);
  }
}

}  // namespace

std::shared_ptr<const SweepSolver::Context> SweepSolver::analyze(
    const SweepAssembler& assembler, SolverBackend backend,
    std::span<const std::size_t> read_set) {
  auto ctx = std::make_shared<Context>();
  const std::size_t n = assembler.size();
  ctx->sparse = backend == SolverBackend::kSparse ||
                (backend == SolverBackend::kAuto &&
                 n > SweepAssembler::kDenseLimit);
  if (ctx->sparse) {
    ctx->read_set.assign(read_set.begin(), read_set.end());
    try {
      linalg::CooMatrix<Complex> coo(n, n);
      coo.reserve(assembler.static_entries().size() +
                  assembler.reactive_entry_count());
      assembler.assemble(linalg::s_of_hz(kReferenceHz), coo);
      // Lanes keep their values in blocks of their own: the reference
      // point's factor values are not kept.
      ctx->prototype =
          linalg::SparseFactorization<Complex>(coo, ctx->read_set).analysis();
    } catch (const NumericError&) {
      // Singular (or empty) at the reference point: leave the prototype
      // unanalyzed and let every lane analyze per frequency instead.
      return ctx;
    }
    // Map the entry lists onto the frozen pattern once, through the slots
    // the analysis gave the COO's entries: its nonzero G entries, then its
    // nonzero s*C ones, each in list order.  Zero entries are zero at every
    // frequency, and were never part of the analyzed COO.
    const std::span<const std::uint32_t> slots = ctx->prototype.entry_slots();
    ctx->g_values.assign(ctx->prototype.factor_nnz(), Complex{});
    std::size_t i = 0;
    for (const auto& e : assembler.static_entries()) {
      if (e.value != Complex{}) ctx->g_values[slots[i++]] += e.value;
    }
    ctx->c_slots.reserve(slots.size() - i);
    for (const auto& e : assembler.reactive_entries()) {
      if (e.coefficient != 0.0) {
        ctx->c_slots.emplace_back(slots[i++], e.coefficient);
      }
    }
    FTDIAG_ASSERT(i == slots.size(),
                  "analyzed entries differ from the assembler's lists");
  } else if (n > SweepAssembler::kDenseLimit) {
    // Forced dense past the assembler's premerge limit: merge G here, in
    // stamp order, exactly as prepare_sweep() does below the limit.
    ctx->g_dense = linalg::Matrix<Complex>(n, n);
    for (const auto& e : assembler.static_entries()) {
      ctx->g_dense(e.row, e.col) += e.value;
    }
  }
  return ctx;
}

template <typename P>
SparseBatchSolver<P>::SparseBatchSolver(
    const SweepAssembler& assembler, std::shared_ptr<const SweepContext> context)
    : assembler_(&assembler),
      context_(std::move(context)),
      coo_(assembler.size(), assembler.size()) {
  FTDIAG_ASSERT(context_ != nullptr && context_->sparse,
                "sparse batch solver needs an analyzed sparse context");
  if (context_->prototype.analyzed()) {
    values_ = linalg::simd::aligned_buffer(context_->prototype.factor_nnz() *
                                           kStride);
  }
}

template <typename P>
void SparseBatchSolver<P>::factor(std::span<const Complex> s,
                                  std::size_t valid) {
  FTDIAG_ASSERT(s.size() == kWidth && valid >= 1 && valid <= kWidth,
                "sparse batch factor needs kWidth points, one or more real");
  const linalg::SparseFactorization<Complex>& prototype = context_->prototype;
  // Every real lane analyzes fresh when the reference analysis failed.
  unsigned broken = (1u << valid) - 1;
  if (prototype.analyzed()) {
    load_lanes<P>(*context_, s, values_.get());
    broken &= prototype.refactor_lanes<P>(values_.get());
    // The frozen pivot order is numerically unusable at these lanes'
    // points: each analyzes fresh for its point only.  The shared context
    // stays untouched, so the fallback never leaks into other lanes or
    // frequencies.
    for (unsigned rest = broken; rest != 0; rest &= rest - 1) {
      pivot_breakdowns().inc();
    }
  }
  for (std::size_t l = 0; l < kWidth; ++l) {
    if ((broken >> l & 1u) == 0) continue;
    assembler_->assemble(s[l], coo_);
    fresh_[l] = linalg::SparseFactorization<Complex>(coo_, context_->read_set);
  }
  fresh_lanes_ = broken;
}

template <typename P>
template <typename Solve>
void SparseBatchSolver<P>::scatter_fresh(double* x,
                                         std::span<const std::size_t> unknowns,
                                         const Solve& solve) const {
  if (fresh_lanes_ == 0) return;
  const std::size_t n = assembler_->size();
  std::vector<Complex> lane_x(n);
  const std::size_t count = unknowns.empty() ? n : unknowns.size();
  for (std::size_t l = 0; l < kWidth; ++l) {
    if ((fresh_lanes_ >> l & 1u) == 0) continue;
    solve(fresh_[l], lane_x);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t u = unknowns.empty() ? i : unknowns[i];
      x[u * kStride + l] = lane_x[u].real();
      x[u * kStride + kWidth + l] = lane_x[u].imag();
    }
  }
}

template <typename P>
void SparseBatchSolver<P>::solve_into(std::span<const Complex> b,
                                      double* x) const {
  if (context_->prototype.analyzed()) {
    context_->prototype.solve_lanes<P>(values_.get(), b, x);
  }
  scatter_fresh(x, {},
                [&](const linalg::SparseFactorization<Complex>& lu,
                    std::span<Complex> lane_x) { lu.solve_into(b, lane_x); });
}

template <typename P>
void SparseBatchSolver<P>::solve_read_set(
    std::span<const std::pair<std::size_t, Complex>> b, double* x) const {
  if (context_->prototype.analyzed()) {
    context_->prototype.solve_trailing_lanes<P>(values_.get(), b, x);
  }
  scatter_fresh(x, context_->read_set,
                [&](const linalg::SparseFactorization<Complex>& lu,
                    std::span<Complex> lane_x) {
                  lu.solve_trailing(b, lane_x);
                });
}

template class SparseBatchSolver<linalg::simd::ScalarPack>;
#if FTDIAG_SIMD_NATIVE
template class SparseBatchSolver<linalg::simd::Pack4>;
#endif

SweepSolver::SweepSolver(const SweepAssembler& assembler,
                         std::shared_ptr<const Context> context)
    : assembler_(&assembler), context_(std::move(context)) {
  FTDIAG_ASSERT(context_ != nullptr, "sweep solver needs an analyzed context");
  if (context_->sparse) sparse_.emplace(assembler, context_);
}

void SweepSolver::factor(Complex s) {
  if (sparse_) {
    sparse_->factor({&s, 1});
    return;
  }
  if (size() <= SweepAssembler::kDenseLimit) {
    assembler_->assemble(s, a_);
  } else {
    a_ = context_->g_dense;
    for (const auto& e : assembler_->reactive_entries()) {
      a_(e.row, e.col) += s * e.coefficient;
    }
  }
  lu_.factor_in_place(a_);
}

void SweepSolver::solve_into(std::span<const Complex> b,
                             std::span<Complex> x) const {
  if (sparse_) {
    FTDIAG_ASSERT(x.size() == size(), "solution size mismatch");
    sparse_->solve_into(b, reinterpret_cast<double*>(x.data()));
  } else {
    lu_.solve_into(b, x);
  }
}

void SweepSolver::solve_read_set(
    std::span<const std::pair<std::size_t, Complex>> b,
    std::span<Complex> x) const {
  FTDIAG_ASSERT(sparse_, "read-set solves need the sparse backend");
  FTDIAG_ASSERT(x.size() == size(), "solution size mismatch");
  sparse_->solve_read_set(b, reinterpret_cast<double*>(x.data()));
}

}  // namespace ftdiag::mna
