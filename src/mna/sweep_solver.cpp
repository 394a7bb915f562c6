#include "mna/sweep_solver.hpp"

#include <algorithm>

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
    linalg::CooMatrix<Complex> coo(n, n);
    assembler.assemble(linalg::s_of_hz(kReferenceHz), coo);
    try {
      ctx->prototype = linalg::SparseFactorization<Complex>(coo, ctx->read_set);
    } catch (const NumericError&) {
      // Singular (or empty) at the reference point: leave the prototype
      // unanalyzed and let every lane analyze per frequency instead.
      return ctx;
    }
    // Map the entry lists onto the frozen pattern once.  Zero entries are
    // zero at every frequency, and were never part of the analyzed COO.
    ctx->g_values.assign(ctx->prototype.factor_nnz(), Complex{});
    for (const auto& e : assembler.static_entries()) {
      if (e.value != Complex{}) {
        ctx->g_values[ctx->prototype.slot(e.row, e.col)] += e.value;
      }
    }
    for (const auto& e : assembler.reactive_entries()) {
      if (e.coefficient != 0.0) {
        ctx->c_slots.emplace_back(ctx->prototype.slot(e.row, e.col),
                                  e.coefficient);
      }
    }
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

SweepSolver::SweepSolver(const SweepAssembler& assembler,
                         std::shared_ptr<const Context> context)
    : assembler_(&assembler), context_(std::move(context)) {
  FTDIAG_ASSERT(context_ != nullptr, "sweep solver needs an analyzed context");
  if (context_->sparse) {
    coo_ = linalg::CooMatrix<Complex>(assembler.size(), assembler.size());
    // Both share the immutable symbolic phase.
    for (SparsePoint& point : points_) point.reused = context_->prototype;
  }
}

void SweepSolver::factor(Complex s) {
  if (!context_->sparse) {
    if (size() <= SweepAssembler::kDenseLimit) {
      assembler_->assemble(s, a_);
    } else {
      a_ = context_->g_dense;
      for (const auto& e : assembler_->reactive_entries()) {
        a_(e.row, e.col) += s * e.coefficient;
      }
    }
    lu_.factor_in_place(a_);
    return;
  }
  factor_point(points_[0], s);
}

void SweepSolver::factor_pair(Complex s0, Complex s1) {
  FTDIAG_ASSERT(context_->sparse, "paired factors need the sparse backend");
  SparsePoint& a = points_[0];
  SparsePoint& b = points_[1];
  if (a.reused.analyzed()) {
    load(a.reused, s0);
    load(b.reused, s1);
    try {
      linalg::SparseFactorization<Complex>::refactor_pair(a.reused, b.reused);
      a.use_fresh = false;
      b.use_fresh = false;
      return;
    } catch (const NumericError&) {
      // A frozen pivot broke down in one of the two: refactor each alone,
      // so only the point that broke down counts and analyzes fresh.
    }
  }
  factor_point(a, s0);
  factor_point(b, s1);
}

void SweepSolver::load(linalg::SparseFactorization<Complex>& lu,
                       Complex s) const {
  const std::span<Complex> values = lu.values();
  std::copy(context_->g_values.begin(), context_->g_values.end(),
            values.begin());
  for (const auto& [slot, coefficient] : context_->c_slots) {
    values[slot] += s * coefficient;
  }
}

void SweepSolver::factor_point(SparsePoint& point, Complex s) {
  point.use_fresh = false;
  if (point.reused.analyzed()) {
    load(point.reused, s);
    try {
      point.reused.refactor();
      return;
    } catch (const NumericError&) {
      // Frozen pivot order is numerically unusable here — analyze fresh
      // for this point only.  The shared context stays untouched, so the
      // fallback never leaks into other frequencies or lanes.
      pivot_breakdowns().inc();
    }
  }
  assembler_->assemble(s, coo_);
  point.fresh = linalg::SparseFactorization<Complex>(coo_, context_->read_set);
  point.use_fresh = true;
}

void SweepSolver::solve_into(std::span<const Complex> b,
                             std::span<Complex> x) const {
  if (!context_->sparse) {
    lu_.solve_into(b, x);
  } else {
    points_[0].lu().solve_into(b, x);
  }
}

void SweepSolver::solve_read_set(
    std::span<const std::pair<std::size_t, Complex>> b, std::span<Complex> x,
    std::size_t point) const {
  FTDIAG_ASSERT(context_->sparse, "read-set solves need the sparse backend");
  FTDIAG_ASSERT(point < points_.size(), "read-set solve at an unknown point");
  points_[point].lu().solve_trailing(b, x);
}

}  // namespace ftdiag::mna
