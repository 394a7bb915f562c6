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
    reused_ = context_->prototype;  // shares the immutable symbolic phase
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
  use_fresh_ = false;
  if (reused_.analyzed()) {
    const std::span<Complex> values = reused_.values();
    std::copy(context_->g_values.begin(), context_->g_values.end(),
              values.begin());
    for (const auto& [slot, coefficient] : context_->c_slots) {
      values[slot] += s * coefficient;
    }
    try {
      reused_.refactor();
      return;
    } catch (const NumericError&) {
      // Frozen pivot order is numerically unusable here — analyze fresh
      // for this point only.  The shared context stays untouched, so the
      // fallback never leaks into other frequencies or lanes.
      pivot_breakdowns().inc();
    }
  }
  assembler_->assemble(s, coo_);
  fresh_ = linalg::SparseFactorization<Complex>(coo_, context_->read_set);
  use_fresh_ = true;
}

void SweepSolver::solve_into(std::span<const Complex> b,
                             std::span<Complex> x) const {
  if (!context_->sparse) {
    lu_.solve_into(b, x);
  } else {
    sparse_lu().solve_into(b, x);
  }
}

void SweepSolver::solve_read_set(
    std::span<const std::pair<std::size_t, Complex>> b,
    std::span<Complex> x) const {
  FTDIAG_ASSERT(context_->sparse, "read-set solves need the sparse backend");
  sparse_lu().solve_trailing(b, x);
}

}  // namespace ftdiag::mna
