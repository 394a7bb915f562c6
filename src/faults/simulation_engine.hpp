/// \file simulation_engine.hpp
/// \brief Parallel fault-simulation engine with golden-factorization reuse.
///
/// The naive dictionary build re-assembles and re-factorizes the full MNA
/// system for every fault x frequency pair.  A parametric fault perturbs
/// exactly one component stamp, so per frequency the engine
///
///   1. assembles and factorizes the *golden* system once — batched dense
///      LU for small circuits, pattern-reusing sparse LU beyond
///      mna::SweepAssembler::kDenseLimit, where one pack kernel loads,
///      refactors and solves four frequencies at a time
///      (mna::SparseBatchSolver, bit-identical to one at a time),
///   2. produces each faulty response from that factorization via a
///      Sherman–Morrison rank-1 update (linalg/rank1.hpp), solving one
///      extra triangular pair per *fault site* — on the sparse backend
///      only at the unknowns the update reads, which the build's one
///      symbolic analysis orders last — and then sweeping all of the
///      site's deviations in O(1) each,
///   3. falls back to a full refactorization for fault kinds whose stamp
///      is not a single dyad (op-amp macro parameters) and for updates the
///      stability check refuses as ill-conditioned.
///
/// Faults fan out across a small std::thread pool; every fault writes only
/// its own result slot, so the assembled dictionary is bit-identical for
/// any thread count.  With reuse disabled the engine runs the exact naive
/// per-fault computation (still in parallel), bit-identical to the legacy
/// serial loop.
#pragma once

#include <cstddef>
#include <vector>

#include "circuits/cut.hpp"
#include "faults/fault.hpp"
#include "linalg/rank1.hpp"
#include "mna/response.hpp"
#include "mna/sweep_solver.hpp"

namespace ftdiag::faults {

/// Engine configuration (plumbed through FaultDictionary::build and the
/// Session facade).
struct SimOptions {
  /// Worker threads for the fault fan-out; 0 means "auto" (the hardware
  /// concurrency).  Thread count never changes results, only wall time.
  std::size_t threads = 0;

  /// Reuse the golden LU factorization via Sherman–Morrison updates.  Off
  /// forces the naive assemble+factorize path for every fault (the
  /// bit-exact legacy behaviour; useful for differential testing).
  bool reuse_factorization = true;

  /// Error-growth bound above which a rank-1 update is refused and the
  /// fault x frequency pair is solved by full refactorization.
  double max_growth = linalg::kRank1MaxGrowth;

  /// Factorization backend of the golden phase: auto picks dense below
  /// mna::SweepAssembler::kDenseLimit and the pattern-reusing sparse
  /// factorization above it; the forced settings exist for differential
  /// tests and the dense-vs-sparse scaling benchmark.
  mna::SolverBackend backend = mna::SolverBackend::kAuto;

  /// \throws ConfigError unless max_growth > 1.
  void check() const;

  /// The effective pool size (resolves 0 to the hardware concurrency).
  [[nodiscard]] std::size_t resolved_threads() const;
};

/// Where each fault x frequency solve came from (observability for tests
/// and benchmarks; the counts are deterministic).
struct EngineStats {
  std::size_t rank1_solves = 0;      ///< pairs served by Sherman–Morrison
  std::size_t full_solves = 0;       ///< pairs served by refactorization
  std::size_t fallback_faults = 0;   ///< faults that never used reuse
};

/// One batch of fault simulation: the golden response plus one response
/// per input fault, in input order.  All are row views of one block
/// (golden.block()): the golden in row 0, fault i in row 1 + i.
struct BatchResult {
  mna::AcResponse golden;
  std::vector<mna::AcResponse> responses;
  EngineStats stats;
};

class SimulationEngine {
public:
  /// \throws ConfigError / CircuitError if the CUT or options are invalid.
  explicit SimulationEngine(circuits::CircuitUnderTest cut,
                            SimOptions options = {});

  [[nodiscard]] const circuits::CircuitUnderTest& cut() const { return cut_; }
  [[nodiscard]] const SimOptions& options() const { return options_; }

  /// Simulate the golden circuit and every fault over \p frequencies_hz
  /// (ascending).  Deterministic: the result is bit-identical for any
  /// thread count.
  [[nodiscard]] BatchResult simulate_all(
      const std::vector<ParametricFault>& faults,
      const std::vector<double>& frequencies_hz) const;

  /// simulate_all() on the caller's \p cut, which is read in place (no
  /// engine, no copy) and must outlive the call.
  /// \throws ConfigError / CircuitError if the CUT or options are invalid.
  [[nodiscard]] static BatchResult simulate(
      const circuits::CircuitUnderTest& cut, const SimOptions& options,
      const std::vector<ParametricFault>& faults,
      const std::vector<double>& frequencies_hz);

private:
  /// The simulation, on a checked CUT and options.
  [[nodiscard]] static BatchResult run(
      const circuits::CircuitUnderTest& cut, const SimOptions& options,
      const std::vector<ParametricFault>& faults,
      const std::vector<double>& frequencies_hz);

  circuits::CircuitUnderTest cut_;
  SimOptions options_;
};

}  // namespace ftdiag::faults
