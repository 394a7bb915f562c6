/// \file ac_analysis.hpp
/// \brief Small-signal AC analysis (frequency sweep) on an MNA system.
///
/// The solver picks a dense or sparse complex LU automatically based on the
/// unknown count.  Results are node voltages relative to the AC excitation
/// defined by the circuit's sources (phasor superposition is handled by the
/// single linear solve).
///
/// Construction captures the G + s*C split once (MnaSystem::prepare_sweep);
/// every solve is then an O(n^2) combine + factor instead of a component
/// traversal, and sweep() reuses one workspace across the whole grid so the
/// steady-state loop performs no heap allocations on the dense path.
#pragma once

#include <string>
#include <vector>

#include "mna/frequency_grid.hpp"
#include "mna/response.hpp"
#include "mna/sweep_solver.hpp"
#include "mna/system.hpp"

namespace ftdiag::mna {

class AcAnalysis {
public:
  /// \throws CircuitError if the circuit is invalid or has no AC source.
  explicit AcAnalysis(const netlist::Circuit& circuit);

  /// Solve the full unknown vector at one frequency.
  /// \throws NumericError if the MNA matrix is singular at that frequency.
  [[nodiscard]] std::vector<Complex> solve(double frequency_hz) const;

  /// Voltage phasor of a named node at one frequency.
  [[nodiscard]] Complex node_voltage(double frequency_hz,
                                     const std::string& node) const;

  /// Sweep a node over a grid.
  [[nodiscard]] AcResponse sweep(const FrequencyGrid& grid,
                                 const std::string& node) const;

  /// Sweep a node over explicit frequencies (ascending).
  [[nodiscard]] AcResponse sweep(const std::vector<double>& frequencies_hz,
                                 const std::string& node) const;

  /// The same sweep, written into caller-owned planes of
  /// frequencies_hz.size() doubles (e.g. a row of a ResponsePlanes block).
  void sweep_into(const std::vector<double>& frequencies_hz,
                  const std::string& node, double* re, double* im) const;

  [[nodiscard]] const MnaSystem& system() const { return system_; }

  /// The shared G + s*C split (immutable; safe to use from any number of
  /// threads).  The simulation engine drives its zero-allocation sweep
  /// off this instead of preparing its own.
  [[nodiscard]] const SweepAssembler& sweep_assembler() const {
    return assembler_;
  }

  /// The per-circuit solver preparation (backend choice + sparse symbolic
  /// analysis), shared with any number of sweep lanes.  Built once at
  /// construction with the auto backend.
  [[nodiscard]] const std::shared_ptr<const SweepSolver::Context>&
  solver_context() const {
    return context_;
  }

  /// Unknown count above which the sparse path is used.
  static constexpr std::size_t kDenseLimit = 150;

private:
  MnaSystem system_;
  SweepAssembler assembler_;
  std::shared_ptr<const SweepSolver::Context> context_;
};

}  // namespace ftdiag::mna
