/// \file fault_injector.hpp
/// \brief Applying parametric faults to circuits, and emulating the noisy
/// bench measurement of a faulty board's response.
#pragma once

#include <cstdint>

#include "faults/fault.hpp"
#include "mna/response.hpp"
#include "netlist/circuit.hpp"

namespace ftdiag::faults {

/// Return a copy of \p circuit with \p fault applied (value or macro-model
/// parameter multiplied by 1 + deviation).
/// \throws CircuitError if the site does not exist in the circuit.
[[nodiscard]] netlist::Circuit inject(const netlist::Circuit& circuit,
                                      const ParametricFault& fault);

/// Apply several faults at once (multi-fault scenarios; the paper assumes
/// single faults, the evaluation harness uses this for ablations).
[[nodiscard]] netlist::Circuit inject_all(
    const netlist::Circuit& circuit,
    const std::vector<ParametricFault>& faults);

/// Multiplicative gaussian amplitude noise applied per measurement sample,
/// emulating instrumentation error: |H| * (1 + N(0, sigma)).
struct MeasurementNoise {
  double sigma = 0.0;
  std::uint64_t seed = 1;
};

/// Apply multiplicative gaussian magnitude noise to a response.  Phase is
/// preserved; sigma 0 returns the response unchanged.
[[nodiscard]] mna::AcResponse add_measurement_noise(
    const mna::AcResponse& response, const MeasurementNoise& noise);

}  // namespace ftdiag::faults
