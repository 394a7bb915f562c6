#include "faults/fault_injector.hpp"

#include "util/rng.hpp"

namespace ftdiag::faults {

namespace {

void apply(netlist::Circuit& circuit, const ParametricFault& fault) {
  if (fault.site.target == FaultSite::Target::kComponentValue) {
    circuit.scale_value(fault.site.component, fault.multiplier());
  } else {
    const double nominal =
        circuit.opamp_param(fault.site.component, fault.site.param);
    circuit.set_opamp_param(fault.site.component, fault.site.param,
                            nominal * fault.multiplier());
  }
}

}  // namespace

netlist::Circuit inject(const netlist::Circuit& circuit,
                        const ParametricFault& fault) {
  netlist::Circuit faulty = circuit;
  apply(faulty, fault);
  return faulty;
}

netlist::Circuit inject_all(const netlist::Circuit& circuit,
                            const std::vector<ParametricFault>& faults) {
  netlist::Circuit faulty = circuit;
  for (const auto& fault : faults) apply(faulty, fault);
  return faulty;
}

mna::AcResponse add_measurement_noise(const mna::AcResponse& response,
                                      const MeasurementNoise& noise) {
  if (noise.sigma <= 0.0) return response;
  Rng rng(noise.seed);
  std::vector<mna::Complex> values = response.values();
  for (auto& v : values) {
    const double factor = 1.0 + rng.normal(0.0, noise.sigma);
    // Clamp so a large noise draw cannot flip the magnitude sign.
    v *= factor > 0.01 ? factor : 0.01;
  }
  return mna::AcResponse(response.frequencies(), values);
}

}  // namespace ftdiag::faults
