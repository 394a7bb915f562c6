/// Fig. 2 reproduction: "the transformation into a coordinate data".
///
/// The paper samples the golden curve H and one faulty curve K at two test
/// frequencies f1, f2, turning each whole curve into one XY point:
/// H -> (A1, A2), K -> (B1, B2), then translates the golden point to the
/// origin.  This binary prints exactly those numbers for a defective
/// component, at both a hand-picked and the GA-optimized frequency pair.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "circuits/nf_biquad.hpp"
#include "faults/fault_injector.hpp"
#include "mna/ac_analysis.hpp"
#include "session.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace ftdiag;

namespace {

mna::AcResponse sweep(const circuits::CircuitUnderTest& cut,
                      const netlist::Circuit& circuit,
                      const std::vector<double>& freqs) {
  return mna::AcAnalysis(circuit).sweep(freqs, cut.output_node);
}

void show_transformation(const circuits::CircuitUnderTest& cut,
                         const core::SpectralSampler& sampler,
                         const faults::ParametricFault& fault, double f1,
                         double f2) {
  const std::vector<double> freqs = {f1, f2};
  // Golden curve H and faulty curve K.
  const auto h = sweep(cut, cut.circuit, freqs);
  const auto k = sweep(cut, faults::inject(cut.circuit, fault), freqs);

  std::printf("\ntest vector: f1=%s f2=%s   fault: %s\n",
              units::format_hz(f1).c_str(), units::format_hz(f2).c_str(),
              fault.label().c_str());

  AsciiTable table({"curve", "|.(f1)|", "|.(f2)|", "XY point (golden-rel.)"});
  const auto p_h = sampler.sample(h, freqs);
  const auto p_k = sampler.sample(k, freqs);
  table.add_row({"H (golden)", str::format("A1=%.5f", h.magnitude(0)),
                 str::format("A2=%.5f", h.magnitude(1)),
                 str::format("(%.5f, %.5f)", p_h[0], p_h[1])});
  table.add_row({"K (faulty)", str::format("B1=%.5f", k.magnitude(0)),
                 str::format("B2=%.5f", k.magnitude(1)),
                 str::format("(%.5f, %.5f)", p_k[0], p_k[1])});
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::banner("Fig. 2",
                "sampling H (golden) and K (faulty) at f1, f2 -> XY points, "
                "golden point translated to the origin",
                "nf_biquad CUT, fault R3+30%");

  const auto cut = circuits::make_paper_cut();
  const core::SpectralSampler sampler(
      sweep(cut, cut.circuit, cut.dictionary_grid.frequencies()),
      core::SamplingPolicy{});

  const faults::ParametricFault fault{faults::FaultSite::value_of("R3"), 0.30};

  // A generic pair inside the passband/transition band...
  show_transformation(cut, sampler, fault, 500.0, 2000.0);

  // ...and the pair the GA would actually pick.
  const auto result = SessionBuilder(cut).build().run_search();
  std::printf("\nGA-optimized vector (fitness %.3f, I=%zu):\n",
              result.best.fitness, result.best.intersections);
  show_transformation(cut, sampler, fault,
                      result.best.vector.frequencies_hz[0],
                      result.best.vector.frequencies_hz[1]);

  std::printf(
      "\nreading: the golden curve H maps to the origin; the defective\n"
      "component moves the point away from it, exactly as in the paper.\n");
  return 0;
}
