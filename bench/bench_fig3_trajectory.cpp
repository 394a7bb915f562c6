/// Fig. 3 reproduction: "R3 fault trajectory (left), fault diag. (right)".
///
/// Left: the trajectory traced in the XY plane by R3's deviation sweep
/// (through the origin at 0 %).  Right: an unknown fault (*) assigned to
/// the trajectory at minimum perpendicular distance; the paper's example
/// distinguishes an N-type from an M-type fault by that distance.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "circuits/nf_biquad.hpp"
#include "faults/fault_injector.hpp"
#include "io/exporters.hpp"
#include "io/report.hpp"
#include "mna/ac_analysis.hpp"
#include "session.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace ftdiag;

int main() {
  bench::banner("Fig. 3",
                "component fault trajectories + perpendicular-distance "
                "diagnosis of an unknown fault (*)",
                "nf_biquad CUT, GA-optimized 2-frequency test vector");

  const auto cut = circuits::make_paper_cut();
  const Session session = SessionBuilder(cut).build();
  const auto result = session.run_search();
  std::printf("test vector: %s  (fitness %.3f, intersections %zu)\n",
              result.best.vector.label().c_str(), result.best.fitness,
              result.best.intersections);

  const auto trajectories =
      session.evaluator().trajectories(result.best.vector);

  // Left panel: the R3 trajectory, point by point.
  AsciiTable left({"deviation", "x (|H(f1)| - golden)", "y (|H(f2)| - golden)"});
  for (const auto& t : trajectories) {
    if (t.site() != "R3") continue;
    for (const auto& p : t.points()) {
      left.add_row({str::format("%+.0f%%", p.deviation * 100),
                    str::format("%+.6f", p.coords[0]),
                    str::format("%+.6f", p.coords[1])});
    }
  }
  left.print(std::cout, "Fig.3 left: R3 fault trajectory");

  // All-trajectory summary (the full left panel).
  AsciiTable summary({"site", "len", "endpoint -40%", "endpoint +40%"});
  for (const auto& t : trajectories) {
    summary.add_row(
        {t.site(), str::format("%.4f", t.length()),
         str::format("(%+.4f, %+.4f)", t.points().front().coords[0],
                     t.points().front().coords[1]),
         str::format("(%+.4f, %+.4f)", t.points().back().coords[0],
                     t.points().back().coords[1])});
  }
  summary.print(std::cout, "all 7 trajectories");

  // Right panel: diagnose an unknown off-grid fault.
  const auto engine = session.evaluator().make_engine(result.best.vector);
  for (const auto& unknown :
       {faults::ParametricFault{faults::FaultSite::value_of("R3"), 0.23},
        faults::ParametricFault{faults::FaultSite::value_of("C1"), -0.17},
        faults::ParametricFault{faults::FaultSite::value_of("Rb"), 0.35}}) {
    const auto faulty = faults::inject(cut.circuit, unknown);
    mna::AcAnalysis analysis(faulty);
    const auto measured = analysis.sweep(result.best.vector.frequencies_hz,
                                         cut.output_node);
    const auto observed = session.evaluator().sampler().sample(
        measured, result.best.vector.frequencies_hz);
    std::printf("\nunknown fault (*) injected: %s   observed point (%.5f, %.5f)\n",
                unknown.label().c_str(), observed[0], observed[1]);
    io::print_diagnosis(std::cout, engine.diagnose(observed));
  }

  std::ofstream csv("fig3_trajectories.csv", std::ios::binary);
  io::write_trajectories_csv(csv, trajectories);
  io::write_file("fig3_trajectories.gp",
                 io::trajectory_gnuplot_script(
                     trajectories, "fig3_trajectories.csv",
                     "nf_biquad fault trajectories (" +
                         result.best.vector.label() + ")"));
  std::printf("\ntrajectories written to fig3_trajectories.csv (+ .gp)\n");
  return 0;
}
