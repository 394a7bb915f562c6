/// Ext-B: quantitative diagnosis accuracy (the statistics the paper's
/// mechanism implies but does not report): accuracy vs number of test
/// frequencies, vs measurement noise, vs component tolerances, and vs the
/// dictionary's deviation step.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/evaluation.hpp"
#include "session.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace ftdiag;

namespace {

core::AccuracyReport run_eval(const Session& session,
                              const core::TestVector& tv,
                              const core::EvaluationOptions& options) {
  return core::evaluate_diagnosis(session.cut(), *session.dictionary(), tv,
                                  core::SamplingPolicy{}, options);
}

std::vector<std::string> report_row(const std::string& label,
                                    const core::AccuracyReport& r) {
  return {label, ftdiag::str::format("%.1f%%", r.site_accuracy * 100),
          ftdiag::str::format("%.1f%%", r.group_accuracy * 100),
          ftdiag::str::format("%.1f%%", r.top2_accuracy * 100),
          ftdiag::str::format("%.2f%%", r.mean_deviation_error * 100),
          ftdiag::str::format("%.2f", r.mean_confidence)};
}

const std::vector<std::string> kHeader = {
    "condition", "site acc", "group acc", "top-2", "|dev err|", "confidence"};

}  // namespace

int main() {
  bench::banner("Ext-B", "diagnosis accuracy under realistic conditions",
                "nf_biquad CUT, 400 random off-grid unknown faults per row");

  core::EvaluationOptions base;
  base.trials = 400;

  // --- accuracy vs number of test frequencies --------------------------
  {
    AsciiTable table(kHeader);
    for (std::size_t n : {1u, 2u, 3u, 4u}) {
      const Session session =
          SessionBuilder::from_registry("nf_biquad").frequencies(n).build();
      const auto result = session.run_search();
      table.add_row(report_row(
          str::format("%zu frequencies (%s)", n,
                      result.best.vector.label().c_str()),
          run_eval(session, result.best.vector, base)));
    }
    table.print(std::cout, "accuracy vs test-vector size");
  }

  // Two optimized vectors for the robustness sweeps: the paper fitness
  // (intersections only) and the hybrid (intersections + separation).
  // The paper objective saturates at I = 0 and may pick frequency pairs
  // whose trajectories, while crossing-free, sit microscopically close —
  // noise then collapses them.  The hybrid keeps them apart.
  const Session session = Session::open("builtin:nf_biquad");
  const auto paper_vec = session.run_search().best.vector;
  const auto hybrid_vec = SessionBuilder::from_registry("nf_biquad")
                              .fitness(FitnessKind::kHybrid)
                              .build()
                              .run_search()
                              .best.vector;
  const auto best = hybrid_vec;  // used by the later sweeps
  std::printf("\npaper-fitness vector : %s\n", paper_vec.label().c_str());
  std::printf("hybrid-fitness vector: %s\n", hybrid_vec.label().c_str());

  // --- accuracy vs measurement noise ------------------------------------
  {
    AsciiTable table(kHeader);
    for (double sigma : {0.0, 0.002, 0.005, 0.01, 0.02, 0.05}) {
      auto options = base;
      options.noise_sigma = sigma;
      table.add_row(report_row(
          str::format("paper fitness vec, noise = %.1f%%", sigma * 100),
          run_eval(session, paper_vec, options)));
      table.add_row(report_row(
          str::format("hybrid fitness vec, noise = %.1f%%", sigma * 100),
          run_eval(session, hybrid_vec, options)));
    }
    table.print(std::cout,
                "accuracy vs measurement noise (paper vs hybrid objective)");
  }

  // --- accuracy vs component tolerances ---------------------------------
  {
    AsciiTable table(kHeader);
    for (double tol : {0.0, 0.005, 0.01, 0.02, 0.05}) {
      auto options = base;
      if (tol > 0.0) {
        faults::ToleranceSpec spec;
        spec.resistor_tolerance = tol;
        spec.capacitor_tolerance = tol;
        options.tolerance = spec;
      }
      table.add_row(report_row(
          str::format("R/C tolerance = %.1f%%", tol * 100),
          run_eval(session, best, options)));
    }
    table.print(std::cout, "accuracy vs healthy-component tolerance");
  }

  // --- accuracy vs dictionary deviation step ----------------------------
  {
    AsciiTable table(kHeader);
    for (double step : {0.05, 0.10, 0.20, 0.40}) {
      faults::DeviationSpec deviations = faults::DeviationSpec::paper();
      deviations.step_fraction = step;
      const Session stepped = SessionBuilder::from_registry("nf_biquad")
                                  .deviations(deviations)
                                  .build();
      const auto result = stepped.run_search();
      table.add_row(report_row(
          str::format("step = %.0f%% (%zu faults)", step * 100,
                      stepped.dictionary()->fault_count()),
          run_eval(stepped, result.best.vector, base)));
    }
    table.print(std::cout, "accuracy vs dictionary deviation step");
  }

  // --- accuracy vs unknown-fault magnitude ------------------------------
  {
    AsciiTable table(kHeader);
    struct Range { double lo, hi; };
    for (const Range r : {Range{0.02, 0.05}, Range{0.05, 0.10},
                          Range{0.10, 0.25}, Range{0.25, 0.40}}) {
      auto options = base;
      options.min_abs_deviation = r.lo;
      options.max_abs_deviation = r.hi;
      options.noise_sigma = 0.005;
      table.add_row(report_row(
          str::format("|deviation| in [%.0f%%, %.0f%%], 0.5%% noise",
                      r.lo * 100, r.hi * 100),
          run_eval(session, best, options)));
    }
    table.print(std::cout, "accuracy vs unknown-fault magnitude");
  }
  return 0;
}
