/// Ext-F: FFM active faults (paper §2.1: "faults on active devices will be
/// represented as % deviation on the values of their macro model").
///
/// The CUT is rebuilt with single-pole op-amp macro models; the fault
/// universe covers every macro parameter (Ad0, GBW, Rin, Rout) alongside
/// the seven passives, and the full flow runs on the combined dictionary.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "circuits/nf_biquad.hpp"
#include "core/ambiguity.hpp"
#include "core/evaluation.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace ftdiag;

int main() {
  bench::banner("Ext-F", "FFM active faults: op-amp macro-model parameter "
                         "deviations as dictionary entries",
                "nf_biquad with macro op-amp (Ad0=2e5, GBW=1MHz)");

  circuits::NfBiquadDesign design;
  design.ideal_opamps = false;
  auto cut = circuits::make_nf_biquad(design);

  // Combined universe: the 7 passives + the 4 op-amp macro parameters.
  auto universe = faults::FaultUniverse::over_testable(cut);
  const auto active = faults::FaultUniverse::over_opamp_params(cut);
  std::vector<faults::FaultSite> sites = universe.sites();
  sites.insert(sites.end(), active.sites().begin(), active.sites().end());
  const faults::FaultUniverse combined(sites, faults::DeviationSpec::paper());

  const auto dict = faults::FaultDictionary::build(cut, combined);
  std::printf("combined dictionary: %zu sites, %zu faults\n\n",
              dict.site_labels().size(), dict.fault_count());

  // Detectability: how much does each site move the response at all?
  AsciiTable detect({"site", "max |dH| over sweep (+40%)", "detectable"});
  for (const auto& site : dict.site_labels()) {
    const auto& indices = dict.entries_for(site);
    const double moved =
        dict.entries()[indices.back()].response.max_deviation(dict.golden());
    detect.add_row({site, str::format("%.2e", moved),
                    moved > 1e-4 ? "yes" : "marginal"});
  }
  detect.print(std::cout, "per-site detectability");

  const auto groups = core::find_ambiguity_groups(dict);
  std::printf("\nambiguity groups (%zu):", groups.size());
  for (const auto& g : groups) std::printf(" [%s]", g.label().c_str());
  std::printf("\n");

  // Frequency search and evaluation over the combined universe.
  const core::TestVectorEvaluator evaluator(dict);
  core::TestVector best{{700.0, 1600.0}};
  double best_fitness = evaluator.fitness(best);
  // Small grid refinement over the band for the combined dictionary.
  for (double f1 = 1.5; f1 <= 4.5; f1 += 0.25) {
    for (double f2 = f1 + 0.25; f2 <= 5.0; f2 += 0.25) {
      core::TestVector tv{{std::pow(10.0, f1), std::pow(10.0, f2)}};
      const double fitness = evaluator.fitness(tv);
      if (fitness > best_fitness) {
        best_fitness = fitness;
        best = tv;
      }
    }
  }
  const auto score = evaluator.score(best);
  std::printf("\nbest vector found: %s (fitness %.4f, I=%zu)\n",
              best.label().c_str(), score.fitness, score.intersections);

  core::EvaluationOptions options;
  options.trials = 400;
  const auto report = core::evaluate_diagnosis(cut, dict, best,
                                               core::SamplingPolicy{}, options);
  std::printf(
      "\ndiagnosis over passive+active unknown faults:\n"
      "  site accuracy  %.1f%%\n  group accuracy %.1f%%\n  top-2          %.1f%%\n",
      report.site_accuracy * 100, report.group_accuracy * 100,
      report.top2_accuracy * 100);

  std::printf(
      "\nreading: in a closed negative-feedback loop Ad0/Rin/Rout barely\n"
      "move the response (feedback hides them) and may fold into one\n"
      "ambiguity group, while GBW faults displace the pole and are\n"
      "diagnosable — matching the FFM observation that only some macro\n"
      "parameters are testable from the filter response.\n");
  return 0;
}
