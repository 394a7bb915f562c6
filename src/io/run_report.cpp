#include "io/run_report.hpp"

#include <sstream>

#include "core/ambiguity.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace ftdiag::io {

std::string render_run_report(const Session& session,
                              const TestGenResult& result,
                              const RunReportOptions& options) {
  std::ostringstream os;
  const auto& cut = session.cut();
  const auto& config = session.options();
  const auto dictionary = session.dictionary();

  os << "# Fault-trajectory test program: " << cut.name << "\n\n";
  os << cut.description << "\n\n";

  os << "## Configuration\n\n";
  os << "| parameter | value |\n|---|---|\n";
  os << "| stimulus source | " << cut.input_source << " |\n";
  os << "| observed node | " << cut.output_node << " |\n";
  os << "| testable components | " << str::join(cut.testable, ", ") << " |\n";
  os << str::format("| deviation grid | %.0f%%..%.0f%% step %.0f%% |\n",
                    config.deviations.min_fraction * 100,
                    config.deviations.max_fraction * 100,
                    config.deviations.step_fraction * 100);
  os << str::format("| search band | %s .. %s |\n",
                    units::format_hz(cut.band_low_hz).c_str(),
                    units::format_hz(cut.band_high_hz).c_str());
  os << "| fitness | " << core::to_string(config.search.fitness) << " |\n";
  os << str::format("| GA | %zu individuals x %zu generations, seed %llu |\n",
                    config.search.ga.population_size,
                    config.search.ga.generations,
                    static_cast<unsigned long long>(config.search.seed));

  os << "\n## Fault dictionary\n\n";
  os << str::format("%zu faults over %zu sites, %zu-point frequency grid.\n",
                    dictionary->fault_count(),
                    dictionary->site_labels().size(),
                    dictionary->frequencies().size());
  const auto groups = core::find_ambiguity_groups(*dictionary);
  os << "\nStructural ambiguity groups: ";
  for (std::size_t i = 0; i < groups.size(); ++i) {
    os << (i ? ", " : "") << "`" << groups[i].label() << "`";
  }
  os << "\n";

  os << "\n## Selected test vector\n\n";
  os << "**" << result.best.vector.label() << "**\n\n";
  os << str::format(
      "fitness %.4f, %zu trajectory intersections, separation margin %.4f, "
      "%zu objective evaluations.\n",
      result.best.fitness, result.best.intersections,
      result.best.separation_margin, result.search.evaluations);

  os << "\n| generation | best | mean |\n|---|---|---|\n";
  for (const auto& g : result.search.history) {
    os << str::format("| %zu | %.4f | %.4f |\n", g.generation, g.best, g.mean);
  }

  if (options.include_trajectories) {
    os << "\n## Trajectories\n\n| site | deviation | coordinates |\n|---|---|---|\n";
    for (const auto& t :
         session.evaluator().trajectories(result.best.vector)) {
      for (const auto& p : t.points()) {
        std::string coords;
        for (std::size_t d = 0; d < p.coords.size(); ++d) {
          coords += str::format("%s%+.5f", d ? ", " : "", p.coords[d]);
        }
        os << str::format("| %s | %+.0f%% | (%s) |\n", t.site().c_str(),
                          p.deviation * 100, coords.c_str());
      }
    }
  }

  if (options.include_evaluation) {
    const auto report = core::evaluate_diagnosis(
        cut, *dictionary, result.best.vector, config.sampling,
        options.evaluation);
    os << "\n## Diagnosis evaluation\n\n";
    os << str::format(
        "%zu random off-grid faults: site accuracy **%.1f%%**, "
        "group accuracy **%.1f%%**, top-2 %.1f%%, mean |deviation error| "
        "%.2f%%, mean confidence %.2f.\n",
        report.trials, report.site_accuracy * 100,
        report.group_accuracy * 100, report.top2_accuracy * 100,
        report.mean_deviation_error * 100, report.mean_confidence);

    os << "\n| truth \\ predicted |";
    for (const auto& label : report.confusion.labels) os << " " << label << " |";
    os << "\n|---|";
    for (std::size_t i = 0; i < report.confusion.labels.size(); ++i) os << "---|";
    os << "\n";
    for (std::size_t i = 0; i < report.confusion.labels.size(); ++i) {
      os << "| " << report.confusion.labels[i] << " |";
      for (std::size_t j = 0; j < report.confusion.labels.size(); ++j) {
        os << " " << report.confusion.counts[i][j] << " |";
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace ftdiag::io
