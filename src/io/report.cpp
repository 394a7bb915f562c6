#include "io/report.hpp"

#include <ostream>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace ftdiag::io {

void print_atpg_report(std::ostream& os, const TestGenResult& result) {
  os << "test vector : " << result.best.vector.label() << '\n'
     << str::format("fitness     : %.4f  (intersections I = %zu)",
                    result.best.fitness, result.best.intersections)
     << '\n'
     << str::format("separation  : %.4f (normalized min margin)",
                    result.best.separation_margin)
     << '\n'
     << str::format("dictionary  : %zu faults, %zu objective evaluations",
                    result.dictionary_faults, result.search.evaluations)
     << '\n';
  AsciiTable table({"generation", "best", "mean", "worst", "evaluations"});
  for (const auto& g : result.search.history) {
    table.add_row({std::to_string(g.generation), str::format("%.4f", g.best),
                   str::format("%.4f", g.mean), str::format("%.4f", g.worst),
                   std::to_string(g.evaluations)});
  }
  table.print(os, "search convergence");
}

void print_diagnosis(std::ostream& os, const core::Diagnosis& diagnosis,
                     std::size_t max_candidates) {
  const auto& best = diagnosis.best();
  os << str::format(
            "diagnosis: %s, estimated deviation %+.1f%% (confidence %.2f)",
            best.site.c_str(), best.estimated_deviation * 100.0,
            diagnosis.confidence())
     << '\n';
  AsciiTable table({"rank", "site", "distance", "est. deviation"});
  for (std::size_t i = 0;
       i < diagnosis.ranking.size() && i < max_candidates; ++i) {
    const auto& m = diagnosis.ranking[i];
    table.add_row({std::to_string(i + 1), m.site,
                   str::format("%.3e", m.distance),
                   str::format("%+.1f%%", m.estimated_deviation * 100.0)});
  }
  table.print(os);
}

void print_accuracy_report(std::ostream& os,
                           const core::AccuracyReport& report) {
  os << str::format(
            "trials=%zu  site accuracy=%.1f%%  group accuracy=%.1f%%  "
            "top-2=%.1f%%",
            report.trials, report.site_accuracy * 100.0,
            report.group_accuracy * 100.0, report.top2_accuracy * 100.0)
     << '\n'
     << str::format(
            "mean |deviation error|=%.2f%%  mean confidence=%.2f",
            report.mean_deviation_error * 100.0, report.mean_confidence)
     << '\n';
  os << "ambiguity groups:";
  for (const auto& g : report.ambiguity_groups) os << " [" << g << "]";
  os << '\n';

  AsciiTable table([&] {
    std::vector<std::string> header = {"truth \\ predicted"};
    for (const auto& label : report.confusion.labels) header.push_back(label);
    header.push_back("recall");
    return header;
  }());
  for (std::size_t i = 0; i < report.confusion.labels.size(); ++i) {
    std::vector<std::string> row = {report.confusion.labels[i]};
    for (std::size_t j = 0; j < report.confusion.labels.size(); ++j) {
      row.push_back(std::to_string(report.confusion.counts[i][j]));
    }
    row.push_back(str::format(
        "%.2f", report.confusion.recall(report.confusion.labels[i])));
    table.add_row(std::move(row));
  }
  table.print(os, "confusion matrix");
}

}  // namespace ftdiag::io
