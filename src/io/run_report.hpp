/// \file run_report.hpp
/// \brief Self-contained markdown report of a full ATPG-for-diagnosis run:
/// configuration, dictionary summary, ambiguity groups, chosen test vector
/// with convergence history, and the diagnosis-accuracy evaluation.  The
/// artefact a test engineer files with the test program.
#pragma once

#include <string>

#include "core/evaluation.hpp"
#include "session.hpp"

namespace ftdiag::io {

struct RunReportOptions {
  /// Run the Monte-Carlo accuracy evaluation and include it.
  bool include_evaluation = true;
  core::EvaluationOptions evaluation{};
  /// Include the per-point trajectory table (verbose).
  bool include_trajectories = false;
};

/// Render the full run as markdown.
[[nodiscard]] std::string render_run_report(const Session& session,
                                            const TestGenResult& result,
                                            const RunReportOptions& options = {});

}  // namespace ftdiag::io
