/// \file workloads.hpp
/// \brief The three workloads.  Each has an end-to-end run (what users
/// wait for, timing layer off) and a traced part (per-layer numbers with
/// spans, timing layer on).  See perfbench/README.md for why each exists.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string cli_path;  ///< the shipped ftdiag_cli binary
  std::string work_dir;  ///< scratch directory, removed when the run ends
  std::string self_path; ///< this binary, for set-up probes
  Report report;
  SpanLog spans;
};

/// End-to-end metric names every workload reports (their meaning per
/// workload is in perfbench/README.md).
inline constexpr const char* kLightP50 = "p50_ms.light";
inline constexpr const char* kHeavyP50 = "p50_ms.heavy";
inline constexpr const char* kDonePerS = "done_per_s";

void serve_e2e(RunContext& ctx);
void serve_traced(RunContext& ctx);

void testgen_e2e(RunContext& ctx);
void testgen_traced(RunContext& ctx);
/// One fresh-process set-up: session construction plus the warm-up pass.
void testgen_setup();

void build_sparse_e2e(RunContext& ctx);
void build_sparse_traced(RunContext& ctx);
/// One fresh-process set-up: circuit construction plus a warm-up build
/// of both circuits on a few grid points.
void build_sparse_setup();

/// Median wall time of \p runs fresh processes running this binary in
/// set-up-probe mode (process start to end of set-up).
[[nodiscard]] double probe_setup_s(const RunContext& ctx, int runs);

}  // namespace perfbench
