/// perfbench — the repository benchmark program.
///
///   perfbench --workload {serve,testgen,build_sparse} --seed N --seconds S
///             --trace {0,1} --cli <ftdiag_cli> --work-dir <dir>
///             --out-dir <dir> [--revision <id>]
///
/// With --trace 0 it measures the workload's end-to-end metrics with the
/// library's timing layer off.  With --trace 1 it runs the traced pass of
/// every workload (spans plus per-layer metrics, timing layer on), so one
/// traced result carries every per-layer metric.  Either way the last
/// stdout line is the JSON summary and the exit code is non-zero when an
/// output check failed.  perfbench/run.py builds the program and calls
/// this binary; see perfbench/README.md.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

double probe_setup_s(const RunContext& ctx, int runs) {
  std::vector<double> samples;
  for (int i = 0; i < runs; ++i) {
    std::vector<std::string> args = {ctx.self_path, "--workload", ctx.workload,
                                     "--setup-probe", "1"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const Clock::time_point start = Clock::now();
    pid_t pid = -1;
    if (posix_spawn(&pid, ctx.self_path.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
      throw ftdiag::Error("cannot start the set-up probe");
    }
    int status = 0;
    waitpid(pid, &status, 0);
    const double seconds = elapsed_s(start);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw ftdiag::Error("set-up probe failed");
    }
    samples.push_back(seconds);
  }
  return median(samples);
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_probe = false;
  std::string cli, work_dir, out_dir, revision = "unknown";
};

Args parse(int argc, char** argv) {
  if (argc % 2 == 0) throw ftdiag::ConfigError("arguments come in --key value pairs");
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--setup-probe") a.setup_probe = value == "1";
    else if (key == "--cli") a.cli = value;
    else if (key == "--work-dir") a.work_dir = value;
    else if (key == "--out-dir") a.out_dir = value;
    else if (key == "--revision") a.revision = value;
    else throw ftdiag::ConfigError("unknown argument " + key);
  }
  if (a.workload != "serve" && a.workload != "testgen" &&
      a.workload != "build_sparse") {
    throw ftdiag::ConfigError("--workload must be serve, testgen or build_sparse");
  }
  if (a.seconds <= 0.0) throw ftdiag::ConfigError("--seconds must be positive");
  return a;
}

void print_human(const Report& report) {
  for (const Metric& m : report.metrics()) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  attempted %zu, failed %zu, error_ratio %.6g\n",
              report.attempted(), report.failed(),
              report.attempted() == 0
                  ? 0.0
                  : static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted()));
}

int run(const Args& args) {
  ftdiag::log::set_level(ftdiag::log::Level::kWarn);
  if (args.setup_probe) {
    ftdiag::obs::set_enabled(false);
    if (args.workload == "testgen") testgen_setup();
    if (args.workload == "build_sparse") build_sparse_setup();
    return 0;
  }

  RunContext ctx;
  ctx.workload = args.workload;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.cli_path = args.cli;
  ctx.self_path = std::filesystem::read_symlink("/proc/self/exe").string();
  ctx.work_dir = args.work_dir + "/" + std::to_string(getpid());
  std::filesystem::create_directories(ctx.work_dir);
  std::filesystem::create_directories(args.out_dir);
  ctx.spans.set_enabled(args.trace);
  // End-to-end runs measure with the library's timing layer off, as an
  // operator would run it; the traced run turns it on.
  ftdiag::obs::set_enabled(args.trace);

  // Share of CPU time the hypervisor stole during the run: a run taken
  // while the host was busy reads slow for reasons outside the program.
  const HostCpu host_before = read_host_cpu();
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{ctx.work_dir};

  if (!args.trace) {
    if (args.workload == "serve") serve_e2e(ctx);
    if (args.workload == "testgen") testgen_e2e(ctx);
    if (args.workload == "build_sparse") build_sparse_e2e(ctx);
  } else {
    serve_traced(ctx);
    testgen_traced(ctx);
    build_sparse_traced(ctx);
  }

  const HostCpu host_after = read_host_cpu();
  const double total = host_after.total - host_before.total;
  ctx.report.add("host.steal_pct",
                 total > 0 ? 100.0 * (host_after.steal - host_before.steal) / total : 0.0,
                 "pct", args.workload, "run validity (not a layer)");

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-traced" : "");
  {
    std::ofstream details(stem + ".json");
    details << ctx.report.details_json(provenance_json(
        args.workload, args.seed, args.trace, args.revision));
  }
  if (args.trace) ctx.spans.write(stem + ".spans.jsonl");

  std::printf("perfbench %s seed %llu%s (details: %s.json)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? " traced" : "", stem.c_str());
  print_human(ctx.report);
  std::printf("%s\n", ctx.report.summary_line().c_str());
  std::fflush(stdout);
  return ctx.report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
