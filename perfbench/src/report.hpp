/// \file report.hpp
/// \brief Result collection for one benchmark run: named metrics with
/// units, the output checks, the percentile rule, and the JSON the run
/// leaves behind (one summary line on stdout plus a details file).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double elapsed_s(Clock::time_point from,
                                      Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double elapsed_ms(Clock::time_point from,
                                       Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
[[nodiscard]] inline double elapsed_us(Clock::time_point from,
                                       Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Median of \p samples (0 when empty).
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank quantile of an ascending sample, q in [0, 1].
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double q);

/// The percentile rule: the highest of p50/p90/p95/p99/p99.9/p99.99 that
/// still has at least ten samples beyond it, with the sample count.
/// `q` is 0 when fewer than 20 samples exist (no percentile qualifies).
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t count = 0;
};
[[nodiscard]] Tail tail_percentile(std::vector<double> samples);

/// One reported number.  `moves` names the end-to-end metric(s) a change
/// of this layer number should move, and `workload` where.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string workload;
  std::string moves;
};

class Report {
public:
  void add(std::string name, double value, std::string unit,
           std::string workload = "", std::string moves = "");

  /// Free-form fact recorded in the details file (decisions, dropped
  /// metrics, validity notes).
  void note(std::string key, std::string text);

  /// Count work items and output checks.  A failed check is recorded
  /// with its description and makes the run exit non-zero.
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(std::size_t n, const std::string& what);
  void check(bool ok, const std::string& what);

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && problems_.empty(); }

  /// The single-line summary: {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string summary_line() const;

  /// The details document: provenance, every metric with its annotation,
  /// notes and failed checks.
  [[nodiscard]] std::string details_json(const std::string& provenance) const;

private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> problems_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_number(double v);

/// Provenance of a run as a JSON object: cores, SIMD width, compiler,
/// build type, resolved thread counts, seed and source revision.
[[nodiscard]] std::string provenance_json(const std::string& workload,
                                          std::uint64_t seed, bool trace,
                                          const std::string& revision);

/// Peak resident set (VmHWM) of a process in MB; \p pid 0 = this process.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// CPU time and context switches of a whole process (all threads), read
/// from /proc without touching the process.
struct ProcSample {
  double cpu_s = 0.0;
  std::uint64_t context_switches = 0;
};
[[nodiscard]] ProcSample read_proc(int pid);

/// Machine-wide CPU time (all states) and the part of it stolen by the
/// hypervisor, in clock ticks, from the first line of /proc/stat.
struct HostCpu {
  double total = 0.0;
  double steal = 0.0;
};
[[nodiscard]] HostCpu read_host_cpu();

}  // namespace perfbench
