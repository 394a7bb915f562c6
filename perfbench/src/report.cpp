#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "linalg/simd.hpp"
#include "service/options.hpp"
#include "util/threads.hpp"

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return sorted[index];
}

Tail tail_percentile(std::vector<double> samples) {
  Tail tail;
  tail.count = samples.size();
  std::sort(samples.begin(), samples.end());
  for (double q : {0.9999, 0.999, 0.99, 0.95, 0.9, 0.5}) {
    // Samples strictly above the nearest-rank position of q.
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    if (static_cast<double>(samples.size()) - rank >= 10.0) {
      tail.q = q;
      tail.value = quantile_sorted(samples, q);
      return tail;
    }
  }
  return tail;
}

void Report::add(std::string name, double value, std::string unit,
                 std::string workload, std::string moves) {
  metrics_.push_back({std::move(name), value, std::move(unit),
                      std::move(workload), std::move(moves)});
}

void Report::note(std::string key, std::string text) {
  notes_.emplace_back(std::move(key), std::move(text));
}

void Report::fail(std::size_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  problems_.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  problems_.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Report::summary_line() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

std::string Report::details_json(const std::string& provenance) const {
  std::ostringstream out;
  out << "{\n  \"provenance\": " << provenance << ",\n  \"correct\": "
      << (correct() ? "true" : "false") << ",\n  \"attempted\": "
      << attempted_ << ",\n  \"failed\": " << failed_
      << ",\n  \"error_ratio\": "
      << json_number(attempted_ == 0 ? 0.0
                                     : static_cast<double>(failed_) /
                                           static_cast<double>(attempted_))
      << ",\n  \"metrics\": [";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ",\n    " : "\n    ") << "{\"name\": " << json_string(m.name)
        << ", \"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit);
    if (!m.workload.empty()) out << ", \"workload\": " << json_string(m.workload);
    if (!m.moves.empty()) out << ", \"moves\": " << json_string(m.moves);
    out << "}";
  }
  out << "\n  ],\n  \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << json_string(notes_[i].first) << ": "
        << json_string(notes_[i].second);
  }
  out << "\n  },\n  \"failed_checks\": [";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    out << (i ? ", " : "") << json_string(problems_[i]);
  }
  out << "]\n}\n";
  return out.str();
}

std::string provenance_json(const std::string& workload, std::uint64_t seed,
                            bool trace, const std::string& revision) {
  ftdiag::service::ServiceOptions serve_defaults;
  serve_defaults.workers = 0;
  std::ostringstream out;
  out << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
      << ", \"trace\": " << (trace ? "true" : "false")
      << ", \"cores\": " << std::thread::hardware_concurrency()
      << ", \"simd_width\": " << ftdiag::linalg::simd::DefaultPack::width
      << ", \"simd_enabled\": "
      << (ftdiag::linalg::simd::enabled() ? "true" : "false")
      << ", \"compiler\": " << json_string(std::string("g++ ") + __VERSION__)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"threads\": " << ftdiag::util::resolve_threads(0)
      << ", \"serve_dispatchers\": " << serve_defaults.resolved_workers()
      << ", \"revision\": " << json_string(revision) << "}";
  return out.str();
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

ProcSample read_proc(int pid) {
  ProcSample sample;
  const std::string base = "/proc/" + std::to_string(pid);
  {
    std::ifstream in(base + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 (1-based), i.e. the 12th and 13th after ") ".
    const std::size_t close = stat.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields(stat.substr(close + 2));
      std::string field;
      double ticks = 0.0;
      for (int i = 1; i <= 13 && fields >> field; ++i) {
        if (i >= 12) ticks += std::strtod(field.c_str(), nullptr);
      }
      sample.cpu_s = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
    }
  }
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(base + "/task", ec)) {
    std::ifstream in(task.path() / "status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
          line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        sample.context_switches += std::strtoull(
            line.c_str() + line.find(':') + 1, nullptr, 10);
      }
    }
  }
  return sample;
}

HostCpu read_host_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostCpu host;
  double value = 0.0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    host.total += value;
    if (field == 7) host.steal = value;
  }
  return host;
}

}  // namespace perfbench
