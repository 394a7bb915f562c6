/// \file spans.hpp
/// \brief In-memory span log of the traced run: one span per call the
/// benchmark makes into a layer (name, start, end, the span that caused
/// it, and a group id shared by one request or pass).  Spans are kept in
/// memory and written out when the run ends; self time is a span's
/// duration minus the part of it its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t group = 0;   ///< request id or pass number
  std::string name;
  double start_us = 0.0;     ///< since the log's origin
  double end_us = 0.0;
};

struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanLog {
public:
  SpanLog() : origin_(Clock::now()) {}

  /// Off: begin() returns 0 and nothing is recorded (untraced runs).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t record(const std::string& name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::uint64_t group = 0);

  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t reserve();
  void record_reserved(std::uint64_t id, const std::string& name,
                       Clock::time_point start, Clock::time_point end,
                       std::uint64_t parent = 0, std::uint64_t group = 0);

  /// Per-name count, summed duration and summed self time.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Spans as JSON lines followed by one per-name summary line each.
  void write(const std::string& path) const;

private:
  [[nodiscard]] double since_origin_us(Clock::time_point t) const {
    return elapsed_us(origin_, t);
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// Times a scope as one span.  Nested scopes pass the outer span's id().
class ScopedSpan {
public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t parent = 0,
             std::uint64_t group = 0)
      : log_(log), name_(std::move(name)), parent_(parent), group_(group),
        id_(log.reserve()), start_(Clock::now()) {}
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// End the span now; returns its duration in ms.  Idempotent.
  double finish();

private:
  SpanLog& log_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t group_;
  std::uint64_t id_;
  Clock::time_point start_;
  double duration_ms_ = 0.0;
  bool done_ = false;
};

}  // namespace perfbench
