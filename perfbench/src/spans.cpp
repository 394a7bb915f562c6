#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::uint64_t SpanLog::reserve() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanLog::record_reserved(std::uint64_t id, const std::string& name,
                              Clock::time_point start, Clock::time_point end,
                              std::uint64_t parent, std::uint64_t group) {
  if (!enabled_ || id == 0) return;
  SpanRecord span{id, parent, group, name, since_origin_us(start),
                  since_origin_us(end)};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::uint64_t SpanLog::record(const std::string& name, Clock::time_point start,
                              Clock::time_point end, std::uint64_t parent,
                              std::uint64_t group) {
  const std::uint64_t id = reserve();
  record_reserved(id, name, start, end, parent, group);
  return id;
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& span : spans_) {
    // Union of the children's intervals clipped to this span.
    std::vector<std::pair<double, double>> covered;
    if (auto it = children.find(span.id); it != children.end()) {
      for (const SpanRecord* child : it->second) {
        const double lo = std::max(child->start_us, span.start_us);
        const double hi = std::min(child->end_us, span.end_us);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_us = 0.0;
    double reach = span.start_us;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) covered_us += hi - from;
      reach = std::max(reach, hi);
    }
    SpanTotals& t = totals[span.name];
    const double duration_us = span.end_us - span.start_us;
    ++t.count;
    t.total_ms += duration_us / 1e3;
    t.self_ms += (duration_us - covered_us) / 1e3;
  }
  return totals;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord& span : spans_) {
      out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
          << ", \"group\": " << span.group
          << ", \"name\": " << json_string(span.name)
          << ", \"start_us\": " << json_number(span.start_us)
          << ", \"end_us\": " << json_number(span.end_us) << "}\n";
    }
  }
  for (const auto& [name, t] : totals()) {
    out << "{\"summary\": " << json_string(name) << ", \"count\": " << t.count
        << ", \"total_ms\": " << json_number(t.total_ms)
        << ", \"self_ms\": " << json_number(t.self_ms) << "}\n";
  }
}

double ScopedSpan::finish() {
  if (done_) return duration_ms_;
  done_ = true;
  const Clock::time_point end = Clock::now();
  duration_ms_ = elapsed_ms(start_, end);
  log_.record_reserved(id_, name_, start_, end, parent_, group_);
  return duration_ms_;
}

}  // namespace perfbench
