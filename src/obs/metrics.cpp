#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"

namespace ftdiag::obs {

namespace {

bool env_enabled() {
  const char* v = std::getenv("FTDIAG_OBS");
  if (v == nullptr) return true;
  if (std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
      std::strcmp(v, "OFF") == 0) {
    return false;
  }
  return true;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_enabled()};
  return flag;
}

void normalize(Labels& labels) {
  std::sort(labels.begin(), labels.end());
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

std::size_t detail::thread_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  static thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw ConfigError("histogram needs at least one bucket boundary");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw ConfigError("histogram boundaries must be strictly ascending");
  }
  // One bucket row per shard.  Rows are padded to a whole cache line plus
  // one line of slack, so two shards never write the same line even when
  // the allocation itself is not 64-byte aligned.
  const std::size_t slots = bounds_.size() + 1;
  stride_ = (slots + 7) / 8 * 8 + 8;
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(kShards * stride_);
  for (std::size_t i = 0; i < kShards * stride_; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::size_t Histogram::bucket_index(double v) const noexcept {
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
}

void Histogram::observe(double v) noexcept {
  if (!enabled()) return;
  const std::size_t shard = detail::thread_slot() % kShards;
  buckets_[shard * stride_ + bucket_index(v)].fetch_add(
      1, std::memory_order_relaxed);
  sums_[shard].sum.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::bulk_add(const std::uint64_t* counts, double sum) noexcept {
  const std::size_t shard = detail::thread_slot() % kShards;
  std::atomic<std::uint64_t>* row = &buckets_[shard * stride_];
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    if (counts[i] != 0) row[i].fetch_add(counts[i], std::memory_order_relaxed);
  }
  sums_[shard].sum.fetch_add(sum, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.assign(bounds_.size() + 1, 0);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      snap.buckets[i] +=
          buckets_[shard * stride_ + i].load(std::memory_order_relaxed);
    }
  }
  snap.count = count();
  snap.sum = sum();
  return snap;
}

std::vector<double> Histogram::latency_us_bounds() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  bounds.push_back(1e7);  // 10 s
  return bounds;
}

double HistogramSnapshot::quantile(double q) const {
  // Concurrent observers can make per-bucket totals drift slightly from
  // `count`; recompute the total from the buckets so ranks stay
  // consistent with the cumulative walk below.
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (cumulative + in_bucket >= rank && in_bucket > 0.0) {
      const double upper = i < bounds.size() ? bounds[i] : bounds.back();
      if (i >= bounds.size()) return upper;  // overflow bucket: clamp
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double frac = (rank - cumulative) / in_bucket;
      return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

// ---------------------------------------------------------------------------
// Snapshot

const Sample* Snapshot::find(const std::string& name,
                             const Labels& labels) const {
  Labels want = labels;
  std::sort(want.begin(), want.end());
  for (const Sample& s : samples) {
    if (s.name != name) continue;
    if (!want.empty() && s.labels != want) continue;
    return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::global() {
  // Leaked on purpose: metrics may be touched during static destruction.
  static Registry* g = new Registry;
  return *g;
}

Registry::Entry& Registry::lookup(const std::string& name, Labels& labels,
                                  Sample::Kind kind, const std::string& help) {
  normalize(labels);
  auto [it, inserted] = metrics_.try_emplace({name, labels});
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    entry.help = help;
  } else if (entry.kind != kind) {
    throw ConfigError("metric '" + name +
                      "' already registered with a different kind");
  }
  return entry;
}

Counter& Registry::counter(const std::string& name, Labels labels,
                           const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = lookup(name, labels, Sample::Kind::kCounter, help);
  if (e.sharded) {
    throw ConfigError("metric '" + name + "' is a sharded counter");
  }
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

ShardedCounter& Registry::sharded_counter(const std::string& name,
                                          Labels labels,
                                          const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = lookup(name, labels, Sample::Kind::kCounter, help);
  if (e.counter) {
    throw ConfigError("metric '" + name + "' is a plain counter");
  }
  if (!e.sharded) e.sharded = std::make_unique<ShardedCounter>();
  return *e.sharded;
}

Gauge& Registry::gauge(const std::string& name, Labels labels,
                       const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = lookup(name, labels, Sample::Kind::kGauge, help);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds, Labels labels,
                               const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = lookup(name, labels, Sample::Kind::kHistogram, help);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

std::size_t Registry::metric_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.size();
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.samples.reserve(metrics_.size());
  for (const auto& [key, entry] : metrics_) {
    Sample s;
    s.name = key.first;
    s.labels = key.second;
    s.help = entry.help;
    s.kind = entry.kind;
    switch (entry.kind) {
      case Sample::Kind::kCounter:
        s.value = entry.counter ? static_cast<double>(entry.counter->value())
                                : static_cast<double>(entry.sharded->value());
        break;
      case Sample::Kind::kGauge:
        s.value = static_cast<double>(entry.gauge->value());
        break;
      case Sample::Kind::kHistogram:
        s.histogram = entry.histogram->snapshot();
        break;
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Registry::Group

Registry::Group::Group(Registry& registry) : registry_(registry) {
  static std::atomic<std::uint64_t> next{0};
  instance_ = std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

Registry::Group::~Group() {
  std::lock_guard<std::mutex> lock(registry_.mutex_);
  for (const auto& key : series_) registry_.metrics_.erase(key);
}

Labels Registry::Group::own(const std::string& name, Labels extra) {
  extra.emplace_back("instance", instance_);
  normalize(extra);
  series_.emplace_back(name, extra);
  return extra;
}

Counter& Registry::Group::counter(const std::string& name,
                                  const std::string& help, Labels extra) {
  return registry_.counter(name, own(name, std::move(extra)), help);
}

Gauge& Registry::Group::gauge(const std::string& name, const std::string& help,
                              Labels extra) {
  return registry_.gauge(name, own(name, std::move(extra)), help);
}

Histogram& Registry::Group::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  return registry_.histogram(name, std::move(bounds), own(name, {}), help);
}

}  // namespace ftdiag::obs
