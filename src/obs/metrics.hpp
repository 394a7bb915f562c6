#pragma once

/// \file metrics.hpp
/// \brief Process-wide observability registry: counters, gauges and
///        fixed-boundary histograms with a lock-free hot path.
///
/// Design notes
/// ------------
///  * Metric objects are owned by a `Registry` and never move once
///    created, so callers cache a `Counter&` at start-up and the hot
///    path is a single relaxed `fetch_add` on a cache-line-aligned
///    atomic.  Contended call sites use `ShardedCounter`, which spreads
///    increments over per-thread cache-line shards and sums on read.
///  * The registry is the only place a metric lives.  Objects with
///    per-instance stats (`net::Server`, `service::DiagnosisService`,
///    `service::DictionaryStore`) register their series through a
///    `Registry::Group`, which adds an `instance` label and erases them
///    when the object dies.  Counters and gauges are *always* live: the
///    public stats structs (`ServerStats`, `ServiceStats`, `StoreStats`)
///    are reads of them.  Only the timing layer (histogram observation,
///    spans, traces) is gated by `obs::enabled()` / the `FTDIAG_OBS` env
///    knob so benches can measure instrumentation overhead in a single
///    binary.
///  * The global registry is intentionally leaked: worker threads and
///    process-wide singletons (e.g. `par::ThreadPool::global()`) may
///    touch metrics during static destruction, and a leaked registry
///    makes that race impossible by construction.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ftdiag::obs {

/// Runtime kill-switch for the *timing* layer (histograms and spans).
/// Initialised once from `FTDIAG_OBS` (`0`/`off` = disabled, anything else
/// = enabled, unset = enabled); `set_enabled` overrides it at any time.
/// Counters and gauges ignore this flag.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Sorted `key=value` pairs identifying one time series of a metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
/// Small dense per-thread id for shard selection, assigned round-robin
/// on first use so threads born together land on distinct shards (a
/// thread-id hash would let two busy workers collide).
[[nodiscard]] std::size_t thread_slot() noexcept;
}  // namespace detail

/// Monotonic counter.  `inc` is a single relaxed fetch_add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// Counter variant for call sites hammered by many threads at once:
/// increments land on one of `kShards` cache-line-sized slots chosen by
/// a per-thread hash, so no two busy threads share a line.  Reads sum
/// all shards (monotone but not a snapshot; fine for monitoring).
class ShardedCounter {
 public:
  static constexpr std::size_t kShards = 16;

  void inc(std::uint64_t n = 1) noexcept {
    slots_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shard_index() noexcept {
    return detail::thread_slot() % kShards;
  }
  Slot slots_[kShards];
};

/// Instantaneous signed value (queue depth, bytes resident, ...).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) noexcept {
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  void sub(std::int64_t v) noexcept {
    value_.fetch_sub(v, std::memory_order_relaxed);
  }
  /// Raise the gauge to `v` if it is currently lower (CAS loop).
  void max_of(std::int64_t v) noexcept {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::int64_t> value_{0};
};

/// Read-side copy of a histogram's state, used by exporters.
struct HistogramSnapshot {
  std::vector<double> bounds;          ///< ascending bucket upper bounds
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (last = +Inf)
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Interpolated quantile estimate, `q` in [0, 1].  Within a bucket the
  /// estimate is linear between the bucket's lower and upper edge; the
  /// overflow bucket clamps to the last finite bound.  Returns 0 when
  /// the histogram is empty.
  [[nodiscard]] double quantile(double q) const;
};

/// Fixed-boundary histogram of non-negative samples.  `observe` is a
/// branch, a linear bucket scan over a handful of doubles, and three
/// relaxed atomic adds into a per-thread shard — no locks, and threads
/// observing concurrently never share a cache line (the request path
/// hammers the same two histograms from every service worker at once).
class Histogram {
 public:
  static constexpr std::size_t kShards = 8;

  /// `bounds` are strictly ascending bucket *upper* edges; an implicit
  /// +Inf bucket is appended.  Throws ConfigError on empty/unsorted.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  /// Total observations, derived from the buckets (observe() does not
  /// maintain a separate count — one fewer atomic on the hot path).
  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kShards * stride_; ++i) {
      total += buckets_[i].load(std::memory_order_relaxed);
    }
    return total;
  }
  [[nodiscard]] double sum() const noexcept {
    double total = 0.0;
    for (const ShardSum& t : sums_) {
      total += t.sum.load(std::memory_order_relaxed);
    }
    return total;
  }
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] HistogramSnapshot snapshot() const;
  /// Convenience: quantile over a fresh snapshot.
  [[nodiscard]] double quantile(double q) const { return snapshot().quantile(q); }

  /// Canonical boundaries for request latencies in microseconds:
  /// 1-2-5 decades from 1 us to 10 s.
  [[nodiscard]] static std::vector<double> latency_us_bounds();

  /// Bucket index `v` falls into (last index = overflow bucket).
  [[nodiscard]] std::size_t bucket_index(double v) const noexcept;
  /// Merge pre-aggregated counts (`bounds().size() + 1` entries) and their
  /// sample sum into the calling thread's shard.  Used by HistogramBatch.
  void bulk_add(const std::uint64_t* counts, double sum) noexcept;

 private:
  struct alignas(64) ShardSum {
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::size_t stride_ = 0;  ///< bucket slots per shard row, cache-padded
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // kShards rows
  ShardSum sums_[kShards];
};

/// Batch-local histogram accumulator for loops that observe many samples
/// back to back (a service worker finishing a 32-request batch).  Each
/// `observe` is a bucket lookup and a plain array increment — no atomics;
/// `flush` (or the destructor) merges the whole batch into the histogram
/// with one atomic add per *touched* bucket.  Not thread-safe: one batch
/// per thread, which is exactly the worker-loop shape it exists for.
class HistogramBatch {
 public:
  explicit HistogramBatch(Histogram& h)
      : h_(h), counts_(h.bounds().size() + 1, 0) {}
  HistogramBatch(const HistogramBatch&) = delete;
  HistogramBatch& operator=(const HistogramBatch&) = delete;
  ~HistogramBatch() { flush(); }

  void observe(double v) noexcept {
    if (!enabled()) return;
    ++counts_[h_.bucket_index(v)];
    sum_ += v;
    dirty_ = true;
  }

  /// Merge accumulated samples into the histogram and reset (idempotent).
  void flush() noexcept {
    if (!dirty_) return;
    h_.bulk_add(counts_.data(), sum_);
    std::fill(counts_.begin(), counts_.end(), 0);
    sum_ = 0.0;
    dirty_ = false;
  }

 private:
  Histogram& h_;
  std::vector<std::uint64_t> counts_;
  double sum_ = 0.0;
  bool dirty_ = false;
};

/// One exported time series, as read at snapshot time.
struct Sample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  std::string help;
  Labels labels;
  Kind kind = Kind::kCounter;
  double value = 0.0;          ///< counter / gauge
  HistogramSnapshot histogram; ///< kind == kHistogram only
};

/// Flat, ordered view of every metric known to a registry.
struct Snapshot {
  std::vector<Sample> samples;
  /// First sample matching `name` (and `labels`, when given).
  [[nodiscard]] const Sample* find(const std::string& name,
                                   const Labels& labels = {}) const;
};

/// Named registry of metrics.  Lookup (`counter()` / `gauge()` /
/// `histogram()`) takes a mutex and is meant for start-up; the returned
/// references stay valid and lock-free for the registry's lifetime (a
/// `Group`'s series: for the group's).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry.  Intentionally leaked (see file comment).
  static Registry& global();

  /// Get-or-create.  Same (name, labels) returns the same object;
  /// requesting an existing name with a different metric kind throws
  /// ConfigError.  Labels are normalised (sorted by key) so insertion
  /// order does not create duplicate series.
  Counter& counter(const std::string& name, Labels labels = {},
                   const std::string& help = "");
  ShardedCounter& sharded_counter(const std::string& name, Labels labels = {},
                                  const std::string& help = "");
  Gauge& gauge(const std::string& name, Labels labels = {},
               const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       Labels labels = {}, const std::string& help = "");

  /// RAII owner of one object's instance-labelled series (below).
  class Group;

  /// Number of registered metric series.
  [[nodiscard]] std::size_t metric_count() const;

  /// Flatten every metric into samples, reading each value under the
  /// registry lock.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Entry {
    Sample::Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<ShardedCounter> sharded;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& lookup(const std::string& name, Labels& labels, Sample::Kind kind,
                const std::string& help);

  mutable std::mutex mutex_;
  // Keyed by (name, normalised labels); std::map keeps exposition output
  // deterministically sorted.
  std::map<std::pair<std::string, Labels>, Entry> metrics_;
};

/// The series of one object with per-instance stats, created through the
/// get-or-create path with an `instance` label unique in the process.
/// The destructor erases exactly those series under the lock `snapshot()`
/// reads values under, so a scrape never reads a destroyed series.  The
/// owner must stop every thread that bumps the references first.
class Registry::Group {
 public:
  explicit Group(Registry& registry = Registry::global());
  ~Group();
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   Labels extra = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels extra = {});
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help);

 private:
  /// `extra` plus the instance label, normalised; remembered for ~Group.
  Labels own(const std::string& name, Labels extra);

  Registry& registry_;
  std::string instance_;
  std::vector<std::pair<std::string, Labels>> series_;
};

}  // namespace ftdiag::obs
