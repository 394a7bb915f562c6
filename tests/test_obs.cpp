/// Property tests for the observability layer: counter exactness and
/// histogram merge correctness under threads, quantile monotonicity and
/// interpolation, registry label normalisation/cardinality, group
/// series lifetime, stage spans, and both exposition formats.
/// The TSan CI job runs this suite to vet the lock-free hot paths.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ftdiag {
namespace {

/// Restores the timing-layer switch on scope exit so a test cannot leak
/// a disabled clock into the rest of the suite.
struct EnabledGuard {
  bool saved = obs::enabled();
  ~EnabledGuard() { obs::set_enabled(saved); }
};

// ------------------------------------------------------------- counters

TEST(ObsCounter, ExactUnderThreads) {
  obs::Counter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsShardedCounter, ExactUnderThreads) {
  obs::ShardedCounter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsGauge, AddAndSubCancelUnderThreads) {
  obs::Gauge gauge;
  constexpr std::size_t kPairs = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kPairs; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) gauge.add(3);
    });
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) gauge.sub(3);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(ObsGauge, MaxOfConvergesToMaximum) {
  obs::Gauge gauge;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i <= 1000; ++i) gauge.max_of(t * 1000 + i);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.value(), 8000);
}

// ----------------------------------------------------------- histograms

TEST(ObsHistogram, RejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), ConfigError);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), ConfigError);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), ConfigError);
}

TEST(ObsHistogram, MergeUnderThreadsMatchesSequential) {
  const EnabledGuard guard;
  obs::set_enabled(true);

  // One deterministic sample set, recorded once sequentially and once
  // split over 8 threads: bucket contents, count, and therefore every
  // quantile must come out identical.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(0.0, 2000.0);
  std::vector<double> samples(80'000);
  for (double& v : samples) v = dist(rng);

  const std::vector<double> bounds = obs::Histogram::latency_us_bounds();
  obs::Histogram sequential(bounds);
  for (double v : samples) sequential.observe(v);

  obs::Histogram threaded(bounds);
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  const std::size_t chunk = samples.size() / kThreads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t begin = t * chunk;
      const std::size_t end =
          t + 1 == kThreads ? samples.size() : begin + chunk;
      for (std::size_t i = begin; i < end; ++i) threaded.observe(samples[i]);
    });
  }
  for (auto& thread : threads) thread.join();

  const obs::HistogramSnapshot a = sequential.snapshot();
  const obs::HistogramSnapshot b = threaded.snapshot();
  EXPECT_EQ(b.count, samples.size());
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_NEAR(a.sum, b.sum, 1e-6 * a.sum);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
  }
}

TEST(ObsHistogram, QuantileIsMonotoneInQ) {
  const EnabledGuard guard;
  obs::set_enabled(true);
  obs::Histogram histogram(obs::Histogram::latency_us_bounds());
  std::mt19937 rng(11);
  std::lognormal_distribution<double> dist(5.0, 2.0);
  for (int i = 0; i < 20'000; ++i) histogram.observe(dist(rng));

  const obs::HistogramSnapshot snap = histogram.snapshot();
  double previous = snap.quantile(0.0);
  for (double q = 0.01; q <= 1.0 + 1e-9; q += 0.01) {
    const double value = snap.quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
}

TEST(ObsHistogram, QuantileInterpolatesWithinBucket) {
  const EnabledGuard guard;
  obs::set_enabled(true);
  obs::Histogram histogram({10.0, 20.0, 40.0});
  // All mass in the (10, 20] bucket: every quantile must land inside it
  // and move linearly across it.
  for (int i = 0; i < 100; ++i) histogram.observe(15.0);
  const obs::HistogramSnapshot snap = histogram.snapshot();
  for (double q : {0.1, 0.5, 0.9}) {
    const double value = snap.quantile(q);
    EXPECT_GT(value, 10.0) << "q=" << q;
    EXPECT_LE(value, 20.0) << "q=" << q;
  }
  EXPECT_LT(snap.quantile(0.1), snap.quantile(0.9));
}

TEST(ObsHistogram, OverflowClampsToLastBoundAndEmptyIsZero) {
  const EnabledGuard guard;
  obs::set_enabled(true);
  obs::Histogram histogram({10.0, 20.0, 40.0});
  EXPECT_EQ(histogram.snapshot().quantile(0.5), 0.0);
  histogram.observe(1e9);
  EXPECT_EQ(histogram.snapshot().quantile(1.0), 40.0);
}

TEST(ObsHistogram, ObserveGatedByEnabled) {
  const EnabledGuard guard;
  obs::Histogram histogram({10.0, 20.0});
  obs::set_enabled(false);
  histogram.observe(5.0);
  EXPECT_EQ(histogram.count(), 0u);
  obs::set_enabled(true);
  histogram.observe(5.0);
  EXPECT_EQ(histogram.count(), 1u);
}

TEST(ObsHistogram, BatchAccumulatorMatchesDirectObserves) {
  const EnabledGuard guard;
  obs::set_enabled(true);
  const std::vector<double> bounds{1.0, 10.0, 100.0, 1000.0};
  obs::Histogram direct(bounds);
  obs::Histogram batched(bounds);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    samples.push_back(0.5 * static_cast<double>(i % 47) *
                      static_cast<double>(1 + i % 13));
  }
  {
    obs::HistogramBatch batch(batched);
    for (double v : samples) {
      direct.observe(v);
      batch.observe(v);
    }
    // Nothing lands until the batch flushes (scope exit here).
    EXPECT_EQ(batched.count(), 0u);
    batch.flush();
    batch.flush();  // idempotent: destructor must not double-merge
  }
  EXPECT_EQ(batched.snapshot().buckets, direct.snapshot().buckets);
  EXPECT_DOUBLE_EQ(batched.sum(), direct.sum());
  EXPECT_EQ(batched.count(), samples.size());
}

TEST(ObsHistogram, BatchAccumulatorGatedByEnabled) {
  const EnabledGuard guard;
  obs::Histogram histogram({10.0, 20.0});
  obs::HistogramBatch batch(histogram);
  obs::set_enabled(false);
  batch.observe(5.0);
  batch.flush();
  EXPECT_EQ(histogram.count(), 0u);
  obs::set_enabled(true);
  batch.observe(5.0);
  batch.flush();
  EXPECT_EQ(histogram.count(), 1u);
}

// ------------------------------------------------------------- registry

TEST(ObsRegistry, SameNameAndLabelsReturnSameObject) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("ftdiag_test_total", {{"k", "v"}});
  obs::Counter& b = registry.counter("ftdiag_test_total", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(ObsRegistry, LabelOrderIsNormalised) {
  obs::Registry registry;
  obs::Counter& a =
      registry.counter("ftdiag_test_total", {{"a", "1"}, {"b", "2"}});
  obs::Counter& b =
      registry.counter("ftdiag_test_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(ObsRegistry, DistinctLabelValuesAreDistinctSeries) {
  obs::Registry registry;
  for (int i = 0; i < 100; ++i) {
    registry.counter("ftdiag_test_total", {{"shard", std::to_string(i)}})
        .inc(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(registry.metric_count(), 100u);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.samples.size(), 100u);
  const obs::Sample* sample =
      snap.find("ftdiag_test_total", {{"shard", "42"}});
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->value, 42.0);
}

TEST(ObsRegistry, KindMismatchThrows) {
  obs::Registry registry;
  registry.counter("ftdiag_test_metric");
  EXPECT_THROW(registry.gauge("ftdiag_test_metric"), ConfigError);
  EXPECT_THROW(registry.histogram("ftdiag_test_metric", {1.0}), ConfigError);
  EXPECT_THROW(registry.sharded_counter("ftdiag_test_metric"), ConfigError);
}

TEST(ObsRegistry, ConcurrentGetOrCreateIsSafe) {
  obs::Registry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        registry.counter("ftdiag_race_total", {{"i", std::to_string(i)}})
            .inc();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.metric_count(), 50u);
  const obs::Snapshot snap = registry.snapshot();
  for (const obs::Sample& sample : snap.samples) {
    EXPECT_EQ(sample.value, 8.0) << sample.labels[0].second;
  }
}

TEST(ObsRegistry, GroupSeriesLeaveWithTheGroup) {
  obs::Registry registry;
  obs::Counter& shared = registry.counter("ftdiag_test_total", {}, "shared");
  shared.inc(5);
  auto first = std::make_unique<obs::Registry::Group>(registry);
  auto second = std::make_unique<obs::Registry::Group>(registry);
  obs::Counter& a = first->counter("ftdiag_test_total", "per instance");
  obs::Counter& b = second->counter("ftdiag_test_total", "per instance");
  obs::Gauge& tiered =
      first->gauge("ftdiag_test_depth", "depth", {{"tier", "disk"}});
  obs::Histogram& latency =
      second->histogram("ftdiag_test_us", {1.0, 10.0}, "latency");
  ASSERT_NE(&a, &b);
  a.inc(1);
  b.inc(2);
  tiered.set(3);
  EXPECT_EQ(latency.bounds().size(), 2u);
  EXPECT_EQ(registry.metric_count(), 5u);

  // Same name, two groups: two series told apart by their instance label,
  // next to the unlabelled get-or-create series.
  const auto series = [&](const std::string& name) {
    std::map<obs::Labels, double> out;
    for (const obs::Sample& s : registry.snapshot().samples) {
      if (s.name == name) out[s.labels] = s.value;
    }
    return out;
  };
  const auto totals = series("ftdiag_test_total");
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals.at({}), 5.0);
  std::vector<std::string> instances;
  std::vector<double> values;
  for (const auto& [labels, value] : totals) {
    if (labels.empty()) continue;
    ASSERT_EQ(labels.size(), 1u);
    EXPECT_EQ(labels[0].first, "instance");
    instances.push_back(labels[0].second);
    values.push_back(value);
  }
  ASSERT_EQ(instances.size(), 2u);
  EXPECT_NE(instances[0], instances[1]);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<double>{1.0, 2.0}));
  const auto depth = series("ftdiag_test_depth");
  ASSERT_EQ(depth.size(), 1u);
  EXPECT_EQ(depth.begin()->first.size(), 2u);  // instance + tier
  EXPECT_EQ(depth.begin()->second, 3.0);

  // Each group's series leave with it, and only those.
  first.reset();
  EXPECT_EQ(registry.metric_count(), 3u);
  EXPECT_TRUE(series("ftdiag_test_depth").empty());
  const auto after_first = series("ftdiag_test_total");
  ASSERT_EQ(after_first.size(), 2u);
  EXPECT_EQ(after_first.at({}), 5.0);
  EXPECT_EQ(after_first.rbegin()->second, 2.0);  // the second group's
  second.reset();
  EXPECT_EQ(registry.metric_count(), 1u);
  EXPECT_EQ(series("ftdiag_test_total").at({}), 5.0);
  EXPECT_EQ(&registry.counter("ftdiag_test_total"), &shared);
}

// -------------------------------------------------------------- tracing

TEST(ObsTracer, SpanRecordsIntoItsStageHistogram) {
  const EnabledGuard guard;
  obs::set_enabled(true);
  obs::Registry registry;
  obs::Tracer tracer(registry);
  {
    obs::Span span(obs::Stage::kSolve, tracer);
  }
  EXPECT_EQ(tracer.stage_histogram(obs::Stage::kSolve).count(), 1u);
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    if (static_cast<obs::Stage>(s) == obs::Stage::kSolve) continue;
    EXPECT_EQ(tracer.stage_histogram(static_cast<obs::Stage>(s)).count(), 0u);
  }
}

TEST(ObsTracer, SpanFinishIsIdempotentAndCancelDrops) {
  const EnabledGuard guard;
  obs::set_enabled(true);
  obs::Registry registry;
  obs::Tracer tracer(registry);
  obs::Span span(obs::Stage::kScore, tracer);
  span.finish();
  span.finish();
  EXPECT_EQ(tracer.stage_histogram(obs::Stage::kScore).count(), 1u);
  obs::Span dropped(obs::Stage::kScore, tracer);
  dropped.cancel();
  dropped.finish();
  EXPECT_EQ(tracer.stage_histogram(obs::Stage::kScore).count(), 1u);
}

TEST(ObsTracer, DisabledSpanRecordsNothing) {
  const EnabledGuard guard;
  obs::set_enabled(false);
  obs::Registry registry;
  obs::Tracer tracer(registry);
  {
    obs::Span span(obs::Stage::kSolve, tracer);
  }
  EXPECT_EQ(tracer.stage_histogram(obs::Stage::kSolve).count(), 0u);
}

TEST(ObsTracer, StageNamesAreStable) {
  EXPECT_STREQ(obs::stage_name(obs::Stage::kNetRecv), "net_recv");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kQueueWait), "queue_wait");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kBatchCoalesce), "batch_coalesce");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kDictFetch), "dict_fetch");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kSolve), "solve");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kScore), "score");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kReplySend), "reply_send");
}

// ------------------------------------------------------------ exporters

TEST(ObsExport, PrometheusRendersAllKinds) {
  const EnabledGuard guard;
  obs::set_enabled(true);
  obs::Registry registry;
  registry.counter("ftdiag_reqs_total", {{"kind", "good"}}, "requests").inc(3);
  registry.gauge("ftdiag_depth", {}, "queue depth").set(-2);
  registry.histogram("ftdiag_lat_us", {10.0, 100.0}, {}, "latency")
      .observe(40.0);

  const std::string text = obs::render_prometheus(registry);
  EXPECT_NE(text.find("# HELP ftdiag_reqs_total requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ftdiag_reqs_total counter"), std::string::npos);
  EXPECT_NE(text.find("ftdiag_reqs_total{kind=\"good\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ftdiag_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("ftdiag_depth -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ftdiag_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("ftdiag_lat_us_bucket{le=\"10\"} 0"), std::string::npos);
  EXPECT_NE(text.find("ftdiag_lat_us_bucket{le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ftdiag_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ftdiag_lat_us_sum 40"), std::string::npos);
  EXPECT_NE(text.find("ftdiag_lat_us_count 1"), std::string::npos);
}

TEST(ObsExport, JsonRendersQuantilesAndEscapes) {
  const EnabledGuard guard;
  obs::set_enabled(true);
  obs::Registry registry;
  registry.counter("ftdiag_reqs_total", {{"path", "a\"b"}}).inc();
  obs::Histogram& histogram =
      registry.histogram("ftdiag_lat_us", {10.0, 100.0});
  for (int i = 0; i < 10; ++i) histogram.observe(40.0);

  const std::string json = obs::render_json(registry);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ftdiag_reqs_total\""), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":10"), std::string::npos);
}

}  // namespace
}  // namespace ftdiag
