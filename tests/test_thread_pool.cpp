/// Unit tests of the persistent work-stealing pool behind
/// par::parallel_for: full index coverage for any lane count, lane-id
/// bounds, exception propagation, nested-call inlining, determinism of
/// slot writes, concurrent jobs from independent threads, regions posted
/// while workers spin or move from spinning to parking, teardown of a
/// spinning pool, an oversubscribed pool, and the FTDIAG_THREADS
/// resolution override.  The TSan CI job runs this suite to vet the
/// pool's synchronization.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.hpp"
#include "util/threads.hpp"

namespace ftdiag {
namespace {

using Clock = std::chrono::steady_clock;

/// Aborts the test binary when the guarded scope outlives \p limit, so a
/// lost wake-up fails the test instead of hanging it.
class Watchdog {
public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!done_cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: still running after %lld s\n",
                         static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    done_cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

private:
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Busy-waits \p duration: a sleep would overshoot by more than the gaps
/// these tests aim at.
void busy_wait(Clock::duration duration) {
  const Clock::time_point until = Clock::now() + duration;
  while (Clock::now() < until) {
  }
}

/// Workers for a pool whose lanes fit the machine, one worker at least.
std::size_t fitting_workers() {
  return std::clamp<std::size_t>(util::hardware_threads(), 2, 4) - 1;
}

TEST(ResolveThreads, ExplicitRequestWins) {
  EXPECT_EQ(util::resolve_threads(3), 3u);
  EXPECT_EQ(util::resolve_threads(1), 1u);
}

TEST(ResolveThreads, AutoFallsBackToHardware) {
  unsetenv("FTDIAG_THREADS");
  EXPECT_EQ(util::resolve_threads(0), util::hardware_threads());
  EXPECT_GE(util::hardware_threads(), 1u);
}

TEST(ResolveThreads, EnvironmentOverridesAuto) {
  setenv("FTDIAG_THREADS", "5", 1);
  EXPECT_EQ(util::resolve_threads(0), 5u);
  // An explicit request still wins over the environment.
  EXPECT_EQ(util::resolve_threads(2), 2u);
  unsetenv("FTDIAG_THREADS");
}

TEST(ResolveThreads, InvalidEnvironmentValuesAreIgnored) {
  for (const char* bad : {"0", "-4", "lots", "3x", "", "99999999"}) {
    setenv("FTDIAG_THREADS", bad, 1);
    EXPECT_EQ(util::resolve_threads(0), util::hardware_threads())
        << "FTDIAG_THREADS=" << bad;
  }
  unsetenv("FTDIAG_THREADS");
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  par::ThreadPool pool(3);
  for (const std::size_t count : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    for (const std::size_t lanes : {1u, 2u, 4u, 16u}) {
      std::vector<std::atomic<int>> hits(count);
      pool.for_each(count, lanes,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "count=" << count
                                     << " lanes=" << lanes << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, SlotWritesAreIdenticalForAnyLaneCount) {
  par::ThreadPool pool(7);
  const std::size_t count = 513;
  std::vector<std::size_t> reference(count);
  for (std::size_t i = 0; i < count; ++i) reference[i] = i * i;
  for (const std::size_t lanes : {1u, 2u, 8u}) {
    std::vector<std::size_t> out(count, 0);
    pool.for_each(count, lanes, [&](std::size_t i) { out[i] = i * i; });
    EXPECT_EQ(out, reference) << "lanes=" << lanes;
  }
}

TEST(ThreadPool, LaneIdsStayWithinTheRequestedWidth) {
  par::ThreadPool pool(8);
  const std::size_t lanes = 3;
  // Per-lane counters written without atomics: lane ids out of range
  // would fault, and lane sharing across concurrent threads would be a
  // data race TSan flags.
  std::vector<std::size_t> per_lane(lanes, 0);
  std::atomic<std::size_t> total{0};
  pool.for_each_lane(10000, lanes, [&](std::size_t lane, std::size_t) {
    ASSERT_LT(lane, lanes);
    ++per_lane[lane];
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 10000u);
  EXPECT_EQ(std::accumulate(per_lane.begin(), per_lane.end(),
                            std::size_t{0}),
            10000u);
}

TEST(ThreadPool, FirstExceptionPropagatesToTheCaller) {
  par::ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  try {
    pool.for_each(100, 4, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 17) throw std::runtime_error("item 17 failed");
    });
    FAIL() << "expected the item exception to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "item 17 failed");
  }
  // Independent items keep running: only the throwing item's own block is
  // cut short, every other block still drains.
  EXPECT_GE(ran.load(), 90u);
  EXPECT_LE(ran.load(), 100u);
}

TEST(ThreadPool, NestedCallsRunInlineOnTheOuterLane) {
  par::ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  pool.for_each(8, 4, [&](std::size_t) {
    EXPECT_TRUE(par::ThreadPool::in_parallel_region());
    const std::thread::id outer = std::this_thread::get_id();
    // A nested loop must not fan out again: every inner item runs on the
    // thread that issued it.
    pool.for_each(16, 4, [&](std::size_t) {
      if (std::this_thread::get_id() != outer) mismatches.fetch_add(1);
    });
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_FALSE(par::ThreadPool::in_parallel_region());
}

TEST(ThreadPool, ConcurrentJobsFromIndependentThreadsAllComplete) {
  par::ThreadPool pool(3);
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kItems = 2048;
  std::vector<std::uint64_t> sums(kClients, 0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::uint64_t> slots(kItems);
      pool.for_each(kItems, 4, [&](std::size_t i) {
        slots[i] = (c + 1) * i;
      });
      std::uint64_t sum = 0;
      for (std::uint64_t v : slots) sum += v;
      sums[c] = sum;
    });
  }
  for (auto& client : clients) client.join();
  const std::uint64_t base = kItems * (kItems - 1) / 2;
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(sums[c], (c + 1) * base) << "client " << c;
  }
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  par::ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  const std::thread::id self = std::this_thread::get_id();
  std::size_t ran = 0;
  pool.for_each_lane(32, 8, [&](std::size_t lane, std::size_t) {
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(std::this_thread::get_id(), self);
    ++ran;
  });
  EXPECT_EQ(ran, 32u);
}

TEST(ThreadPool, BackToBackRegionsAcrossTheSpinBoundCoverEveryIndexOnce) {
  // Regions posted at once, about one spin bound after the last (a worker
  // may be between its last poll and parking), and long after it (workers
  // parked).  A job posted in the spin-to-park window must still run.
  // Every 100th region's items outlast the bound, so its caller stops
  // spinning and sleeps until the last worker detaches.
  const Watchdog watchdog(std::chrono::seconds(120));
  const std::size_t workers = fitting_workers();
  par::ThreadPool pool(workers);
  constexpr std::size_t kRegions = 20000;
  constexpr std::size_t kItems = 16;
  const auto bound = par::ThreadPool::kSpinBeforePark;
  std::vector<std::atomic<std::size_t>> hits(kItems);
  std::size_t bad_regions = 0;
  std::size_t first_bad = kRegions;
  for (std::size_t r = 0; r < kRegions; ++r) {
    switch (r % 20) {
      case 5:
      case 10:
      case 15:
        // Stepped around the bound, 0.8x to 1.2x, one step per 20 regions.
        busy_wait(bound * (8 + static_cast<long>((r / 20) % 5)) / 10);
        break;
      case 19:
        busy_wait(4 * bound);
        break;
      default:
        break;
    }
    const Clock::duration item_time =
        r % 100 == 50 ? Clock::duration(bound) * 5 / 4 : Clock::duration(0);
    pool.for_each(kItems, workers + 1, [&](std::size_t i) {
      busy_wait(item_time);
      hits[i].fetch_add(1);
    });
    const bool whole = std::all_of(hits.begin(), hits.end(), [&](const auto& h) {
      return h.load() == r + 1;
    });
    if (!whole) {
      ++bad_regions;
      first_bad = std::min(first_bad, r);
      for (auto& h : hits) h.store(r + 1);
    }
  }
  EXPECT_EQ(bad_regions, 0u) << "first bad region " << first_bad;
}

TEST(ThreadPool, PoolDestroyedWhileWorkersSpinJoinsAtOnce) {
  // Every worker attaches to one region (each item waits until all lanes
  // hold one), so right after it every worker is spinning.  The
  // destructor's stop request must end the spin instead of waiting it out.
  const Watchdog watchdog(std::chrono::seconds(120));
  const std::size_t workers = fitting_workers();
  const std::size_t lanes = workers + 1;
  using Micros = std::chrono::duration<double, std::micro>;
  std::vector<double> teardown_us;
  std::vector<double> join_us;
  for (int round = 0; round < 100; ++round) {
    auto pool = std::make_unique<par::ThreadPool>(workers);
    std::atomic<std::size_t> arrived{0};
    pool->for_each(lanes, lanes, [&](std::size_t) {
      arrived.fetch_add(1);
      while (arrived.load() < lanes) std::this_thread::yield();
    });
    Clock::time_point start = Clock::now();
    pool.reset();
    teardown_us.push_back(Micros(Clock::now() - start).count());

    // The same number of threads, polling a flag, stopped and joined:
    // what a teardown costs in this build when every thread exits at once.
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < workers; ++t) {
      threads.emplace_back([&] {
        while (!stop.load()) std::this_thread::yield();
      });
    }
    start = Clock::now();
    stop.store(true);
    for (auto& thread : threads) thread.join();
    join_us.push_back(Micros(Clock::now() - start).count());
  }
  // Waiting the spin out adds nearly a whole bound to every teardown.  The
  // fastest round of each kind is compared: on a loaded host most rounds
  // are delayed by other processes, but the fastest is not.
  const double bound_us = Micros(par::ThreadPool::kSpinBeforePark).count();
  const double fastest_teardown =
      *std::min_element(teardown_us.begin(), teardown_us.end());
  const double fastest_join = *std::min_element(join_us.begin(), join_us.end());
  EXPECT_LT(fastest_teardown, fastest_join + 0.5 * bound_us);
}

TEST(ThreadPool, OversubscribedPoolCompletesEveryItem) {
  // More lanes than hardware threads: spinning lanes share cores with
  // working ones, and every region still completes.
  const Watchdog watchdog(std::chrono::seconds(120));
  const std::size_t workers = util::hardware_threads() + 2;
  par::ThreadPool pool(workers);
  for (std::size_t r = 0; r < 2000; ++r) {
    const std::size_t count = 1 + r % 97;
    std::vector<std::atomic<int>> hits(count);
    pool.for_each(count, workers + 1, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "region " << r << " item " << i;
    }
  }
}

TEST(ParallelFor, GlobalPoolPreservesSlotSemantics) {
  // The drop-in used across the code base: slot writes, any thread count.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    std::vector<double> out(257, 0.0);
    par::parallel_for(out.size(), threads,
                      [&](std::size_t i) { out[i] = 0.5 * double(i); });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], 0.5 * double(i));
    }
  }
}

TEST(ParallelFor, LaneVariantIndexesPerLaneWorkspaces) {
  const std::size_t threads = 4;
  std::vector<std::vector<std::size_t>> scratch(threads);
  std::vector<std::size_t> out(300, 0);
  par::parallel_for_lanes(out.size(), threads,
                          [&](std::size_t lane, std::size_t i) {
                            auto& ws = scratch[lane];  // un-synchronized
                            ws.assign(1, i);
                            out[i] = ws[0] + 1;
                          });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

}  // namespace
}  // namespace ftdiag
