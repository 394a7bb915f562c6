/// \file thread_pool.hpp
/// \brief Persistent work-stealing thread pool behind par::parallel_for.
///
/// The fork/join loop this replaces spawned and joined raw std::threads on
/// every call — measurably slower than serial for the service's
/// micro-batches.  This pool starts its workers once (lazily, on the first
/// parallel call); the steady-state cost of a parallel_for is one mutex hop
/// and zero heap allocations (jobs live on the caller's stack and are
/// linked into an intrusive list).
///
/// Idle lanes spin before they sleep.  A worker that finds no job it can
/// attach to polls an atomic count of posted jobs for kSpinBeforePark
/// (pausing and yielding between polls), then re-checks under the mutex
/// and parks on a condition variable.  The
/// caller likewise polls its job's attached-worker count before it waits
/// for the stragglers.  Back-to-back regions (a dictionary build's
/// frequency blocks, a GA search's generations) so find their workers
/// awake instead of paying a kernel wake-up each.  Each poll yields the
/// core, so on an oversubscribed machine a spinning lane gives way to a
/// queued working one.
///
/// Scheduling: a job's index range is cut into contiguous blocks (block
/// partition, not strided, so adjacent result slots are written by one
/// thread and false sharing dies at block boundaries).  Workers and the
/// calling thread steal the next unclaimed block from a shared atomic
/// cursor until the range is drained — idle lanes steal work instead of
/// idling behind a static partition.  The partition only ever decides
/// *who* computes an item, never *what* is computed, so results are
/// bit-identical for any worker count (the determinism contract of
/// parallel.hpp).
///
/// Nested parallel calls from inside a job run inline on the calling
/// lane: when the engine's sweep runs inside a DiagnosisService worker the
/// inner loops must not oversubscribe the machine.
///
/// Exceptions thrown by items are caught, the first one is rethrown on the
/// calling thread after the job drains; remaining blocks still run (items
/// are independent).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ftdiag::par {

class ThreadPool {
public:
  /// How long an idle lane polls for work before it blocks in the kernel.
  /// It covers the serial gap between two regions of one GA search: the
  /// generation step plus the evaluation pipeline's plan and commit
  /// phases, 20-80 µs for 95 % of the gaps in a cold pass over the
  /// registry circuits (a dictionary build's gaps are under 5 µs).  A
  /// worker woken from the condition variable on another core can start
  /// ~100 µs late, so a gap this short is cheaper to spin through.
  static constexpr std::chrono::microseconds kSpinBeforePark{100};

  /// The process-wide pool, started on first use.  Its worker count is
  /// util::resolve_threads(0) - 1 (the calling thread is the extra lane),
  /// so FTDIAG_THREADS sizes it; a single-core resolution yields zero
  /// workers and every parallel call runs inline.
  static ThreadPool& global();

  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// True while the current thread is executing items of some job (its
  /// own or a stolen one).  Nested parallel calls observe this and run
  /// inline.
  [[nodiscard]] static bool in_parallel_region();

  /// True once the process-wide pool has been destroyed (static
  /// teardown).  Callers racing exit fall back to inline loops instead of
  /// touching the dead pool.
  [[nodiscard]] static bool global_torn_down();

  /// Run fn(i) for every i in [0, count), on up to \p max_lanes lanes
  /// (the caller plus up to max_lanes - 1 pool workers).  Runs inline
  /// when max_lanes <= 1, count <= 1, the pool has no workers, or the
  /// call is nested inside another job.
  template <typename Fn>
  void for_each(std::size_t count, std::size_t max_lanes, Fn&& fn) {
    for_each_lane(count, max_lanes,
                  [&fn](std::size_t /*lane*/, std::size_t i) { fn(i); });
  }

  /// Same, with the executing lane id passed to fn(lane, i).  Lane ids
  /// are dense in [0, max_lanes): the caller is lane 0 and each attaching
  /// worker takes the next id, so fn can index per-lane workspaces
  /// without locking.  Lane assignment never affects which items a lane
  /// computes deterministically — it only names the scratch space.
  template <typename Fn>
  void for_each_lane(std::size_t count, std::size_t max_lanes, Fn&& fn) {
    if (count == 0) return;
    if (max_lanes > count) max_lanes = count;
    if (max_lanes <= 1 || count <= 1 || workers_.empty() ||
        in_parallel_region()) {
      const RegionGuard guard;
      for (std::size_t i = 0; i < count; ++i) fn(0, i);
      return;
    }

    using Func = std::remove_reference_t<Fn>;
    Job job;
    job.ctx = const_cast<void*>(static_cast<const void*>(&fn));
    job.run = [](void* ctx, std::size_t lane, std::size_t begin,
                 std::size_t end) {
      Func& f = *static_cast<Func*>(ctx);
      for (std::size_t i = begin; i < end; ++i) f(lane, i);
    };
    job.count = count;
    job.max_lanes = max_lanes;
    // A few blocks per lane so a slow block doesn't strand the others
    // behind a static split; contiguous ranges keep slot writes local.
    job.block_count = std::min(count, max_lanes * kBlocksPerLane);
    run(job);
  }

private:
  static constexpr std::size_t kBlocksPerLane = 4;

  /// One parallel loop, stack-allocated by the caller and linked into the
  /// pool's intrusive pending list until its range is drained.
  struct Job {
    void (*run)(void*, std::size_t lane, std::size_t begin,
                std::size_t end) = nullptr;
    void* ctx = nullptr;
    std::size_t count = 0;
    std::size_t block_count = 0;
    std::size_t max_lanes = 0;
    std::atomic<std::size_t> next_block{0};
    std::size_t lane_ticket = 1;  ///< next lane id (0 is the caller); guarded by pool mutex
    /// Attached workers still running.  Changed only under the pool mutex;
    /// the caller polls it without the mutex while it spins.
    std::atomic<std::size_t> active{0};
    std::exception_ptr error;     ///< first item exception; guarded by error_mutex
    std::mutex error_mutex;
    Job* next = nullptr;          ///< intrusive pending-list link
  };

  /// Marks the current thread as inside a parallel region for the guard's
  /// lifetime (nested calls then run inline).
  struct RegionGuard {
    RegionGuard();
    ~RegionGuard();
  };

  void run(Job& job);
  void worker_loop();
  void work_on(Job& job, std::size_t lane);
  [[nodiscard]] Job* find_attachable_locked();
  void enqueue_locked(Job& job);
  void dequeue_locked(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers park here between jobs
  std::condition_variable done_cv_;  ///< callers wait here for their job
  Job* head_ = nullptr;
  Job* tail_ = nullptr;
  bool stop_ = false;
  /// Jobs posted so far, plus one for the stop request.  Spinning workers
  /// watch it for a change.
  std::atomic<std::uint64_t> posted_{0};
};

}  // namespace ftdiag::par
