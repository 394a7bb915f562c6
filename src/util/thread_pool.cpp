#include "util/thread_pool.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "util/threads.hpp"

namespace ftdiag::par {

namespace {

using Clock = std::chrono::steady_clock;

/// Process-wide pool metrics (`ftdiag_pool_*`).  Sharded counters: every
/// lane of every parallel region bumps them, so per-thread shards keep
/// the hot path free of shared cache lines.
struct PoolMetrics {
  obs::Counter& jobs;
  obs::ShardedCounter& stolen_blocks;
  obs::ShardedCounter& busy_us;

  static PoolMetrics& get() {
    static PoolMetrics* m = [] {
      obs::Registry& reg = obs::Registry::global();
      return new PoolMetrics{
          reg.counter("ftdiag_pool_jobs_total", {},
                      "parallel jobs submitted to the work-stealing pool"),
          reg.sharded_counter("ftdiag_pool_stolen_blocks_total", {},
                              "work blocks executed by a lane other than "
                              "the submitting thread"),
          reg.sharded_counter("ftdiag_pool_busy_us_total", {},
                              "cumulative microseconds lanes spent "
                              "attached to jobs"),
      };
    }();
    return *m;
  }
};

/// Depth of parallel-region nesting on this thread (caller lanes and pool
/// workers both count themselves while running items).
thread_local std::size_t t_region_depth = 0;

/// Set once the process-wide pool has been destroyed.  Static destructors
/// that run after teardown must fall back to inline execution instead of
/// touching a destroyed object.
std::atomic<bool> g_global_destroyed{false};

/// Tells the core this thread is in a spin-wait loop (frees pipeline
/// resources for a hyper-thread sibling and saves power).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Polls \p done until it returns true (then true) or \p deadline passes
/// (then false).  Each poll yields the core: a scheduler may queue a woken
/// lane behind a spinning one on the same core (it often places a wakee on
/// the waker's core), and a pause-only loop would hold that core for the
/// whole bound while the queued lane waits.
template <typename Done>
bool spin_until(Done done, Clock::time_point deadline) {
  while (!done()) {
    if (Clock::now() >= deadline) return false;
    cpu_relax();
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

ThreadPool::RegionGuard::RegionGuard() { ++t_region_depth; }
ThreadPool::RegionGuard::~RegionGuard() { --t_region_depth; }

bool ThreadPool::in_parallel_region() { return t_region_depth > 0; }

bool ThreadPool::global_torn_down() {
  return g_global_destroyed.load(std::memory_order_acquire);
}

ThreadPool& ThreadPool::global() {
  struct GlobalPool {
    ThreadPool pool;
    GlobalPool()
        : pool(util::resolve_threads(0) >= 2 ? util::resolve_threads(0) - 1
                                             : 0) {}
    ~GlobalPool() {
      g_global_destroyed.store(true, std::memory_order_release);
    }
  };
  static GlobalPool instance;
  return instance.pool;
}

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    posted_.fetch_add(1, std::memory_order_release);  // wakes the spinners
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::enqueue_locked(Job& job) {
  job.next = nullptr;
  if (tail_ == nullptr) {
    head_ = tail_ = &job;
  } else {
    tail_->next = &job;
    tail_ = &job;
  }
}

void ThreadPool::dequeue_locked(Job& job) {
  Job** link = &head_;
  Job* prev = nullptr;
  while (*link != nullptr) {
    if (*link == &job) {
      *link = job.next;
      if (tail_ == &job) tail_ = prev;
      job.next = nullptr;
      return;
    }
    prev = *link;
    link = &prev->next;
  }
}

ThreadPool::Job* ThreadPool::find_attachable_locked() {
  for (Job* job = head_; job != nullptr; job = job->next) {
    if (job->lane_ticket < job->max_lanes &&
        job->next_block.load(std::memory_order_relaxed) < job->block_count) {
      return job;
    }
  }
  return nullptr;
}

void ThreadPool::work_on(Job& job, std::size_t lane) {
  const RegionGuard guard;
  const bool timed = obs::enabled();
  const auto attach_start = timed ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  const std::size_t blocks = job.block_count;
  std::size_t executed = 0;
  for (;;) {
    const std::size_t b = job.next_block.fetch_add(1);
    if (b >= blocks) break;
    ++executed;
    const std::size_t begin = b * job.count / blocks;
    const std::size_t end = (b + 1) * job.count / blocks;
    try {
      job.run(job.ctx, lane, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
    }
  }
  if (lane != 0 && executed > 0) {
    PoolMetrics::get().stolen_blocks.inc(executed);
  }
  if (timed && executed > 0) {
    PoolMetrics::get().busy_us.inc(static_cast<std::uint64_t>(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - attach_start)
            .count()));
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  // One spin budget per idle spell: a post the lane cannot attach to (all
  // of that job's lanes taken) sends it back to spinning, not to sleep.
  bool idle = false;
  Clock::time_point spin_deadline{};
  for (;;) {
    Job* job = find_attachable_locked();
    if (job == nullptr) {
      if (stop_) return;
      if (!idle) {
        idle = true;
        spin_deadline = Clock::now() + kSpinBeforePark;
      }
      if (Clock::now() < spin_deadline) {
        const std::uint64_t seen = posted_.load(std::memory_order_relaxed);
        lock.unlock();
        (void)spin_until(
            [&] { return posted_.load(std::memory_order_acquire) != seen; },
            spin_deadline);
        lock.lock();
        continue;  // re-check under the mutex before parking
      }
      work_cv_.wait(lock);
      idle = false;
      continue;
    }
    idle = false;
    const std::size_t lane = job->lane_ticket++;
    job->active.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    work_on(*job, lane);
    lock.lock();
    // The caller may return (and its job leave the stack) as soon as it
    // sees zero, so this is the worker's last touch of the job.
    if (job->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(Job& job) {
  PoolMetrics::get().jobs.inc();
  std::unique_lock<std::mutex> lock(mutex_);
  enqueue_locked(job);
  lock.unlock();
  // Bumped after the unlock, so a spinning worker that sees it finds the
  // mutex free; one that gives up first still finds the job when it
  // re-checks the list before parking.
  posted_.fetch_add(1, std::memory_order_release);
  work_cv_.notify_all();
  work_on(job, /*lane=*/0);
  // No new workers may attach once the job leaves the list; the ones
  // already attached are counted in `active` and drain their blocks
  // before detaching, so active == 0 means the whole range completed.
  lock.lock();
  dequeue_locked(job);
  lock.unlock();
  const auto drained = [&] {
    return job.active.load(std::memory_order_acquire) == 0;
  };
  if (!spin_until(drained, Clock::now() + kSpinBeforePark)) {
    lock.lock();
    done_cv_.wait(lock, drained);
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace ftdiag::par
