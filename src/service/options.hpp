/// \file options.hpp
/// \brief Typed configuration of the ftdiag serving layer.
///
/// Kept separate from diagnosis_service.hpp so the Session facade can
/// embed ServiceOptions (SessionBuilder::service) without pulling the
/// whole service into every translation unit that includes session.hpp.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>

namespace ftdiag::service {

/// Configuration of the persistent dictionary store.
struct StoreOptions {
  /// Directory for `.fdx` artifacts; "" disables persistence (the store
  /// degrades to a pure in-memory LRU cache).
  std::string root_dir;

  /// Dictionaries kept in memory across all shards; older entries are
  /// evicted LRU (clients holding the shared_ptr keep theirs alive).
  std::size_t capacity = 16;

  /// Concurrency shards; keys hash to a shard so unrelated circuits never
  /// serialize on one mutex.  1 makes the whole-store LRU order exact.
  std::size_t shards = 4;

  /// Persist dictionaries the store builds (cold misses) to root_dir.
  bool persist = true;

  /// \throws ConfigError on a zero capacity or shard count.
  void check() const;
};

/// Configuration of the concurrent diagnosis front end.
struct ServiceOptions {
  /// Bounded MPMC request queue; submit() blocks while full (backpressure
  /// instead of unbounded memory growth).
  std::size_t queue_capacity = 1024;

  /// Dispatcher threads draining the queue; 0 means "auto" (half of
  /// util::resolve_threads(0) — which honors FTDIAG_THREADS — at least 1;
  /// the rest is left to connection threads or a batch_threads fan-out).
  std::size_t workers = 0;

  /// The effective dispatcher count (resolves 0 as documented above).
  [[nodiscard]] std::size_t resolved_workers() const;

  /// Most requests coalesced into one diagnosis micro-batch.
  std::size_t max_batch = 64;

  /// Ignored: dispatchers never linger for stragglers, a batch is the
  /// same-circuit backlog at the moment a dispatcher picks up work.  Kept
  /// only because perfbench's in-process service still assigns it.  (Not
  /// [[deprecated]]: GCC then warns in every constructor of this struct.)
  std::chrono::microseconds max_linger{200};

  /// Worker threads for the point fan-out inside one batch
  /// (Session::diagnose_batch); 0 means "auto", 1 runs the batch on the
  /// dispatcher's own thread.  Never changes results.
  std::size_t batch_threads = 1;

  /// Overload shedding high-water mark: once the queue holds this many
  /// requests, further priority-0 submits are rejected with OverloadError
  /// instead of blocking (higher priorities still ride the normal
  /// queue-full backpressure up to queue_capacity).  0 disables shedding —
  /// every submit blocks, the pre-resilience behavior.
  std::size_t shed_high_water = 0;

  /// \throws ConfigError on a zero queue capacity or max_batch, or a
  /// shed_high_water above queue_capacity.
  void check() const;
};

}  // namespace ftdiag::service
