/// \file diagnosis_service.hpp
/// \brief Thread-safe diagnosis front end: bounded MPMC request queue,
/// same-circuit micro-batching, futures out.
///
/// One process holds one expensive artifact per circuit (the dictionary,
/// via Session / DictionaryStore); the service turns that into a serving
/// system: any number of producer threads submit() DiagnosisRequests, a
/// small dispatcher pool drains the queue, runs the requests queued for one
/// circuit as one Session::diagnose_batch call (up to max_batch, never
/// waiting for more) and completes each request's future.  Batched results
/// are bit-identical to serial Session::diagnose calls for any thread
/// count and any batching configuration — batching only changes *when*
/// work runs, never *what* is computed.
///
///   service::DiagnosisService service;            // options.service knobs
///   service.add_session("tow_thomas", session);   // vector installed
///   auto reply = service.submit({.circuit = "tow_thomas",
///                                .points = {observed}}).get();
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/diagnosis.hpp"
#include "mna/response.hpp"
#include "obs/metrics.hpp"
#include "service/options.hpp"
#include "session.hpp"

namespace ftdiag::service {

/// One unit of serving work: which circuit, and the observations to
/// diagnose — signature points and/or raw measured responses (sampled at
/// the session's active test vector).
struct DiagnosisRequest {
  /// Key of a session registered with add_session.  May be left "" when
  /// exactly one session is registered.
  std::string circuit;
  std::vector<core::Point> points;
  std::vector<mna::AcResponse> measured;

  /// Remaining time budget in milliseconds, stamped relative to *arrival*
  /// (the service starts the clock at submit()).  Enforced at queue
  /// admission and again pre-solve, so an expired request fails with
  /// DeadlineError instead of consuming a solve.  0 = no deadline.
  std::uint32_t deadline_ms = 0;

  /// Shedding class: when the queue crosses ServiceOptions::
  /// shed_high_water, priority-0 requests are rejected with OverloadError
  /// while higher priorities are still admitted.  Not a scheduling
  /// priority — admitted requests are served FIFO regardless.
  std::uint8_t priority = 0;

  [[nodiscard]] std::size_t observation_count() const {
    return points.size() + measured.size();
  }
};

/// One diagnosis per observation, points first then measured, in request
/// order.
struct DiagnosisReply {
  std::vector<core::Diagnosis> results;
};

/// Monotonic serving counters (see also DictionaryStore::stats for the
/// artifact tiers).  Latency percentiles are tracked with a
/// fixed-boundary `obs::Histogram` over 1-2-5 microsecond decades, so
/// p50/p95/p99 are interpolated estimates within the matching bucket
/// rather than power-of-two bucket upper bounds.  A view of the service's
/// `ftdiag_service_*{instance="N"}` series, exported until the service
/// dies; `mean_batch` is derived from the two batch counters.
struct ServiceStats {
  std::size_t submitted = 0;        ///< requests accepted into the queue
  std::size_t completed = 0;        ///< requests answered successfully
  std::size_t failed = 0;           ///< requests completed with an error
  std::size_t batches = 0;          ///< micro-batches dispatched
  std::size_t batched_requests = 0; ///< requests across those batches
  std::size_t largest_batch = 0;    ///< most requests coalesced at once
  std::size_t queue_full_waits = 0; ///< submits that hit backpressure
  std::size_t shed = 0;             ///< submits rejected over the high-water mark
  std::size_t deadline_expired = 0; ///< requests failed on an expired deadline
  std::size_t queue_depth = 0;      ///< requests waiting right now (gauge)
  double mean_batch = 0.0;          ///< batched_requests / batches
  double p50_latency_us = 0.0;      ///< submit -> reply, median
  double p95_latency_us = 0.0;      ///< submit -> reply, tail
  double p99_latency_us = 0.0;      ///< submit -> reply, far tail
};

class DiagnosisService {
public:
  /// Starts the dispatcher pool.  \throws ConfigError on bad options.
  explicit DiagnosisService(ServiceOptions options = {});

  /// Drains the queue and joins the dispatchers (graceful shutdown()).
  ~DiagnosisService();

  DiagnosisService(const DiagnosisService&) = delete;
  DiagnosisService& operator=(const DiagnosisService&) = delete;

  [[nodiscard]] const ServiceOptions& options() const { return options_; }

  /// Register (or replace) the session serving \p circuit.  Sessions are
  /// cheap shared handles; the service keeps its own copy.  The session
  /// should have an active test vector — requests against one without it
  /// fail with ConfigError through their future.
  void add_session(const std::string& circuit, Session session);

  /// Registered circuit keys (sorted).
  [[nodiscard]] std::vector<std::string> circuits() const;

  /// Enqueue a request; blocks while the queue is at capacity
  /// (backpressure).  The future carries the reply or the error.
  /// \throws ConfigError for an empty request or a shut-down service,
  /// OverloadError when shedding is configured and the queue is past the
  /// high-water mark (priority 0 only), DeadlineError when the request's
  /// deadline expires while waiting for queue space.
  [[nodiscard]] std::future<DiagnosisReply> submit(DiagnosisRequest request);

  /// Synchronous convenience: submit + wait.  Errors rethrow here.
  [[nodiscard]] DiagnosisReply diagnose(DiagnosisRequest request);

  [[nodiscard]] ServiceStats stats() const;

  /// Stop accepting requests, serve everything already queued, join the
  /// dispatcher pool.  Idempotent; called by the destructor.
  void shutdown();

private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    DiagnosisRequest request;
    std::promise<DiagnosisReply> promise;
    Clock::time_point enqueued;
    /// Absolute expiry computed from request.deadline_ms at submit;
    /// nullopt when the request carries no deadline.
    std::optional<Clock::time_point> deadline;
  };

  void worker_loop();
  void process_batch(std::vector<Pending> batch);
  [[nodiscard]] std::optional<Session> find_session(
      const std::string& circuit) const;
  /// Completes `pending`'s future.  When `latency_sink` is given the
  /// latency sample goes into that batch-local accumulator instead of
  /// straight into the latency histogram (one atomic pass per batch, not
  /// per request).
  void finish(Pending& pending, DiagnosisReply reply,
              obs::HistogramBatch* latency_sink = nullptr);
  void fail(Pending& pending, std::exception_ptr error);

  ServiceOptions options_;
  std::size_t worker_count_ = 1;

  mutable std::mutex sessions_mutex_;
  std::map<std::string, Session> sessions_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;  ///< consumers: work or shutdown
  std::condition_variable space_cv_;  ///< producers: capacity freed
  std::deque<Pending> queue_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;

  /// This service's `ftdiag_service_*` series; ServiceStats reads them
  /// back.  Lock-free, so the request path takes no lock beyond the
  /// queue's own (queue_depth moves under that lock).
  obs::Registry::Group metrics_;
  struct Counters {
    obs::Counter& submitted;
    obs::Counter& completed;
    obs::Counter& failed;
    obs::Counter& batches;
    obs::Counter& batched_requests;
    obs::Counter& queue_full_waits;
    obs::Counter& shed;
    obs::Counter& deadline_expired;
    obs::Gauge& queue_depth;
    obs::Gauge& largest_batch;
    /// submit -> reply latency in microseconds.
    obs::Histogram& latency_us;
  };
  Counters counters_;
};

}  // namespace ftdiag::service
