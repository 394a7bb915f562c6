#include "service/diagnosis_service.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

#include "chaos/chaos.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/threads.hpp"

namespace ftdiag::service {

namespace {

/// A copy of \p error for one more reader: an ftdiag error keeps its type
/// and message, any other exception becomes a std::runtime_error with its
/// message.  Replies are read on their own threads, and an exception
/// object shared between them races on its unsynchronized refcount.
std::exception_ptr copy_of(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const DeadlineError& e) {
    return std::make_exception_ptr(e);
  } catch (const OverloadError& e) {
    return std::make_exception_ptr(e);
  } catch (const ConfigError& e) {
    return std::make_exception_ptr(e);
  } catch (const NumericError& e) {
    return std::make_exception_ptr(e);
  } catch (const CircuitError& e) {
    return std::make_exception_ptr(e);
  } catch (const ParseError& e) {
    return std::make_exception_ptr(e);
  } catch (const Error& e) {
    return std::make_exception_ptr(e);
  } catch (const std::exception& e) {
    return std::make_exception_ptr(std::runtime_error(e.what()));
  } catch (...) {
    return std::make_exception_ptr(
        std::runtime_error("unknown failure in a batched solve"));
  }
}

}  // namespace

std::size_t ServiceOptions::resolved_workers() const {
  if (workers != 0) return workers;
  return std::max<std::size_t>(1, util::resolve_threads(0) / 2);
}

void ServiceOptions::check() const {
  if (queue_capacity == 0) {
    throw ConfigError("service queue capacity must be >= 1");
  }
  if (max_batch == 0) {
    throw ConfigError("service max_batch must be >= 1");
  }
  if (shed_high_water > queue_capacity) {
    throw ConfigError("service shed_high_water must be <= queue_capacity");
  }
}

DiagnosisService::DiagnosisService(ServiceOptions options)
    : options_(options),
      counters_{
          .submitted = metrics_.counter(
              "ftdiag_service_submitted_total",
              "requests accepted into the service queue"),
          .completed = metrics_.counter("ftdiag_service_completed_total",
                                        "requests answered successfully"),
          .failed = metrics_.counter("ftdiag_service_failed_total",
                                     "requests completed with an error"),
          .batches = metrics_.counter("ftdiag_service_batches_total",
                                      "micro-batches dispatched"),
          .batched_requests = metrics_.counter(
              "ftdiag_service_batched_requests_total",
              "requests coalesced across all batches"),
          .queue_full_waits = metrics_.counter(
              "ftdiag_service_queue_full_waits_total",
              "submits that hit queue backpressure"),
          .shed = metrics_.counter(
              "ftdiag_service_shed_total",
              "submits shed over the overload high-water mark"),
          .deadline_expired = metrics_.counter(
              "ftdiag_service_deadline_expired_total",
              "requests failed on an expired deadline"),
          .queue_depth = metrics_.gauge(
              "ftdiag_service_queue_depth",
              "requests waiting in the queue right now"),
          .largest_batch = metrics_.gauge(
              "ftdiag_service_largest_batch",
              "most requests coalesced into one batch"),
          .latency_us = metrics_.histogram(
              "ftdiag_service_latency_us", obs::Histogram::latency_us_bounds(),
              "submit -> reply latency in microseconds"),
      } {
  options_.check();
  worker_count_ = options_.resolved_workers();
  workers_.reserve(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  log::debug("service: started",
             {{"workers", worker_count_},
              {"queue_capacity", options_.queue_capacity},
              {"max_batch", options_.max_batch}});
}

DiagnosisService::~DiagnosisService() { shutdown(); }

void DiagnosisService::add_session(const std::string& circuit,
                                   Session session) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  sessions_.insert_or_assign(circuit, std::move(session));
}

std::vector<std::string> DiagnosisService::circuits() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  std::vector<std::string> keys;
  keys.reserve(sessions_.size());
  for (const auto& [key, session] : sessions_) keys.push_back(key);
  return keys;
}

std::future<DiagnosisReply> DiagnosisService::submit(
    DiagnosisRequest request) {
  if (request.observation_count() == 0) {
    throw ConfigError("diagnosis request has no observations");
  }
  const Clock::time_point arrival = Clock::now();
  std::optional<Clock::time_point> deadline;
  if (request.deadline_ms > 0) {
    deadline = arrival + std::chrono::milliseconds(request.deadline_ms);
  }
  std::future<DiagnosisReply> future;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (stopping_) throw ConfigError("diagnosis service is shut down");
    // Admission control: past the high-water mark the lowest priority is
    // shed immediately — a cheap, explicit "retry later" beats making
    // every caller queue into a deadline it can no longer meet.
    if (options_.shed_high_water > 0 &&
        queue_.size() >= options_.shed_high_water && request.priority == 0) {
      counters_.shed.inc();
      throw OverloadError(
          "service queue is over its high-water mark; retry later");
    }
    if (queue_.size() >= options_.queue_capacity) {
      counters_.queue_full_waits.inc();
      const auto admitted = [&] {
        return stopping_ || queue_.size() < options_.queue_capacity;
      };
      // A deadlined request must not block for space past its budget —
      // failing at admission is the whole point of carrying the deadline.
      if (deadline) {
        if (!space_cv_.wait_until(lock, *deadline, admitted)) {
          counters_.deadline_expired.inc();
          throw DeadlineError("request expired waiting for queue space");
        }
      } else {
        space_cv_.wait(lock, admitted);
      }
      if (stopping_) throw ConfigError("diagnosis service is shut down");
    }
    Pending pending{std::move(request), {}, arrival, deadline};
    future = pending.promise.get_future();
    // Counted before a dispatcher can see the request, so completed +
    // failed never runs ahead of submitted.
    counters_.submitted.inc();
    queue_.push_back(std::move(pending));
    counters_.queue_depth.add(1);
  }
  queue_cv_.notify_one();
  return future;
}

DiagnosisReply DiagnosisService::diagnose(DiagnosisRequest request) {
  return submit(std::move(request)).get();
}

void DiagnosisService::worker_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping and fully drained

    // Work-conserving: take the head request plus every queued request for
    // its circuit (up to max_batch) and run at once.  Batches grow only
    // from the backlog built while every dispatcher was busy.
    obs::Span coalesce_span(obs::Stage::kBatchCoalesce);
    std::vector<Pending> batch;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    const std::string circuit = batch.front().request.circuit;
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < options_.max_batch;) {
      if (it->request.circuit == circuit) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }

    counters_.queue_depth.sub(static_cast<std::int64_t>(batch.size()));

    // If other circuits' requests remain queued, we may have absorbed the
    // notify that announced them — pass the baton to an idle worker
    // before spending time on our batch.
    const bool leftover = !queue_.empty();
    lock.unlock();
    coalesce_span.finish();
    space_cv_.notify_all();
    if (leftover) queue_cv_.notify_one();
    process_batch(std::move(batch));
  }
}

std::optional<Session> DiagnosisService::find_session(
    const std::string& circuit) const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  if (circuit.empty() && sessions_.size() == 1) {
    return sessions_.begin()->second;
  }
  auto it = sessions_.find(circuit);
  if (it == sessions_.end()) return std::nullopt;
  return it->second;
}

void DiagnosisService::process_batch(std::vector<Pending> batch) {
  counters_.batches.inc();
  counters_.batched_requests.inc(batch.size());
  counters_.largest_batch.max_of(static_cast<std::int64_t>(batch.size()));
  if (obs::enabled()) {
    // One sample per batch, for the batch's *oldest* request (the one
    // popped first, so it waited longest).  This is the batch's
    // worst-case queue delay — the tail signal we care about — at a
    // fraction of the per-request recording cost.
    obs::Tracer::global().record(
        obs::Stage::kQueueWait,
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  batch.front().enqueued)
            .count());
  }

  const std::optional<Session> session =
      find_session(batch.front().request.circuit);
  if (!session) {
    const std::string message = "no session registered for circuit '" +
                                batch.front().request.circuit + "'";
    // One exception per request: each reply is read on its own thread.
    for (auto& pending : batch) {
      fail(pending, std::make_exception_ptr(ConfigError(message)));
    }
    return;
  }

  // Flatten every observation into one point list; each request keeps its
  // [begin, begin+count) span so the batched results split back exactly.
  struct Span {
    std::size_t begin = 0;
    std::size_t count = 0;
    bool failed = false;
  };
  std::vector<core::Point> all_points;
  std::vector<Span> spans;
  spans.reserve(batch.size());
  const Clock::time_point pre_solve = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t begin = all_points.size();
    try {
      // Pre-solve deadline gate: a request that expired in the queue
      // fails here instead of consuming its share of the solve.
      if (batch[i].deadline && pre_solve > *batch[i].deadline) {
        counters_.deadline_expired.inc();
        throw DeadlineError("request expired in the queue before its solve");
      }
      for (const auto& point : batch[i].request.points) {
        all_points.push_back(point);
      }
      for (const auto& measured : batch[i].request.measured) {
        all_points.push_back(session->observe(measured));
      }
      spans.push_back({begin, all_points.size() - begin, false});
    } catch (...) {
      all_points.resize(begin);  // drop the half-converted request
      fail(batch[i], std::current_exception());
      spans.push_back({begin, 0, true});
    }
  }
  if (all_points.empty()) return;  // every request failed conversion

  std::vector<core::Diagnosis> results;
  try {
    obs::Span solve_span(obs::Stage::kSolve);
    if (chaos::Injector::global().enabled()) {
      chaos::hit("engine.solve_delay");
      if (chaos::hit("engine.solve_fail")) {
        throw NumericError("injected solve failure (chaos)");
      }
    }
    results = session->diagnose_batch(all_points, options_.batch_threads);
  } catch (...) {
    // One exception per request, as for an unknown circuit above.
    const std::exception_ptr error = std::current_exception();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!spans[i].failed) fail(batch[i], copy_of(error));
    }
    return;
  }

  obs::Span score_span(obs::Stage::kScore);
  // Replies for a batch land back to back, so the per-request latency
  // observations are accumulated locally and merged into the histogram
  // with one atomic pass when the accumulator goes out of scope.
  obs::HistogramBatch latency_batch(counters_.latency_us);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (spans[i].failed) continue;
    DiagnosisReply reply;
    reply.results.assign(
        results.begin() + static_cast<std::ptrdiff_t>(spans[i].begin),
        results.begin() +
            static_cast<std::ptrdiff_t>(spans[i].begin + spans[i].count));
    finish(batch[i], std::move(reply), &latency_batch);
  }
}

void DiagnosisService::finish(Pending& pending, DiagnosisReply reply,
                              obs::HistogramBatch* latency_sink) {
  const double us = std::chrono::duration<double, std::micro>(
                        Clock::now() - pending.enqueued)
                        .count();
  if (latency_sink != nullptr) {
    latency_sink->observe(us > 0.0 ? us : 0.0);
  } else {
    counters_.latency_us.observe(us > 0.0 ? us : 0.0);
  }
  // Count before completing the future, so a caller that joined its
  // reply always observes the request in the counters.
  counters_.completed.inc();
  pending.promise.set_value(std::move(reply));
}

void DiagnosisService::fail(Pending& pending, std::exception_ptr error) {
  counters_.failed.inc();
  // Released at once: the future's reader then usually frees the error.
  // The reader can still run between set_exception and this release;
  // completion callbacks that carry errors without an exception close
  // that window.
  std::promise<DiagnosisReply>(std::move(pending.promise))
      .set_exception(std::move(error));
}

ServiceStats DiagnosisService::stats() const {
  ServiceStats snapshot;
  // Outcomes first: a request counts as submitted before it can complete,
  // so this order keeps completed + failed from reading ahead of it.
  snapshot.completed = counters_.completed.value();
  snapshot.failed = counters_.failed.value();
  snapshot.submitted = counters_.submitted.value();
  snapshot.batches = counters_.batches.value();
  snapshot.batched_requests = counters_.batched_requests.value();
  snapshot.largest_batch =
      static_cast<std::size_t>(counters_.largest_batch.value());
  snapshot.queue_full_waits = counters_.queue_full_waits.value();
  snapshot.shed = counters_.shed.value();
  snapshot.deadline_expired = counters_.deadline_expired.value();
  snapshot.queue_depth =
      static_cast<std::size_t>(counters_.queue_depth.value());
  if (snapshot.batches > 0) {
    snapshot.mean_batch = static_cast<double>(snapshot.batched_requests) /
                          static_cast<double>(snapshot.batches);
  }
  const obs::HistogramSnapshot latency = counters_.latency_us.snapshot();
  if (latency.count > 0) {
    snapshot.p50_latency_us = latency.quantile(0.50);
    snapshot.p95_latency_us = latency.quantile(0.95);
    snapshot.p99_latency_us = latency.quantile(0.99);
  }
  return snapshot;
}

void DiagnosisService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  const ServiceStats s = stats();
  log::debug("service: shutdown",
             {{"completed", s.completed},
              {"failed", s.failed},
              {"batches", s.batches},
              {"mean_batch", s.mean_batch}});
}

}  // namespace ftdiag::service
