#include "net/server.hpp"

#include <condition_variable>
#include <deque>
#include <future>
#include <optional>
#include <utility>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace ftdiag::net {

/// One queued item for the writer thread: either a frame that is already
/// encoded (pong, error) or a pending diagnosis whose future the writer
/// waits on.  FIFO order in this queue *is* the reply order on the wire,
/// and its length is the connection's in-flight request count.
struct Outgoing {
  std::string ready_frame;  ///< non-empty: send as-is
  std::uint64_t request_id = 0;
  std::future<service::DiagnosisReply> pending;  ///< valid when not ready
};

struct Server::Connection {
  Socket socket;
  std::thread reader;
  std::thread writer;

  std::mutex mutex;
  std::condition_variable cv;        ///< writer: outbox non-empty / closing
  std::condition_variable space_cv;  ///< reader: inflight below the bound
  std::deque<Outgoing> outbox;
  bool reader_done = false;  ///< no more outbox entries will arrive
  bool broken = false;       ///< socket write failed; stop replying
  std::atomic<bool> finished{false};  ///< both threads about to exit
};

Server::Server(service::DiagnosisService& service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      counters_{
          .connections_accepted = metrics_.counter(
              "ftdiag_net_connections_accepted_total", "connections accepted"),
          .connections_rejected = metrics_.counter(
              "ftdiag_net_connections_rejected_total",
              "connections rejected over max_connections"),
          .connections_open = metrics_.gauge("ftdiag_net_connections_open",
                                             "connections open right now"),
          .requests_received = metrics_.counter(
              "ftdiag_net_requests_received_total",
              "diagnose frames received, malformed included"),
          .replies_sent = metrics_.counter("ftdiag_net_replies_sent_total",
                                           "diagnosis reply frames sent"),
          .error_frames_sent = metrics_.counter(
              "ftdiag_net_error_frames_sent_total",
              "error frames sent, kOverloaded sheds included"),
          .overloaded_sent = metrics_.counter(
              "ftdiag_net_overloaded_sent_total",
              "requests answered with a kOverloaded shed frame"),
          .protocol_errors = metrics_.counter(
              "ftdiag_net_protocol_errors_total",
              "unrecoverable streams closed"),
          .disconnects = metrics_.counter("ftdiag_net_disconnects_total",
                                          "connections that ended"),
      } {
  if (options_.max_inflight == 0) {
    throw ConfigError("net server max_inflight must be positive");
  }
  if (options_.max_connections == 0) {
    throw ConfigError("net server max_connections must be positive");
  }
  listener_ = Listener::bind(options_.host, options_.port);
  port_ = listener_.port();
  accept_thread_ = std::thread([this] { accept_loop(); });
  log::info("net: listening",
            {{"host", options_.host}, {"port", std::uint64_t{port_}}});
}

Server::~Server() { stop(); }

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Socket socket = listener_.accept();
    if (!socket.valid()) break;  // listener closed: shutting down
    reap_finished(false);

    std::size_t open;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      open = connections_.size();
    }
    if (open >= options_.max_connections) {
      counters_.connections_rejected.inc();
      log::warn("net: connection rejected",
                {{"open", open}, {"limit", options_.max_connections}});
      try {
        socket.send_all(encode_frame(
            MessageType::kError,
            encode_error(0, str::format("server is at its %zu connection "
                                        "limit; retry later",
                                        options_.max_connections))));
      } catch (const NetError&) {
      }
      continue;  // socket closes on scope exit
    }

    counters_.connections_accepted.inc();
    counters_.connections_open.add(1);
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(socket);
    // The reader arms/disarms the recv bound itself around payload
    // reads; the send bound guards every writer flush.
    conn->socket.set_send_timeout(options_.send_timeout_ms);
    // Start the threads under the lock, so reap_finished never reads a
    // thread handle while it is being assigned.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    Connection& ref = *connections_.emplace_back(std::move(conn));
    ref.reader = std::thread([this, &ref] { reader_loop(ref); });
    ref.writer = std::thread([this, &ref] { writer_loop(ref); });
  }
}

void Server::reader_loop(Connection& conn) {
  char header_bytes[kFrameHeaderBytes];
  std::string payload;

  // Each frame pushes one outbox entry and only this thread pushes, so the
  // room found before a submit is still there when its future is pushed.
  auto wait_for_room = [&] {
    std::unique_lock<std::mutex> lock(conn.mutex);
    conn.space_cv.wait(lock, [&] {
      return conn.outbox.size() < options_.max_inflight || conn.broken ||
             stopping_.load(std::memory_order_acquire);
    });
  };
  auto enqueue = [&](Outgoing item) {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.outbox.push_back(std::move(item));
    conn.cv.notify_one();
  };
  auto enqueue_error = [&](std::uint64_t id, const std::string& message) {
    Outgoing item;
    item.ready_frame = encode_frame(MessageType::kError,
                                    encode_error(id, message));
    enqueue(std::move(item));
  };

  while (!stopping_.load(std::memory_order_acquire)) {
    try {
      if (!conn.socket.recv_exact(header_bytes, kFrameHeaderBytes)) {
        break;  // clean close between frames
      }
    } catch (const NetError&) {
      break;  // reset / mid-frame disconnect: nothing to answer
    }
    wait_for_room();

    FrameHeader header;
    try {
      header = decode_frame_header({header_bytes, kFrameHeaderBytes},
                                   options_.max_payload_bytes);
    } catch (const Error& error) {
      // Bad magic, bad version, reserved flags, oversized length prefix:
      // the byte stream cannot be resynchronized.  Answer once, close.
      counters_.protocol_errors.inc();
      log::debug("net: protocol error", {{"error", error.what()}});
      enqueue_error(0, error.what());
      break;
    }

    // kNetRecv covers payload read + decode + submit for diagnose
    // frames; other frame types cancel the span below.
    obs::Span recv_span(obs::Stage::kNetRecv);
    payload.resize(header.payload_size);
    try {
      if (header.payload_size > 0) {
        // The payload must follow its header promptly — a mid-frame
        // stall is indistinguishable from a hung peer and would pin this
        // reader thread forever.  Idle time *between* frames stays
        // unbounded (the recv above runs with no bound).
        conn.socket.set_recv_timeout(options_.payload_recv_timeout_ms);
        const bool complete =
            conn.socket.recv_exact(payload.data(), payload.size());
        conn.socket.set_recv_timeout(0);
        if (!complete) {
          recv_span.cancel();
          break;
        }
      }
    } catch (const NetError&) {
      conn.socket.set_recv_timeout(0);
      recv_span.cancel();
      break;  // peer vanished (or stalled past the bound) mid-payload
    }

    // From here the stream is framed correctly, so every failure is
    // answerable in-band and the connection survives it.
    switch (header.type) {
      case static_cast<std::uint8_t>(MessageType::kPing): {
        recv_span.cancel();
        Outgoing item;
        item.ready_frame = encode_frame(MessageType::kPong, payload);
        enqueue(std::move(item));
        break;
      }
      case static_cast<std::uint8_t>(MessageType::kStats): {
        recv_span.cancel();
        try {
          const StatsFormat format = decode_stats_request(payload);
          const std::string rendered =
              format == StatsFormat::kPrometheus
                  ? obs::render_prometheus(obs::Registry::global())
                  : obs::render_json(obs::Registry::global());
          Outgoing item;
          item.ready_frame = encode_frame(MessageType::kStatsReply,
                                          encode_stats_reply(rendered));
          enqueue(std::move(item));
        } catch (const Error& error) {
          enqueue_error(0, error.what());
        }
        break;
      }
      case static_cast<std::uint8_t>(MessageType::kDiagnose): {
        // Counted before decoding so malformed payloads are received
        // requests too — the invariant `requests_received == replies_sent
        // + error_frames_sent` holds over whole connections.
        counters_.requests_received.inc();
        std::uint64_t request_id = 0;
        try {
          DecodedDiagnose decoded = decode_diagnose(payload, header.version);
          request_id = decoded.request_id;
          Outgoing item;
          item.request_id = request_id;
          item.pending = service_.submit(std::move(decoded.request));
          enqueue(std::move(item));
          recv_span.finish();
        } catch (const OverloadError& error) {
          // Admission control shed the request before it was queued: a
          // polite, explicitly retryable kOverloaded answer.
          recv_span.cancel();
          Outgoing item;
          item.ready_frame = encode_frame(
              MessageType::kOverloaded, encode_error(request_id, error.what()));
          enqueue(std::move(item));
        } catch (const Error& error) {
          // Malformed payload or a submit-side rejection (empty request,
          // deadline expired at admission, service shut down): this
          // request fails, the peer stays.
          recv_span.cancel();
          enqueue_error(request_id, error.what());
        }
        break;
      }
      default:
        recv_span.cancel();
        enqueue_error(
            0, str::format("unsupported message type %u",
                           static_cast<unsigned>(header.type)));
        break;
    }
  }

  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.reader_done = true;
    conn.cv.notify_one();
  }
}

void Server::writer_loop(Connection& conn) {
  for (;;) {
    Outgoing item;
    {
      std::unique_lock<std::mutex> lock(conn.mutex);
      conn.cv.wait(lock,
                   [&] { return !conn.outbox.empty() || conn.reader_done; });
      if (conn.outbox.empty()) break;  // reader done and outbox drained
      // The head stays queued (in flight) until its reply is ready; the
      // reader only appends, which leaves the head in place.
      Outgoing& head = conn.outbox.front();
      if (head.pending.valid()) {
        lock.unlock();
        head.pending.wait();
        lock.lock();
      }
      item = std::move(conn.outbox.front());
      conn.outbox.pop_front();
      conn.space_cv.notify_one();
    }

    std::string frame;
    bool is_reply = false;
    bool is_error = false;
    bool is_overloaded = false;
    // kReplySend: encoding + writing a diagnosis reply.  The future wait
    // above is solve/score time and is traced in the service.
    std::optional<obs::Span> send_span;
    if (!item.ready_frame.empty()) {
      frame = std::move(item.ready_frame);
      is_overloaded = frame.size() > 5 &&
                      frame[5] == static_cast<char>(MessageType::kOverloaded);
      // kOverloaded counts toward error_frames_sent so the identity
      // `requests_received == replies_sent + error_frames_sent` holds
      // with shedding active.
      is_error = is_overloaded ||
                 (frame.size() > 5 &&
                  frame[5] == static_cast<char>(MessageType::kError));
    } else {
      try {
        const service::DiagnosisReply reply = item.pending.get();
        send_span.emplace(obs::Stage::kReplySend);
        frame = encode_frame(MessageType::kDiagnoseReply,
                             encode_reply(item.request_id, reply));
        is_reply = true;
      } catch (const std::exception& error) {
        frame = encode_frame(MessageType::kError,
                             encode_error(item.request_id, error.what()));
        is_error = true;
      }
    }

    bool broken;
    {
      std::lock_guard<std::mutex> lock(conn.mutex);
      broken = conn.broken;
    }
    if (broken) {
      if (send_span) send_span->cancel();
      continue;  // keep draining futures, stop writing
    }

    try {
      conn.socket.send_all(frame);
      if (send_span) send_span->finish();
      if (is_reply) {
        counters_.replies_sent.inc();
      } else if (is_error) {
        counters_.error_frames_sent.inc();
        if (is_overloaded) counters_.overloaded_sent.inc();
      }
    } catch (const NetError&) {
      if (send_span) send_span->cancel();
      std::lock_guard<std::mutex> lock(conn.mutex);
      conn.broken = true;
      conn.space_cv.notify_all();  // unblock a reader stuck on inflight
    }
  }

  // The writer exits last for this connection's protocol work: shut the
  // socket so a reader still blocked in recv wakes up, then mark the
  // connection reapable.
  conn.socket.shutdown_both();
  counters_.disconnects.inc();
  counters_.connections_open.sub(1);
  conn.finished.store(true, std::memory_order_release);
}

void Server::reap_finished(bool all) {
  std::list<std::unique_ptr<Connection>> doomed;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (all || (*it)->finished.load(std::memory_order_acquire)) {
        doomed.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : doomed) {
    if (all) {
      // Force both threads out of any blocking call.
      conn->socket.shutdown_both();
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->cv.notify_all();
      conn->space_cv.notify_all();
    }
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
}

ServerStats Server::stats() const {
  return {.connections_accepted = counters_.connections_accepted.value(),
          .connections_rejected = counters_.connections_rejected.value(),
          .connections_open =
              static_cast<std::size_t>(counters_.connections_open.value()),
          .requests_received = counters_.requests_received.value(),
          .replies_sent = counters_.replies_sent.value(),
          .error_frames_sent = counters_.error_frames_sent.value(),
          .overloaded_sent = counters_.overloaded_sent.value(),
          .protocol_errors = counters_.protocol_errors.value(),
          .disconnects = counters_.disconnects.value()};
}

void Server::drain(std::chrono::milliseconds grace) {
  log::info("net: draining", {{"grace_ms", std::uint64_t(grace.count())}});
  // No new connections...
  listener_.close();
  // ...and no new requests: shutting down the read direction wakes every
  // blocked reader with a clean EOF while leaving the write direction —
  // and therefore every queued reply — intact.  Readers mid-frame drop
  // that frame; everything already submitted is answered.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& conn : connections_) conn->socket.shutdown_read();
  }
  const auto deadline = std::chrono::steady_clock::now() + grace;
  while (std::chrono::steady_clock::now() < deadline) {
    reap_finished(false);
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      if (connections_.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Whatever outlived the grace period is cut off the hard way.
  stop();
}

void Server::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    reap_finished(true);
    return;
  }
  listener_.close();  // wakes the blocked accept()
  if (accept_thread_.joinable()) accept_thread_.join();
  reap_finished(true);
  const ServerStats s = stats();
  log::info("net: server stopped",
            {{"requests", s.requests_received},
             {"replies", s.replies_sent},
             {"errors", s.error_frames_sent},
             {"disconnects", s.disconnects}});
}

}  // namespace ftdiag::net
