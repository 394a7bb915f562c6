/// \file server.hpp
/// \brief The ftdiag network server: accepts concurrent connections,
/// decodes wire frames, dispatches into a process-wide DiagnosisService.
///
/// Threading model — per connection, two threads:
///  * a *reader* that pulls frames off the socket, waits until the
///    ordered outbox has room (max_inflight entries at most), then decodes
///    each frame, submits diagnose requests to the service and appends the
///    resulting futures to the outbox;
///  * a *writer* that waits for the reply at the head of the outbox, pops
///    it only then (so an entry counts as in flight until its reply is
///    ready) and serializes every socket write — replies leave in the
///    order the requests arrived, which is what makes client pipelining
///    simple.
///
/// Error isolation: a malformed payload, unknown message type, unknown
/// circuit, or service failure answers with an error frame on *that*
/// connection — the server never crashes and the peer is not dropped.
/// Only an unrecoverable stream (bad magic / bad version / oversized
/// length prefix) closes the connection, after a best-effort error frame.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "service/diagnosis_service.hpp"

namespace ftdiag::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0: ephemeral, read back via Server::port()
  std::size_t max_connections = 64;
  /// Requests a single connection may have in flight (submitted but not
  /// yet replied).  The reader blocks past this — per-connection
  /// backpressure that bounds outbox memory.
  std::size_t max_inflight = 128;
  std::uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// Bound on reading the *rest* of a frame once its header arrived.  An
  /// idle connection may sit silent forever, but a peer that starts a
  /// frame and stalls mid-payload is holding a reader thread hostage —
  /// past this bound the connection is dropped.  0 = wait forever.
  int payload_recv_timeout_ms = 30000;
  /// Bound on any single reply write.  A peer that stops *reading* while
  /// we flush replies would otherwise block the writer thread forever
  /// once the socket buffer fills.  0 = wait forever.
  int send_timeout_ms = 30000;
};

/// Monotonic serving counters (connections_open is a gauge).  On a
/// connection that drains cleanly, every received diagnose frame is
/// answered exactly once, so `requests_received == replies_sent +
/// error_frames_sent` once `connections_open` returns to 0.  A view of
/// the server's `ftdiag_net_*{instance="N"}` registry series, which stay
/// exported until the server is destroyed.
struct ServerStats {
  std::size_t connections_accepted = 0;
  std::size_t connections_rejected = 0;  ///< over max_connections
  std::size_t connections_open = 0;
  /// Diagnose frames received, malformed payloads included — each one
  /// produces exactly one reply or error frame.
  std::size_t requests_received = 0;
  std::size_t replies_sent = 0;
  /// Error frames sent, kOverloaded frames included — the counter
  /// identity `requests_received == replies_sent + error_frames_sent`
  /// holds with shedding active.
  std::size_t error_frames_sent = 0;
  std::size_t overloaded_sent = 0;  ///< kOverloaded sheds (also in errors)
  std::size_t protocol_errors = 0;  ///< unrecoverable streams closed
  std::size_t disconnects = 0;      ///< connections that ended
};

/// A running server.  Construction binds + listens and starts the accept
/// loop; stop() (or the destructor) closes the listener, unblocks every
/// connection, and joins all threads.  The referenced DiagnosisService
/// must outlive the server.
class Server {
public:
  Server(service::DiagnosisService& service, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the actual one when options.port was 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const ServerOptions& options() const { return options_; }

  [[nodiscard]] ServerStats stats() const;

  /// Graceful shutdown: close the listener, stop *reading* every
  /// connection (shutdown of the read direction — a blocked reader wakes
  /// with a clean EOF), but let the writers flush every reply already in
  /// flight.  Waits up to \p grace for the connections to drain on their
  /// own, then falls through to stop() for whatever is left.  Idempotent,
  /// and composes with stop().
  void drain(std::chrono::milliseconds grace = std::chrono::seconds(10));

  /// Stop accepting, close every connection, join all threads.
  /// Idempotent.
  void stop();

private:
  struct Connection;

  void accept_loop();
  void reader_loop(Connection& conn);
  void writer_loop(Connection& conn);
  void reap_finished(bool all);

  service::DiagnosisService& service_;
  ServerOptions options_;
  Listener listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_;

  /// This server's `ftdiag_net_*` series; ServerStats reads them back.
  obs::Registry::Group metrics_;
  struct Counters {
    obs::Counter& connections_accepted;
    obs::Counter& connections_rejected;
    obs::Gauge& connections_open;
    obs::Counter& requests_received;
    obs::Counter& replies_sent;
    obs::Counter& error_frames_sent;
    obs::Counter& overloaded_sent;
    obs::Counter& protocol_errors;
    obs::Counter& disconnects;
  };
  Counters counters_;
};

}  // namespace ftdiag::net
