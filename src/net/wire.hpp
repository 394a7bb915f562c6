/// \file wire.hpp
/// \brief The ftdiag network wire protocol: length-prefixed little-endian
/// binary frames carrying the service layer's request/reply structs.
///
/// Every frame is a fixed 12-byte header followed by a payload:
///
/// ```
/// offset  field
/// 0       magic "FTDN" (4 bytes)
/// 4       u8   protocol version (= 1)
/// 5       u8   message type
/// 6       u16  flags (reserved, must be 0)
/// 8       u32  payload size in bytes (bounded by max_payload_bytes)
/// 12      payload
/// ```
///
/// All integers are little-endian; doubles travel as IEEE-754 u64 bit
/// patterns, so a diagnosis served over the wire is bit-identical to the
/// in-process result.  Requests carry a client-chosen u64 request id that
/// the matching reply (or error) echoes, which is what makes pipelining
/// safe.  See src/net/README.md for the full spec and error semantics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/diagnosis_service.hpp"
#include "util/error.hpp"

namespace ftdiag::net {

/// Transport-level failure: connection refused/reset, short writes, a
/// peer that vanished mid-frame.
class NetError : public Error {
public:
  explicit NetError(const std::string& what) : Error("net error: " + what) {}
};

/// A socket operation exceeded its configured bound.  Subclass of
/// NetError: a timed-out connection is in an unknown state and must be
/// treated exactly like a transport failure (drop + reconnect), but
/// callers that care can distinguish it.
class TimeoutError : public NetError {
public:
  explicit TimeoutError(const std::string& what) : NetError(what) {}
};

/// A failure the *server* reported through an error frame (unknown
/// circuit, malformed request, service shutdown...).  The connection is
/// still usable after one of these.
class RemoteError : public Error {
public:
  explicit RemoteError(const std::string& what)
      : Error("remote error: " + what) {}
};

/// The server shed the request with a polite kOverloaded frame before
/// admitting it.  Subclass of RemoteError (the connection survives), but
/// — unlike every other RemoteError — explicitly retryable: nothing was
/// computed, so a backed-off retry is safe by construction.
class OverloadedError : public RemoteError {
public:
  explicit OverloadedError(const std::string& what) : RemoteError(what) {}
};

inline constexpr char kFrameMagic[4] = {'F', 'T', 'D', 'N'};
/// Protocol version this build *speaks*.  v2 adds the diagnose frame's
/// deadline_ms + priority fields and the kOverloaded message type;
/// receivers still accept v1 frames (kMinWireVersion) with both fields
/// defaulted, so old clients keep working against new servers.
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::uint8_t kMinWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Default bound on a single frame's payload.  A header declaring more
/// than the receiver's bound is rejected *before* any allocation — an
/// adversarial length prefix cannot balloon memory.
inline constexpr std::uint32_t kDefaultMaxPayloadBytes = 16u << 20;

/// Wire message types (stable byte values — part of protocol version 1;
/// kStats/kStatsReply and kOverloaded are additive extensions, old peers
/// answer them with an error frame as for any unknown type).
enum class MessageType : std::uint8_t {
  kDiagnose = 1,       ///< client -> server: DiagnosisRequest
  kDiagnoseReply = 2,  ///< server -> client: DiagnosisReply
  kError = 3,          ///< server -> client: request or connection error
  kPing = 4,           ///< client -> server: liveness probe
  kPong = 5,           ///< server -> client: liveness answer
  kStats = 6,          ///< client -> server: metrics snapshot request
  kStatsReply = 7,     ///< server -> client: rendered metrics snapshot
  kOverloaded = 8,     ///< server -> client: request shed, retry later
};

/// Rendering requested by a kStats frame.
enum class StatsFormat : std::uint8_t {
  kJson = 0,
  kPrometheus = 1,
};

/// A decoded frame header.  `type` is the raw byte: receivers decide how
/// to treat unknown types (the server answers with an error frame rather
/// than dropping the connection).
struct FrameHeader {
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint32_t payload_size = 0;
};

/// Frame a payload for the wire.
[[nodiscard]] std::string encode_frame(MessageType type,
                                       std::string_view payload);

/// Validate the fixed 12-byte header: magic, version, reserved flags and
/// the payload bound.  \throws ParseError on any violation (the stream is
/// unrecoverable past this point — close the connection).
[[nodiscard]] FrameHeader decode_frame_header(
    std::string_view header_bytes,
    std::uint32_t max_payload_bytes = kDefaultMaxPayloadBytes);

// ------------------------------------------------------- payload codecs
//
// Every decode is bounds-checked; malformed payloads throw ParseError
// without unbounded allocation (counts are validated against the payload
// size before any reserve).

/// kDiagnose: request id + (v2) deadline_ms + priority + circuit +
/// signature points + raw measurements.  Encoders always write the v2
/// layout; decoders take the frame header's version and read the v1
/// layout (no deadline/priority fields) when it says 1.
[[nodiscard]] std::string encode_diagnose(
    std::uint64_t request_id, const service::DiagnosisRequest& request);

struct DecodedDiagnose {
  std::uint64_t request_id = 0;
  service::DiagnosisRequest request;
};
[[nodiscard]] DecodedDiagnose decode_diagnose(
    std::string_view payload, std::uint8_t version = kWireVersion);

/// kDiagnoseReply: request id + one ranked diagnosis per observation.
[[nodiscard]] std::string encode_reply(std::uint64_t request_id,
                                       const service::DiagnosisReply& reply);

struct DecodedReply {
  std::uint64_t request_id = 0;
  service::DiagnosisReply reply;
};
[[nodiscard]] DecodedReply decode_reply(std::string_view payload);

/// kError: the id of the failed request (0 when the error is not tied to
/// a decodable request) + a human-readable message.
[[nodiscard]] std::string encode_error(std::uint64_t request_id,
                                       std::string_view message);

struct DecodedError {
  std::uint64_t request_id = 0;
  std::string message;
};
[[nodiscard]] DecodedError decode_error(std::string_view payload);

/// kStats: a single format byte.  An empty payload means kJson, so the
/// simplest possible prober (`printf 'FTDN...'`) still gets an answer.
[[nodiscard]] std::string encode_stats_request(StatsFormat format);
[[nodiscard]] StatsFormat decode_stats_request(std::string_view payload);

/// kStatsReply: the rendered exposition text, UTF-8, no framing beyond
/// the payload length.  The format is whatever the request asked for.
[[nodiscard]] std::string encode_stats_reply(std::string_view rendered);
[[nodiscard]] std::string decode_stats_reply(std::string_view payload);

}  // namespace ftdiag::net
