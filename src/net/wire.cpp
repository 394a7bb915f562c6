#include "net/wire.hpp"

#include <cstring>

#include "io/binary.hpp"
#include "util/strings.hpp"

namespace ftdiag::net {

namespace {

using io::ByteReader;

/// Counts are validated against the bytes actually present before any
/// container is sized from them, so a hostile count can never out-allocate
/// the (already bounded) payload it arrived in.
void require_count(ByteReader& reader, std::size_t count,
                   std::size_t min_bytes_each, const char* what) {
  if (min_bytes_each != 0 && count > reader.remaining() / min_bytes_each) {
    throw ParseError(std::string("frame payload declares more ") + what +
                     " than it carries");
  }
}

void put_point(std::string& out, const core::Point& point) {
  io::put_u32(out, static_cast<std::uint32_t>(point.size()));
  for (double c : point) io::put_f64(out, c);
}

core::Point get_point(ByteReader& reader) {
  const std::uint32_t dim = reader.get_u32();
  require_count(reader, dim, 8, "point coordinates");
  core::Point point(dim);
  for (double& c : point) c = reader.get_f64();
  return point;
}

void put_response(std::string& out, const mna::AcResponse& response) {
  io::put_u32(out, static_cast<std::uint32_t>(response.size()));
  for (std::size_t i = 0; i < response.size(); ++i) {
    io::put_f64(out, response.frequency(i));
    io::put_f64(out, response.value(i).real());
    io::put_f64(out, response.value(i).imag());
  }
}

mna::AcResponse get_response(ByteReader& reader) {
  const std::uint32_t n = reader.get_u32();
  require_count(reader, n, 24, "response samples");
  std::vector<double> freqs(n);
  std::vector<mna::Complex> values(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    freqs[i] = reader.get_f64();
    const double re = reader.get_f64();
    const double im = reader.get_f64();
    values[i] = {re, im};
  }
  if (!mna::is_valid_grid(freqs)) {
    throw ParseError(
        "measured response frequencies are not finite and ascending");
  }
  return mna::AcResponse(std::move(freqs), values);
}

}  // namespace

std::string encode_frame(MessageType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kFrameMagic, sizeof(kFrameMagic));
  io::put_u8(out, kWireVersion);
  io::put_u8(out, static_cast<std::uint8_t>(type));
  io::put_u16(out, 0);  // reserved flags
  io::put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

FrameHeader decode_frame_header(std::string_view header_bytes,
                                std::uint32_t max_payload_bytes) {
  ByteReader reader(header_bytes, "frame header");
  const char* magic = reader.need(sizeof(kFrameMagic));
  if (std::memcmp(magic, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    throw ParseError("not an ftdiag frame (bad magic)");
  }
  FrameHeader header;
  header.version = reader.get_u8();
  if (header.version < kMinWireVersion || header.version > kWireVersion) {
    throw ParseError(str::format(
        "unsupported wire protocol version %u (this build speaks %u-%u)",
        header.version, kMinWireVersion, kWireVersion));
  }
  header.type = reader.get_u8();
  if (const std::uint16_t flags = reader.get_u16(); flags != 0) {
    throw ParseError(
        str::format("frame uses reserved flag bits 0x%04x", flags));
  }
  header.payload_size = reader.get_u32();
  if (header.payload_size > max_payload_bytes) {
    throw ParseError(str::format(
        "frame payload of %u bytes exceeds the %u byte limit",
        header.payload_size, max_payload_bytes));
  }
  return header;
}

std::string encode_diagnose(std::uint64_t request_id,
                            const service::DiagnosisRequest& request) {
  std::string out;
  io::put_u64(out, request_id);
  io::put_u32(out, request.deadline_ms);
  io::put_u8(out, request.priority);
  io::put_str(out, request.circuit);
  io::put_u32(out, static_cast<std::uint32_t>(request.points.size()));
  for (const auto& point : request.points) put_point(out, point);
  io::put_u32(out, static_cast<std::uint32_t>(request.measured.size()));
  for (const auto& measured : request.measured) put_response(out, measured);
  return out;
}

DecodedDiagnose decode_diagnose(std::string_view payload,
                                std::uint8_t version) {
  ByteReader reader(payload, "diagnose frame payload");
  DecodedDiagnose decoded;
  decoded.request_id = reader.get_u64();
  if (version >= 2) {
    decoded.request.deadline_ms = reader.get_u32();
    decoded.request.priority = reader.get_u8();
  }
  decoded.request.circuit = reader.get_str();
  const std::uint32_t n_points = reader.get_u32();
  require_count(reader, n_points, 4, "points");
  decoded.request.points.reserve(n_points);
  for (std::uint32_t i = 0; i < n_points; ++i) {
    decoded.request.points.push_back(get_point(reader));
  }
  const std::uint32_t n_measured = reader.get_u32();
  require_count(reader, n_measured, 4, "measurements");
  decoded.request.measured.reserve(n_measured);
  for (std::uint32_t i = 0; i < n_measured; ++i) {
    decoded.request.measured.push_back(get_response(reader));
  }
  return decoded;
}

std::string encode_reply(std::uint64_t request_id,
                         const service::DiagnosisReply& reply) {
  std::string out;
  io::put_u64(out, request_id);
  io::put_u32(out, static_cast<std::uint32_t>(reply.results.size()));
  for (const auto& diagnosis : reply.results) {
    io::put_u32(out, static_cast<std::uint32_t>(diagnosis.ranking.size()));
    for (const auto& match : diagnosis.ranking) {
      io::put_str(out, match.site);
      io::put_f64(out, match.distance);
      io::put_u64(out, match.segment_index);
      io::put_f64(out, match.t);
      io::put_f64(out, match.estimated_deviation);
    }
  }
  return out;
}

DecodedReply decode_reply(std::string_view payload) {
  ByteReader reader(payload, "reply frame payload");
  DecodedReply decoded;
  decoded.request_id = reader.get_u64();
  const std::uint32_t n_results = reader.get_u32();
  require_count(reader, n_results, 4, "results");
  decoded.reply.results.reserve(n_results);
  for (std::uint32_t r = 0; r < n_results; ++r) {
    core::Diagnosis diagnosis;
    const std::uint32_t n_matches = reader.get_u32();
    require_count(reader, n_matches, 4 + 8 * 4, "ranking entries");
    diagnosis.ranking.reserve(n_matches);
    for (std::uint32_t m = 0; m < n_matches; ++m) {
      core::TrajectoryMatch match;
      match.site = reader.get_str();
      match.distance = reader.get_f64();
      match.segment_index = static_cast<std::size_t>(reader.get_u64());
      match.t = reader.get_f64();
      match.estimated_deviation = reader.get_f64();
      diagnosis.ranking.push_back(std::move(match));
    }
    decoded.reply.results.push_back(std::move(diagnosis));
  }
  return decoded;
}

std::string encode_error(std::uint64_t request_id, std::string_view message) {
  std::string out;
  io::put_u64(out, request_id);
  io::put_str(out, message);
  return out;
}

DecodedError decode_error(std::string_view payload) {
  ByteReader reader(payload, "error frame payload");
  DecodedError decoded;
  decoded.request_id = reader.get_u64();
  decoded.message = reader.get_str();
  return decoded;
}

std::string encode_stats_request(StatsFormat format) {
  std::string out;
  io::put_u8(out, static_cast<std::uint8_t>(format));
  return out;
}

StatsFormat decode_stats_request(std::string_view payload) {
  if (payload.empty()) return StatsFormat::kJson;
  ByteReader reader(payload, "stats request payload");
  const std::uint8_t raw = reader.get_u8();
  switch (raw) {
    case static_cast<std::uint8_t>(StatsFormat::kJson):
      return StatsFormat::kJson;
    case static_cast<std::uint8_t>(StatsFormat::kPrometheus):
      return StatsFormat::kPrometheus;
    default:
      throw ParseError(str::format("unknown stats format %u", raw));
  }
}

std::string encode_stats_reply(std::string_view rendered) {
  return std::string(rendered);
}

std::string decode_stats_reply(std::string_view payload) {
  return std::string(payload);
}

}  // namespace ftdiag::net
