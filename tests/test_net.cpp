/// Network-layer tests: wire codec bit-exactness and hostile-input
/// rejection (no sockets needed), then a real loopback server — blocking
/// and pipelined clients must be bit-identical to in-process
/// Session::diagnose_batch, per-request errors must not drop the
/// connection, and adversarial frames (oversized length prefix, truncated
/// payload, unknown message type, mid-frame disconnect) must end in an
/// error frame or a clean close, never a crash.  The last tests pin the
/// serving stats export: what the registry exports for a server, a
/// service and a store, that it matches their stats() structs, and that
/// a scrape racing their destruction reads no freed series.
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/nf_biquad.hpp"
#include "io/binary.hpp"
#include "mna/frequency_grid.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "service/diagnosis_service.hpp"
#include "service/dictionary_store.hpp"
#include "session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ftdiag::net {
namespace {

// ------------------------------------------------------------ wire codec

/// Doubles chosen to shake out any non-bit-exact path: non-terminating
/// fractions, signed zero, denormals, huge magnitudes.
const double kNastyDoubles[] = {1.0 / 3.0, -0.0, 5e-324, -1.7e308,
                                123456.789012345678};

service::DiagnosisRequest sample_request() {
  service::DiagnosisRequest request;
  request.circuit = "paper";
  request.points.push_back(core::Point{kNastyDoubles[0], kNastyDoubles[1]});
  request.points.push_back(core::Point{kNastyDoubles[2], kNastyDoubles[3],
                                       kNastyDoubles[4]});
  request.measured.push_back(mna::AcResponse(
      {100.0, 1000.0},
      {mna::Complex(1.0 / 7.0, -2.0 / 7.0), mna::Complex(-0.0, 5e-324)}));
  return request;
}

TEST(WireCodec, DiagnoseRoundTripIsBitExact) {
  const service::DiagnosisRequest request = sample_request();
  const DecodedDiagnose decoded =
      decode_diagnose(encode_diagnose(42, request));
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.request.circuit, request.circuit);
  ASSERT_EQ(decoded.request.points.size(), request.points.size());
  for (std::size_t i = 0; i < request.points.size(); ++i) {
    EXPECT_EQ(decoded.request.points[i], request.points[i]);
  }
  ASSERT_EQ(decoded.request.measured.size(), request.measured.size());
  for (std::size_t i = 0; i < request.measured.size(); ++i) {
    EXPECT_EQ(decoded.request.measured[i].frequencies(),
              request.measured[i].frequencies());
    EXPECT_EQ(decoded.request.measured[i].values(),
              request.measured[i].values());
  }
}

/// A diagnose payload with one measured response on {100, 1000} Hz, its
/// two frequency doubles replaced by \p lo and \p hi.
std::string measured_payload(double lo, double hi) {
  service::DiagnosisRequest request;
  request.circuit = "paper";
  request.measured.push_back(mna::AcResponse(
      {100.0, 1000.0}, {mna::Complex(0.5, -0.25), mna::Complex(0.125, 0.0)}));
  std::string payload = encode_diagnose(9, request);
  std::string f0, f1;
  io::put_f64(f0, 100.0);
  io::put_f64(f1, 1000.0);
  const std::size_t at0 = payload.find(f0);
  const std::size_t at1 = payload.find(f1);
  std::string patched;
  io::put_f64(patched, lo);
  payload.replace(at0, 8, patched);
  patched.clear();
  io::put_f64(patched, hi);
  payload.replace(at1, 8, patched);
  return payload;
}

TEST(WireCodec, MeasuredFrequenciesMustBeFiniteAndAscending) {
  EXPECT_NO_THROW((void)decode_diagnose(measured_payload(100.0, 1000.0)));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [lo, hi] : {std::pair{1000.0, 100.0}, std::pair{nan, 1000.0},
                               std::pair{100.0, inf}}) {
    EXPECT_THROW((void)decode_diagnose(measured_payload(lo, hi)), ParseError)
        << lo << ", " << hi;
  }
}

TEST(WireCodec, BitFlippedMeasuredPayloadsDecodeOrThrow) {
  // Every mutant of a one-response payload must decode or throw an
  // ftdiag::Error; a corrupted grid must never reach AcResponse's assert.
  const std::string payload = measured_payload(100.0, 1000.0);
  Rng rng(20261017);
  std::size_t grid_rejections = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string mutant = payload;
    const std::int64_t flips = rng.uniform_int(1, 3);
    for (std::int64_t f = 0; f < flips; ++f) {
      const auto bit = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(8 * mutant.size()) - 1));
      mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
    }
    try {
      (void)decode_diagnose(mutant);
    } catch (const Error& e) {
      if (std::string(e.what()).find("frequencies") != std::string::npos) {
        ++grid_rejections;
      }
    }
  }
  EXPECT_GT(grid_rejections, 0u) << "the sweep never corrupted the grid";
}

TEST(WireCodec, ReplyRoundTripIsBitExact) {
  service::DiagnosisReply reply;
  core::Diagnosis diagnosis;
  core::TrajectoryMatch match;
  match.site = "R1";
  match.distance = 1.0 / 3.0;
  match.segment_index = 7;
  match.t = 0.123456789012345678;
  match.estimated_deviation = -5e-324;
  diagnosis.ranking.push_back(match);
  match.site = "C2";
  match.distance = 0.0;
  diagnosis.ranking.push_back(match);
  reply.results.push_back(diagnosis);
  reply.results.push_back(core::Diagnosis{});  // empty ranking survives too

  const DecodedReply decoded = decode_reply(encode_reply(7, reply));
  EXPECT_EQ(decoded.request_id, 7u);
  ASSERT_EQ(decoded.reply.results.size(), 2u);
  ASSERT_EQ(decoded.reply.results[0].ranking.size(), 2u);
  EXPECT_TRUE(decoded.reply.results[1].ranking.empty());
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& a = reply.results[0].ranking[i];
    const auto& b = decoded.reply.results[0].ranking[i];
    EXPECT_EQ(a.site, b.site);
    EXPECT_EQ(a.distance, b.distance);
    EXPECT_EQ(a.segment_index, b.segment_index);
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.estimated_deviation, b.estimated_deviation);
  }
}

TEST(WireCodec, ErrorRoundTrip) {
  const DecodedError decoded =
      decode_error(encode_error(9, "dictionary on fire"));
  EXPECT_EQ(decoded.request_id, 9u);
  EXPECT_EQ(decoded.message, "dictionary on fire");
}

TEST(WireCodec, FrameHeaderRoundTrip) {
  const std::string frame = encode_frame(MessageType::kDiagnose, "abc");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 3);
  const FrameHeader header =
      decode_frame_header(std::string_view(frame).substr(0, kFrameHeaderBytes));
  EXPECT_EQ(header.version, kWireVersion);
  EXPECT_EQ(header.type, static_cast<std::uint8_t>(MessageType::kDiagnose));
  EXPECT_EQ(header.payload_size, 3u);
}

TEST(WireCodec, HeaderRejectsBadMagicVersionFlagsAndOversize) {
  const std::string good = encode_frame(MessageType::kPing, "");
  auto corrupt = [&](std::size_t at, char value) {
    std::string bytes = good;
    bytes[at] = value;
    return bytes;
  };
  EXPECT_THROW((void)decode_frame_header(corrupt(0, 'X')), ParseError);
  EXPECT_THROW((void)decode_frame_header(corrupt(4, 99)), ParseError);
  EXPECT_THROW((void)decode_frame_header(corrupt(6, 1)), ParseError);
  EXPECT_THROW((void)decode_frame_header(good.substr(0, 5)), ParseError);

  // An adversarial length prefix is rejected against the receiver bound
  // before anything is allocated from it.
  std::string oversized = good;
  oversized[8] = '\xff';
  oversized[9] = '\xff';
  oversized[10] = '\xff';
  oversized[11] = '\x7f';
  EXPECT_THROW((void)decode_frame_header(oversized), ParseError);
  EXPECT_NO_THROW((void)decode_frame_header(oversized, 0x7fffffffu));
}

TEST(WireCodec, HostileCountsRejectedBeforeAllocation) {
  // A diagnose payload declaring 2^32-1 points but carrying none must be
  // a clean ParseError, not a giant reserve.
  std::string payload;
  io::put_u64(payload, 1);
  io::put_str(payload, "paper");
  io::put_u32(payload, 0xffffffffu);
  EXPECT_THROW((void)decode_diagnose(payload), ParseError);

  // Same for a point's own dimension count...
  std::string dims;
  io::put_u64(dims, 1);
  io::put_str(dims, "paper");
  io::put_u32(dims, 1);
  io::put_u32(dims, 0xffffffffu);
  EXPECT_THROW((void)decode_diagnose(dims), ParseError);

  // ...and for a reply's ranking count.
  std::string ranking;
  io::put_u64(ranking, 1);
  io::put_u32(ranking, 1);
  io::put_u32(ranking, 0xffffffffu);
  EXPECT_THROW((void)decode_reply(ranking), ParseError);

  // Truncated payloads of every length are rejected too.
  const std::string whole = encode_diagnose(3, sample_request());
  for (std::size_t keep = 0; keep < whole.size(); keep += 7) {
    EXPECT_THROW((void)decode_diagnose(whole.substr(0, keep)), ParseError);
  }
}

// -------------------------------------------------------------- loopback

/// One live server over a real socket, shared by every loopback test.
class NetLoopbackTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    if (!sockets_supported()) return;
    auto cut = circuits::make_paper_cut();
    cut.dictionary_grid = mna::FrequencyGrid::log_sweep(100.0, 10000.0, 24);
    faults::DeviationSpec spec;
    spec.step_fraction = 0.2;
    session_ = new Session(
        SessionBuilder(cut).deviations(spec).build());
    session_->use_vector(core::TestVector{{700.0, 1600.0}});

    Rng rng(7);
    points_ = new std::vector<core::Point>;
    for (std::size_t i = 0; i < 48; ++i) {
      points_->push_back(
          core::Point{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)});
    }
    serial_ = new std::vector<core::Diagnosis>(
        session_->diagnose_batch(*points_));

    service_ = new service::DiagnosisService;
    service_->add_session("paper", *session_);
    ServerOptions options;
    options.port = 0;  // ephemeral
    server_ = new Server(*service_, options);
  }
  static void TearDownTestSuite() {
    delete server_;
    delete service_;
    delete serial_;
    delete points_;
    delete session_;
    server_ = nullptr;
    service_ = nullptr;
    serial_ = nullptr;
    points_ = nullptr;
    session_ = nullptr;
  }

  void SetUp() override {
    if (!sockets_supported()) GTEST_SKIP() << "no socket support";
  }

  static void expect_same(const core::Diagnosis& a,
                          const core::Diagnosis& b) {
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (std::size_t i = 0; i < a.ranking.size(); ++i) {
      EXPECT_EQ(a.ranking[i].site, b.ranking[i].site);
      EXPECT_EQ(a.ranking[i].distance, b.ranking[i].distance);
      EXPECT_EQ(a.ranking[i].segment_index, b.ranking[i].segment_index);
      EXPECT_EQ(a.ranking[i].t, b.ranking[i].t);
      EXPECT_EQ(a.ranking[i].estimated_deviation,
                b.ranking[i].estimated_deviation);
    }
  }

  static Client connect() { return Client("127.0.0.1", server_->port()); }

  /// Read one frame off a raw socket (adversarial tests speak bytes, not
  /// the Client API).  nullopt on a clean close.
  static std::optional<std::pair<FrameHeader, std::string>> read_raw(
      Socket& socket) {
    char header_bytes[kFrameHeaderBytes];
    if (!socket.recv_exact(header_bytes, kFrameHeaderBytes)) {
      return std::nullopt;
    }
    const FrameHeader header =
        decode_frame_header({header_bytes, kFrameHeaderBytes});
    std::string payload(header.payload_size, '\0');
    if (header.payload_size > 0 &&
        !socket.recv_exact(payload.data(), payload.size())) {
      throw NetError("server closed mid-frame");
    }
    return std::make_pair(header, std::move(payload));
  }

  static Session* session_;
  static std::vector<core::Point>* points_;
  static std::vector<core::Diagnosis>* serial_;
  static service::DiagnosisService* service_;
  static Server* server_;
};

Session* NetLoopbackTest::session_ = nullptr;
std::vector<core::Point>* NetLoopbackTest::points_ = nullptr;
std::vector<core::Diagnosis>* NetLoopbackTest::serial_ = nullptr;
service::DiagnosisService* NetLoopbackTest::service_ = nullptr;
Server* NetLoopbackTest::server_ = nullptr;

TEST_F(NetLoopbackTest, BlockingDiagnoseBitIdenticalToInProcess) {
  Client client = connect();
  for (std::size_t i = 0; i < points_->size(); i += 5) {
    service::DiagnosisRequest request;
    request.circuit = "paper";
    request.points.push_back((*points_)[i]);
    const service::DiagnosisReply reply = client.diagnose(request);
    ASSERT_EQ(reply.results.size(), 1u);
    expect_same(reply.results.front(), (*serial_)[i]);
  }
}

TEST_F(NetLoopbackTest, MultiPointRequestMatchesDiagnoseBatch) {
  // All observations in one frame: the reply must equal diagnose_batch
  // bit for bit, in order.
  Client client = connect();
  service::DiagnosisRequest request;
  request.circuit = "paper";
  request.points = *points_;
  const service::DiagnosisReply reply = client.diagnose(request);
  ASSERT_EQ(reply.results.size(), serial_->size());
  for (std::size_t i = 0; i < serial_->size(); ++i) {
    expect_same(reply.results[i], (*serial_)[i]);
  }
}

TEST_F(NetLoopbackTest, PipelinedRepliesComeBackInOrder) {
  Client client = connect();
  std::vector<service::DiagnosisRequest> requests;
  for (const auto& point : *points_) {
    service::DiagnosisRequest request;
    request.circuit = "paper";
    request.points.push_back(point);
    requests.push_back(std::move(request));
  }
  const auto replies = client.diagnose_pipelined(requests, 7);
  ASSERT_EQ(replies.size(), serial_->size());
  for (std::size_t i = 0; i < serial_->size(); ++i) {
    ASSERT_EQ(replies[i].results.size(), 1u);
    expect_same(replies[i].results.front(), (*serial_)[i]);
  }
}

TEST_F(NetLoopbackTest, ConcurrentClientsAllGetTheirOwnBits) {
  constexpr std::size_t kClients = 4;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([c] {
      Client client = connect();
      for (std::size_t i = c; i < points_->size(); i += kClients) {
        service::DiagnosisRequest request;
        request.circuit = "paper";
        request.points.push_back((*points_)[i]);
        const service::DiagnosisReply reply = client.diagnose(request);
        ASSERT_EQ(reply.results.size(), 1u);
        expect_same(reply.results.front(), (*serial_)[i]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST_F(NetLoopbackTest, PingPong) {
  Client client = connect();
  client.ping();
}

TEST_F(NetLoopbackTest, RequestErrorsAreIsolatedPerRequest) {
  Client client = connect();

  // Unknown circuit: the server answers with an error frame...
  service::DiagnosisRequest bogus;
  bogus.circuit = "no_such_circuit";
  bogus.points.push_back((*points_)[0]);
  EXPECT_THROW((void)client.diagnose(bogus), RemoteError);

  // ...an empty request is rejected by the service the same way...
  EXPECT_THROW((void)client.diagnose(service::DiagnosisRequest{}),
               RemoteError);

  // ...and the connection is still perfectly usable afterwards.
  service::DiagnosisRequest good;
  good.circuit = "paper";
  good.points.push_back((*points_)[0]);
  const service::DiagnosisReply reply = client.diagnose(good);
  ASSERT_EQ(reply.results.size(), 1u);
  expect_same(reply.results.front(), (*serial_)[0]);
}

TEST_F(NetLoopbackTest, UnknownMessageTypeGetsErrorFrameNotDisconnect) {
  Socket socket = connect_tcp("127.0.0.1", server_->port());
  socket.send_all(encode_frame(static_cast<MessageType>(9), "junk"));
  auto frame = read_raw(socket);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->first.type, static_cast<std::uint8_t>(MessageType::kError));
  // The stream is still framed: a ping on the same connection answers.
  socket.send_all(encode_frame(MessageType::kPing, ""));
  frame = read_raw(socket);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->first.type, static_cast<std::uint8_t>(MessageType::kPong));
}

TEST_F(NetLoopbackTest, MalformedDiagnosePayloadGetsErrorFrame) {
  Socket socket = connect_tcp("127.0.0.1", server_->port());
  // Well-framed, but the payload is garbage: this request fails, the
  // connection survives.
  socket.send_all(encode_frame(MessageType::kDiagnose, "garbage"));
  auto frame = read_raw(socket);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->first.type, static_cast<std::uint8_t>(MessageType::kError));
  socket.send_all(encode_frame(MessageType::kPing, ""));
  frame = read_raw(socket);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->first.type, static_cast<std::uint8_t>(MessageType::kPong));
}

TEST_F(NetLoopbackTest, DescendingMeasuredFrequenciesGetErrorFrame) {
  // A dedicated server, so the counter identity covers this request only.
  service::DiagnosisService service;
  service.add_session("paper", *session_);
  ServerOptions options;
  options.port = 0;
  Server server(service, options);
  {
    Socket socket = connect_tcp("127.0.0.1", server.port());
    socket.send_all(encode_frame(MessageType::kDiagnose,
                                 measured_payload(1000.0, 100.0)));
    auto frame = read_raw(socket);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->first.type,
              static_cast<std::uint8_t>(MessageType::kError));
    socket.send_all(encode_frame(MessageType::kPing, ""));
    frame = read_raw(socket);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->first.type,
              static_cast<std::uint8_t>(MessageType::kPong));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().connections_open > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_received, 1u);
  EXPECT_EQ(stats.requests_received,
            stats.replies_sent + stats.error_frames_sent);
}

TEST_F(NetLoopbackTest, OversizedLengthPrefixAnswersThenCloses) {
  Socket socket = connect_tcp("127.0.0.1", server_->port());
  // Magic + version + type are fine; the length prefix claims 2 GiB.
  std::string header;
  header.append(kFrameMagic, sizeof(kFrameMagic));
  io::put_u8(header, kWireVersion);
  io::put_u8(header, static_cast<std::uint8_t>(MessageType::kDiagnose));
  io::put_u16(header, 0);
  io::put_u32(header, 0x7fffffffu);
  socket.send_all(header);
  // The stream cannot be resynchronized: one error frame, then a clean
  // close — and crucially no 2 GiB allocation server-side.
  auto frame = read_raw(socket);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->first.type, static_cast<std::uint8_t>(MessageType::kError));
  EXPECT_FALSE(read_raw(socket).has_value());
}

TEST_F(NetLoopbackTest, BadMagicAnswersThenCloses) {
  Socket socket = connect_tcp("127.0.0.1", server_->port());
  socket.send_all(std::string(kFrameHeaderBytes, 'x'));
  auto frame = read_raw(socket);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->first.type, static_cast<std::uint8_t>(MessageType::kError));
  EXPECT_FALSE(read_raw(socket).has_value());
}

TEST_F(NetLoopbackTest, MidFrameDisconnectLeavesServerServing) {
  {
    // Half a header, then vanish.
    Socket socket = connect_tcp("127.0.0.1", server_->port());
    socket.send_all("FTDN\x01");
  }
  {
    // A full header, a truncated payload, then vanish.
    Socket socket = connect_tcp("127.0.0.1", server_->port());
    std::string bytes = encode_frame(MessageType::kDiagnose,
                                     std::string(64, 'p'));
    bytes.resize(bytes.size() - 32);
    socket.send_all(bytes);
  }
  // The server shrugged both off and keeps serving everyone else.
  Client client = connect();
  service::DiagnosisRequest request;
  request.circuit = "paper";
  request.points.push_back((*points_)[1]);
  const service::DiagnosisReply reply = client.diagnose(request);
  ASSERT_EQ(reply.results.size(), 1u);
  expect_same(reply.results.front(), (*serial_)[1]);
}

TEST_F(NetLoopbackTest, StatsCountTheTraffic) {
  const ServerStats stats = server_->stats();
  EXPECT_GT(stats.connections_accepted, 0u);
  EXPECT_GT(stats.requests_received, 0u);
  EXPECT_GT(stats.replies_sent, 0u);
  const service::ServiceStats svc = service_->stats();
  EXPECT_GT(svc.completed, 0u);
  EXPECT_GE(svc.mean_batch, 1.0);
}

TEST_F(NetLoopbackTest, CounterIdentityAfterMixedPipelinedTraffic) {
  // Every diagnose frame — well-formed, unknown-circuit, or outright
  // garbage — must resolve to exactly one reply or error frame:
  //   requests_received == replies_sent + error_frames_sent
  // once the connections drain.  A dedicated server keeps the suite's
  // protocol-error tests (which send error frames that are *not*
  // diagnose requests) out of the ledger.
  service::DiagnosisService service;
  service.add_session("paper", *session_);
  ServerOptions options;
  options.port = 0;
  Server server(service, options);

  constexpr std::size_t kClients = 3;
  constexpr std::size_t kPerClient = 12;
  constexpr std::size_t kWindow = 4;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, c] {
      Client client("127.0.0.1", server.port());
      std::vector<service::DiagnosisRequest> requests;
      for (std::size_t i = 0; i < kPerClient; ++i) {
        service::DiagnosisRequest request;
        // Every third request targets a circuit the server does not
        // have, so error frames interleave with replies mid-pipeline.
        request.circuit = i % 3 == 0 ? "no_such_circuit" : "paper";
        request.points.push_back((*points_)[(c + i) % points_->size()]);
        requests.push_back(std::move(request));
      }
      std::size_t sent = 0;
      std::size_t received = 0;
      while (received < requests.size()) {
        while (sent < requests.size() && sent - received < kWindow) {
          (void)client.send(requests[sent]);
          ++sent;
        }
        try {
          (void)client.receive();
        } catch (const RemoteError&) {
          // expected for the unknown-circuit requests
        }
        ++received;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  {
    // A well-framed diagnose frame with a garbage payload: counted as
    // received, answered with an error frame.  Read the answer before
    // closing so the send cannot race the disconnect.
    Socket socket = connect_tcp("127.0.0.1", server.port());
    socket.send_all(encode_frame(MessageType::kDiagnose, "garbage"));
    const auto frame = read_raw(socket);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->first.type,
              static_cast<std::uint8_t>(MessageType::kError));
  }
  {
    // Mid-frame disconnect with nothing in flight: neither a request
    // nor an error frame, so it must not disturb the identity.
    Socket socket = connect_tcp("127.0.0.1", server.port());
    socket.send_all("FTDN\x01");
  }

  // The reader threads notice the closed sockets asynchronously; poll
  // until every connection has drained.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().connections_open > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_open, 0u);
  EXPECT_EQ(stats.requests_received, kClients * kPerClient + 1);
  EXPECT_GT(stats.replies_sent, 0u);
  EXPECT_GT(stats.error_frames_sent, 0u);
  EXPECT_EQ(stats.requests_received,
            stats.replies_sent + stats.error_frames_sent);
}

TEST(NetServer, ConnectionLimitRejectsTheOverflowPeer) {
  if (!sockets_supported()) GTEST_SKIP() << "no socket support";
  service::DiagnosisService service;
  ServerOptions options;
  options.port = 0;
  options.max_connections = 1;
  Server server(service, options);

  Client first("127.0.0.1", server.port());
  first.ping();  // fully registered with the accept loop
  Socket second = connect_tcp("127.0.0.1", server.port());
  char header_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(second.recv_exact(header_bytes, kFrameHeaderBytes));
  const FrameHeader header =
      decode_frame_header({header_bytes, kFrameHeaderBytes});
  EXPECT_EQ(header.type, static_cast<std::uint8_t>(MessageType::kError));
  EXPECT_EQ(server.stats().connections_rejected, 1u);
}

TEST(NetServer, StopUnblocksIdleConnections) {
  if (!sockets_supported()) GTEST_SKIP() << "no socket support";
  service::DiagnosisService service;
  auto server = std::make_unique<Server>(service, ServerOptions{});
  Client idle("127.0.0.1", server->port());
  idle.ping();
  server->stop();  // must join the idle connection's threads, not hang
  server.reset();
}

TEST(NetServer, OptionsValidated) {
  if (!sockets_supported()) GTEST_SKIP() << "no socket support";
  service::DiagnosisService service;
  ServerOptions zero_inflight;
  zero_inflight.max_inflight = 0;
  EXPECT_THROW(Server(service, zero_inflight), ConfigError);
}

// ------------------------------------------------------ stats export

/// Runs `round` 100 times while another thread scrapes the global
/// registry back to back, as a `kStats` frame does while objects with
/// per-instance series come and go.  Under ASan a scrape that reads a
/// destroyed object's series is a heap-use-after-free.
template <typename Round>
void scrape_while(Round round) {
  std::atomic<bool> scraping{false};
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      (void)obs::Registry::global().snapshot();
      scraping.store(true);
    }
  });
  while (!scraping.load()) std::this_thread::yield();
  for (int i = 0; i < 100; ++i) round();
  done.store(true);
  scraper.join();
}

TEST(StatsLifetime, ScrapeRacesServiceDestruction) {
  service::ServiceOptions options;
  options.workers = 1;
  scrape_while([&] {
    auto service = std::make_unique<service::DiagnosisService>(options);
    service.reset();
  });
}

TEST(StatsLifetime, ScrapeRacesStoreDestruction) {
  scrape_while([] {
    auto store = std::make_unique<service::DictionaryStore>();
    store.reset();
  });
}

TEST(StatsLifetime, ScrapeRacesServerDestruction) {
  if (!sockets_supported()) GTEST_SKIP() << "no socket support";
  service::ServiceOptions service_options;
  service_options.workers = 1;
  service::DiagnosisService service(service_options);
  ServerOptions options;
  options.port = 0;
  scrape_while([&] {
    auto server = std::make_unique<Server>(service, options);
    server.reset();
  });
}

/// `instance` label values on the series whose name starts with `prefix`.
std::set<std::string> instances(const obs::Snapshot& snapshot,
                                const std::string& prefix) {
  std::set<std::string> out;
  for (const obs::Sample& sample : snapshot.samples) {
    if (sample.name.rfind(prefix, 0) != 0) continue;
    for (const auto& [key, value] : sample.labels) {
      if (key == "instance") out.insert(value);
    }
  }
  return out;
}

/// The one `prefix` instance present in `after` but not in `before`.
std::string new_instance(const obs::Snapshot& before,
                         const obs::Snapshot& after,
                         const std::string& prefix) {
  std::set<std::string> added = instances(after, prefix);
  for (const std::string& old : instances(before, prefix)) added.erase(old);
  EXPECT_EQ(added.size(), 1u) << prefix;
  return added.empty() ? "" : *added.begin();
}

TEST(ServingStats, ExportIsPinnedAndMatchesTheStatsStructs) {
  if (!sockets_supported()) GTEST_SKIP() << "no socket support";
  const obs::Snapshot before = obs::Registry::global().snapshot();

  auto cut = circuits::make_paper_cut();
  cut.dictionary_grid = mna::FrequencyGrid::log_sweep(100.0, 10000.0, 24);
  faults::DeviationSpec spec;
  spec.step_fraction = 0.2;
  auto store = std::make_shared<service::DictionaryStore>();
  Session session = SessionBuilder(cut).deviations(spec).store(store).build();
  session.use_vector(core::TestVector{{700.0, 1600.0}});
  const auto dictionary = store->get(cut, spec);  // build, then memory hit
  (void)session.dictionary();

  service::DiagnosisService service;
  service.add_session("paper", session);
  ServerOptions options;
  options.port = 0;
  Server server(service, options);
  {
    Client client("127.0.0.1", server.port());
    Rng rng(11);
    for (int i = 0; i < 6; ++i) {
      service::DiagnosisRequest request;
      request.circuit = i == 5 ? "no_such_circuit" : "paper";
      request.points.push_back(
          core::Point{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)});
      try {
        (void)client.diagnose(request);
      } catch (const RemoteError&) {
        // the unknown circuit: an error frame
      }
    }
  }
  // Stopping joins every thread that bumps a counter, so the reads below
  // are exact; the series stay exported until destruction.
  server.stop();
  service.shutdown();

  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  const std::string net = new_instance(before, snapshot, "ftdiag_net_");
  const std::string svc = new_instance(before, snapshot, "ftdiag_service_");
  const std::string sto = new_instance(before, snapshot, "ftdiag_store_");

  // The series list: (name, kind, label keys) of every per-object family.
  const std::map<obs::Sample::Kind, std::string> kinds{
      {obs::Sample::Kind::kCounter, "counter"},
      {obs::Sample::Kind::kGauge, "gauge"},
      {obs::Sample::Kind::kHistogram, "histogram"}};
  std::set<std::string> series;
  for (const obs::Sample& sample : snapshot.samples) {
    const std::string& name = sample.name;
    if (name.rfind("ftdiag_net_", 0) != 0 &&
        name.rfind("ftdiag_service_", 0) != 0 &&
        name.rfind("ftdiag_store_", 0) != 0) {
      continue;
    }
    std::string keys;
    for (const auto& [key, value] : sample.labels) {
      keys += (keys.empty() ? "" : ",") + key;
    }
    series.insert(name + " " + kinds.at(sample.kind) + " " + keys);
  }
  const std::set<std::string> expected{
      "ftdiag_net_connections_accepted_total counter instance",
      "ftdiag_net_connections_open gauge instance",
      "ftdiag_net_connections_rejected_total counter instance",
      "ftdiag_net_disconnects_total counter instance",
      "ftdiag_net_error_frames_sent_total counter instance",
      "ftdiag_net_overloaded_sent_total counter instance",
      "ftdiag_net_protocol_errors_total counter instance",
      "ftdiag_net_replies_sent_total counter instance",
      "ftdiag_net_requests_received_total counter instance",
      "ftdiag_service_batched_requests_total counter instance",
      "ftdiag_service_batches_total counter instance",
      "ftdiag_service_completed_total counter instance",
      "ftdiag_service_deadline_expired_total counter instance",
      "ftdiag_service_failed_total counter instance",
      "ftdiag_service_largest_batch gauge instance",
      "ftdiag_service_latency_us histogram instance",
      "ftdiag_service_queue_depth gauge instance",
      "ftdiag_service_queue_full_waits_total counter instance",
      "ftdiag_service_shed_total counter instance",
      "ftdiag_service_submitted_total counter instance",
      "ftdiag_store_bytes_resident gauge instance",
      "ftdiag_store_evictions_total counter instance",
      "ftdiag_store_persisted_total counter instance",
      "ftdiag_store_quarantined_total counter instance",
      "ftdiag_store_requests_total counter instance,tier",
      "ftdiag_store_shared_waits_total counter instance",
  };
  EXPECT_EQ(series, expected);

  // Values: every exported series equals its stats() field.
  const auto value = [&](const std::string& name, const std::string& instance,
                         obs::Labels labels = {}) {
    labels.emplace_back("instance", instance);
    const obs::Sample* sample = snapshot.find(name, labels);
    EXPECT_NE(sample, nullptr) << name;
    return sample != nullptr ? sample->value : -1.0;
  };
  const ServerStats n = server.stats();
  EXPECT_EQ(n.requests_received, 6u);
  EXPECT_EQ(n.replies_sent, 5u);
  EXPECT_EQ(n.error_frames_sent, 1u);
  EXPECT_EQ(value("ftdiag_net_connections_accepted_total", net),
            n.connections_accepted);
  EXPECT_EQ(value("ftdiag_net_connections_rejected_total", net),
            n.connections_rejected);
  EXPECT_EQ(value("ftdiag_net_connections_open", net), n.connections_open);
  EXPECT_EQ(value("ftdiag_net_requests_received_total", net),
            n.requests_received);
  EXPECT_EQ(value("ftdiag_net_replies_sent_total", net), n.replies_sent);
  EXPECT_EQ(value("ftdiag_net_error_frames_sent_total", net),
            n.error_frames_sent);
  EXPECT_EQ(value("ftdiag_net_overloaded_sent_total", net),
            n.overloaded_sent);
  EXPECT_EQ(value("ftdiag_net_protocol_errors_total", net),
            n.protocol_errors);
  EXPECT_EQ(value("ftdiag_net_disconnects_total", net), n.disconnects);

  const service::ServiceStats v = service.stats();
  EXPECT_EQ(v.completed, 5u);
  EXPECT_EQ(v.failed, 1u);
  EXPECT_EQ(value("ftdiag_service_submitted_total", svc), v.submitted);
  EXPECT_EQ(value("ftdiag_service_completed_total", svc), v.completed);
  EXPECT_EQ(value("ftdiag_service_failed_total", svc), v.failed);
  EXPECT_EQ(value("ftdiag_service_batches_total", svc), v.batches);
  EXPECT_EQ(value("ftdiag_service_batched_requests_total", svc),
            v.batched_requests);
  EXPECT_EQ(value("ftdiag_service_largest_batch", svc), v.largest_batch);
  EXPECT_EQ(value("ftdiag_service_queue_full_waits_total", svc),
            v.queue_full_waits);
  EXPECT_EQ(value("ftdiag_service_shed_total", svc), v.shed);
  EXPECT_EQ(value("ftdiag_service_deadline_expired_total", svc),
            v.deadline_expired);
  EXPECT_EQ(value("ftdiag_service_queue_depth", svc), v.queue_depth);
  EXPECT_EQ(value("ftdiag_service_batched_requests_total", svc) /
                value("ftdiag_service_batches_total", svc),
            v.mean_batch);
  const obs::Sample* latency =
      snapshot.find("ftdiag_service_latency_us", {{"instance", svc}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->histogram.quantile(0.50), v.p50_latency_us);
  EXPECT_EQ(latency->histogram.quantile(0.95), v.p95_latency_us);
  EXPECT_EQ(latency->histogram.quantile(0.99), v.p99_latency_us);

  const service::StoreStats t = store->stats();
  EXPECT_EQ(t.builds, 1u);
  EXPECT_EQ(t.memory_hits, 1u);
  EXPECT_EQ(value("ftdiag_store_requests_total", sto, {{"tier", "memory"}}),
            t.memory_hits);
  EXPECT_EQ(value("ftdiag_store_requests_total", sto, {{"tier", "disk"}}),
            t.disk_hits);
  EXPECT_EQ(value("ftdiag_store_requests_total", sto, {{"tier", "build"}}),
            t.builds);
  EXPECT_EQ(
      value("ftdiag_store_requests_total", sto, {{"tier", "quarantine"}}),
      t.invalid_files);
  EXPECT_EQ(value("ftdiag_store_shared_waits_total", sto), t.shared_waits);
  EXPECT_EQ(value("ftdiag_store_evictions_total", sto), t.evictions);
  EXPECT_EQ(value("ftdiag_store_persisted_total", sto), t.persisted);
  EXPECT_EQ(value("ftdiag_store_quarantined_total", sto), t.quarantined);
  EXPECT_EQ(value("ftdiag_store_bytes_resident", sto),
            (dictionary->fault_count() + 1) *
                dictionary->frequencies().size() * 2 * sizeof(double));

  // One header per family: with two services alive, every `# TYPE` line
  // of the text exposition appears once.
  service::DiagnosisService second;
  std::istringstream text(obs::render_prometheus(obs::Registry::global()));
  std::map<std::string, int> headers;
  for (std::string line; std::getline(text, line);) {
    if (line.rfind("# TYPE ", 0) == 0) ++headers[line];
  }
  EXPECT_EQ(headers.count("# TYPE ftdiag_service_submitted_total counter"),
            1u);
  for (const auto& [line, count] : headers) EXPECT_EQ(count, 1) << line;
}

}  // namespace
}  // namespace ftdiag::net
