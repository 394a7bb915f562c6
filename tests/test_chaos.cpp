/// Resilience-layer tests: the chaos injector itself (spec parsing,
/// deterministic sampling, delay injection), crash-safe durable writes
/// (torn-write recovery, stale tmp cleanup, quarantine + bit-identical
/// rebuild at every truncation boundary), client deadlines against a
/// stalled server, retry with backoff across sheds and dropped
/// connections, service-level overload shedding and deadline expiry, and
/// graceful drain — all driven through the same injection points the
/// `FTDIAG_CHAOS` environment variable arms in production builds.
#include "chaos/chaos.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/nf_biquad.hpp"
#include "io/binary.hpp"
#include "io/dictionary_io.hpp"
#include "io/durable_file.hpp"
#include "mna/frequency_grid.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/diagnosis_service.hpp"
#include "service/dictionary_store.hpp"
#include "session.hpp"
#include "util/error.hpp"

namespace ftdiag {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// RAII guard: every test that arms the process-wide injector disarms it
/// on the way out, even through an ASSERT failure.
struct ChaosGuard {
  explicit ChaosGuard(const std::string& spec, std::uint64_t seed = 0) {
    chaos::Injector::global().reseed(seed);
    chaos::Injector::global().configure(spec);
  }
  ~ChaosGuard() { chaos::Injector::global().clear(); }
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ------------------------------------------------------------- parsing

TEST(ChaosSpec, DurationValuesParse) {
  EXPECT_EQ(chaos::parse_injection_value("50ms").delay, 50000us);
  EXPECT_EQ(chaos::parse_injection_value("200us").delay, 200us);
  EXPECT_EQ(chaos::parse_injection_value("1.5s").delay, 1500000us);
  // A duration-valued point fires on every hit.
  EXPECT_EQ(chaos::parse_injection_value("50ms").probability, 1.0);
}

TEST(ChaosSpec, ProbabilityValuesParse) {
  EXPECT_EQ(chaos::parse_injection_value("0.25").probability, 0.25);
  EXPECT_EQ(chaos::parse_injection_value("0").probability, 0.0);
  EXPECT_EQ(chaos::parse_injection_value("1").probability, 1.0);
  EXPECT_EQ(chaos::parse_injection_value("0.25").delay, 0us);
}

TEST(ChaosSpec, MalformedValuesThrow) {
  EXPECT_THROW((void)chaos::parse_injection_value(""), ConfigError);
  EXPECT_THROW((void)chaos::parse_injection_value("abc"), ConfigError);
  EXPECT_THROW((void)chaos::parse_injection_value("50xs"), ConfigError);
  EXPECT_THROW((void)chaos::parse_injection_value("-0.5"), ConfigError);
  EXPECT_THROW((void)chaos::parse_injection_value("1.5"), ConfigError);
}

TEST(ChaosSpec, MalformedSpecKeepsPreviousTable) {
  ChaosGuard guard("a.point:1");
  EXPECT_TRUE(chaos::Injector::global().enabled());
  EXPECT_THROW(chaos::Injector::global().configure("a.point"), ConfigError);
  EXPECT_THROW(chaos::Injector::global().configure("a.point:2.0"),
               ConfigError);
  // The good table survived the bad configure attempts.
  EXPECT_TRUE(chaos::Injector::global().hit("a.point"));
}

// ------------------------------------------------------------ injector

TEST(ChaosInjector, DisabledByDefaultAndAfterClear) {
  auto& injector = chaos::Injector::global();
  injector.clear();
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.hit("net.recv_delay"));
  {
    ChaosGuard guard("net.recv_delay:0");
    EXPECT_TRUE(injector.enabled());
  }
  EXPECT_FALSE(injector.enabled());
}

TEST(ChaosInjector, CertainAndImpossiblePoints) {
  ChaosGuard guard("always.fires:1,never.fires:0");
  auto& injector = chaos::Injector::global();
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(injector.hit("always.fires"));
    EXPECT_FALSE(injector.hit("never.fires"));
    EXPECT_FALSE(injector.hit("unknown.point"));
  }
  EXPECT_EQ(injector.fired("always.fires"), 64u);
  EXPECT_EQ(injector.fired("never.fires"), 0u);
}

TEST(ChaosInjector, SamplingIsSeedDeterministic) {
  auto sample = [](std::uint64_t seed) {
    ChaosGuard guard("coin.flip:0.5", seed);
    std::vector<bool> outcomes;
    for (int i = 0; i < 256; ++i) {
      outcomes.push_back(chaos::Injector::global().hit("coin.flip"));
    }
    return outcomes;
  };
  const auto first = sample(42);
  const auto again = sample(42);
  const auto other = sample(43);
  EXPECT_EQ(first, again);
  EXPECT_NE(first, other);
  const auto fired = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), true));
  // A fair-ish coin: neither degenerate outcome.
  EXPECT_GT(fired, 64u);
  EXPECT_LT(fired, 192u);
}

TEST(ChaosInjector, DelayPointsSleep) {
  ChaosGuard guard("slow.point:20ms");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(chaos::Injector::global().hit("slow.point"));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 15ms);
}

// -------------------------------------------------------- durable file

TEST(DurableFile, WritePublishesAtomicallyAndCleansTmp) {
  const std::string dir = fresh_dir("ftdiag_durable_write");
  const std::string path = dir + "/artifact.fdx";
  io::write_file_durable(path, "payload bytes");
  EXPECT_EQ(slurp(path), "payload bytes");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // Overwrite through the same path: readers only ever see whole files.
  io::write_file_durable(path, "second generation");
  EXPECT_EQ(slurp(path), "second generation");
}

TEST(DurableFile, StaleTmpSweepRemovesOnlyDebris) {
  const std::string dir = fresh_dir("ftdiag_tmp_sweep");
  std::ofstream(dir + "/a.fdx.tmp") << "torn";
  std::ofstream(dir + "/b.tmp") << "torn";
  std::ofstream(dir + "/keep.fdx") << "real";
  EXPECT_EQ(io::remove_stale_tmp_files(dir), 2u);
  EXPECT_FALSE(fs::exists(dir + "/a.fdx.tmp"));
  EXPECT_TRUE(fs::exists(dir + "/keep.fdx"));
  EXPECT_EQ(io::remove_stale_tmp_files(dir), 0u);
  EXPECT_EQ(io::remove_stale_tmp_files(dir + "/missing"), 0u);
}

TEST(DurableFile, TornWriteChaosTruncatesTheImage) {
  const std::string dir = fresh_dir("ftdiag_torn_write");
  const std::string path = dir + "/artifact.fdx";
  const std::string bytes(4096, 'x');
  ChaosGuard guard("io.torn_write:1");
  io::write_file_durable(path, bytes);
  ASSERT_TRUE(fs::exists(path));
  const auto written = fs::file_size(path);
  EXPECT_GT(written, 0u);
  EXPECT_LT(written, bytes.size());
  EXPECT_GE(chaos::Injector::global().fired("io.torn_write"), 1u);
}

// ---------------------------------------------------- store quarantine

circuits::CircuitUnderTest small_cut() {
  auto cut = circuits::make_paper_cut();
  cut.dictionary_grid = mna::FrequencyGrid::log_sweep(100.0, 10000.0, 8);
  return cut;
}

faults::DeviationSpec coarse_spec() {
  faults::DeviationSpec spec;
  spec.step_fraction = 0.2;
  return spec;
}

/// Build once into a fresh store dir and return the clean artifact bytes
/// and path.
std::pair<std::string, std::string> build_clean_artifact(
    const std::string& dir, const circuits::CircuitUnderTest& cut) {
  service::StoreOptions options;
  options.root_dir = dir;
  service::DictionaryStore store(options);
  (void)store.get(cut, coarse_spec());
  const std::string path = store.path_for(
      dictionary_cache_key(cut, coarse_spec(), faults::SimOptions{}));
  return {path, slurp(path)};
}

TEST(StoreQuarantine, TruncationAtEveryBlockBoundaryRebuildsBitIdentical) {
  const std::string dir = fresh_dir("ftdiag_quarantine_truncate");
  const auto cut = small_cut();
  const auto [path, clean] = build_clean_artifact(dir, cut);
  ASSERT_FALSE(clean.empty());

  const io::BinaryDictionaryLayout layout =
      io::parse_binary_dictionary_layout(clean);
  // A crash can tear the image anywhere; the block boundaries are the
  // interesting seams (valid header, missing data) plus the degenerate
  // empty and bad-magic-prefix cases.
  const std::vector<std::size_t> boundaries = {
      0, 2, layout.frequencies_offset, layout.golden_offset,
      layout.responses_offset, clean.size() - 1};
  for (const std::size_t keep : boundaries) {
    ASSERT_LT(keep, clean.size());
    { std::ofstream(path, std::ios::binary) << clean.substr(0, keep); }
    fs::remove(path + ".corrupt");

    service::StoreOptions options;
    options.root_dir = dir;
    service::DictionaryStore store(options);
    const auto rebuilt = store.get(cut, coarse_spec());
    ASSERT_NE(rebuilt, nullptr) << "truncated at " << keep;

    const auto stats = store.stats();
    EXPECT_EQ(stats.invalid_files, 1u) << "truncated at " << keep;
    EXPECT_EQ(stats.quarantined, 1u) << "truncated at " << keep;
    EXPECT_EQ(stats.builds, 1u) << "truncated at " << keep;
    // The corrupt image is preserved for forensics, never trusted...
    EXPECT_TRUE(fs::exists(path + ".corrupt")) << "truncated at " << keep;
    EXPECT_EQ(slurp(path + ".corrupt"), clean.substr(0, keep));
    // ...and the rebuilt artifact is bit-identical to the clean one.
    EXPECT_EQ(slurp(path), clean) << "truncated at " << keep;
  }
}

TEST(StoreQuarantine, CorruptedChecksumQuarantinesAndRebuilds) {
  const std::string dir = fresh_dir("ftdiag_quarantine_flip");
  const auto cut = small_cut();
  const auto [path, clean] = build_clean_artifact(dir, cut);

  std::string flipped = clean;
  flipped[flipped.size() / 2] ^= 0x40;  // corrupt a data byte mid-image
  { std::ofstream(path, std::ios::binary) << flipped; }

  service::StoreOptions options;
  options.root_dir = dir;
  service::DictionaryStore store(options);
  (void)store.get(cut, coarse_spec());
  EXPECT_EQ(store.stats().quarantined, 1u);
  EXPECT_TRUE(fs::exists(path + ".corrupt"));
  EXPECT_EQ(slurp(path), clean);
}

TEST(StoreQuarantine, StartupSweepsStaleTmpFiles) {
  const std::string dir = fresh_dir("ftdiag_store_tmp_sweep");
  std::ofstream(dir + "/crashed_writer.fdx.tmp") << "half an artifact";
  service::StoreOptions options;
  options.root_dir = dir;
  service::DictionaryStore store(options);
  EXPECT_FALSE(fs::exists(dir + "/crashed_writer.fdx.tmp"));
}

TEST(StoreQuarantine, TornPersistRecoversOnTheNextOpen) {
  // `io.torn_write` publishes a truncated image under the final name —
  // the worst case: the rename survived a crash whose data did not.  A
  // fresh store must quarantine it and rebuild.
  const std::string dir = fresh_dir("ftdiag_torn_persist");
  const auto cut = small_cut();
  std::string path;
  {
    ChaosGuard guard("io.torn_write:1");
    service::StoreOptions options;
    options.root_dir = dir;
    service::DictionaryStore store(options);
    (void)store.get(cut, coarse_spec());
    path = store.path_for(
        dictionary_cache_key(cut, coarse_spec(), faults::SimOptions{}));
  }
  service::StoreOptions options;
  options.root_dir = dir;
  service::DictionaryStore store(options);
  const auto rebuilt = store.get(cut, coarse_spec());
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(store.stats().builds, 1u);
  const io::BinaryDictionaryLayout layout =
      io::parse_binary_dictionary_layout(slurp(path));
  EXPECT_EQ(layout.header.fault_count, rebuilt->fault_count());
}

// ------------------------------------------------------- wire v1 <-> v2

TEST(WireCompat, V1DiagnosePayloadStillDecodes) {
  service::DiagnosisRequest request;
  request.circuit = "paper";
  request.points.push_back(core::Point{0.125, -0.25});
  request.deadline_ms = 750;
  request.priority = 3;

  const std::string v2 = net::encode_diagnose(7, request);
  // The v2 payload carries deadline_ms (u32) + priority (u8) right after
  // the request id; a v1 peer's payload is exactly that minus the two
  // fields.
  const std::string v1 = v2.substr(0, 8) + v2.substr(13);

  const net::DecodedDiagnose decoded = net::decode_diagnose(v1, 1);
  EXPECT_EQ(decoded.request_id, 7u);
  EXPECT_EQ(decoded.request.circuit, "paper");
  EXPECT_EQ(decoded.request.deadline_ms, 0u);
  EXPECT_EQ(decoded.request.priority, 0);

  const net::DecodedDiagnose roundtrip = net::decode_diagnose(v2);
  EXPECT_EQ(roundtrip.request.deadline_ms, 750u);
  EXPECT_EQ(roundtrip.request.priority, 3);
}

TEST(WireCompat, HeaderAcceptsV1RejectsUnknownVersions) {
  auto header_with_version = [](std::uint8_t version) {
    std::string bytes;
    bytes.append("FTDN", 4);
    io::put_u8(bytes, version);
    io::put_u8(bytes, static_cast<std::uint8_t>(net::MessageType::kPing));
    io::put_u16(bytes, 0);
    io::put_u32(bytes, 0);
    return bytes;
  };
  EXPECT_EQ(net::decode_frame_header(header_with_version(1)).version, 1);
  EXPECT_EQ(net::decode_frame_header(header_with_version(2)).version, 2);
  EXPECT_THROW((void)net::decode_frame_header(header_with_version(0)),
               ParseError);
  EXPECT_THROW((void)net::decode_frame_header(header_with_version(3)),
               ParseError);
}

// --------------------------------------------------- client resilience

service::DiagnosisRequest tiny_request() {
  service::DiagnosisRequest request;
  request.circuit = "paper";
  request.points.push_back(core::Point{0.1, 0.2});
  return request;
}

/// Read one whole frame off a raw server-side socket; nullopt on EOF.
std::optional<std::pair<net::FrameHeader, std::string>> read_raw(
    net::Socket& socket) {
  char header_bytes[net::kFrameHeaderBytes];
  if (!socket.recv_exact(header_bytes, net::kFrameHeaderBytes)) {
    return std::nullopt;
  }
  const net::FrameHeader header =
      net::decode_frame_header({header_bytes, net::kFrameHeaderBytes});
  std::string payload(header.payload_size, '\0');
  if (header.payload_size > 0 &&
      !socket.recv_exact(payload.data(), payload.size())) {
    return std::nullopt;
  }
  return std::make_pair(header, std::move(payload));
}

TEST(ClientResilience, RequestTimeoutAgainstStalledServer) {
  if (!net::sockets_supported()) GTEST_SKIP() << "no socket support";
  net::Listener listener = net::Listener::bind("127.0.0.1", 0);
  std::promise<void> release;
  auto released = release.get_future().share();
  std::thread stalled([&] {
    // Accept, read the request, then go silent: the pathological peer
    // that holds the connection open without ever answering.
    net::Socket conn = listener.accept();
    if (conn.valid()) (void)read_raw(conn);
    released.wait();
  });

  net::ClientOptions options;
  options.connect_timeout = 2000ms;
  options.request_timeout = 200ms;
  net::Client client("127.0.0.1", listener.port(), options);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.diagnose(tiny_request()), net::TimeoutError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 150ms);
  EXPECT_LT(elapsed, 5s);  // bounded: the whole point of the deadline

  release.set_value();
  listener.close();
  stalled.join();
}

TEST(ClientResilience, RetriesAcrossOverloadShedsOnTheSameConnection) {
  if (!net::sockets_supported()) GTEST_SKIP() << "no socket support";
  net::Listener listener = net::Listener::bind("127.0.0.1", 0);
  std::thread shedding_server([&] {
    net::Socket conn = listener.accept();
    ASSERT_TRUE(conn.valid());
    // Shed the first two attempts politely, then answer the third — all
    // on the one connection, as a real admission-control shed would.
    for (int attempt = 0; attempt < 3; ++attempt) {
      auto frame = read_raw(conn);
      ASSERT_TRUE(frame.has_value());
      const net::DecodedDiagnose decoded =
          net::decode_diagnose(frame->second, frame->first.version);
      if (attempt < 2) {
        conn.send_all(net::encode_frame(
            net::MessageType::kOverloaded,
            net::encode_error(decoded.request_id, "queue full, retry")));
      } else {
        conn.send_all(net::encode_frame(
            net::MessageType::kDiagnoseReply,
            net::encode_reply(decoded.request_id,
                              service::DiagnosisReply{})));
      }
    }
  });

  net::ClientOptions options;
  options.request_timeout = 5000ms;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = 1ms;
  options.retry.max_backoff = 5ms;
  net::Client client("127.0.0.1", listener.port(), options);
  const service::DiagnosisReply reply = client.diagnose(tiny_request());
  EXPECT_TRUE(reply.results.empty());
  EXPECT_EQ(client.retries_used(), 2u);
  listener.close();
  shedding_server.join();
}

TEST(ClientResilience, ReconnectsAfterDroppedConnection) {
  if (!net::sockets_supported()) GTEST_SKIP() << "no socket support";
  net::Listener listener = net::Listener::bind("127.0.0.1", 0);
  std::thread flaky_server([&] {
    // First connection: slam the door mid-request.  Second connection:
    // behave.  The client must reconnect transparently.
    net::Socket first = listener.accept();
    ASSERT_TRUE(first.valid());
    (void)read_raw(first);
    first.close();
    net::Socket second = listener.accept();
    ASSERT_TRUE(second.valid());
    auto frame = read_raw(second);
    ASSERT_TRUE(frame.has_value());
    const net::DecodedDiagnose decoded =
        net::decode_diagnose(frame->second, frame->first.version);
    second.send_all(net::encode_frame(
        net::MessageType::kDiagnoseReply,
        net::encode_reply(decoded.request_id, service::DiagnosisReply{})));
  });

  net::ClientOptions options;
  options.request_timeout = 5000ms;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = 1ms;
  net::Client client("127.0.0.1", listener.port(), options);
  (void)client.diagnose(tiny_request());
  EXPECT_GE(client.retries_used(), 1u);
  listener.close();
  flaky_server.join();
}

TEST(ClientResilience, ExhaustedRetriesSurfaceTheLastError) {
  if (!net::sockets_supported()) GTEST_SKIP() << "no socket support";
  net::Listener listener = net::Listener::bind("127.0.0.1", 0);
  std::atomic<bool> stop{false};
  std::thread always_shedding([&] {
    while (!stop.load()) {
      net::Socket conn = listener.accept();
      if (!conn.valid()) return;
      while (auto frame = read_raw(conn)) {
        const net::DecodedDiagnose decoded =
            net::decode_diagnose(frame->second, frame->first.version);
        conn.send_all(net::encode_frame(
            net::MessageType::kOverloaded,
            net::encode_error(decoded.request_id, "still overloaded")));
      }
    }
  });

  net::ClientOptions options;
  options.request_timeout = 5000ms;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = 1ms;
  net::Client client("127.0.0.1", listener.port(), options);
  EXPECT_THROW((void)client.diagnose(tiny_request()), net::OverloadedError);
  EXPECT_EQ(client.retries_used(), 2u);  // attempts 2 and 3
  stop.store(true);
  client.close();  // unblocks the server's read loop
  listener.close();
  always_shedding.join();
}

TEST(ClientResilience, RetryBudgetCapsLifetimeRetries) {
  if (!net::sockets_supported()) GTEST_SKIP() << "no socket support";
  net::Listener listener = net::Listener::bind("127.0.0.1", 0);
  std::atomic<bool> stop{false};
  std::thread always_shedding([&] {
    while (!stop.load()) {
      net::Socket conn = listener.accept();
      if (!conn.valid()) return;
      while (auto frame = read_raw(conn)) {
        const net::DecodedDiagnose decoded =
            net::decode_diagnose(frame->second, frame->first.version);
        conn.send_all(net::encode_frame(
            net::MessageType::kOverloaded,
            net::encode_error(decoded.request_id, "overloaded")));
      }
    }
  });

  net::ClientOptions options;
  options.request_timeout = 5000ms;
  options.retry.max_attempts = 10;
  options.retry.initial_backoff = 1ms;
  options.retry.budget = 3;  // the lifetime cap binds before max_attempts
  net::Client client("127.0.0.1", listener.port(), options);
  EXPECT_THROW((void)client.diagnose(tiny_request()), net::OverloadedError);
  EXPECT_THROW((void)client.diagnose(tiny_request()), net::OverloadedError);
  EXPECT_EQ(client.retries_used(), 3u);
  stop.store(true);
  client.close();  // unblocks the server's read loop
  listener.close();
  always_shedding.join();
}

// -------------------------------------------------- service resilience

/// One small live session shared by the service/server-level tests.
class ServiceResilienceTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    auto cut = circuits::make_paper_cut();
    cut.dictionary_grid = mna::FrequencyGrid::log_sweep(100.0, 10000.0, 16);
    faults::DeviationSpec spec;
    spec.step_fraction = 0.2;
    session_ = new Session(SessionBuilder(cut).deviations(spec).build());
    session_->use_vector(core::TestVector{{700.0, 1600.0}});
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }

  static service::DiagnosisRequest request_with(std::uint32_t deadline_ms,
                                                std::uint8_t priority) {
    service::DiagnosisRequest request;
    request.circuit = "paper";
    request.points.push_back(core::Point{0.05, -0.05});
    request.deadline_ms = deadline_ms;
    request.priority = priority;
    return request;
  }

  static Session* session_;
};

Session* ServiceResilienceTest::session_ = nullptr;

TEST_F(ServiceResilienceTest, ShedHighWaterRejectsOnlyPriorityZero) {
  // One worker, one-request batches, and a slow solve: the first request
  // occupies the worker while the second sits in the queue, so the third
  // submit sees the high-water mark.
  ChaosGuard guard("engine.solve_delay:100ms");
  service::ServiceOptions options;
  options.workers = 1;
  options.max_batch = 1;
  options.shed_high_water = 1;
  service::DiagnosisService service(options);
  service.add_session("paper", *session_);

  auto first = service.submit(request_with(0, 0));
  // Wait until the worker has dequeued the first request (queue empty)
  // so the timeline below is deterministic.
  for (int i = 0; i < 500 && service.stats().queue_depth > 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  auto second = service.submit(request_with(0, 0));  // queued: depth 1
  EXPECT_THROW((void)service.submit(request_with(0, 0)),
               OverloadError);  // priority 0 over the mark: shed
  auto third = service.submit(request_with(0, 1));  // priority 1: admitted

  (void)first.get();
  (void)second.get();
  (void)third.get();
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST_F(ServiceResilienceTest, ExpiredDeadlineFailsBeforeTheSolve) {
  ChaosGuard guard("engine.solve_delay:100ms");
  service::ServiceOptions options;
  options.workers = 1;
  options.max_batch = 1;
  service::DiagnosisService service(options);
  service.add_session("paper", *session_);

  auto slow = service.submit(request_with(0, 0));
  for (int i = 0; i < 500 && service.stats().queue_depth > 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  // 1 ms of budget, stuck behind a 100 ms solve: must expire in the
  // queue and never reach its own solve.
  auto doomed = service.submit(request_with(1, 0));
  (void)slow.get();
  EXPECT_THROW((void)doomed.get(), DeadlineError);
  EXPECT_EQ(service.stats().deadline_expired, 1u);
}

TEST_F(ServiceResilienceTest, InjectedSolveFailureFailsTheBatchNotTheService) {
  service::DiagnosisService service;
  service.add_session("paper", *session_);
  {
    ChaosGuard guard("engine.solve_fail:1");
    EXPECT_THROW((void)service.submit(request_with(0, 0)).get(),
                 NumericError);
  }
  // Chaos off: the same service keeps serving.
  const auto reply = service.submit(request_with(0, 0)).get();
  EXPECT_EQ(reply.results.size(), 1u);
}

TEST_F(ServiceResilienceTest, FailedSolveGivesEveryRequestItsOwnError) {
  // One dispatcher stalls in a failing solve while eight requests queue;
  // they then fail together, as one batch.  Each reply is read on its own
  // thread in a server, so each must carry its own exception object.
  ChaosGuard guard("engine.solve_delay:50ms,engine.solve_fail:1");
  service::ServiceOptions options;
  options.workers = 1;
  service::DiagnosisService service(options);
  service.add_session("paper", *session_);

  auto stalled = service.submit(request_with(0, 0));
  for (int i = 0; i < 500 && service.stats().queue_depth > 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  constexpr std::size_t kQueued = 8;
  std::vector<std::future<service::DiagnosisReply>> queued;
  for (std::size_t i = 0; i < kQueued; ++i) {
    queued.push_back(service.submit(request_with(0, 0)));
  }
  EXPECT_THROW((void)stalled.get(), NumericError);
  std::vector<std::exception_ptr> errors;
  for (auto& reply : queued) {
    try {
      (void)reply.get();
      ADD_FAILURE() << "a failed solve answered a queued request";
    } catch (const NumericError&) {
      errors.push_back(std::current_exception());
    }
  }
  ASSERT_EQ(errors.size(), kQueued);
  for (std::size_t i = 0; i < kQueued; ++i) {
    for (std::size_t j = i + 1; j < kQueued; ++j) {
      EXPECT_NE(errors[i], errors[j]) << "requests " << i << " and " << j;
    }
  }
}

TEST_F(ServiceResilienceTest, ServerAnswersShedsWithOverloadedFrames) {
  if (!net::sockets_supported()) GTEST_SKIP() << "no socket support";
  ChaosGuard guard("engine.solve_delay:100ms");
  service::ServiceOptions options;
  options.workers = 1;
  options.max_batch = 1;
  options.shed_high_water = 1;
  service::DiagnosisService service(options);
  service.add_session("paper", *session_);
  net::Server server(service, {});

  // Pipeline a burst bigger than worker + queue can hold: some requests
  // come back as replies, the overflow as kOverloaded frames — and every
  // request is answered exactly once.
  constexpr std::size_t kBurst = 8;
  net::Client client("127.0.0.1", server.port());
  for (std::size_t i = 0; i < kBurst; ++i) {
    (void)client.send(request_with(0, 0));
  }
  std::size_t replies = 0;
  std::size_t sheds = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    try {
      (void)client.receive();
      ++replies;
    } catch (const net::OverloadedError&) {
      ++sheds;
    }
  }
  EXPECT_EQ(replies + sheds, kBurst);
  EXPECT_GE(sheds, 1u);  // the burst must overflow a depth-1 high water
  client.close();

  // The counter identity holds with shedding active.
  for (int i = 0; i < 500 && server.stats().connections_open > 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests_received, kBurst);
  EXPECT_EQ(stats.replies_sent + stats.error_frames_sent, kBurst);
  EXPECT_EQ(stats.overloaded_sent, sheds);
  EXPECT_EQ(stats.replies_sent, replies);
}

TEST_F(ServiceResilienceTest, PipelinedConnectionHoldsAtMostMaxInflight) {
  if (!net::sockets_supported()) GTEST_SKIP() << "no socket support";
  // One dispatcher stalled on a slow solve, and a pipelined burst behind
  // it: the connection's reader must stop submitting once max_inflight of
  // its requests sit in the service unanswered.
  ChaosGuard guard("engine.solve_delay:200ms");
  service::ServiceOptions options;
  options.workers = 1;
  service::DiagnosisService service(options);
  service.add_session("paper", *session_);
  net::ServerOptions server_options;
  server_options.max_inflight = 2;
  net::Server server(service, server_options);

  constexpr std::size_t kBurst = 8;
  net::Client client("127.0.0.1", server.port());
  for (std::size_t i = 0; i < kBurst; ++i) {
    (void)client.send(request_with(0, 0));
  }
  std::this_thread::sleep_for(50ms);
  const auto held = service.stats();
  EXPECT_GE(held.submitted, 1u);
  EXPECT_LE(held.submitted - held.completed - held.failed,
            server_options.max_inflight);

  for (std::size_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(client.receive().reply.results.size(), 1u);
  }
  client.close();
  for (int i = 0; i < 500 && server.stats().connections_open > 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests_received, kBurst);
  EXPECT_EQ(stats.replies_sent, kBurst);
  EXPECT_EQ(service.stats().completed, kBurst);
}

TEST_F(ServiceResilienceTest, DrainFlushesInFlightRepliesThenCloses) {
  if (!net::sockets_supported()) GTEST_SKIP() << "no socket support";
  ChaosGuard guard("engine.solve_delay:100ms");
  service::DiagnosisService service;
  service.add_session("paper", *session_);
  auto server = std::make_unique<net::Server>(service, net::ServerOptions{});

  net::Client client("127.0.0.1", server->port());
  (void)client.send(request_with(0, 0));
  // Let the request reach the service before draining.
  for (int i = 0; i < 500 && server->stats().requests_received == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }

  // The reply lands even though the drain started mid-solve: drain stops
  // reads, not writes.
  std::future<service::DiagnosisReply> reply =
      std::async(std::launch::async, [&] {
        return std::move(client.receive().reply);
      });
  server->drain(10s);
  EXPECT_EQ(reply.get().results.size(), 1u);

  const auto stats = server->stats();
  EXPECT_EQ(stats.requests_received, 1u);
  EXPECT_EQ(stats.replies_sent, 1u);
  server.reset();

  // The drained server closed the connection cleanly behind the reply.
  EXPECT_THROW((void)client.receive(), net::NetError);
}

TEST_F(ServiceResilienceTest, ChaosStormPreservesTheCounterIdentity) {
  if (!net::sockets_supported()) GTEST_SKIP() << "no socket support";
  // Everything at once: slow receives, random connection drops, slow and
  // failing solves.  Whatever happens, no hang, no crash, and every
  // received request is answered exactly once.
  ChaosGuard guard(
      "net.recv_delay:1ms,net.drop_conn:0.05,engine.solve_delay:2ms,"
      "engine.solve_fail:0.2",
      /*seed=*/7);
  service::ServiceOptions options;
  options.workers = 1;
  options.max_batch = 4;
  options.shed_high_water = 8;
  service::DiagnosisService service(options);
  service.add_session("paper", *session_);
  net::Server server(service, {});

  std::size_t answered = 0;
  std::size_t transport_failures = 0;
  for (int connection = 0; connection < 4; ++connection) {
    try {
      net::ClientOptions client_options;
      client_options.request_timeout = 10000ms;
      net::Client client("127.0.0.1", server.port(), client_options);
      for (int i = 0; i < 8; ++i) {
        try {
          (void)client.diagnose(request_with(0, 0));
          ++answered;
        } catch (const net::RemoteError&) {
          ++answered;  // shed or injected solve failure: still an answer
        }
      }
      client.close();
    } catch (const net::NetError&) {
      ++transport_failures;  // injected drop killed the connection
    }
  }
  EXPECT_GT(answered + transport_failures, 0u);

  server.stop();
  const auto stats = server.stats();
  // Drops may lose requests before they are *received*, but every
  // received request produced exactly one answer frame (some of which
  // the dropped peer never read — sending them still counts).
  EXPECT_LE(stats.replies_sent + stats.error_frames_sent,
            stats.requests_received);
  const auto unanswered = stats.requests_received -
                          (stats.replies_sent + stats.error_frames_sent);
  // The only unanswered requests are those whose connection dropped
  // before the writer could flush — bounded by the dropped connections.
  EXPECT_LE(unanswered, stats.disconnects);
}

}  // namespace
}  // namespace ftdiag
