/// Service-layer tests: the persistent dictionary store (cold build /
/// warm load / corruption rejection / LRU eviction / build sharing) and
/// the concurrent diagnosis service (batched results bit-identical to
/// serial Session::diagnose for any producer count, worker count and
/// batching configuration).
#include "service/diagnosis_service.hpp"
#include "service/dictionary_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>

#include "chaos/chaos.hpp"
#include "circuits/nf_biquad.hpp"
#include "io/binary.hpp"
#include "io/dictionary_io.hpp"
#include "mna/frequency_grid.hpp"
#include "obs/metrics.hpp"
#include "session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ftdiag::service {
namespace {

namespace fs = std::filesystem;

/// The paper CUT on a tiny grid so store builds stay milliseconds.
circuits::CircuitUnderTest small_cut(std::size_t grid_points = 4) {
  auto cut = circuits::make_paper_cut();
  cut.dictionary_grid =
      mna::FrequencyGrid::log_sweep(100.0, 10000.0, grid_points);
  return cut;
}

faults::DeviationSpec coarse_spec(double step = 0.2) {
  faults::DeviationSpec spec;
  spec.step_fraction = step;
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

void expect_bit_identical(const faults::FaultDictionary& a,
                          const faults::FaultDictionary& b) {
  ASSERT_EQ(a.fault_count(), b.fault_count());
  EXPECT_EQ(a.frequencies(), b.frequencies());
  EXPECT_EQ(a.golden().values(), b.golden().values());
  EXPECT_EQ(a.site_labels(), b.site_labels());
  for (std::size_t i = 0; i < a.fault_count(); ++i) {
    EXPECT_EQ(a.entries()[i].fault, b.entries()[i].fault);
    EXPECT_EQ(a.entries()[i].response.values(),
              b.entries()[i].response.values());
  }
}

// --------------------------------------------------------------- store

TEST(StoreOptions, Validated) {
  StoreOptions zero_capacity;
  zero_capacity.capacity = 0;
  EXPECT_THROW(DictionaryStore{zero_capacity}, ConfigError);

  StoreOptions zero_shards;
  zero_shards.shards = 0;
  EXPECT_THROW(DictionaryStore{zero_shards}, ConfigError);
}

TEST(DictionaryStore, ColdBuildPersistsThenWarmLoads) {
  const std::string dir = fresh_dir("ftdiag_store_cold_warm");
  const auto cut = small_cut();

  StoreOptions options;
  options.root_dir = dir;
  DictionaryStore cold(options);
  const auto built = cold.get(cut, coarse_spec());
  ASSERT_TRUE(built);
  EXPECT_EQ(cold.stats().builds, 1u);
  EXPECT_EQ(cold.stats().persisted, 1u);
  const std::string key =
      dictionary_cache_key(cut, coarse_spec(), faults::SimOptions{});
  EXPECT_TRUE(fs::exists(cold.path_for(key)));

  // Same store again: the memory tier answers, same pointer.
  const auto again = cold.get(cut, coarse_spec());
  EXPECT_EQ(again.get(), built.get());
  EXPECT_EQ(cold.stats().memory_hits, 1u);

  // A new store (≈ a new process) warm-loads from disk, bit-identically.
  DictionaryStore warm(options);
  const auto loaded = warm.get(cut, coarse_spec());
  EXPECT_EQ(warm.stats().disk_hits, 1u);
  EXPECT_EQ(warm.stats().builds, 0u);
  expect_bit_identical(*built, *loaded);
}

TEST(DictionaryStore, CorruptArtifactsAreRebuiltNotTrusted) {
  const std::string dir = fresh_dir("ftdiag_store_corrupt");
  const auto cut = small_cut();
  StoreOptions options;
  options.root_dir = dir;
  const std::string key =
      dictionary_cache_key(cut, coarse_spec(), faults::SimOptions{});

  {
    DictionaryStore store(options);
    (void)store.get(cut, coarse_spec());
  }
  const std::string path = dir + "/" + key + ".fdx";
  ASSERT_TRUE(fs::exists(path));

  auto corrupt_with = [&](auto mutate) {
    std::string bytes = io::read_file_bytes(path);
    mutate(bytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Bad magic.
  corrupt_with([](std::string& bytes) { bytes[0] = 'X'; });
  {
    DictionaryStore store(options);
    (void)store.get(cut, coarse_spec());
    EXPECT_EQ(store.stats().invalid_files, 1u);
    EXPECT_EQ(store.stats().builds, 1u);      // rebuilt from scratch...
    EXPECT_EQ(store.stats().persisted, 1u);   // ...and re-persisted
  }

  // Flipped payload byte: a block checksum must catch it.
  corrupt_with([](std::string& bytes) { bytes[bytes.size() / 2] ^= 0x01; });
  {
    DictionaryStore store(options);
    (void)store.get(cut, coarse_spec());
    EXPECT_EQ(store.stats().invalid_files, 1u);
    EXPECT_EQ(store.stats().builds, 1u);
  }

  // Truncated file.
  corrupt_with([](std::string& bytes) { bytes.resize(bytes.size() / 3); });
  {
    DictionaryStore store(options);
    (void)store.get(cut, coarse_spec());
    EXPECT_EQ(store.stats().invalid_files, 1u);
    EXPECT_EQ(store.stats().builds, 1u);
  }

  // A valid file written under a different key is a mismatch, not food.
  {
    const auto dict = io::load_dictionary_file(path);  // fresh valid artifact
    io::save_dictionary_file(path, dict, io::DictionaryFormat::kBinary,
                             "someone#else");
    DictionaryStore store(options);
    (void)store.get(cut, coarse_spec());
    EXPECT_EQ(store.stats().invalid_files, 1u);
    EXPECT_EQ(store.stats().builds, 1u);
  }
}

TEST(DictionaryStore, ResealedDescendingGridIsQuarantinedAndRebuilt) {
  const std::string dir = fresh_dir("ftdiag_store_bad_grid");
  const auto cut = small_cut();
  StoreOptions options;
  options.root_dir = dir;
  const std::string key =
      dictionary_cache_key(cut, coarse_spec(), faults::SimOptions{});
  std::shared_ptr<const faults::FaultDictionary> built;
  {
    DictionaryStore store(options);
    built = store.get(cut, coarse_spec());
  }
  const std::string path = dir + "/" + key + ".fdx";
  const std::string good = io::read_file_bytes(path);

  // Swap the first two frequencies and re-seal the block: every checksum
  // passes, only the grid check can refuse the file.
  const io::BinaryDictionaryLayout layout =
      io::parse_binary_dictionary_layout(good);
  const std::size_t at = layout.frequencies_offset;
  const std::size_t size = 8 * layout.header.frequency_count;
  std::string bad = good;
  std::swap_ranges(bad.begin() + at, bad.begin() + at + 8,
                   bad.begin() + at + 8);
  std::string checksum;
  io::put_u64(checksum, io::fnv1a(std::string_view(bad).substr(at, size)));
  bad.replace(at + size, 8, checksum);
  ASSERT_NO_THROW((void)io::parse_binary_dictionary_layout(bad));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;

  DictionaryStore store(options);
  const auto rebuilt = store.get(cut, coarse_spec());
  EXPECT_EQ(store.stats().invalid_files, 1u);
  EXPECT_EQ(store.stats().quarantined, 1u);
  EXPECT_EQ(store.stats().builds, 1u);
  EXPECT_EQ(io::read_file_bytes(path + ".corrupt"), bad);
  expect_bit_identical(*built, *rebuilt);
  EXPECT_EQ(io::read_file_bytes(path), good);
}

TEST(DictionaryStore, NetlistPathKeysFlattenToSafeFilenames) {
  // Netlist-based CUTs carry a file *path* as their name; the artifact
  // must still land directly under root_dir and warm-load by exact key.
  const std::string dir = fresh_dir("ftdiag_store_pathkey");
  auto cut = small_cut();
  cut.name = "boards/rev2/filter.cir";

  StoreOptions options;
  options.root_dir = dir;
  {
    DictionaryStore store(options);
    (void)store.get(cut, coarse_spec());
    EXPECT_EQ(store.stats().persisted, 1u);
    const std::string path = store.path_for(
        dictionary_cache_key(cut, coarse_spec(), faults::SimOptions{}));
    EXPECT_TRUE(fs::exists(path));
    EXPECT_EQ(fs::path(path).parent_path().string(), dir);
  }
  DictionaryStore warm(options);
  (void)warm.get(cut, coarse_spec());
  EXPECT_EQ(warm.stats().disk_hits, 1u);
  EXPECT_EQ(warm.stats().builds, 0u);
}

TEST(DictionaryStore, LruEvictionIsDeterministic) {
  // One shard, capacity two, no disk: the store is a pure LRU cache and
  // its eviction order is exactly observable through the build counter.
  StoreOptions options;
  options.capacity = 2;
  options.shards = 1;
  DictionaryStore store(options);

  const auto cut = small_cut();
  const auto spec_a = coarse_spec(0.2);
  const auto spec_b = coarse_spec(0.25);
  const auto spec_c = coarse_spec(0.4);

  (void)store.get(cut, spec_a);  // build 1: {A}
  (void)store.get(cut, spec_b);  // build 2: {A, B}
  EXPECT_EQ(store.cached_count(), 2u);
  EXPECT_EQ(store.stats().evictions, 0u);

  (void)store.get(cut, spec_a);  // touch A: B is now least recent
  (void)store.get(cut, spec_c);  // build 3: evicts B -> {A, C}
  EXPECT_EQ(store.cached_count(), 2u);
  EXPECT_EQ(store.stats().evictions, 1u);

  (void)store.get(cut, spec_a);  // still resident
  (void)store.get(cut, spec_c);  // still resident
  EXPECT_EQ(store.stats().builds, 3u);

  (void)store.get(cut, spec_b);  // evicted above: must rebuild
  EXPECT_EQ(store.stats().builds, 4u);
  EXPECT_EQ(store.stats().evictions, 2u);  // A or C made room (A: LRU)

  store.clear();
  EXPECT_EQ(store.cached_count(), 0u);
}

TEST(DictionaryStore, ResidentBytesLeaveWithTheStore) {
  // Summed over every store's series, the exported gauge is the bytes the
  // live stores hold: a destroyed store takes its share with it.
  const auto exported = [] {
    double total = 0.0;
    for (const obs::Sample& s : obs::Registry::global().snapshot().samples) {
      if (s.name == "ftdiag_store_bytes_resident") total += s.value;
    }
    return total;
  };
  const auto cut = small_cut();
  ASSERT_EQ(exported(), 0.0);
  {
    DictionaryStore first;
    const auto dictionary = first.get(cut, coarse_spec());
    const double bytes = static_cast<double>(
        (dictionary->fault_count() + 1) * dictionary->frequencies().size() *
        2 * sizeof(double));
    EXPECT_EQ(exported(), bytes);
    {
      DictionaryStore second;
      (void)second.get(cut, coarse_spec());
      EXPECT_EQ(exported(), 2.0 * bytes);
      second.clear();
      EXPECT_EQ(exported(), bytes);
      (void)second.get(cut, coarse_spec());
      EXPECT_EQ(exported(), 2.0 * bytes);
    }
    EXPECT_EQ(exported(), bytes);
  }
  EXPECT_EQ(exported(), 0.0);
}

TEST(DictionaryStore, ConcurrentGetsShareOneBuild) {
  StoreOptions options;
  DictionaryStore store(options);
  const auto cut = small_cut();

  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const faults::FaultDictionary>> results(
      kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = store.get(cut, coarse_spec()); });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(store.stats().builds, 1u);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].get(), results[0].get());
  }
}

TEST(Session, ResolvesDictionaryThroughTheStore) {
  const std::string dir = fresh_dir("ftdiag_store_session");
  StoreOptions store_options;
  store_options.root_dir = dir;
  auto store = std::make_shared<DictionaryStore>(store_options);

  Session session = SessionBuilder(small_cut()).store(store).build();
  const auto dictionary = session.dictionary();
  EXPECT_EQ(store->stats().builds, 1u);
  EXPECT_EQ(store->stats().persisted, 1u);

  // A second session over the same store shares the artifact in memory.
  Session sibling = SessionBuilder(small_cut()).store(store).build();
  EXPECT_EQ(sibling.dictionary().get(), dictionary.get());
  EXPECT_EQ(store->stats().memory_hits, 1u);
}

// ------------------------------------------------------------- service

/// Shared session with an installed test program; every service test
/// compares against plain serial Session::diagnose on the same handle.
class DiagnosisServiceTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    session_ = new Session(SessionBuilder(small_cut(24))
                               .deviations(coarse_spec())
                               .build());
    session_->use_vector(core::TestVector{{700.0, 1600.0}});

    // Observations: signature points scattered around the trajectory
    // cloud, deterministic across runs.
    Rng rng(7);
    points_ = new std::vector<core::Point>;
    for (std::size_t i = 0; i < 96; ++i) {
      points_->push_back(
          core::Point{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)});
    }
    serial_ = new std::vector<core::Diagnosis>;
    for (const auto& point : *points_) {
      serial_->push_back(session_->diagnose(point));
    }
  }
  static void TearDownTestSuite() {
    delete serial_;
    delete points_;
    delete session_;
    serial_ = nullptr;
    points_ = nullptr;
    session_ = nullptr;
  }

  static void expect_same(const core::Diagnosis& a, const core::Diagnosis& b) {
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

  /// Submit every point as its own request from \p producers threads and
  /// require every reply to be bit-identical to the serial result.
  static void run_stress(ServiceOptions options, std::size_t producers) {
    DiagnosisService service(options);
    service.add_session("paper", *session_);

    const std::size_t n = points_->size();
    std::vector<std::future<DiagnosisReply>> futures(n);
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (std::size_t i = p; i < n; i += producers) {
          DiagnosisRequest request;
          request.circuit = "paper";
          request.points.push_back((*points_)[i]);
          futures[i] = service.submit(std::move(request));
        }
      });
    }
    for (auto& thread : threads) thread.join();

    for (std::size_t i = 0; i < n; ++i) {
      const DiagnosisReply reply = futures[i].get();
      ASSERT_EQ(reply.results.size(), 1u);
      expect_same(reply.results.front(), (*serial_)[i]);
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, n);
    EXPECT_EQ(stats.completed, n);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.batched_requests, n);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_LE(stats.largest_batch, options.max_batch);
    // Latency percentiles are interpolated from one histogram over 1-2-5
    // microsecond decades, so they are monotone: 0 < p50 <= p95 <= p99.
    EXPECT_GT(stats.p50_latency_us, 0.0);
    EXPECT_GE(stats.p95_latency_us, stats.p50_latency_us);
    EXPECT_GE(stats.p99_latency_us, stats.p95_latency_us);
  }

  static Session* session_;
  static std::vector<core::Point>* points_;
  static std::vector<core::Diagnosis>* serial_;
};

Session* DiagnosisServiceTest::session_ = nullptr;
std::vector<core::Point>* DiagnosisServiceTest::points_ = nullptr;
std::vector<core::Diagnosis>* DiagnosisServiceTest::serial_ = nullptr;

TEST_F(DiagnosisServiceTest, OptionsValidated) {
  ServiceOptions zero_queue;
  zero_queue.queue_capacity = 0;
  EXPECT_THROW(DiagnosisService{zero_queue}, ConfigError);

  ServiceOptions zero_batch;
  zero_batch.max_batch = 0;
  EXPECT_THROW(DiagnosisService{zero_batch}, ConfigError);

  // The same validation runs behind SessionBuilder::service.
  EXPECT_THROW(SessionBuilder(small_cut()).service(zero_batch).build(),
               ConfigError);
}

TEST_F(DiagnosisServiceTest, BatchedIdenticalToSerialAcrossConfigs) {
  // No coalescing at all, big batches, tiny batches with many
  // dispatchers, big batches with parallel point fan-out: every
  // configuration must produce the serial bits.
  ServiceOptions no_batching;
  no_batching.workers = 1;
  no_batching.max_batch = 1;
  run_stress(no_batching, 1);

  ServiceOptions big_batches;
  big_batches.workers = 2;
  big_batches.max_batch = 64;
  run_stress(big_batches, 4);

  ServiceOptions tiny_batches;
  tiny_batches.workers = 4;
  tiny_batches.max_batch = 3;
  run_stress(tiny_batches, 8);

  ServiceOptions parallel_fanout;
  parallel_fanout.workers = 2;
  parallel_fanout.max_batch = 32;
  parallel_fanout.batch_threads = 4;
  run_stress(parallel_fanout, 8);
}

TEST_F(DiagnosisServiceTest, BacklogBehindABusyDispatcherFormsOneBatch) {
  // Dispatch never waits for stragglers, so a batch larger than one forms
  // only from the backlog queued while every dispatcher is busy.  Stall
  // the only dispatcher on its first request and queue the rest behind it.
  struct ChaosGuard {
    ChaosGuard() {
      chaos::Injector::global().configure("engine.solve_delay:50ms");
    }
    ~ChaosGuard() { chaos::Injector::global().clear(); }
  } guard;
  ServiceOptions options;
  options.workers = 1;
  DiagnosisService service(options);
  service.add_session("paper", *session_);

  constexpr std::size_t kRequests = 16;
  std::vector<std::future<DiagnosisReply>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    DiagnosisRequest request;
    request.circuit = "paper";
    request.points.push_back((*points_)[i]);
    futures.push_back(service.submit(std::move(request)));
    if (i == 0) {
      // Let the dispatcher take the first request into its stalled solve.
      for (int spin = 0; spin < 1000 && service.stats().queue_depth > 0;
           ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    const DiagnosisReply reply = futures[i].get();
    ASSERT_EQ(reply.results.size(), 1u);
    expect_same(reply.results.front(), (*serial_)[i]);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.batched_requests, kRequests);
  EXPECT_GT(stats.largest_batch, 1u);
}

TEST_F(DiagnosisServiceTest, BackpressureQueueStillCorrect) {
  ServiceOptions options;
  options.queue_capacity = 4;  // far fewer slots than requests
  options.workers = 2;
  options.max_batch = 4;
  run_stress(options, 8);
}

TEST_F(DiagnosisServiceTest, MeasuredResponsesMatchObserveThenDiagnose) {
  DiagnosisService service;
  service.add_session("paper", *session_);

  const auto& entry = session_->dictionary()->entries().front();
  const mna::AcResponse measured = session_->measure(entry.fault, 3);

  DiagnosisRequest request;
  request.circuit = "paper";
  request.points.push_back((*points_)[0]);
  request.measured.push_back(measured);
  const DiagnosisReply reply = service.diagnose(std::move(request));

  ASSERT_EQ(reply.results.size(), 2u);
  expect_same(reply.results[0], (*serial_)[0]);
  expect_same(reply.results[1],
              session_->diagnose(session_->observe(measured)));
}

TEST_F(DiagnosisServiceTest, LoneSessionServesTheEmptyCircuitKey) {
  DiagnosisService service;
  service.add_session("paper", *session_);
  DiagnosisRequest request;
  request.points.push_back((*points_)[0]);
  expect_same(service.diagnose(std::move(request)).results.front(),
              (*serial_)[0]);
}

TEST_F(DiagnosisServiceTest, UnknownCircuitFailsTheFuture) {
  DiagnosisService service;
  service.add_session("paper", *session_);
  DiagnosisRequest request;
  request.circuit = "not_registered";
  request.points.push_back((*points_)[0]);
  auto future = service.submit(std::move(request));
  EXPECT_THROW((void)future.get(), ConfigError);
}

TEST_F(DiagnosisServiceTest, SessionWithoutVectorFailsTheFuture) {
  DiagnosisService service;
  service.add_session("bare", SessionBuilder(small_cut(24))
                                  .deviations(coarse_spec())
                                  .build());
  DiagnosisRequest request;
  request.circuit = "bare";
  request.points.push_back((*points_)[0]);
  auto future = service.submit(std::move(request));
  EXPECT_THROW((void)future.get(), ConfigError);
}

TEST_F(DiagnosisServiceTest, EmptyRequestRejectedAtSubmit) {
  DiagnosisService service;
  service.add_session("paper", *session_);
  EXPECT_THROW((void)service.submit({}), ConfigError);
}

TEST_F(DiagnosisServiceTest, ShutdownDrainsThenRefuses) {
  DiagnosisService service;
  service.add_session("paper", *session_);

  std::vector<std::future<DiagnosisReply>> futures;
  for (std::size_t i = 0; i < 16; ++i) {
    DiagnosisRequest request;
    request.circuit = "paper";
    request.points.push_back((*points_)[i]);
    futures.push_back(service.submit(std::move(request)));
  }
  service.shutdown();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_same(futures[i].get().results.front(), (*serial_)[i]);
  }
  DiagnosisRequest late;
  late.circuit = "paper";
  late.points.push_back((*points_)[0]);
  EXPECT_THROW((void)service.submit(std::move(late)), ConfigError);
  service.shutdown();  // idempotent
}

TEST_F(DiagnosisServiceTest, ParallelDiagnoseBatchMatchesSerial) {
  // The service's inner fan-out, exercised directly on the facade.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto batched = session_->diagnose_batch(*points_, threads);
    ASSERT_EQ(batched.size(), serial_->size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
      expect_same(batched[i], (*serial_)[i]);
    }
  }
}

}  // namespace
}  // namespace ftdiag::service
