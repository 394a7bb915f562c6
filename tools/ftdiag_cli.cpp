/// ftdiag_cli — drive the fault-trajectory flow from the command line.
///
/// Three modes:
///
/// ```
/// # one-shot flow (the original mode): build dictionary, search, report
/// ftdiag_cli <netlist.cir> --input V1 --output out --testable R1,R2,C1
///            [--fitness hybrid] [--report run.md]
/// ftdiag_cli builtin:nf_biquad --report run.md     # registry circuits
///
/// # simulate once: build the dictionary and persist it (.fdx binary)
/// ftdiag_cli build-dict builtin:state_variable --store-dir ./dicts \
///            [--out dict.fdx] [--dict-format {csv,binary,auto}]
///
/// # diagnose many times: serve a directory of measurement CSVs
/// ftdiag_cli serve-batch builtin:state_variable --measurements ./boards \
///            --store-dir ./dicts [--workers 4] [--max-batch 32]
///
/// # diagnose over the network: TCP server + client load harness
/// ftdiag_cli serve builtin:state_variable,builtin:tow_thomas --port 4850 \
///            --store-dir ./dicts [--stats-interval 10] \
///            [--shed-high-water 256] [--chaos net.recv_delay:20ms]
/// ftdiag_cli load builtin:state_variable,builtin:tow_thomas --port 4850 \
///            [--threads 4] [--requests 2000] [--pipeline 8] \
///            [--timeout 5000] [--retries 3]
///
/// # scrape a running server's metrics registry (see src/obs/README.md)
/// ftdiag_cli stats 127.0.0.1:4850 [--format {json,prom}]
/// ```
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "ftdiag.hpp"
#include "io/dictionary_io.hpp"
#include "io/exporters.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace ftdiag;

// ------------------------------------------------------- shared options

void declare_access_options(args::Parser& cli) {
  cli.option("input", "stimulus source name (netlist mode)", "V1")
      .option("output", "observed node (netlist mode)", "out")
      .option("testable",
              "comma-separated component names, or 'passives'", "passives")
      .option("band-low", "search band lower edge [Hz]", "10")
      .option("band-high", "search band upper edge [Hz]", "100k")
      .option("grid-points", "dictionary grid points", "240")
      .option("step", "deviation step [%]", "10")
      .option("range", "deviation range [+/- %]", "40");
}

NetlistAccess access_from(const args::Parser& cli) {
  NetlistAccess access;
  access.input_source = cli.get("input");
  access.output_node = cli.get("output");
  if (const std::string testable = cli.get("testable");
      !testable.empty() && testable != "passives") {
    for (const auto& name : str::split(testable, ',')) {
      access.testable.push_back(std::string(str::trim(name)));
    }
  }
  access.band_low_hz = cli.get_double("band-low");
  access.band_high_hz = cli.get_double("band-high");
  access.grid_points = cli.get_size("grid-points");
  return access;
}

faults::DeviationSpec deviations_from(const args::Parser& cli) {
  faults::DeviationSpec deviations;
  deviations.step_fraction = cli.get_double("step") / 100.0;
  deviations.min_fraction = -cli.get_double("range") / 100.0;
  deviations.max_fraction = cli.get_double("range") / 100.0;
  return deviations;
}

std::shared_ptr<service::DictionaryStore> store_from(const args::Parser& cli) {
  const std::string dir = cli.get("store-dir");
  if (dir.empty()) return nullptr;
  service::StoreOptions options;
  options.root_dir = dir;
  return std::make_shared<service::DictionaryStore>(options);
}

void print_store_stats(const service::DictionaryStore& store) {
  const auto stats = store.stats();
  std::printf("store: %zu memory hits, %zu disk hits, %zu builds, "
              "%zu persisted, %zu invalid files ignored\n",
              stats.memory_hits, stats.disk_hits, stats.builds,
              stats.persisted, stats.invalid_files);
}

// ------------------------------------------------------------ build-dict

int run_build_dict(int argc, char** argv) {
  args::Parser cli("ftdiag_cli build-dict",
                   "build the fault dictionary once and persist it");
  cli.positional("netlist",
                 "netlist file, or builtin:<name> for a registry circuit");
  declare_access_options(cli);
  cli.option("out", "also write the dictionary to this path", "")
      .option("dict-format",
              "csv | binary | auto (auto: .fdx extension = binary)", "auto")
      .option("store-dir",
              "persistent dictionary store directory (.fdx per key)", "");

  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }

  auto store = store_from(cli);
  SessionBuilder builder =
      SessionBuilder::from_source(cli.positional_value("netlist"),
                                  access_from(cli))
          .deviations(deviations_from(cli));
  if (store) builder.store(store);
  Session session = builder.build();

  const auto dictionary = session.dictionary();
  const std::string key = dictionary_cache_key(
      session.cut(), session.options().deviations, session.options().sim);
  std::printf("CUT '%s': %zu-fault dictionary ready (key %s)\n",
              session.cut().name.c_str(), dictionary->fault_count(),
              key.c_str());
  if (store) {
    std::printf("store artifact: %s\n", store->path_for(key).c_str());
    print_store_stats(*store);
  }
  if (const std::string path = cli.get("out"); !path.empty()) {
    io::save_dictionary_file(path, *dictionary,
                             io::parse_dictionary_format(cli.get("dict-format")),
                             key);
    std::printf("dictionary written to %s\n", path.c_str());
  }
  return 0;
}

// ----------------------------------------------------------- serve-batch

int run_serve_batch(int argc, char** argv) {
  args::Parser cli("ftdiag_cli serve-batch",
                   "diagnose a directory of measurement CSVs concurrently");
  cli.positional("netlist",
                 "netlist file, or builtin:<name> for a registry circuit");
  declare_access_options(cli);
  cli.option("measurements",
             "directory of measurement CSVs (freq_hz,re,im per row)", "")
      .option("store-dir",
              "persistent dictionary store directory (.fdx per key)", "")
      .option("frequencies", "test-vector size", "2")
      .option("fitness", "paper | separation | hybrid", "paper")
      .option("seed", "GA seed", "42")
      .option("workers", "service dispatcher threads (0 = auto)", "0")
      .option("max-batch", "requests coalesced per micro-batch", "64")
      .option("batch-threads", "diagnosis fan-out threads (0 = auto)", "1")
      .option("synthesize",
              "if the directory has no CSVs, emulate this many faulty-board "
              "measurements first", "0")
      .option("results", "write a results CSV to this path", "");

  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  const std::string dir = cli.get("measurements");
  if (dir.empty()) throw ConfigError("serve-batch needs --measurements <dir>");

  SearchOptions search;
  search.n_frequencies = cli.get_size("frequencies");
  search.fitness = core::parse_fitness_kind(cli.get("fitness"));
  search.seed = cli.get_size("seed");

  ServiceOptions service_options;
  service_options.workers = cli.get_size("workers");
  service_options.max_batch = cli.get_size("max-batch");
  service_options.batch_threads = cli.get_size("batch-threads");

  auto store = store_from(cli);
  SessionBuilder builder =
      SessionBuilder::from_source(cli.positional_value("netlist"),
                                  access_from(cli))
          .search(search)
          .deviations(deviations_from(cli))
          .service(service_options);
  if (store) builder.store(store);
  Session session = builder.build();

  const TestGenResult program = session.generate_tests();
  std::printf("CUT '%s': serving with %s (fitness %.4f, %zu faults)\n",
              session.cut().name.c_str(),
              program.best.vector.label().c_str(), program.best.fitness,
              program.dictionary_faults);

  // Collect the measurement files (sorted for reproducible output).
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  auto list_measurements = [&] {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".csv") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    return files;
  };
  std::vector<std::string> files = list_measurements();

  if (files.empty()) {
    const std::size_t synthesize = cli.get_size("synthesize");
    if (synthesize == 0) {
      throw ConfigError("no .csv measurements in '" + dir +
                        "' (use --synthesize N to emulate faulty boards)");
    }
    // Emulate bench measurements of random dictionary faults on the full
    // measurement grid, so serve-batch has realistic inputs.
    const auto dictionary = session.dictionary();
    Rng rng(search.seed);
    for (std::size_t i = 0; i < synthesize; ++i) {
      const auto& entry = dictionary->entries()[static_cast<std::size_t>(
          rng.uniform_int(0,
                          static_cast<std::int64_t>(
                              dictionary->fault_count() - 1)))];
      const mna::AcResponse measured = session.measure(entry.fault, i + 1);
      io::write_measurement_csv_file(
          str::format("%s/board_%04zu.csv", dir.c_str(), i), measured);
    }
    std::printf("synthesized %zu measurements into %s\n", synthesize,
                dir.c_str());
    files = list_measurements();
  }

  // Serve: one request per file, all in flight at once; the dispatchers
  // coalesce them into micro-batches.
  service::DiagnosisService service(session.options().service);
  service.add_session(session.cut().name, session);
  std::vector<std::future<service::DiagnosisReply>> replies;
  replies.reserve(files.size());
  for (const auto& file : files) {
    service::DiagnosisRequest request;
    request.circuit = session.cut().name;
    request.measured.push_back(io::load_measurement_csv_file(file));
    replies.push_back(service.submit(std::move(request)));
  }

  std::ostringstream results_csv;
  results_csv << "file,site,estimated_deviation,distance,confidence\n";
  std::printf("%-28s %-10s %10s %12s %10s\n", "file", "site", "est dev %",
              "distance", "confidence");
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string name = fs::path(files[i]).filename().string();
    try {
      const auto reply = replies[i].get();
      const core::TrajectoryMatch& best = reply.results.front().best();
      std::printf("%-28s %-10s %+10.1f %12.4e %10.2f\n", name.c_str(),
                  best.site.c_str(), best.estimated_deviation * 100.0,
                  best.distance, reply.results.front().confidence());
      results_csv << name << ',' << best.site << ','
                  << str::format("%.17g", best.estimated_deviation) << ','
                  << str::format("%.17g", best.distance) << ','
                  << str::format("%.17g", reply.results.front().confidence())
                  << '\n';
    } catch (const Error& e) {
      std::printf("%-28s FAILED: %s\n", name.c_str(), e.what());
      results_csv << name << ",ERROR,,,\n";
    }
  }

  const auto stats = service.stats();
  std::printf("\nserved %zu requests in %zu batches (largest %zu, "
              "mean %.2f), queue depth %zu, p50 %.0f us, p95 %.0f us, "
              "p99 %.0f us\n",
              stats.completed, stats.batches, stats.largest_batch,
              stats.mean_batch, stats.queue_depth, stats.p50_latency_us,
              stats.p95_latency_us, stats.p99_latency_us);
  log::info("serve-batch: done",
            {{"completed", stats.completed},
             {"failed", stats.failed},
             {"batches", stats.batches},
             {"mean_batch", stats.mean_batch},
             {"p99_us", stats.p99_latency_us}});
  if (store) print_store_stats(*store);

  if (const std::string path = cli.get("results"); !path.empty()) {
    io::write_file(path, results_csv.str());
    std::printf("results written to %s\n", path.c_str());
  }
  return 0;
}

// ------------------------------------------------------------ serve/load

std::atomic<bool> g_stop{false};
std::atomic<bool> g_drain{false};
void handle_stop_signal(int) { g_stop.store(true); }
void handle_drain_signal(int) { g_drain.store(true); }

void declare_search_options(args::Parser& cli) {
  cli.option("frequencies", "test-vector size", "2")
      .option("fitness", "paper | separation | hybrid", "paper")
      .option("seed", "GA seed", "42");
}

SearchOptions search_from(const args::Parser& cli) {
  SearchOptions search;
  search.n_frequencies = cli.get_size("frequencies");
  search.fitness = core::parse_fitness_kind(cli.get("fitness"));
  search.seed = cli.get_size("seed");
  return search;
}

/// Build one ready-to-serve session (dictionary + installed test vector)
/// per comma-separated source in the positional.  serve and load run the
/// same deterministic setup, which is what makes the load harness's
/// signature points valid traffic for the server's sessions.
std::vector<Session> build_serving_sessions(const args::Parser& cli) {
  auto store = store_from(cli);
  std::vector<Session> sessions;
  for (const auto& raw : str::split(cli.positional_value("netlists"), ',')) {
    const std::string source(str::trim(raw));
    if (source.empty()) continue;
    SessionBuilder builder =
        SessionBuilder::from_source(source, access_from(cli))
            .search(search_from(cli))
            .deviations(deviations_from(cli));
    if (store) builder.store(store);
    Session session = builder.build();
    const TestGenResult program = session.generate_tests();
    std::printf("CUT '%s': %s ready (%zu faults)\n",
                session.cut().name.c_str(),
                program.best.vector.label().c_str(),
                program.dictionary_faults);
    sessions.push_back(std::move(session));
  }
  if (sessions.empty()) throw ConfigError("no circuits to serve");
  return sessions;
}

/// Periodic serving dump: one structured log line per subsystem so the
/// stream stays grep-able (`key=value` fields, FTDIAG_LOG-controlled)
/// while `ftdiag_cli stats` serves the full registry over the wire.
void log_serving_stats(const net::Server& server,
                       const service::DiagnosisService& service) {
  const auto net_stats = server.stats();
  const auto svc = service.stats();
  log::info("net: serving",
            {{"open", net_stats.connections_open},
             {"accepted", net_stats.connections_accepted},
             {"rejected", net_stats.connections_rejected},
             {"requests", net_stats.requests_received},
             {"replies", net_stats.replies_sent},
             {"error_frames", net_stats.error_frames_sent},
             {"protocol_errors", net_stats.protocol_errors}});
  log::info("service: serving",
            {{"queue_depth", svc.queue_depth},
             {"mean_batch", svc.mean_batch},
             {"p50_us", svc.p50_latency_us},
             {"p95_us", svc.p95_latency_us},
             {"p99_us", svc.p99_latency_us}});
}

int run_serve(int argc, char** argv) {
  args::Parser cli("ftdiag_cli serve",
                   "serve diagnoses over TCP until SIGINT/SIGTERM");
  cli.positional("netlists",
                 "comma-separated netlist files or builtin:<name> entries");
  declare_access_options(cli);
  declare_search_options(cli);
  cli.option("host", "bind address (numeric IPv4)", "127.0.0.1")
      .option("port", "TCP port (0 = pick an ephemeral port)", "4850")
      .option("store-dir",
              "persistent dictionary store directory (.fdx per key)", "")
      .option("workers", "service dispatcher threads (0 = auto)", "0")
      .option("max-batch", "requests coalesced per micro-batch", "64")
      .option("batch-threads", "diagnosis fan-out threads (0 = auto)", "1")
      .option("max-connections", "concurrent client connections", "64")
      .option("max-inflight", "pipelined requests per connection", "128")
      .option("shed-high-water",
              "queue depth past which priority-0 requests are shed with a "
              "polite kOverloaded frame (0 = never shed)", "0")
      .option("chaos",
              "fault-injection spec, e.g. net.recv_delay:50ms,io.torn_write:"
              "0.1 (same syntax as FTDIAG_CHAOS)", "")
      .option("stats-interval",
              "seconds between stats lines (0 = only on shutdown)", "10");

  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  if (!net::sockets_supported()) {
    throw ConfigError("this build has no socket support");
  }
  // Serving is the one mode where lifecycle messages are the primary UI:
  // default to info unless the operator chose a level via FTDIAG_LOG.
  if (std::getenv("FTDIAG_LOG") == nullptr) {
    log::set_level(log::Level::kInfo);
  }

  if (const std::string spec = cli.get("chaos"); !spec.empty()) {
    chaos::Injector::global().configure(spec);
    log::warn("chaos: fault injection armed", {{"spec", spec}});
  }

  ServiceOptions service_options;
  service_options.workers = cli.get_size("workers");
  service_options.max_batch = cli.get_size("max-batch");
  service_options.batch_threads = cli.get_size("batch-threads");
  service_options.shed_high_water = cli.get_size("shed-high-water");

  std::vector<Session> sessions = build_serving_sessions(cli);
  service::DiagnosisService service(service_options);
  for (auto& session : sessions) {
    service.add_session(session.cut().name, session);
  }

  net::ServerOptions server_options;
  server_options.host = cli.get("host");
  server_options.port = static_cast<std::uint16_t>(cli.get_size("port"));
  server_options.max_connections = cli.get_size("max-connections");
  server_options.max_inflight = cli.get_size("max-inflight");
  net::Server server(service, server_options);
  std::printf("listening on %s:%u (%zu circuits), Ctrl-C to stop\n",
              server_options.host.c_str(), server.port(), sessions.size());

  // SIGINT stops hard; SIGTERM drains — in-flight replies are flushed
  // before the process exits, which is what lets an orchestrator roll the
  // server without failing the requests it already accepted.  A peer that
  // vanishes mid-write must surface as an EPIPE errno on that socket, not
  // kill the process.
#ifdef SIGPIPE
  std::signal(SIGPIPE, SIG_IGN);
#endif
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_drain_signal);
  const std::size_t interval = cli.get_size("stats-interval");
  auto last_print = std::chrono::steady_clock::now();
  while (!g_stop.load() && !g_drain.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (interval > 0 && std::chrono::steady_clock::now() - last_print >=
                            std::chrono::seconds(interval)) {
      log_serving_stats(server, service);
      last_print = std::chrono::steady_clock::now();
    }
  }

  if (g_drain.load()) {
    log::info("net: draining (SIGTERM)");
    server.drain();
  } else {
    log::info("net: shutting down");
    server.stop();
  }
  log_serving_stats(server, service);
  return 0;
}

int run_load(int argc, char** argv) {
  args::Parser cli("ftdiag_cli load",
                   "drive a running `serve` instance with mixed-circuit "
                   "traffic and report latency percentiles");
  cli.positional("netlists",
                 "the circuits the server was started with (traffic is "
                 "synthesized from the same deterministic sessions)");
  declare_access_options(cli);
  declare_search_options(cli);
  cli.option("host", "server address (numeric IPv4)", "127.0.0.1")
      .option("port", "server TCP port", "4850")
      .option("store-dir",
              "dictionary store directory (reuse the server's artifacts)",
              "")
      .option("threads", "client connections driven in parallel", "4")
      .option("requests", "total diagnose requests across all threads",
              "2000")
      .option("pipeline", "requests kept in flight per connection", "8")
      .option("points", "observations per request", "1")
      .option("samples", "faulty boards synthesized per circuit", "32")
      .option("timeout",
              "per-request deadline [ms], stamped on the wire and enforced "
              "on the socket (0 = wait forever)", "0")
      .option("retries",
              "retries per request on transport errors / kOverloaded sheds "
              "(forces pipeline 1)", "0")
      .option("priority", "shedding class stamped on each request", "0");

  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  if (!net::sockets_supported()) {
    throw ConfigError("this build has no socket support");
  }
  const std::string host = cli.get("host");
  const std::uint16_t port =
      static_cast<std::uint16_t>(cli.get_size("port"));
  const std::size_t n_threads = std::max<std::size_t>(1, cli.get_size("threads"));
  const std::size_t n_requests = cli.get_size("requests");
  const std::size_t points_per_request =
      std::max<std::size_t>(1, cli.get_size("points"));

  net::ClientOptions client_options;
  client_options.request_timeout =
      std::chrono::milliseconds(cli.get_size("timeout"));
  client_options.connect_timeout = client_options.request_timeout;
  client_options.priority =
      static_cast<std::uint8_t>(cli.get_size("priority"));
  client_options.retry.max_attempts = cli.get_size("retries") + 1;
  // Retries need the request/reply pairing of diagnose(); pipelined
  // traffic cannot re-associate a failed frame with its request.
  const bool use_retry_path = client_options.retry.max_attempts > 1;
  const std::size_t window =
      use_retry_path ? 1
                     : std::max<std::size_t>(1, cli.get_size("pipeline"));

  // Synthesize an observation pool per circuit: measure faulty boards with
  // deterministic seeds and map them to signature points.
  struct Traffic {
    std::string circuit;
    std::vector<core::Point> pool;
  };
  std::vector<Traffic> traffic;
  for (Session& session : build_serving_sessions(cli)) {
    Traffic t;
    t.circuit = session.cut().name;
    const auto dictionary = session.dictionary();
    const std::size_t n_samples =
        std::min(std::max<std::size_t>(1, cli.get_size("samples")),
                 dictionary->fault_count());
    for (std::size_t i = 0; i < n_samples; ++i) {
      const auto& entry =
          dictionary->entries()[i * dictionary->fault_count() / n_samples];
      t.pool.push_back(
          session.observe(session.measure(entry.fault, 1000 + i)));
    }
    traffic.push_back(std::move(t));
  }

  // Each thread owns one connection and walks the circuits round-robin
  // (staggered by thread id so concurrent requests mix circuits), keeping
  // `window` requests pipelined and timing submit -> reply per request.
  using Clock = std::chrono::steady_clock;
  struct ThreadResult {
    std::vector<double> latencies_us;
    std::size_t failures = 0;
    std::size_t retries = 0;
  };
  std::vector<ThreadResult> results(n_threads);
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t tid = 0; tid < n_threads; ++tid) {
      threads.emplace_back([&, tid] {
        ThreadResult& result = results[tid];
        const std::size_t quota =
            n_requests / n_threads + (tid < n_requests % n_threads ? 1 : 0);
        result.latencies_us.reserve(quota);
        try {
          net::Client client(host, port, client_options);
          auto make_request = [&](std::size_t index) {
            const Traffic& t = traffic[(tid + index) % traffic.size()];
            service::DiagnosisRequest request;
            request.circuit = t.circuit;
            for (std::size_t p = 0; p < points_per_request; ++p) {
              request.points.push_back(
                  t.pool[(index + p) % t.pool.size()]);
            }
            return request;
          };
          if (use_retry_path) {
            // One request at a time through the resilient path: timeouts
            // reconnect, kOverloaded sheds back off, per RetryPolicy.
            for (std::size_t i = 0; i < quota; ++i) {
              const auto sent_at = Clock::now();
              try {
                (void)client.diagnose(make_request(i));
              } catch (const net::RemoteError&) {
                ++result.failures;
              } catch (const net::NetError&) {
                ++result.failures;
              }
              result.latencies_us.push_back(
                  std::chrono::duration<double, std::micro>(Clock::now() -
                                                            sent_at)
                      .count());
            }
            result.retries = client.retries_used();
            return;
          }
          std::deque<Clock::time_point> sent_at;
          std::size_t sent = 0;
          std::size_t received = 0;
          while (received < quota) {
            while (sent < quota && sent - received < window) {
              sent_at.push_back(Clock::now());
              (void)client.send(make_request(sent));
              ++sent;
            }
            try {
              (void)client.receive();
            } catch (const net::RemoteError&) {
              ++result.failures;
            }
            const auto elapsed = Clock::now() - sent_at.front();
            sent_at.pop_front();
            result.latencies_us.push_back(
                std::chrono::duration<double, std::micro>(elapsed).count());
            ++received;
          }
        } catch (const Error& e) {
          log::error("load: thread failed",
                     {{"thread", tid}, {"error", e.what()}});
          result.failures += quota - result.latencies_us.size();
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> latencies;
  std::size_t failures = 0;
  std::size_t retries = 0;
  for (const auto& result : results) {
    latencies.insert(latencies.end(), result.latencies_us.begin(),
                     result.latencies_us.end());
    failures += result.failures;
    retries += result.retries;
  }
  if (latencies.empty()) throw Error("load run produced no replies");
  std::sort(latencies.begin(), latencies.end());
  auto percentile = [&](double fraction) {
    const std::size_t index = static_cast<std::size_t>(
        fraction * static_cast<double>(latencies.size() - 1));
    return latencies[index];
  };

  const std::size_t diagnoses = latencies.size() * points_per_request;
  std::printf("load: %zu requests (%zu diagnoses) over %zu connections "
              "in %.2f s, pipeline %zu\n",
              latencies.size(), diagnoses, n_threads, seconds, window);
  std::printf("throughput: %.0f diagnoses/sec\n",
              static_cast<double>(diagnoses) / seconds);
  std::printf("latency: p50 %.0f us, p95 %.0f us, p99 %.0f us, max %.0f us\n",
              percentile(0.50), percentile(0.95), percentile(0.99),
              latencies.back());
  if (failures > 0) std::printf("failures: %zu\n", failures);
  if (retries > 0) std::printf("retries: %zu\n", retries);
  return 0;
}

// ----------------------------------------------------------------- stats

/// Scrape a running `serve` instance's metrics registry over the wire
/// (kStats frame) and print the rendered snapshot to stdout.
int run_stats(int argc, char** argv) {
  args::Parser cli("ftdiag_cli stats",
                   "fetch a running server's metrics snapshot");
  cli.positional("endpoint", "server address as host:port (numeric IPv4)");
  cli.option("format", "json | prom (Prometheus text exposition)", "json");

  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  if (!net::sockets_supported()) {
    throw ConfigError("this build has no socket support");
  }

  const std::string endpoint = cli.positional_value("endpoint");
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    throw ConfigError("stats needs an endpoint like 127.0.0.1:4850");
  }
  const std::string host = endpoint.substr(0, colon);
  const std::uint16_t port = static_cast<std::uint16_t>(
      std::strtoul(endpoint.c_str() + colon + 1, nullptr, 10));

  const std::string format = cli.get("format");
  net::StatsFormat wire_format;
  if (format == "json") {
    wire_format = net::StatsFormat::kJson;
  } else if (format == "prom" || format == "prometheus") {
    wire_format = net::StatsFormat::kPrometheus;
  } else {
    throw ConfigError("unknown stats format '" + format +
                      "' (expected json or prom)");
  }

  net::Client client(host, port);
  const std::string body = client.stats(wire_format);
  std::fputs(body.c_str(), stdout);
  if (!body.empty() && body.back() != '\n') std::fputc('\n', stdout);
  return 0;
}

// ---------------------------------------------------------- legacy flow

Session open_session(const args::Parser& cli) {
  SearchOptions search;
  search.n_frequencies = cli.get_size("frequencies");
  search.fitness = core::parse_fitness_kind(cli.get("fitness"));
  search.seed = cli.get_size("seed");

  return SessionBuilder::from_source(cli.positional_value("netlist"),
                                     access_from(cli))
      .search(search)
      .deviations(deviations_from(cli))
      .build();
}

int run(const args::Parser& cli) {
  Session session = open_session(cli);
  std::printf("CUT '%s': %zu-fault dictionary built.\n",
              session.cut().name.c_str(), session.dictionary()->fault_count());

  const TestGenResult result = session.generate_tests();
  io::print_atpg_report(std::cout, result);

  if (const std::string path = cli.get("report"); !path.empty()) {
    io::RunReportOptions options;
    options.include_trajectories = cli.has("verbose");
    io::write_file(path, io::render_run_report(session, result, options));
    std::printf("\nmarkdown report written to %s\n", path.c_str());
  }
  if (const std::string path = cli.get("export-trajectories");
      !path.empty()) {
    std::ofstream csv(path, std::ios::binary);
    if (!csv) throw Error("cannot open '" + path + "'");
    io::write_trajectories_csv(
        csv, session.evaluator().trajectories(result.best.vector));
    std::printf("trajectories written to %s\n", path.c_str());
  }
  if (const std::string path = cli.get("save-dictionary"); !path.empty()) {
    io::save_dictionary_file(
        path, *session.dictionary(),
        io::parse_dictionary_format(cli.get("dict-format")),
        dictionary_cache_key(session.cut(), session.options().deviations,
                             session.options().sim));
    std::printf("fault dictionary written to %s\n", path.c_str());
  }
  return 0;
}

int run_legacy(int argc, char** argv) {
  args::Parser cli("ftdiag_cli",
                   "fault-trajectory test generation and diagnosis "
                   "(Savioli et al., DATE'05); subcommands: build-dict, "
                   "serve-batch, serve, load, stats");
  cli.positional("netlist",
                 "netlist file, or builtin:<name> for a registry circuit");
  declare_access_options(cli);
  cli.option("frequencies", "test-vector size", "2")
      .option("fitness", "paper | separation | hybrid", "paper")
      .option("seed", "GA seed", "42")
      .option("report", "write a markdown run report to this path", "")
      .option("export-trajectories", "write trajectory CSV to this path", "")
      .option("save-dictionary",
              "write the full fault dictionary to this path", "")
      .option("dict-format",
              "csv | binary | auto (auto: .fdx extension = binary)", "auto")
      .flag("verbose", "include per-point trajectories in the report");

  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  return run(cli);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  try {
    if (mode == "build-dict") return run_build_dict(argc - 1, argv + 1);
    if (mode == "serve-batch") return run_serve_batch(argc - 1, argv + 1);
    if (mode == "serve") return run_serve(argc - 1, argv + 1);
    if (mode == "load") return run_load(argc - 1, argv + 1);
    if (mode == "stats") return run_stats(argc - 1, argv + 1);
    return run_legacy(argc, argv);
  } catch (const ftdiag::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
