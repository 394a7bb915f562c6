/// The `serve` workload: the shipped `ftdiag_cli serve` on all registry
/// circuits, driven open-loop over two connections from a seeded Poisson
/// schedule at fixed offered rates, every reply checked bit-for-bit
/// against an in-process Session::diagnose of the same observation.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "circuits/registry.hpp"
#include "io/mapped_file.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/diagnosis_service.hpp"
#include "service/dictionary_store.hpp"
#include "session.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace ftdiag;

constexpr std::uint32_t kSamplesPerCircuit = 32;  // as `ftdiag_cli load`
constexpr std::size_t kConnections = 2;
constexpr double kLowRps = 5'000.0;
constexpr double kMidRps = 30'000.0;
constexpr double kSatRps = 200'000.0;
constexpr std::size_t kMaxBurst = 256;     // frames per write when late
constexpr double kLatencyLimitUs = 1000.0; // the max_rps limit on p99
constexpr std::uint64_t kSpanSampling = 64;

// Fixed phase ids: a phase's schedule depends only on (seed, id), so the
// traced run replays exactly the end-to-end run's traffic.
enum PhaseId : std::uint64_t { kWarmup = 0, kLow = 1, kMid = 2, kSat = 3, kLadder = 10 };

Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Sleep until shortly before \p due (timer slack is set to 1 ns on the
/// calling thread), then spin the final stretch: the default 50 us slack
/// alone made a plain sleep_until pacer run ~60 us late.
void pace_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(25);
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= due) return;
    if (due - now > kSpin) {
      std::this_thread::sleep_for(due - now - kSpin);
    } else {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
}

void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

// ------------------------------------------------------------- set-up

struct Serving {
  std::vector<Session> sessions;
  std::vector<std::vector<core::Point>> pools;
  TrafficTable traffic;
  std::string netlists;  ///< serve's positional: builtin:a,builtin:b,...
  std::string store_dir;
  std::vector<std::string> fdx_paths;
};

/// Fill the store directory the server will attach, and synthesize the
/// traffic exactly as `ftdiag_cli load` does: the same deterministic
/// sessions, 32 measured faulty boards per circuit.
Serving prepare(const RunContext& ctx) {
  Serving s;
  s.store_dir = ctx.work_dir + "/store";
  service::StoreOptions store_options;
  store_options.root_dir = s.store_dir;
  auto store = std::make_shared<service::DictionaryStore>(store_options);
  for (const auto& name : circuits::registry_names()) {
    const std::string source = "builtin:" + name;
    s.netlists += (s.netlists.empty() ? "" : ",") + source;
    Session session = SessionBuilder::from_source(source, NetlistAccess{})
                          .search(SearchOptions{})
                          .deviations(faults::DeviationSpec::paper())
                          .store(store)
                          .build();
    (void)session.generate_tests();
    const auto dictionary = session.dictionary();
    s.fdx_paths.push_back(store->path_for(dictionary_cache_key(
        session.cut(), session.options().deviations, session.options().sim)));
    if (dictionary->fault_count() < kSamplesPerCircuit) {
      throw Error("circuit " + name + " has fewer faults than the pool size");
    }
    std::vector<core::Point> pool;
    std::vector<std::string> frames, expected;
    for (std::size_t i = 0; i < kSamplesPerCircuit; ++i) {
      const auto& entry = dictionary->entries()[i * dictionary->fault_count() /
                                                kSamplesPerCircuit];
      const core::Point point =
          session.observe(session.measure(entry.fault, 1000 + i));
      service::DiagnosisRequest request;
      request.circuit = session.cut().name;
      request.points.push_back(point);
      frames.push_back(net::encode_frame(net::MessageType::kDiagnose,
                                         net::encode_diagnose(0, request)));
      service::DiagnosisReply reply;
      reply.results.push_back(session.diagnose(point));
      expected.push_back(net::encode_reply(0, reply).substr(8));
      pool.push_back(point);
    }
    s.traffic.circuits.push_back(session.cut().name);
    s.traffic.frames.push_back(std::move(frames));
    s.traffic.expected.push_back(std::move(expected));
    s.pools.push_back(std::move(pool));
    s.sessions.push_back(std::move(session));
  }
  return s;
}

// ------------------------------------------------------- server process

/// One `ftdiag_cli serve` child with CLI defaults.  Construction returns
/// once the server answers a ping; destruction stops it (SIGINT) and
/// waits for it to exit.
class ServerProcess {
public:
  ServerProcess(const RunContext& ctx, const Serving& serving, bool obs) {
    const std::string log_path = ctx.work_dir + "/serve.log";
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "FTDIAG_OBS=", 11) != 0) env.emplace_back(*e);
    }
    env.push_back(obs ? "FTDIAG_OBS=1" : "FTDIAG_OBS=0");
    std::vector<char*> envp;
    for (auto& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);

    for (int attempt = 0; attempt < 3; ++attempt) {
      // An ephemeral port the server can bind: its own --port 0 choice is
      // only printed to a block-buffered stdout.
      std::uint16_t port = 0;
      {
        const net::Listener probe = net::Listener::bind("127.0.0.1", 0);
        port = probe.port();
      }
      std::vector<std::string> args = {
          ctx.cli_path,   "serve",       serving.netlists,
          "--port",       std::to_string(port),
          "--store-dir",  serving.store_dir,
          "--stats-interval", "0"};
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);

      posix_spawn_file_actions_t actions;
      posix_spawn_file_actions_init(&actions);
      posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                       O_WRONLY | O_CREAT | O_APPEND, 0644);
      posix_spawn_file_actions_adddup2(&actions, 1, 2);
      const Clock::time_point start = Clock::now();
      const int rc = posix_spawn(&pid_, ctx.cli_path.c_str(), &actions,
                                 nullptr, argv.data(), envp.data());
      posix_spawn_file_actions_destroy(&actions);
      if (rc != 0) throw Error("cannot start " + ctx.cli_path);

      const Clock::time_point deadline = start + std::chrono::seconds(60);
      while (Clock::now() < deadline) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;  // exited (e.g. lost the port): try another port
          break;
        }
        try {
          net::Client client("127.0.0.1", port);
          client.ping();
          startup_s_ = elapsed_s(start);
          port_ = port;
          return;
        } catch (const Error&) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
      stop();
    }
    throw Error("ftdiag_cli serve did not come up (see " + log_path + ")");
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] double startup_s() const { return startup_s_; }

  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGINT);
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(15);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  double startup_s_ = 0.0;
};

// ------------------------------------------------------ open-loop phases

struct PhaseSpec {
  std::string name;
  std::uint64_t id = 0;
  double rate = 0.0;
  double duration_s = 0.0;
  bool saturate = false;  ///< stop sending at the end even if behind
};

struct PhaseResult {
  PhaseSpec spec;
  std::vector<double> latency_us;  ///< intended send time -> reply
  std::vector<double> late_us;     ///< generator lateness per request
  std::size_t sent = 0, replies = 0, errors = 0, mismatches = 0;
  std::size_t scheduled_in_window = 0, completed_in_window = 0;
  double window_s = 0.0;
  std::string first_mismatch;

  /// Completions per second over the window (the back three quarters).
  [[nodiscard]] double completion_rate() const {
    return window_s > 0.0 ? static_cast<double>(completed_in_window) / window_s
                          : 0.0;
  }
  /// The server fell behind the offer: fewer completions than arrivals.
  [[nodiscard]] bool backlog_grew() const {
    return static_cast<double>(completed_in_window) <
           0.95 * static_cast<double>(scheduled_in_window);
  }
};

/// The generator's two connections and the control connection (pings and
/// stats).  All stay open across phases, so no server thread's
/// context-switch count vanishes with a closed connection.
struct Harness {
  struct Connection {
    net::Socket socket;
    std::uint64_t next_id = 1;
  };
  std::vector<Connection> connections;
  net::Client control;

  explicit Harness(std::uint16_t port) : control("127.0.0.1", port) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      connections.push_back({net::connect_tcp("127.0.0.1", port), 1});
    }
  }

  std::map<std::string, double> scrape() {
    return parse_prometheus(control.stats(net::StatsFormat::kPrometheus));
  }
};

struct Lane {
  std::vector<Arrival> schedule;
  std::uint64_t base_id = 0;
  std::vector<double> latency_us, late_us;
  std::size_t sent = 0, replies = 0, errors = 0, mismatches = 0;
  std::size_t completed_in_window = 0;
  std::string first_mismatch;
  std::exception_ptr error;
};

void send_lane(Lane& lane, net::Socket& socket, const TrafficTable& traffic,
               Clock::time_point t0, Clock::time_point t_end, bool saturate) {
  tighten_timer_slack();
  const auto& schedule = lane.schedule;
  std::string buffer;
  std::size_t i = 0;
  while (i < schedule.size()) {
    if (saturate && Clock::now() >= t_end) break;
    pace_until(t0 + seconds_to_duration(schedule[i].at_s));
    const Clock::time_point now = Clock::now();
    buffer.clear();
    const std::size_t first = i;
    while (i < schedule.size() && i - first < kMaxBurst) {
      const Clock::time_point due = t0 + seconds_to_duration(schedule[i].at_s);
      if (due > now) break;
      const Arrival& a = schedule[i];
      append_frame(buffer, traffic.frames[a.circuit][a.sample], lane.base_id + i);
      lane.late_us[i] = elapsed_us(due, now);
      ++i;
    }
    socket.send_all(buffer);
  }
  lane.sent = i;
  // A ping after the last request: its pong is the end of this phase on
  // this connection (replies leave in request order).
  socket.send_all(net::encode_frame(net::MessageType::kPing, ""));
}

void receive_lane(Lane& lane, net::Socket& socket, const TrafficTable& traffic,
                  Clock::time_point t0, Clock::time_point window_lo,
                  Clock::time_point window_hi, SpanLog& spans,
                  std::uint64_t phase_span) {
  char header_bytes[net::kFrameHeaderBytes];
  std::string payload;
  std::size_t next = 0;  // replies arrive in request order
  for (;;) {
    if (!socket.recv_exact(header_bytes, sizeof header_bytes)) {
      throw net::NetError("server closed a load connection");
    }
    const net::FrameHeader header =
        net::decode_frame_header({header_bytes, sizeof header_bytes});
    payload.resize(header.payload_size);
    if (header.payload_size > 0 &&
        !socket.recv_exact(payload.data(), payload.size())) {
      throw net::NetError("server closed a load connection mid-frame");
    }
    const Clock::time_point now = Clock::now();
    if (header.type == static_cast<std::uint8_t>(net::MessageType::kPong)) break;
    if (next >= lane.schedule.size()) {
      ++lane.mismatches;
      continue;
    }
    const std::size_t index = next++;
    const Arrival& a = lane.schedule[index];
    const std::uint64_t id = lane.base_id + index;
    if (header.type != static_cast<std::uint8_t>(net::MessageType::kDiagnoseReply)) {
      ++lane.errors;
      continue;
    }
    const std::string& expected = traffic.expected[a.circuit][a.sample];
    const ReplyCheck check = verify_reply(payload, id, expected);
    if (check != ReplyCheck::kMatch) {
      if (lane.mismatches++ == 0) {
        lane.first_mismatch = check == ReplyCheck::kWrongId
                                  ? "reply out of order"
                                  : describe_mismatch(payload, expected);
      }
    }
    const Clock::time_point due = t0 + seconds_to_duration(a.at_s);
    lane.latency_us[index] = elapsed_us(due, now);
    if (now >= window_lo && now < window_hi) ++lane.completed_in_window;
    ++lane.replies;
    if (spans.enabled() && id % kSpanSampling == 0) {
      spans.record("net.request", due, now, phase_span, id);
    }
  }
}

PhaseResult run_phase(Harness& harness, const TrafficTable& traffic,
                      const PhaseSpec& spec, std::uint64_t seed,
                      SpanLog& spans, std::uint64_t parent_span) {
  const auto circuits = static_cast<std::uint32_t>(traffic.circuits.size());
  std::vector<Lane> lanes(harness.connections.size());
  for (std::size_t c = 0; c < lanes.size(); ++c) {
    Lane& lane = lanes[c];
    lane.schedule = poisson_schedule(
        derive_seed(seed, spec.id, c),
        spec.rate / static_cast<double>(lanes.size()), spec.duration_s,
        circuits, kSamplesPerCircuit);
    lane.base_id = harness.connections[c].next_id;
    lane.latency_us.assign(lane.schedule.size(),
                           std::numeric_limits<double>::quiet_NaN());
    lane.late_us.assign(lane.schedule.size(), 0.0);
  }

  ScopedSpan phase_span(spans, "serve.phase." + spec.name, parent_span);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point t_end = t0 + seconds_to_duration(spec.duration_s);
  const Clock::time_point window_lo =
      t0 + seconds_to_duration(0.25 * spec.duration_s);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < lanes.size(); ++c) {
      net::Socket& socket = harness.connections[c].socket;
      Lane& lane = lanes[c];
      threads.emplace_back([&, t0, t_end] {
        try {
          send_lane(lane, socket, traffic, t0, t_end, spec.saturate);
        } catch (...) {
          lane.error = std::current_exception();
          socket.shutdown_both();
        }
      });
      threads.emplace_back([&, t0, window_lo, t_end] {
        try {
          receive_lane(lane, socket, traffic, t0, window_lo, t_end, spans,
                       phase_span.id());
        } catch (...) {
          if (!lane.error) lane.error = std::current_exception();
          socket.shutdown_both();
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  phase_span.finish();

  PhaseResult result;
  result.spec = spec;
  result.window_s = 0.75 * spec.duration_s;
  for (std::size_t c = 0; c < lanes.size(); ++c) {
    Lane& lane = lanes[c];
    if (lane.error) std::rethrow_exception(lane.error);
    harness.connections[c].next_id += lane.schedule.size();
    result.sent += lane.sent;
    result.replies += lane.replies;
    result.errors += lane.errors;
    result.mismatches += lane.mismatches;
    if (result.first_mismatch.empty()) result.first_mismatch = lane.first_mismatch;
    result.completed_in_window += lane.completed_in_window;
    for (std::size_t i = 0; i < lane.sent; ++i) {
      result.late_us.push_back(lane.late_us[i]);
      if (!std::isnan(lane.latency_us[i])) {
        result.latency_us.push_back(lane.latency_us[i]);
      }
    }
    for (const Arrival& a : lane.schedule) {
      if (a.at_s >= 0.25 * spec.duration_s) ++result.scheduled_in_window;
    }
  }
  return result;
}

/// Account a phase's outcome: attempts, failures, and the first mismatch.
void account(Report& report, const PhaseResult& phase) {
  report.attempt(phase.sent);
  const std::size_t missing = phase.sent - std::min(phase.sent, phase.replies);
  report.fail(phase.errors, "serve " + phase.spec.name + ": " +
                                std::to_string(phase.errors) + " error frames");
  report.fail(phase.mismatches,
              "serve " + phase.spec.name + ": " +
                  std::to_string(phase.mismatches) +
                  " replies differ from Session::diagnose (" +
                  phase.first_mismatch + ")");
  report.fail(missing, "serve " + phase.spec.name + ": " +
                           std::to_string(missing) + " requests unanswered");
}

/// The counter identity every drained connection must satisfy.
void check_identity(Report& report, const std::map<std::string, double>& stats) {
  const double received = prom_value(stats, "ftdiag_net_requests_received_total");
  const double replies = prom_value(stats, "ftdiag_net_replies_sent_total");
  const double errors = prom_value(stats, "ftdiag_net_error_frames_sent_total");
  report.check(received > 0 && received == replies + errors,
               "serve: requests_received (" + json_number(received) +
                   ") != replies_sent + error_frames_sent (" +
                   json_number(replies + errors) + ")");
}

double p50_us(const PhaseResult& phase) { return median(phase.latency_us); }

double p99_us(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, 0.99);
}

void add_tail_details(Report& report, const PhaseResult& phase,
                      const std::string& prefix) {
  const Tail tail = tail_percentile(phase.latency_us);
  report.add(prefix + ".latency_us.p50", p50_us(phase), "us", "serve");
  report.add(prefix + ".latency_us.tail", tail.value, "us", "serve");
  report.add(prefix + ".latency_us.tail_q", tail.q * 100.0, "pct", "serve");
  report.add(prefix + ".latency_us.samples", static_cast<double>(tail.count),
             "count", "serve");
  report.add(prefix + ".late_us.p50", median(phase.late_us), "us", "serve");
  report.add(prefix + ".late_us.p99", p99_us(phase.late_us), "us", "serve");
}

/// Phase lengths of one block: the run's seconds split 35/35/30 over
/// low/mid/sat and then over the run's blocks.
struct PhasePlan {
  PhaseSpec warmup, low, mid, sat;
};
PhasePlan plan(double seconds, std::uint64_t block = 0) {
  const std::uint64_t shift = 100 * block;  // a fresh schedule per block
  return {{"warmup", kWarmup + shift, kMidRps, 0.3, false},
          {"low", kLow + shift, kLowRps, 0.35 * seconds, false},
          {"mid", kMid + shift, kMidRps, 0.35 * seconds, false},
          {"sat", kSat + shift, kSatRps, 0.3 * seconds, true}};
}

/// Concatenate one field of several phases.
std::vector<double> pooled(const std::vector<PhaseResult>& phases,
                           std::vector<double> PhaseResult::*field) {
  std::vector<double> out;
  for (const PhaseResult& p : phases) {
    out.insert(out.end(), (p.*field).begin(), (p.*field).end());
  }
  return out;
}

}  // namespace

void serve_e2e(RunContext& ctx) {
  Report& report = ctx.report;
  Serving serving = prepare(ctx);

  // Three blocks, each on a freshly started server: the set-up time is
  // process start until the server answers a ping (disk-tier attach plus
  // the GA search per circuit), and every number is the median over the
  // blocks, so one server's unlucky thread placement or one noisy stretch
  // of the host does not decide the run.
  constexpr int kBlocks = 3;
  std::vector<double> setups, rss, low_p50, mid_p50, sat_rate;
  std::vector<PhaseResult> lows, mids;
  for (int block = 0; block < kBlocks; ++block) {
    ServerProcess server(ctx, serving, /*obs=*/false);
    setups.push_back(server.startup_s());
    Harness harness(server.port());
    const PhasePlan phases = plan(ctx.seconds / kBlocks, block);
    std::vector<PhaseResult> results;
    for (const PhaseSpec& spec : {phases.warmup, phases.low, phases.mid, phases.sat}) {
      results.push_back(run_phase(harness, serving.traffic, spec, ctx.seed,
                                  ctx.spans, 0));
      account(report, results.back());
    }
    check_identity(report, harness.scrape());
    const PhaseResult& sat = results[3];
    report.check(sat.backlog_grew(),
                 "serve sat: the backlog did not grow, so sat measured the "
                 "generator, not the server");
    rss.push_back(peak_rss_mb(server.pid()));
    low_p50.push_back(p50_us(results[1]));
    mid_p50.push_back(p50_us(results[2]));
    sat_rate.push_back(sat.completion_rate());
    const std::string tag = '.' + std::to_string(block);
    report.add("serve.low.latency_us.p50" + tag, low_p50.back(), "us", "serve");
    report.add("serve.mid.latency_us.p50" + tag, mid_p50.back(), "us", "serve");
    report.add("serve.sat.completed_per_s" + tag, sat_rate.back(), "1/s", "serve");
    report.add("serve.sat.offered_in_window_per_s" + tag,
               static_cast<double>(sat.scheduled_in_window) / sat.window_s,
               "1/s", "serve");
    lows.push_back(std::move(results[1]));
    mids.push_back(std::move(results[2]));
  }

  report.add("setup_s", median(setups), "s", "serve");
  report.add("rss_mb", median(rss), "MB", "serve");
  report.add(kLightP50, median(low_p50) / 1e3, "ms", "serve");
  report.add(kHeavyP50, median(mid_p50) / 1e3, "ms", "serve");
  report.add(kDonePerS, median(sat_rate), "1/s", "serve");
  for (const auto& [prefix, phases] :
       {std::pair{"serve.low", &lows}, std::pair{"serve.mid", &mids}}) {
    PhaseResult all;
    all.latency_us = pooled(*phases, &PhaseResult::latency_us);
    all.late_us = pooled(*phases, &PhaseResult::late_us);
    add_tail_details(report, all, prefix);
  }
  report.note("serve.e2e_mapping",
              "p50_ms.light = p50_us.low (5k rps), p50_ms.heavy = p50_us.mid "
              "(30k rps), done_per_s = sat_rps (completions/s offered 200k "
              "rps); each the median over three server processes");
}

void serve_traced(RunContext& ctx) {
  Report& report = ctx.report;
  SpanLog& spans = ctx.spans;
  ScopedSpan root(spans, "serve", 0, 0);

  Serving serving = [&] {
    ScopedSpan span(spans, "serve.prepare", root.id());
    return prepare(ctx);
  }();

  // ---- layers timed in-process over the warm store directory
  {
    ScopedSpan span(spans, "service.store_disk", root.id());
    service::StoreOptions options;
    options.root_dir = serving.store_dir;
    options.persist = false;
    service::DictionaryStore fresh(options);
    double total_ms = 0.0;
    for (const Session& session : serving.sessions) {
      ScopedSpan get(spans, "service.DictionaryStore.get", span.id());
      (void)fresh.get(session.cut(), session.options().deviations,
                      session.options().sim);
      total_ms += get.finish();
    }
    report.check(fresh.stats().disk_hits == serving.sessions.size(),
                 "serve: the warm store did not serve every circuit from disk");
    report.add("service.store_disk_ms", total_ms, "ms", "serve",
               "setup_s");
  }
  {
    ScopedSpan span(spans, "io.fdx", root.id());
    double map_ms = 0.0, materialize_ms = 0.0;
    for (const std::string& path : serving.fdx_paths) {
      ScopedSpan map(spans, "io.DictionaryView.map", span.id());
      const auto view = io::DictionaryView::map(path);
      map_ms += map.finish();
      ScopedSpan copy(spans, "io.DictionaryView.materialize", span.id());
      const auto dictionary = view.materialize();
      materialize_ms += copy.finish();
      report.check(dictionary.fault_count() == view.fault_count(),
                   "serve: materialized dictionary lost entries");
    }
    report.add("io.attach_ms", map_ms, "ms", "serve", "setup_s, rss_mb");
    report.add("io.materialize_ms", materialize_ms, "ms", "serve",
               "setup_s, rss_mb");
  }
  {
    ScopedSpan span(spans, "core.diagnose", root.id());
    std::vector<double> ns;
    for (int rep = 0; rep < 20; ++rep) {
      for (std::size_t c = 0; c < serving.sessions.size(); ++c) {
        for (const core::Point& point : serving.pools[c]) {
          const Clock::time_point t = Clock::now();
          const core::Diagnosis d = serving.sessions[c].diagnose(point);
          ns.push_back(elapsed_us(t) * 1e3);
          if (d.ranking.empty()) report.check(false, "serve: empty diagnosis");
        }
      }
    }
    report.add("core.diagnose_ns", median(ns), "ns", "serve",
               "done_per_s, p50_ms.light");
  }
  const auto batch_us = [&](std::size_t size) {
    std::vector<double> us;
    for (int rep = 0; rep < 400; ++rep) {
      const std::size_t c = static_cast<std::size_t>(rep) % serving.sessions.size();
      std::vector<core::Point> batch;
      for (std::size_t i = 0; i < size; ++i) {
        batch.push_back(serving.pools[c][(rep + i) % kSamplesPerCircuit]);
      }
      const Clock::time_point t = Clock::now();
      (void)serving.sessions[c].diagnose_batch(batch, 0);
      us.push_back(elapsed_us(t));
    }
    return median(us);
  };
  {
    ScopedSpan span(spans, "session.diagnose_batch.b1", root.id());
    report.add("session.batch_us.b1", batch_us(1), "us", "serve",
               "done_per_s");
  }

  const double phase_s = std::max(2.0, 0.1 * ctx.seconds);

  // ---- untraced server: the baseline of the trace overhead, the p99s
  // and the max_rps ladder (serve-only numbers kept out of the
  // end-to-end set)
  double base_mid_p50 = 0.0, base_sat = 0.0;
  std::map<std::string, double> client_p50;  // traced server, by phase
  {
    ScopedSpan span(spans, "serve.untraced_server", root.id());
    ServerProcess server(ctx, serving, /*obs=*/false);
    Harness harness(server.port());
    const PhaseSpec warmup{"warmup", kWarmup, kMidRps, 0.5, false};
    const PhaseSpec low{"low", kLow, kLowRps, phase_s, false};
    const PhaseSpec mid{"mid", kMid, kMidRps, phase_s, false};
    const PhaseSpec sat{"sat", kSat, kSatRps, phase_s, true};
    account(report, run_phase(harness, serving.traffic, warmup, ctx.seed, spans, span.id()));
    const PhaseResult l = run_phase(harness, serving.traffic, low, ctx.seed, spans, span.id());
    const PhaseResult m = run_phase(harness, serving.traffic, mid, ctx.seed, spans, span.id());
    const PhaseResult s = run_phase(harness, serving.traffic, sat, ctx.seed, spans, span.id());
    for (const PhaseResult* p : {&l, &m, &s}) account(report, *p);
    base_mid_p50 = p50_us(m);
    base_sat = s.completion_rate();
    report.add("serve.p99_us.low", p99_us(l.latency_us), "us", "serve",
               "p50_ms.light (tail)");
    report.add("serve.p99_us.mid", p99_us(m.latency_us), "us", "serve",
               "p50_ms.heavy (tail)");

    // Fixed ladder: the highest rate whose p99 stays within 1 ms while
    // completions keep pace with the offer.
    double max_rps = 0.0;
    std::uint64_t rung = 0;
    for (double rate = 20'000.0; rate <= 100'000.0; rate += 10'000.0, ++rung) {
      const PhaseSpec step{"ladder", kLadder + rung, rate, 1.0, false};
      const PhaseResult r = run_phase(harness, serving.traffic, step, ctx.seed, spans, span.id());
      account(report, r);
      if (p99_us(r.latency_us) > kLatencyLimitUs || r.backlog_grew()) break;
      max_rps = rate;
    }
    report.add("serve.max_rps", max_rps, "1/s", "serve",
               "done_per_s, p50_ms.heavy");
    check_identity(report, harness.scrape());
  }

  // ---- traced server: stage means, counters and /proc deltas per phase
  {
    ScopedSpan span(spans, "serve.traced_server", root.id());
    ServerProcess server(ctx, serving, /*obs=*/true);
    Harness harness(server.port());
    {
      std::vector<double> ping_us;
      for (int i = 0; i < 200; ++i) {
        const Clock::time_point t = Clock::now();
        harness.control.ping();
        ping_us.push_back(elapsed_us(t));
      }
      report.add("net.ping_us", median(ping_us), "us", "serve",
                 "p50_ms.light (transport floor)");
    }
    std::map<std::string, double> before = harness.scrape();
    report.add("service.store_bytes_resident",
               prom_value(before, "ftdiag_store_bytes_resident"), "bytes",
               "serve", "rss_mb");
    account(report, run_phase(harness, serving.traffic,
                              {"warmup", kWarmup, kMidRps, 0.5, false},
                              ctx.seed, spans, span.id()));
    double mean_batch_mid = 1.0;
    double traced_sat = 0.0;
    const PhasePlan phases = plan(ctx.seconds);
    for (PhaseSpec spec : {phases.low, phases.mid, phases.sat}) {
      spec.duration_s = phase_s;
      before = harness.scrape();
      const ProcSample proc_before = read_proc(server.pid());
      const PhaseResult r = run_phase(harness, serving.traffic, spec, ctx.seed, spans, span.id());
      const ProcSample proc_after = read_proc(server.pid());
      const std::map<std::string, double> after = harness.scrape();
      account(report, r);
      const std::string& p = spec.name;
      const auto delta = [&](const std::string& key) {
        return prom_value(after, key) - prom_value(before, key);
      };
      const auto stage_mean = [&](const char* stage) {
        const std::string labels = std::string("{stage=\"") + stage + "\"}";
        const double count = delta("ftdiag_stage_duration_us_count" + labels);
        return count > 0 ? delta("ftdiag_stage_duration_us_sum" + labels) / count : 0.0;
      };
      const double replies = std::max<double>(1.0, static_cast<double>(r.replies));
      const double batches = delta("ftdiag_service_batches_total");
      const double mean_batch =
          batches > 0 ? delta("ftdiag_service_batched_requests_total") / batches : 0.0;
      if (p == "mid" || p == "sat") {
        report.add("net.recv_us." + p, stage_mean("net_recv"), "us", "serve",
                   "done_per_s, p50_ms.heavy");
        report.add("net.send_us." + p, stage_mean("reply_send"), "us", "serve",
                   "done_per_s, p50_ms.heavy");
        report.add("service.score_us." + p, stage_mean("score"), "us", "serve",
                   "done_per_s");
      }
      if (p == "low" || p == "mid") {
        report.add("service.coalesce_us." + p, stage_mean("batch_coalesce"),
                   "us", "serve", "p50_ms.light, p50_ms.heavy");
        report.add("service.queue_wait_us." + p, stage_mean("queue_wait"), "us",
                   "serve", "p50_ms.light, p50_ms.heavy");
        report.add("gen.late_us.p99." + p, p99_us(r.late_us), "us", "serve",
                   "run validity (not a layer)");
      }
      report.add("service.solve_us." + p, stage_mean("solve"), "us", "serve",
                 "done_per_s");
      report.add("service.mean_batch." + p, mean_batch, "count", "serve",
                 "p50_ms.light, done_per_s");
      report.add("proc.cpu_us_per_req." + p,
                 (proc_after.cpu_s - proc_before.cpu_s) * 1e6 / replies, "us",
                 "serve", "done_per_s");
      report.add("proc.ctxsw_per_req." + p,
                 static_cast<double>(proc_after.context_switches -
                                     proc_before.context_switches) / replies,
                 "count", "serve", "done_per_s, p50_ms.heavy");
      if (p == "sat") {
        report.add("service.queue_full_waits.sat",
                   delta("ftdiag_service_queue_full_waits_total"), "count",
                   "serve", "done_per_s");
        report.add("service.shed.sat", delta("ftdiag_service_shed_total"),
                   "count", "serve", "done_per_s");
        report.add("service.deadline_expired.sat",
                   delta("ftdiag_service_deadline_expired_total"), "count",
                   "serve", "done_per_s");
        traced_sat = r.completion_rate();
      }
      if (p == "mid") mean_batch_mid = std::max(1.0, mean_batch);
      if (p != "sat") {
        client_p50[p] = p50_us(r);
        report.add("serve.client_p50_us." + p, client_p50[p], "us", "serve");
      }
    }
    check_identity(report, harness.scrape());
    report.add("trace_overhead_pct",
               base_mid_p50 > 0 ? (client_p50["mid"] / base_mid_p50 - 1.0) * 100.0 : 0.0,
               "pct", "serve", "p50_ms.heavy of the traced vs the untraced server");
    report.add("trace_overhead_pct.sat_rps",
               base_sat > 0 ? (1.0 - traced_sat / base_sat) * 100.0 : 0.0, "pct",
               "serve", "done_per_s lost by the traced server");
    {
      ScopedSpan batch_span(spans, "session.diagnose_batch.bmean", root.id());
      report.add("session.batch_us.bmean",
                 batch_us(static_cast<std::size_t>(std::lround(mean_batch_mid))),
                 "us", "serve", "done_per_s");
    }
  }

  // ---- in-process service with serve's CLI defaults, same schedules
  {
    ScopedSpan span(spans, "service.in_process", root.id());
    service::ServiceOptions options;
    options.workers = 0;
    options.max_batch = 64;
    options.max_linger = std::chrono::microseconds(200);
    options.batch_threads = 0;
    const auto circuits = static_cast<std::uint32_t>(serving.traffic.circuits.size());
    for (const PhaseSpec& spec : {PhaseSpec{"low", kLow, kLowRps, phase_s, false},
                                  PhaseSpec{"mid", kMid, kMidRps, phase_s, false}}) {
      service::DiagnosisService service(options);
      for (const Session& session : serving.sessions) {
        service.add_session(session.cut().name, session);
      }
      std::vector<std::vector<Arrival>> parts;
      for (std::size_t c = 0; c < kConnections; ++c) {
        parts.push_back(poisson_schedule(
            derive_seed(ctx.seed, spec.id, c),
            spec.rate / static_cast<double>(kConnections), spec.duration_s,
            circuits, kSamplesPerCircuit));
      }
      const std::vector<Arrival> schedule = merge_schedules(parts);

      struct Pending {
        std::future<service::DiagnosisReply> reply;
        Clock::time_point submitted;
        const Arrival* arrival;
      };
      std::mutex mutex;
      std::condition_variable cv;
      std::deque<Pending> queue;
      bool done = false;
      std::vector<double> sojourn_us;
      std::size_t mismatches = 0;
      std::exception_ptr waiter_error;
      // Futures are awaited in submit order, so a request that completes
      // before an older one is stamped when the older one completes: the
      // figures are an upper bound on the service's own sojourn.
      std::thread waiter([&] {
        try {
          for (;;) {
            Pending p;
            {
              std::unique_lock<std::mutex> lock(mutex);
              cv.wait(lock, [&] { return !queue.empty() || done; });
              if (queue.empty()) return;
              p = std::move(queue.front());
              queue.pop_front();
            }
            const service::DiagnosisReply reply = p.reply.get();
            sojourn_us.push_back(elapsed_us(p.submitted));
            if (net::encode_reply(0, reply).substr(8) !=
                serving.traffic.expected[p.arrival->circuit][p.arrival->sample]) {
              ++mismatches;
            }
          }
        } catch (...) {
          waiter_error = std::current_exception();
        }
      });
      std::exception_ptr pacer_error;
      try {
        tighten_timer_slack();
        const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
        for (const Arrival& a : schedule) {
          pace_until(t0 + seconds_to_duration(a.at_s));
          service::DiagnosisRequest request;
          request.circuit = serving.traffic.circuits[a.circuit];
          request.points.push_back(serving.pools[a.circuit][a.sample]);
          Pending p;
          p.submitted = Clock::now();
          p.reply = service.submit(std::move(request));
          p.arrival = &a;
          {
            std::lock_guard<std::mutex> lock(mutex);
            queue.push_back(std::move(p));
          }
          cv.notify_one();
        }
      } catch (...) {
        pacer_error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
      }
      cv.notify_one();
      waiter.join();
      if (pacer_error) std::rethrow_exception(pacer_error);
      if (waiter_error) std::rethrow_exception(waiter_error);
      report.attempt(schedule.size());
      report.fail(mismatches, "serve in-process: replies differ from Session::diagnose");
      const std::string& p = spec.name;
      const double sojourn_p50 = median(sojourn_us);
      report.add("service.sojourn_us.p50." + p, sojourn_p50, "us", "serve",
                 p == "low" ? "p50_ms.light" : "p50_ms.heavy");
      report.add("service.sojourn_us.p99." + p, p99_us(sojourn_us), "us",
                 "serve", p == "low" ? "p50_ms.light (tail)" : "p50_ms.heavy (tail)");
      // The unaccounted remainder of the request decomposition: what the
      // wire adds on top of the in-process service.
      report.add("net.share_us.p50." + p, client_p50[p] - sojourn_p50, "us",
                 "serve", p == "low" ? "p50_ms.light" : "p50_ms.heavy");
    }
  }
}

}  // namespace perfbench
