/// Self-tests of the benchmark's own logic: the percentile rule, the
/// seeded schedule, request-id stamping, the reply verifier and the
/// stats parser.  Runs in milliseconds; exits non-zero on any failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "net/wire.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                                       \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                        \
    }                                                                      \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void percentile_rule() {
  // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
  Tail t = tail_percentile(one_to(1000));
  EXPECT(t.q == 0.99 && t.value == 990.0 && t.count == 1000);
  // 999 samples: p99 would leave 9, so p95 is the highest allowed.
  t = tail_percentile(one_to(999));
  EXPECT(t.q == 0.95 && t.value == 950.0 && t.count == 999);
  // 100000 samples: p99.99 leaves exactly 10.
  t = tail_percentile(one_to(100000));
  EXPECT(t.q == 0.9999 && t.value == 99990.0);
  // 20 samples: only the median qualifies; 19: nothing does.
  t = tail_percentile(one_to(20));
  EXPECT(t.q == 0.5 && t.value == 10.0);
  t = tail_percentile(one_to(19));
  EXPECT(t.q == 0.0 && t.count == 19);
  // Input order does not matter.
  std::vector<double> shuffled = one_to(1000);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT(tail_percentile(shuffled).value == 990.0);
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void schedule_is_seeded() {
  const auto a = poisson_schedule(42, 5000.0, 2.0, 10, 32);
  const auto b = poisson_schedule(42, 5000.0, 2.0, 10, 32);
  const auto c = poisson_schedule(43, 5000.0, 2.0, 10, 32);
  EXPECT(a.size() == b.size());
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].at_s == b[i].at_s && a[i].circuit == b[i].circuit &&
           a[i].sample == b[i].sample;
  }
  EXPECT(same);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].at_s != c[i].at_s;
  EXPECT(differs);
  // Rate and bounds: ~10000 arrivals, ascending, inside the window.
  EXPECT(std::fabs(static_cast<double>(a.size()) - 10000.0) < 500.0);
  bool ordered = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ordered = ordered && a[i].at_s < 2.0 && a[i].circuit < 10 && a[i].sample < 32 &&
              (i == 0 || a[i - 1].at_s <= a[i].at_s);
  }
  EXPECT(ordered);
  EXPECT(derive_seed(1, 2, 0) != derive_seed(1, 2, 1));
  EXPECT(derive_seed(1, 2, 0) == derive_seed(1, 2, 0));
  const auto merged = merge_schedules({a, c});
  EXPECT(merged.size() == a.size() + c.size());
  EXPECT(std::is_sorted(merged.begin(), merged.end(),
                        [](const Arrival& x, const Arrival& y) { return x.at_s < y.at_s; }));
}

ftdiag::service::DiagnosisReply sample_reply() {
  ftdiag::core::Diagnosis diagnosis;
  diagnosis.ranking.push_back({"R3", 0.125, 2, 0.5, -0.2});
  diagnosis.ranking.push_back({"C1", 0.75, 0, 0.25, 0.1});
  ftdiag::service::DiagnosisReply reply;
  reply.results.push_back(diagnosis);
  return reply;
}

void verifier_rejects_corruption() {
  const auto reply = sample_reply();
  const std::string expected = ftdiag::net::encode_reply(0, reply).substr(8);
  const std::string payload = ftdiag::net::encode_reply(7, reply);
  EXPECT(verify_reply(payload, 7, expected) == ReplyCheck::kMatch);
  EXPECT(verify_reply(payload, 8, expected) == ReplyCheck::kWrongId);
  // Flip the lowest bit of the first match's distance: a one-ulp change.
  std::string corrupted = payload;
  const std::size_t distance_at = 8 + 4 + 4 + 4 + 2;  // id, count, ranks, site
  corrupted[distance_at] = static_cast<char>(corrupted[distance_at] ^ 1);
  EXPECT(verify_reply(corrupted, 7, expected) == ReplyCheck::kMismatch);
  EXPECT(describe_mismatch(corrupted, expected).find("rank 0") != std::string::npos);
  EXPECT(verify_reply(payload.substr(0, payload.size() - 1), 7, expected) ==
         ReplyCheck::kMismatch);
  EXPECT(verify_reply(payload.substr(0, 4), 7, expected) == ReplyCheck::kWrongId);
}

void request_ids_are_stamped() {
  ftdiag::service::DiagnosisRequest request;
  request.circuit = "nf_biquad";
  request.points.push_back(ftdiag::core::Point{0.5, -0.25});
  const std::string frame = ftdiag::net::encode_frame(
      ftdiag::net::MessageType::kDiagnose, ftdiag::net::encode_diagnose(0, request));
  std::string out;
  append_frame(out, frame, 41);
  append_frame(out, frame, 0x0102030405060708ull);
  EXPECT(out.size() == 2 * frame.size());
  const std::string_view second(out.data() + frame.size(), frame.size());
  const auto header = ftdiag::net::decode_frame_header(
      second.substr(0, ftdiag::net::kFrameHeaderBytes));
  const auto decoded = ftdiag::net::decode_diagnose(
      second.substr(ftdiag::net::kFrameHeaderBytes), header.version);
  EXPECT(decoded.request_id == 0x0102030405060708ull);
  EXPECT(decoded.request.circuit == "nf_biquad");
  EXPECT(payload_request_id(std::string_view(out).substr(
             ftdiag::net::kFrameHeaderBytes)) == 41);
}

void stats_text_parses() {
  const auto stats = parse_prometheus(
      "# HELP x y\n# TYPE ftdiag_net_replies_sent_total counter\n"
      "ftdiag_net_replies_sent_total 12345\n"
      "ftdiag_stage_duration_us_sum{stage=\"solve\"} 17.5\n"
      "ftdiag_service_batches_total{instance=\"0\"} 3\n"
      "ftdiag_service_batches_total{instance=\"1\"} 4\n"
      "ftdiag_service_batches_total_other 100\n");
  EXPECT(prom_value(stats, "ftdiag_net_replies_sent_total") == 12345.0);
  EXPECT(prom_value(stats, "ftdiag_service_batches_total") == 7.0);
  EXPECT(prom_value(stats, "ftdiag_stage_duration_us_sum{stage=\"solve\"}") == 17.5);
  EXPECT(prom_value(stats, "missing") == 0.0);
}

void self_time_subtracts_children() {
  SpanLog log;
  log.set_enabled(true);
  const Clock::time_point t0 = Clock::now();
  const auto us = [&](int n) { return t0 + std::chrono::microseconds(n); };
  const std::uint64_t parent = log.record("parent", us(0), us(1000));
  log.record("child", us(100), us(400), parent);
  log.record("child", us(300), us(600), parent);  // overlaps the first
  const auto totals = log.totals();
  EXPECT(std::fabs(totals.at("parent").self_ms - 0.5) < 1e-9);
  EXPECT(totals.at("child").count == 2);
}

}  // namespace

int main() {
  percentile_rule();
  schedule_is_seeded();
  verifier_rejects_corruption();
  request_ids_are_stamped();
  stats_text_parses();
  self_time_subtracts_children();
  if (g_failures == 0) std::puts("perfbench selftest: all checks passed");
  return g_failures == 0 ? 0 : 1;
}
