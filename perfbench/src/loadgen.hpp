/// \file loadgen.hpp
/// \brief The pieces of the open-loop `serve` generator that need no
/// server: the seeded Poisson schedule, the traffic table (pre-encoded
/// diagnose frames plus the bit-exact reply each must get), the reply
/// verifier and a parser for the server's Prometheus stats text.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's own generator, so schedules never depend
/// on library or standard-library random-number implementations.
class SplitMix64 {
public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  std::uint64_t state_;
};

/// Independent stream seed for (run seed, phase, stream).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t phase,
                                        std::uint64_t stream);

/// One scheduled request: intended send time (seconds after the phase
/// start) and which observation it carries.
struct Arrival {
  double at_s = 0.0;
  std::uint32_t circuit = 0;
  std::uint32_t sample = 0;
};

/// Poisson arrivals at \p rate_hz over [0, duration_s), with the circuit
/// and the sample drawn uniformly.  Same seed, same schedule.
[[nodiscard]] std::vector<Arrival> poisson_schedule(
    std::uint64_t seed, double rate_hz, double duration_s,
    std::uint32_t circuits, std::uint32_t samples);

/// Merge several schedules into one, ordered by time.
[[nodiscard]] std::vector<Arrival> merge_schedules(
    const std::vector<std::vector<Arrival>>& parts);

/// The traffic the generator sends: per (circuit, sample) one encoded
/// kDiagnose frame with request id 0, and the reply payload (without its
/// leading request id) an in-process Session::diagnose gives.
struct TrafficTable {
  std::vector<std::string> circuits;
  std::vector<std::vector<std::string>> frames;
  std::vector<std::vector<std::string>> expected;
};

/// Append \p frame to \p out with \p request_id stamped into its payload.
void append_frame(std::string& out, const std::string& frame,
                  std::uint64_t request_id);

/// Request id of a reply or error payload (its first 8 bytes, LE).
[[nodiscard]] std::uint64_t payload_request_id(std::string_view payload);

enum class ReplyCheck { kMatch, kWrongId, kMismatch };

/// A reply is correct when it answers \p expected_id and its body is
/// byte-identical to the in-process result.
[[nodiscard]] ReplyCheck verify_reply(std::string_view payload,
                                      std::uint64_t expected_id,
                                      std::string_view expected_body);

/// A readable account of how a reply differs from the expected body
/// (decodes both through net::decode_reply).
[[nodiscard]] std::string describe_mismatch(std::string_view payload,
                                            std::string_view expected_body);

/// `name{labels} value` lines of a Prometheus exposition, keyed by
/// everything before the value.  Comment lines are skipped.
[[nodiscard]] std::map<std::string, double> parse_prometheus(
    const std::string& text);

/// Value of \p key in a parsed exposition summed over every label set
/// (`name` matches `name{instance="0"}` too), 0 when absent.
[[nodiscard]] double prom_value(const std::map<std::string, double>& stats,
                                const std::string& key);

}  // namespace perfbench
