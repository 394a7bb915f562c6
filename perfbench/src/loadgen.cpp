#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "net/wire.hpp"
#include "util/error.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t phase,
                          std::uint64_t stream) {
  SplitMix64 mix(seed ^ (phase * 0x100000001b3ull) ^ (stream << 48));
  mix.next();
  return mix.next();
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_hz,
                                      double duration_s,
                                      std::uint32_t circuits,
                                      std::uint32_t samples) {
  SplitMix64 rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate_hz * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate_hz;
    if (t >= duration_s) break;
    Arrival a;
    a.at_s = t;
    a.circuit = static_cast<std::uint32_t>(rng.next() % circuits);
    a.sample = static_cast<std::uint32_t>(rng.next() % samples);
    out.push_back(a);
  }
  return out;
}

std::vector<Arrival> merge_schedules(
    const std::vector<std::vector<Arrival>>& parts) {
  std::vector<Arrival> merged;
  for (const auto& part : parts) merged.insert(merged.end(), part.begin(), part.end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at_s < b.at_s; });
  return merged;
}

void append_frame(std::string& out, const std::string& frame,
                  std::uint64_t request_id) {
  const std::size_t at = out.size() + ftdiag::net::kFrameHeaderBytes;
  out += frame;
  for (int i = 0; i < 8; ++i) {
    out[at + i] = static_cast<char>((request_id >> (8 * i)) & 0xff);
  }
}

std::uint64_t payload_request_id(std::string_view payload) {
  std::uint64_t id = 0;
  if (payload.size() < 8) return id;
  for (int i = 7; i >= 0; --i) {
    id = (id << 8) | static_cast<unsigned char>(payload[i]);
  }
  return id;
}

ReplyCheck verify_reply(std::string_view payload, std::uint64_t expected_id,
                        std::string_view expected_body) {
  if (payload.size() < 8 || payload_request_id(payload) != expected_id) {
    return ReplyCheck::kWrongId;
  }
  return payload.substr(8) == expected_body ? ReplyCheck::kMatch
                                            : ReplyCheck::kMismatch;
}

std::string describe_mismatch(std::string_view payload,
                              std::string_view expected_body) {
  std::ostringstream out;
  try {
    const auto got = ftdiag::net::decode_reply(payload);
    std::string expected(8, '\0');
    expected += expected_body;
    const auto want = ftdiag::net::decode_reply(expected);
    out << "reply " << got.request_id;
    if (got.reply.results.size() != want.reply.results.size()) {
      out << ": " << got.reply.results.size() << " results, expected "
          << want.reply.results.size();
      return out.str();
    }
    for (std::size_t r = 0; r < got.reply.results.size(); ++r) {
      const auto& g = got.reply.results[r].ranking;
      const auto& w = want.reply.results[r].ranking;
      for (std::size_t k = 0; k < std::min(g.size(), w.size()); ++k) {
        if (g[k].site != w[k].site || g[k].distance != w[k].distance ||
            g[k].estimated_deviation != w[k].estimated_deviation) {
          out.precision(17);
          out << ": rank " << k << " is " << g[k].site << " at "
              << g[k].distance << ", expected " << w[k].site << " at "
              << w[k].distance;
          return out.str();
        }
      }
    }
    out << ": encodings differ";
  } catch (const ftdiag::Error& e) {
    out << "undecodable reply: " << e.what();
  }
  return out.str();
}

std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double prom_value(const std::map<std::string, double>& stats,
                  const std::string& key) {
  double sum = 0.0;
  for (auto it = stats.lower_bound(key);
       it != stats.end() && it->first.compare(0, key.size(), key) == 0; ++it) {
    if (it->first.size() == key.size() || it->first[key.size()] == '{') {
      sum += it->second;
    }
  }
  return sum;
}

}  // namespace perfbench
