#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

namespace ftdiag::obs {

namespace {

// Shortest round-trippable formatting for doubles; integers print bare.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string prom_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escape(v) + "\"";
  }
  out += "}";
  return out;
}

std::string prom_labels_with(const Labels& labels, const std::string& key,
                             const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return prom_labels(extended);
}

const char* kind_name(Sample::Kind kind) {
  switch (kind) {
    case Sample::Kind::kCounter:
      return "counter";
    case Sample::Kind::kGauge:
      return "gauge";
    case Sample::Kind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string render_prometheus(const Snapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.samples.size() * 64);
  const std::string* last_header = nullptr;
  for (const Sample& s : snapshot.samples) {
    // One HELP/TYPE header per metric family; label variants of the
    // same name arrive adjacent because the registry map is sorted.
    if (last_header == nullptr || *last_header != s.name) {
      if (!s.help.empty()) {
        out += "# HELP " + s.name + " " + s.help + "\n";
      }
      out += "# TYPE " + s.name + " ";
      out += kind_name(s.kind);
      out += "\n";
      last_header = &s.name;
    }
    if (s.kind == Sample::Kind::kHistogram) {
      const HistogramSnapshot& h = s.histogram;
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        cumulative += h.buckets[i];
        const std::string le =
            i < h.bounds.size() ? format_number(h.bounds[i]) : "+Inf";
        out += s.name + "_bucket" + prom_labels_with(s.labels, "le", le) +
               " " + std::to_string(cumulative) + "\n";
      }
      out += s.name + "_sum" + prom_labels(s.labels) + " " +
             format_number(h.sum) + "\n";
      out += s.name + "_count" + prom_labels(s.labels) + " " +
             std::to_string(h.count) + "\n";
    } else {
      out += s.name + prom_labels(s.labels) + " " + format_number(s.value) +
             "\n";
    }
  }
  return out;
}

std::string render_prometheus(const Registry& registry) {
  return render_prometheus(registry.snapshot());
}

std::string render_json(const Snapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first_sample = true;
  for (const Sample& s : snapshot.samples) {
    if (!first_sample) out += ",";
    first_sample = false;
    out += "{\"name\":\"" + escape(s.name) + "\",\"type\":\"";
    out += kind_name(s.kind);
    out += "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [k, v] : s.labels) {
      if (!first_label) out += ",";
      first_label = false;
      out += '"';
      out += escape(k);
      out += "\":\"";
      out += escape(v);
      out += '"';
    }
    out += "}";
    if (s.kind == Sample::Kind::kHistogram) {
      const HistogramSnapshot& h = s.histogram;
      out += ",\"count\":" + std::to_string(h.count);
      out += ",\"sum\":" + format_number(h.sum);
      out += ",\"p50\":" + format_number(h.quantile(0.50));
      out += ",\"p95\":" + format_number(h.quantile(0.95));
      out += ",\"p99\":" + format_number(h.quantile(0.99));
      out += ",\"buckets\":[";
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        cumulative += h.buckets[i];
        if (i != 0) out += ",";
        out += "{\"le\":";
        out += i < h.bounds.size() ? format_number(h.bounds[i]) : "\"+Inf\"";
        out += ",\"count\":" + std::to_string(cumulative) + "}";
      }
      out += "]";
    } else {
      out += ",\"value\":" + format_number(s.value);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string render_json(const Registry& registry) {
  return render_json(registry.snapshot());
}

}  // namespace ftdiag::obs
