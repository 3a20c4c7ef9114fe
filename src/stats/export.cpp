#include "stats/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace hydranet::stats {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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
  out += '"';
}

namespace {

std::string format_double(double v) {
  // Shortest representation that parses back to exactly `v`, so an
  // exported gauge or histogram sum loses no precision.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double parsed = std::strtod(buf, nullptr);
  if (parsed == v) {
    for (int precision = 1; precision < 17; ++precision) {
      char shorter[40];
      std::snprintf(shorter, sizeof shorter, "%.*g", precision, v);
      if (std::strtod(shorter, nullptr) == v) return shorter;
    }
  }
  return buf;
}

void append_histogram_json(std::string& out, const Histogram& h) {
  out += "{\"buckets\":[";
  for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"le\":";
    if (i < h.bounds().size()) {
      out += format_double(h.bounds()[i]);
    } else {
      out += "\"inf\"";
    }
    out += ",\"count\":" + std::to_string(h.bucket_counts()[i]) + '}';
  }
  out += "],\"count\":" + std::to_string(h.count());
  out += ",\"sum\":" + format_double(h.sum());
  out += ",\"min\":" + format_double(h.min());
  out += ",\"max\":" + format_double(h.max());
  out += '}';
}

/// RFC-4180 field encoding: a value containing a comma, quote, CR, or LF
/// is wrapped in double quotes with embedded quotes doubled; anything
/// else passes through bare (keeps the common case grep-able).
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string to_json(const Registry& registry) {
  std::string out = "{\n  \"nodes\": {";
  bool first_node = true;
  for (const auto& [node, metrics] : registry.nodes()) {
    if (!first_node) out += ',';
    first_node = false;
    out += "\n    ";
    append_escaped(out, node);
    out += ": {";

    out += "\n      \"counters\": {";
    bool first = true;
    for (const auto& [name, counter] : metrics.counters) {
      if (!first) out += ',';
      first = false;
      out += "\n        ";
      append_escaped(out, name);
      out += ": " + std::to_string(counter.value());
    }
    out += first ? "}," : "\n      },";

    out += "\n      \"gauges\": {";
    first = true;
    for (const auto& [name, gauge] : metrics.gauges) {
      if (!first) out += ',';
      first = false;
      out += "\n        ";
      append_escaped(out, name);
      out += ": " + format_double(gauge.value());
    }
    out += first ? "}," : "\n      },";

    out += "\n      \"histograms\": {";
    first = true;
    for (const auto& [name, histogram] : metrics.histograms) {
      if (!first) out += ',';
      first = false;
      out += "\n        ";
      append_escaped(out, name);
      out += ": ";
      append_histogram_json(out, histogram);
    }
    out += first ? "}" : "\n      }";

    out += "\n    }";
  }
  out += first_node ? "},\n" : "\n  },\n";

  out += "  \"events\": [";
  bool first = true;
  for (const Event& e : registry.timeline().events()) {
    if (!first) out += ',';
    first = false;
    out += "\n    {\"t\": " + format_double(e.at.seconds()) + ", \"node\": ";
    append_escaped(out, e.node);
    out += ", \"kind\": ";
    append_escaped(out, e.kind);
    out += ", \"detail\": ";
    append_escaped(out, e.detail);
    out += '}';
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string to_csv(const Registry& registry) {
  std::string out = "record,node,name,value\n";
  char line[256];
  for (const auto& [node, metrics] : registry.nodes()) {
    for (const auto& [name, counter] : metrics.counters) {
      std::snprintf(line, sizeof line, "counter,%s,%s,%" PRIu64 "\n",
                    node.c_str(), name.c_str(), counter.value());
      out += line;
    }
    for (const auto& [name, gauge] : metrics.gauges) {
      out += "gauge," + node + ',' + name + ',' +
             format_double(gauge.value()) + '\n';
    }
    for (const auto& [name, histogram] : metrics.histograms) {
      for (std::size_t i = 0; i < histogram.bucket_counts().size(); ++i) {
        out += "hbucket," + node + ',' + name + ',';
        out += i < histogram.bounds().size()
                   ? format_double(histogram.bounds()[i])
                   : std::string("inf");
        out += ',' + std::to_string(histogram.bucket_counts()[i]) + '\n';
      }
      out += "hsummary," + node + ',' + name + ',' +
             std::to_string(histogram.count()) + ',' +
             format_double(histogram.sum()) + ',' +
             format_double(histogram.min()) + ',' +
             format_double(histogram.max()) + '\n';
    }
  }
  for (const Event& e : registry.timeline().events()) {
    // Event details are free text (connection keys, service endpoints,
    // messages) and may contain commas or newlines; quote per RFC 4180.
    out += "event," + format_double(e.at.seconds()) + ',' +
           csv_field(e.node) + ',' + csv_field(e.kind) + ',' +
           csv_field(e.detail) + '\n';
  }
  return out;
}

Status write_file(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return Status::success();
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Errc::not_found;
  std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return written == text.size() ? Status::success()
                                : Status(Errc::message_too_big);
}

}  // namespace hydranet::stats
