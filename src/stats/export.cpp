#include "stats/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

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
  // Shortest representation that round-trips (CSV import must reproduce
  // gauges and histogram sums exactly).
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

/// Splits one CSV record on commas, honouring RFC-4180 quoting.  For
/// unquoted input the last field keeps embedded commas (the historical
/// lenient behaviour, so old exports still import).
std::vector<std::string> split_fields(const std::string& line,
                                      std::size_t max_fields) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (true) {
    std::string field;
    if (pos < line.size() && line[pos] == '"') {
      ++pos;  // opening quote
      while (pos < line.size()) {
        if (line[pos] == '"') {
          if (pos + 1 < line.size() && line[pos + 1] == '"') {
            field += '"';  // "" = escaped quote
            pos += 2;
          } else {
            ++pos;  // closing quote
            break;
          }
        } else {
          field += line[pos++];
        }
      }
    } else if (fields.size() + 1 == max_fields) {
      field = line.substr(pos);
      pos = line.size();
    } else {
      std::size_t comma = line.find(',', pos);
      if (comma == std::string::npos) comma = line.size();
      field = line.substr(pos, comma - pos);
      pos = comma;
    }
    fields.push_back(std::move(field));
    if (pos >= line.size()) break;
    ++pos;  // separator comma
  }
  return fields;
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

Result<Registry> from_csv(const std::string& csv) {
  Registry registry;
  // Partially-built histograms: bounds/buckets accumulate from hbucket
  // rows, the hsummary row seals them.
  struct PendingHistogram {
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
  };
  std::map<std::pair<std::string, std::string>, PendingHistogram> pending;

  std::size_t pos = 0;
  while (pos < csv.size()) {
    // Record boundary: the first newline *outside* quotes (quoted event
    // details may span lines).
    std::size_t eol = pos;
    bool in_quotes = false;
    while (eol < csv.size() && (in_quotes || csv[eol] != '\n')) {
      if (csv[eol] == '"') in_quotes = !in_quotes;
      ++eol;
    }
    std::string line = csv.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line.rfind("record,", 0) == 0) continue;

    if (line.rfind("counter,", 0) == 0) {
      auto f = split_fields(line, 4);
      if (f.size() != 4) return Errc::invalid_argument;
      registry.set_counter(f[1], f[2],
                           std::strtoull(f[3].c_str(), nullptr, 10));
    } else if (line.rfind("gauge,", 0) == 0) {
      auto f = split_fields(line, 4);
      if (f.size() != 4) return Errc::invalid_argument;
      registry.set_gauge(f[1], f[2], std::strtod(f[3].c_str(), nullptr));
    } else if (line.rfind("hbucket,", 0) == 0) {
      auto f = split_fields(line, 5);
      if (f.size() != 5) return Errc::invalid_argument;
      PendingHistogram& h = pending[{f[1], f[2]}];
      if (f[3] != "inf") h.bounds.push_back(std::strtod(f[3].c_str(), nullptr));
      h.buckets.push_back(std::strtoull(f[4].c_str(), nullptr, 10));
    } else if (line.rfind("hsummary,", 0) == 0) {
      auto f = split_fields(line, 7);
      if (f.size() != 7) return Errc::invalid_argument;
      PendingHistogram h = pending[{f[1], f[2]}];
      registry.set_histogram(
          f[1], f[2],
          Histogram::from_parts(std::move(h.bounds), std::move(h.buckets),
                                std::strtoull(f[3].c_str(), nullptr, 10),
                                std::strtod(f[4].c_str(), nullptr),
                                std::strtod(f[5].c_str(), nullptr),
                                std::strtod(f[6].c_str(), nullptr)));
      pending.erase({f[1], f[2]});
    } else if (line.rfind("event,", 0) == 0) {
      auto f = split_fields(line, 5);
      if (f.size() != 5) return Errc::invalid_argument;
      registry.timeline().record(
          sim::TimePoint{static_cast<std::int64_t>(
              std::llround(std::strtod(f[1].c_str(), nullptr) * 1e9))},
          f[2], f[3], f[4]);
    } else {
      return Errc::invalid_argument;
    }
  }
  return registry;
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
