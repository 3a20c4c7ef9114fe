// Exporters for the metrics registry + event timeline.
//
// JSON: one document — per-node counters/gauges/histograms plus the event
// timeline — for downstream analysis (the CLI's --stats flag and the
// benches emit this).
//
// CSV: line-per-value records, one per counter, gauge, histogram bucket,
// histogram summary and event (fields quoted per RFC 4180 when needed):
//   counter,<node>,<name>,<value>
//   gauge,<node>,<name>,<value>
//   hbucket,<node>,<name>,<upper-bound|inf>,<count>
//   hsummary,<node>,<name>,<count>,<sum>,<min>,<max>
//   event,<seconds>,<node>,<kind>,<detail>
#pragma once

#include <string>

#include "common/result.hpp"
#include "stats/metrics.hpp"

namespace hydranet::stats {

std::string to_json(const Registry& registry);
std::string to_csv(const Registry& registry);

/// Writes `text` to `path` ("-" writes to stdout).
Status write_file(const std::string& path, const std::string& text);

/// Appends `s` to `out` as a quoted JSON string.  The one escaper behind
/// every JSON exporter (this one and src/trace2's).
void append_escaped(std::string& out, const std::string& s);

}  // namespace hydranet::stats
