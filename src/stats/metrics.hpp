// Per-node metrics registry: named counters, gauges, and fixed-bucket
// histograms, grouped per node (host, link, or other topology element) and
// per layer (the layer is the metric-name prefix: "tcp.retransmits",
// "ftcp.deposit_gate_stalls", ...).
//
// Two usage modes coexist:
//
//   * value types — a component owns a stats::Histogram (or plain integer
//     counters in its existing Stats struct) and observes into it on the
//     hot path with no name lookups;
//   * registry   — at collection time every layer publishes its values
//     under (node, name); the registry is what the exporters, the CLI's
//     --stats flag, and the benches consume.
//
// The registry also owns the structured EventTimeline (timeline.hpp) so
// one export covers both the aggregates and the discrete protocol events.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats/timeline.hpp"

namespace hydranet::stats {

/// Monotonic count.  set() exists for snapshot-style publishing, where the
/// authoritative count lives in a layer's own Stats struct.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  void set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time measurement (queue depth, phase duration, ...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram: cumulative-style bounds are fixed at
/// construction; observations above the last bound land in an overflow
/// bucket.  Tracks count/sum/min/max exactly regardless of bucketing.
class Histogram {
 public:
  Histogram() = default;
  /// `upper_bounds` must be strictly increasing; an observation v is
  /// counted in the first bucket with v <= bound.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);
  /// Adds `other`'s observations; bucket bounds must match (an empty
  /// histogram adopts the other's bounds).
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }  ///< 0 when empty
  double max() const { return max_; }  ///< 0 when empty
  double mean() const { return count_ == 0 ? 0 : sum_ / static_cast<double>(count_); }

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return buckets_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;  ///< bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Shared bucket layouts (documented in DESIGN.md).
const std::vector<double>& stall_ms_buckets();    ///< gate/stall durations [ms]
const std::vector<double>& queue_depth_buckets(); ///< link queue occupancy [pkts]
const std::vector<double>& cwnd_buckets();        ///< congestion window [bytes]

/// All metrics of one node, name -> value.  Ordered maps keep exports
/// deterministic.
struct NodeMetrics {
  std::map<std::string, Counter> counters;
  std::map<std::string, Gauge> gauges;
  std::map<std::string, Histogram> histograms;
};

class Registry {
 public:
  /// Returns the named metric, creating it at zero on first use.
  /// References stay valid for the registry's lifetime.
  Counter& counter(const std::string& node, const std::string& name);
  Gauge& gauge(const std::string& node, const std::string& name);
  Histogram& histogram(const std::string& node, const std::string& name,
                       const std::vector<double>& bounds_if_new = {});

  /// Snapshot-style publishing (collection time).
  void set_counter(const std::string& node, const std::string& name,
                   std::uint64_t value) {
    counter(node, name).set(value);
  }
  void set_gauge(const std::string& node, const std::string& name,
                 double value) {
    gauge(node, name).set(value);
  }
  void set_histogram(const std::string& node, const std::string& name,
                     const Histogram& value);

  const NodeMetrics* node(const std::string& name) const;
  const std::map<std::string, NodeMetrics>& nodes() const { return nodes_; }

  /// Convenience lookups (0 / nullptr when absent).
  std::uint64_t counter_value(const std::string& node,
                              const std::string& name) const;
  /// Sum of `name` over every node that has it (chain-wide totals).
  std::uint64_t total(const std::string& name) const;

  EventTimeline& timeline() { return timeline_; }
  const EventTimeline& timeline() const { return timeline_; }

  void clear();

 private:
  std::map<std::string, NodeMetrics> nodes_;
  EventTimeline timeline_;
};

}  // namespace hydranet::stats
