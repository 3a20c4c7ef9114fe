#include "stats/metrics.hpp"

#include <algorithm>
#include <cassert>

#include "common/effect_annotations.hpp"

namespace hydranet::stats {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1, 0) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double value) {
  if (buckets_.empty()) {
    HN_EFFECT_ESCAPE(
        "lazy one-time bucket materialisation for default-constructed "
        "histograms; every later observe increments fixed buckets in "
        "place")
    buckets_.assign(1, 0);  // default: overflow only
    HN_EFFECT_ESCAPE_END()
  }
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())]++;
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  count_++;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 && bounds_.empty()) {
    *this = other;
    return;
  }
  assert(bounds_ == other.bounds_);
  if (buckets_.empty()) buckets_.assign(bounds_.size() + 1, 0);
  for (std::size_t i = 0;
       i < buckets_.size() && i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

const std::vector<double>& stall_ms_buckets() {
  static const std::vector<double> buckets{0.1, 0.3,  1,   3,    10,
                                           30,  100,  300, 1000, 3000};
  return buckets;
}

const std::vector<double>& queue_depth_buckets() {
  static const std::vector<double> buckets{0, 1, 2, 4, 8, 16, 32, 64};
  return buckets;
}

const std::vector<double>& cwnd_buckets() {
  static const std::vector<double> buckets{1500,  3000,  6000,  12000,
                                           24000, 48000, 96000, 192000};
  return buckets;
}

Counter& Registry::counter(const std::string& node, const std::string& name) {
  return nodes_[node].counters[name];
}

Gauge& Registry::gauge(const std::string& node, const std::string& name) {
  return nodes_[node].gauges[name];
}

Histogram& Registry::histogram(const std::string& node,
                               const std::string& name,
                               const std::vector<double>& bounds_if_new) {
  auto& histograms = nodes_[node].histograms;
  auto it = histograms.find(name);
  if (it == histograms.end()) {
    it = histograms.emplace(name, Histogram(bounds_if_new)).first;
  }
  return it->second;
}

void Registry::set_histogram(const std::string& node, const std::string& name,
                             const Histogram& value) {
  nodes_[node].histograms.insert_or_assign(name, value);
}

const NodeMetrics* Registry::node(const std::string& name) const {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::uint64_t Registry::counter_value(const std::string& node,
                                      const std::string& name) const {
  const NodeMetrics* metrics = this->node(node);
  if (metrics == nullptr) return 0;
  auto it = metrics->counters.find(name);
  return it == metrics->counters.end() ? 0 : it->second.value();
}

std::uint64_t Registry::total(const std::string& name) const {
  std::uint64_t sum = 0;
  for (const auto& [node, metrics] : nodes_) {
    auto it = metrics.counters.find(name);
    if (it != metrics.counters.end()) sum += it->second.value();
  }
  return sum;
}

void Registry::clear() {
  nodes_.clear();
  timeline_.clear();
}

}  // namespace hydranet::stats
