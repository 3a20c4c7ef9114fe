#include "stats/timeline.hpp"

#include <algorithm>
#include <cstdio>

namespace hydranet::stats {

std::string Event::to_string() const {
  char head[64];
  std::snprintf(head, sizeof head, "%11.6f ", at.seconds());
  std::string out = head;
  out += node;
  out += ' ';
  out += kind;
  if (!detail.empty()) {
    out += ' ';
    out += detail;
  }
  return out;
}

void EventTimeline::record(sim::TimePoint at, std::string node,
                           std::string kind, std::string detail) {
  if (events_.size() >= max_events_) {
    dropped_++;
    return;
  }
  events_.push_back(
      Event{at, std::move(node), std::move(kind), std::move(detail)});
}

std::optional<Event> EventTimeline::first(const std::string& kind) const {
  for (const Event& e : events_) {
    if (e.kind == kind) return e;
  }
  return std::nullopt;
}

std::optional<Event> EventTimeline::first_after(const std::string& kind,
                                                sim::TimePoint t) const {
  for (const Event& e : events_) {
    if (e.kind == kind && e.at >= t) return e;
  }
  return std::nullopt;
}

std::vector<Event> EventTimeline::select(const std::string& kind) const {
  std::vector<Event> out;
  for (const Event& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

void EventTimeline::clear() {
  events_.clear();
  dropped_ = 0;
}

EventTimeline EventTimeline::merge(
    const std::vector<const EventTimeline*>& logs) {
  EventTimeline merged;
  std::size_t total = 0;
  for (const EventTimeline* log : logs) total += log->events_.size();
  merged.events_.reserve(total);
  for (const EventTimeline* log : logs) {
    merged.events_.insert(merged.events_.end(), log->events_.begin(),
                          log->events_.end());
    merged.dropped_ += log->dropped_;
  }
  // Stable: equal instants keep log order, then each log's own order.
  std::stable_sort(merged.events_.begin(), merged.events_.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
  return merged;
}

}  // namespace hydranet::stats
