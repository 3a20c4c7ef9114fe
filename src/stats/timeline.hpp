// Structured event timeline: discrete protocol events (connection
// established, crash injected, FAILURE-REPORT sent, probe verdict, PROMOTE,
// stream resumed, ...) with virtual timestamps, in emission order.
//
// The failover sequence crash -> detection -> promotion -> resume becomes a
// machine-readable artifact: phase durations fall out of first()/
// first_after() instead of being re-derived from log lines.
//
// Each host owns one timeline as its append-only event log, written only
// by the host's shard, so a timeline has one writer and no lock.  The
// network-wide timeline is a snapshot: Network::publish_metrics() merge()s
// the host logs at a quiescent point.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace hydranet::stats {

/// Well-known event kinds (free-form kinds are also allowed).
namespace event {
inline constexpr const char* kConnectionEstablished = "connection_established";
inline constexpr const char* kCrashInjected = "crash_injected";
inline constexpr const char* kFailureSignal = "failure_signal";
inline constexpr const char* kFailureReportSent = "failure_report_sent";
inline constexpr const char* kFailureReportReceived = "failure_report_received";
inline constexpr const char* kProbeStarted = "probe_started";
inline constexpr const char* kProbeVerdict = "probe_verdict";
inline constexpr const char* kReplicaEliminated = "replica_eliminated";
inline constexpr const char* kPromoteOrdered = "promote_ordered";
inline constexpr const char* kPromoted = "promoted";
inline constexpr const char* kReplicaShutdown = "replica_shutdown";
inline constexpr const char* kStreamResumed = "stream_resumed";
}  // namespace event

struct Event {
  sim::TimePoint at;
  std::string node;    ///< topology element that emitted the event
  std::string kind;    ///< one of event::k* (or free-form)
  std::string detail;  ///< human-readable context (service, replica, ...)

  /// "3.201457 redirector replica_eliminated 10.0.2.2"
  std::string to_string() const;
};

class EventTimeline {
 public:
  explicit EventTimeline(std::size_t max_events = 100000)
      : max_events_(max_events) {}

  /// Appends one event; past `max_events` it is counted in dropped()
  /// instead.  One writer per timeline (a host log's is its host's shard).
  void record(sim::TimePoint at, std::string node, std::string kind,
              std::string detail = {});

  const std::vector<Event>& events() const { return events_; }
  std::size_t dropped() const { return dropped_; }

  /// First event of `kind`, in emission order.
  std::optional<Event> first(const std::string& kind) const;
  /// First event of `kind` at or after `t`.
  std::optional<Event> first_after(const std::string& kind,
                                   sim::TimePoint t) const;
  /// All events of `kind`, in emission order.
  std::vector<Event> select(const std::string& kind) const;

  void clear();

  /// Every event `logs` kept, ordered by (time, position of its log in
  /// `logs`, emission order), with their dropped() counts summed.  The
  /// cap bounds record() only, so the merge loses nothing a log kept.
  static EventTimeline merge(const std::vector<const EventTimeline*>& logs);

 private:
  std::size_t max_events_;
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
};

}  // namespace hydranet::stats
