// Management daemon on a redirector (§4.4).
//
// Tracks, per fault-tolerant service, the daisy chain of replicas
// [primary, backup1, …, backupN]; applies registrations and voluntary
// leaves; and executes reconfiguration after a failure report:
//
//   1. identify the failed replica — probe every chain member's management
//      daemon (crashed hosts answer nothing); if all answer, fall back to
//      the reporter's context (its blocked successor, else the primary,
//      which is the replica failing to close the client's loop — the
//      paper's congestion shut-down);
//   2. eliminate it — update the redirector table (multicast set), order
//      the replica to shut down, rewire the acknowledgement channel, and
//      promote the first backup if the primary was eliminated.
#pragma once

#include <map>
#include <set>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mgmt/protocol.hpp"
#include "redirector/redirector.hpp"

namespace hydranet::mgmt {

class RedirectorAgent {
 public:
  struct Stats {
    std::uint64_t registrations = 0;
    std::uint64_t failure_reports = 0;
    std::uint64_t probes_started = 0;
    std::uint64_t replicas_eliminated = 0;
    std::uint64_t promotions_ordered = 0;
  };

  RedirectorAgent(host::Host& router, redirector::Redirector& data_plane);

  RedirectorAgent(const RedirectorAgent&) = delete;
  RedirectorAgent& operator=(const RedirectorAgent&) = delete;

  /// Current chain for a service (primary first); empty if unknown.
  std::vector<net::Ipv4Address> chain(const net::Endpoint& service) const;
  const Stats& stats() const { return stats_; }
  MgmtTransport& transport() { return transport_; }

  /// Publishes this agent's reconfiguration counters into `registry` under
  /// the router's node name ("mgmt.*").
  void publish_metrics(stats::Registry& registry) const;

 private:
  struct ProbeSession {
    net::Endpoint service;
    std::vector<net::Ipv4Address> targets;
    std::unordered_set<net::Ipv4Address> responded;
    // Failure-report context used when every target answers the probe.
    std::optional<net::Ipv4Address> reported_suspect;
    bool blocked_on_successor = false;
    net::Ipv4Address reporter;
    sim::TimerId deadline = sim::kInvalidTimer;
    std::unordered_map<std::uint32_t, net::Ipv4Address> ping_ids;
  };

  void on_message(const net::Endpoint& from, const MgmtMessage& message);
  void handle_register(const net::Endpoint& from, const MgmtMessage& message,
                       bool primary);
  void handle_deregister(const net::Endpoint& from,
                         const MgmtMessage& message);
  void handle_failure_report(const net::Endpoint& from,
                             const MgmtMessage& message);
  void handle_pong(const net::Endpoint& from, const MgmtMessage& message);
  void finish_probe(const net::Endpoint& service);
  void eliminate(const net::Endpoint& service, net::Ipv4Address replica);
  /// Rebuilds the redirector-table entry from the chain (idempotent).
  void sync_data_plane(const net::Endpoint& service);
  /// Pushes the full chain wiring (predecessor/successor of every member)
  /// and the primary designation.  Idempotent: safe to resend.
  void rewire(const net::Endpoint& service);
  net::Endpoint agent_endpoint(net::Ipv4Address host) const {
    return net::Endpoint{host, MgmtTransport::kPort};
  }

  host::Host& router_;
  redirector::Redirector& data_plane_;
  MgmtTransport transport_;
  std::unordered_map<net::Endpoint, std::vector<net::Ipv4Address>> chains_;
  std::unordered_set<net::Endpoint> scaled_;  ///< services without a chain
  std::unordered_map<net::Endpoint, ProbeSession> probes_;
  std::unordered_map<net::Endpoint, sim::TimePoint> last_reconfiguration_;
  /// When each (service, reporter) last raised a failure report.
  std::map<std::pair<net::Endpoint, net::Ipv4Address>, sim::TimePoint>
      last_report_;
  /// Eliminated replicas, fenced out until a deliberate re-install.
  std::set<std::pair<net::Endpoint, net::Ipv4Address>> banned_;
  Stats stats_;
};

}  // namespace hydranet::mgmt
