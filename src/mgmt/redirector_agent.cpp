#include "mgmt/redirector_agent.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "stats/timeline.hpp"

namespace hydranet::mgmt {

namespace {
constexpr const char* kLog = "mgmt-redirector";
/// How long probed replicas have to answer before being declared dead.
constexpr sim::Duration kProbeTimeout = sim::milliseconds(250);
/// Ignore further failure reports for a service this long after a
/// reconfiguration (lets the new chain settle).
constexpr sim::Duration kReconfigurationCooldown = sim::seconds(1);
/// A backup's "nobody is acking the client" report is attributed to the
/// client (not the primary) if the primary itself reported within this
/// window — a dead client makes *every* replica time out, and shutting
/// down the whole chain for it would be absurd.
constexpr sim::Duration kClientSideAttributionWindow = sim::seconds(10);
}

RedirectorAgent::RedirectorAgent(host::Host& router,
                                 redirector::Redirector& data_plane)
    : router_(router), data_plane_(data_plane), transport_(router) {
  transport_.set_handler(
      [this](const net::Endpoint& from, const MgmtMessage& message) {
        on_message(from, message);
      });
}

std::vector<net::Ipv4Address> RedirectorAgent::chain(
    const net::Endpoint& service) const {
  auto it = chains_.find(service);
  return it == chains_.end() ? std::vector<net::Ipv4Address>{} : it->second;
}

void RedirectorAgent::on_message(const net::Endpoint& from,
                                 const MgmtMessage& message) {
  switch (message.type) {
    case MsgType::register_primary:
      handle_register(from, message, /*primary=*/true);
      return;
    case MsgType::register_backup:
      handle_register(from, message, /*primary=*/false);
      return;
    case MsgType::deregister:
      handle_deregister(from, message);
      return;
    case MsgType::failure_report:
      handle_failure_report(from, message);
      return;
    case MsgType::pong:
      handle_pong(from, message);
      return;
    default:
      return;
  }
}

void RedirectorAgent::handle_register(const net::Endpoint& from,
                                      const MgmtMessage& message,
                                      bool primary) {
  if (!message.has_host) return;
  stats_.registrations++;

  // Fencing: an eliminated replica stays banned until a *deliberate*
  // re-install.  Its heartbeats are answered with another stand-down
  // order so a zombie that missed the first one converges to silence.
  std::pair<net::Endpoint, net::Ipv4Address> fence_key{message.service,
                                                       message.host};
  if (banned_.contains(fence_key)) {
    if (!message.explicit_registration) {
      MgmtMessage shutdown;
      shutdown.type = MsgType::shutdown_service;
      shutdown.service = message.service;
      transport_.send_reliable(agent_endpoint(message.host), shutdown,
                               /*max_retries=*/2);
      transport_.acknowledge(from, message.request_id);
      return;
    }
    banned_.erase(fence_key);
  }

  auto& chain = chains_[message.service];

  if (!message.fault_tolerant) {
    // Scaled replication: redirection only (HydraNet, §3).
    scaled_.insert(message.service);
    data_plane_.install_service(message.service,
                                redirector::ServiceMode::scaled, message.host);
    chain.assign(1, message.host);
    transport_.acknowledge(from, message.request_id);
    return;
  }

  // Registrations may arrive in any order (a nearby backup can easily
  // beat a cross-WAN primary) and repeat (host agents heartbeat their
  // registrations so a restarted redirector daemon can rebuild its
  // tables).  The chain is merged idempotently: re-registrations of a
  // member already in a consistent position cause no rewiring at all.
  scaled_.erase(message.service);
  auto pos = std::find(chain.begin(), chain.end(), message.host);
  bool changed = false;
  if (pos == chain.end()) {
    if (primary) {
      chain.insert(chain.begin(), message.host);
    } else {
      chain.push_back(message.host);
    }
    changed = true;
  } else if (primary && pos != chain.begin()) {
    chain.erase(pos);
    chain.insert(chain.begin(), message.host);
    changed = true;
  }
  if (changed) {
    sync_data_plane(message.service);
    rewire(message.service);
  }
  transport_.acknowledge(from, message.request_id);
}

void RedirectorAgent::sync_data_plane(const net::Endpoint& service) {
  auto chain_it = chains_.find(service);
  if (chain_it == chains_.end() || chain_it->second.empty()) {
    data_plane_.remove_service(service);
    return;
  }
  const auto& chain = chain_it->second;
  data_plane_.install_service(service,
                              scaled_.contains(service)
                                  ? redirector::ServiceMode::scaled
                                  : redirector::ServiceMode::fault_tolerant,
                              chain.front());
  for (std::size_t i = 1; i < chain.size(); ++i) {
    (void)data_plane_.add_backup(service, chain[i]);
  }
}

void RedirectorAgent::handle_deregister(const net::Endpoint& from,
                                        const MgmtMessage& message) {
  if (message.has_host) eliminate(message.service, message.host);
  transport_.acknowledge(from, message.request_id);
}

void RedirectorAgent::handle_failure_report(const net::Endpoint& from,
                                            const MgmtMessage& message) {
  transport_.acknowledge(from, message.request_id);
  stats_.failure_reports++;
  // Remember who complained, even when the report is otherwise ignored:
  // a recent report *from the primary* marks trouble as client-side.
  last_report_[{message.service, from.address}] = router_.scheduler().now();

  auto chain_it = chains_.find(message.service);
  if (chain_it == chains_.end() || chain_it->second.size() < 2) return;

  // Let a just-reconfigured chain settle before acting again.
  if (auto last = last_reconfiguration_.find(message.service);
      last != last_reconfiguration_.end() &&
      router_.scheduler().now() - last->second <
          kReconfigurationCooldown) {
    return;
  }
  if (probes_.contains(message.service)) return;  // probe already running

  HLOG(info, kLog) << "failure report for " << message.service.to_string()
                   << " from " << from.address.to_string();
  router_.record_event(stats::event::kFailureReportReceived,
                       message.service.to_string() + " from " +
                           from.address.to_string());

  // Identify the failed server: probe every chain member.
  stats_.probes_started++;
  router_.record_event(stats::event::kProbeStarted, message.service.to_string());
  ProbeSession session;
  session.service = message.service;
  session.targets = chain_it->second;
  session.reporter = from.address;
  session.blocked_on_successor = message.blocked_on_successor;
  if (message.has_host) session.reported_suspect = message.host;
  for (net::Ipv4Address target : session.targets) {
    MgmtMessage ping;
    ping.type = MsgType::ping;
    ping.request_id = transport_.allocate_request_id();
    session.ping_ids.emplace(ping.request_id, target);
    (void)transport_.send(agent_endpoint(target), ping);
  }
  net::Endpoint service = message.service;
  session.deadline = router_.scheduler().schedule_after(
      kProbeTimeout, [this, service] { finish_probe(service); });
  probes_.emplace(message.service, std::move(session));
}

void RedirectorAgent::handle_pong(const net::Endpoint& from,
                                  const MgmtMessage& message) {
  for (auto& [service, session] : probes_) {
    auto it = session.ping_ids.find(message.request_id);
    if (it != session.ping_ids.end()) {
      session.responded.insert(from.address);
      session.ping_ids.erase(it);
      return;
    }
  }
}

void RedirectorAgent::finish_probe(const net::Endpoint& service) {
  auto it = probes_.find(service);
  if (it == probes_.end()) return;
  ProbeSession session = std::move(it->second);
  probes_.erase(it);

  std::vector<net::Ipv4Address> dead;
  for (net::Ipv4Address target : session.targets) {
    if (!session.responded.contains(target)) dead.push_back(target);
  }

  if (dead.empty()) {
    // Everyone is alive: the disruption is congestion, not a crash.  The
    // paper's policy is to shut the misbehaving server down anyway
    // (fail-stop behaviour).  The reporter's context names it: the
    // successor it is blocked on, else the primary (which is failing to
    // close the client's flow-control loop).
    if (session.blocked_on_successor && session.reported_suspect) {
      dead.push_back(*session.reported_suspect);
    } else {
      auto chain_it = chains_.find(service);
      if (chain_it != chains_.end() && !chain_it->second.empty()) {
        net::Ipv4Address primary = chain_it->second.front();
        // Attribution check: if the PRIMARY itself is complaining (it is
        // the reporter, or it reported recently), the client — not any
        // replica — is the unresponsive party.  A dead client times out
        // every replica; dismantling the chain for that would shut down
        // the service for everyone else.
        bool primary_complained = session.reporter == primary;
        if (auto it = last_report_.find({service, primary});
            !primary_complained && it != last_report_.end()) {
          primary_complained =
              router_.scheduler().now() - it->second <
              kClientSideAttributionWindow;
        }
        if (primary_complained) {
          HLOG(info, kLog) << "report for " << service.to_string()
                           << " attributed to the client side; no action";
          router_.record_event(stats::event::kProbeVerdict,
                               service.to_string() +
                                   " client_side_attribution");
        } else {
          dead.push_back(primary);
        }
      }
    }
  }

  for (net::Ipv4Address replica : dead) {
    HLOG(warn, kLog) << "eliminating " << replica.to_string() << " from "
                     << service.to_string();
    router_.record_event(stats::event::kProbeVerdict,
                         service.to_string() + " dead " + replica.to_string());
    eliminate(service, replica);
  }
  last_reconfiguration_[service] = router_.scheduler().now();
}

void RedirectorAgent::eliminate(const net::Endpoint& service,
                                net::Ipv4Address replica) {
  auto chain_it = chains_.find(service);
  if (chain_it == chains_.end()) return;
  auto& chain = chain_it->second;
  auto pos = std::find(chain.begin(), chain.end(), replica);
  if (pos == chain.end()) return;

  const bool was_primary = pos == chain.begin();
  chain.erase(pos);
  stats_.replicas_eliminated++;
  router_.record_event(stats::event::kReplicaEliminated,
                       service.to_string() + " " + replica.to_string());
  banned_.insert({service, replica});

  // Stop multicasting to it immediately (this is what "shuts down" a
  // spuriously-unavailable server from the clients' point of view).
  (void)data_plane_.remove_replica(service, replica);

  // Order the replica itself to stand down (best effort: it may be dead).
  MgmtMessage shutdown;
  shutdown.type = MsgType::shutdown_service;
  shutdown.service = service;
  transport_.send_reliable(agent_endpoint(replica), shutdown,
                           /*max_retries=*/2);

  if (chain.empty()) {
    chains_.erase(chain_it);
    data_plane_.remove_service(service);
    return;
  }

  if (was_primary) {
    stats_.promotions_ordered++;
    router_.record_event(stats::event::kPromoteOrdered,
                         service.to_string() + " " +
                             chain.front().to_string());
    (void)data_plane_.set_primary(service, chain.front());
    MgmtMessage promote;
    promote.type = MsgType::promote;
    promote.service = service;
    transport_.send_reliable(agent_endpoint(chain.front()), promote);
  }
  rewire(service);
}

void RedirectorAgent::publish_metrics(stats::Registry& registry) const {
  const std::string& node = router_.name();
  registry.set_counter(node, "mgmt.registrations", stats_.registrations);
  registry.set_counter(node, "mgmt.failure_reports", stats_.failure_reports);
  registry.set_counter(node, "mgmt.probes_started", stats_.probes_started);
  registry.set_counter(node, "mgmt.replicas_eliminated",
                       stats_.replicas_eliminated);
  registry.set_counter(node, "mgmt.promotions_ordered",
                       stats_.promotions_ordered);
}

void RedirectorAgent::rewire(const net::Endpoint& service) {
  auto chain_it = chains_.find(service);
  if (chain_it == chains_.end()) return;
  const auto& chain = chain_it->second;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    MgmtMessage predecessor;
    predecessor.type = MsgType::set_predecessor;
    predecessor.service = service;
    if (i > 0) {
      predecessor.host = chain[i - 1];
      predecessor.has_host = true;
    }
    transport_.send_reliable(agent_endpoint(chain[i]), predecessor);

    MgmtMessage successor;
    successor.type = MsgType::set_successor;
    successor.service = service;
    if (i + 1 < chain.size()) {
      successor.host = chain[i + 1];
      successor.has_host = true;
    }
    transport_.send_reliable(agent_endpoint(chain[i]), successor);
  }
}

}  // namespace hydranet::mgmt
