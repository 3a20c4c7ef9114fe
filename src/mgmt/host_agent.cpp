#include "mgmt/host_agent.hpp"

#include "common/logging.hpp"
#include "stats/timeline.hpp"

namespace hydranet::mgmt {

namespace {
constexpr const char* kLog = "mgmt-host";
}

HostAgent::HostAgent(host::Host& host, net::Ipv4Address redirector,
                     sim::Duration heartbeat_interval)
    : host_(host),
      redirector_(redirector),
      transport_(host),
      channel_(host),
      heartbeat_interval_(heartbeat_interval) {
  transport_.set_handler(
      [this](const net::Endpoint& from, const MgmtMessage& message) {
        on_message(from, message);
      });
  heartbeat_timer_ = host_.scheduler().schedule_after(heartbeat_interval_,
                                                      [this] { heartbeat(); });
}

HostAgent::~HostAgent() { host_.scheduler().cancel(heartbeat_timer_); }

void HostAgent::send_registration(const net::Endpoint& service,
                                  tcp::ReplicaMode mode, bool reliable) {
  MgmtMessage message;
  message.type = mode == tcp::ReplicaMode::primary ? MsgType::register_primary
                                                   : MsgType::register_backup;
  message.service = service;
  message.host = own_address();
  message.has_host = true;
  message.fault_tolerant = !scaled_services_.contains(service);
  // Deliberate installs are reliable and may lift an elimination ban;
  // heartbeats are cheap re-announcements that must not.
  message.explicit_registration = reliable;
  net::Endpoint to{redirector_, MgmtTransport::kPort};
  if (reliable) {
    transport_.send_reliable(to, message);
  } else {
    (void)transport_.send(to, message);
  }
}

void HostAgent::heartbeat() {
  heartbeat_timer_ = host_.scheduler().schedule_after(heartbeat_interval_,
                                                      [this] { heartbeat(); });
  // Re-announce everything this host serves; the redirector's registration
  // handling is idempotent, so a live daemon ignores these, while a
  // restarted one rebuilds its tables from them.
  for (const auto& [service, replica] : replicas_) {
    send_registration(service, replica->mode(), /*reliable=*/false);
  }
  for (const net::Endpoint& service : scaled_services_) {
    send_registration(service, tcp::ReplicaMode::primary, /*reliable=*/false);
  }
}

ftcp::ReplicatedService& HostAgent::install_replica(
    const net::Endpoint& service, tcp::ReplicaMode mode,
    ftcp::DetectorParams detector, sim::Duration refresh_interval) {
  // Dispose of any stale replica first: its teardown unregisters the
  // service's port options and ack-channel route, which must not clobber
  // the fresh installation (re-commissioning after a crash).
  replicas_.erase(service);

  ftcp::ReplicatedService::Config config;
  config.service = service;
  config.mode = mode;
  config.detector = detector;
  config.refresh_interval = refresh_interval;
  auto replica =
      std::make_unique<ftcp::ReplicatedService>(host_, channel_, config);
  replica->set_failure_callback(
      [this](const ftcp::ReplicatedService::FailureSignal& signal) {
        on_failure_signal(signal);
      });
  auto& ref = *replica;
  replicas_[service] = std::move(replica);
  send_registration(service, mode, /*reliable=*/true);
  return ref;
}

void HostAgent::install_scaled_replica(const net::Endpoint& service) {
  host_.v_host(service.address);
  scaled_services_.insert(service);
  send_registration(service, tcp::ReplicaMode::primary, /*reliable=*/true);
}

void HostAgent::leave(const net::Endpoint& service) {
  MgmtMessage message;
  message.type = MsgType::deregister;
  message.service = service;
  message.host = own_address();
  message.has_host = true;
  transport_.send_reliable(net::Endpoint{redirector_, MgmtTransport::kPort},
                           message);
  // Keep serving until the redirector has rewired the chain (promoted a
  // new primary, if we were it) and orders us to stand down via
  // shutdown_service — a voluntary leave must be invisible to clients.
}

ftcp::ReplicatedService& HostAgent::rejoin(const net::Endpoint& service,
                                           ftcp::DetectorParams detector) {
  // Re-commissioning is a fresh backup registration; pass-through mode in
  // the ft-TCP layer covers connections that predate the rejoin.
  return install_replica(service, tcp::ReplicaMode::backup, detector);
}

ftcp::ReplicatedService* HostAgent::replica(const net::Endpoint& service) {
  auto it = replicas_.find(service);
  return it == replicas_.end() ? nullptr : it->second.get();
}

void HostAgent::publish_metrics(stats::Registry& registry) const {
  const std::string& node = host_.name();
  registry.set_counter(node, "mgmt.pings_answered", stats_.pings_answered);
  registry.set_counter(node, "mgmt.failure_reports_sent",
                       stats_.failure_reports_sent);
  registry.set_counter(node, "mgmt.promotions", stats_.promotions);
  registry.set_counter(node, "mgmt.shutdowns", stats_.shutdowns);
  registry.set_counter(node, "ftcp.ack_channel_sent", channel_.messages_sent());
  registry.set_counter(node, "ftcp.ack_channel_received",
                       channel_.messages_received());
  registry.set_counter(node, "ftcp.ack_channel_send_failures",
                       channel_.messages_send_failed());

  // Gate behaviour summed over this host's replicas (one per service).
  std::uint64_t deposit_stalls = 0;
  std::uint64_t send_stalls = 0;
  std::uint64_t failure_signals = 0;
  stats::Histogram deposit_ms{stats::stall_ms_buckets()};
  stats::Histogram send_ms{stats::stall_ms_buckets()};
  for (const auto& [service, replica] : replicas_) {
    const auto& gates = replica->gate_stats();
    deposit_stalls += gates.deposit_stalls;
    send_stalls += gates.send_stalls;
    failure_signals += replica->failure_signals_raised();
    deposit_ms.merge(gates.deposit_stall_ms);
    send_ms.merge(gates.send_stall_ms);
  }
  registry.set_counter(node, "ftcp.deposit_gate_stalls", deposit_stalls);
  registry.set_counter(node, "ftcp.send_gate_stalls", send_stalls);
  registry.set_counter(node, "ftcp.failure_signals", failure_signals);
  registry.set_histogram(node, "ftcp.deposit_gate_stall_ms", deposit_ms);
  registry.set_histogram(node, "ftcp.send_gate_stall_ms", send_ms);
}

void HostAgent::on_failure_signal(
    const ftcp::ReplicatedService::FailureSignal& signal) {
  stats_.failure_reports_sent++;
  host_.record_event(stats::event::kFailureReportSent,
                     signal.service.to_string());
  MgmtMessage message;
  message.type = MsgType::failure_report;
  message.service = signal.service;
  if (signal.successor) {
    message.host = *signal.successor;
    message.has_host = true;
  }
  message.blocked_on_successor = signal.blocked_on_successor;
  // Failure reports are retried by the estimator itself (it keeps firing
  // while the problem persists), so a plain datagram suffices — but one
  // reliable push lowers detection latency under mgmt-path loss.
  transport_.send_reliable(net::Endpoint{redirector_, MgmtTransport::kPort},
                           message, /*max_retries=*/2);
}

void HostAgent::on_message(const net::Endpoint& from,
                           const MgmtMessage& message) {
  switch (message.type) {
    case MsgType::ping: {
      stats_.pings_answered++;
      MgmtMessage pong;
      pong.type = MsgType::pong;
      pong.request_id = message.request_id;
      (void)transport_.send(from, pong);
      return;
    }
    case MsgType::set_predecessor: {
      if (auto* r = replica(message.service)) {
        r->set_predecessor(message.has_host
                               ? std::optional<net::Ipv4Address>(message.host)
                               : std::nullopt);
      }
      transport_.acknowledge(from, message.request_id);
      return;
    }
    case MsgType::set_successor: {
      if (auto* r = replica(message.service)) {
        r->set_successor(message.has_host
                             ? std::optional<net::Ipv4Address>(message.host)
                             : std::nullopt);
      }
      transport_.acknowledge(from, message.request_id);
      return;
    }
    case MsgType::promote: {
      if (auto* r = replica(message.service)) {
        stats_.promotions++;
        r->promote_to_primary();
      }
      transport_.acknowledge(from, message.request_id);
      return;
    }
    case MsgType::shutdown_service: {
      if (auto it = replicas_.find(message.service); it != replicas_.end()) {
        stats_.shutdowns++;
        HLOG(info, kLog) << host_.name() << " shut down for "
                         << message.service.to_string();
        host_.record_event(stats::event::kReplicaShutdown,
                           message.service.to_string());
        it->second->shutdown();
        replicas_.erase(it);
      }
      transport_.acknowledge(from, message.request_id);
      return;
    }
    default:
      return;  // not addressed to a host agent
  }
}

}  // namespace hydranet::mgmt
