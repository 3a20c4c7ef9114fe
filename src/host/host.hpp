// A simulated machine: IP + UDP + TCP stacks plus HydraNet's virtual-host
// support.  Routers, redirectors, host servers, origin hosts and clients
// are all Hosts; what distinguishes them is which services and hooks they
// install (redirectors add a forwarding hook, host servers install virtual
// hosts and the ft-TCP machinery).
#pragma once

#include <memory>
#include <string>

#include "icmp/icmp.hpp"
#include "common/thread_annotations.hpp"
#include "ip/ip_stack.hpp"
#include "link/cpu_model.hpp"
#include "sim/scheduler.hpp"
#include "stats/metrics.hpp"
#include "stats/timeline.hpp"
#include "tcp/tcp_stack.hpp"
#include "udp/udp.hpp"

namespace hydranet::host {

class Host {
 public:
  Host(sim::Scheduler& scheduler, std::string name, std::uint64_t seed);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& name() const { return name_; }
  sim::Scheduler& scheduler() { return scheduler_; }

  ip::IpStack& ip() { return ip_; }
  udp::UdpStack& udp() { return udp_; }
  tcp::TcpStack& tcp() { return tcp_; }
  icmp::IcmpStack& icmp() { return icmp_; }

  link::NetworkInterface& add_interface(const std::string& name,
                                        net::Ipv4Address address,
                                        int prefix_len,
                                        std::size_t mtu = 1500) {
    return ip_.add_interface(name, address, prefix_len, mtu);
  }

  /// The paper's v_host() system call (§3): this host starts answering for
  /// `origin_address`, so replica sockets bound under it are reachable at
  /// the origin host's IP.
  void v_host(net::Ipv4Address origin_address) {
    ip_.add_local_alias(origin_address);
  }
  void remove_v_host(net::Ipv4Address origin_address) {
    ip_.remove_local_alias(origin_address);
  }

  /// Fail-stop crash injection: the machine goes dark (drops all traffic,
  /// fires no timers' effects at the network) until revived.
  void crash() { ip_.set_crashed(true); }
  void revive() { ip_.set_crashed(false); }
  bool crashed() const { return ip_.is_crashed(); }

  void set_cpu_model(link::CpuModel model) { ip_.set_cpu_model(model); }

  // ---- observability -----------------------------------------------------

  /// Records a protocol event (ft-TCP, management agents, fault
  /// injection) under this host's name at its current virtual time, in
  /// the host's own event log.
  HN_SHARD_AFFINE void record_event(std::string kind,
                                    std::string detail = {}) {
    event_log_.record(scheduler_.now(), name_, std::move(kind),
                      std::move(detail));
  }
  /// This host's events in emission order; Network::publish_metrics()
  /// merges every host's log into the network's timeline.
  const stats::EventTimeline& event_log() const { return event_log_; }

  /// Publishes this host's IP and TCP counters into `registry` under the
  /// host's name ("ip.*", "tcp.*" — see README "Observability").
  void publish_metrics(stats::Registry& registry) const;

 private:
  sim::Scheduler& scheduler_;
  std::string name_;
  ip::IpStack ip_;
  udp::UdpStack udp_;
  tcp::TcpStack tcp_;
  icmp::IcmpStack icmp_;
  stats::EventTimeline event_log_;
};

}  // namespace hydranet::host
