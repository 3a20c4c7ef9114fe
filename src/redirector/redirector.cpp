#include "redirector/redirector.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "common/logging.hpp"
#include "net/tunnel.hpp"
#include "trace2/recorder.hpp"
#include "trace2/span.hpp"
#include "verify/invariant.hpp"

namespace hydranet::redirector {

namespace {
constexpr const char* kLog = "redirector";
constexpr std::size_t kMaxFragmentDecisions = 4096;
}  // namespace

#if HYDRANET_INVARIANTS
void Redirector::check_table_invariant(const net::Endpoint& service,
                                       const ServiceEntry& entry) const {
  // §4.2: a fault-tolerant service has exactly one primary — the replica
  // the failover protocol elected.  A primary doubling as a backup (or a
  // duplicated backup) would double-deliver the client stream.
  bool primary_in_backups =
      std::find(entry.backups.begin(), entry.backups.end(), entry.primary) !=
      entry.backups.end();
  HN_INVARIANT(redirector_table, !primary_in_backups,
               "service %s: primary %s is also listed as a backup",
               service.to_string().c_str(), entry.primary.to_string().c_str());
  for (std::size_t i = 0; i < entry.backups.size(); ++i) {
    for (std::size_t j = i + 1; j < entry.backups.size(); ++j) {
      HN_INVARIANT(redirector_table, entry.backups[i] != entry.backups[j],
                   "service %s: backup %s listed twice",
                   service.to_string().c_str(),
                   entry.backups[i].to_string().c_str());
    }
  }
}

void Redirector::test_corrupt_table(const net::Endpoint& service) {
  auto it = table_.find(service);
  if (it == table_.end()) return;
  it->second.backups.push_back(it->second.primary);
  check_table_invariant(it->first, it->second);
}
#endif

Redirector::Redirector(host::Host& router) : router_(router) {
  router_.ip().set_forward_hook(
      [this](const net::Datagram& datagram) { return on_transit(datagram); });
}

void Redirector::install_service(const net::Endpoint& service,
                                 ServiceMode mode,
                                 net::Ipv4Address host_server) {
  table_[service] = ServiceEntry{mode, host_server, {}};
  HLOG(info, kLog) << "install " << service.to_string() << " -> "
                   << host_server.to_string();
#if HYDRANET_INVARIANTS
  check_table_invariant(service, table_[service]);
#endif
}

Status Redirector::add_backup(const net::Endpoint& service,
                              net::Ipv4Address backup) {
  auto it = table_.find(service);
  if (it == table_.end()) return Errc::not_found;
  it->second.mode = ServiceMode::fault_tolerant;
  auto& backups = it->second.backups;
  if (backup == it->second.primary ||
      std::find(backups.begin(), backups.end(), backup) != backups.end()) {
    return Errc::already_connected;
  }
  backups.push_back(backup);
#if HYDRANET_INVARIANTS
  check_table_invariant(service, it->second);
#endif
  return Status::success();
}

Status Redirector::remove_replica(const net::Endpoint& service,
                                  net::Ipv4Address replica) {
  auto it = table_.find(service);
  if (it == table_.end()) return Errc::not_found;
  ServiceEntry& entry = it->second;
  if (entry.primary == replica) {
    if (entry.backups.empty()) {
      table_.erase(it);
      return Status::success();
    }
    entry.primary = entry.backups.front();
    entry.backups.erase(entry.backups.begin());
#if HYDRANET_INVARIANTS
    check_table_invariant(service, entry);
#endif
    return Status::success();
  }
  auto b = std::find(entry.backups.begin(), entry.backups.end(), replica);
  if (b == entry.backups.end()) return Errc::not_found;
  entry.backups.erase(b);
#if HYDRANET_INVARIANTS
  check_table_invariant(service, entry);
#endif
  return Status::success();
}

Status Redirector::set_primary(const net::Endpoint& service,
                               net::Ipv4Address new_primary) {
  auto it = table_.find(service);
  if (it == table_.end()) return Errc::not_found;
  ServiceEntry& entry = it->second;
  if (entry.primary == new_primary) return Status::success();
  auto b = std::find(entry.backups.begin(), entry.backups.end(), new_primary);
  if (b == entry.backups.end()) return Errc::not_found;
  entry.backups.erase(b);
  entry.backups.insert(entry.backups.begin(), entry.primary);
  entry.primary = new_primary;
#if HYDRANET_INVARIANTS
  check_table_invariant(service, entry);
#endif
  return Status::success();
}

void Redirector::remove_service(const net::Endpoint& service) {
  table_.erase(service);
}

const ServiceEntry* Redirector::lookup(const net::Endpoint& service) const {
  auto it = table_.find(service);
  return it == table_.end() ? nullptr : &it->second;
}

bool Redirector::on_transit(const net::Datagram& datagram) {
  if (datagram.header.protocol != net::IpProto::tcp &&
      datagram.header.protocol != net::IpProto::udp) {
    return false;
  }

#if HYDRANET_INVARIANTS
  // §4.3 backup silence, observed from the network: traffic SOURCED at a
  // replicated service (heading client-ward past this redirector) must
  // come from the primary.  ft-TCP taints a service flow whenever a
  // backup emits; a tainted flow transiting here is a leak.
  if (datagram.header.fragment_offset == 0 && datagram.payload.size() >= 4) {
    auto src_port = static_cast<std::uint16_t>(
        (datagram.payload[0] << 8) | datagram.payload[1]);
    net::Endpoint source{datagram.header.src, src_port};
    if (table_.find(source) != table_.end()) {
      HN_INVARIANT(backup_leak,
                   !verify::backup_emitted(verify::flow_key(
                       source.address.value(), source.port)),
                   "backup-originated traffic for %s forwarded client-ward",
                   source.to_string().c_str());
    }
  }
#endif

  FragmentKey frag_key{datagram.header.src.value(), datagram.header.dst.value(),
                       datagram.header.identification,
                       static_cast<std::uint8_t>(datagram.header.protocol)};

  net::Endpoint service;
  if (datagram.header.fragment_offset != 0) {
    // Non-first fragment: no transport header; use the decision cached
    // when the first fragment passed by.
    auto cached = fragment_decisions_.find(frag_key);
    if (cached == fragment_decisions_.end()) return false;
    service = cached->second;
    stats_.fragment_cache_hits++;
    if (!datagram.header.more_fragments) fragment_decisions_.erase(cached);
  } else {
    // TCP and UDP both carry src/dst ports in their first 4 bytes.
    if (datagram.payload.size() < 4) return false;
    std::uint16_t dst_port = static_cast<std::uint16_t>(
        (datagram.payload[2] << 8) | datagram.payload[3]);
    service = net::Endpoint{datagram.header.dst, dst_port};
  }

  auto it = table_.find(service);
  if (it == table_.end()) {
    stats_.passed_through++;
    return false;
  }

  if (datagram.header.fragment_offset == 0 && datagram.header.more_fragments &&
      fragment_decisions_.size() < kMaxFragmentDecisions) {
    fragment_decisions_.emplace(frag_key, service);
  }

  stats_.redirected_datagrams++;
  tunnel_to(datagram, it->second);
  return true;
}

void Redirector::tunnel_to(const net::Datagram& datagram,
                           const ServiceEntry& entry) {
  const net::Ipv4Address tunnel_src = router_.ip().primary_address();
  // Fan-out span: the redirector intercepted one service datagram; each
  // tunnelled copy gets its own child so the per-replica paths stay
  // distinguishable downstream.
  std::uint64_t fanout =
      trace2::begin_child(router_.ip().trace_ring(), datagram.trace_ctx);
  sim::TimePoint fanout_start = router_.ip().scheduler().now();
  // Serialise the inner datagram exactly once; every tunnelled copy shares
  // that buffer and differs only in its own 20-byte outer header.
  PacketBuffer inner_wire = datagram.to_frame();
  stats_.inner_serializations++;
  std::uint32_t copies = 0;
  auto send_copy = [&](net::Ipv4Address host_server) {
    std::uint64_t copy = trace2::begin_child(router_.ip().trace_ring(), fanout);
    sim::TimePoint copy_start = router_.ip().scheduler().now();
    net::Datagram outer =
        net::encapsulate_ipip(inner_wire, tunnel_src, host_server);
    outer.trace_ctx = copy;
    stats_.copies_sent++;
    copies++;
    stats_.tunnelled_bytes += outer.size();
    (void)router_.ip().send(std::move(outer));
    trace2::commit(router_.ip().trace_ring(), copy, fanout,
                   trace2::span::kRedirectorCopy, copy_start,
                   host_server.value(),
                   static_cast<std::uint32_t>(inner_wire.size()));
  };

  send_copy(entry.primary);
  if (entry.mode == ServiceMode::fault_tolerant) {
    for (net::Ipv4Address backup : entry.backups) send_copy(backup);
  }
  trace2::commit(router_.ip().trace_ring(), fanout, datagram.trace_ctx,
                 trace2::span::kRedirectorFanout, fanout_start, copies,
                 static_cast<std::uint32_t>(inner_wire.size()));
}

}  // namespace hydranet::redirector
