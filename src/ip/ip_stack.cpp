#include "ip/ip_stack.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"
#include "net/tunnel.hpp"
#include "trace2/recorder.hpp"

namespace hydranet::ip {

namespace {
bool prefix_match(net::Ipv4Address prefix, int prefix_len,
                  net::Ipv4Address addr) {
  if (prefix_len == 0) return true;
  std::uint32_t mask =
      prefix_len == 32 ? 0xffffffffu : ~((1u << (32 - prefix_len)) - 1);
  return (addr.value() & mask) == (prefix.value() & mask);
}
}  // namespace

IpStack::IpStack(sim::Scheduler& scheduler, std::string node_name)
    : scheduler_(scheduler), node_name_(std::move(node_name)) {}

IpStack::~IpStack() {
  for (auto& [key, group] : reassembly_) scheduler_.cancel(group.expiry);
}

link::NetworkInterface& IpStack::add_interface(const std::string& name,
                                               net::Ipv4Address address,
                                               int prefix_len,
                                               std::size_t mtu) {
  assert(mtu >= net::Ipv4Header::kSize + 8);
  auto iface = std::make_unique<link::NetworkInterface>(
      node_name_ + "/" + name, address, prefix_len);
  link::NetworkInterface* raw = iface.get();
  raw->set_rx_handler(
      [this, raw](PacketBuffer frame) { on_frame(raw, std::move(frame)); });
  interfaces_.push_back(InterfaceEntry{std::move(iface), mtu});
  return *raw;
}

void IpStack::add_route(net::Ipv4Address prefix, int prefix_len,
                        net::Ipv4Address next_hop,
                        link::NetworkInterface* interface) {
  // `interface` may be null: the egress is then resolved through the
  // next-hop gateway's subnet at forwarding time.
  routes_.push_back(Route{prefix, prefix_len, next_hop, interface});
  // Keep longest prefixes first so lookup is a linear scan to first hit.
  std::stable_sort(routes_.begin(), routes_.end(),
                   [](const Route& a, const Route& b) {
                     return a.prefix_len > b.prefix_len;
                   });
}

void IpStack::add_default_route(net::Ipv4Address next_hop,
                                link::NetworkInterface* interface) {
  add_route(net::Ipv4Address(0), 0, next_hop, interface);
}

void IpStack::register_protocol(net::IpProto proto, ProtocolHandler handler) {
  protocols_[static_cast<std::uint8_t>(proto)] = std::move(handler);
}

void IpStack::add_local_alias(net::Ipv4Address address) {
  local_aliases_.insert(address);
}

void IpStack::remove_local_alias(net::Ipv4Address address) {
  local_aliases_.erase(address);
}

bool IpStack::is_local(net::Ipv4Address address) const {
  for (const auto& entry : interfaces_) {
    if (entry.interface->address() == address) return true;
  }
  return local_aliases_.contains(address);
}

net::Ipv4Address IpStack::primary_address() const {
  return interfaces_.empty() ? net::Ipv4Address()
                             : interfaces_.front().interface->address();
}

const IpStack::Route* IpStack::lookup_route(net::Ipv4Address dst) const {
  for (const auto& route : routes_) {
    if (prefix_match(route.prefix, route.prefix_len, dst)) return &route;
  }
  return nullptr;
}

link::NetworkInterface* IpStack::resolve_egress(net::Ipv4Address dst,
                                                std::size_t* mtu_out) const {
  auto find_by_subnet = [this](net::Ipv4Address addr,
                               std::size_t* mtu) -> link::NetworkInterface* {
    for (const auto& entry : interfaces_) {
      if (entry.interface->on_subnet(addr)) {
        if (mtu != nullptr) *mtu = entry.mtu;
        return entry.interface.get();
      }
    }
    return nullptr;
  };

  // Directly-attached subnets win over configured routes.
  if (auto* direct = find_by_subnet(dst, mtu_out)) return direct;

  const Route* route = lookup_route(dst);
  if (route == nullptr) return nullptr;
  if (route->interface != nullptr) {
    for (const auto& entry : interfaces_) {
      if (entry.interface.get() == route->interface) {
        if (mtu_out != nullptr) *mtu_out = entry.mtu;
        return route->interface;
      }
    }
    return nullptr;
  }
  // Gateway route: egress is the interface on the next hop's subnet.
  return find_by_subnet(route->next_hop, mtu_out);
}

void IpStack::charge_cpu(std::size_t bytes, sim::Scheduler::Callback work) {
  sim::Duration cost = cpu_.cost(bytes);
  if (cost.ns == 0) {
    work();
    return;
  }
  sim::TimePoint start = std::max(scheduler_.now(), cpu_free_);
  sim::TimePoint done = start + cost;
  cpu_free_ = done;
  scheduler_.schedule_at(done, std::move(work));
}

Status IpStack::send(net::Datagram datagram) {
  return send_with_ttl(std::move(datagram), net::Ipv4Header::kDefaultTtl);
}

Status IpStack::send_with_ttl(net::Datagram datagram, std::uint8_t ttl) {
  if (crashed_) {
    stats_.crashed_drops++;
    return Errc::no_route;
  }
  datagram.header.ttl = ttl;
  datagram.header.identification = next_identification_++;
  // No ambient-ctx fill here: the transport layer decides what a datagram
  // is caused by (TCP tags segments explicitly, UDP inherits the ambient
  // span at its own send).  Filling ctx 0 from the ambient context at this
  // layer would resurrect deliberately-untraced segments sent during
  // inbound processing and chain them into whatever trace triggered the
  // delivery — keeping sampled traces alive forever.

  if (is_local(datagram.header.dst)) {
    // Loopback delivery; still charge the CPU once.
    if (datagram.header.src.is_unspecified()) {
      datagram.header.src = datagram.header.dst;
    }
    stats_.sent++;
    // Evaluate the size before the capture moves the datagram out
    // (argument evaluation order is unspecified).
    std::size_t loop_bytes = datagram.size();
    charge_cpu(loop_bytes, [this, d = std::move(datagram)]() mutable {
      if (crashed_) return;
      deliver_local(std::move(d));
    });
    return Status::success();
  }

  // Route now so the caller learns about black holes synchronously; the
  // actual emission happens when the CPU gets to it.
  link::NetworkInterface* egress = resolve_egress(datagram.header.dst, nullptr);
  if (egress == nullptr) {
    stats_.no_route_drops++;
    return Errc::no_route;
  }
  if (datagram.header.src.is_unspecified()) {
    datagram.header.src = egress->address();
  }
  stats_.sent++;
  std::size_t wire_bytes = datagram.size();
  charge_cpu(wire_bytes, [this, d = std::move(datagram)]() mutable {
    if (crashed_) return;
    output(std::move(d));
  });
  return Status::success();
}

void IpStack::output(net::Datagram datagram) {
  std::size_t mtu = 0;
  link::NetworkInterface* egress = resolve_egress(datagram.header.dst, &mtu);
  if (egress == nullptr) {
    stats_.no_route_drops++;
    if (unroutable_handler_) unroutable_handler_(datagram);
    return;
  }

  if (datagram.size() <= mtu) {
    // Zero-copy emission: fresh 20-byte header chained to the shared
    // payload buffer.
    (void)egress->send(datagram.to_frame());
    return;
  }

  // Fragment: payload split at 8-byte-multiple boundaries.
  if (datagram.header.dont_fragment) {
    stats_.no_route_drops++;
    return;
  }
  const std::size_t max_payload = ((mtu - net::Ipv4Header::kSize) / 8) * 8;
  // view() gathers a chained payload (e.g. a tunnelled inner frame) into
  // one buffer once; each fragment is then a zero-copy slice of it.
  const CowBytes& payload = datagram.payload;
  (void)payload.view();
  const std::uint16_t base_offset = datagram.header.fragment_offset;
  const bool had_more = datagram.header.more_fragments;
  std::size_t offset = 0;
  while (offset < payload.size()) {
    std::size_t chunk = std::min(max_payload, payload.size() - offset);
    net::Datagram frag;
    frag.header = datagram.header;
    frag.header.fragment_offset =
        static_cast<std::uint16_t>(base_offset + offset / 8);
    frag.header.more_fragments =
        (offset + chunk < payload.size()) || had_more;
    frag.payload = payload.slice(offset, chunk);
    frag.trace_ctx = datagram.trace_ctx;
    frag.header.total_length =
        static_cast<std::uint16_t>(frag.size());
    stats_.fragments_sent++;
    (void)egress->send(frag.to_frame());
    offset += chunk;
  }
}

void IpStack::on_frame(link::NetworkInterface* interface, PacketBuffer frame) {
  (void)interface;
  if (crashed_) {
    stats_.crashed_drops++;
    return;
  }
  std::size_t frame_bytes = frame.size();
  charge_cpu(frame_bytes, [this, f = std::move(frame)]() mutable {
    if (crashed_) {
      stats_.crashed_drops++;
      return;
    }
    auto parsed = net::Datagram::parse(f);
    if (!parsed) {
      stats_.parse_drops++;
      return;
    }
    stats_.received++;
    process(std::move(parsed).value());
  });
}

void IpStack::process(net::Datagram datagram) {
  if (is_local(datagram.header.dst)) {
    if (datagram.header.is_fragment()) {
      stats_.fragments_received++;
      handle_fragment(std::move(datagram));
      return;
    }
    deliver_local(std::move(datagram));
    return;
  }

  if (forward_hook_ && forward_hook_(datagram)) return;
  forward(std::move(datagram));
}

void IpStack::forward(net::Datagram datagram) {
  if (datagram.header.ttl <= 1) {
    stats_.ttl_drops++;
    if (ttl_expired_handler_) ttl_expired_handler_(datagram);
    return;
  }
  datagram.header.ttl--;
  stats_.forwarded++;
  output(std::move(datagram));
}

void IpStack::deliver_local(net::Datagram datagram) {
  stats_.delivered_local++;

  if (datagram.header.protocol == net::IpProto::ipip) {
    auto inner = net::decapsulate_ipip(datagram);
    if (!inner) {
      stats_.parse_drops++;
      return;
    }
    // The inner datagram is processed as if it had just arrived; for a
    // host server, its destination is an installed virtual host.  It
    // continues the outer copy's trace (the redirector tags each
    // tunnelled copy with its own span).
    if (datagram.trace_ctx != 0) {
      inner.value().trace_ctx = datagram.trace_ctx;
    }
    process(std::move(inner).value());
    return;
  }

  auto it = protocols_.find(static_cast<std::uint8_t>(datagram.header.protocol));
  if (it == protocols_.end()) return;  // no listener: silently dropped
  // Demux runs synchronously; the frame's context becomes ambient for the
  // whole delivery chain (TCP input, ft-TCP gates, app callbacks).
  trace2::ScopedCtx ctx(datagram.trace_ctx);
  it->second(datagram.header, std::move(datagram.payload));
}

void IpStack::handle_fragment(net::Datagram datagram) {
  FragmentKey key{datagram.header.src.value(), datagram.header.dst.value(),
                  datagram.header.identification,
                  static_cast<std::uint8_t>(datagram.header.protocol)};
  FragmentGroup& group = reassembly_[key];
  if (group.chunks.empty()) {
    group.sample_header = datagram.header;
    group.expiry = scheduler_.schedule_after(reassembly_timeout_, [this, key] {
      stats_.reassembly_timeouts++;
      reassembly_.erase(key);
    });
  }
  std::uint32_t offset_bytes =
      static_cast<std::uint32_t>(datagram.header.fragment_offset) * 8;
  if (!datagram.header.more_fragments) {
    group.total_length =
        offset_bytes + static_cast<std::uint32_t>(datagram.payload.size());
  }
  if (group.trace_ctx == 0) group.trace_ctx = datagram.trace_ctx;
  group.chunks[offset_bytes] = std::move(datagram.payload);

  if (group.total_length == 0) return;  // final fragment not yet seen
  // Check contiguity from 0 to total_length.
  std::uint32_t have = 0;
  for (const auto& [offset, chunk] : group.chunks) {
    if (offset > have) return;  // gap
    have = std::max(have, offset + static_cast<std::uint32_t>(chunk.size()));
  }
  if (have < group.total_length) return;

  net::Datagram whole;
  whole.header = group.sample_header;
  whole.trace_ctx = group.trace_ctx;
  whole.header.more_fragments = false;
  whole.header.fragment_offset = 0;
  whole.payload.resize(group.total_length);
  for (const auto& [offset, chunk] : group.chunks) {
    std::copy(chunk.begin(), chunk.end(),
              whole.payload.begin() + offset);
  }
  whole.header.total_length =
      static_cast<std::uint16_t>(whole.size());
  scheduler_.cancel(group.expiry);
  reassembly_.erase(key);
  stats_.reassembled++;
  deliver_local(std::move(whole));
}

}  // namespace hydranet::ip
