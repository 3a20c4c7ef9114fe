// Per-node IP layer: interfaces, longest-prefix routing, TTL handling,
// forwarding, fragmentation/reassembly, IP-in-IP decapsulation, and local
// delivery demux — plus the two hooks HydraNet needs:
//
//   * local address aliases ("virtual hosts": the host server answers for
//     the origin host's IP), and
//   * a forwarding hook (the redirector data plane inspects datagrams in
//     transit and may consume them).
//
// Every datagram handled by the node is charged to a per-node CPU model so
// slow nodes (the paper's 486 redirector) become realistic bottlenecks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/packet_buffer.hpp"
#include "common/result.hpp"
#include "link/cpu_model.hpp"
#include "link/interface.hpp"
#include "net/ipv4.hpp"
#include "sim/scheduler.hpp"

namespace hydranet::trace2 {
class HostRing;
}

namespace hydranet::ip {

class IpStack {
 public:
  /// Called with a reassembled, locally-addressed datagram's header and
  /// payload for a registered protocol.  The payload is copy-on-write and
  /// borrows the received frame; handlers written against plain Bytes
  /// still work (they pay a copy on conversion).
  using ProtocolHandler =
      std::function<void(const net::Ipv4Header& header, CowBytes payload)>;

  /// Invoked for every datagram in transit (not locally addressed) before
  /// normal forwarding; returning true consumes the datagram.
  using ForwardHook = std::function<bool(const net::Datagram& datagram)>;

  /// Control-plane notifications (ICMP wiring): a datagram was dropped
  /// because its TTL expired here, or because no route matched.
  using DatagramHandler = std::function<void(const net::Datagram& datagram)>;

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t delivered_local = 0;
    std::uint64_t ttl_drops = 0;
    std::uint64_t no_route_drops = 0;
    std::uint64_t parse_drops = 0;
    std::uint64_t reassembly_timeouts = 0;
    std::uint64_t reassembled = 0;  ///< datagrams rebuilt from fragments
    std::uint64_t fragments_sent = 0;
    std::uint64_t fragments_received = 0;
    std::uint64_t crashed_drops = 0;
  };

  IpStack(sim::Scheduler& scheduler, std::string node_name);
  ~IpStack();

  IpStack(const IpStack&) = delete;
  IpStack& operator=(const IpStack&) = delete;

  const std::string& node_name() const { return node_name_; }
  sim::Scheduler& scheduler() { return scheduler_; }

  /// This host's span ring: null while tracing is off (see
  /// host::Network::enable_tracing).  TCP, the redirector and ft-TCP
  /// emit their spans through it.
  trace2::HostRing* trace_ring() const { return trace_ring_; }
  void set_trace_ring(trace2::HostRing* ring) { trace_ring_ = ring; }

  /// Creates an interface owned by this stack.  `mtu` bounds the size of
  /// serialised datagrams emitted on it; larger ones are fragmented.
  link::NetworkInterface& add_interface(const std::string& name,
                                        net::Ipv4Address address,
                                        int prefix_len, std::size_t mtu = 1500);

  /// Adds a route: datagrams for `prefix/prefix_len` leave via `interface`
  /// (next_hop is informational on our point-to-point links).
  void add_route(net::Ipv4Address prefix, int prefix_len,
                 net::Ipv4Address next_hop, link::NetworkInterface* interface);
  void add_default_route(net::Ipv4Address next_hop,
                         link::NetworkInterface* interface);

  void register_protocol(net::IpProto proto, ProtocolHandler handler);

  /// Virtual-host support: makes `address` locally delivered here.
  void add_local_alias(net::Ipv4Address address);
  void remove_local_alias(net::Ipv4Address address);
  bool is_local(net::Ipv4Address address) const;

  /// Source address of the first interface (convenience for single-homed
  /// hosts building datagrams).
  net::Ipv4Address primary_address() const;

  /// Queues `datagram` for transmission.  Fills in TTL and identification;
  /// if `datagram.header.src` is unspecified, the egress interface address
  /// is used.  Charges the CPU model.  Local destinations loop back.
  Status send(net::Datagram datagram);

  /// As send(), but with an explicit initial TTL (traceroute-style probes).
  Status send_with_ttl(net::Datagram datagram, std::uint8_t ttl);

  void set_forward_hook(ForwardHook hook) { forward_hook_ = std::move(hook); }
  void set_ttl_expired_handler(DatagramHandler handler) {
    ttl_expired_handler_ = std::move(handler);
  }
  void set_unroutable_handler(DatagramHandler handler) {
    unroutable_handler_ = std::move(handler);
  }
  void set_cpu_model(link::CpuModel model) { cpu_ = model; }

  /// Fail-stop crash injection: a crashed node drops everything, sends
  /// nothing, and fires no protocol handlers until revived.
  void set_crashed(bool crashed) { crashed_ = crashed; }
  bool is_crashed() const { return crashed_; }

  const Stats& stats() const { return stats_; }

  /// How long incomplete fragment groups are kept before being discarded.
  void set_reassembly_timeout(sim::Duration timeout) {
    reassembly_timeout_ = timeout;
  }

 private:
  struct InterfaceEntry {
    std::unique_ptr<link::NetworkInterface> interface;
    std::size_t mtu;
  };

  struct Route {
    net::Ipv4Address prefix;
    int prefix_len;
    net::Ipv4Address next_hop;
    link::NetworkInterface* interface;
  };

  struct FragmentKey {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint16_t id;
    std::uint8_t proto;
    bool operator==(const FragmentKey&) const = default;
  };
  struct FragmentKeyHash {
    std::size_t operator()(const FragmentKey& k) const {
      std::uint64_t h = k.src;
      h = h * 1000003 ^ k.dst;
      h = h * 1000003 ^ (static_cast<std::uint64_t>(k.id) << 8 | k.proto);
      return std::hash<std::uint64_t>{}(h);
    }
  };
  struct FragmentGroup {
    // offset (bytes) -> payload chunk (shares the fragment frame's buffer)
    std::map<std::uint32_t, CowBytes> chunks;
    std::uint32_t total_length = 0;  ///< payload length, known once MF=0 seen
    net::Ipv4Header sample_header;
    std::uint64_t trace_ctx = 0;  ///< first tagged fragment's trace context
    sim::TimerId expiry = sim::kInvalidTimer;
  };

  /// Charges the CPU and runs `work` when the virtual CPU gets to it.
  void charge_cpu(std::size_t bytes, sim::Scheduler::Callback work);

  void on_frame(link::NetworkInterface* interface, PacketBuffer frame);
  void process(net::Datagram datagram);
  void deliver_local(net::Datagram datagram);
  void forward(net::Datagram datagram);
  /// Fragments (if needed) and emits on the route's interface.  Does not
  /// charge CPU (callers already did).
  void output(net::Datagram datagram);
  const Route* lookup_route(net::Ipv4Address dst) const;
  /// Resolves the egress interface (and its MTU) for `dst`: directly
  /// attached subnet, explicit-interface route, or gateway route.
  link::NetworkInterface* resolve_egress(net::Ipv4Address dst,
                                         std::size_t* mtu_out) const;
  void handle_fragment(net::Datagram datagram);

  sim::Scheduler& scheduler_;
  std::string node_name_;
  trace2::HostRing* trace_ring_ = nullptr;
  std::vector<InterfaceEntry> interfaces_;
  std::vector<Route> routes_;
  std::unordered_map<std::uint8_t, ProtocolHandler> protocols_;
  std::unordered_set<net::Ipv4Address> local_aliases_;
  ForwardHook forward_hook_;
  DatagramHandler ttl_expired_handler_;
  DatagramHandler unroutable_handler_;
  link::CpuModel cpu_;
  sim::TimePoint cpu_free_{};
  bool crashed_ = false;
  std::uint16_t next_identification_ = 1;
  sim::Duration reassembly_timeout_ = sim::seconds(30);
  std::unordered_map<FragmentKey, FragmentGroup, FragmentKeyHash> reassembly_;
  Stats stats_;
};

}  // namespace hydranet::ip
