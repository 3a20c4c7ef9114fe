// Per-node TCP layer: segment demultiplexing, listeners, active opens, and
// the per-port replication options that realise the paper's setportopt()
// system call (§4.1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/slab.hpp"
#include "common/thread_annotations.hpp"
#include "ip/ip_stack.hpp"
#include "net/address.hpp"
#include "tcp/connection_table.hpp"
#include "tcp/tcp_connection.hpp"
#include "tcp/tcp_types.hpp"

namespace hydranet::tcp {

class TcpStack;

/// A passive (listening) socket.
class TcpListener {
 public:
  using AcceptHandler =
      std::function<void(std::shared_ptr<TcpConnection> connection)>;

  net::Endpoint local() const { return local_; }
  void close();

 private:
  friend class TcpStack;
  TcpListener(TcpStack& stack, net::Endpoint local, AcceptHandler handler,
              TcpOptions options)
      : stack_(&stack),
        local_(local),
        handler_(std::move(handler)),
        options_(options) {}

  TcpStack* stack_;
  net::Endpoint local_;
  AcceptHandler handler_;
  TcpOptions options_;
};

/// Role of a replica on a replicated TCP port (the paper's setportopt()).
enum class ReplicaMode { primary, backup };

class TcpStack {
 public:
  /// Per-port options installed by the ft-TCP layer.
  struct PortOptions {
    /// Gating hooks installed on every connection of this port.
    TcpConnectionHooks* hooks = nullptr;
    /// Derive the ISS deterministically from the 4-tuple so replicas share
    /// one server-side sequence space.
    bool deterministic_iss = false;
    /// Backups must stay silent: never RST a client segment that matches
    /// no connection (the primary speaks for the group).
    bool suppress_rst = false;
    /// Fired for a segment on this port that matches no connection (and
    /// opened none).  The ft-TCP layer uses this for pass-through reports:
    /// a freshly re-commissioned backup that does not know a connection
    /// must not stall its predecessor's gates.
    std::function<void(const net::Ipv4Header& header,
                       const net::TcpSegment& segment)>
        on_orphan_segment;
  };

  TcpStack(ip::IpStack& ip, std::uint64_t seed);
  ~TcpStack();

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Starts listening on (address, port); `address` may be unspecified
  /// (wildcard) or any local address/alias, including virtual hosts.
  Result<TcpListener*> listen(net::Ipv4Address address, std::uint16_t port,
                              TcpListener::AcceptHandler on_accept,
                              TcpOptions options = {});

  /// Active open to `remote`; `local_address` unspecified picks the node's
  /// primary address.  The returned connection is shared with the stack.
  Result<std::shared_ptr<TcpConnection>> connect(net::Ipv4Address local_address,
                                                 const net::Endpoint& remote,
                                                 TcpOptions options = {});

  /// Overrides the random ISS for non-replicated connections (test and
  /// experiment support, e.g. forcing sequence-number wrap-around).
  /// Replicated ports keep their deterministic 4-tuple derivation.
  void set_iss_generator(IssGenerator generator) {
    iss_generator_ = std::move(generator);
  }

  /// The paper's setportopt(): marks `port` as replicated and installs the
  /// gating hooks for its connections.
  void set_port_options(std::uint16_t port, PortOptions options);
  const PortOptions* port_options(std::uint16_t port) const;

  std::shared_ptr<TcpConnection> find_connection(const ConnectionKey& key);
  std::size_t connection_count() const { return connections_.size(); }
  /// Bytes of the per-connection demux state: the connection table's entry
  /// array and the per-slot page-tick deadlines (bench_connection_scale
  /// reports both next to the slab's bytes per connection).
  std::size_t demux_table_bytes() const {
    return connections_.bytes_reserved();
  }
  std::size_t deadline_bytes() const {
    return slot_due_.size() * sizeof(sim::TimePoint);
  }

  /// The slab arena all of this stack's connections live in (flat-memory
  /// accounting for bench_connection_scale; page iteration for the
  /// coalesced per-page timers).
  SlabArena<TcpConnection>& arena() { return arena_; }
  const SlabArena<TcpConnection>& arena() const { return arena_; }

  /// Node-wide TCP counters: every live connection plus everything
  /// accumulated from connections already torn down.
  TcpConnection::Stats aggregate_stats() const;

  /// Stack-level congestion-window histogram.  Connections observe here
  /// directly instead of each carrying their own bucket vectors — the
  /// merged view is the only one ever published (`tcp.cwnd_bytes`).
  void observe_cwnd(double cwnd_bytes) { cwnd_hist_.observe(cwnd_bytes); }
  const stats::Histogram& cwnd_histogram() const { return cwnd_hist_; }

  ip::IpStack& ip() { return ip_; }
  sim::Scheduler& scheduler() { return ip_.scheduler(); }

  // --- internal interface used by TcpConnection/TcpListener ---
  std::uint32_t generate_iss(const ConnectionKey& key, bool deterministic);
  void remove_connection(const ConnectionKey& key);
  void notify_established(TcpConnection& connection);
  void remove_listener(const net::Endpoint& endpoint);

  /// Coalesced timers: asks for the page's shared tick to fire no later
  /// than `when`.  One scheduler event serves all 64 connections on a slab
  /// page (keepalives always; RTOs under TcpOptions::coalesce_timers), so
  /// idle connections cost O(pages) scheduler entries, not O(conns).
  void request_page_tick(std::size_t page, sim::TimePoint when);
  /// Records the page_tick_deadline() of the connection in `slot`.  The
  /// connection calls this whenever an input of that deadline changes, so
  /// a page tick visits exactly the connections that are due.
  void set_page_deadline(std::uint32_t slot, sim::TimePoint due) {
    slot_due_[slot] = due;
  }

 private:
  /// All listeners sharing one port: the usual case is a single wildcard
  /// OR a single exact binding, so SYN demux is one hash probe on the port
  /// plus (at most) a short scan of exact bindings.
  struct PortListeners {
    std::vector<std::pair<net::Ipv4Address, std::unique_ptr<TcpListener>>>
        exact;
    std::unique_ptr<TcpListener> wildcard;
    bool empty() const { return exact.empty() && wildcard == nullptr; }
  };

  HN_SHARD_AFFINE void on_segment_datagram(const net::Ipv4Header& header,
                                           CowBytes payload);
  TcpListener* find_listener(net::Ipv4Address address, std::uint16_t port);
  void send_reset_for(const net::Ipv4Header& header,
                      const net::TcpSegment& segment);
  /// O(1) amortised ephemeral allocation: a rotating next-port counter over
  /// [32768, 65535] skipping ports with live connections (tracked by
  /// refcount, BSD-style — one connection per local port).  Returns 0 when
  /// the whole range is in use.
  std::uint16_t allocate_ephemeral_port();
  void track_local_port(std::uint16_t port, int delta);

  /// Constructs a connection in the arena and records its slot index.
  std::shared_ptr<TcpConnection> make_connection(const ConnectionKey& key,
                                                 const TcpOptions& options);

  /// One coalesced timer per slab page (see request_page_tick).
  struct PageTick {
    sim::TimerId timer = sim::kInvalidTimer;
    sim::TimePoint deadline{};
    bool armed = false;
  };
  /// Hot-path effect root (DESIGN.md §12): one dense scan of the page's
  /// 64 cached deadlines, visiting only the connections that are due.
  HN_SHARD_AFFINE void on_page_tick(std::size_t page) HN_NONBLOCKING;
#if HYDRANET_INVARIANTS
  /// sched_order: every live slot's cached deadline is its connection's
  /// page_tick_deadline() (the tick trusts the cache to pick whom to
  /// visit and when to come back).
  void check_page_deadlines(std::size_t page) const;
#endif

  ip::IpStack& ip_;
  Rng rng_;
  IssGenerator iss_generator_;
  SlabArena<TcpConnection> arena_;
  /// Demux by 4-tuple; an entry also names the listener a passive open
  /// still awaits its accept callback from.
  ConnectionTable connections_;
  std::unordered_map<std::uint16_t, PortListeners> listeners_;
  std::unordered_map<std::uint16_t, PortOptions> port_options_;
  /// Live connections per local port (all of them, not just ephemeral:
  /// also steers allocation away from service ports in the range).
  std::unordered_map<std::uint16_t, std::uint32_t> local_port_refs_;
  TcpConnection::Stats closed_stats_;  ///< summed from removed connections
  stats::Histogram cwnd_hist_{stats::cwnd_buckets()};
  std::vector<PageTick> page_ticks_;  ///< indexed by arena page
  /// page_tick_deadline() of the connection in each arena slot.  A
  /// connection's last rewrite, on close, leaves sim::kTimePointMax, so a
  /// vacated slot is never due.  Grows a page at a time with the arena.
  std::vector<sim::TimePoint> slot_due_;
  std::uint16_t next_ephemeral_ = 32768;
};

}  // namespace hydranet::tcp
