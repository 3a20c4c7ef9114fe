// The heart of HydraNet-FT (§4): one ReplicatedService object per
// replicated TCP port on a host — the in-simulation realisation of the
// paper's modified TCP machinery.
//
// It implements the TcpConnectionHooks gating contract:
//
//   * receive gate   — server Si deposits byte k of the client stream only
//                      after its successor Si+1 reported ACK# > k; the last
//                      backup deposits immediately;
//   * send gate      — Si (virtually) transmits byte k only after Si+1
//                      reported SEQ# covering k; the last backup transmits
//                      immediately;
//   * backup silence — every outgoing packet of a backup is stripped to its
//                      flow-control fields, which travel the one-way UDP
//                      acknowledgement channel to the predecessor; the
//                      packet itself is discarded.  Only the primary talks
//                      to the client;
//   * failure estimation — client retransmissions without progress raise a
//                      failure signal toward the management protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "common/slab.hpp"
#include "common/thread_annotations.hpp"
#include "ftcp/ack_channel.hpp"
#include "ftcp/failure_detector.hpp"
#include "host/host.hpp"
#include "stats/metrics.hpp"
#include "tcp/tcp_connection.hpp"
#include "tcp/tcp_stack.hpp"
#include "tcp/tcp_types.hpp"

namespace hydranet::ftcp {

class ReplicatedService final : public tcp::TcpConnectionHooks {
 public:
  struct Config {
    net::Endpoint service;  ///< virtual-host address + replicated port
    tcp::ReplicaMode mode = tcp::ReplicaMode::backup;
    DetectorParams detector;
    /// Backups re-announce all connection states to their predecessor at
    /// this period (recovers ack-channel losses; bounds reconfiguration
    /// stalls).
    sim::Duration refresh_interval = sim::milliseconds(50);
  };

  /// Raised when the failure estimator fires on some connection.
  struct FailureSignal {
    net::Endpoint service;
    tcp::ConnectionKey connection;
    /// True when this replica's own gates are blocked waiting for its
    /// successor (points reconfiguration at the successor).
    bool blocked_on_successor = false;
    std::optional<net::Ipv4Address> successor;
  };
  using FailureCallback = std::function<void(const FailureSignal&)>;

  ReplicatedService(host::Host& host, AckChannel& channel, Config config);
  ~ReplicatedService() override;

  ReplicatedService(const ReplicatedService&) = delete;
  ReplicatedService& operator=(const ReplicatedService&) = delete;

  // ---- control plane (driven by the replica-management protocol) --------

  /// Where this replica's flow-control reports go (toward the primary).
  void set_predecessor(std::optional<net::Ipv4Address> host_address);
  /// Whose reports gate this replica (away from the primary); nullopt
  /// makes this replica the last in the chain (ungated).
  void set_successor(std::optional<net::Ipv4Address> host_address);
  /// Fail-over: this backup becomes the primary — it starts answering the
  /// client and replays everything unacknowledged.
  HN_SHARD_AFFINE void promote_to_primary();
  /// This replica is being removed (failure shut-down or voluntary leave):
  /// abort its connections and uninstall the port machinery.
  void shutdown();

  void set_failure_callback(FailureCallback callback) {
    failure_callback_ = std::move(callback);
  }

  tcp::ReplicaMode mode() const { return config_.mode; }
  const net::Endpoint& service() const { return config_.service; }
  std::optional<net::Ipv4Address> predecessor() const { return predecessor_; }
  std::optional<net::Ipv4Address> successor() const { return successor_; }

  // ---- TcpConnectionHooks ------------------------------------------------

  HN_SHARD_AFFINE std::uint32_t deposit_limit(
      const tcp::TcpConnection& connection,
                              std::uint32_t in_order_end) override;
  HN_SHARD_AFFINE std::uint32_t transmit_limit(
      const tcp::TcpConnection& connection,
                               std::uint32_t window_limit) override;
  HN_SHARD_AFFINE bool filter_segment(tcp::TcpConnection& connection,
                                      const net::TcpHeader& header,
                                      std::size_t payload_len) override;
  HN_SHARD_AFFINE void on_client_retransmission(
      tcp::TcpConnection& connection) override;
  HN_SHARD_AFFINE void on_retransmission_timeout(
      tcp::TcpConnection& connection) override;
  HN_SHARD_AFFINE void on_established(tcp::TcpConnection& connection) override;
  HN_SHARD_AFFINE void on_connection_closed(
      tcp::TcpConnection& connection) override;
  HN_SHARD_AFFINE bool gate_marks(const tcp::TcpConnection& connection,
                  tcp::GateMarks& out) override;

  // ---- introspection (tests, benches) ------------------------------------

  struct ConnectionInfo {
    bool has_successor_info = false;
    bool passthrough = false;
    std::uint32_t successor_snd_nxt = 0;
    std::uint32_t successor_rcv_nxt = 0;
  };
  std::optional<ConnectionInfo> connection_info(
      const tcp::ConnectionKey& key) const;
  std::size_t tracked_connections() const { return connections_.size(); }
  std::uint64_t failure_signals_raised() const { return signals_raised_; }

  /// Gating observability: how often each ft-TCP gate closed (held back
  /// data the stock stack would have moved) and for how long.
  struct GateStats {
    std::uint64_t deposit_stalls = 0;  ///< deposit gate closed (count)
    std::uint64_t send_stalls = 0;     ///< send gate closed (count)
    stats::Histogram deposit_stall_ms{stats::stall_ms_buckets()};
    stats::Histogram send_stall_ms{stats::stall_ms_buckets()};
  };
  const GateStats& gate_stats() const { return gate_stats_; }

#if HYDRANET_INVARIANTS
  /// Negative-test hook: lets this replica emit segments even as a backup,
  /// deliberately violating §4.3 backup silence so tests can observe the
  /// invariant checker fire (and the redirector flag the leaked flow).
  void test_force_emission(bool force) { test_force_emission_ = force; }
#endif

 private:
  struct ConnState {
    bool has_info = false;
    bool passthrough = false;
    std::uint32_t succ_snd_nxt = 0;
    std::uint32_t succ_rcv_nxt = 0;
    bool reported = false;
    std::uint32_t reported_snd = 0;
    std::uint32_t reported_rcv = 0;
    RetransmissionDetector detector{DetectorParams{}};
    /// Send-side estimator: counts this replica's own RTOs (progress
    /// marker: snd_una).  Covers server-push traffic, where the client
    /// never retransmits.
    RetransmissionDetector send_detector{DetectorParams{}};
    sim::TimePoint last_activity{};
    /// Open stall intervals (set while the corresponding gate binds).
    std::optional<sim::TimePoint> deposit_blocked_since;
    std::optional<sim::TimePoint> send_blocked_since;
    /// Trace context captured when each stall opened, so the stall span
    /// committed at close parents into the delivery that hit the gate.
    std::uint64_t deposit_wait_ctx = 0;
    std::uint64_t send_wait_ctx = 0;
  };

  /// Opens/closes one gate's stall interval as its binding state flips.
  /// A closing interval is also committed as a `span_name` span tagged
  /// with the connection's client port (`conn_tag`).
  void track_gate(std::optional<sim::TimePoint>& blocked_since,
                  std::uint64_t& wait_ctx, std::uint64_t& stalls,
                  stats::Histogram& stall_ms, bool binding,
                  const char* span_name, std::uint32_t conn_tag);

  void raise_failure_signal(tcp::TcpConnection& connection, ConnState& state);

  void install_port_options();
  HN_SHARD_AFFINE void on_channel_message(const net::Endpoint& from,
                          const AckChannelMessage& message);
  HN_SHARD_AFFINE void on_orphan_segment(const net::Ipv4Header& header,
                         const net::TcpSegment& segment);
  void report(const tcp::ConnectionKey& key, std::uint32_t snd_nxt,
              std::uint32_t rcv_nxt, bool passthrough);
  HN_SHARD_AFFINE void refresh();
  /// Immediately re-reports all live connection states to the predecessor.
  void refresh_now();
  void poke_connections();
  ConnState& state_for(const tcp::ConnectionKey& key);
  std::shared_ptr<tcp::TcpConnection> live_connection(
      const tcp::ConnectionKey& key);

  host::Host& host_;
  AckChannel& channel_;
  Config config_;
  std::optional<net::Ipv4Address> predecessor_;
  std::optional<net::Ipv4Address> successor_;
  FailureCallback failure_callback_;
  /// Gate states live in a slab (like the TCP connections they shadow):
  /// churn recycles slots instead of hitting the allocator, and the flat
  /// page footprint is visible through `datapath.slab.*`.
  SlabArena<ConnState> state_arena_;
  std::unordered_map<tcp::ConnectionKey, SlabArena<ConnState>::UniquePtr,
                     tcp::ConnectionKeyHash>
      connections_;
  sim::TimerId refresh_timer_ = sim::kInvalidTimer;
  bool shut_down_ = false;
  std::uint64_t signals_raised_ = 0;
  GateStats gate_stats_;
#if HYDRANET_INVARIANTS
  bool test_force_emission_ = false;
#endif
};

}  // namespace hydranet::ftcp
