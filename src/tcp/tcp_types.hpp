// Shared TCP types: states, connection keys, tunables, and the hook
// interface through which HydraNet-FT's ft-TCP machinery extends the stock
// stack (the in-simulation equivalent of the paper's kernel modifications).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/thread_annotations.hpp"
#include "net/address.hpp"
#include "net/tcp_header.hpp"
#include "sim/time.hpp"

namespace hydranet::tcp {

enum class TcpState {
  closed,
  listen,
  syn_sent,
  syn_rcvd,
  established,
  fin_wait_1,
  fin_wait_2,
  close_wait,
  closing,
  last_ack,
  time_wait,
};

const char* to_string(TcpState state);

/// The 4-tuple identifying a connection.  On replicated ports the local
/// address is the *service* (virtual host) address, so the same key
/// identifies the same client connection at every replica — which is what
/// lets ack-channel messages name connections across hosts.
struct ConnectionKey {
  net::Endpoint local;
  net::Endpoint remote;

  bool operator==(const ConnectionKey&) const = default;
  /// Ordering for deterministic iteration: connection sets live in hash
  /// maps, so anything that acts on "all connections" collects the keys
  /// and sorts them first (see the unordered-iteration lint).
  auto operator<=>(const ConnectionKey&) const = default;
  std::string to_string() const {
    return local.to_string() + "<->" + remote.to_string();
  }
};

/// Full 64-bit mix of the 4-tuple: both addresses and both ports reach
/// every output bit, so a power-of-two table can take its home slot from
/// the low bits (TcpStack's ConnectionTable does).  Client fleets differ
/// in a few address bits and count their ephemeral ports up from the same
/// base; a hash that only shifted and XORed the fields would pile such
/// keys onto a few home slots.
struct ConnectionKeyHash {
  std::size_t operator()(const ConnectionKey& k) const {
    std::uint64_t x =
        (static_cast<std::uint64_t>(k.local.address.value()) << 32) |
        k.remote.address.value();
    x ^= ((static_cast<std::uint64_t>(k.local.port) << 16) | k.remote.port) *
         0x9e3779b97f4a7c15ull;
    // SplitMix64 finaliser.
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Per-connection tunables (inherited from stack/listener defaults).
struct TcpOptions {
  std::size_t mss = 1460;
  std::size_t send_buffer_capacity = 64 * 1024;
  std::size_t recv_buffer_capacity = 64 * 1024;
  /// Disables sender-side batching of small segments (Nagle).  The paper's
  /// measurements run with batching off so that each application write
  /// becomes one wire segment.
  bool nodelay = false;
  /// Preserve application write boundaries: a segment never spans two
  /// write() calls (combined with nodelay, each write is one wire segment,
  /// which is how the paper's ttcp measurements define "packet size").
  bool packetize_writes = false;
  /// Selective acknowledgments (RFC 2018), negotiated on the handshake.
  /// Lets the sender repair multi-loss windows without go-back-N.
  bool sack = false;
  /// Delayed ACKs (RFC 1122 / classic BSD): acknowledge every second
  /// in-order segment, or after delayed_ack_timeout, instead of every
  /// segment.  Halves ACK traffic on one-way bulk flows.  Not meaningful
  /// on replicated (ft-TCP) ports, whose ACK timing is gate-driven.
  bool delayed_ack = false;
  /// Must stay well below min_rto, or a lone delayed ACK races the
  /// sender's retransmission timer into spurious retransmissions.
  sim::Duration delayed_ack_timeout = sim::milliseconds(100);
  sim::Duration min_rto = sim::milliseconds(200);
  sim::Duration max_rto = sim::seconds(60);
  /// 2*MSL bounds TIME_WAIT; kept short so simulations drain quickly.
  sim::Duration msl = sim::seconds(2);
  int max_retransmits = 12;
  sim::Duration zero_window_probe_interval = sim::milliseconds(500);
  /// Keepalive probing: after this much inactivity an ESTABLISHED
  /// connection sends a below-window probe to elicit a peer ACK.  Zero
  /// disables.  Keepalives never get their own scheduler event — they ride
  /// the per-slab-page coalesced tick (one scheduler entry serves 64
  /// connections), so a million idle connections cost O(pages) entries.
  sim::Duration keepalive_interval = sim::Duration{0};
  /// Routes the retransmission timer through the per-page coalesced tick
  /// too.  Deadline semantics are unchanged (the page tick fires at the
  /// earliest pending deadline on the page), but coalescing can reorder
  /// same-instant timer callbacks across connections sharing a page, so
  /// determinism-sensitive runs keep the default per-connection events.
  bool coalesce_timers = false;
};

class TcpConnection;

/// The §4.3 gates as stream positions: the successor high-water sequence
/// numbers the deposit and send gates would clamp to right now, read
/// without the stall tracking deposit_limit()/transmit_limit() do.  The
/// connection's invariant checks audit both streams against it (see
/// TcpConnection::check_gate_invariants), and nothing else reads it.
/// `unbounded` means the gate cannot bind at all (last in chain, or
/// pass-through).
struct GateMarks {
  std::uint32_t deposit_mark = 0;   ///< wire seq; deposit byte k iff k < mark
  std::uint32_t transmit_mark = 0;  ///< wire seq; send byte k iff k < mark
  bool deposit_unbounded = false;
  bool transmit_unbounded = false;
};

/// ft-TCP extension points, installed per replicated port.
///
/// A stock connection has no hooks: deposits are immediate, transmission is
/// bounded only by flow/congestion control, and all segments reach the
/// wire.  A replica connection is gated by its successor's acknowledgement
/// channel reports, exactly as in §4.3 of the paper.
class TcpConnectionHooks {
 public:
  virtual ~TcpConnectionHooks() = default;

  /// Receive gate: the sequence number *up to which* (exclusive) client
  /// data may be deposited into the application socket buffer.  Byte k may
  /// be deposited iff the successor reported ACK# > k; the last backup
  /// returns `in_order_end` (deposit everything available).
  HN_SHARD_AFFINE virtual std::uint32_t deposit_limit(
      const TcpConnection& connection,
                                      std::uint32_t in_order_end) = 0;

  /// Send gate: the sequence number up to which (exclusive) server data may
  /// be (virtually) transmitted.  Byte k may go out iff the successor
  /// reported SEQ# covering k; the last backup returns `window_limit`.
  HN_SHARD_AFFINE virtual std::uint32_t transmit_limit(
      const TcpConnection& connection,
                                       std::uint32_t window_limit) = 0;

  /// Filters every outgoing segment, given its header and payload length
  /// before any payload byte is read.  Returning false swallows it (backup
  /// behaviour: the flow-control fields have been observed and travel up
  /// the acknowledgement channel instead; no packet is ever built).
  HN_SHARD_AFFINE virtual bool filter_segment(TcpConnection& connection,
                                              const net::TcpHeader& header,
                                              std::size_t payload_len) = 0;

  /// Failure estimator input: a client retransmission was observed
  /// (duplicate data at or below rcv_nxt, or a duplicate SYN).
  HN_SHARD_AFFINE virtual void on_client_retransmission(
      TcpConnection& connection) = 0;

  /// Failure estimator input for server-push traffic: this replica's own
  /// retransmission timer fired (its data is not being acknowledged).
  /// With a client that only receives — a media stream, say — the client
  /// never retransmits, so the broken flow-control loop surfaces as the
  /// replicas' own timeouts instead.  (An extension beyond the paper's
  /// client-retransmission estimator; see DESIGN.md.)
  HN_SHARD_AFFINE virtual void on_retransmission_timeout(
      TcpConnection& connection) = 0;

  /// The connection reached ESTABLISHED (replica endpoint may announce
  /// its initial flow state up the channel).
  HN_SHARD_AFFINE virtual void on_established(TcpConnection& connection) = 0;

  /// Terminal cleanup: the connection left the stack's demux tables.
  HN_SHARD_AFFINE virtual void on_connection_closed(
      TcpConnection& connection) = 0;

  /// Fills `out` with the current gate marks and returns true.  The
  /// default returns false, which skips the connection's gate audits.
  HN_SHARD_AFFINE virtual bool gate_marks(const TcpConnection& connection,
                                          GateMarks& out) {
    (void)connection;
    (void)out;
    return false;
  }
};

/// Generates the initial send sequence number for a new connection.
/// Replicated ports use a deterministic function of the key so that every
/// replica of a connection speaks the same server-side sequence space — the
/// precondition for client-transparent failover.
using IssGenerator = std::function<std::uint32_t(const ConnectionKey&)>;

/// Deterministic ISS shared by all replicas of a service.
std::uint32_t deterministic_iss(const ConnectionKey& key);

}  // namespace hydranet::tcp
