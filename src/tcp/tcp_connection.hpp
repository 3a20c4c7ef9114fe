// One TCP connection: the full RFC 793 state machine with flow control,
// retransmission, fast retransmit, and slow-start/congestion-avoidance —
// plus the ft-TCP gating hooks HydraNet-FT installs on replicated ports.
//
// Stream offsets are tracked in 64 bits internally (exact for connections
// carrying < 4 GiB, far beyond any simulated experiment); wire headers use
// the usual 32-bit sequence numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/bytes.hpp"
#include "common/effect_annotations.hpp"
#include "common/result.hpp"
#include "common/ring_queue.hpp"
#include "common/slab.hpp"
#include "net/tcp_header.hpp"
#include "sim/scheduler.hpp"
#include "stats/metrics.hpp"
#include "tcp/reassembly.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/tcp_types.hpp"

namespace hydranet::tcp {

class TcpStack;

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  struct Stats {
    std::uint64_t segments_sent = 0;      ///< includes swallowed (backup) ones
    std::uint64_t segments_received = 0;
    std::uint64_t segments_swallowed = 0; ///< filtered by ft hooks
    std::uint64_t bytes_sent_app = 0;
    std::uint64_t bytes_received_app = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t timeouts = 0;           ///< RTO firings
    std::uint64_t duplicate_segments_seen = 0;
    std::uint64_t dup_acks = 0;           ///< duplicate ACKs received
    std::uint64_t zero_window_probes = 0;
    std::uint64_t sack_retransmits = 0;  ///< hole repairs from the scoreboard
    std::uint64_t keepalives_sent = 0;   ///< idle probes off the page tick
    /// Always 0: every segment takes the one input path (on_segment).
    /// Kept only because the perfbench harness still reads them.
    std::uint64_t fastpath_hits = 0;
    std::uint64_t fastpath_misses = 0;
    /// Accumulates `other` into this (per-node aggregation across
    /// connections; see TcpStack::aggregate_stats()).  The congestion
    /// window histogram is not here: connections observe into one
    /// stack-level histogram (TcpStack::cwnd_histogram()) directly, so a
    /// million connections don't each carry two bucket vectors for a
    /// diagnostic that is only ever read merged.
    void merge(const Stats& other);
  };

  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // ---- application interface -------------------------------------------

  /// Appends up to data.size() bytes to the send buffer; returns the number
  /// accepted (0 with would_block when the buffer is full).
  Result<std::size_t> send(BytesView data);

  /// Reads up to `max` bytes from the receive buffer.  An empty result
  /// means EOF (peer closed); would_block means no data yet.
  Result<Bytes> recv(std::size_t max);

  /// Bytes available to recv() right now: the ring up to RCV.NXT.
  std::size_t readable_bytes() const { return readable_.size() - held_; }
  /// Free space in the send buffer.
  std::size_t send_capacity() const;
  /// True once the peer's FIN has been consumed (EOF delivered).
  bool eof() const { return eof_delivered_; }

  /// Graceful close: sends FIN after queued data drains.
  void close();
  /// Hard reset: sends RST and tears down immediately.
  void abort();
  /// Tears down without telling the peer anything (fail-stop semantics:
  /// a replica eliminated from a HydraNet-FT set must simply go silent —
  /// an RST from it would destroy the client's connection to the
  /// surviving replicas).
  void quiet_teardown() { enter_closed(Errc::ok); }

  // Event callbacks (all optional).  They fire from inside the event loop.
  void set_on_established(std::function<void()> cb) { on_established_ = std::move(cb); }
  void set_on_readable(std::function<void()> cb) { on_readable_ = std::move(cb); }
  void set_on_writable(std::function<void()> cb) { on_writable_ = std::move(cb); }
  /// Fires once, when the connection fully closes; Errc::ok for a clean
  /// close, otherwise the failure reason.
  void set_on_closed(std::function<void(Errc)> cb) { on_closed_ = std::move(cb); }

  /// Drops all app-facing callbacks.  Handlers routinely capture the
  /// connection's own shared_ptr (pump lambdas), which would cycle and pin
  /// the slab slot forever; the stack calls this one event after removal,
  /// when no handler can still be on the call stack.
  void release_app_callbacks() {
    on_established_ = nullptr;
    on_readable_ = nullptr;
    on_writable_ = nullptr;
    on_closed_ = nullptr;
  }

  // ---- introspection ----------------------------------------------------

  TcpState state() const { return state_; }
  const ConnectionKey& key() const { return key_; }
  const Stats& stats() const { return stats_; }
  const TcpOptions& options() const { return options_; }

  /// Slab-slot index within the stack's connection arena (page =
  /// slot / SlabArena<>::kPageSlots); the coalesced-timer machinery keys
  /// page membership off this.
  std::uint32_t slab_slot() const { return slab_slot_; }

  std::uint32_t iss() const { return iss_; }
  std::uint32_t irs() const { return irs_; }
  /// Wire-format snapshot of the flow-control state (what the ft-TCP
  /// acknowledgement channel carries).
  std::uint32_t snd_nxt_wire() const { return off_to_seq_snd(snd_nxt_); }
  std::uint32_t rcv_nxt_wire() const { return off_to_seq_rcv(rcv_nxt_); }
  std::uint32_t snd_una_wire() const { return off_to_seq_snd(snd_una_); }

  std::size_t cwnd() const { return cwnd_; }
  std::size_t flight_size() const { return snd_nxt_ - snd_una_; }
  /// Application bytes accepted but not yet put on the wire (what a
  /// binding ft-TCP send gate is holding back).
  std::uint64_t unsent_bytes() const {
    std::uint64_t end = send_data_base_ + send_data_.size();
    return end > snd_nxt_ ? end - snd_nxt_ : 0;
  }

  /// Bytes that arrived in order but are held back from the application
  /// by the ft-TCP deposit gate (zero on stock connections).  They wait at
  /// the receive ring's tail, past RCV.NXT.
  std::size_t undeposited_in_order() const { return held_; }

  // ---- ft-TCP interface (used by the hydranet::ftcp layer) --------------

  /// Installs/replaces the gating hooks (nullptr restores stock TCP).
  void set_hooks(TcpConnectionHooks* hooks) { hooks_ = hooks; }
  TcpConnectionHooks* hooks() const { return hooks_; }

  /// Re-evaluates the deposit and transmit gates; called when the
  /// acknowledgement channel delivers fresh successor state.
  void on_gate_update();

  /// Fail-over support: a backup promoted to primary replays everything the
  /// old primary may not have delivered — go-back-N from snd_una — and
  /// re-announces its ACK state to the client.
  void resend_unacknowledged();

  /// Converts a wire sequence number on the send (receive) stream to the
  /// 64-bit internal offset.  Exposed for the ftcp gating layer.
  std::uint64_t seq_to_off_snd(std::uint32_t seq) const;
  std::uint64_t seq_to_off_rcv(std::uint32_t seq) const;

#if HYDRANET_INVARIANTS
  /// Negative-test hook: deposits `len` fabricated bytes past the granted
  /// window, then runs the post-segment stream checks (tcp_stream).  Does
  /// nothing while the deposit gate holds bytes, since it appends at the
  /// receive ring's tail.
  void test_deposit_out_of_window(std::size_t len);
  /// Negative-test hook: moves the deposited extent `len` bytes past the
  /// successor's ACK mark (a gate-bound connection only), runs the
  /// post-deposit gate checks (gate_deposit), then moves it back so the
  /// connection carries on unharmed.
  void test_deposit_past_gate(std::size_t len);
  /// Negative-test hook: moves the transmitted extent `len` bytes past the
  /// successor's SEQ mark (a gate-bound connection only), runs the gate
  /// checks (gate_send), then moves it back.
  void test_send_past_gate(std::size_t len);
  /// Negative-test hook: overwrites this connection's cached page-tick
  /// deadline with `forged` without touching its inputs — the missed
  /// rewrite the page tick's sched_order check exists to catch.
  void test_forge_page_deadline(sim::TimePoint forged);
#endif

 private:
  friend class TcpStack;
  // The slab arena placement-constructs connections; nothing else may —
  // run_static.py bans direct heap allocation of this type.
  friend class hydranet::SlabArena<TcpConnection>;

  TcpConnection(TcpStack& stack, ConnectionKey key, TcpOptions options);

  // Entry points from the stack.
  void start_connect();                       // active open (sends SYN)
  void start_passive(std::uint32_t iss, const net::TcpSegment& syn);
  /// The one TCP input path: every segment for this connection.
  /// Hot-path effect root (DESIGN.md §12): allocation-free against warm
  /// pools and receive rings, no locks, no I/O; loss recovery and
  /// reordering are escaped cold paths.
  void on_segment(const net::TcpSegment& segment) HN_NONBLOCKING;

  // Segment processing helpers.
#if HYDRANET_INVARIANTS
  /// Post-segment stream sanity.
  void check_stream_invariants(std::uint64_t rcv_nxt_before,
                               std::uint64_t snd_una_before) const;
  /// Confirms neither stream ran past the marks the gates clamp to.
  void check_gate_invariants();
#endif
  void process_syn_sent(const net::TcpSegment& segment);
  void process_general(const net::TcpSegment& segment);
  bool sequence_acceptable(const net::TcpSegment& segment) const;
  void process_ack(const net::TcpSegment& segment);
  void process_payload(const net::TcpSegment& segment);
  /// Moves RCV.NXT over the held bytes as far as the deposit gate allows.
  void deposit_in_order();
  void maybe_consume_fin();

  // Output path.
  void output();
  /// Sends the segment at `seq_off` carrying `len` send-buffer bytes.  The
  /// ft hook filters its header first; only a segment that reaches the wire
  /// has its payload read, once, from the send ring into the wire buffer.
  void send_segment(std::uint64_t seq_off, std::size_t len, bool syn,
                    bool fin, bool ack, bool psh);
  void send_pure_ack();
  void send_rst(std::uint32_t seq);
  void schedule_output();

  // Timer management.
  void arm_rto();
  void cancel_rto();
  void on_rto();
  /// Re-sends one segment's worth from the oldest unacknowledged byte
  /// (SYN/FIN/data, per the connection's state).
  void retransmit_one_segment();
  /// SACK repair: retransmits one segment into the first un-sacked hole at
  /// or after the hole cursor.  Returns false when no hole remains.
  bool retransmit_next_hole();
  /// Merges one sacked offset range into the scoreboard.
  void sack_merge(std::uint64_t left, std::uint64_t right);

 public:
  bool sack_negotiated() const { return sack_enabled_; }

 private:
  void arm_probe();
  void on_probe();
  void enter_time_wait();

  // Coalesced per-page tick (driven by TcpStack; see
  // TcpStack::request_page_tick).  A connection never schedules its own
  // keepalive event: it publishes a deadline and the stack runs one
  // scheduler event per 64-slot slab page.
  /// Earliest instant this connection wants the page tick to visit it
  /// (sim::kTimePointMax = never).  Its inputs are state_, last_activity_
  /// and the coalesced-RTO fields; whatever writes one of them calls
  /// refresh_page_deadline(), so the stack's cached copy stays exact.
  sim::TimePoint page_tick_deadline() const;
  void refresh_page_deadline();
  void set_state(TcpState state);
  /// Restarts the keepalive clock (a segment moved in either direction).
  void note_activity();
  /// Fires whichever coalesced deadlines have passed.  Hot-path effect
  /// root together with TcpStack::on_page_tick (DESIGN.md §12).
  void on_page_tick(sim::TimePoint now) HN_NONBLOCKING;
  void send_keepalive_probe();
  void request_page_tick(sim::TimePoint when);

  // Lifecycle.
  void enter_established();
  void enter_closed(Errc reason);
  void deliver_eof_if_ready();
  void notify_readable();
  void notify_writable();

  std::uint16_t effective_mss() const;
  std::size_t advertised_window() const;
  /// Window to put on the wire: the free space, but never letting the
  /// granted right edge retract (RFC 793 forbids shrinking the window on
  /// data already in flight — with ft-TCP gating the free space can drop
  /// while rcv_nxt is held, which must not invalidate granted sequence
  /// space).  Updates rcv_granted_.
  std::uint16_t window_to_advertise();
  /// The granted right edge used for acceptance tests.
  std::uint64_t acceptance_window_end() const;
  std::uint32_t off_to_seq_snd(std::uint64_t off) const;
  std::uint32_t off_to_seq_rcv(std::uint64_t off) const;

  TcpStack& stack_;
  sim::Scheduler& scheduler_;
  ConnectionKey key_;
  std::uint32_t slab_slot_ = 0;  ///< index in TcpStack::arena_
  TcpOptions options_;
  TcpState state_ = TcpState::closed;
  TcpConnectionHooks* hooks_ = nullptr;

  // The last write's span.app.write root (0 when that write was sampled
  // out): the parent for segmentize spans until the next write resets it
  // (src/trace2).
  std::uint64_t trace_root_ctx_ = 0;

  // --- send state (offsets are bytes since ISS; SYN occupies offset 0,
  //     data starts at offset 1, FIN occupies the offset after the data) ---
  std::uint32_t iss_ = 0;
  std::uint64_t snd_una_ = 0;   ///< oldest unacknowledged offset
  std::uint64_t snd_nxt_ = 0;   ///< next offset to transmit
  std::uint64_t snd_max_ = 0;   ///< highest offset ever transmitted
  std::size_t snd_wnd_ = 0;     ///< peer's advertised window
  std::uint64_t snd_wl1_ = 0;   ///< seq offset of last window update
  std::uint64_t snd_wl2_ = 0;   ///< ack offset of last window update
  RingQueue<std::uint8_t> send_data_;  ///< unacked+unsent app bytes
  std::uint64_t send_data_base_ = 1;   ///< offset of send_data_.front()
  RingQueue<std::uint64_t> write_boundaries_;  ///< when packetize_writes
  bool fin_queued_ = false;
  std::uint64_t fin_off_ = 0;   ///< offset of our FIN once determined

  // --- receive state (offsets are bytes since IRS, same convention) ---
  std::uint32_t irs_ = 0;
  std::uint64_t rcv_nxt_ = 0;   ///< deposited extent (what we acknowledge)
  std::uint64_t rcv_granted_ = 0;  ///< right edge of the window ever granted
  ReassemblyBuffer reassembly_; ///< islands past the first gap
  /// Every in-order byte not yet read: the deposited ones, then the
  /// `held_` bytes the deposit gate keeps behind RCV.NXT at the tail.
  RingQueue<std::uint8_t> readable_;
  std::size_t held_ = 0;
  bool fin_received_ = false;
  std::uint64_t peer_fin_off_ = 0;  ///< offset of the peer's FIN
  bool eof_delivered_ = false;

  // --- congestion control (Reno-style) ---
  std::size_t cwnd_ = 0;
  std::size_t ssthresh_ = 0;
  int dup_acks_ = 0;

  // --- SACK (RFC 2018) ---
  bool sack_enabled_ = false;  ///< negotiated on the handshake
  /// Sacked [start, end) offset ranges above snd_una (sorted, disjoint).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> scoreboard_;
  std::uint64_t sack_hole_cursor_ = 0;  ///< next hole to repair

  // --- RTT / RTO ---
  RttEstimator rtt_;
  bool rtt_sampling_ = false;
  std::uint64_t rtt_sample_off_ = 0;
  sim::TimePoint rtt_sample_sent_at_{};
  int rto_backoff_ = 0;
  int consecutive_timeouts_ = 0;

  // --- timers / pending events ---
  /// Last instant a segment moved on this connection (either direction);
  /// the keepalive clock.
  sim::TimePoint last_activity_{};
  /// RTO deadline when riding the coalesced page tick
  /// (options_.coalesce_timers); rto_timer_ stays invalid in that mode.
  bool rto_armed_coalesced_ = false;
  sim::TimePoint rto_deadline_{};
  sim::TimerId rto_timer_ = sim::kInvalidTimer;
  sim::TimerId probe_timer_ = sim::kInvalidTimer;
  sim::TimerId time_wait_timer_ = sim::kInvalidTimer;
  sim::TimerId output_event_ = sim::kInvalidTimer;
  sim::TimerId delack_timer_ = sim::kInvalidTimer;
  int delack_segments_ = 0;  ///< in-order segments awaiting a delayed ACK

  bool ack_pending_ = false;
  std::uint16_t peer_mss_ = 536;
  bool closed_notified_ = false;

  std::function<void()> on_established_;
  std::function<void()> on_readable_;
  std::function<void()> on_writable_;
  std::function<void(Errc)> on_closed_;

  Stats stats_;
};

}  // namespace hydranet::tcp
