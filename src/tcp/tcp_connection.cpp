#include "tcp/tcp_connection.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"
#include "tcp/tcp_stack.hpp"
#include "trace2/recorder.hpp"
#include "trace2/span.hpp"
#include "verify/invariant.hpp"

namespace hydranet::tcp {

namespace {
constexpr const char* kLog = "tcp";
}

void TcpConnection::Stats::merge(const Stats& other) {
  segments_sent += other.segments_sent;
  segments_received += other.segments_received;
  segments_swallowed += other.segments_swallowed;
  bytes_sent_app += other.bytes_sent_app;
  bytes_received_app += other.bytes_received_app;
  retransmits += other.retransmits;
  fast_retransmits += other.fast_retransmits;
  timeouts += other.timeouts;
  duplicate_segments_seen += other.duplicate_segments_seen;
  dup_acks += other.dup_acks;
  zero_window_probes += other.zero_window_probes;
  sack_retransmits += other.sack_retransmits;
  keepalives_sent += other.keepalives_sent;
}

const char* to_string(TcpState state) {
  switch (state) {
    case TcpState::closed: return "CLOSED";
    case TcpState::listen: return "LISTEN";
    case TcpState::syn_sent: return "SYN_SENT";
    case TcpState::syn_rcvd: return "SYN_RCVD";
    case TcpState::established: return "ESTABLISHED";
    case TcpState::fin_wait_1: return "FIN_WAIT_1";
    case TcpState::fin_wait_2: return "FIN_WAIT_2";
    case TcpState::close_wait: return "CLOSE_WAIT";
    case TcpState::closing: return "CLOSING";
    case TcpState::last_ack: return "LAST_ACK";
    case TcpState::time_wait: return "TIME_WAIT";
  }
  return "?";
}

std::uint32_t deterministic_iss(const ConnectionKey& key) {
  // SplitMix-style avalanche over the 4-tuple: every replica computes the
  // same server-side ISS for the same client connection.
  std::uint64_t x = (static_cast<std::uint64_t>(key.local.address.value()) << 32) |
                    key.remote.address.value();
  x ^= (static_cast<std::uint64_t>(key.local.port) << 48) |
       (static_cast<std::uint64_t>(key.remote.port) << 16);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x = x ^ (x >> 31);
  return static_cast<std::uint32_t>(x);
}

TcpConnection::TcpConnection(TcpStack& stack, ConnectionKey key,
                             TcpOptions options)
    : stack_(stack),
      scheduler_(stack.scheduler()),
      key_(key),
      options_(options),
      rtt_(options.min_rto, options.max_rto) {
  cwnd_ = 2 * options_.mss;
  ssthresh_ = 64 * 1024;
}

TcpConnection::~TcpConnection() {
  scheduler_.cancel(rto_timer_);
  scheduler_.cancel(probe_timer_);
  scheduler_.cancel(time_wait_timer_);
  scheduler_.cancel(output_event_);
  scheduler_.cancel(delack_timer_);
}

// ---- offset <-> wire sequence conversion ---------------------------------

std::uint32_t TcpConnection::off_to_seq_snd(std::uint64_t off) const {
  return iss_ + static_cast<std::uint32_t>(off);
}
std::uint32_t TcpConnection::off_to_seq_rcv(std::uint64_t off) const {
  return irs_ + static_cast<std::uint32_t>(off);
}
std::uint64_t TcpConnection::seq_to_off_snd(std::uint32_t seq) const {
  // Exact while the stream is < 4 GiB (documented simulator limit).
  return static_cast<std::uint64_t>(seq - iss_);
}
std::uint64_t TcpConnection::seq_to_off_rcv(std::uint32_t seq) const {
  return static_cast<std::uint64_t>(seq - irs_);
}

std::uint16_t TcpConnection::effective_mss() const {
  return static_cast<std::uint16_t>(
      std::min<std::size_t>(options_.mss, peer_mss_));
}

std::size_t TcpConnection::advertised_window() const {
  // Out-of-order bytes beyond rcv_nxt do NOT shrink the window: they lie
  // inside the range the window already granted (shrinking it per OOO
  // arrival would make every duplicate ACK carry a different window and
  // defeat fast-retransmit detection, RFC 5681).  Only the receive ring
  // takes space: deposited-but-unread data and the in-order bytes the
  // ft-TCP deposit gate holds at its tail.
  std::size_t used = readable_.size();
  std::size_t free_space =
      options_.recv_buffer_capacity > used
          ? options_.recv_buffer_capacity - used
          : 0;
  return std::min<std::size_t>(free_space, 65535);
}

std::uint16_t TcpConnection::window_to_advertise() {
  std::uint64_t desired_edge = rcv_nxt_ + advertised_window();
  if (desired_edge > rcv_granted_) rcv_granted_ = desired_edge;
  std::uint64_t window = rcv_granted_ - rcv_nxt_;
  return static_cast<std::uint16_t>(std::min<std::uint64_t>(window, 65535));
}

std::uint64_t TcpConnection::acceptance_window_end() const {
  return std::max(rcv_nxt_ + advertised_window(), rcv_granted_);
}

std::size_t TcpConnection::send_capacity() const {
  return options_.send_buffer_capacity > send_data_.size()
             ? options_.send_buffer_capacity - send_data_.size()
             : 0;
}

// ---- application interface ------------------------------------------------

Result<std::size_t> TcpConnection::send(BytesView data) {
  if (state_ == TcpState::closed || state_ == TcpState::listen ||
      state_ == TcpState::time_wait) {
    return Errc::not_connected;
  }
  if (fin_queued_) return Errc::closed;
  std::size_t n = std::min(send_capacity(), data.size());
  if (n == 0) return Errc::would_block;
  // Root span: this write is where a causal trace begins (and where the
  // sampling decision is taken).  Segments carved from the send buffer
  // parent to the *current* write's decision — a sampled-out write must
  // clear the context, or one sampled root would adopt every later
  // segment and sampling would thin nothing.
  std::uint64_t root = trace2::begin_root(stack_.ip().trace_ring());
  sim::TimePoint write_start = scheduler_.now();
  trace_root_ctx_ = root;
  send_data_.append(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(n));
  if (options_.packetize_writes) {
    write_boundaries_.push_back(send_data_base_ + send_data_.size());
  }
  stats_.bytes_sent_app += n;
  schedule_output();
  trace2::commit(stack_.ip().trace_ring(), root, 0, trace2::span::kAppWrite,
                 write_start,
                 static_cast<std::uint32_t>(key_.remote.port),
                 static_cast<std::uint32_t>(n));
  return n;
}

Result<Bytes> TcpConnection::recv(std::size_t max) {
  const std::size_t available = readable_bytes();
  if (available == 0) {
    if (fin_received_ && rcv_nxt_ > peer_fin_off_) {
      eof_delivered_ = true;
      return Bytes{};  // EOF
    }
    if (state_ == TcpState::closed) return Errc::closed;
    return Errc::would_block;
  }
  std::size_t before_window = advertised_window();
  std::size_t n = std::min(max, available);
  Bytes out;
  readable_.copy_range(0, n, out);
  readable_.pop_front(n);
  stats_.bytes_received_app += n;
  // If we had closed the window, announce the newly-opened space so the
  // peer is not left probing.  Receiver-side SWS avoidance (RFC 1122
  // 4.2.3.3): the update threshold is min(MSS, capacity/2), so small
  // receive buffers (< one MSS) still reopen their window.
  std::size_t threshold = std::min<std::size_t>(
      effective_mss(), std::max<std::size_t>(options_.recv_buffer_capacity / 2, 1));
  if (before_window < threshold && advertised_window() >= threshold &&
      state_ != TcpState::closed) {
    ack_pending_ = true;
    schedule_output();
  }
  return out;
}

void TcpConnection::close() {
  switch (state_) {
    case TcpState::syn_sent:
      enter_closed(Errc::ok);
      return;
    case TcpState::syn_rcvd:
    case TcpState::established:
      if (fin_queued_) return;
      fin_queued_ = true;
      fin_off_ = send_data_base_ + send_data_.size();
      set_state(TcpState::fin_wait_1);
      schedule_output();
      return;
    case TcpState::close_wait:
      if (fin_queued_) return;
      fin_queued_ = true;
      fin_off_ = send_data_base_ + send_data_.size();
      set_state(TcpState::last_ack);
      schedule_output();
      return;
    default:
      return;  // already closing or closed
  }
}

void TcpConnection::abort() {
  if (state_ == TcpState::closed) return;
  if (state_ != TcpState::syn_sent && state_ != TcpState::listen) {
    send_rst(off_to_seq_snd(snd_nxt_));
  }
  enter_closed(Errc::ok);
}

// ---- lifecycle --------------------------------------------------------------

void TcpConnection::start_connect() {
  iss_ = stack_.generate_iss(key_, /*deterministic=*/false);
  set_state(TcpState::syn_sent);
  snd_una_ = 0;
  snd_nxt_ = 0;
  send_segment(0, 0, /*syn=*/true, /*fin=*/false, /*ack=*/false, false);
  snd_nxt_ = 1;
  snd_max_ = 1;
  arm_rto();
}

void TcpConnection::start_passive(std::uint32_t iss,
                                  const net::TcpSegment& syn) {
  iss_ = iss;
  irs_ = syn.header.seq;
  peer_mss_ = syn.header.mss_option != 0 ? syn.header.mss_option : 536;
  sack_enabled_ = options_.sack && syn.header.sack_permitted;
  set_state(TcpState::syn_rcvd);
  rcv_nxt_ = 1;  // consumed the peer's SYN (offset 0)
  snd_una_ = 0;
  send_segment(0, 0, /*syn=*/true, /*fin=*/false, /*ack=*/true, false);
  snd_nxt_ = 1;
  snd_max_ = 1;
  // The client's window is unknown until its first ACK; assume one MSS so
  // any data queued before ESTABLISHED can flow promptly after.
  snd_wnd_ = syn.header.window;
  arm_rto();
}

void TcpConnection::enter_established() {
  if (state_ == TcpState::established) return;
  set_state(TcpState::established);
  HN_EFFECT_ESCAPE(
      "connection lifecycle: one debug line when a connection reaches "
      "ESTABLISHED, never for a segment of an established connection")
  HLOG(debug, kLog) << key_.to_string() << " ESTABLISHED";
  HN_EFFECT_ESCAPE_END()
  if (options_.keepalive_interval.ns > 0) {
    note_activity();
    request_page_tick(last_activity_ + options_.keepalive_interval);
  }
  stack_.notify_established(*this);
  if (hooks_) hooks_->on_established(*this);
  if (on_established_) on_established_();
}

void TcpConnection::enter_time_wait() {
  set_state(TcpState::time_wait);
  cancel_rto();
  scheduler_.cancel(time_wait_timer_);
  time_wait_timer_ = scheduler_.schedule_after(
      options_.msl * 2, [this] { enter_closed(Errc::ok); });
}

void TcpConnection::enter_closed(Errc reason) {
  if (state_ == TcpState::closed && closed_notified_) return;
  set_state(TcpState::closed);
  cancel_rto();
  scheduler_.cancel(probe_timer_);
  probe_timer_ = sim::kInvalidTimer;
  scheduler_.cancel(time_wait_timer_);
  time_wait_timer_ = sim::kInvalidTimer;
  scheduler_.cancel(delack_timer_);
  delack_timer_ = sim::kInvalidTimer;
  if (!closed_notified_) {
    closed_notified_ = true;
    if (hooks_) hooks_->on_connection_closed(*this);
    if (on_closed_) on_closed_(reason);
    stack_.remove_connection(key_);
  }
}

void TcpConnection::deliver_eof_if_ready() {
  if (fin_received_ && rcv_nxt_ > peer_fin_off_) notify_readable();
}

void TcpConnection::notify_readable() {
  if (on_readable_) on_readable_();
}

void TcpConnection::notify_writable() {
  if (on_writable_ && send_capacity() > 0) on_writable_();
}

// ---- segment processing ----------------------------------------------------

void TcpConnection::on_segment(const net::TcpSegment& segment)
    HN_NONBLOCKING {
  stats_.segments_received++;
  if (state_ == TcpState::closed) return;
  note_activity();
#if HYDRANET_INVARIANTS
  const std::uint64_t rcv_nxt_before = rcv_nxt_;
  const std::uint64_t snd_una_before = snd_una_;
#endif
  if (state_ == TcpState::syn_sent) {
    process_syn_sent(segment);
  } else {
    process_general(segment);
  }
#if HYDRANET_INVARIANTS
  // Post-state sanity: whatever the segment did, the stream pointers must
  // agree on these rules.
  check_stream_invariants(rcv_nxt_before, snd_una_before);
#endif
}

#if HYDRANET_INVARIANTS
void TcpConnection::check_stream_invariants(std::uint64_t rcv_nxt_before,
                                            std::uint64_t snd_una_before) const {
  HN_INVARIANT(tcp_stream, snd_una_ <= snd_nxt_ && snd_nxt_ <= snd_max_,
               "send pointers out of order on %s: una=%llu nxt=%llu max=%llu",
               key_.to_string().c_str(),
               static_cast<unsigned long long>(snd_una_),
               static_cast<unsigned long long>(snd_nxt_),
               static_cast<unsigned long long>(snd_max_));
  HN_INVARIANT(tcp_stream, snd_una_ >= snd_una_before,
               "snd_una regressed on %s: %llu -> %llu",
               key_.to_string().c_str(),
               static_cast<unsigned long long>(snd_una_before),
               static_cast<unsigned long long>(snd_una_));
  HN_INVARIANT(tcp_stream, rcv_nxt_ >= rcv_nxt_before,
               "rcv_nxt regressed on %s: %llu -> %llu",
               key_.to_string().c_str(),
               static_cast<unsigned long long>(rcv_nxt_before),
               static_cast<unsigned long long>(rcv_nxt_));
  HN_INVARIANT(tcp_stream, readable_.size() <= options_.recv_buffer_capacity,
               "receive buffer overrun on %s: %zu buffered > %zu capacity",
               key_.to_string().c_str(), readable_.size(),
               options_.recv_buffer_capacity);
}

void TcpConnection::check_gate_invariants() {
  // Re-derive the gate marks (the side-effect-free mirror of the
  // deposit/transmit limits) and confirm neither stream ran past them.
  if (hooks_ == nullptr || state_ == TcpState::closed) return;
  GateMarks fresh;
  if (!hooks_->gate_marks(*this, fresh)) return;
  HN_INVARIANT(gate_deposit,
               fresh.deposit_unbounded ||
                   seq_to_off_rcv(fresh.deposit_mark) >= rcv_nxt_,
               "deposited to %llu past the successor ACK mark %llu on %s",
               static_cast<unsigned long long>(rcv_nxt_),
               static_cast<unsigned long long>(
                   seq_to_off_rcv(fresh.deposit_mark)),
               key_.to_string().c_str());
  HN_INVARIANT(gate_send,
               fresh.transmit_unbounded ||
                   seq_to_off_snd(fresh.transmit_mark) >= snd_nxt_,
               "transmitted to %llu past the successor SEQ mark %llu on %s",
               static_cast<unsigned long long>(snd_nxt_),
               static_cast<unsigned long long>(
                   seq_to_off_snd(fresh.transmit_mark)),
               key_.to_string().c_str());
}

void TcpConnection::test_deposit_out_of_window(std::size_t len) {
  if (held_ > 0) return;
  const std::uint64_t rcv_nxt_before = rcv_nxt_;
  readable_.append_fill(len, std::uint8_t{0});
  rcv_nxt_ += len;
  check_stream_invariants(rcv_nxt_before, snd_una_);
}

void TcpConnection::test_deposit_past_gate(std::size_t len) {
  GateMarks marks;
  if (hooks_ == nullptr || !hooks_->gate_marks(*this, marks) ||
      marks.deposit_unbounded) {
    return;
  }
  const std::uint64_t rcv_nxt = rcv_nxt_;
  rcv_nxt_ = std::max(rcv_nxt_, seq_to_off_rcv(marks.deposit_mark)) + len;
  check_gate_invariants();
  rcv_nxt_ = rcv_nxt;
}

void TcpConnection::test_send_past_gate(std::size_t len) {
  GateMarks marks;
  if (hooks_ == nullptr || !hooks_->gate_marks(*this, marks) ||
      marks.transmit_unbounded) {
    return;
  }
  const std::uint64_t snd_nxt = snd_nxt_;
  snd_nxt_ = std::max(snd_nxt_, seq_to_off_snd(marks.transmit_mark)) + len;
  check_gate_invariants();
  snd_nxt_ = snd_nxt;
}

void TcpConnection::test_forge_page_deadline(sim::TimePoint forged) {
  stack_.set_page_deadline(slab_slot_, forged);
}
#endif

void TcpConnection::process_syn_sent(const net::TcpSegment& segment) {
  const net::TcpHeader& h = segment.header;
  bool ack_ok = false;
  if (h.ack_flag) {
    std::uint64_t ack_off = seq_to_off_snd(h.ack);
    if (ack_off == 0 || ack_off > snd_max_) {
      if (!h.rst) send_rst(h.ack);
      return;
    }
    ack_ok = true;
  }
  if (h.rst) {
    if (ack_ok) enter_closed(Errc::connection_refused);
    return;
  }
  if (!h.syn) return;

  irs_ = h.seq;
  rcv_nxt_ = 1;
  if (h.mss_option != 0) peer_mss_ = h.mss_option;
  sack_enabled_ = options_.sack && h.sack_permitted;
  snd_wnd_ = h.window;
  snd_wl1_ = seq_to_off_rcv(h.seq);
  snd_wl2_ = h.ack_flag ? seq_to_off_snd(h.ack) : 0;

  if (ack_ok) {
    snd_una_ = seq_to_off_snd(h.ack);
    rto_backoff_ = 0;
    cancel_rto();
    ack_pending_ = true;
    enter_established();
    output();
  } else {
    // Simultaneous open: both sides sent SYN.
    set_state(TcpState::syn_rcvd);
    send_segment(0, 0, /*syn=*/true, /*fin=*/false, /*ack=*/true, false);
    arm_rto();
  }
}

bool TcpConnection::sequence_acceptable(const net::TcpSegment& segment) const {
  std::uint64_t seq = seq_to_off_rcv(segment.header.seq);
  std::uint64_t len = segment.seq_length();
  std::uint64_t window_end = acceptance_window_end();
  if (len == 0) {
    if (window_end == rcv_nxt_) return seq == rcv_nxt_;
    return seq >= rcv_nxt_ && seq < window_end;
  }
  if (window_end == rcv_nxt_) return false;
  return seq < window_end && seq + len > rcv_nxt_;
}

void TcpConnection::process_general(const net::TcpSegment& segment) {
  const net::TcpHeader& h = segment.header;

  // Retransmitted SYN while we sit in SYN_RCVD: the client never saw our
  // SYN-ACK (or, on a backup replica, the primary's).  Observe the
  // retransmission and re-send the SYN-ACK.
  if (state_ == TcpState::syn_rcvd && h.syn && !h.ack_flag &&
      seq_to_off_rcv(h.seq) == 0) {
    stats_.duplicate_segments_seen++;
    if (hooks_) hooks_->on_client_retransmission(*this);
    send_segment(0, 0, /*syn=*/true, /*fin=*/false, /*ack=*/true, false);
    return;
  }

  if (!sequence_acceptable(segment)) {
    std::uint64_t seq = seq_to_off_rcv(h.seq);
    if (seq + segment.seq_length() <= rcv_nxt_ && segment.seq_length() > 0) {
      // Entirely old data: a client retransmission (the paper's failure
      // estimator counts exactly these).
      stats_.duplicate_segments_seen++;
      if (hooks_) hooks_->on_client_retransmission(*this);
    }
    if (!h.rst) {
      ack_pending_ = true;
      output();
    }
    return;
  }

  if (h.rst) {
    enter_closed(Errc::connection_reset);
    return;
  }

  if (h.syn) {
    // SYN inside the window is an error per RFC 793.
    send_rst(off_to_seq_snd(snd_nxt_));
    enter_closed(Errc::connection_reset);
    return;
  }

  if (!h.ack_flag) return;  // everything past SYN carries an ACK

  process_ack(segment);
  if (state_ == TcpState::closed) return;

  process_payload(segment);

  if (h.fin) {
    std::uint64_t fin_off =
        seq_to_off_rcv(h.seq) + segment.payload.size();
    if (!fin_received_) {
      fin_received_ = true;
      peer_fin_off_ = fin_off;
      // Gated connections ack the FIN when the gate lets them consume it.
      if (hooks_ == nullptr) ack_pending_ = true;
    }
    deposit_in_order();
  }

  output();
}

void TcpConnection::process_ack(const net::TcpSegment& segment) {
  const net::TcpHeader& h = segment.header;
  std::uint64_t ack_off = seq_to_off_snd(h.ack);
  std::uint64_t seq_off = seq_to_off_rcv(h.seq);

  if (ack_off > snd_max_) {
    // Acks something we never sent; re-announce our state.
    ack_pending_ = true;
    return;
  }

  if (sack_enabled_ && !h.sack_blocks.empty()) {
    for (const auto& [left_seq, right_seq] : h.sack_blocks) {
      std::uint64_t left = seq_to_off_snd(left_seq);
      std::uint64_t right = seq_to_off_snd(right_seq);
      if (left >= right || right > snd_max_ + 1 || left < snd_una_) {
        // Clip rather than trust: stale or malformed blocks are data.
        left = std::max(left, snd_una_);
        right = std::min(right, snd_max_);
        if (left >= right) continue;
      }
      sack_merge(left, right);
    }
  }

  std::size_t old_wnd = snd_wnd_;
  if (ack_off >= snd_una_) {
    if (snd_wl1_ < seq_off ||
        (snd_wl1_ == seq_off && snd_wl2_ <= ack_off)) {
      snd_wnd_ = h.window;
      snd_wl1_ = seq_off;
      snd_wl2_ = ack_off;
    }
  }
  if (old_wnd == 0 && snd_wnd_ > 0 && snd_max_ > snd_una_) {
    // Persist-mode exit: the peer reopened its window.  Resume right away
    // instead of waiting out a backed-off retransmission timer.
    rto_backoff_ = 0;
    stats_.retransmits++;
    retransmit_one_segment();
    arm_rto();
  }

  if (state_ == TcpState::syn_rcvd) {
    if (ack_off >= 1) {
      snd_una_ = std::max(snd_una_, std::uint64_t{1});
      cancel_rto();
      rto_backoff_ = 0;
      enter_established();
    } else {
      return;
    }
  }

  if (ack_off > snd_una_) {
    std::size_t newly_acked = ack_off - snd_una_;
    // Drop acknowledged bytes from the send buffer (data occupies offsets
    // [send_data_base_, base+size); SYN and FIN account for the rest).
    while (!send_data_.empty() && send_data_base_ < ack_off) {
      std::size_t drop = std::min<std::uint64_t>(ack_off - send_data_base_,
                                                 send_data_.size());
      send_data_.pop_front(drop);
      send_data_base_ += drop;
    }
    snd_una_ = ack_off;
    dup_acks_ = 0;
    // Scoreboard entries at or below the cumulative ACK are obsolete.
    while (!scoreboard_.empty() && scoreboard_.front().second <= snd_una_) {
      scoreboard_.erase(scoreboard_.begin());
    }
    if (!scoreboard_.empty() && scoreboard_.front().first < snd_una_) {
      scoreboard_.front().first = snd_una_;
    }
    sack_hole_cursor_ = snd_una_;

    if (rtt_sampling_ && ack_off > rtt_sample_off_) {
      rtt_.sample(scheduler_.now() - rtt_sample_sent_at_);
      rtt_sampling_ = false;
    }
    rto_backoff_ = 0;
    consecutive_timeouts_ = 0;

    // Congestion window growth.
    std::size_t mss = effective_mss();
    if (cwnd_ < ssthresh_) {
      cwnd_ += std::min(newly_acked, mss);  // slow start
    } else {
      cwnd_ += std::max<std::size_t>(1, mss * mss / cwnd_);  // avoidance
    }
    stack_.observe_cwnd(static_cast<double>(cwnd_));

    if (snd_una_ == snd_max_) {
      cancel_rto();
    } else {
      arm_rto();
    }
    notify_writable();

    // Transitions driven by our FIN being acknowledged.
    if (fin_queued_ && snd_una_ > fin_off_) {
      switch (state_) {
        case TcpState::fin_wait_1: set_state(TcpState::fin_wait_2); break;
        case TcpState::closing: enter_time_wait(); break;
        case TcpState::last_ack: enter_closed(Errc::ok); return;
        default: break;
      }
    }
  } else if (ack_off == snd_una_) {
    // Possible duplicate ACK (RFC 5681 heuristics).
    if (snd_max_ > snd_una_ && segment.payload.empty() && !h.fin &&
        h.window == old_wnd) {
      dup_acks_++;
      stats_.dup_acks++;
      if (dup_acks_ == 3) {
        stats_.fast_retransmits++;
        std::size_t mss = effective_mss();
        std::size_t flight = snd_max_ - snd_una_;
        ssthresh_ = std::max(flight / 2, 2 * mss);
        cwnd_ = ssthresh_;
        // Retransmit the presumed-lost segment at snd_una_.
        rtt_sampling_ = false;
        stats_.retransmits++;
        if (sack_enabled_ && !scoreboard_.empty()) {
          // SACK repair: fill holes precisely instead of blind go-back.
          sack_hole_cursor_ = snd_una_;
          (void)retransmit_next_hole();
        } else {
          retransmit_one_segment();
        }
      } else if (dup_acks_ > 3 && sack_enabled_ && !scoreboard_.empty()) {
        // Each further duplicate ACK releases one more hole repair (the
        // conservative pacing of RFC 2018-era implementations).
        (void)retransmit_next_hole();
      }
    }
  }
}

void TcpConnection::process_payload(const net::TcpSegment& segment) {
  if (segment.payload.empty()) return;
  if (state_ != TcpState::established && state_ != TcpState::fin_wait_1 &&
      state_ != TcpState::fin_wait_2) {
    return;
  }
  std::uint64_t seq_off = seq_to_off_rcv(segment.header.seq);
  std::uint64_t rcv_before = rcv_nxt_;
  // The ring's tail: every byte below it is in order, deposited or held.
  const std::uint64_t in_end = rcv_nxt_ + held_;
  if (seq_off == in_end && reassembly_.empty()) {
    // The common case: in order with no islands, so no hole and no
    // duplicate.  The in-window bytes go onto the ring once; the deposit
    // below moves RCV.NXT over as many as the gate allows.
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
        segment.payload.size(), acceptance_window_end() - in_end));
    HN_EFFECT_ESCAPE(
        "receive-ring append: RingQueue grows by power-of-two doubling and "
        "retains capacity across reads, so a flow's steady state writes in "
        "place")
    readable_.append(segment.payload.begin(), segment.payload.begin() + n);
    HN_EFFECT_ESCAPE_END()
    held_ += n;
  } else {
    // Does this arrival land beyond the ring's tail (i.e., a real hole
    // exists)?
    bool creates_island = seq_off > in_end;
    HN_EFFECT_ESCAPE(
        "out-of-order staging: a segment that misses the receive ring's "
        "tail (a hole or a retransmission)")
    auto result = reassembly_.insert(seq_off, segment.payload, in_end,
                                     acceptance_window_end());
    HN_EFFECT_ESCAPE_END()
    held_ += reassembly_.drain_into(in_end, readable_);
    // A retransmission that overlaps held bytes and runs past a full
    // window is old data too: only its unseen tail lies out of window.
    if (result == ReassemblyBuffer::InsertResult::duplicate ||
        (result == ReassemblyBuffer::InsertResult::out_of_window &&
         seq_off < in_end && held_ > 0)) {
      stats_.duplicate_segments_seen++;
      if (hooks_) hooks_->on_client_retransmission(*this);
    }
    // Stock TCP acknowledges every data segment immediately.  A gated
    // (ft-TCP) connection must NOT ack held-back IN-ORDER data: §4.3 has
    // the primary reply "once it receives the data and the acknowledgment
    // information for that data from S1".  Acking held in-order data
    // would emit byte-identical duplicate ACKs and trip the client's fast
    // retransmit on a perfectly healthy chain; a stalled gate must surface
    // as a client timeout — the estimator's signal.  A GENUINE hole is the
    // opposite case: data this replica never received.  There the
    // duplicate ACK (with SACK islands, if negotiated) is exactly what lets
    // the client fast-retransmit instead of burning a full RTO per loss.
    if (hooks_ == nullptr || creates_island) ack_pending_ = true;
  }
  deposit_in_order();

  if (hooks_ == nullptr && options_.delayed_ack && rcv_nxt_ > rcv_before &&
      reassembly_.buffered() == 0 && !fin_received_) {
    // Clean in-order progress: defer the ACK (every 2nd segment, or the
    // delack timer).  Reordering/duplicates keep the immediate ACK above —
    // the peer's fast retransmit depends on prompt duplicate ACKs.
    delack_segments_++;
    if (delack_segments_ < 2) {
      ack_pending_ = false;
      if (delack_timer_ == sim::kInvalidTimer) {
        delack_timer_ = scheduler_.schedule_after(
            options_.delayed_ack_timeout, [this] {
              delack_timer_ = sim::kInvalidTimer;
              if (state_ == TcpState::closed) return;
              ack_pending_ = true;
              output();
            });
      }
    }
  }
}

void TcpConnection::deposit_in_order() {
  const std::uint64_t in_end = rcv_nxt_ + held_;
  // The peer's FIN is the last "byte" of the stream for gating purposes.
  std::uint64_t logical_end =
      (fin_received_ && in_end == peer_fin_off_) ? in_end + 1 : in_end;
  std::uint64_t limit = logical_end;
  if (hooks_) {
    std::uint32_t wire_limit =
        hooks_->deposit_limit(*this, off_to_seq_rcv(logical_end));
    limit = std::min(limit, seq_to_off_rcv(wire_limit));
  }

  std::uint64_t data_limit = std::max(std::min(limit, in_end), rcv_nxt_);
  if (data_limit > rcv_nxt_) {
    held_ -= static_cast<std::size_t>(data_limit - rcv_nxt_);
    rcv_nxt_ = data_limit;
    ack_pending_ = true;
    notify_readable();
  }
  maybe_consume_fin();
#if HYDRANET_INVARIANTS
  check_gate_invariants();
#endif
}

void TcpConnection::maybe_consume_fin() {
  if (!fin_received_ || rcv_nxt_ != peer_fin_off_) return;
  // Gate the FIN like a data byte: consumable once the successor (if any)
  // has consumed it.
  if (hooks_) {
    std::uint32_t wire_limit =
        hooks_->deposit_limit(*this, off_to_seq_rcv(peer_fin_off_ + 1));
    if (seq_to_off_rcv(wire_limit) <= peer_fin_off_) return;
  }
  rcv_nxt_ = peer_fin_off_ + 1;
  ack_pending_ = true;
  switch (state_) {
    case TcpState::established:
      set_state(TcpState::close_wait);
      break;
    case TcpState::fin_wait_1:
      // Our FIN not yet acknowledged (else we'd be in FIN_WAIT_2).
      set_state(TcpState::closing);
      break;
    case TcpState::fin_wait_2:
      enter_time_wait();
      break;
    default:
      break;
  }
  notify_readable();  // EOF is now observable
}

// ---- output path -------------------------------------------------------------

void TcpConnection::schedule_output() {
  if (output_event_ != sim::kInvalidTimer) return;
  output_event_ = scheduler_.schedule_after(sim::Duration{0}, [this] {
    output_event_ = sim::kInvalidTimer;
    output();
  });
}

void TcpConnection::output() {
  const bool can_send_data =
      state_ == TcpState::established || state_ == TcpState::close_wait ||
      state_ == TcpState::fin_wait_1 || state_ == TcpState::closing ||
      state_ == TcpState::last_ack;
  if (!can_send_data) {
    if (ack_pending_ && (state_ == TcpState::fin_wait_2 ||
                         state_ == TcpState::time_wait ||
                         state_ == TcpState::syn_rcvd)) {
      send_pure_ack();
    }
    return;
  }

  std::uint64_t data_end = send_data_base_ + send_data_.size();
  std::size_t usable = std::min(cwnd_, snd_wnd_);
  std::uint64_t limit = snd_una_ + usable;
  if (hooks_) {
    std::uint32_t wire_limit =
        hooks_->transmit_limit(*this, off_to_seq_snd(limit));
    limit = std::min(limit, seq_to_off_snd(wire_limit));
  }

  bool sent_any = false;
  std::size_t mss = effective_mss();
  while (snd_nxt_ < data_end && snd_nxt_ < limit) {
    // What we would send if the window were no constraint.
    std::size_t desired = static_cast<std::size_t>(
        std::min<std::uint64_t>(mss, data_end - snd_nxt_));
    if (options_.packetize_writes) {
      // A segment never spans an application write boundary.
      while (!write_boundaries_.empty() &&
             write_boundaries_.front() <= snd_nxt_) {
        write_boundaries_.pop_front(1);
      }
      if (!write_boundaries_.empty()) {
        desired = static_cast<std::size_t>(std::min<std::uint64_t>(
            desired, write_boundaries_.front() - snd_nxt_));
      }
    }
    std::uint64_t window_remaining = limit - snd_nxt_;
    if (window_remaining < desired) {
      // Sender-side silly-window avoidance (RFC 1122 4.2.3.4): while data
      // is outstanding, never shave a segment down to fit a window
      // residue — the returning ACK will reopen room for a full one.
      // Tiny residue segments would otherwise multiply per-packet costs
      // (and the ft-TCP ack-channel traffic) several-fold.
      if (snd_nxt_ > snd_una_) break;
      // Nothing in flight: send what fits to keep the ACK clock running.
      desired = static_cast<std::size_t>(window_remaining);
    }
    std::size_t len = desired;
    // Nagle: hold back a short segment while older data is in flight.
    if (!options_.nodelay && len < mss && snd_nxt_ > snd_una_ &&
        !fin_queued_) {
      break;
    }
    bool psh = (snd_nxt_ + len == data_end);
    if (!rtt_sampling_ && rto_backoff_ == 0) {
      rtt_sampling_ = true;
      rtt_sample_off_ = snd_nxt_ + len;
      rtt_sample_sent_at_ = scheduler_.now();
    }
    // The FIN rides its own segment (below) for gating clarity.
    send_segment(snd_nxt_, len, false, /*fin=*/false, true, psh);
    snd_nxt_ += len;
    snd_max_ = std::max(snd_max_, snd_nxt_);
    sent_any = true;
  }

  // FIN once all data is out (and the gate permits it).
  if (fin_queued_ && snd_nxt_ == data_end && snd_nxt_ == fin_off_ &&
      fin_off_ < limit) {
    send_segment(snd_nxt_, 0, false, /*fin=*/true, true, false);
    snd_nxt_ += 1;
    snd_max_ = std::max(snd_max_, snd_nxt_);
    sent_any = true;
  }

  if (sent_any) {
    arm_rto();
  } else if (ack_pending_) {
    send_pure_ack();
  }

  // Zero-window handling: if data waits and the peer closed its window,
  // probe periodically.
  if (snd_nxt_ < data_end && snd_wnd_ == 0 && snd_una_ == snd_nxt_) {
    arm_probe();
  }

#if HYDRANET_INVARIANTS
  check_gate_invariants();
#endif
}

void TcpConnection::send_segment(std::uint64_t seq_off, std::size_t len,
                                 bool syn, bool fin, bool ack, bool psh) {
  net::TcpHeader h;
  h.src_port = key_.local.port;
  h.dst_port = key_.remote.port;
  h.seq = off_to_seq_snd(seq_off);
  h.ack = ack ? off_to_seq_rcv(rcv_nxt_) : 0;
  h.syn = syn;
  h.fin = fin;
  h.ack_flag = ack;
  h.psh = psh;
  h.window = window_to_advertise();
  if (syn) {
    h.mss_option = static_cast<std::uint16_t>(options_.mss);
    h.sack_permitted = options_.sack;
  } else if (ack && sack_enabled_) {
    // Report the islands beyond the first gap (never the in-order bytes
    // the deposit gate holds — see ReassemblyBuffer::blocks).
    for (const auto& [left, right] :
         reassembly_.blocks(net::TcpHeader::kMaxSackBlocks)) {
      HN_EFFECT_ESCAPE(
          "SACK block list: bounded by kMaxSackBlocks entries and only "
          "built while the reassembly queue has gaps — the out-of-order "
          "path, never an in-order arrival")
      h.sack_blocks.emplace_back(off_to_seq_rcv(left), off_to_seq_rcv(right));
      HN_EFFECT_ESCAPE_END()
    }
  }

  stats_.segments_sent++;
  note_activity();  // outbound traffic resets keepalive
  if (ack) {
    ack_pending_ = false;
    delack_segments_ = 0;
    if (delack_timer_ != sim::kInvalidTimer) {
      scheduler_.cancel(delack_timer_);
      delack_timer_ = sim::kInvalidTimer;
    }
  }

  if (hooks_ && !hooks_->filter_segment(*this, h, len)) {
    // Backup replica: the segment is swallowed before any payload byte is
    // read; its flow-control fields have been captured by the hook and
    // travel the acknowledgement channel.
    stats_.segments_swallowed++;
    return;
  }

  // Segmentize span: a wire segment leaves the connection.  A *data*
  // segment parents strictly to its write's root, so the root sampling
  // decision governs the whole downstream chain.  A pure ACK parents to
  // the ambient input span instead — it is a bounded leaf of the inbound
  // segment's trace.  (Letting data segments fall back to the ambient
  // ctx would chain ACK-clocked transmissions into whatever old trace
  // triggered the ACK, keeping one sampled root alive forever and
  // defeating sampling entirely.)
  std::uint64_t parent = len == 0 ? trace2::current_ctx() : trace_root_ctx_;
  std::uint64_t span = trace2::begin_child(stack_.ip().trace_ring(), parent);
  sim::TimePoint span_start = scheduler_.now();

  net::Datagram datagram;
  datagram.header.protocol = net::IpProto::tcp;
  datagram.header.src = key_.local.address;
  datagram.header.dst = key_.remote.address;
  // The one read of the payload: send ring straight into the wire buffer.
  const auto payload = send_data_.runs(
      static_cast<std::size_t>(seq_off - send_data_base_), len);
  datagram.payload = net::serialize_tcp(h, payload.head, payload.tail,
                                        key_.local.address, key_.remote.address);
  datagram.trace_ctx = span;
  (void)stack_.ip().send(std::move(datagram));
  trace2::commit(stack_.ip().trace_ring(), span, parent,
                 trace2::span::kTcpSegmentize, span_start, h.seq,
                 static_cast<std::uint32_t>(len));
}

void TcpConnection::send_pure_ack() {
  send_segment(snd_nxt_, 0, false, false, true, false);
}

void TcpConnection::send_rst(std::uint32_t seq) {
  net::TcpHeader h;
  h.src_port = key_.local.port;
  h.dst_port = key_.remote.port;
  h.seq = seq;
  h.rst = true;

  stats_.segments_sent++;
  if (hooks_ && !hooks_->filter_segment(*this, h, 0)) {
    stats_.segments_swallowed++;
    return;
  }
  net::Datagram datagram;
  datagram.header.protocol = net::IpProto::tcp;
  datagram.header.src = key_.local.address;
  datagram.header.dst = key_.remote.address;
  datagram.payload = net::serialize_tcp(h, {}, {}, key_.local.address,
                                        key_.remote.address);
  (void)stack_.ip().send(std::move(datagram));
}

// ---- timers -------------------------------------------------------------------

void TcpConnection::arm_rto() {
  cancel_rto();
  if (options_.coalesce_timers) {
    // Ride the page tick: publish the deadline instead of scheduling an
    // event.  The page timer fires at the earliest deadline on the page,
    // so this connection's RTO still fires at exactly this instant.
    rto_armed_coalesced_ = true;
    rto_deadline_ = scheduler_.now() + rtt_.backed_off_rto(rto_backoff_);
    refresh_page_deadline();
    request_page_tick(rto_deadline_);
    return;
  }
  rto_timer_ = scheduler_.schedule_after(rtt_.backed_off_rto(rto_backoff_),
                                         [this] { on_rto(); });
}

void TcpConnection::cancel_rto() {
  // The page timer is not cancelled on the coalesced path — it fires and
  // finds nothing due (one spurious wakeup per page at worst), which is
  // cheaper than re-deriving the page minimum on every ACK.
  rto_armed_coalesced_ = false;
  refresh_page_deadline();
  scheduler_.cancel(rto_timer_);
  rto_timer_ = sim::kInvalidTimer;
}

void TcpConnection::on_rto() {
  rto_timer_ = sim::kInvalidTimer;
  if (snd_una_ == snd_max_ && state_ != TcpState::syn_sent &&
      state_ != TcpState::syn_rcvd) {
    return;  // everything acknowledged; stale timer
  }
  stats_.timeouts++;
  consecutive_timeouts_++;
  if (hooks_) hooks_->on_retransmission_timeout(*this);
  if (state_ == TcpState::closed) return;  // the hook may have reconfigured
  if (consecutive_timeouts_ > options_.max_retransmits) {
    enter_closed(Errc::timed_out);
    return;
  }
  std::size_t mss = effective_mss();
  std::size_t flight = snd_max_ - snd_una_;
  ssthresh_ = std::max(flight / 2, 2 * mss);
  cwnd_ = mss;
  dup_acks_ = 0;
  rto_backoff_++;
  rtt_sampling_ = false;  // Karn: no samples across retransmissions
  // RFC 2018: after an RTO, forget SACK state (the receiver may renege).
  scoreboard_.clear();
  sack_hole_cursor_ = snd_una_;

  stats_.retransmits++;
  retransmit_one_segment();
  arm_rto();
}

void TcpConnection::retransmit_one_segment() {
  if (state_ == TcpState::syn_sent) {
    send_segment(0, 0, /*syn=*/true, false, /*ack=*/false, false);
  } else if (state_ == TcpState::syn_rcvd) {
    send_segment(0, 0, /*syn=*/true, false, /*ack=*/true, false);
  } else if (fin_queued_ && snd_una_ == fin_off_) {
    send_segment(snd_una_, 0, false, /*fin=*/true, true, false);
  } else if (snd_una_ >= send_data_base_ &&
             snd_una_ < send_data_base_ + send_data_.size()) {
    std::size_t from = snd_una_ - send_data_base_;
    // A RETRANSMISSION must never reach past snd_max: bytes beyond it were
    // never sent, and acknowledgments for them would exceed the sender's
    // own accounting — both ends would then reject each other's ACKs in a
    // line-rate ACK war.
    std::uint64_t sent_extent = snd_max_ > snd_una_ ? snd_max_ - snd_una_ : 0;
    std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(
        {effective_mss(), send_data_.size() - from, sent_extent}));
    if (len == 0) return;
    send_segment(snd_una_, len, false, false, true, true);
  }
}

void TcpConnection::arm_probe() {
  if (probe_timer_ != sim::kInvalidTimer) return;
  probe_timer_ = scheduler_.schedule_after(
      options_.zero_window_probe_interval, [this] { on_probe(); });
}

void TcpConnection::on_probe() {
  probe_timer_ = sim::kInvalidTimer;
  std::uint64_t data_end = send_data_base_ + send_data_.size();
  if (state_ == TcpState::closed || snd_nxt_ >= data_end) return;
  if (snd_wnd_ > 0) {
    output();
    return;
  }
  // Send one byte into the closed window; the peer's response re-announces
  // its window (classic window probe).
  stats_.zero_window_probes++;
  send_segment(snd_nxt_, 1, false, false, true, true);
  snd_nxt_ += 1;
  snd_max_ = std::max(snd_max_, snd_nxt_);
  arm_rto();
  arm_probe();
}

// ---- coalesced page tick ----------------------------------------------------

void TcpConnection::request_page_tick(sim::TimePoint when) {
  stack_.request_page_tick(slab_slot_ / SlabArena<TcpConnection>::kPageSlots,
                           when);
}

sim::TimePoint TcpConnection::page_tick_deadline() const {
  sim::TimePoint due = sim::kTimePointMax;
  if (state_ == TcpState::established && options_.keepalive_interval.ns > 0) {
    due = last_activity_ + options_.keepalive_interval;
  }
  if (rto_armed_coalesced_ && rto_deadline_ < due) due = rto_deadline_;
  return due;
}

void TcpConnection::refresh_page_deadline() {
  stack_.set_page_deadline(slab_slot_, page_tick_deadline());
}

void TcpConnection::set_state(TcpState state) {
  state_ = state;
  refresh_page_deadline();
}

void TcpConnection::note_activity() {
  last_activity_ = scheduler_.now();
  refresh_page_deadline();
}

void TcpConnection::on_page_tick(sim::TimePoint now) HN_NONBLOCKING {
  if (rto_armed_coalesced_ && now >= rto_deadline_) {
    rto_armed_coalesced_ = false;
    refresh_page_deadline();
    on_rto();  // may re-arm, or close the connection
    if (state_ == TcpState::closed) return;
  }
  if (state_ == TcpState::established && options_.keepalive_interval.ns > 0 &&
      now - last_activity_ >= options_.keepalive_interval) {
    send_keepalive_probe();
  }
}

void TcpConnection::send_keepalive_probe() {
  stats_.keepalives_sent++;
  // Classic BSD keepalive: a zero-length segment whose sequence number sits
  // one byte below the window.  A probe at snd_nxt would be silently
  // acceptable and elicit nothing; this one fails the peer's sequence test
  // and forces a duplicate ACK.  send_segment() refreshes last_activity_,
  // which pushes the next probe one interval out.
  send_segment(snd_nxt_ - 1, 0, false, false, true, false);
}

void TcpConnection::sack_merge(std::uint64_t left, std::uint64_t right) {
  // Insert and coalesce; the scoreboard stays sorted and disjoint.
  auto it = scoreboard_.begin();
  while (it != scoreboard_.end() && it->second < left) ++it;
  if (it == scoreboard_.end() || it->first > right) {
    HN_EFFECT_ESCAPE(
        "SACK scoreboard growth: only for ACKs carrying SACK blocks, i.e. "
        "while the peer reports holes; the vector keeps its capacity")
    scoreboard_.insert(it, {left, right});
    HN_EFFECT_ESCAPE_END()
    return;
  }
  it->first = std::min(it->first, left);
  it->second = std::max(it->second, right);
  auto next = it + 1;
  while (next != scoreboard_.end() && next->first <= it->second) {
    it->second = std::max(it->second, next->second);
    next = scoreboard_.erase(next);
  }
}

bool TcpConnection::retransmit_next_hole() {
  std::uint64_t cursor = std::max(sack_hole_cursor_, snd_una_);
  // Skip forward past sacked ranges covering the cursor.
  for (const auto& [start, end] : scoreboard_) {
    if (cursor < start) break;
    if (cursor < end) cursor = end;
  }
  std::uint64_t data_end = send_data_base_ + send_data_.size();
  std::uint64_t limit = std::min(snd_max_, data_end);
  if (cursor >= limit) return false;

  std::uint64_t hole_end = limit;
  for (const auto& [start, end] : scoreboard_) {
    if (start > cursor) {
      hole_end = std::min(hole_end, start);
      break;
    }
  }
  if (cursor < send_data_base_) return false;  // SYN/odd state: no repair
  std::size_t len = static_cast<std::size_t>(
      std::min<std::uint64_t>(effective_mss(), hole_end - cursor));
  stats_.sack_retransmits++;
  send_segment(cursor, len, false, false, true, true);
  sack_hole_cursor_ = cursor + len;
  return true;
}

// ---- ft-TCP support -----------------------------------------------------------

void TcpConnection::on_gate_update() {
  if (state_ == TcpState::closed) return;
  deposit_in_order();
  output();
}

void TcpConnection::resend_unacknowledged() {
  if (state_ == TcpState::closed) return;
  // Go-back-N replay: rewind the transmit pointer to the oldest
  // unacknowledged byte and let the normal output path re-emit everything
  // (now that this replica is primary, segments actually reach the wire).
  if (snd_nxt_ > snd_una_) {
    snd_nxt_ = std::max(snd_una_, std::uint64_t{1});
    rtt_sampling_ = false;
    stats_.retransmits++;
  }
  ack_pending_ = true;  // re-announce our receive state to the client
  output();
}

}  // namespace hydranet::tcp
