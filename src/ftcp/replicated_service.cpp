#include "ftcp/replicated_service.hpp"

#include <algorithm>
#include <vector>

#include "common/logging.hpp"
#include "stats/timeline.hpp"
#include "trace2/recorder.hpp"
#include "trace2/span.hpp"
#include "verify/invariant.hpp"

namespace hydranet::ftcp {

namespace {
constexpr const char* kLog = "ftcp";
// Connection gate states with no live connection are garbage collected
// after this much inactivity.
constexpr sim::Duration kStateGcAge = sim::seconds(30);
}  // namespace

using net::seq::geq;
using net::seq::gt;
using net::seq::lt;

ReplicatedService::ReplicatedService(host::Host& host, AckChannel& channel,
                                     Config config)
    : host_(host), channel_(channel), config_(config) {
  // The replica answers for the origin host's address (v_host(), §3).
  host_.v_host(config_.service.address);
  install_port_options();
  channel_.register_service(
      config_.service,
      [this](const net::Endpoint& from, const AckChannelMessage& message) {
        on_channel_message(from, message);
      });
  refresh_timer_ = host_.scheduler().schedule_after(
      config_.refresh_interval, [this] { refresh(); });
}

ReplicatedService::~ReplicatedService() {
  if (!shut_down_) shutdown();
}

void ReplicatedService::install_port_options() {
  tcp::TcpStack::PortOptions options;
  options.hooks = this;
  options.deterministic_iss = true;
  options.suppress_rst = config_.mode == tcp::ReplicaMode::backup;
  // Segments on connections this replica does not know are reported as
  // pass-through (supports re-commissioned backups; see DESIGN.md).
  options.on_orphan_segment = [this](const net::Ipv4Header& header,
                                     const net::TcpSegment& segment) {
    on_orphan_segment(header, segment);
  };
  host_.tcp().set_port_options(config_.service.port, options);
}

void ReplicatedService::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  host_.scheduler().cancel(refresh_timer_);
  refresh_timer_ = sim::kInvalidTimer;
  channel_.unregister_service(config_.service);
  // Fail-stop: tear down our connections silently.  The client's
  // connection lives on at the surviving replicas; any packet from us —
  // even an RST — would corrupt it.
  std::vector<tcp::ConnectionKey> keys;
  keys.reserve(connections_.size());
  // hn-unordered-iter-ok: collect-only — keys are sorted before any effect
  for (const auto& [key, state] : connections_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const auto& key : keys) {
    if (auto connection = live_connection(key)) {
      connection->set_hooks(nullptr);
      connection->quiet_teardown();
    }
  }
  connections_.clear();
  host_.tcp().set_port_options(config_.service.port,
                               tcp::TcpStack::PortOptions{});
}

// ---- control plane ----------------------------------------------------------

void ReplicatedService::set_predecessor(
    std::optional<net::Ipv4Address> host_address) {
  predecessor_ = host_address;
  // Make sure the new predecessor learns our state promptly.
  if (predecessor_) {
    // hn-unordered-iter-ok: order-independent — clears a flag on every entry
    for (auto& [key, state] : connections_) state->reported = false;
    refresh_now();
  }
}

void ReplicatedService::set_successor(
    std::optional<net::Ipv4Address> host_address) {
  if (successor_ == host_address) return;
  successor_ = host_address;
  // Successor identity changed: its previously-reported state no longer
  // applies.  The gates re-open from the new successor's refresh reports
  // (or immediately, if we are now last in the chain).
  // hn-unordered-iter-ok: order-independent — resets gate flags per entry
  for (auto& [key, state] : connections_) {
    state->has_info = false;
    state->passthrough = false;
  }
  poke_connections();
}

void ReplicatedService::promote_to_primary() {
  if (config_.mode == tcp::ReplicaMode::primary) return;
  HLOG(info, kLog) << host_.name() << " promoted to primary for "
                   << config_.service.to_string();
  host_.record_event(stats::event::kPromoted, config_.service.to_string());
  config_.mode = tcp::ReplicaMode::primary;
  predecessor_.reset();
  install_port_options();
  // Replay anything the failed primary may not have delivered, and
  // re-announce our receive state so the client's flow-control loop closes
  // against us from now on.
  std::vector<tcp::ConnectionKey> keys;
  keys.reserve(connections_.size());
  // hn-unordered-iter-ok: collect-only — keys are sorted before any effect
  for (const auto& [key, state] : connections_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const auto& key : keys) {
    if (auto connection = live_connection(key)) {
      connection->resend_unacknowledged();
    }
  }
}

// ---- hooks -------------------------------------------------------------------

std::uint32_t ReplicatedService::deposit_limit(
    const tcp::TcpConnection& connection, std::uint32_t in_order_end) {
  std::uint32_t limit = in_order_end;
  ConnState* state = nullptr;
  if (successor_) {  // last in the chain has no gate
    auto it = connections_.find(connection.key());
    if (it != connections_.end()) state = it->second.get();
    if (state == nullptr || !state->has_info) {
      limit = connection.rcv_nxt_wire();  // successor state unknown: hold
    } else if (!state->passthrough) {
      limit = state->succ_rcv_nxt;  // deposit byte k iff k < successor ACK#
    }
  }
  if (state != nullptr) {
    track_gate(state->deposit_blocked_since, state->deposit_wait_ctx,
               gate_stats_.deposit_stalls, gate_stats_.deposit_stall_ms,
               lt(limit, in_order_end), trace2::span::kFtcpDepositWait,
               connection.key().remote.port);
  }
  // §4.3 receive gate: with a live successor report, byte k may be
  // deposited only if the successor acknowledged past it — the limit must
  // never run ahead of the successor's ACK high-water mark.
  HN_INVARIANT(gate_deposit,
               !successor_ || state == nullptr || !state->has_info ||
                   state->passthrough || !gt(limit, state->succ_rcv_nxt),
               "deposit limit %u exceeds successor ACK mark %u on %s", limit,
               state != nullptr ? state->succ_rcv_nxt : 0,
               connection.key().to_string().c_str());
  return limit;
}

std::uint32_t ReplicatedService::transmit_limit(
    const tcp::TcpConnection& connection, std::uint32_t window_limit) {
  std::uint32_t limit = window_limit;
  ConnState* state = nullptr;
  if (successor_) {
    auto it = connections_.find(connection.key());
    if (it != connections_.end()) state = it->second.get();
    if (state == nullptr || !state->has_info) {
      limit = connection.snd_nxt_wire();
    } else if (!state->passthrough) {
      limit = state->succ_snd_nxt;  // send byte k iff successor SEQ# covers k
    }
  }
  if (state != nullptr) {
    // The send gate only stalls anything when there is queued data it is
    // holding back; a closed gate with nothing to send is not a stall.
    track_gate(state->send_blocked_since, state->send_wait_ctx,
               gate_stats_.send_stalls, gate_stats_.send_stall_ms,
               lt(limit, window_limit) && connection.unsent_bytes() > 0,
               trace2::span::kFtcpSendWait, connection.key().remote.port);
  }
  // §4.3 send gate: byte k may go out only if the successor's own SEQ#
  // already covers it — the limit must never pass succ_snd_nxt.
  HN_INVARIANT(gate_send,
               !successor_ || state == nullptr || !state->has_info ||
                   state->passthrough || !gt(limit, state->succ_snd_nxt),
               "transmit limit %u exceeds successor SEQ mark %u on %s", limit,
               state != nullptr ? state->succ_snd_nxt : 0,
               connection.key().to_string().c_str());
  return limit;
}

bool ReplicatedService::gate_marks(const tcp::TcpConnection& connection,
                                   tcp::GateMarks& out) {
  // Mirror of deposit_limit()/transmit_limit() without the stall-tracking
  // side effects: the marks the gates would clamp to right now.
  if (!successor_) {  // last in the chain: gates never bind
    out.deposit_unbounded = true;
    out.transmit_unbounded = true;
    return true;
  }
  auto it = connections_.find(connection.key());
  if (it == connections_.end() || !it->second->has_info) {
    // Successor state unknown: hold at the current deposited/sent extents.
    out.deposit_unbounded = false;
    out.transmit_unbounded = false;
    out.deposit_mark = connection.rcv_nxt_wire();
    out.transmit_mark = connection.snd_nxt_wire();
    return true;
  }
  if (it->second->passthrough) {
    out.deposit_unbounded = true;
    out.transmit_unbounded = true;
    return true;
  }
  out.deposit_unbounded = false;
  out.transmit_unbounded = false;
  out.deposit_mark = it->second->succ_rcv_nxt;
  out.transmit_mark = it->second->succ_snd_nxt;
  return true;
}

void ReplicatedService::track_gate(
    std::optional<sim::TimePoint>& blocked_since, std::uint64_t& wait_ctx,
    std::uint64_t& stalls, stats::Histogram& stall_ms, bool binding,
    const char* span_name, std::uint32_t conn_tag) {
  if (binding && !blocked_since) {
    blocked_since = host_.scheduler().now();
    // Remember which delivery hit the closed gate; the whole stall
    // interval becomes one retroactive span under it when it reopens.
    wait_ctx = trace2::current_ctx();
    stalls++;
  } else if (!binding && blocked_since) {
    stall_ms.observe((host_.scheduler().now() - *blocked_since).millis());
    std::uint64_t span = trace2::begin_child(host_.ip().trace_ring(), wait_ctx);
    trace2::commit_at(host_.ip().trace_ring(), span, wait_ctx, span_name,
                      *blocked_since, host_.scheduler().now(), conn_tag, 0);
    blocked_since.reset();
    wait_ctx = 0;
  }
}

bool ReplicatedService::filter_segment(tcp::TcpConnection& connection,
                                       const net::TcpHeader& header,
                                       std::size_t payload_len) {
  bool emit = config_.mode == tcp::ReplicaMode::primary;
#if HYDRANET_INVARIANTS
  if (!emit && test_force_emission_) emit = true;
#endif
  if (emit) {
    // §4.3 backup silence: only the primary may put segments on the wire;
    // a backup's flow-control state travels the ack channel instead.  Any
    // emission by a non-primary also taints the service flow so the
    // redirector can flag the leak if the segment transits client-ward.
    HN_INVARIANT(backup_silence,
                 config_.mode == tcp::ReplicaMode::primary,
                 "non-primary replica emitted seq %u (%zu payload bytes) on %s",
                 header.seq, payload_len, connection.key().to_string().c_str());
#if HYDRANET_INVARIANTS
    if (config_.mode != tcp::ReplicaMode::primary) {
      verify::mark_backup_emission(verify::flow_key(
          config_.service.address.value(), config_.service.port));
    }
#endif
    return true;
  }

  // Backup: strip the flow-control fields and pass them up the chain; the
  // packet is never built (nothing reaches the client).
  if (!header.rst) {
    ConnState& state = state_for(connection.key());
    std::uint32_t virtual_snd = header.seq + header.seq_length(payload_len);
    std::uint32_t rcv = connection.rcv_nxt_wire();
    if (!state.reported || gt(virtual_snd, state.reported_snd) ||
        gt(rcv, state.reported_rcv)) {
      report(connection.key(), virtual_snd, rcv, /*passthrough=*/false);
    }
  }
  return false;
}

void ReplicatedService::on_client_retransmission(
    tcp::TcpConnection& connection) {
  ConnState& state = state_for(connection.key());
  if (!state.detector.observe(connection.rcv_nxt_wire(),
                              host_.scheduler().now())) {
    return;
  }
  raise_failure_signal(connection, state);
}

void ReplicatedService::on_retransmission_timeout(
    tcp::TcpConnection& connection) {
  // Server-push coverage: our own data is not being acknowledged.  The
  // progress marker is the acknowledged extent — as long as the client's
  // ACKs move it, timeouts are ordinary loss, not failure.
  ConnState& state = state_for(connection.key());
  if (!state.send_detector.observe(connection.snd_una_wire(),
                                   host_.scheduler().now())) {
    return;
  }
  raise_failure_signal(connection, state);
}

void ReplicatedService::raise_failure_signal(tcp::TcpConnection& connection,
                                             ConnState& state) {
  signals_raised_++;
  FailureSignal signal;
  signal.service = config_.service;
  signal.connection = connection.key();
  signal.successor = successor_;
  signal.blocked_on_successor =
      successor_.has_value() && !state.passthrough &&
      (!state.has_info || connection.undeposited_in_order() > 0 ||
       net::seq::lt(transmit_limit(connection, connection.snd_nxt_wire() + 1),
                    connection.snd_nxt_wire() + 1));
  HLOG(warn, kLog) << host_.name() << " failure signal on "
                   << signal.connection.to_string()
                   << (signal.blocked_on_successor ? " (blocked on successor)"
                                                   : "");
  host_.record_event(stats::event::kFailureSignal,
                     signal.connection.to_string() +
                         (signal.blocked_on_successor
                              ? " blocked_on_successor"
                              : ""));
  if (failure_callback_) failure_callback_(signal);
}

void ReplicatedService::on_established(tcp::TcpConnection& connection) {
  ConnState& state = state_for(connection.key());
  state.last_activity = host_.scheduler().now();
  host_.record_event(stats::event::kConnectionEstablished,
                     connection.key().to_string());
  if (config_.mode == tcp::ReplicaMode::backup && predecessor_) {
    report(connection.key(), connection.snd_nxt_wire(),
           connection.rcv_nxt_wire(), /*passthrough=*/false);
  }
}

void ReplicatedService::on_connection_closed(tcp::TcpConnection& connection) {
  auto it = connections_.find(connection.key());
  if (it != connections_.end()) {
    // Close out any stall interval still open on this connection so its
    // duration lands in the histograms.
    track_gate(it->second->deposit_blocked_since, it->second->deposit_wait_ctx,
               gate_stats_.deposit_stalls, gate_stats_.deposit_stall_ms,
               /*binding=*/false, trace2::span::kFtcpDepositWait,
               connection.key().remote.port);
    track_gate(it->second->send_blocked_since, it->second->send_wait_ctx,
               gate_stats_.send_stalls, gate_stats_.send_stall_ms,
               /*binding=*/false, trace2::span::kFtcpSendWait,
               connection.key().remote.port);
    connections_.erase(it);
  }
}

// ---- data plane helpers -------------------------------------------------------

ReplicatedService::ConnState& ReplicatedService::state_for(
    const tcp::ConnectionKey& key) {
  auto [it, inserted] = connections_.try_emplace(key);
  if (inserted) {
    it->second = state_arena_.create_unique();
    it->second->detector = RetransmissionDetector(config_.detector);
    it->second->send_detector = RetransmissionDetector(config_.detector);
  }
  it->second->last_activity = host_.scheduler().now();
  return *it->second;
}

std::shared_ptr<tcp::TcpConnection> ReplicatedService::live_connection(
    const tcp::ConnectionKey& key) {
  return host_.tcp().find_connection(key);
}

void ReplicatedService::report(const tcp::ConnectionKey& key,
                               std::uint32_t snd_nxt, std::uint32_t rcv_nxt,
                               bool passthrough) {
  if (!predecessor_) return;
  AckChannelMessage message;
  message.service = config_.service;
  message.client = key.remote;
  message.snd_nxt = snd_nxt;
  message.rcv_nxt = rcv_nxt;
  message.passthrough = passthrough;
  // Ack-report span: a flow-control report leaves on the ack channel.
  // The UDP datagram it becomes inherits this span ambiently (IpStack
  // tags outbound datagrams with the current context), so gate movement
  // on the predecessor links back to the segment that triggered it here.
  std::uint64_t parent = trace2::current_ctx();
  std::uint64_t span = trace2::begin_child(host_.ip().trace_ring(), parent);
  sim::TimePoint span_start = host_.scheduler().now();
  {
    trace2::ScopedCtx ctx(span != 0 ? span : parent);
    (void)channel_.send(*predecessor_, message);
  }
  trace2::commit(host_.ip().trace_ring(), span, parent,
                 trace2::span::kFtcpAckReport, span_start, snd_nxt, rcv_nxt);
  if (!passthrough) {
    ConnState& state = state_for(key);
    state.reported = true;
    state.reported_snd = snd_nxt;
    state.reported_rcv = rcv_nxt;
  }
}

void ReplicatedService::on_channel_message(const net::Endpoint& from,
                                           const AckChannelMessage& message) {
  // Only the current successor's reports may move our gates; stale
  // messages from a removed replica must not.
  if (!successor_ || from.address != *successor_) return;

  tcp::ConnectionKey key{config_.service, message.client};
  ConnState& state = state_for(key);
  if (message.passthrough) {
    state.has_info = true;
    state.passthrough = true;
  } else if (!state.has_info || state.passthrough) {
    state.has_info = true;
    state.passthrough = false;
    state.succ_snd_nxt = message.snd_nxt;
    state.succ_rcv_nxt = message.rcv_nxt;
  } else {
    // Monotonic merge: UDP may reorder.
    if (gt(message.snd_nxt, state.succ_snd_nxt)) {
      state.succ_snd_nxt = message.snd_nxt;
    }
    if (gt(message.rcv_nxt, state.succ_rcv_nxt)) {
      state.succ_rcv_nxt = message.rcv_nxt;
    }
  }
  if (auto connection = live_connection(key)) connection->on_gate_update();
}

void ReplicatedService::on_orphan_segment(const net::Ipv4Header& header,
                                          const net::TcpSegment& segment) {
  if (config_.mode != tcp::ReplicaMode::backup || !predecessor_) return;
  if (header.dst != config_.service.address) return;
  if (segment.header.rst) return;
  // We do not know this connection (e.g. we joined after it opened):
  // declare pass-through so our predecessor's gates are not stalled by us.
  tcp::ConnectionKey key{config_.service,
                         net::Endpoint{header.src, segment.header.src_port}};
  report(key, 0, 0, /*passthrough=*/true);
}

void ReplicatedService::poke_connections() {
  std::vector<tcp::ConnectionKey> keys;
  keys.reserve(connections_.size());
  // hn-unordered-iter-ok: collect-only — keys are sorted before any effect
  for (const auto& [key, state] : connections_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const auto& key : keys) {
    if (auto connection = live_connection(key)) connection->on_gate_update();
  }
}

void ReplicatedService::refresh_now() {
  if (config_.mode != tcp::ReplicaMode::backup || !predecessor_) return;
  std::vector<tcp::ConnectionKey> keys;
  keys.reserve(connections_.size());
  // hn-unordered-iter-ok: collect-only — keys are sorted before any effect
  for (const auto& [key, state] : connections_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const auto& key : keys) {
    if (auto connection = live_connection(key)) {
      report(key, connection.get()->snd_nxt_wire(),
             connection.get()->rcv_nxt_wire(), /*passthrough=*/false);
    }
  }
}

void ReplicatedService::refresh() {
  refresh_timer_ = host_.scheduler().schedule_after(config_.refresh_interval,
                                                    [this] { refresh(); });
  refresh_now();

  // Garbage-collect gate states whose connection is long gone.
  sim::TimePoint now = host_.scheduler().now();
  // hn-unordered-iter-ok: order-independent — erase-only sweep, no effects
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (live_connection(it->first) == nullptr &&
        now - it->second->last_activity > kStateGcAge) {
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<ReplicatedService::ConnectionInfo>
ReplicatedService::connection_info(const tcp::ConnectionKey& key) const {
  auto it = connections_.find(key);
  if (it == connections_.end()) return std::nullopt;
  ConnectionInfo info;
  info.has_successor_info = it->second->has_info;
  info.passthrough = it->second->passthrough;
  info.successor_snd_nxt = it->second->succ_snd_nxt;
  info.successor_rcv_nxt = it->second->succ_rcv_nxt;
  return info;
}

}  // namespace hydranet::ftcp
