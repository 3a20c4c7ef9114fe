#include "tcp/tcp_stack.hpp"

#include <algorithm>
#include <utility>

#include "common/effect_annotations.hpp"
#include "common/logging.hpp"
#include "trace2/recorder.hpp"
#include "trace2/span.hpp"
#include "verify/invariant.hpp"

namespace hydranet::tcp {

void TcpListener::close() {
  if (stack_ == nullptr) return;
  TcpStack* stack = stack_;
  stack_ = nullptr;
  stack->remove_listener(local_);  // destroys *this
}

TcpStack::TcpStack(ip::IpStack& ip, std::uint64_t seed)
    : ip_(ip), rng_(seed) {
  ip_.register_protocol(
      net::IpProto::tcp,
      [this](const net::Ipv4Header& header, CowBytes payload) {
        on_segment_datagram(header, std::move(payload));
      });
}

TcpStack::~TcpStack() {
  // Page-tick callbacks capture `this`; revoke them before the stack goes.
  for (const PageTick& tick : page_ticks_) scheduler().cancel(tick.timer);
}

void TcpStack::request_page_tick(std::size_t page, sim::TimePoint when) {
  if (page_ticks_.size() <= page) {
    HN_EFFECT_ESCAPE(
        "page-tick table growth: one entry per new slab page (page "
        "granularity, not per connection or per segment); steady-state "
        "ticks index in place")
    page_ticks_.resize(page + 1);
    HN_EFFECT_ESCAPE_END()
  }
  PageTick& tick = page_ticks_[page];
  if (tick.armed && tick.deadline <= when) return;  // already early enough
  scheduler().cancel(tick.timer);
  tick.deadline = when;
  tick.armed = true;
  tick.timer =
      scheduler().schedule_at(when, [this, page] { on_page_tick(page); });
}

void TcpStack::on_page_tick(std::size_t page) HN_NONBLOCKING {
  PageTick& tick = page_ticks_[page];
  tick.armed = false;
  tick.timer = sim::kInvalidTimer;
  const sim::TimePoint now = scheduler().now();
  const std::size_t first = page * SlabArena<TcpConnection>::kPageSlots;
  const std::size_t last = first + SlabArena<TcpConnection>::kPageSlots;
#if HYDRANET_INVARIANTS
  check_page_deadlines(page);
#endif
  // Visit due connections in slot order.  Each entry is read when its
  // turn comes, so a visit that moves another connection's deadline is
  // seen.  A vacant slot caches kTimePointMax and is never due; a closed
  // connection awaiting its deferred teardown stays constructed, so a
  // visit is safe even when the tick closes connections.
  for (std::size_t slot = first; slot < last; ++slot) {
    if (slot_due_[slot] <= now) {
      arena_.at(static_cast<std::uint32_t>(slot)).on_page_tick(now);
    }
  }
#if HYDRANET_INVARIANTS
  // Visits can move other connections' deadlines too (a close handler may
  // close a sibling), and the re-arm below reads them all.
  check_page_deadlines(page);
#endif
  // Re-arm at the earliest deadline any connection on the page still wants.
  const sim::TimePoint next =
      *std::min_element(slot_due_.begin() + static_cast<std::ptrdiff_t>(first),
                        slot_due_.begin() + static_cast<std::ptrdiff_t>(last));
  if (next != sim::kTimePointMax) request_page_tick(page, next);
}

#if HYDRANET_INVARIANTS
void TcpStack::check_page_deadlines(std::size_t page) const {
  arena_.for_each_live_in_page(
      page, [&](TcpConnection& conn, std::uint32_t slot) {
        HN_INVARIANT(sched_order,
                     slot_due_[slot] == conn.page_tick_deadline(),
                     "page tick: slot %u caches deadline %lld, connection "
                     "wants %lld",
                     slot, static_cast<long long>(slot_due_[slot].ns),
                     static_cast<long long>(conn.page_tick_deadline().ns));
      });
}
#endif

Result<TcpListener*> TcpStack::listen(net::Ipv4Address address,
                                      std::uint16_t port,
                                      TcpListener::AcceptHandler on_accept,
                                      TcpOptions options) {
  if (port == 0) return Errc::invalid_argument;
  if (!address.is_unspecified() && !ip_.is_local(address)) {
    return Errc::invalid_argument;
  }
  net::Endpoint key{address, port};
  PortListeners& entry = listeners_[port];
  if (address.is_unspecified()) {
    if (entry.wildcard != nullptr) return Errc::address_in_use;
  } else {
    for (const auto& [bound, listener] : entry.exact) {
      if (bound == address) return Errc::address_in_use;
    }
  }
  auto listener = std::unique_ptr<TcpListener>(
      new TcpListener(*this, key, std::move(on_accept), options));
  TcpListener* raw = listener.get();
  if (address.is_unspecified()) {
    entry.wildcard = std::move(listener);
  } else {
    entry.exact.emplace_back(address, std::move(listener));
  }
  return raw;
}

Result<std::shared_ptr<TcpConnection>> TcpStack::connect(
    net::Ipv4Address local_address, const net::Endpoint& remote,
    TcpOptions options) {
  net::Ipv4Address source = local_address.is_unspecified()
                                ? ip_.primary_address()
                                : local_address;
  if (!ip_.is_local(source)) return Errc::invalid_argument;

  std::uint16_t port = allocate_ephemeral_port();
  if (port == 0) return Errc::address_in_use;

  ConnectionKey key{net::Endpoint{source, port}, remote};
  auto connection = make_connection(key, options);
  connections_.insert(key, connection);
  track_local_port(port, +1);
  connection->start_connect();
  return connection;
}

std::shared_ptr<TcpConnection> TcpStack::make_connection(
    const ConnectionKey& key, const TcpOptions& options) {
  std::uint32_t slot = 0;
  auto connection = arena_.create_shared(&slot, *this, key, options);
  connection->slab_slot_ = slot;
  if (slot >= slot_due_.size()) {
    slot_due_.resize(arena_.page_count() * SlabArena<TcpConnection>::kPageSlots,
                     sim::kTimePointMax);
  }
  set_page_deadline(slot, connection->page_tick_deadline());
  return connection;
}

std::uint16_t TcpStack::allocate_ephemeral_port() {
  constexpr int kRangeSize = 65536 - 32768;
  for (int attempts = 0; attempts < kRangeSize; ++attempts) {
    std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ == 65535 ? 32768 : next_ephemeral_ + 1;
    auto it = local_port_refs_.find(candidate);
    if (it == local_port_refs_.end() || it->second == 0) return candidate;
  }
  return 0;  // every ephemeral port has a live connection
}

void TcpStack::track_local_port(std::uint16_t port, int delta) {
  if (delta > 0) {
    local_port_refs_[port]++;
    return;
  }
  auto it = local_port_refs_.find(port);
  if (it == local_port_refs_.end()) return;
  if (it->second > 1) {
    it->second--;
  } else {
    local_port_refs_.erase(it);
  }
}

void TcpStack::set_port_options(std::uint16_t port, PortOptions options) {
  port_options_[port] = options;
}

const TcpStack::PortOptions* TcpStack::port_options(std::uint16_t port) const {
  auto it = port_options_.find(port);
  return it == port_options_.end() ? nullptr : &it->second;
}

std::shared_ptr<TcpConnection> TcpStack::find_connection(
    const ConnectionKey& key) {
  ConnectionTable::Entry* entry = connections_.find(key);
  return entry == nullptr ? nullptr : entry->connection;
}

std::uint32_t TcpStack::generate_iss(const ConnectionKey& key,
                                     bool deterministic) {
  if (deterministic) return deterministic_iss(key);
  if (iss_generator_) return iss_generator_(key);
  return static_cast<std::uint32_t>(rng_.next());
}

void TcpStack::remove_connection(const ConnectionKey& key) {
  // Defer destruction to the next event so a connection can finish the
  // member function that triggered its own removal (segment demux holds
  // only a reference to it).
  std::shared_ptr<TcpConnection> doomed = connections_.erase(key);
  if (doomed == nullptr) return;
  closed_stats_.merge(doomed->stats());
  track_local_port(key.local.port, -1);
  // The same deferred event also severs the app callbacks: they routinely
  // capture the connection's own shared_ptr, and that cycle would pin the
  // slab slot long after teardown.
  scheduler().schedule_after(sim::Duration{0},
                             [doomed] { doomed->release_app_callbacks(); });
}

TcpConnection::Stats TcpStack::aggregate_stats() const {
  TcpConnection::Stats total = closed_stats_;
  // hn-unordered-iter-ok: order-independent — stat merge is commutative
  for (const ConnectionTable::Entry& entry : connections_) {
    total.merge(entry.connection->stats());
  }
  return total;
}

void TcpStack::notify_established(TcpConnection& connection) {
  ConnectionTable::Entry* entry = connections_.find(connection.key());
  if (entry == nullptr || entry->pending_accept == nullptr) return;
  TcpListener* listener = std::exchange(entry->pending_accept, nullptr);
  // A copy: the handler may open connections and move the table's entries.
  std::shared_ptr<TcpConnection> accepted = entry->connection;
  if (listener->handler_) listener->handler_(std::move(accepted));
}

void TcpStack::remove_listener(const net::Endpoint& endpoint) {
  auto entry_it = listeners_.find(endpoint.port);
  if (entry_it == listeners_.end()) return;
  PortListeners& entry = entry_it->second;

  // Detach the listener first so pending accepts can be orphaned.
  std::unique_ptr<TcpListener> removed;
  if (endpoint.address.is_unspecified()) {
    removed = std::move(entry.wildcard);
  } else {
    for (auto it = entry.exact.begin(); it != entry.exact.end(); ++it) {
      if (it->first == endpoint.address) {
        removed = std::move(it->second);
        entry.exact.erase(it);
        break;
      }
    }
  }
  if (entry.empty()) listeners_.erase(entry_it);
  if (removed == nullptr) return;

  // Orphan any connections still waiting to be accepted on this listener.
  // hn-unordered-iter-ok: order-independent — clears fields, no effects
  for (ConnectionTable::Entry& entry : connections_) {
    if (entry.pending_accept == removed.get()) entry.pending_accept = nullptr;
  }
}

TcpListener* TcpStack::find_listener(net::Ipv4Address address,
                                     std::uint16_t port) {
  // One hash probe on the port; exact bindings (if any) shadow the
  // wildcard, as with the old per-endpoint table.
  auto it = listeners_.find(port);
  if (it == listeners_.end()) return nullptr;
  for (const auto& [bound, listener] : it->second.exact) {
    if (bound == address) return listener.get();
  }
  return it->second.wildcard.get();
}

void TcpStack::send_reset_for(const net::Ipv4Header& header,
                              const net::TcpSegment& segment) {
  if (segment.header.rst) return;
  net::TcpSegment rst;
  net::TcpHeader& h = rst.header;
  h.src_port = segment.header.dst_port;
  h.dst_port = segment.header.src_port;
  h.rst = true;
  if (segment.header.ack_flag) {
    h.seq = segment.header.ack;
  } else {
    h.seq = 0;
    h.ack = segment.header.seq + segment.seq_length();
    h.ack_flag = true;
  }
  net::Datagram datagram;
  datagram.header.protocol = net::IpProto::tcp;
  datagram.header.src = header.dst;
  datagram.header.dst = header.src;
  datagram.payload = net::serialize_tcp(rst, header.dst, header.src);
  (void)ip_.send(std::move(datagram));
}

void TcpStack::on_segment_datagram(const net::Ipv4Header& header,
                                   CowBytes payload) {
  auto parsed = net::parse_tcp(payload, header.src, header.dst);
  if (!parsed) return;  // checksum failure: dropped silently
  net::TcpSegment segment = std::move(parsed).value();

  ConnectionKey key{net::Endpoint{header.dst, segment.header.dst_port},
                    net::Endpoint{header.src, segment.header.src_port}};

  if (ConnectionTable::Entry* entry = connections_.find(key)) {
    // A reference, not a shared_ptr copy: a connection that closes while
    // handling the segment leaves the table, but remove_connection keeps
    // it alive until the next event.
    TcpConnection& connection = *entry->connection;
    // Input span: this node processed an inbound segment.  The parent is
    // the sender's segmentize (or redirector copy) span, delivered as the
    // ambient context by the IP demux; everything the connection does in
    // response — ACKs, gate reports, app callbacks — nests under it.
    std::uint64_t parent = trace2::current_ctx();
    std::uint64_t span = trace2::begin_child(ip_.trace_ring(), parent);
    sim::TimePoint span_start = scheduler().now();
    {
      trace2::ScopedCtx ctx(span);
      connection.on_segment(segment);
    }
    trace2::commit(ip_.trace_ring(), span, parent, trace2::span::kTcpInput,
                   span_start,
                   segment.header.seq,
                   static_cast<std::uint32_t>(segment.payload.size()));
    return;
  }

  const PortOptions* port_opts = port_options(segment.header.dst_port);

  // A SYN to a listening port opens a new connection.
  if (segment.header.syn && !segment.header.ack_flag && !segment.header.rst) {
    if (TcpListener* listener =
            find_listener(header.dst, segment.header.dst_port)) {
      std::uint32_t iss =
          generate_iss(key, port_opts != nullptr && port_opts->deterministic_iss);
      auto connection = make_connection(key, listener->options_);
      if (port_opts != nullptr && port_opts->hooks != nullptr) {
        connection->set_hooks(port_opts->hooks);
      }
      connections_.insert(key, connection, listener);
      track_local_port(key.local.port, +1);
      connection->start_passive(iss, segment);
      return;
    }
  }

  if (segment.header.rst) return;

  // No connection, no listener took it: let the ft-TCP layer observe the
  // orphan (pass-through reporting), then answer with RST — unless this
  // port is a backup replica, which must never speak to the client.
  if (port_opts != nullptr && port_opts->on_orphan_segment) {
    port_opts->on_orphan_segment(header, segment);
  }
  if (port_opts != nullptr && port_opts->suppress_rst) return;
  send_reset_for(header, segment);
}

}  // namespace hydranet::tcp
