#include "tcp/tcp_stack.hpp"

#include <limits>

#include "common/effect_annotations.hpp"
#include "common/logging.hpp"
#include "trace2/recorder.hpp"
#include "trace2/span.hpp"

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

void TcpStack::on_page_tick(std::size_t page) {
  PageTick& tick = page_ticks_[page];
  tick.armed = false;
  tick.timer = sim::kInvalidTimer;
  const sim::TimePoint now = scheduler().now();
  // Connections closed (and deferred for destruction) during the sweep
  // stay constructed until their teardown event runs, so visiting the
  // page's occupancy snapshot is safe even when a tick closes connections.
  arena_.for_each_live_in_page(page, [&](TcpConnection& conn, std::uint32_t) {
    conn.on_page_tick(now);
  });
  // Re-arm at the earliest deadline any connection on the page still wants.
  constexpr sim::TimePoint kNever{std::numeric_limits<std::int64_t>::max()};
  sim::TimePoint next = kNever;
  arena_.for_each_live_in_page(page, [&](TcpConnection& conn, std::uint32_t) {
    next = std::min(next, conn.page_tick_deadline());
  });
  if (next != kNever) request_page_tick(page, next);
}

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
  connections_.emplace(key, connection);
  track_local_port(port, +1);
  connection->start_connect();
  return connection;
}

std::shared_ptr<TcpConnection> TcpStack::make_connection(
    const ConnectionKey& key, const TcpOptions& options) {
  std::uint32_t slot = 0;
  auto connection = arena_.create_shared(&slot, *this, key, options);
  connection->slab_slot_ = slot;
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
  auto it = connections_.find(key);
  return it == connections_.end() ? nullptr : it->second;
}

std::uint32_t TcpStack::generate_iss(const ConnectionKey& key,
                                     bool deterministic) {
  if (deterministic) return deterministic_iss(key);
  if (iss_generator_) return iss_generator_(key);
  return static_cast<std::uint32_t>(rng_.next());
}

void TcpStack::remove_connection(const ConnectionKey& key) {
  auto it = connections_.find(key);
  if (it == connections_.end()) return;
  // Defer destruction to the next event so a connection can finish the
  // member function that triggered its own removal.
  std::shared_ptr<TcpConnection> doomed = it->second;
  closed_stats_.merge(doomed->stats());
  connections_.erase(it);
  track_local_port(key.local.port, -1);
  pending_accepts_.erase(key);
  // The same deferred event also severs the app callbacks: they routinely
  // capture the connection's own shared_ptr, and that cycle would pin the
  // slab slot long after teardown.
  scheduler().schedule_after(sim::Duration{0},
                             [doomed] { doomed->release_app_callbacks(); });
}

TcpConnection::Stats TcpStack::aggregate_stats() const {
  TcpConnection::Stats total = closed_stats_;
  // hn-unordered-iter-ok: order-independent — stat merge is commutative
  for (const auto& [key, connection] : connections_) {
    total.merge(connection->stats());
  }
  return total;
}

void TcpStack::notify_established(TcpConnection& connection) {
  auto it = pending_accepts_.find(connection.key());
  if (it == pending_accepts_.end()) return;
  TcpListener* listener = it->second;
  pending_accepts_.erase(it);
  if (listener->handler_) {
    listener->handler_(find_connection(connection.key()));
  }
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
  // hn-unordered-iter-ok: order-independent — erase-only sweep, no effects
  for (auto it = pending_accepts_.begin(); it != pending_accepts_.end();) {
    if (it->second == removed.get()) {
      it = pending_accepts_.erase(it);
    } else {
      ++it;
    }
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

  if (auto connection = find_connection(key)) {
    // Input span: this node processed an inbound segment.  The parent is
    // the sender's segmentize (or redirector copy) span, delivered as the
    // ambient context by the IP demux; everything the connection does in
    // response — ACKs, gate reports, app callbacks — nests under it.
    std::uint64_t parent = trace2::current_ctx();
    std::uint64_t span = trace2::begin_child(ip_.trace_ring(), parent);
    sim::TimePoint span_start = scheduler().now();
    {
      trace2::ScopedCtx ctx(span);
      connection->on_segment(segment);  // local shared_ptr keeps it alive
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
      connections_.emplace(key, connection);
      track_local_port(key.local.port, +1);
      pending_accepts_.emplace(key, listener);
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
