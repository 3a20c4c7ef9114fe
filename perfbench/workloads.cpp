#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "apps/ttcp.hpp"
#include "common/inline_function.hpp"
#include "common/packet_buffer.hpp"
#include "common/rng.hpp"
#include "common/slab.hpp"
#include "host/network.hpp"
#include "redirector/redirector.hpp"
#include "spans.hpp"
#include "testbed/testbed.hpp"

namespace perfbench {

namespace {

using namespace hydranet;

using apps::fnv1a;  // digests of received bytes, for the fingerprint
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

template <typename T, typename Fn>
std::string json_list(const std::vector<T>& items, Fn&& fn) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += fn(items[i]);
  }
  return out + "]";
}

/// "<prefix><index>", the host naming the topologies use.
std::string indexed(const char* prefix, std::size_t index) {
  std::string name = prefix;
  name += std::to_string(index);
  return name;
}

/// One flat JSON object, built field by field from raw JSON values.
class JsonObject {
 public:
  JsonObject& field(const char* name, const std::string& raw) {
    out_ += out_.empty() ? "{\"" : ", \"";
    out_ += name;
    out_ += "\": ";
    out_ += raw;
    return *this;
  }
  std::string str() const { return out_ + "}"; }

 private:
  std::string out_;
};

std::string frames_json(const std::vector<link::Link*>& links) {
  return json_list(links, [](const link::Link* l) {
    return std::to_string(l->stats().delivered);
  });
}

/// Random bytes from the workload seed (content the receivers compare).
Bytes seeded_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next() >> 56);
  return out;
}

/// A stream whose byte at offset o is base[o % period]: `bytes` holds the
/// seeded base plus a copy of its first `tail` bytes, so any write of up to
/// `tail` bytes is one contiguous slice of it.
struct Pattern {
  Bytes bytes;
  std::size_t period = 0;

  Pattern(Rng& rng, std::size_t period_in, std::size_t tail)
      : bytes(seeded_bytes(rng, period_in + tail)), period(period_in) {
    std::copy_n(bytes.begin(), tail,
                bytes.begin() + static_cast<std::ptrdiff_t>(period));
  }
  const std::uint8_t* at(std::uint64_t offset) const {
    return bytes.data() + offset % period;
  }
  /// True when `data` is the stream's content starting at `offset`.
  bool matches(BytesView data, std::uint64_t offset) const {
    std::size_t done = 0;
    while (done < data.size()) {
      const std::size_t start = (offset + done) % period;
      const std::size_t n = std::min(data.size() - done, period - start);
      if (std::memcmp(data.data() + done, bytes.data() + start, n) != 0) {
        return false;
      }
      done += n;
    }
    return true;
  }
};

void read_hosts(Counters& c, const std::vector<host::Host*>& hosts) {
  for (host::Host* h : hosts) {
    const ip::IpStack::Stats& ip = h->ip().stats();
    c.ip_forwarded += ip.forwarded;
    c.ip_fragments += ip.fragments_sent;
    c.ip_parse_drops += ip.parse_drops;
    const tcp::TcpConnection::Stats tcp = h->tcp().aggregate_stats();
    c.tcp_segments += tcp.segments_sent;
    c.fastpath_hits += tcp.fastpath_hits;
    c.fastpath_misses += tcp.fastpath_misses;
    c.retransmits += tcp.retransmits;
    c.dup_acks += tcp.dup_acks;
    c.keepalives += tcp.keepalives_sent;
  }
}

void read_links(Counters& c, const std::vector<link::Link*>& links) {
  for (const link::Link* l : links) {
    const link::Link::Stats s = l->stats();
    c.frames += s.delivered;
    c.queue_drops += s.queue_drops;
    c.loss_drops += s.loss_drops;
    const stats::Histogram depth = l->queue_depth();
    const auto& buckets = depth.bucket_counts();
    if (c.queue_depth.size() < buckets.size()) {
      c.queue_depth.resize(buckets.size());
    }
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      c.queue_depth[i] += buckets[i];
    }
  }
}

/// Process-wide blocks and the engine's schedulers.
void read_process(Counters& c, host::Network& net) {
  const DatapathCounters dp = datapath_totals();
  c.copied_bytes = dp.copied_bytes;
  c.allocations = dp.allocations;
  c.cow_breaks = dp.cow_breaks;
  c.pool_hits = dp.pool_hits;
  c.pool_misses = dp.pool_misses;
  c.heap_fallbacks = inline_function_heap_allocs_total();
  const SlabCounters slab = slab_totals();
  c.slab_bytes = slab.bytes;
  c.slab_live = slab.live;
  const link::BatchCounters batch = link::batch_counters_total();
  c.batch_bursts = batch.bursts;
  c.batch_frames = batch.packets;
  for (std::size_t s = 0; s < net.shards(); ++s) {
    c.wheel_inserts += net.engine().scheduler(s).wheel_inserts();
    c.wheel_cascades += net.engine().scheduler(s).wheel_cascades();
  }
  const sim::ShardEngine::Counters engine = net.engine().counters_total();
  c.epochs = engine.epochs;
  c.mailbox_posted = engine.mailbox_posted;
  c.mailbox_overflows = engine.mailbox_overflows;
}

// ---- udp_ft_fanout ---------------------------------------------------------

/// client -> redirector -> FT service (primary + 3 backups), one datagram in
/// flight: each operation is one send_to plus Network::run() until every
/// replica has it.
class UdpFanout final : public Workload {
 public:
  static constexpr int kReplicas = 4;
  static constexpr std::size_t kPool = 4096;

  const char* name() const override { return "udp_ft_fanout"; }
  std::size_t warmup_ops() const override { return 20000; }
  std::size_t fingerprint_ops() const override { return 20000; }

  void build(std::uint64_t seed, bool digest) override {
    f_.reset();
    Scoped span(Kind::build);
    f_ = std::make_unique<Fixture>(seed, digest);
  }
  void destroy() override { f_.reset(); }

  void op() override {
    Fixture& f = *f_;
    f.in_flight = f.next++ % kPool;
    f.got.fill(0);
    f.bad = false;
    const Bytes& payload = f.payloads[f.in_flight];
    Status sent = Status::success();
    {
      Scoped span(Kind::udp_send_to);
      sent = f.socket->send_to(f.service, payload);
    }
    {
      Scoped span(Kind::sim_run);
      f.events += f.net.run();
    }
    f.payload_bytes += payload.size();
    attempted++;
    bool ok = sent.ok() && !f.bad;
    for (std::uint32_t n : f.got) ok = ok && n == 1;
    if (!ok) failed++;
  }

  std::string fingerprint() override {
    Fixture& f = *f_;
    std::vector<std::uint64_t> digests(f.digests.begin(), f.digests.end());
    return JsonObject()
        .field("datagrams", std::to_string(f.next))
        .field("sim_end_ns", std::to_string(f.net.now().ns))
        .field("frames_per_link", frames_json(f.links))
        .field("replica_digests", json_list(digests, hex))
        .str();
  }

  void read(Counters& c) override {
    Fixture& f = *f_;
    read_hosts(c, f.hosts);
    read_links(c, f.links);
    read_process(c, f.net);
    const redirector::Redirector::Stats& r = f.redirector->stats();
    c.redirected = r.redirected_datagrams;
    c.redirector_copies = r.copies_sent;
    c.inner_serializations = r.inner_serializations;
    c.events = f.events;
    c.payload_bytes = f.payload_bytes;
  }
  std::uint64_t pending() override { return f_->net.scheduler().pending(); }

 private:
  struct Fixture {
    host::Network net;
    net::Endpoint service{net::Ipv4Address(192, 20, 225, 20), 80};
    std::vector<host::Host*> hosts;
    std::vector<link::Link*> links;
    std::unique_ptr<redirector::Redirector> redirector;
    udp::UdpSocket* socket = nullptr;
    std::vector<Bytes> payloads;
    std::size_t next = 0;
    std::size_t in_flight = 0;
    std::array<std::uint32_t, kReplicas> got{};
    std::array<std::uint64_t, kReplicas> digests{};
    bool bad = false;
    bool digest = false;
    std::uint64_t events = 0;
    std::uint64_t payload_bytes = 0;

    Fixture(std::uint64_t seed, bool digest_in)
        : net(seed), digest(digest_in) {
      digests.fill(kFnvOffset);
      Rng rng(seed);
      payloads.reserve(kPool);
      for (std::size_t i = 0; i < kPool; ++i) {
        payloads.push_back(seeded_bytes(rng, 32 + rng.next() % (1400 - 32 + 1)));
      }

      host::Host& client = net.add_host("client");
      host::Host& rd = net.add_host("redirector");
      hosts = {&client, &rd};
      links.push_back(&net.connect(client, net::Ipv4Address(10, 0, 1, 2), rd,
                                   net::Ipv4Address(10, 0, 1, 1), 24));
      client.ip().add_default_route(net::Ipv4Address(10, 0, 1, 1), nullptr);
      redirector = std::make_unique<redirector::Redirector>(rd);
      rd.ip().add_route(service.address, 32, net::Ipv4Address(10, 0, 2, 2),
                        nullptr);
      for (int i = 0; i < kReplicas; ++i) {
        host::Host& server = net.add_host(indexed("replica", static_cast<std::size_t>(i)));
        hosts.push_back(&server);
        const auto subnet = static_cast<std::uint8_t>(2 + i);
        const net::Ipv4Address address(10, 0, subnet, 2);
        links.push_back(&net.connect(rd, net::Ipv4Address(10, 0, subnet, 1),
                                     server, address, 24));
        server.ip().add_default_route(net::Ipv4Address(10, 0, subnet, 1),
                                      nullptr);
        server.v_host(service.address);
        udp::UdpSocket* sink =
            server.udp().bind(service.address, service.port).value();
        sink->set_rx_handler([this, i](const net::Endpoint&, CowBytes data) {
          mark(Kind::sink, static_cast<std::uint16_t>(i));
          const Bytes& want = payloads[in_flight];
          const BytesView got_view = data.view();
          if (got_view.size() != want.size() ||
              std::memcmp(got_view.data(), want.data(), want.size()) != 0) {
            bad = true;
          }
          got[static_cast<std::size_t>(i)]++;
          if (digest) {
            digests[static_cast<std::size_t>(i)] =
                fnv1a(got_view, digests[static_cast<std::size_t>(i)]);
          }
        });
        if (i == 0) {
          redirector->install_service(service,
                                      redirector::ServiceMode::fault_tolerant,
                                      address);
        } else {
          (void)redirector->add_backup(service, address);
        }
      }
      socket = client.udp().bind(net::Ipv4Address(), 0).value();

      // Marks for the traced run: the client's frame entering its link and
      // each tunnelled copy entering a replica link.
      if (g_tracer != nullptr) {
        links[0]->set_tap([](const link::NetworkInterface&,
                             const PacketBuffer&) { mark(Kind::tap_client); });
        for (std::size_t i = 1; i < links.size(); ++i) {
          links[i]->set_tap(
              [i](const link::NetworkInterface&, const PacketBuffer&) {
                mark(Kind::tap_replica, static_cast<std::uint16_t>(i));
              });
        }
      }
    }
  };

  std::unique_ptr<Fixture> f_;
};

// ---- ttcp_ft_sessions ------------------------------------------------------

/// Figure 4's FT configuration (primary + 1 backup behind the redirector,
/// period TCP options, Nagle off), driven by a closed loop of sequential
/// ttcp sessions: connect, 1,500 writes of seeded sizes, close, wait for EOF
/// at both replicas.
class TtcpSessions final : public Workload {
 public:
  static constexpr std::size_t kWrites = 1500;
  static constexpr std::array<std::size_t, 4> kSizes{16, 64, 256, 1024};
  static constexpr std::size_t kPatternBytes = 65521;  // prime: no aliasing
  static constexpr std::size_t kMaxWrite = 1024;
  static constexpr sim::Duration kSlice = sim::milliseconds(10);
  static constexpr sim::Duration kSessionCap = sim::seconds(300);

  const char* name() const override { return "ttcp_ft_sessions"; }
  std::size_t warmup_ops() const override { return 2; }
  std::size_t fingerprint_ops() const override { return 10; }

  void build(std::uint64_t seed, bool digest) override {
    f_.reset();
    Scoped span(Kind::build);
    f_ = std::make_unique<Fixture>(seed, digest);
  }
  void destroy() override { f_.reset(); }

  void op() override {
    Fixture& f = *f_;
    const std::size_t s = f.sessions.size();
    f.sessions.push_back(Session{f.rng.next()});
    const std::uint64_t eliminated_before = f.eliminated();
    attempted++;

    Result<std::shared_ptr<tcp::TcpConnection>> conn =
        Errc::not_connected;
    {
      Scoped span(Kind::tcp_connect);
      conn = f.bed.client().tcp().connect(net::Ipv4Address(), f.service(),
                                          f.options);
    }
    if (!conn.ok()) {
      failed++;
      return;
    }
    f.client = conn.value();
    tcp::TcpConnection* raw = f.client.get();
    Fixture* fp = &f;
    raw->set_on_established([fp, s, raw] { fp->pump(s, raw); });
    raw->set_on_writable([fp, s, raw] { fp->pump(s, raw); });
    raw->set_on_closed([fp, s](Errc reason) {
      if (reason != Errc::ok) fp->sessions[s].client_failed = true;
    });

    const sim::TimePoint deadline = f.bed.net().now() + kSessionCap;
    while (!f.done(s) && !f.sessions[s].client_failed &&
           f.bed.net().now() < deadline) {
      Scoped span(Kind::sim_run);
      f.events += f.bed.net().run_for(kSlice);
    }
    f.client.reset();
    if (!f.verified(s) || f.eliminated() != eliminated_before) failed++;
  }

  std::string fingerprint() override {
    Fixture& f = *f_;
    std::vector<link::Link*> links{&f.bed.client_link(), &f.bed.server_link(0),
                                   &f.bed.server_link(1)};
    std::vector<std::uint64_t> digests;
    for (const Replica& r : f.replicas) digests.push_back(r.digest);
    std::uint64_t bytes = 0;
    for (const Session& s : f.sessions) bytes += s.written;
    return JsonObject()
        .field("sessions", std::to_string(f.sessions.size()))
        .field("bytes", std::to_string(bytes))
        .field("sim_end_ns", std::to_string(f.bed.net().now().ns))
        .field("frames_per_link", frames_json(links))
        .field("replica_digests", json_list(digests, hex))
        .str();
  }

  void read(Counters& c) override {
    Fixture& f = *f_;
    testbed::Testbed& bed = f.bed;
    read_hosts(c, {&bed.client(), &bed.redirector_host(), &bed.server(0),
                   &bed.server(1)});
    read_links(c, {&bed.client_link(), &bed.server_link(0),
                   &bed.server_link(1)});
    read_process(c, bed.net());
    const redirector::Redirector::Stats& r = bed.redirector().stats();
    c.redirected = r.redirected_datagrams;
    c.redirector_copies = r.copies_sent;
    c.inner_serializations = r.inner_serializations;
    stats::Registry& registry = bed.stats();
    c.gate_cached_checks = registry.total("ftcp.gate.cached_checks");
    c.deposit_stalls = registry.total("ftcp.deposit_gate_stalls");
    c.send_stalls = registry.total("ftcp.send_gate_stalls");
    c.ack_channel_sent = registry.total("ftcp.ack_channel_sent");
    c.failure_signals = registry.total("ftcp.failure_signals");
    if (const stats::NodeMetrics* node = registry.node("testbed")) {
      auto it = node->gauges.find("ftcp.ack_channel_lost");
      if (it != node->gauges.end()) c.ack_channel_lost = it->second.value();
    }
    c.replicas_eliminated = f.eliminated();
    c.events = f.events;
    for (const Session& s : f.sessions) c.payload_bytes += s.written;
  }
  std::uint64_t pending() override {
    return f_->bed.net().scheduler().pending();
  }

 private:
  struct Session {
    std::uint64_t salt = 0;  ///< stream byte o is pattern at salt + o
    std::uint64_t written = 0;
    std::size_t writes = 0;       ///< completed application writes
    std::size_t write_left = 0;   ///< bytes of the current write not yet sent
    bool closed = false;
    bool client_failed = false;
  };
  /// One replica's application: drains every accepted connection (session
  /// i is the i-th connection it accepts) and checks the bytes.
  struct Replica {
    struct Conn {
      std::uint64_t received = 0;
      bool eof = false;
      bool bad = false;
    };
    std::vector<Conn> conns;
    std::uint64_t digest = kFnvOffset;
  };

  struct Fixture {
    testbed::Testbed bed;
    tcp::TcpOptions options = apps::period_tcp_options();
    Rng rng;
    Pattern pattern;
    std::vector<Session> sessions;
    std::vector<Replica> replicas;
    std::shared_ptr<tcp::TcpConnection> client;
    std::uint64_t events = 0;
    bool digest = false;

    static testbed::TestbedConfig config(std::uint64_t seed) {
      testbed::TestbedConfig c;
      c.setup = testbed::Setup::primary_backup;
      c.backups = 1;
      c.seed = seed;
      return c;
    }

    Fixture(std::uint64_t seed, bool digest_in)
        : bed(config(seed)),
          rng(seed),
          pattern(rng, kPatternBytes, kMaxWrite),
          digest(digest_in) {
      sessions.reserve(1 << 16);
      replicas.resize(bed.server_count());
      for (std::size_t r = 0; r < replicas.size(); ++r) {
        replicas[r].conns.reserve(1 << 16);
        auto listener = bed.server(r).tcp().listen(
            service().address, service().port,
            [this, r](std::shared_ptr<tcp::TcpConnection> conn) {
              accept(r, conn.get());
            },
            options);
        if (!listener.ok()) std::abort();
      }
    }

    net::Endpoint service() const { return bed.config().service; }
    std::uint64_t eliminated() {
      return bed.redirector_agent().stats().replicas_eliminated;
    }

    void accept(std::size_t r, tcp::TcpConnection* conn) {
      const std::size_t s = replicas[r].conns.size();
      replicas[r].conns.emplace_back();
      conn->set_on_readable([this, r, s, conn] { drain(r, s, conn); });
    }

    void drain(std::size_t r, std::size_t s, tcp::TcpConnection* conn) {
      Replica& replica = replicas[r];
      Replica::Conn& state = replica.conns[s];
      for (;;) {
        Result<Bytes> data = Errc::would_block;
        {
          Scoped span(Kind::tcp_recv);
          data = conn->recv(64 * 1024);
        }
        if (!data.ok()) return;
        const Bytes& bytes = data.value();
        if (bytes.empty()) {
          if (!state.eof) {
            state.eof = true;
            conn->close();
          }
          return;
        }
        if (s >= sessions.size() ||
            !pattern.matches(bytes, sessions[s].salt + state.received)) {
          state.bad = true;
        }
        if (digest) replica.digest = fnv1a(bytes, replica.digest);
        state.received += bytes.size();
      }
    }

    /// ttcp's transmit loop with seeded write sizes.  A write goes into
    /// the send buffer whole (as with a blocking socket's low-water mark),
    /// so every write is one wire segment.
    void pump(std::size_t s, tcp::TcpConnection* conn) {
      Session& session = sessions[s];
      while (session.writes < kWrites) {
        if (session.write_left == 0) {
          session.write_left = kSizes[rng.next() % kSizes.size()];
        }
        if (conn->send_capacity() < session.write_left) return;
        Result<std::size_t> sent = Errc::would_block;
        {
          Scoped span(Kind::tcp_send);
          sent = conn->send(BytesView(pattern.at(session.salt + session.written),
                                      session.write_left));
        }
        if (!sent.ok()) return;  // resume on writable
        session.written += sent.value();
        session.write_left -= sent.value();
        if (session.write_left != 0) return;
        session.writes++;
      }
      if (!session.closed) {
        session.closed = true;
        conn->close();  // FIN after the stream drains
      }
    }

    bool done(std::size_t s) const {
      for (const Replica& r : replicas) {
        if (r.conns.size() <= s || !r.conns[s].eof) return false;
      }
      return true;
    }
    bool verified(std::size_t s) const {
      if (!done(s) || sessions[s].writes != kWrites) return false;
      for (const Replica& r : replicas) {
        const Replica::Conn& c = r.conns[s];
        if (c.bad || c.received != sessions[s].written) return false;
      }
      return true;
    }
  };

  std::unique_ptr<Fixture> f_;
};

// ---- tcp_conn_scale --------------------------------------------------------

/// 100k connections from 4 client hosts to one server (coalesced timers,
/// 5 s keepalive, rx bursts of 8).  The ramp opens them in waves paced over
/// one keepalive period, so keepalives spread evenly over time; each
/// operation then issues 1 KiB writes on a slice of 10k active connections
/// and runs 100 ms of simulated time.
class ConnScale final : public Workload {
 public:
  static constexpr std::size_t kConnections = 100000;
  static constexpr std::size_t kClientHosts = 4;
  static constexpr std::size_t kActive = 10000;
  static constexpr std::size_t kWave = 2048;
  static constexpr std::size_t kSlicesPerWindow = 60;  // 6 s window
  static constexpr sim::Duration kSlice = sim::milliseconds(100);
  static constexpr std::size_t kWriteBytes = 1024;
  static constexpr std::size_t kPatternBytes = 4096;

  const char* name() const override { return "tcp_conn_scale"; }
  std::size_t warmup_ops() const override { return 10; }
  std::size_t fingerprint_ops() const override { return kSlicesPerWindow; }
  std::size_t setup_reps() const override { return 4; }

  void build(std::uint64_t seed, bool digest) override {
    f_.reset();
    {
      Scoped span(Kind::build);
      f_ = std::make_unique<Fixture>(seed, digest);
    }
    f_->ramp(*this);
    window_keepalives_ = f_->keepalives();
  }
  void destroy() override { f_.reset(); }

  void op() override {
    Fixture& f = *f_;
    const std::size_t group = f.slices % kSlicesPerWindow;
    const std::size_t per_group = kActive / kSlicesPerWindow + 1;
    const std::size_t end = std::min(kActive, (group + 1) * per_group);
    for (std::size_t i = group * per_group; i < end; ++i) {
      const std::size_t conn = f.active[i];
      Result<std::size_t> sent = Errc::would_block;
      {
        Scoped span(Kind::tcp_send);
        sent = f.client_conns[conn]->send(
            BytesView(f.pattern.at(f.client_written[i]), kWriteBytes));
      }
      attempted++;
      if (!sent.ok() || sent.value() != kWriteBytes) {
        failed++;
        continue;
      }
      f.client_written[i] += kWriteBytes;
      f.written += kWriteBytes;
    }
    {
      Scoped span(Kind::sim_run);
      f.events += f.net.run_for(kSlice);
    }
    f.slices++;
  }

  void finish() override {
    Fixture& f = *f_;
    f.events += f.net.run_for(sim::seconds(1));
    const std::uint64_t missing =
        f.written > f.received ? f.written - f.received : 0;
    failed += (missing + kWriteBytes - 1) / kWriteBytes + f.bad;
  }

  std::string fingerprint() override {
    Fixture& f = *f_;
    return JsonObject()
        .field("accepted", std::to_string(f.accepted))
        .field("slices", std::to_string(f.slices))
        .field("sim_end_ns", std::to_string(f.net.now().ns))
        .field("keepalives_in_window",
               std::to_string(f.keepalives() - window_keepalives_))
        .field("frames_per_link", frames_json(f.links))
        .field("server_digest", hex(f.digest))
        .str();
  }

  void read(Counters& c) override {
    Fixture& f = *f_;
    std::vector<host::Host*> hosts{f.server};
    hosts.insert(hosts.end(), f.clients.begin(), f.clients.end());
    read_hosts(c, hosts);
    read_links(c, f.links);
    read_process(c, f.net);
    c.events = f.events;
    c.payload_bytes = f.written;
    c.connections = f.accepted;
  }
  std::uint64_t pending() override { return f_->net.scheduler().pending(); }

 private:
  struct Fixture {
    host::Network net;
    host::Host* server = nullptr;
    std::vector<host::Host*> clients;
    std::vector<link::Link*> links;
    net::Endpoint service{net::Ipv4Address(192, 20, 225, 20), 80};
    tcp::TcpOptions options;
    std::vector<std::shared_ptr<tcp::TcpConnection>> client_conns;
    std::vector<std::uint64_t> server_received;  ///< per accepted connection
    std::vector<std::size_t> active;             ///< client_conns indexes
    std::vector<std::uint64_t> client_written;   ///< per active connection
    Rng rng;
    Pattern pattern;
    std::size_t accepted = 0;
    std::size_t slices = 0;
    std::uint64_t written = 0;
    std::uint64_t received = 0;
    std::uint64_t bad = 0;
    std::uint64_t events = 0;
    std::uint64_t digest = kFnvOffset;
    bool digesting = false;

    Fixture(std::uint64_t seed, bool digest_in)
        : net(seed),
          rng(seed),
          pattern(rng, kPatternBytes, kWriteBytes),
          digesting(digest_in) {
      options.keepalive_interval = sim::seconds(5);
      options.coalesce_timers = true;
      server = &net.add_host("server");
      server->v_host(service.address);
      link::Link::Config config;
      config.bandwidth_bps = 10e9;
      config.queue_capacity_packets = 4096;
      config.batch_frames = 8;
      for (std::size_t i = 0; i < kClientHosts; ++i) {
        host::Host& client = net.add_host(indexed("c", i));
        const auto subnet = static_cast<std::uint8_t>(i + 1);
        links.push_back(&net.connect(client, net::Ipv4Address(10, subnet, 0, 2),
                                     *server,
                                     net::Ipv4Address(10, subnet, 0, 1), 24,
                                     config));
        client.ip().add_default_route(net::Ipv4Address(10, subnet, 0, 1),
                                      nullptr);
        clients.push_back(&client);
      }
      client_conns.reserve(kConnections);
      server_received.reserve(kConnections);
      auto listener = server->tcp().listen(
          net::Ipv4Address(), service.port,
          [this](std::shared_ptr<tcp::TcpConnection> conn) {
            const std::size_t index = server_received.size();
            server_received.push_back(0);
            tcp::TcpConnection* raw = conn.get();
            raw->set_on_readable([this, raw, index] { drain(raw, index); });
            accepted++;
          },
          options);
      if (!listener.ok()) std::abort();

      // The active set: a seeded sample of kActive connections.
      std::vector<std::size_t> all(kConnections);
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
      for (std::size_t i = 0; i < kActive; ++i) {
        std::swap(all[i], all[i + rng.next() % (all.size() - i)]);
      }
      active.assign(all.begin(), all.begin() + kActive);
      client_written.assign(kActive, 0);
    }

    void drain(tcp::TcpConnection* conn, std::size_t index) {
      for (;;) {
        Result<Bytes> data = Errc::would_block;
        {
          Scoped span(Kind::tcp_recv);
          data = conn->recv(64 * 1024);
        }
        if (!data.ok() || data.value().empty()) return;
        const Bytes& bytes = data.value();
        if (!pattern.matches(bytes, server_received[index])) bad++;
        if (digesting) digest = fnv1a(bytes, digest);
        server_received[index] += bytes.size();
        received += bytes.size();
      }
    }

    /// Paced waves over one keepalive period, until every connection is
    /// accepted (a connection not accepted is a failed operation).
    void ramp(Workload& tally) {
      const std::size_t waves = (kConnections + kWave - 1) / kWave;
      const sim::Duration gap = options.keepalive_interval / static_cast<std::int64_t>(waves);
      const sim::TimePoint deadline = net.now() + sim::seconds(60);
      while (accepted < kConnections && net.now() < deadline) {
        for (std::size_t wave = 0;
             wave < kWave && client_conns.size() < kConnections; ++wave) {
          host::Host& client =
              *clients[client_conns.size() * kClientHosts / kConnections];
          Result<std::shared_ptr<tcp::TcpConnection>> conn =
              Errc::not_connected;
          {
            Scoped span(Kind::tcp_connect);
            conn = client.tcp().connect(net::Ipv4Address(), service, options);
          }
          if (!conn.ok()) break;
          client_conns.push_back(conn.value());
        }
        events += net.run_for(gap);
      }
      tally.attempted += kConnections;
      tally.failed += kConnections - std::min(accepted, kConnections);
    }

    std::uint64_t keepalives() {
      Counters c;
      std::vector<host::Host*> hosts{server};
      hosts.insert(hosts.end(), clients.begin(), clients.end());
      read_hosts(c, hosts);
      return c.keepalives;
    }
  };

  std::unique_ptr<Fixture> f_;
  std::uint64_t window_keepalives_ = 0;
};

// ---- udp_fleet_2shard ------------------------------------------------------

/// 8 paced one-hop UDP pairs on a 2-shard engine: 4 pairs inside one shard,
/// 4 straddling the two.  Each operation sends one burst of kBurst
/// datagrams per pair, 1 us apart, and runs the engine until it drains.
class Fleet2Shard final : public Workload {
 public:
  static constexpr std::size_t kShards = 2;
  static constexpr std::size_t kPairs = 8;
  static constexpr std::size_t kBurst = 1000;
  static constexpr std::size_t kPool = 16;

  const char* name() const override { return "udp_fleet_2shard"; }
  std::size_t warmup_ops() const override { return 20; }
  std::size_t fingerprint_ops() const override { return 20; }

  void build(std::uint64_t seed, bool digest) override {
    f_.reset();
    Scoped span(Kind::build);
    f_ = std::make_unique<Fixture>(seed, digest);
  }
  void destroy() override { f_.reset(); }

  void op() override {
    Fixture& f = *f_;
    for (const auto& flow : f.flows) {
      Flow* raw = flow.get();
      raw->tx.remaining = kBurst;
      raw->rx.delivered = 0;
      f.net.schedule_on(*raw->tx.client, f.net.now() + raw->tx.phase,
                        [raw] { raw->tick(); });
    }
    {
      Scoped span(Kind::sim_run);
      f.events += f.net.run();
    }
    for (const auto& flow : f.flows) {
      attempted += kBurst;
      const std::uint64_t delivered = flow->rx.delivered;
      failed += (delivered < kBurst ? kBurst - delivered : 0) + flow->rx.bad;
      flow->rx.bad = 0;
      f.payload_bytes += flow->tx.bytes;
      flow->tx.bytes = 0;
    }
  }

  std::string fingerprint() override {
    Fixture& f = *f_;
    std::vector<std::uint64_t> digests;
    for (const auto& flow : f.flows) digests.push_back(flow->rx.digest);
    return JsonObject()
        .field("sim_end_ns", std::to_string(f.net.now().ns))
        .field("frames_per_link", frames_json(f.links))
        .field("sink_digests", json_list(digests, hex))
        .str();
  }

  void read(Counters& c) override {
    Fixture& f = *f_;
    read_hosts(c, f.hosts);
    read_links(c, f.links);
    read_process(c, f.net);
    c.events = f.events;
    c.payload_bytes = f.payload_bytes;
  }
  std::uint64_t pending() override {
    Fixture& f = *f_;
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < f.net.shards(); ++s) {
      total += f.net.engine().scheduler(s).pending();
    }
    return total;
  }

 private:
  /// One pair.  The client's shard touches `tx`, the server's shard `rx`;
  /// the main thread reads both only while the engine is idle.
  struct Flow {
    struct alignas(64) Tx {
      host::Host* client = nullptr;
      udp::UdpSocket* socket = nullptr;
      net::Endpoint service;
      sim::Duration phase{};
      std::size_t remaining = 0;
      std::size_t sent = 0;
      std::uint64_t bytes = 0;
    } tx;
    struct alignas(64) Rx {
      std::size_t received = 0;
      std::uint64_t delivered = 0;
      std::uint64_t bad = 0;
      std::uint64_t digest = kFnvOffset;
      bool digesting = false;
    } rx;
    std::vector<Bytes> payloads;
    static constexpr sim::Duration kGap = sim::microseconds(1);

    void tick() {
      const Bytes& payload = payloads[tx.sent++ % kPool];
      (void)tx.socket->send_to(tx.service, payload);
      tx.bytes += payload.size();
      if (--tx.remaining == 0) return;
      sim::Scheduler& clock = tx.client->scheduler();
      clock.schedule_at(clock.now() + kGap, [this] { tick(); });
    }
    void on_datagram(BytesView data) {
      const Bytes& want = payloads[rx.received++ % kPool];
      if (data.size() != want.size() ||
          std::memcmp(data.data(), want.data(), want.size()) != 0) {
        rx.bad++;
      }
      if (rx.digesting) rx.digest = fnv1a(data, rx.digest);
      rx.delivered++;
    }
  };

  struct Fixture {
    host::Network net;
    std::vector<host::Host*> hosts;
    std::vector<link::Link*> links;
    std::vector<std::unique_ptr<Flow>> flows;
    std::uint64_t events = 0;
    std::uint64_t payload_bytes = 0;

    Fixture(std::uint64_t seed, bool digest) : net(seed, kShards) {
      Rng rng(seed);
      link::Link::Config config;
      config.bandwidth_bps = 10e9;  // serialization off the critical path
      for (std::size_t i = 0; i < kPairs; ++i) {
        const bool cross = i >= kPairs / 2;
        const std::size_t client_shard = i % kShards;
        const std::size_t server_shard =
            cross ? (i + 1) % kShards : client_shard;
        host::Host& client = net.add_host(indexed("c", i), client_shard);
        host::Host& server = net.add_host(indexed("s", i), server_shard);
        hosts.push_back(&client);
        hosts.push_back(&server);
        const auto subnet = static_cast<std::uint8_t>(i + 1);
        links.push_back(&net.connect(client, net::Ipv4Address(10, subnet, 0, 2),
                                     server, net::Ipv4Address(10, subnet, 0, 1),
                                     24, config));

        auto flow = std::make_unique<Flow>();
        Flow* raw = flow.get();
        for (std::size_t p = 0; p < kPool; ++p) {
          flow->payloads.push_back(
              seeded_bytes(rng, 32 + rng.next() % (1400 - 32 + 1)));
        }
        flow->tx.client = &client;
        flow->tx.service = {net::Ipv4Address(10, subnet, 0, 1), 80};
        flow->tx.phase = sim::nanoseconds(
            1000 + static_cast<std::int64_t>(rng.next() % 1000));
        flow->tx.socket = client.udp().bind(net::Ipv4Address(), 0).value();
        flow->rx.digesting = digest;
        udp::UdpSocket* sink =
            server.udp().bind(flow->tx.service.address, 80).value();
        sink->set_rx_handler([raw](const net::Endpoint&, CowBytes data) {
          raw->on_datagram(data.view());
        });
        flows.push_back(std::move(flow));
      }
    }
  };

  std::unique_ptr<Fixture> f_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"udp_ft_fanout", "ttcp_ft_sessions", "tcp_conn_scale",
          "udp_fleet_2shard"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "udp_ft_fanout") return std::make_unique<UdpFanout>();
  if (name == "ttcp_ft_sessions") return std::make_unique<TtcpSessions>();
  if (name == "tcp_conn_scale") return std::make_unique<ConnScale>();
  if (name == "udp_fleet_2shard") return std::make_unique<Fleet2Shard>();
  return nullptr;
}

}  // namespace perfbench
