// Coalesced per-page timers (DESIGN: one scheduler event serves a whole
// 64-slot slab page):
//   - keepalives fire from the page tick and keep idle connections probed,
//   - many idle keepalive connections occupy O(pages) scheduler entries,
//   - coalesced RTOs (TcpOptions::coalesce_timers) recover losses with the
//     same outcome as per-connection timers,
//   - pages whose connections want the tick at different instants keep
//     exactly the recorded keepalive/RTO schedule and wire bytes.
#include <gtest/gtest.h>

#include <random>

#include "apps/ttcp.hpp"
#include "test_util.hpp"

namespace hydranet::tcp {
namespace {

using testutil::ByteSinkServer;
using testutil::DropNth;
using testutil::Pair;
using testutil::ip;

TEST(TimerCoalesce, KeepaliveProbesIdleConnection) {
  Pair pair;
  ByteSinkServer server(pair.b, ip(10, 0, 0, 2), 9000);

  TcpOptions options;
  options.keepalive_interval = sim::seconds(1);
  auto result =
      pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 9000}, options);
  ASSERT_TRUE(result.ok());
  auto conn = result.value();

  pair.net.run_for(sim::seconds(10));

  // Ten idle seconds at a 1 s interval: probes go out roughly once per
  // interval (each probe's transmission resets the activity clock, and the
  // peer's forced duplicate ACK resets it again moments later).
  EXPECT_EQ(conn->state(), TcpState::established);
  EXPECT_GE(conn->stats().keepalives_sent, 4u);
  EXPECT_LE(conn->stats().keepalives_sent, 11u);
  // Every probe sat below the peer's window, so each elicited an ACK
  // (which is the point: a dead peer would stay silent).
  EXPECT_GE(conn->stats().segments_received,
            conn->stats().keepalives_sent);
  // The probes carried no data and perturbed neither stream.
  EXPECT_EQ(server.received.size(), 0u);
  EXPECT_EQ(conn->stats().retransmits, 0u);
}

TEST(TimerCoalesce, IdleConnectionsCostPagesNotConnections) {
  Pair pair;
  constexpr int kConns = 150;  // 3 slab pages per side

  TcpOptions options;
  options.keepalive_interval = sim::seconds(1);

  std::vector<std::shared_ptr<TcpConnection>> accepted;
  auto listener = pair.b.tcp().listen(
      ip(10, 0, 0, 2), 9000,
      [&](std::shared_ptr<TcpConnection> conn) { accepted.push_back(conn); },
      options);
  ASSERT_TRUE(listener.ok());

  std::vector<std::shared_ptr<TcpConnection>> conns;
  for (int i = 0; i < kConns; ++i) {
    auto result =
        pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 9000}, options);
    ASSERT_TRUE(result.ok());
    conns.push_back(result.value());
    // Pace the handshakes in waves: 150 simultaneous SYNs would overflow
    // the link's 64-packet drop-tail queue.
    if (i % 32 == 31) pair.net.run_for(sim::milliseconds(20));
  }
  pair.net.run_for(sim::seconds(2));
  for (const auto& conn : conns) {
    ASSERT_EQ(conn->state(), TcpState::established);
  }

  // Let the keepalive cadence reach steady state, then look at the
  // scheduler: every pending event must be a page tick (or a stray link
  // event), never one timer per connection.
  // (The odd duration lands the observation instant off the keepalive
  // cadence, so no probe burst is mid-flight at the measurement.)
  pair.net.run_for(sim::milliseconds(5137));
  const std::size_t pages =
      pair.a.tcp().arena().page_count() + pair.b.tcp().arena().page_count();
  EXPECT_GE(pages, 4u);  // sanity: the load really spans multiple pages
  EXPECT_LE(pair.net.scheduler().pending(), pages + 8);

  // And the coalesced cadence still probes every connection.
  for (const auto& conn : conns) {
    EXPECT_GE(conn->stats().keepalives_sent, 3u);
  }
}

// Lossy transfer where every retransmission timer rides the page tick: the
// transfer must complete byte-exactly with the same recovery actions the
// per-connection timers would take.
TEST(TimerCoalesce, CoalescedRtoRecoversLikeDedicatedTimers) {
  TcpConnection::Stats runs[2];
  Bytes payloads[2];
  for (int coalesced = 0; coalesced < 2; ++coalesced) {
    Pair pair;
    // Drop two data segments; with a 4-segment window the second loss is
    // only recoverable by timeout, exercising the RTO path.
    pair.link.set_loss_model(
        std::make_unique<DropNth>(std::vector<std::uint64_t>{2, 9}, 100));

    TcpOptions options;
    options.coalesce_timers = coalesced == 1;
    ByteSinkServer server(pair.b, ip(10, 0, 0, 2), 9000, false, options);
    auto result =
        pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 9000}, options);
    ASSERT_TRUE(result.ok());
    auto conn = result.value();

    const Bytes data = apps::ttcp_pattern(64 * 1024, 7);
    std::size_t sent = 0;
    auto pump = [&] {
      while (sent < data.size()) {
        auto n = conn->send(
            BytesView(data.data() + sent, data.size() - sent));
        if (!n) return;
        sent += n.value();
      }
      conn->close();
    };
    conn->set_on_established(pump);
    conn->set_on_writable(pump);
    pair.net.run(2'000'000);

    ASSERT_EQ(server.received, data) << "coalesced=" << coalesced;
    runs[coalesced] = conn->stats();
    payloads[coalesced] = server.received;
  }
  // Both modes hit real loss...
  EXPECT_GT(runs[1].retransmits, 0u);
  // ...and the coalesced run recovered with identical effort: the page
  // tick fires at exactly the deadline a dedicated timer would have.
  EXPECT_EQ(runs[0].timeouts, runs[1].timeouts);
  EXPECT_EQ(runs[0].retransmits, runs[1].retransmits);
  EXPECT_EQ(runs[0].segments_sent, runs[1].segments_sent);
  EXPECT_EQ(payloads[0], payloads[1]);
}

// Four slab pages per side whose connections want the page tick at
// different instants: every connection keeps alive off the tick, a seeded
// third also write (which moves their keepalive clocks), and dropped data
// segments force coalesced RTOs.  The golden totals and wire digest were
// recorded when each tick still visited every connection on its page, so
// a tick that skips a due connection, visits one early, or re-arms at
// another instant shows up here.
TEST(TimerCoalesce, MixedPageDeadlinesMatchGolden) {
  Pair pair;
  // Frames of 200+ bytes are data segments; keepalives and ACKs pass.
  pair.link.set_loss_model(std::make_unique<DropNth>(
      std::vector<std::uint64_t>{3, 11, 12, 40, 77, 78, 79}, 200));
  constexpr int kConns = 200;  // four 64-slot pages per side

  std::uint64_t wire = 14695981039346656037ull;
  auto fold = [&wire](std::uint64_t word) {
    for (int shift = 0; shift < 64; shift += 8) {
      wire ^= (word >> shift) & 0xff;
      wire *= 1099511628211ull;
    }
  };
  pair.link.set_tap([&](const link::NetworkInterface& from,
                        const PacketBuffer& frame) {
    fold(from.address() == ip(10, 0, 0, 1) ? 0 : 1);
    fold(static_cast<std::uint64_t>(pair.net.now().ns));
    fold(apps::fnv1a(frame.flatten_copy()));
  });

  // The interval exceeds the initial 1 s RTO, so a connection with data in
  // flight wants the tick for its RTO before its keepalive.
  TcpOptions options;
  options.keepalive_interval = sim::milliseconds(1500);
  options.coalesce_timers = true;

  std::vector<std::shared_ptr<TcpConnection>> accepted;
  auto listener = pair.b.tcp().listen(
      ip(10, 0, 0, 2), 9000,
      [&](std::shared_ptr<TcpConnection> conn) {
        TcpConnection* raw = conn.get();
        raw->set_on_readable([raw] {
          for (;;) {
            auto data = raw->recv(64 * 1024);
            if (!data || data.value().empty()) return;
          }
        });
        accepted.push_back(std::move(conn));
      },
      options);
  ASSERT_TRUE(listener.ok());

  std::size_t events = 0;
  std::vector<std::shared_ptr<TcpConnection>> conns;
  for (int i = 0; i < kConns; ++i) {
    auto result = pair.a.tcp().connect(net::Ipv4Address(),
                                       {ip(10, 0, 0, 2), 9000}, options);
    ASSERT_TRUE(result.ok());
    conns.push_back(result.value());
    if (i % 32 == 31) events += pair.net.run_for(sim::milliseconds(20));
  }
  events += pair.net.run_for(sim::seconds(1));
  ASSERT_EQ(accepted.size(), static_cast<std::size_t>(kConns));
  ASSERT_GE(pair.a.tcp().arena().page_count(), 3u);
  ASSERT_GE(pair.b.tcp().arena().page_count(), 3u);

  // A seeded third of the clients write once, at a seeded instant.
  std::mt19937_64 rng(2024);
  for (int i = 0; i < kConns; ++i) {
    if (rng() % 3 != 0) continue;
    const auto at = sim::microseconds(static_cast<std::int64_t>(
        rng() % 3'000'000));
    const std::size_t size = 256 + rng() % 3840;
    TcpConnection* conn = conns[static_cast<std::size_t>(i)].get();
    pair.net.scheduler().schedule_after(at, [conn, size, i] {
      (void)conn->send(apps::ttcp_pattern(size, static_cast<std::uint64_t>(i)));
    });
  }
  events += pair.net.run_for(sim::seconds(5));

  TcpConnection::Stats totals = pair.a.tcp().aggregate_stats();
  totals.merge(pair.b.tcp().aggregate_stats());
  EXPECT_EQ(totals.keepalives_sent, 1090u);
  EXPECT_EQ(totals.timeouts, 7u);
  EXPECT_EQ(totals.retransmits, 7u);
  EXPECT_EQ(events, 7445u);
  EXPECT_EQ(wire, 6555277793077055116ull);
}

// A tick can move the deadline of a connection it is not visiting: here
// the tick that times out connection A runs A's close handler, which
// closes sibling B on the same page.  B stops wanting keepalives at once,
// before its FIN goes out, and the tick's re-arm must already see that.
// The event count was recorded when every tick re-derived each deadline
// from its connection.
TEST(TimerCoalesce, SiblingClosedDuringATickLeavesTheTickScheduleUnchanged) {
  Pair pair;
  // Every data segment is lost (keepalives, ACKs and FINs pass), so A's
  // retransmissions run out.
  pair.link.set_loss_model(std::make_unique<DropNth>(
      std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}, 200));
  TcpOptions options;
  options.keepalive_interval = sim::milliseconds(1500);
  options.coalesce_timers = true;
  options.max_retransmits = 2;

  std::vector<std::shared_ptr<TcpConnection>> accepted;
  auto listener = pair.b.tcp().listen(
      ip(10, 0, 0, 2), 9000,
      [&](std::shared_ptr<TcpConnection> conn) {
        accepted.push_back(std::move(conn));
      },
      options);
  ASSERT_TRUE(listener.ok());
  auto a = pair.a.tcp()
               .connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 9000}, options)
               .value();
  auto b = pair.a.tcp()
               .connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 9000}, options)
               .value();
  std::size_t events = pair.net.run_for(sim::milliseconds(100));
  ASSERT_EQ(a->state(), TcpState::established);
  ASSERT_EQ(b->state(), TcpState::established);
  ASSERT_EQ(a->slab_slot() / SlabArena<TcpConnection>::kPageSlots,
            b->slab_slot() / SlabArena<TcpConnection>::kPageSlots);

  Errc a_reason = Errc::ok;
  a->set_on_closed([&](Errc reason) {
    a_reason = reason;
    b->close();
  });
  ASSERT_TRUE(a->send(apps::ttcp_pattern(512, 0)).ok());
  events += pair.net.run_for(sim::seconds(15));

  EXPECT_EQ(a_reason, Errc::timed_out);
  EXPECT_NE(b->state(), TcpState::established);
  EXPECT_EQ(events, 99u);
}

}  // namespace
}  // namespace hydranet::tcp
