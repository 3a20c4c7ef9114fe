// Slab-reuse correctness: connection churn recycles arena slots, and a
// recycled slot must host a connection indistinguishable from one in a
// fresh slot — no stale stats, timers, SACK scoreboard, held bytes, or
// trace context may leak from the slot's previous occupant.  Runs under
// the asan-ubsan preset like every tier-1 test, so a dangling timer or
// use-after-release in the recycling path is caught directly.
#include <gtest/gtest.h>

#include "common/slab.hpp"
#include "test_util.hpp"

namespace hydranet::tcp {
namespace {

using apps::fnv1a;
using apps::ttcp_pattern;
using testutil::ip;
using testutil::Pair;

/// Runs one full client->server transfer of `total` bytes on a fresh
/// connection and returns the client connection (already closed).
std::shared_ptr<TcpConnection> run_transfer(Pair& pair,
                                            testutil::ByteSinkServer& server,
                                            std::size_t total,
                                            std::uint32_t pattern_seed) {
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  EXPECT_TRUE(client.ok());
  auto conn = client.value();

  Bytes payload = ttcp_pattern(total, pattern_seed);
  std::size_t written = 0;
  auto pump = [conn, payload, &written, total] {
    while (written < total) {
      auto n = conn->send(BytesView(payload).subspan(written));
      if (!n) break;
      written += n.value();
    }
    if (written >= total) conn->close();
  };
  conn->set_on_established(pump);
  conn->set_on_writable(pump);
  pair.net.run();
  EXPECT_EQ(fnv1a(server.received), fnv1a(payload));
  return conn;
}

TEST(SlabChurn, RecycledSlotHostsACleanConnection) {
  Pair pair;

  // --- round 1: thoroughly dirty a connection ------------------------------
  // Loss forces retransmission timers, dup-ACKs and the SACK scoreboard to
  // engage, so the slot's previous occupant leaves every subsystem dirty.
  pair.link.set_loss_model(std::make_unique<testutil::DropNth>(
      std::vector<std::uint64_t>{2, 5}, /*min_size=*/100));
  std::uint64_t allocated_before = slab_counters().allocated;
  auto first = [&] {
    testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
    auto conn = run_transfer(pair, server, 64 * 1024, 0);
    EXPECT_GE(conn->stats().retransmits + conn->stats().fast_retransmits +
                  conn->stats().sack_retransmits,
              1u);
    return conn->slab_slot();
  }();
  // Two connections (one per host) were carved out of the arenas.
  EXPECT_GE(slab_counters().allocated, allocated_before + 2);

  // Both endpoints are fully torn down once the event loop drains (the
  // stack defers destruction by one event; run() executed it).
  EXPECT_EQ(pair.a.tcp().connection_count(), 0u);
  EXPECT_EQ(pair.b.tcp().connection_count(), 0u);
  EXPECT_EQ(pair.a.tcp().arena().live(), 0u);
  EXPECT_EQ(pair.b.tcp().arena().live(), 0u);

  // --- round 2: the recycled slot must start clean -------------------------
  // (an empty drop list is the "no loss" model; the link API keeps its
  // loss-model pointer non-null)
  pair.link.set_loss_model(std::make_unique<testutil::DropNth>(
      std::vector<std::uint64_t>{}, /*min_size=*/0));
  std::uint64_t recycled_before = slab_counters().recycled;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  auto conn = client.value();

  // LIFO freelist: the client reoccupies the slot its predecessor retired.
  EXPECT_EQ(conn->slab_slot(), first);
  EXPECT_GE(slab_counters().recycled, recycled_before + 1);

  // Nothing from the previous occupant is visible before the handshake...
  EXPECT_EQ(conn->state(), TcpState::syn_sent);
  EXPECT_EQ(conn->readable_bytes(), 0u);
  EXPECT_EQ(conn->unsent_bytes(), 0u);
  EXPECT_EQ(conn->undeposited_in_order(), 0u);
  EXPECT_FALSE(conn->sack_negotiated());
  EXPECT_EQ(conn->stats().retransmits, 0u);
  EXPECT_EQ(conn->stats().dup_acks, 0u);
  EXPECT_EQ(conn->stats().bytes_received_app, 0u);

  // ...and a lossless transfer stays lossless: a stale RTO timer, probe
  // timer, or scoreboard entry inherited from the old connection would
  // surface as spurious retransmissions here.
  Bytes payload = ttcp_pattern(64 * 1024, 1);
  std::size_t written = 0;
  auto pump = [conn, payload, &written] {
    while (written < payload.size()) {
      auto n = conn->send(BytesView(payload).subspan(written));
      if (!n) break;
      written += n.value();
    }
    if (written >= payload.size()) conn->close();
  };
  conn->set_on_established(pump);
  conn->set_on_writable(pump);
  pair.net.run();

  EXPECT_EQ(fnv1a(server.received), fnv1a(payload));
  EXPECT_EQ(conn->stats().retransmits, 0u);
  EXPECT_EQ(conn->stats().fast_retransmits, 0u);
  EXPECT_EQ(conn->stats().timeouts, 0u);
  EXPECT_EQ(conn->stats().zero_window_probes, 0u);
}

TEST(SlabChurn, SequentialChurnStaysWithinOnePage) {
  // Twenty close/reopen cycles never need a second page per host: every
  // cycle frees its slots back to the arena before the next one starts.
  Pair pair;
  std::size_t pages_before =
      pair.a.tcp().arena().page_count() + pair.b.tcp().arena().page_count();
  EXPECT_EQ(pages_before, 0u);
  for (int round = 0; round < 20; ++round) {
    testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
    (void)run_transfer(pair, server, 4 * 1024,
                       static_cast<std::uint32_t>(round));
  }
  EXPECT_EQ(pair.a.tcp().arena().page_count(), 1u);
  EXPECT_EQ(pair.b.tcp().arena().page_count(), 1u);
  EXPECT_EQ(pair.a.tcp().arena().live(), 0u);
  EXPECT_EQ(pair.b.tcp().arena().live(), 0u);
}

}  // namespace
}  // namespace hydranet::tcp
