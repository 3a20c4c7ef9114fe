// Stock TCP behaviour: handshake, transfer, flow control, teardown.
#include <gtest/gtest.h>

#include <limits>

#include "test_util.hpp"

namespace hydranet::tcp {
namespace {

using apps::fnv1a;
using apps::ttcp_pattern;
using testutil::ip;
using testutil::Pair;

TEST(TcpHandshake, EstablishesBothEnds) {
  Pair pair;
  std::shared_ptr<TcpConnection> server_conn;
  ASSERT_TRUE(pair.b.tcp()
                  .listen(net::Ipv4Address(), 80,
                          [&](std::shared_ptr<TcpConnection> c) {
                            server_conn = std::move(c);
                          })
                  .ok());
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  bool established = false;
  client.value()->set_on_established([&] { established = true; });
  pair.net.run();

  EXPECT_TRUE(established);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(client.value()->state(), TcpState::established);
  EXPECT_EQ(server_conn->state(), TcpState::established);
  EXPECT_EQ(server_conn->key().remote.address, ip(10, 0, 0, 1));
}

TEST(TcpHandshake, ConnectionRefusedWithoutListener) {
  Pair pair;
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 81});
  ASSERT_TRUE(client.ok());
  Errc reason = Errc::ok;
  bool closed = false;
  client.value()->set_on_closed([&](Errc e) {
    closed = true;
    reason = e;
  });
  pair.net.run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(reason, Errc::connection_refused);
}

TEST(TcpHandshake, SynRetransmitsUntilServerAppears) {
  Pair pair;
  // Drop the first SYN; the retransmitted one succeeds.
  pair.link.set_loss_model(
      std::make_unique<testutil::DropNth>(std::vector<std::uint64_t>{1}));
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  pair.net.run();
  EXPECT_EQ(client.value()->state(), TcpState::established);
  EXPECT_GE(client.value()->stats().retransmits, 1u);
}

TEST(TcpTransfer, BulkClientToServerIsExact) {
  Pair pair;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  auto conn = client.value();

  const std::size_t total = 100 * 1024;
  Bytes payload = ttcp_pattern(total, 0);
  std::size_t written = 0;
  auto pump = [&] {
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

  EXPECT_EQ(server.received.size(), total);
  EXPECT_EQ(fnv1a(server.received), fnv1a(payload));
  EXPECT_TRUE(server.eof);
}

TEST(TcpTransfer, EchoRoundTrip) {
  Pair pair;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80,
                                  /*echo_back=*/true);
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  auto conn = client.value();

  Bytes sent = ttcp_pattern(8192, 0);
  Bytes echoed;
  conn->set_on_established([&] { (void)conn->send(sent); });
  conn->set_on_readable([&] {
    for (;;) {
      auto data = conn->recv(64 * 1024);
      if (!data || data.value().empty()) return;
      echoed.insert(echoed.end(), data.value().begin(), data.value().end());
      if (echoed.size() >= sent.size()) conn->close();
    }
  });
  pair.net.run();
  EXPECT_EQ(echoed, sent);
}

TEST(TcpTransfer, SegmentsRespectMss) {
  Pair pair;
  TcpOptions options;
  options.mss = 512;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80},
                                     options);
  ASSERT_TRUE(client.ok());
  auto conn = client.value();
  Bytes payload(20000, 0x42);
  std::size_t written = 0;
  auto pump = [&] {
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
  EXPECT_EQ(server.received.size(), payload.size());
  // At least ceil(20000/512) data segments were needed.
  EXPECT_GE(conn->stats().segments_sent, 20000u / 512);
}

TEST(TcpTransfer, MssIsNegotiatedToTheSmaller) {
  Pair pair;
  TcpOptions server_options;
  server_options.mss = 400;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80,
                                  /*echo_back=*/true, server_options);
  TcpOptions client_options;
  client_options.mss = 1460;
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80},
                                     client_options);
  ASSERT_TRUE(client.ok());
  auto conn = client.value();
  Bytes request(4000, 0x17);
  Bytes reply;
  conn->set_on_established([&] { (void)conn->send(request); });
  conn->set_on_readable([&] {
    for (;;) {
      auto data = conn->recv(64 * 1024);
      if (!data || data.value().empty()) return;
      // The server echoes through its 400-byte MSS: no chunk exceeds it.
      EXPECT_LE(data.value().size(), 4000u);
      reply.insert(reply.end(), data.value().begin(), data.value().end());
      if (reply.size() >= request.size()) conn->close();
    }
  });
  pair.net.run();
  EXPECT_EQ(reply, request);
  // Server sent >= 10 segments (4000/400).
  ASSERT_NE(server.connection, nullptr);
  EXPECT_GE(server.connection->stats().segments_sent, 10u);
}

TEST(TcpClose, GracefulBothDirections) {
  Pair pair;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  auto conn = client.value();
  Errc client_reason = Errc::protocol_error;
  conn->set_on_established([&] {
    Bytes small{1, 2, 3};
    (void)conn->send(small);
    conn->close();
  });
  conn->set_on_closed([&](Errc e) { client_reason = e; });
  pair.net.run();

  EXPECT_TRUE(server.eof);
  EXPECT_EQ(server.received, (Bytes{1, 2, 3}));
  EXPECT_EQ(client_reason, Errc::ok);
  // Both demux tables drain once TIME_WAIT expires.
  EXPECT_EQ(pair.a.tcp().connection_count(), 0u);
  EXPECT_EQ(pair.b.tcp().connection_count(), 0u);
}

TEST(TcpClose, ActiveCloserPassesThroughTimeWait) {
  Pair pair;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  auto conn = client.value();
  conn->set_on_established([&] { conn->close(); });

  bool saw_time_wait = false;
  // Poll the state as the simulation advances.
  for (int i = 0; i < 2000 && conn->state() != TcpState::closed; ++i) {
    pair.net.run_for(sim::milliseconds(10));
    if (conn->state() == TcpState::time_wait) saw_time_wait = true;
  }
  EXPECT_TRUE(saw_time_wait);
  EXPECT_EQ(conn->state(), TcpState::closed);
}

TEST(TcpClose, SimultaneousCloseReachesClosedOnBothSides) {
  Pair pair;
  std::shared_ptr<TcpConnection> server_conn;
  ASSERT_TRUE(pair.b.tcp()
                  .listen(net::Ipv4Address(), 80,
                          [&](std::shared_ptr<TcpConnection> c) {
                            server_conn = std::move(c);
                          })
                  .ok());
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  auto conn = client.value();
  pair.net.run();
  ASSERT_NE(server_conn, nullptr);

  // Close both ends in the same instant: FINs cross in flight.
  conn->close();
  server_conn->close();
  pair.net.run();
  EXPECT_EQ(conn->state(), TcpState::closed);
  EXPECT_EQ(server_conn->state(), TcpState::closed);
}

TEST(TcpClose, AbortSendsResetToPeer) {
  Pair pair;
  std::shared_ptr<TcpConnection> server_conn;
  ASSERT_TRUE(pair.b.tcp()
                  .listen(net::Ipv4Address(), 80,
                          [&](std::shared_ptr<TcpConnection> c) {
                            server_conn = std::move(c);
                          })
                  .ok());
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  pair.net.run();
  ASSERT_NE(server_conn, nullptr);

  Errc server_reason = Errc::ok;
  server_conn->set_on_closed([&](Errc e) { server_reason = e; });
  client.value()->abort();
  pair.net.run();
  EXPECT_EQ(server_reason, Errc::connection_reset);
  EXPECT_EQ(server_conn->state(), TcpState::closed);
}

TEST(TcpFlowControl, ZeroWindowStallsThenResumes) {
  Pair pair;
  TcpOptions server_options;
  server_options.recv_buffer_capacity = 2048;  // tiny receive buffer
  std::shared_ptr<TcpConnection> server_conn;
  ASSERT_TRUE(pair.b.tcp()
                  .listen(net::Ipv4Address(), 80,
                          [&](std::shared_ptr<TcpConnection> c) {
                            server_conn = std::move(c);
                          },
                          server_options)
                  .ok());
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  auto conn = client.value();

  const std::size_t total = 16 * 1024;
  Bytes payload = ttcp_pattern(total, 0);
  std::size_t written = 0;
  auto pump = [&] {
    while (written < total) {
      auto n = conn->send(BytesView(payload).subspan(written));
      if (!n) break;
      written += n.value();
    }
    if (written >= total) conn->close();
  };
  conn->set_on_established(pump);
  conn->set_on_writable(pump);

  // Server does NOT read for 5 seconds: the window closes.
  pair.net.run_for(sim::seconds(5));
  ASSERT_NE(server_conn, nullptr);
  EXPECT_LT(server_conn->stats().bytes_received_app, total);

  // Now drain slowly; the transfer must complete.
  Bytes received;
  auto* raw = server_conn.get();
  std::function<void()> drain = [&] {
    for (;;) {
      auto data = raw->recv(1024);
      if (!data || data.value().empty()) return;
      received.insert(received.end(), data.value().begin(),
                      data.value().end());
    }
  };
  server_conn->set_on_readable(drain);
  drain();
  pair.net.run();
  drain();
  EXPECT_EQ(received.size(), total);
  EXPECT_EQ(fnv1a(received), fnv1a(payload));
}

/// A deposit gate that opens at most `step` bytes past RCV.NXT per check
/// and binds nothing else; it counts the client retransmissions the
/// connection reports, and swallows every outgoing segment (as a backup
/// does) once `swallow` is set.
class PrefixGate final : public TcpConnectionHooks {
 public:
  explicit PrefixGate(std::uint32_t step) : step_(step) {}
  std::uint32_t deposit_limit(const TcpConnection& connection,
                              std::uint32_t in_order_end) override {
    const std::uint32_t base = connection.rcv_nxt_wire();
    return in_order_end - base > step_ ? base + step_ : in_order_end;
  }
  std::uint32_t transmit_limit(const TcpConnection&,
                               std::uint32_t window_limit) override {
    return window_limit;
  }
  bool filter_segment(TcpConnection&, const net::TcpHeader&,
                      std::size_t) override {
    return !swallow;
  }
  void on_client_retransmission(TcpConnection&) override {
    ++client_retransmissions;
  }
  void on_retransmission_timeout(TcpConnection&) override {}
  void on_established(TcpConnection&) override {}
  void on_connection_closed(TcpConnection&) override {}

  int client_retransmissions = 0;
  bool swallow = false;

 private:
  std::uint32_t step_;
};

TEST(TcpGate, HeldRemainderIsStagedBeforeTheReadableCallback) {
  Pair pair;
  PrefixGate gate(100);
  TcpStack::PortOptions port;
  port.hooks = &gate;
  pair.b.tcp().set_port_options(80, port);
  std::shared_ptr<TcpConnection> server;
  std::vector<std::pair<std::size_t, std::size_t>> seen;  // readable, held
  Bytes first_read;
  std::size_t held_after_read = 0;
  ASSERT_TRUE(pair.b.tcp()
                  .listen(net::Ipv4Address(), 80,
                          [&](std::shared_ptr<TcpConnection> c) {
                            server = std::move(c);
                            server->set_on_readable([&] {
                              seen.emplace_back(
                                  server->readable_bytes(),
                                  server->undeposited_in_order());
                              if (seen.size() > 1) return;
                              auto data = server->recv(4096);
                              if (data) first_read = data.value();
                              held_after_read = server->undeposited_in_order();
                            });
                          })
                  .ok());
  auto client =
      pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80}).value();
  pair.net.run_for(sim::milliseconds(100));
  ASSERT_NE(server, nullptr);

  // One 1,000-byte segment at RCV.NXT with nothing staged: the gate's 100
  // bytes go straight to the socket buffer, and the 900 it holds must
  // already count against the receive window when the application hears
  // about the 100 (its recv() sizes window updates from that).
  ASSERT_TRUE(client->send(ttcp_pattern(1000, 0)).ok());
  pair.net.run_for(sim::milliseconds(100));
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front(), std::make_pair(std::size_t{100}, std::size_t{900}));
  // recv() stops at RCV.NXT: the held bytes share the receive ring but
  // stay out of the application's reach.
  EXPECT_EQ(first_read, ttcp_pattern(100, 0));
  EXPECT_EQ(held_after_read, 900u);
}

TEST(TcpGate, RetransmissionOverHeldBytesPastAFullWindowIsADuplicate) {
  Pair pair;
  PrefixGate gate(0);  // holds every byte
  TcpStack::PortOptions port;
  port.hooks = &gate;
  pair.b.tcp().set_port_options(80, port);
  TcpOptions server_options;
  server_options.recv_buffer_capacity = 1000;
  std::shared_ptr<TcpConnection> server;
  ASSERT_TRUE(pair.b.tcp()
                  .listen(net::Ipv4Address(), 80,
                          [&](std::shared_ptr<TcpConnection> c) {
                            server = std::move(c);
                          },
                          server_options)
                  .ok());
  auto client =
      pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80}).value();
  pair.net.run_for(sim::milliseconds(100));
  ASSERT_NE(server, nullptr);

  // Segments forged on the client's 4-tuple, `offset` bytes into its
  // stream (the client's own send() would respect the window).
  auto forge = [&](std::uint32_t offset, std::size_t len) {
    net::TcpSegment segment;
    segment.header.src_port = client->key().local.port;
    segment.header.dst_port = 80;
    segment.header.seq = client->snd_nxt_wire() + offset;
    segment.header.ack = client->rcv_nxt_wire();
    segment.header.ack_flag = true;
    segment.header.window = 65535;
    segment.payload = ttcp_pattern(len, offset);
    net::Datagram d;
    d.header.protocol = net::IpProto::tcp;
    d.header.src = ip(10, 0, 0, 1);
    d.header.dst = ip(10, 0, 0, 2);
    d.payload = net::serialize_tcp(segment, d.header.src, d.header.dst);
    ASSERT_TRUE(pair.a.ip().send(std::move(d)).ok());
    pair.net.run_for(sim::milliseconds(5));
  };
  // Two in-order segments fill the 1,000-byte window with held bytes; the
  // second is clipped at the window's edge.
  forge(0, 600);
  forge(600, 600);
  ASSERT_EQ(server->undeposited_in_order(), 1000u);
  ASSERT_EQ(server->stats().duplicate_segments_seen, 0u);

  // The second one again, as a client retransmission: it overlaps the
  // held bytes and runs past the full window.  It is old data, and the
  // failure estimator must hear about it.
  forge(600, 600);
  EXPECT_EQ(server->stats().duplicate_segments_seen, 1u);
  EXPECT_EQ(gate.client_retransmissions, 1);
  EXPECT_EQ(server->undeposited_in_order(), 1000u);
}

TEST(TcpGate, SwallowedSegmentsBuildNoPacket) {
  Pair pair;
  PrefixGate gate(std::numeric_limits<std::uint32_t>::max());
  TcpStack::PortOptions port;
  port.hooks = &gate;
  pair.b.tcp().set_port_options(80, port);
  std::shared_ptr<TcpConnection> server;
  ASSERT_TRUE(pair.b.tcp()
                  .listen(net::Ipv4Address(), 80,
                          [&](std::shared_ptr<TcpConnection> c) {
                            server = std::move(c);
                          })
                  .ok());
  auto client =
      pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80}).value();
  pair.net.run_for(sim::milliseconds(100));
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(server->state(), TcpState::established);

  // From here on the server behaves as a backup.  The hook swallows each
  // segment on its header alone, so neither the first transmissions nor
  // the timer's retransmissions may copy a byte or take a pooled buffer.
  gate.swallow = true;
  const DatapathCounters before = datapath_totals();
  ASSERT_TRUE(server->send(ttcp_pattern(32 * 1024, 0)).ok());
  pair.net.run_for(sim::seconds(5));
  const DatapathCounters after = datapath_totals();
  EXPECT_GE(server->stats().segments_swallowed, 2u);
  EXPECT_GE(server->stats().timeouts, 1u);
  EXPECT_EQ(after.copies, before.copies);
  EXPECT_EQ(after.pool_hits + after.pool_misses,
            before.pool_hits + before.pool_misses);
}

TEST(TcpOptionsBehaviour, NagleCoalescesAndNodelayDoesNot) {
  auto run_with = [&](bool nodelay) {
    // A long RTT keeps data outstanding, which is when Nagle holds back
    // small segments.
    link::Link::Config slow;
    slow.propagation = sim::milliseconds(50);
    Pair pair(slow);
    testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
    TcpOptions options;
    options.nodelay = nodelay;
    auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                       {ip(10, 0, 0, 2), 80}, options);
    auto conn = client.value();
    conn->set_on_established([&] {
      // Dribble 50 tiny writes over time.
      for (int i = 0; i < 50; ++i) {
        pair.net.scheduler().schedule_after(
            sim::milliseconds(1 + i), [conn] {
              Bytes tiny{0xaa, 0xbb};
              (void)conn->send(tiny);
            });
      }
      pair.net.scheduler().schedule_after(sim::milliseconds(500),
                                          [conn] { conn->close(); });
    });
    pair.net.run();
    EXPECT_EQ(server.received.size(), 100u);
    return conn->stats().segments_sent;
  };
  std::uint64_t with_nagle = run_with(false);
  std::uint64_t with_nodelay = run_with(true);
  EXPECT_GT(with_nodelay, with_nagle);
}

TEST(TcpOptionsBehaviour, PacketizedWritesMapOneToOneOntoSegments) {
  Pair pair;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  TcpOptions options;
  options.nodelay = true;
  options.packetize_writes = true;
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80},
                                     options);
  auto conn = client.value();
  const int writes = 40;
  const std::size_t write_size = 100;
  conn->set_on_established([&] {
    for (int i = 0; i < writes; ++i) {
      Bytes chunk(write_size, static_cast<std::uint8_t>(i));
      (void)conn->send(chunk);
    }
    conn->close();
  });
  pair.net.run();
  EXPECT_EQ(server.received.size(), writes * write_size);
  // SYN + 40 data segments + FIN + handshake ack; no data coalescing.
  std::uint64_t data_segments = 0;
  (void)data_segments;
  EXPECT_GE(conn->stats().segments_sent, static_cast<std::uint64_t>(writes));
}

TEST(TcpIss, DeterministicIssIsStablePerKeyAndDiffersAcrossKeys) {
  ConnectionKey key1{{ip(192, 20, 225, 20), 80}, {ip(10, 0, 1, 2), 40000}};
  ConnectionKey key2{{ip(192, 20, 225, 20), 80}, {ip(10, 0, 1, 2), 40001}};
  EXPECT_EQ(deterministic_iss(key1), deterministic_iss(key1));
  EXPECT_NE(deterministic_iss(key1), deterministic_iss(key2));
}

TEST(TcpListener, ExactAddressBindingIgnoresOtherDestinations) {
  Pair pair;
  // b answers for a virtual host; the listener binds to that address only.
  pair.b.v_host(ip(192, 20, 225, 20));
  pair.a.ip().add_route(ip(192, 20, 225, 20), 32, ip(10, 0, 0, 2), nullptr);
  testutil::ByteSinkServer server(pair.b, ip(192, 20, 225, 20), 80);

  // Connecting to b's own address finds no listener -> refused.
  auto wrong = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(wrong.ok());
  Errc wrong_reason = Errc::ok;
  wrong.value()->set_on_closed([&](Errc e) { wrong_reason = e; });

  // Connecting to the virtual host works.
  auto right =
      pair.a.tcp().connect(net::Ipv4Address(), {ip(192, 20, 225, 20), 80});
  ASSERT_TRUE(right.ok());
  pair.net.run();
  EXPECT_EQ(wrong_reason, Errc::connection_refused);
  EXPECT_EQ(right.value()->state(), TcpState::established);
}

TEST(TcpListener, PortInUseAndTeardown) {
  Pair pair;
  auto first = pair.b.tcp().listen(net::Ipv4Address(), 80,
                                   [](std::shared_ptr<TcpConnection>) {});
  ASSERT_TRUE(first.ok());
  auto duplicate = pair.b.tcp().listen(net::Ipv4Address(), 80,
                                       [](std::shared_ptr<TcpConnection>) {});
  EXPECT_EQ(duplicate.error(), Errc::address_in_use);
  first.value()->close();
  auto again = pair.b.tcp().listen(net::Ipv4Address(), 80,
                                   [](std::shared_ptr<TcpConnection>) {});
  EXPECT_TRUE(again.ok());
}

}  // namespace
}  // namespace hydranet::tcp
