// TCP edge cases: sequence-number wrap-around, half-close, concurrent
// accepts, connection reaping, backpressure, early writes, aborts (incl. a
// reset whose close handler drops the last reference), zero-window
// probing, listener teardown.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace hydranet::tcp {
namespace {

using apps::fnv1a;
using apps::ttcp_pattern;
using testutil::ip;
using testutil::Pair;

TEST(TcpEdge, TransferAcrossSequenceNumberWrap) {
  Pair pair;
  // Both sides start their sequence space just below 2^32 so the stream
  // crosses the wrap within a few segments.
  pair.a.tcp().set_iss_generator(
      [](const ConnectionKey&) { return 0xffffff00u; });
  pair.b.tcp().set_iss_generator(
      [](const ConnectionKey&) { return 0xfffffe80u; });

  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80,
                                  /*echo_back=*/true);
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.value()->iss(), 0xffffff00u);
  auto conn = client.value();

  const std::size_t total = 256 * 1024;  // well past the wrap point
  Bytes reply;
  std::size_t written = 0;
  auto pump = [&] {
    while (written < total) {
      std::size_t n = std::min<std::size_t>(total - written, 8192);
      Bytes chunk = ttcp_pattern(n, written);
      auto accepted = conn->send(chunk);
      if (!accepted) break;
      written += accepted.value();
    }
  };
  conn->set_on_established(pump);
  conn->set_on_writable(pump);
  conn->set_on_readable([&] {
    for (;;) {
      auto data = conn->recv(64 * 1024);
      if (!data || data.value().empty()) return;
      reply.insert(reply.end(), data.value().begin(), data.value().end());
      if (reply.size() >= total) conn->close();
    }
  });
  pair.net.run();
  ASSERT_EQ(reply.size(), total);
  EXPECT_EQ(fnv1a(reply), fnv1a(ttcp_pattern(total, 0)));
}

TEST(TcpEdge, WrapUnderLossStillExact) {
  link::Link::Config lossy;
  lossy.loss_probability = 0.05;
  lossy.seed = 77;
  Pair pair(lossy);
  pair.a.tcp().set_iss_generator(
      [](const ConnectionKey&) { return 0xfffffff0u; });
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  auto conn = client.value();
  const std::size_t total = 128 * 1024;
  std::size_t written = 0;
  auto pump = [&] {
    while (written < total) {
      std::size_t n = std::min<std::size_t>(total - written, 8192);
      Bytes chunk = ttcp_pattern(n, written);
      auto accepted = conn->send(chunk);
      if (!accepted) break;
      written += accepted.value();
    }
    if (written >= total) conn->close();
  };
  conn->set_on_established(pump);
  conn->set_on_writable(pump);
  pair.net.run(20'000'000);
  ASSERT_TRUE(server.eof);
  EXPECT_EQ(fnv1a(server.received), fnv1a(ttcp_pattern(total, 0)));
}

TEST(TcpEdge, HalfCloseLetsTheServerKeepSending) {
  Pair pair;
  // Server: on EOF from the client, send a 64 KB response, then close.
  std::shared_ptr<TcpConnection> server_conn;
  const std::size_t response_size = 64 * 1024;
  std::size_t response_written = 0;
  auto server_pump = [&] {
    while (response_written < response_size) {
      std::size_t n =
          std::min<std::size_t>(response_size - response_written, 8192);
      Bytes chunk = ttcp_pattern(n, response_written);
      auto accepted = server_conn->send(chunk);
      if (!accepted) break;
      response_written += accepted.value();
    }
    if (response_written >= response_size) server_conn->close();
  };
  ASSERT_TRUE(pair.b.tcp()
                  .listen(net::Ipv4Address(), 80,
                          [&](std::shared_ptr<TcpConnection> c) {
                            server_conn = c;
                            auto* raw = c.get();
                            c->set_on_readable([&, raw] {
                              for (;;) {
                                auto data = raw->recv(4096);
                                if (!data) return;
                                if (data.value().empty()) {
                                  server_pump();  // client half-closed
                                  return;
                                }
                              }
                            });
                            c->set_on_writable(server_pump);
                          })
                  .ok());

  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  auto conn = client.value();
  Bytes response;
  conn->set_on_established([&] {
    Bytes request{1, 2, 3};
    (void)conn->send(request);
    conn->close();  // half-close: we are done talking, still listening
  });
  conn->set_on_readable([&] {
    for (;;) {
      auto data = conn->recv(64 * 1024);
      if (!data || data.value().empty()) return;
      response.insert(response.end(), data.value().begin(),
                      data.value().end());
    }
  });
  pair.net.run();
  ASSERT_EQ(response.size(), response_size);
  EXPECT_EQ(fnv1a(response), fnv1a(ttcp_pattern(response_size, 0)));
  EXPECT_EQ(conn->state(), TcpState::closed);
  EXPECT_EQ(server_conn->state(), TcpState::closed);
}

TEST(TcpEdge, TenConcurrentClientsAllServed) {
  Pair pair;
  struct ServerSide {
    Bytes received;
    bool eof = false;
  };
  std::vector<std::shared_ptr<TcpConnection>> server_conns;
  std::vector<std::unique_ptr<ServerSide>> sides;
  ASSERT_TRUE(pair.b.tcp()
                  .listen(net::Ipv4Address(), 80,
                          [&](std::shared_ptr<TcpConnection> c) {
                            server_conns.push_back(c);
                            sides.push_back(std::make_unique<ServerSide>());
                            ServerSide* side = sides.back().get();
                            auto* raw = c.get();
                            c->set_on_readable([side, raw] {
                              for (;;) {
                                auto data = raw->recv(16 * 1024);
                                if (!data) return;
                                if (data.value().empty()) {
                                  side->eof = true;
                                  raw->close();
                                  return;
                                }
                                side->received.insert(side->received.end(),
                                                      data.value().begin(),
                                                      data.value().end());
                              }
                            });
                          })
                  .ok());

  const int clients = 10;
  const std::size_t per_client = 20 * 1024;
  std::vector<std::shared_ptr<TcpConnection>> conns;
  for (int i = 0; i < clients; ++i) {
    auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                       {ip(10, 0, 0, 2), 80});
    ASSERT_TRUE(client.ok());
    auto conn = client.value();
    conns.push_back(conn);
    conn->set_on_established([conn, i, per_client] {
      Bytes payload = ttcp_pattern(per_client, static_cast<std::size_t>(i));
      (void)conn->send(payload);
      conn->close();
    });
  }
  pair.net.run();

  ASSERT_EQ(server_conns.size(), static_cast<std::size_t>(clients));
  std::size_t eofs = 0;
  for (const auto& side : sides) {
    if (side->eof) eofs++;
    EXPECT_EQ(side->received.size(), per_client);
  }
  EXPECT_EQ(eofs, static_cast<std::size_t>(clients));
  // Distinct client ports for every connection.
  std::set<std::uint16_t> ports;
  for (const auto& c : server_conns) ports.insert(c->key().remote.port);
  EXPECT_EQ(ports.size(), static_cast<std::size_t>(clients));
}

TEST(TcpEdge, ConnectionsAreReapedAfterClose) {
  Pair pair;
  testutil::ByteSinkServer* sink = nullptr;
  // Reuse one sink server; run 30 sequential short connections.
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  sink = &server;
  for (int i = 0; i < 30; ++i) {
    auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                       {ip(10, 0, 0, 2), 80});
    ASSERT_TRUE(client.ok());
    auto conn = client.value();
    conn->set_on_established([conn] {
      Bytes one{42};
      (void)conn->send(one);
      conn->close();
    });
    pair.net.run();
  }
  (void)sink;
  // After TIME_WAITs expire everything is reaped on both stacks.
  pair.net.run_for(sim::seconds(10));
  pair.net.run();
  EXPECT_EQ(pair.a.tcp().connection_count(), 0u);
  EXPECT_EQ(pair.b.tcp().connection_count(), 0u);
}

TEST(TcpEdge, SendBufferBackpressureAndWritableCallback) {
  Pair pair;
  TcpOptions options;
  options.send_buffer_capacity = 4096;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80},
                                     options);
  auto conn = client.value();
  int writable_events = 0;
  bool saw_would_block = false;
  std::size_t written = 0;
  const std::size_t total = 64 * 1024;
  auto pump = [&] {
    while (written < total) {
      Bytes chunk(std::min<std::size_t>(2048, total - written), 0x2f);
      auto accepted = conn->send(chunk);
      if (!accepted) {
        EXPECT_EQ(accepted.error(), Errc::would_block);
        saw_would_block = true;
        break;
      }
      written += accepted.value();
    }
    if (written >= total) conn->close();
  };
  conn->set_on_established(pump);
  conn->set_on_writable([&] {
    writable_events++;
    pump();
  });
  pair.net.run();
  EXPECT_TRUE(saw_would_block);
  EXPECT_GT(writable_events, 0);
  EXPECT_EQ(server.received.size(), total);
}

TEST(TcpEdge, WritesBeforeEstablishedAreBufferedAndFlushed) {
  Pair pair;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  auto conn = client.value();
  // Still in SYN_SENT: the write lands in the send buffer and goes out
  // right after the handshake.
  Bytes early(1000, 0xee);
  auto accepted = conn->send(early);
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted.value(), 1000u);
  conn->set_on_established([conn] { conn->close(); });
  pair.net.run();
  EXPECT_EQ(server.received.size(), 1000u);
  EXPECT_TRUE(server.eof);
}

TEST(TcpEdge, PeerAbortMidTransferSurfacesAsReset) {
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
  auto conn = client.value();
  Errc reason = Errc::ok;
  conn->set_on_closed([&](Errc e) { reason = e; });
  std::size_t written = 0;
  auto pump = [&] {
    while (written < (1u << 20)) {
      Bytes chunk(4096, 0x01);
      auto accepted = conn->send(chunk);
      if (!accepted) break;
      written += accepted.value();
    }
  };
  conn->set_on_established(pump);
  conn->set_on_writable(pump);
  pair.net.run_for(sim::milliseconds(100));
  ASSERT_NE(server_conn, nullptr);
  server_conn->abort();
  pair.net.run_for(sim::seconds(2));
  EXPECT_EQ(reason, Errc::connection_reset);
  EXPECT_EQ(conn->state(), TcpState::closed);
}

// Segment demux hands the connection a plain reference, not an owning
// copy.  An inbound RST whose close handler drops the application's last
// shared_ptr must leave the connection alive until the segment is fully
// handled (the stack defers the release by one event); under the
// asan-ubsan preset a use-after-free here fails the test.
TEST(TcpEdge, ResetWhoseCloseHandlerDropsTheLastReferenceIsSafe) {
  Pair pair;
  std::shared_ptr<TcpConnection> server_conn;
  Errc reason = Errc::ok;
  ASSERT_TRUE(pair.b.tcp()
                  .listen(net::Ipv4Address(), 80,
                          [&](std::shared_ptr<TcpConnection> c) {
                            server_conn = std::move(c);
                            server_conn->set_on_closed([&](Errc e) {
                              reason = e;
                              server_conn.reset();
                            });
                          })
                  .ok());
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 80});
  ASSERT_TRUE(client.ok());
  pair.net.run_for(sim::milliseconds(100));
  ASSERT_NE(server_conn, nullptr);
  ASSERT_EQ(server_conn->state(), TcpState::established);
  const std::size_t live_before = pair.b.tcp().arena().live();

  client.value()->abort();  // the RST reaches the server's demux
  pair.net.run_for(sim::milliseconds(100));
  EXPECT_EQ(reason, Errc::connection_reset);
  EXPECT_EQ(server_conn, nullptr);
  EXPECT_EQ(pair.b.tcp().connection_count(), 0u);
  // The deferred release ran and returned the slot to the arena.
  EXPECT_EQ(pair.b.tcp().arena().live(), live_before - 1);
}

TEST(TcpEdge, ZeroWindowProbesAreCountedAndRecovered) {
  Pair pair;
  TcpOptions server_options;
  server_options.recv_buffer_capacity = 1024;
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
  auto conn = client.value();
  std::size_t written = 0;
  const std::size_t total = 8 * 1024;
  auto pump = [&] {
    while (written < total) {
      Bytes chunk(512, 0x3c);
      auto accepted = conn->send(chunk);
      if (!accepted) break;
      written += accepted.value();
    }
    if (written >= total) conn->close();
  };
  conn->set_on_established(pump);
  conn->set_on_writable(pump);

  // The server app reads nothing: the window slams shut.
  pair.net.run_for(sim::seconds(5));
  EXPECT_GE(conn->stats().zero_window_probes, 1u);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_LT(server_conn->stats().bytes_received_app, total);

  // Drain and finish.
  Bytes drained;
  auto* raw = server_conn.get();
  std::function<void()> drain = [&] {
    for (;;) {
      auto data = raw->recv(512);
      if (!data || data.value().empty()) return;
      drained.insert(drained.end(), data.value().begin(), data.value().end());
    }
  };
  server_conn->set_on_readable(drain);
  drain();
  for (int i = 0; i < 200 && drained.size() < total; ++i) {
    pair.net.run_for(sim::milliseconds(100));
    drain();
  }
  EXPECT_EQ(drained.size(), total);
}

TEST(TcpEdge, ListenerCloseLeavesEstablishedConnectionsAlive) {
  Pair pair;
  std::shared_ptr<TcpConnection> server_conn;
  auto listener = pair.b.tcp().listen(
      net::Ipv4Address(), 80,
      [&](std::shared_ptr<TcpConnection> c) { server_conn = std::move(c); });
  ASSERT_TRUE(listener.ok());

  auto first = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  pair.net.run();
  ASSERT_NE(server_conn, nullptr);

  listener.value()->close();

  // New connections are now refused...
  auto second = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  Errc second_reason = Errc::ok;
  second.value()->set_on_closed([&](Errc e) { second_reason = e; });
  pair.net.run();
  EXPECT_EQ(second_reason, Errc::connection_refused);

  // ...but the first connection still works.
  Bytes ping{7};
  ASSERT_TRUE(first.value()->send(ping).ok());
  pair.net.run();
  auto got = server_conn->recv(16);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ping);
}

TEST(TcpEdge, SendAndRecvOnClosedConnectionFailCleanly) {
  Pair pair;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  auto conn = client.value();
  conn->set_on_established([conn] { conn->close(); });
  pair.net.run();
  ASSERT_EQ(conn->state(), TcpState::closed);
  Bytes data{1};
  EXPECT_FALSE(conn->send(data).ok());
  auto r = conn->recv(10);
  // Either EOF (empty) or closed, never data.
  if (r.ok()) {
    EXPECT_TRUE(r.value().empty());
  }
}

TEST(TcpEdge, NagleStillFlushesFinalShortSegmentOnClose) {
  link::Link::Config slow;
  slow.propagation = sim::milliseconds(20);
  Pair pair(slow);
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  TcpOptions options;  // Nagle ON
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80},
                                     options);
  auto conn = client.value();
  conn->set_on_established([&] {
    // Two small writes in quick succession, then close: Nagle may hold
    // the second briefly, but close() must flush everything.
    Bytes one(100, 1);
    Bytes two(100, 2);
    (void)conn->send(one);
    (void)conn->send(two);
    conn->close();
  });
  pair.net.run();
  EXPECT_EQ(server.received.size(), 200u);
  EXPECT_TRUE(server.eof);
}

}  // namespace
}  // namespace hydranet::tcp
