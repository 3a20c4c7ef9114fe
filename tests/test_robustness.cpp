// Hardening and robustness: delayed ACKs, hostile/malformed input, SYN
// floods, multi-service isolation, concurrent sessions through fail-over,
// and congestion-driven shut-down end to end.
#include <gtest/gtest.h>

#include "apps/session.hpp"
#include "apps/ttcp.hpp"
#include "ftcp/ack_channel.hpp"
#include "mgmt/protocol.hpp"
#include "test_util.hpp"
#include "testbed/testbed.hpp"

namespace hydranet {
namespace {

using apps::fnv1a;
using apps::ttcp_pattern;
using testutil::ip;
using testutil::Pair;

TEST(DelayedAck, RoughlyHalvesAckTrafficOnBulkTransfer) {
  auto acks_received_by_sender = [](bool delayed) {
    Pair pair;
    tcp::TcpOptions server_options;
    server_options.delayed_ack = delayed;
    testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80,
                                    /*echo_back=*/false, server_options);
    auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                       {ip(10, 0, 0, 2), 80});
    auto conn = client.value();
    const std::size_t total = 512 * 1024;
    std::size_t written = 0;
    auto pump = [&, conn] {
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
    pair.net.run();
    EXPECT_EQ(server.received.size(), total);
    return conn->stats().segments_received;  // essentially all ACKs
  };

  std::uint64_t immediate = acks_received_by_sender(false);
  std::uint64_t delayed = acks_received_by_sender(true);
  EXPECT_LT(delayed, immediate * 2 / 3);  // close to half, allow slack
  EXPECT_GT(delayed, immediate / 4);
}

TEST(DelayedAck, TimerFlushesTheOddFinalSegment) {
  Pair pair;
  tcp::TcpOptions server_options;
  server_options.delayed_ack = true;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80,
                                  /*echo_back=*/false, server_options);
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  auto conn = client.value();
  conn->set_on_established([conn] {
    Bytes one(100, 0x55);  // a single small segment: no 2nd to trigger
    (void)conn->send(one);
  });
  // Shortly after send: data delivered but un-acked (delack holding).
  pair.net.run_for(sim::milliseconds(50));
  EXPECT_EQ(server.received.size(), 100u);
  EXPECT_GT(conn->flight_size(), 0u);
  // After the 100 ms delack timeout the ACK arrives.
  pair.net.run_for(sim::milliseconds(300));
  EXPECT_EQ(conn->flight_size(), 0u);
  EXPECT_EQ(conn->stats().timeouts, 0u);  // the delack beat the RTO
}

TEST(DelayedAck, DuplicateDataStillAckedImmediately) {
  // Fast retransmit at the sender depends on immediate duplicate ACKs,
  // delayed-ack or not.
  link::Link::Config config;
  Pair pair(config);
  pair.link.set_loss_model(std::make_unique<testutil::DropNth>(
      std::vector<std::uint64_t>{12}, /*min_size=*/1000));
  tcp::TcpOptions server_options;
  server_options.delayed_ack = true;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80,
                                  /*echo_back=*/false, server_options);
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  auto conn = client.value();
  const std::size_t total = 256 * 1024;
  std::size_t written = 0;
  auto pump = [&, conn] {
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
  pair.net.run();
  EXPECT_EQ(server.received.size(), total);
  EXPECT_GE(conn->stats().fast_retransmits, 1u);
  EXPECT_EQ(conn->stats().timeouts, 0u);
}

TEST(HostileInput, GarbageToControlPortsIsIgnored) {
  Pair pair;
  // Control-plane endpoints on b.
  mgmt::MgmtTransport transport(pair.b);
  ftcp::AckChannel channel(pair.b);
  int handled = 0;
  transport.set_handler(
      [&](const net::Endpoint&, const mgmt::MgmtMessage&) { handled++; });

  auto gun = pair.a.udp().bind(net::Ipv4Address(), 0);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    Bytes junk(rng.uniform_int(0, 64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)gun.value()->send_to({ip(10, 0, 0, 2), mgmt::MgmtTransport::kPort},
                               junk);
    (void)gun.value()->send_to(
        {ip(10, 0, 0, 2), ftcp::AckChannel::kDefaultPort}, junk);
  }
  pair.net.run();
  // Nothing crashed; nothing random parsed as a valid message.
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(channel.messages_received(), 0u);
}

TEST(HostileInput, MalformedTcpFramesAreDroppedSilently) {
  Pair pair;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    net::Datagram d;
    d.header.protocol = net::IpProto::tcp;
    d.header.src = ip(10, 0, 0, 1);
    d.header.dst = ip(10, 0, 0, 2);
    d.payload.resize(rng.uniform_int(0, 60));
    for (auto& b : d.payload) b = static_cast<std::uint8_t>(rng.next());
    (void)pair.a.ip().send(std::move(d));
  }
  pair.net.run();
  // The garbage reached the host but opened nothing and broke nothing.
  EXPECT_GT(pair.b.ip().stats().delivered_local, 0u);
  EXPECT_EQ(pair.b.tcp().connection_count(), 0u);
  // The stack still works.
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  pair.net.run();
  EXPECT_EQ(client.value()->state(), tcp::TcpState::established);
}

TEST(HostileInput, InOrderSegmentPastTheWindowDepositsOnlyTheWindow) {
  Pair pair;
  tcp::TcpOptions server_options;
  server_options.recv_buffer_capacity = 1000;
  std::shared_ptr<tcp::TcpConnection> server;  // never reads
  auto listener = pair.b.tcp().listen(
      net::Ipv4Address(), 80,
      [&](std::shared_ptr<tcp::TcpConnection> conn) { server = conn; },
      server_options);
  ASSERT_TRUE(listener.ok());
  auto client =
      pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80}).value();
  pair.net.run_for(sim::milliseconds(100));
  ASSERT_NE(server, nullptr);

  // A sender that ignores the 1,000-byte window: one in-order segment of
  // 1,400 bytes at RCV.NXT, forged on the client's 4-tuple.
  net::TcpSegment segment;
  segment.header.src_port = client->key().local.port;
  segment.header.dst_port = 80;
  segment.header.seq = client->snd_nxt_wire();
  segment.header.ack = client->rcv_nxt_wire();
  segment.header.ack_flag = true;
  segment.header.window = 65535;
  segment.payload = Bytes(1400, 0x5a);
  net::Datagram d;
  d.header.protocol = net::IpProto::tcp;
  d.header.src = ip(10, 0, 0, 1);
  d.header.dst = ip(10, 0, 0, 2);
  d.payload = net::serialize_tcp(segment, d.header.src, d.header.dst);
  ASSERT_TRUE(pair.a.ip().send(std::move(d)).ok());
  pair.net.run_for(sim::milliseconds(5));

  // Only the granted window is deposited; the overrun is dropped.
  EXPECT_EQ(server->readable_bytes(), 1000u);
}

TEST(HostileInput, SynFloodHalfOpensAreReaped) {
  Pair pair;
  tcp::TcpOptions listener_options;
  listener_options.max_retransmits = 3;
  listener_options.max_rto = sim::seconds(2);
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80,
                                  /*echo_back=*/false, listener_options);

  // Spoofed SYNs from addresses that will never complete the handshake.
  for (int i = 0; i < 50; ++i) {
    net::TcpSegment syn;
    syn.header.src_port = static_cast<std::uint16_t>(20000 + i);
    syn.header.dst_port = 80;
    syn.header.seq = 1000;
    syn.header.syn = true;
    syn.header.window = 4096;
    net::Ipv4Address spoofed(1, 2, 3, static_cast<std::uint8_t>(i + 1));
    net::Datagram d;
    d.header.protocol = net::IpProto::tcp;
    d.header.src = spoofed;
    d.header.dst = ip(10, 0, 0, 2);
    d.payload = net::serialize_tcp(syn, spoofed, d.header.dst);
    (void)pair.a.ip().send(std::move(d));
  }
  pair.net.run_for(sim::milliseconds(100));
  EXPECT_EQ(pair.b.tcp().connection_count(), 50u);  // half-open backlog

  // The SYN-ACK retransmissions give up and the backlog drains.
  pair.net.run_for(sim::seconds(30));
  EXPECT_EQ(pair.b.tcp().connection_count(), 0u);

  // Legitimate clients are served throughout.
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  pair.net.run();
  EXPECT_EQ(client.value()->state(), tcp::TcpState::established);
}

TEST(MultiService, TwoChainsOnTheSameHostsAreIndependent) {
  testbed::TestbedConfig config;
  config.setup = testbed::Setup::primary_backup;
  config.backups = 1;
  config.detector.retransmission_threshold = 3;
  testbed::Testbed bed(config);

  // A second FT service on the same pair of servers, reversed roles.
  net::Endpoint second_service{ip(193, 40, 7, 7), 6002};
  bed.agent(1).install_replica(second_service, tcp::ReplicaMode::primary,
                               config.detector);
  bed.agent(0).install_replica(second_service, tcp::ReplicaMode::backup,
                               config.detector);
  // Route for the second virtual address.
  bed.redirector_host().ip().add_route(second_service.address, 32,
                                       bed.server_address(1), nullptr);
  bed.net().run_for(sim::seconds(2));
  ASSERT_EQ(bed.redirector_agent().chain(second_service).size(), 2u);

  // Two concurrent transfers, one per service.
  apps::TtcpReceiver rx_a0(bed.server(0), config.service.address,
                           config.service.port);
  apps::TtcpReceiver rx_a1(bed.server(1), config.service.address,
                           config.service.port);
  apps::TtcpReceiver rx_b0(bed.server(0), second_service.address,
                           second_service.port);
  apps::TtcpReceiver rx_b1(bed.server(1), second_service.address,
                           second_service.port);

  apps::TtcpTransmitter::Config tx_a;
  tx_a.server = config.service;
  tx_a.total_bytes = 256 * 1024;
  apps::TtcpTransmitter tx1(bed.client(), tx_a);
  apps::TtcpTransmitter::Config tx_b;
  tx_b.server = second_service;
  tx_b.total_bytes = 256 * 1024;
  apps::TtcpTransmitter tx2(bed.client(), tx_b);
  ASSERT_TRUE(tx1.start().ok());
  ASSERT_TRUE(tx2.start().ok());
  bed.net().run_for(sim::seconds(60));

  EXPECT_TRUE(tx1.report().finished);
  EXPECT_TRUE(tx2.report().finished);
  // Service A's primary is server0; service B's primary is server1.
  EXPECT_EQ(rx_a0.total_bytes(), 256u * 1024);
  EXPECT_EQ(rx_b1.total_bytes(), 256u * 1024);
  // And each backup holds its copy too (full replication on both chains).
  EXPECT_EQ(rx_a1.total_bytes(), 256u * 1024);
  EXPECT_EQ(rx_b0.total_bytes(), 256u * 1024);
}

TEST(ConcurrentSessions, FourStatefulSessionsSurviveOneFailover) {
  testbed::TestbedConfig config;
  config.setup = testbed::Setup::primary_backup;
  config.backups = 1;
  config.detector.retransmission_threshold = 3;
  testbed::Testbed bed(config);

  apps::BrokerageServer::Config server_config;
  server_config.listen_address = config.service.address;
  server_config.port = config.service.port;
  server_config.tcp = apps::period_tcp_options();
  apps::BrokerageServer engine0(bed.server(0), server_config);
  apps::BrokerageServer engine1(bed.server(1), server_config);

  std::vector<std::unique_ptr<apps::BrokerageClient>> traders;
  for (int t = 0; t < 4; ++t) {
    apps::BrokerageClient::Config client_config;
    client_config.server = config.service;
    client_config.think_time = sim::milliseconds(100 + 13 * t);
    client_config.tcp = apps::period_tcp_options();
    for (int i = 1; i <= 40; ++i) {
      client_config.orders.push_back((t + 1) * ((i % 5) - 2 + 1));
    }
    traders.push_back(
        std::make_unique<apps::BrokerageClient>(bed.client(), client_config));
    ASSERT_TRUE(traders.back()->start().ok());
  }

  bed.net().run_for(sim::seconds(2));
  bed.crash_server(0);
  bed.net().run_for(sim::seconds(180));

  for (auto& trader : traders) {
    EXPECT_TRUE(trader->report().done);
    EXPECT_FALSE(trader->report().failed);
    EXPECT_TRUE(trader->report().consistent);
    EXPECT_EQ(trader->report().executions, 40u);
  }
}

TEST(CongestionShutdown, PersistentlyLossyBackupIsEliminatedEndToEnd) {
  testbed::TestbedConfig config;
  config.setup = testbed::Setup::primary_backup;
  config.backups = 1;
  config.detector.retransmission_threshold = 3;
  testbed::Testbed bed(config);
  // The backup's link degrades catastrophically (but the host is alive):
  // the paper's "spurious unavailability" — the replica must be shut down
  // so the service regains fail-stop behaviour.
  bed.server_link(1).set_loss_model(
      std::make_unique<link::BernoulliLoss>(0.85));

  apps::TtcpReceiver rx0(bed.server(0), config.service.address,
                         config.service.port);
  apps::TtcpReceiver rx1(bed.server(1), config.service.address,
                         config.service.port);
  apps::TtcpTransmitter::Config tx;
  tx.server = config.service;
  tx.total_bytes = 1024 * 1024;
  apps::TtcpTransmitter transmitter(bed.client(), tx);
  ASSERT_TRUE(transmitter.start().ok());
  bed.net().run_for(sim::seconds(240));

  EXPECT_TRUE(transmitter.report().finished);
  ASSERT_FALSE(rx0.reports().empty());
  EXPECT_EQ(rx0.reports().front().bytes_received, 1024u * 1024);
  // The lossy backup was eliminated from the chain.
  auto chain = bed.redirector_agent().chain(config.service);
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0], bed.server_address(0));
  EXPECT_GE(bed.redirector_agent().stats().replicas_eliminated, 1u);
}

}  // namespace
}  // namespace hydranet
