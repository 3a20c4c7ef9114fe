// SACK (RFC 2018) tests: wire format, negotiation, receiver block
// generation (including the ft-TCP staging exclusion), selective repair,
// and behaviour under loss sweeps and through the replicated chain.
#include <gtest/gtest.h>

#include "test_util.hpp"
#include "testbed/testbed.hpp"

namespace hydranet::tcp {
namespace {

using apps::fnv1a;
using apps::ttcp_pattern;
using testutil::ip;
using testutil::Pair;

TEST(SackWire, OptionsRoundTripAndAlign) {
  net::Ipv4Address src(1, 2, 3, 4), dst(5, 6, 7, 8);
  net::TcpSegment segment;
  segment.header.src_port = 1;
  segment.header.dst_port = 2;
  segment.header.syn = true;
  segment.header.mss_option = 1460;
  segment.header.sack_permitted = true;
  Bytes wire = net::serialize_tcp(segment, src, dst);
  // Data offset must be 4-byte aligned: MSS(4) + SACK-permitted(2) + pad.
  EXPECT_EQ(wire.size() % 4, 0u);
  auto parsed = net::parse_tcp(wire, src, dst);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().header.sack_permitted);
  EXPECT_EQ(parsed.value().header.mss_option, 1460);

  net::TcpSegment with_blocks;
  with_blocks.header.src_port = 1;
  with_blocks.header.dst_port = 2;
  with_blocks.header.ack_flag = true;
  with_blocks.header.sack_blocks = {{1000, 2000}, {3000, 4000}, {5000, 6000}};
  with_blocks.payload = {1, 2, 3};
  auto reparsed = net::parse_tcp(net::serialize_tcp(with_blocks, src, dst),
                                 src, dst);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed.value().header.sack_blocks.size(), 3u);
  EXPECT_EQ(reparsed.value().header.sack_blocks[1],
            (std::pair<std::uint32_t, std::uint32_t>{3000, 4000}));
  EXPECT_EQ(reparsed.value().payload, (Bytes{1, 2, 3}));
}

TEST(SackWire, BlockCountIsCapped) {
  net::Ipv4Address src(1, 1, 1, 1), dst(2, 2, 2, 2);
  net::TcpSegment segment;
  segment.header.src_port = 1;
  segment.header.dst_port = 2;
  for (std::uint32_t i = 0; i < 8; ++i) {
    segment.header.sack_blocks.emplace_back(i * 100, i * 100 + 50);
  }
  auto parsed =
      net::parse_tcp(net::serialize_tcp(segment, src, dst), src, dst);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().header.sack_blocks.size(),
            net::TcpHeader::kMaxSackBlocks);
}

TEST(SackNegotiation, RequiresBothSides) {
  auto negotiate = [](bool client_sack, bool server_sack) {
    Pair pair;
    TcpOptions server_options;
    server_options.sack = server_sack;
    std::shared_ptr<TcpConnection> server_conn;
    (void)pair.b.tcp().listen(net::Ipv4Address(), 80,
                              [&](std::shared_ptr<TcpConnection> c) {
                                server_conn = std::move(c);
                              },
                              server_options);
    TcpOptions client_options;
    client_options.sack = client_sack;
    auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                       {ip(10, 0, 0, 2), 80}, client_options);
    pair.net.run();
    return std::make_pair(client.value()->sack_negotiated(),
                          server_conn ? server_conn->sack_negotiated() : false);
  };
  EXPECT_EQ(negotiate(true, true), (std::make_pair(true, true)));
  EXPECT_EQ(negotiate(true, false), (std::make_pair(false, false)));
  EXPECT_EQ(negotiate(false, true), (std::make_pair(false, false)));
  EXPECT_EQ(negotiate(false, false), (std::make_pair(false, false)));
}

TEST(SackBlocks, IslandsAreReportedStagedPrefixIsNot) {
  ReassemblyBuffer buffer;
  RingQueue<std::uint8_t> ring;
  Bytes chunk(100, 0xaa);
  // Contiguous prefix [0, 100) drains onto the receive ring (where a gated
  // replica would hold it), then islands [300,400) and [600,800).
  (void)buffer.insert(0, chunk, 0, 10000);
  ASSERT_EQ(buffer.drain_into(0, ring), 100u);
  (void)buffer.insert(300, chunk, 100, 10000);
  (void)buffer.insert(600, chunk, 100, 10000);
  (void)buffer.insert(700, chunk, 100, 10000);
  EXPECT_EQ(buffer.drain_into(100, ring), 0u);

  auto blocks = buffer.blocks(4);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], (std::pair<std::uint64_t, std::uint64_t>{300, 400}));
  EXPECT_EQ(blocks[1], (std::pair<std::uint64_t, std::uint64_t>{600, 800}));

  // Cap respected.
  (void)buffer.insert(1000, chunk, 100, 10000);
  (void)buffer.insert(1200, chunk, 100, 10000);
  EXPECT_EQ(buffer.blocks(2).size(), 2u);
}

TcpOptions sack_options() {
  TcpOptions options;
  options.sack = true;
  return options;
}

struct SackRun {
  std::uint64_t retransmits = 0;
  std::uint64_t sack_retransmits = 0;
  std::uint64_t timeouts = 0;
  bool exact = false;
  double seconds = 0;
};

SackRun run_with_drops(std::vector<std::uint64_t> drops, bool sack) {
  Pair pair;
  pair.link.set_loss_model(
      std::make_unique<testutil::DropNth>(std::move(drops), /*min_size=*/1000));
  TcpOptions options = sack ? sack_options() : TcpOptions{};
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80, false,
                                  options);
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80},
                                     options);
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
  pair.net.run(30'000'000);

  SackRun result;
  result.retransmits = conn->stats().retransmits;
  result.sack_retransmits = conn->stats().sack_retransmits;
  result.timeouts = conn->stats().timeouts;
  result.exact = server.received.size() == total &&
                 fnv1a(server.received) == fnv1a(ttcp_pattern(total, 0));
  result.seconds = pair.net.now().seconds();
  return result;
}

TEST(SackRepair, SingleLossRepairedWithoutTimeout) {
  SackRun run = run_with_drops({25}, /*sack=*/true);
  EXPECT_TRUE(run.exact);
  EXPECT_GE(run.sack_retransmits, 1u);
  EXPECT_EQ(run.timeouts, 0u);
}

TEST(SackRepair, MultiLossWindowBeatsReno) {
  // Three losses inside one flight: Reno can only repair one per RTT (or
  // falls back to an RTO); SACK patches all the holes from the scoreboard.
  std::vector<std::uint64_t> drops{20, 23, 26};
  SackRun reno = run_with_drops(drops, /*sack=*/false);
  SackRun sack = run_with_drops(drops, /*sack=*/true);
  ASSERT_TRUE(reno.exact);
  ASSERT_TRUE(sack.exact);
  EXPECT_EQ(sack.timeouts, 0u) << "SACK should avoid the RTO entirely";
  EXPECT_LE(sack.timeouts, reno.timeouts);
  EXPECT_LT(sack.seconds, reno.seconds)
      << "SACK repair should finish sooner than Reno recovery";
}

class SackLossSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SackLossSweep, RandomLossTransfersAreExactWithSack) {
  link::Link::Config config;
  config.loss_probability = 0.06;
  config.seed = GetParam();
  Pair pair(config, 1500, GetParam() + 7);
  TcpOptions options = sack_options();
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80, false,
                                  options);
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80},
                                     options);
  auto conn = client.value();
  const std::size_t total = 128 * 1024;
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
  pair.net.run(30'000'000);
  ASSERT_TRUE(server.eof);
  EXPECT_EQ(fnv1a(server.received), fnv1a(ttcp_pattern(total, 0)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SackLossSweep,
                         ::testing::Values(101, 102, 103, 104, 105));

TEST(SackFt, GatedPrimaryDupAcksGenuineHolesButNotStagedData) {
  // A drop on the CLIENT link leaves a real hole at every replica: the
  // primary must emit duplicate ACKs (so the client can fast-retransmit)
  // even though its deposit gate otherwise keeps it silent.
  testbed::TestbedConfig config;
  config.setup = testbed::Setup::primary_backup;
  config.backups = 1;
  config.detector.retransmission_threshold = 1000;  // detector out of the way
  testbed::Testbed bed(config);
  // Drop one mid-stream full-size data frame on the client link.
  bed.client_link().set_loss_model(std::make_unique<testutil::DropNth>(
      std::vector<std::uint64_t>{30}, /*min_size=*/900));

  tcp::TcpOptions options = apps::period_tcp_options();
  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), config.service.address, config.service.port, options));
  }
  const std::size_t total = 512 * 1024;
  apps::TtcpTransmitter::Config tx;
  tx.server = config.service;
  tx.total_bytes = total;
  tx.tcp = options;
  apps::TtcpTransmitter transmitter(bed.client(), tx);
  ASSERT_TRUE(transmitter.start().ok());
  bed.net().run_for(sim::seconds(60));

  ASSERT_TRUE(transmitter.report().finished);
  // The loss was repaired by fast retransmit — no ~1 s timeout burned.
  EXPECT_GE(transmitter.connection()->stats().fast_retransmits, 1u);
  EXPECT_EQ(transmitter.connection()->stats().timeouts, 0u);
  ASSERT_FALSE(receivers[0]->reports().empty());
  EXPECT_EQ(receivers[0]->reports().front().bytes_received, total);
  EXPECT_EQ(receivers[0]->reports().front().checksum,
            fnv1a(ttcp_pattern(total, 0)));
}

TEST(SackFt, NegotiatedThroughTheReplicatedChainAndFailover) {
  testbed::TestbedConfig config;
  config.setup = testbed::Setup::primary_backup;
  config.backups = 1;
  config.detector.retransmission_threshold = 3;
  testbed::Testbed bed(config);

  tcp::TcpOptions options = apps::period_tcp_options();
  options.sack = true;
  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), config.service.address, config.service.port, options));
  }
  const std::size_t total = 2 * 1024 * 1024;
  apps::TtcpTransmitter::Config tx;
  tx.server = config.service;
  tx.total_bytes = total;
  tx.tcp = options;
  apps::TtcpTransmitter transmitter(bed.client(), tx);
  ASSERT_TRUE(transmitter.start().ok());
  bed.net().run_for(sim::seconds(2));
  EXPECT_TRUE(transmitter.connection()->sack_negotiated());
  ASSERT_FALSE(transmitter.report().finished);

  bed.crash_server(0);
  bed.net().run_for(sim::seconds(120));
  EXPECT_TRUE(transmitter.report().finished);
  bool exact = false;
  for (const auto& report : receivers[1]->reports()) {
    if (report.eof && report.bytes_received == total &&
        report.checksum == fnv1a(ttcp_pattern(total, 0))) {
      exact = true;
    }
  }
  EXPECT_TRUE(exact);
}

}  // namespace
}  // namespace hydranet::tcp
