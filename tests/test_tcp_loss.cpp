// TCP under loss: retransmission, fast retransmit, congestion response,
// give-up behaviour, and a property sweep over loss rates and seeds.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace hydranet::tcp {
namespace {

using apps::fnv1a;
using apps::ttcp_pattern;
using testutil::ip;
using testutil::Pair;

/// Pushes `total` pattern bytes from a (client) to b (sink) and returns
/// the client connection once the run drains.
struct BulkPush {
  std::shared_ptr<TcpConnection> conn;
  std::size_t written = 0;

  BulkPush(Pair& pair, testutil::ByteSinkServer&, std::size_t total,
           TcpOptions options = {}) {
    auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                       {ip(10, 0, 0, 2), 80}, options);
    conn = client.value();
    auto pump = [this, total] {
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
  }
};

TEST(TcpLoss, SingleDropTriggersFastRetransmit) {
  Pair pair;
  // Drop one mid-stream full-size data frame.  The following data produces
  // duplicate ACKs and a fast retransmit, with no RTO.
  pair.link.set_loss_model(std::make_unique<testutil::DropNth>(
      std::vector<std::uint64_t>{25}, /*min_size=*/1000));
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  BulkPush push(pair, server, 200 * 1024);
  pair.net.run();

  EXPECT_EQ(server.received.size(), 200u * 1024);
  EXPECT_EQ(fnv1a(server.received), fnv1a(ttcp_pattern(200 * 1024, 0)));
  EXPECT_GE(push.conn->stats().fast_retransmits, 1u);
  EXPECT_EQ(push.conn->stats().timeouts, 0u);
}

TEST(TcpLoss, FastRetransmitNeverReachesPastTheHighestSentByte) {
  Pair pair;
  // Frames of 50+ bytes are the 16-byte data segments (never the handshake
  // or a pure ACK): the first one is lost, and the rest of the flight
  // raises the duplicate ACKs.
  pair.link.set_loss_model(std::make_unique<testutil::DropNth>(
      std::vector<std::uint64_t>{1}, /*min_size=*/50));
  // A 1,000-byte receive window keeps the flight under one MSS while the
  // send buffer holds more, so a retransmission sized by the MSS alone
  // would carry bytes that were never sent.
  TcpOptions server_options;
  server_options.recv_buffer_capacity = 1000;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80, false,
                                  server_options);
  auto conn = pair.a.tcp()
                  .connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80},
                           apps::period_tcp_options())
                  .value();

  // Counts client data segments that start below the highest stream
  // offset sent so far and end above it.
  std::uint64_t highest = 0;
  int overruns = 0;
  pair.link.set_tap([&](const link::NetworkInterface& from,
                        const PacketBuffer& frame) {
    if (from.address() != ip(10, 0, 0, 1)) return;
    auto datagram = net::Datagram::parse(frame);
    ASSERT_TRUE(datagram.ok());
    auto segment = net::parse_tcp(datagram.value().payload,
                                  datagram.value().header.src,
                                  datagram.value().header.dst);
    ASSERT_TRUE(segment.ok());
    if (segment.value().payload.empty()) return;
    const std::uint64_t start = segment.value().header.seq - conn->iss();
    const std::uint64_t end = start + segment.value().payload.size();
    if (start < highest && end > highest) ++overruns;
    highest = std::max(highest, end);
  });

  const std::size_t writes = 256;
  const std::size_t write_size = 16;
  conn->set_on_established([&] {
    for (std::size_t i = 0; i < writes; ++i) {
      ASSERT_TRUE(conn->send(ttcp_pattern(write_size, i * write_size)).ok());
    }
  });
  pair.net.run_for(sim::seconds(10));

  EXPECT_EQ(overruns, 0);
  EXPECT_GE(conn->stats().fast_retransmits, 1u);
  EXPECT_EQ(server.received.size(), writes * write_size);
  EXPECT_EQ(fnv1a(server.received),
            fnv1a(ttcp_pattern(writes * write_size, 0)));
}

TEST(TcpLoss, TailDropRecoversViaTimeout) {
  Pair pair;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);

  // Send a tiny message whose only data segment is dropped: no dup-acks
  // can save it; the RTO must.
  pair.link.set_loss_model(
      std::make_unique<testutil::DropNth>(std::vector<std::uint64_t>{3}));
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  auto conn = client.value();
  conn->set_on_established([&] {
    Bytes tiny(100, 0x7e);
    (void)conn->send(tiny);
    conn->close();
  });
  pair.net.run();
  EXPECT_EQ(server.received.size(), 100u);
  EXPECT_GE(conn->stats().timeouts, 1u);
}

TEST(TcpLoss, CongestionWindowCollapsesOnTimeout) {
  Pair pair;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  BulkPush push(pair, server, 4 * 1024 * 1024);
  pair.net.run_for(sim::milliseconds(300));
  std::size_t cwnd_before = push.conn->cwnd();
  EXPECT_GT(cwnd_before, 4 * 1460u);  // slow start has grown it

  // Take the link down long enough for an RTO, then restore it.
  pair.link.set_down(true);
  pair.net.run_for(sim::seconds(3));
  pair.link.set_down(false);
  pair.net.run_for(sim::milliseconds(100));
  EXPECT_GE(push.conn->stats().timeouts, 1u);
  pair.net.run();
  EXPECT_EQ(server.received.size(), 4u * 1024 * 1024);
}

TEST(TcpLoss, GivesUpAfterMaxRetransmits) {
  Pair pair;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  TcpOptions options;
  options.max_retransmits = 5;
  options.max_rto = sim::seconds(2);
  BulkPush push(pair, server, 8 * 1024 * 1024, options);
  Errc reason = Errc::ok;
  push.conn->set_on_closed([&](Errc e) { reason = e; });
  pair.net.run_for(sim::milliseconds(300));
  ASSERT_GT(server.received.size(), 0u);

  pair.b.crash();  // server vanishes fail-stop
  pair.net.run_for(sim::seconds(60));
  EXPECT_EQ(reason, Errc::timed_out);
  EXPECT_EQ(push.conn->state(), TcpState::closed);
}

TEST(TcpLoss, ReceiverDeduplicatesRetransmittedData) {
  Pair pair;
  // Drop several ACK-direction frames to force retransmissions of data
  // the receiver already has.
  pair.link.set_loss_model(std::make_unique<testutil::DropNth>(
      std::vector<std::uint64_t>{4, 5, 6, 7, 8}));
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  BulkPush push(pair, server, 64 * 1024);
  pair.net.run();
  EXPECT_EQ(server.received.size(), 64u * 1024);
  EXPECT_EQ(fnv1a(server.received), fnv1a(ttcp_pattern(64 * 1024, 0)));
}

struct LossSweepParam {
  double loss;
  std::uint64_t seed;
};

class TcpLossSweep : public ::testing::TestWithParam<LossSweepParam> {};

TEST_P(TcpLossSweep, TransferIsExactUnderRandomLoss) {
  LossSweepParam param = GetParam();
  link::Link::Config config;
  config.loss_probability = param.loss;
  config.seed = param.seed;
  Pair pair(config, 1500, param.seed * 31 + 5);
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  const std::size_t total = 96 * 1024;
  BulkPush push(pair, server, total);
  pair.net.run(20'000'000);

  ASSERT_TRUE(server.eof) << "transfer did not finish (loss=" << param.loss
                          << " seed=" << param.seed << ")";
  EXPECT_EQ(server.received.size(), total);
  EXPECT_EQ(fnv1a(server.received), fnv1a(ttcp_pattern(total, 0)));
}

INSTANTIATE_TEST_SUITE_P(
    LossRatesAndSeeds, TcpLossSweep,
    ::testing::Values(LossSweepParam{0.01, 1}, LossSweepParam{0.01, 2},
                      LossSweepParam{0.03, 3}, LossSweepParam{0.03, 4},
                      LossSweepParam{0.05, 5}, LossSweepParam{0.05, 6},
                      LossSweepParam{0.10, 7}, LossSweepParam{0.10, 8},
                      LossSweepParam{0.15, 9}, LossSweepParam{0.20, 10}),
    [](const ::testing::TestParamInfo<LossSweepParam>& info) {
      return "loss" +
             std::to_string(static_cast<int>(info.param.loss * 100)) +
             "_seed" + std::to_string(info.param.seed);
    });

class TcpBurstLossSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpBurstLossSweep, TransferSurvivesBurstyLoss) {
  link::Link::Config config;
  config.seed = GetParam();
  Pair pair(config, 1500, GetParam());
  link::GilbertElliottLoss::Params burst;
  burst.p_good = 0.005;
  burst.p_bad = 0.4;
  burst.p_good_to_bad = 0.01;
  burst.p_bad_to_good = 0.3;
  pair.link.set_loss_model(std::make_unique<link::GilbertElliottLoss>(burst));

  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  const std::size_t total = 64 * 1024;
  BulkPush push(pair, server, total);
  pair.net.run(20'000'000);
  ASSERT_TRUE(server.eof);
  EXPECT_EQ(fnv1a(server.received), fnv1a(ttcp_pattern(total, 0)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpBurstLossSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace hydranet::tcp

namespace hydranet::tcp {
namespace {

using testutil::ip;
using testutil::Pair;
using apps::fnv1a;
using apps::ttcp_pattern;

// Option matrix under loss: every combination of Nagle, delayed ACKs and
// SACK must still deliver a byte-exact stream.
struct OptionMatrixParam {
  bool nodelay;
  bool delayed_ack;
  bool sack;
  std::uint64_t seed;
};

class TcpOptionMatrix : public ::testing::TestWithParam<OptionMatrixParam> {};

TEST_P(TcpOptionMatrix, LossyTransferIsExactForEveryOptionCombination) {
  OptionMatrixParam param = GetParam();
  link::Link::Config config;
  config.loss_probability = 0.05;
  config.seed = param.seed;
  Pair pair(config, 1500, param.seed * 13 + 1);

  TcpOptions options;
  options.nodelay = param.nodelay;
  options.delayed_ack = param.delayed_ack;
  options.sack = param.sack;
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80, false,
                                  options);
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80},
                                     options);
  auto conn = client.value();
  const std::size_t total = 96 * 1024;
  std::size_t written = 0;
  auto pump = [&, conn] {
    while (written < total) {
      std::size_t n = std::min<std::size_t>(total - written, 4096);
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
  ASSERT_TRUE(server.eof)
      << "nodelay=" << param.nodelay << " delack=" << param.delayed_ack
      << " sack=" << param.sack << " seed=" << param.seed;
  EXPECT_EQ(fnv1a(server.received), fnv1a(ttcp_pattern(total, 0)));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TcpOptionMatrix,
    ::testing::Values(OptionMatrixParam{false, false, false, 201},
                      OptionMatrixParam{true, false, false, 202},
                      OptionMatrixParam{false, true, false, 203},
                      OptionMatrixParam{false, false, true, 204},
                      OptionMatrixParam{true, true, false, 205},
                      OptionMatrixParam{true, false, true, 206},
                      OptionMatrixParam{false, true, true, 207},
                      OptionMatrixParam{true, true, true, 208}),
    [](const ::testing::TestParamInfo<OptionMatrixParam>& info) {
      std::string name;
      name += info.param.nodelay ? "nodelay_" : "nagle_";
      name += info.param.delayed_ack ? "delack_" : "immack_";
      name += info.param.sack ? "sack" : "reno";
      return name;
    });

}  // namespace
}  // namespace hydranet::tcp
