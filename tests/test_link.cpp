// Link-layer tests: delivery timing, queueing, loss models, failure.
#include <gtest/gtest.h>

#include "link/cpu_model.hpp"
#include "link/link.hpp"
#include "sim/scheduler.hpp"

namespace hydranet::link {
namespace {

struct LinkFixture : ::testing::Test {
  sim::Scheduler scheduler;
  NetworkInterface a{"a", net::Ipv4Address(10, 0, 0, 1), 24};
  NetworkInterface b{"b", net::Ipv4Address(10, 0, 0, 2), 24};

  std::vector<Bytes> received_at_b;
  std::vector<sim::TimePoint> arrival_times;

  void wire(Link& link) {
    link.attach(a, b);
    b.set_rx_handler([this](PacketBuffer frame) {
      received_at_b.push_back(frame.flatten_copy());
      arrival_times.push_back(scheduler.now());
    });
  }
};

TEST_F(LinkFixture, DeliversFrameAfterTransmissionPlusPropagation) {
  Link::Config config;
  config.bandwidth_bps = 8e6;                     // 1 byte/us
  config.propagation = sim::microseconds(100);
  Link link(scheduler, config);
  wire(link);

  Bytes frame(1000, 0x55);
  ASSERT_TRUE(a.send(frame).ok());
  scheduler.run();
  ASSERT_EQ(received_at_b.size(), 1u);
  EXPECT_EQ(received_at_b[0], frame);
  // 1000 bytes at 1 byte/us = 1000us tx + 100us propagation.
  EXPECT_EQ(arrival_times[0].ns, 1100 * 1000);
}

TEST_F(LinkFixture, BackToBackFramesSerialise) {
  Link::Config config;
  config.bandwidth_bps = 8e6;
  config.propagation = sim::microseconds(0);
  Link link(scheduler, config);
  wire(link);

  ASSERT_TRUE(a.send(Bytes(500, 1)).ok());
  ASSERT_TRUE(a.send(Bytes(500, 2)).ok());
  scheduler.run();
  ASSERT_EQ(received_at_b.size(), 2u);
  EXPECT_EQ(arrival_times[0].ns, 500 * 1000);
  EXPECT_EQ(arrival_times[1].ns, 1000 * 1000);  // queued behind the first
}

TEST_F(LinkFixture, DropTailQueueBoundsBacklog) {
  Link::Config config;
  config.bandwidth_bps = 1e6;
  config.queue_capacity_packets = 4;
  Link link(scheduler, config);
  wire(link);

  // Drop-tail is silent, as on hardware: every send succeeds and only the
  // counter records the overflow.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(a.send(Bytes(100, 0)).ok());
  scheduler.run();
  EXPECT_EQ(received_at_b.size(), 4u);
  EXPECT_EQ(link.stats().queue_drops, 6u);
}

TEST_F(LinkFixture, BernoulliLossDropsRoughlyP) {
  Link::Config config;
  config.loss_probability = 0.25;
  config.seed = 7;
  Link link(scheduler, config);
  wire(link);

  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    (void)a.send(Bytes(10, 0));
    scheduler.run();  // drain so the queue never overflows
  }
  double delivered = static_cast<double>(received_at_b.size()) / n;
  EXPECT_NEAR(delivered, 0.75, 0.03);
  EXPECT_EQ(link.stats().loss_drops + received_at_b.size(),
            static_cast<std::uint64_t>(n));
}

TEST_F(LinkFixture, GilbertElliottProducesBurstyLoss) {
  Link::Config config;
  Link link(scheduler, config);
  wire(link);
  GilbertElliottLoss::Params params;
  params.p_good = 0.0;
  params.p_bad = 1.0;
  params.p_good_to_bad = 0.05;
  params.p_bad_to_good = 0.2;
  link.set_loss_model(std::make_unique<GilbertElliottLoss>(params));

  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    (void)a.send(Bytes(10, 0));
    scheduler.run();
  }
  // Loss rate should approximate the stationary bad-state share
  // (0.05 / (0.05 + 0.2) = 20%), very roughly.
  double loss = 1.0 - static_cast<double>(received_at_b.size()) / n;
  EXPECT_GT(loss, 0.05);
  EXPECT_LT(loss, 0.45);
}

TEST_F(LinkFixture, DownLinkDeliversNothing) {
  Link link(scheduler, Link::Config{});
  wire(link);
  link.set_down(true);
  (void)a.send(Bytes(10, 0));
  scheduler.run();
  EXPECT_TRUE(received_at_b.empty());
  EXPECT_GE(link.stats().down_drops, 1u);

  link.set_down(false);
  ASSERT_TRUE(a.send(Bytes(10, 0)).ok());
  scheduler.run();
  EXPECT_EQ(received_at_b.size(), 1u);
}

TEST_F(LinkFixture, DownedInterfaceNeitherSendsNorReceives) {
  Link link(scheduler, Link::Config{});
  wire(link);
  a.set_up(false);
  EXPECT_FALSE(a.send(Bytes(10, 0)).ok());
  a.set_up(true);
  b.set_up(false);
  (void)a.send(Bytes(10, 0));
  scheduler.run();
  EXPECT_TRUE(received_at_b.empty());
}

TEST_F(LinkFixture, CountersTrackTraffic) {
  Link link(scheduler, Link::Config{});
  wire(link);
  (void)a.send(Bytes(100, 0));
  (void)a.send(Bytes(50, 0));
  scheduler.run();
  EXPECT_EQ(a.tx_packets(), 2u);
  EXPECT_EQ(a.tx_bytes(), 150u);
  EXPECT_EQ(b.rx_packets(), 2u);
  EXPECT_EQ(b.rx_bytes(), 150u);
}

TEST(Subnet, PrefixMatching) {
  NetworkInterface iface("x", net::Ipv4Address(10, 0, 1, 1), 24);
  EXPECT_TRUE(iface.on_subnet(net::Ipv4Address(10, 0, 1, 200)));
  EXPECT_FALSE(iface.on_subnet(net::Ipv4Address(10, 0, 2, 1)));
  NetworkInterface host_route("y", net::Ipv4Address(10, 0, 1, 1), 32);
  EXPECT_TRUE(host_route.on_subnet(net::Ipv4Address(10, 0, 1, 1)));
  EXPECT_FALSE(host_route.on_subnet(net::Ipv4Address(10, 0, 1, 2)));
  NetworkInterface any("z", net::Ipv4Address(10, 0, 1, 1), 0);
  EXPECT_TRUE(any.on_subnet(net::Ipv4Address(99, 99, 99, 99)));
}

TEST(CpuModel, CostScalesWithSizeAndFactor) {
  CpuModel model{sim::microseconds(100), sim::nanoseconds(500), 1.0};
  EXPECT_EQ(model.cost(0).ns, 100000);
  EXPECT_EQ(model.cost(1000).ns, 100000 + 500000);
  model.scale = 2.0;
  EXPECT_EQ(model.cost(1000).ns, 2 * (100000 + 500000));
  EXPECT_EQ(CpuModel::free().cost(123456).ns, 0);
}

}  // namespace
}  // namespace hydranet::link
