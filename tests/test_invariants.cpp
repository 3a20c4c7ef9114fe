// Protocol-invariant checker tests (DESIGN.md §9).
//
// Two halves:
//   * negative coverage — deliberately corrupt state through the gated
//     test hooks and assert that exactly the right HN_INVARIANT category
//     fires (under a ScopedCollector, so nothing aborts);
//   * positive coverage — a healthy ft-TCP transfer (including a manual
//     fail-over) reports zero violations, and the counters surface in the
//     stats registry under node `verify`.
#include <gtest/gtest.h>

#include <variant>

#include "common/packet_buffer.hpp"
#include "common/result.hpp"
#include "ftcp/ack_channel.hpp"
#include "ftcp/replicated_service.hpp"
#include "redirector/redirector.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"
#include "verify/invariant.hpp"

namespace hydranet::verify {
namespace {

using apps::fnv1a;
using apps::ttcp_pattern;
using testutil::ip;

/// Per-test isolation: the checker's counters and the backup-emission
/// taint registry are process-global.
class InvariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_counters();
    clear_backup_emissions();
  }
  void TearDown() override {
    reset_counters();
    clear_backup_emissions();
  }
};

TEST_F(InvariantTest, CategoryNamesAreStable) {
  EXPECT_STREQ(to_string(Category::gate_deposit), "gate_deposit");
  EXPECT_STREQ(to_string(Category::result_access), "result_access");
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    auto category = static_cast<Category>(i);
    std::string metric = metric_name(category);
    // Every metric name is `invariant.violations.<short name>`, which is
    // what DESIGN.md §8 catalogues and network.cpp publishes.
    EXPECT_EQ(metric, std::string("invariant.violations.") +
                          to_string(category));
  }
}

TEST_F(InvariantTest, CollectorRecordsInsteadOfAborting) {
  ScopedCollector collector;
  report(Category::sched_order, __FILE__, __LINE__, "forced", "detail %d", 7);
  ASSERT_EQ(collector.violations().size(), 1u);
  EXPECT_EQ(collector.violations()[0].category, Category::sched_order);
  EXPECT_EQ(collector.violations()[0].condition, "forced");
  EXPECT_EQ(collector.violations()[0].message, "detail 7");
  EXPECT_EQ(violation_count(Category::sched_order), 1u);
  EXPECT_EQ(total_violations(), 1u);
}

TEST_F(InvariantTest, NestedCollectorsRestoreTheOuterSink) {
  ScopedCollector outer;
  {
    ScopedCollector inner;
    report(Category::sched_order, __FILE__, __LINE__, "inner", "inner");
    EXPECT_EQ(inner.count(Category::sched_order), 1u);
  }
  report(Category::sched_order, __FILE__, __LINE__, "outer", "outer");
  EXPECT_EQ(outer.count(Category::sched_order), 1u);
}

#if HYDRANET_INVARIANTS

TEST_F(InvariantTest, ResultValueOnErrorFiresResultAccess) {
  ScopedCollector collector;
  Result<int> failed(Errc::timed_out);
  EXPECT_THROW((void)failed.value(), std::bad_variant_access);
  ASSERT_EQ(collector.count(Category::result_access), 1u);
  EXPECT_NE(collector.violations()[0].message.find("timed_out"),
            std::string::npos);
  EXPECT_EQ(total_violations(), 1u);
}

TEST_F(InvariantTest, ErrorResultConstructedWithOkFiresResultAccess) {
  ScopedCollector collector;
  Result<int> bogus(Errc::ok);
  EXPECT_EQ(collector.count(Category::result_access), 1u);
}

TEST_F(InvariantTest, ChainedBufferSliceFiresBufferAlias) {
  ScopedCollector collector;
  PacketBuffer chained =
      PacketBuffer::chain(Bytes{1, 2}, PacketBuffer(Bytes{3, 4}));
  (void)chained.slice(0, 1);
  EXPECT_GE(collector.count(Category::buffer_alias), 1u);
}

TEST_F(InvariantTest, OutOfRangeSliceFiresBufferAliasAndClamps) {
  ScopedCollector collector;
  PacketBuffer buffer(Bytes{1, 2, 3, 4});
  PacketBuffer clamped = buffer.slice(2, 10);
  EXPECT_EQ(collector.count(Category::buffer_alias), 1u);
  // After the (non-fatal) report the slice is clamped to the backing run.
  EXPECT_EQ(clamped.size(), 2u);
}

TEST_F(InvariantTest, SchedulerTimeRegressionFiresSchedOrder) {
  sim::Scheduler scheduler;
  ScopedCollector collector;
  scheduler.check_execution(sim::TimePoint{100}, 1);
  EXPECT_EQ(collector.count(Category::sched_order), 0u);
  scheduler.check_execution(sim::TimePoint{50}, 2);
  EXPECT_EQ(collector.count(Category::sched_order), 1u);
}

TEST_F(InvariantTest, SchedulerFifoTieBreakFiresSchedOrder) {
  sim::Scheduler scheduler;
  ScopedCollector collector;
  scheduler.check_execution(sim::TimePoint{100}, 5);
  // Same fire time, lower seq: a later-scheduled event overtook an
  // earlier one.
  scheduler.check_execution(sim::TimePoint{100}, 3);
  EXPECT_EQ(collector.count(Category::sched_order), 1u);
}

TEST_F(InvariantTest, CorruptRedirectorTableFiresRedirectorTable) {
  host::Network net(7);
  host::Host& rd = net.add_host("rd");
  redirector::Redirector redirector(rd);
  net::Endpoint service{ip(192, 20, 225, 20), 5001};
  redirector.install_service(service, redirector::ServiceMode::fault_tolerant,
                             ip(10, 0, 2, 2));
  ASSERT_TRUE(redirector.add_backup(service, ip(10, 0, 3, 2)).ok());
  EXPECT_EQ(total_violations(), 0u);  // the healthy table passes

  ScopedCollector collector;
  redirector.test_corrupt_table(service);
  EXPECT_EQ(collector.count(Category::redirector_table), 1u);
}

/// client -- rd -- {s1..sN} ft-TCP chain with echo services, wired
/// manually (a trimmed copy of test_ftcp.cpp's fixture).
struct FtFixture {
  static constexpr std::uint16_t kPort = 5001;

  host::Network net;
  host::Host& client;
  host::Host& rd;
  redirector::Redirector redirector;
  net::Endpoint service{ip(192, 20, 225, 20), kPort};

  struct Server {
    host::Host* host;
    std::unique_ptr<ftcp::AckChannel> channel;
    std::unique_ptr<ftcp::ReplicatedService> replica;
    std::shared_ptr<tcp::TcpConnection> conn;
    Bytes echo_backlog;
    bool saw_eof = false;
  };
  std::vector<Server> servers;

  explicit FtFixture(int replica_count, std::uint64_t seed = 99)
      : net(seed),
        client(net.add_host("client")),
        rd(net.add_host("rd")),
        redirector(rd) {
    net.connect(client, ip(10, 0, 1, 2), rd, ip(10, 0, 1, 1), 24);
    client.ip().add_default_route(ip(10, 0, 1, 1), nullptr);

    for (int i = 0; i < replica_count; ++i) {
      auto& host = net.add_host("s" + std::to_string(i + 1));
      auto subnet = static_cast<std::uint8_t>(2 + i);
      net.connect(rd, ip(10, 0, subnet, 1), host, ip(10, 0, subnet, 2), 24);
      host.ip().add_default_route(ip(10, 0, subnet, 1), nullptr);

      Server server;
      server.host = &host;
      server.channel = std::make_unique<ftcp::AckChannel>(host);
      ftcp::ReplicatedService::Config config;
      config.service = service;
      config.mode =
          i == 0 ? tcp::ReplicaMode::primary : tcp::ReplicaMode::backup;
      server.replica = std::make_unique<ftcp::ReplicatedService>(
          host, *server.channel, config);
      servers.push_back(std::move(server));
    }

    redirector.install_service(service,
                               redirector::ServiceMode::fault_tolerant,
                               address_of(0));
    for (int i = 1; i < replica_count; ++i) {
      (void)redirector.add_backup(service, address_of(i));
    }
    for (int i = 0; i < replica_count; ++i) {
      if (i > 0) servers[i].replica->set_predecessor(address_of(i - 1));
      if (i + 1 < replica_count) {
        servers[i].replica->set_successor(address_of(i + 1));
      }
    }

    for (int i = 0; i < replica_count; ++i) {
      Server* server = &servers[static_cast<std::size_t>(i)];
      (void)server->host->tcp().listen(
          service.address, kPort,
          [server](std::shared_ptr<tcp::TcpConnection> conn) {
            server->conn = conn;
            server->echo_backlog.clear();
            server->saw_eof = false;
            auto* raw = conn.get();
            auto flush = [server, raw] {
              while (!server->echo_backlog.empty()) {
                auto n = raw->send(server->echo_backlog);
                if (!n) return;
                server->echo_backlog.erase(
                    server->echo_backlog.begin(),
                    server->echo_backlog.begin() +
                        static_cast<std::ptrdiff_t>(n.value()));
              }
              if (server->saw_eof) raw->close();
            };
            conn->set_on_writable(flush);
            conn->set_on_readable([server, raw, flush] {
              for (;;) {
                auto data = raw->recv(64 * 1024);
                if (!data) return;
                if (data.value().empty()) {
                  server->saw_eof = true;
                  if (server->echo_backlog.empty()) raw->close();
                  return;
                }
                server->echo_backlog.insert(server->echo_backlog.end(),
                                            data.value().begin(),
                                            data.value().end());
                flush();
              }
            });
          });
    }
  }

  net::Ipv4Address address_of(int index) const {
    return ip(10, 0, static_cast<std::uint8_t>(2 + index), 2);
  }
};

/// Drives `total` echoed bytes through `fx`'s service from a fresh client
/// connection; returns the client connection (closed when the echo
/// completed).
std::shared_ptr<tcp::TcpConnection> run_echo_transfer(
    FtFixture& fx, std::size_t total, Bytes* reply_out = nullptr,
    sim::Duration run_time = sim::seconds(30)) {
  auto client = fx.client.tcp().connect(net::Ipv4Address(), fx.service);
  EXPECT_TRUE(client.ok());
  auto conn = client.value();
  auto reply = std::make_shared<Bytes>();
  auto written = std::make_shared<std::size_t>(0);
  auto pump = [conn, written, total] {
    while (*written < total) {
      std::size_t n = std::min<std::size_t>(total - *written, 4096);
      Bytes chunk = ttcp_pattern(n, *written);
      auto accepted = conn->send(chunk);
      if (!accepted) break;
      *written += accepted.value();
    }
  };
  conn->set_on_established(pump);
  conn->set_on_writable(pump);
  conn->set_on_readable([conn, reply, total] {
    for (;;) {
      auto data = conn->recv(64 * 1024);
      if (!data || data.value().empty()) return;
      reply->insert(reply->end(), data.value().begin(), data.value().end());
      if (reply->size() >= total) conn->close();
    }
  });
  fx.net.run_for(run_time);
  if (reply_out != nullptr) *reply_out = *reply;
  return conn;
}

TEST_F(InvariantTest, ForcedBackupEmissionFiresBackupSilence) {
  FtFixture fx(2);
  ScopedCollector collector;
  fx.servers[1].replica->test_force_emission(true);
  run_echo_transfer(fx, 20000);
  // Every segment the backup pushed onto the wire is a violation.
  EXPECT_GE(collector.count(Category::backup_silence), 1u);
  // The emissions tainted the flow, so the redirector flagged the leaked
  // segments on their way to the client as well.
  EXPECT_GE(collector.count(Category::backup_leak), 1u);
}

TEST_F(InvariantTest, TaintedServiceFlowFiresBackupLeakAtTheRedirector) {
  FtFixture fx(2);
  // Simulate the taint alone (as if a backup had emitted out of band):
  // even perfectly healthy primary traffic for the flow must now be
  // flagged when it transits the redirector client-ward.
  mark_backup_emission(
      flow_key(fx.service.address.value(), fx.service.port));
  ScopedCollector collector;
  run_echo_transfer(fx, 5000);
  EXPECT_GE(collector.count(Category::backup_leak), 1u);
  // No replica actually emitted out of turn.
  EXPECT_EQ(collector.count(Category::backup_silence), 0u);
}

TEST_F(InvariantTest, StaleGateCacheFiresGateDepositAndGateSend) {
  FtFixture fx(2);
  const std::size_t total = 600000;
  auto client = fx.client.tcp().connect(net::Ipv4Address(), fx.service);
  ASSERT_TRUE(client.ok());
  auto conn = client.value();
  Bytes reply;
  std::size_t written = 0;
  auto pump = [&] {
    while (written < total) {
      std::size_t n = std::min<std::size_t>(total - written, 4096);
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

  // Reach steady state with the chain healthy: the gates bind only by the
  // ack-channel report lag.
  fx.net.run_for(sim::milliseconds(200));
  ASSERT_NE(fx.servers[0].conn, nullptr);
  ASSERT_EQ(fx.servers[0].conn->state(), tcp::TcpState::established);
  EXPECT_EQ(total_violations(), 0u);

  // Every deposit asks the authoritative deposit gate, so no cache can
  // carry the primary past the successor's ACK mark; fabricate that
  // overrun directly for check_gate_invariants() to catch.
  ScopedCollector collector;
  fx.servers[0].conn->test_deposit_past_gate(1);

  // Forge an unbounded cached send-gate snapshot on the primary's
  // connection, re-forging on a timer because every successor report
  // legitimately drops the cache.  While forged, output() transmits ahead
  // of the successor's reported SEQ mark — the stale-cache overrun
  // check_gate_invariants() re-derives after the next deposit and catches.
  std::function<void()> corrupt = [&] {
    if (conn->state() == tcp::TcpState::closed) return;
    if (fx.servers[0].conn != nullptr &&
        fx.servers[0].conn->state() == tcp::TcpState::established) {
      fx.servers[0].conn->test_corrupt_gate_cache();
    }
    fx.net.scheduler().schedule_after(sim::microseconds(200), corrupt);
  };
  corrupt();
  fx.net.run_for(sim::seconds(10));

  EXPECT_GE(collector.count(Category::gate_deposit), 1u);
  EXPECT_GE(collector.count(Category::gate_send), 1u);
}

TEST_F(InvariantTest, OutOfWindowDepositFiresTcpStream) {
  testutil::Pair pair;
  testutil::ByteSinkServer server(pair.b, ip(10, 0, 0, 2), 7000);
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 7000});
  ASSERT_TRUE(client.ok());
  pair.net.run_for(sim::seconds(1));
  ASSERT_EQ(client.value()->state(), tcp::TcpState::established);

  ScopedCollector collector;
  // Fabricate a deposit past the whole receive-buffer grant.
  client.value()->test_deposit_out_of_window(128 * 1024);
  EXPECT_EQ(collector.count(Category::tcp_stream), 1u);
}

TEST_F(InvariantTest, StalePageDeadlineFiresSchedOrder) {
  testutil::Pair pair;
  testutil::ByteSinkServer server(pair.b, ip(10, 0, 0, 2), 7000);
  tcp::TcpOptions options;
  options.keepalive_interval = sim::seconds(1);
  auto client = pair.a.tcp().connect(net::Ipv4Address(),
                                     {ip(10, 0, 0, 2), 7000}, options);
  ASSERT_TRUE(client.ok());
  pair.net.run_for(sim::milliseconds(500));
  ASSERT_EQ(client.value()->state(), tcp::TcpState::established);

  ScopedCollector collector;
  // A missed rewrite: the page's cache says "never" while the keepalive
  // clock runs, so the next page tick would skip a due connection.
  client.value()->test_forge_page_deadline(sim::kTimePointMax);
  pair.net.run_for(sim::seconds(1));
  // The tick checks its cache before the scan and again before re-arming.
  EXPECT_EQ(collector.count(Category::sched_order), 2u);
}

TEST_F(InvariantTest, CleanFtTransferAndFailoverReportZeroViolations) {
  // No collector: a violation would hit the abort sink and fail loudly.
  FtFixture fx(2, /*seed=*/51);
  const std::size_t total = 600000;
  auto client = fx.client.tcp().connect(net::Ipv4Address(), fx.service);
  ASSERT_TRUE(client.ok());
  auto conn = client.value();
  Bytes reply;
  std::size_t written = 0;
  auto pump = [&] {
    while (written < total) {
      std::size_t n = std::min<std::size_t>(total - written, 4096);
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

  // Mid-transfer fail-over, the scenario the checks were built to patrol.
  fx.net.run_for(sim::milliseconds(200));
  ASSERT_GT(reply.size(), 0u);
  ASSERT_LT(reply.size(), total);
  fx.servers[0].host->crash();
  fx.net.run_for(sim::milliseconds(100));
  ASSERT_TRUE(fx.redirector.set_primary(fx.service, fx.address_of(1)).ok());
  (void)fx.redirector.remove_replica(fx.service, fx.address_of(0));
  fx.servers[1].replica->set_predecessor(std::nullopt);
  fx.servers[1].replica->promote_to_primary();
  fx.net.run_for(sim::seconds(30));

  ASSERT_EQ(reply.size(), total);
  EXPECT_EQ(fnv1a(reply), fnv1a(ttcp_pattern(total, 0)));
  EXPECT_EQ(conn->state(), tcp::TcpState::closed);
  EXPECT_EQ(total_violations(), 0u);

  // The counters surface in the stats registry under node `verify`.
  fx.net.publish_metrics();
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    auto category = static_cast<Category>(i);
    EXPECT_EQ(fx.net.metrics().counter_value("verify", metric_name(category)),
              0u)
        << metric_name(category);
  }
}

#endif  // HYDRANET_INVARIANTS

}  // namespace
}  // namespace hydranet::verify
