// Golden corpus for the TCP input path: each scenario's streams, event
// timeline, counters and histograms, and the final sequence numbers of a
// lossy echo transfer, must reproduce values recorded when the simulator
// still had a second, header-prediction input path beside the general
// one (a build that replayed every scenario down both paths and found
// them identical).  Any change to how segments are processed must leave
// what is simulated exactly as it was.  The corpus covers plain TCP and
// ft-TCP chains under loss, retransmission-driven reordering, and replica
// crashes.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/ttcp.hpp"
#include "link/loss_model.hpp"
#include "test_util.hpp"
#include "testbed/testbed.hpp"

namespace hydranet {
namespace {

using testbed::Setup;
using testbed::Testbed;
using testbed::TestbedConfig;

/// One run, folded: the timeline, counters ("node/name=value") and
/// histograms ("node/name=count:sum") each reduce to an entry count and an
/// FNV-1a digest over their lines in registry order.
struct RunDigest {
  bool finished = false;
  bool failed = false;
  std::vector<std::string> streams;  ///< per-receiver "bytes:checksum:eof"
  std::size_t timeline_events = 0;
  std::uint64_t timeline = 0;
  std::size_t counter_count = 0;
  std::uint64_t counters = 0;
  std::size_t histogram_count = 0;
  std::uint64_t histograms = 0;

  bool operator==(const RunDigest&) const = default;
};

std::ostream& operator<<(std::ostream& out, const RunDigest& d) {
  out << "{" << (d.finished ? "true" : "false") << ", "
      << (d.failed ? "true" : "false") << ", {";
  for (std::size_t i = 0; i < d.streams.size(); ++i) {
    out << (i ? ", " : "") << '"' << d.streams[i] << '"';
  }
  char digests[160];
  std::snprintf(digests, sizeof(digests),
                "}, %zu, 0x%016llxull, %zu, 0x%016llxull, %zu, 0x%016llxull}",
                d.timeline_events,
                static_cast<unsigned long long>(d.timeline), d.counter_count,
                static_cast<unsigned long long>(d.counters),
                d.histogram_count,
                static_cast<unsigned long long>(d.histograms));
  return out << digests;
}

/// Metrics left out of the goldens: process-global counters that
/// accumulate across Networks in one test binary (datapath.*,
/// scheduler.alloc_fallbacks).  The recording build also left out its
/// header-prediction hit and miss counters and its send-gate cache
/// counter.
bool excluded_metric(const std::string& node, const std::string& name) {
  if (node == "datapath") return true;
  if (name == "scheduler.alloc_fallbacks") return true;
  return false;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

void fold_line(std::uint64_t& digest, const std::string& line) {
  for (char c : line + "\n") {
    digest ^= static_cast<std::uint8_t>(c);
    digest *= 1099511628211ull;
  }
}

void digest_metrics(stats::Registry& registry, RunDigest& out) {
  out.counters = kFnvBasis;
  out.histograms = kFnvBasis;
  for (const auto& [node, metrics] : registry.nodes()) {
    for (const auto& [name, counter] : metrics.counters) {
      if (excluded_metric(node, name)) continue;
      fold_line(out.counters, node + "/" + name + "=" +
                                  std::to_string(counter.value()));
      out.counter_count++;
    }
    for (const auto& [name, histogram] : metrics.histograms) {
      if (excluded_metric(node, name)) continue;
      std::ostringstream line;
      line << node << "/" << name << "=" << histogram.count() << ":"
           << histogram.sum();
      fold_line(out.histograms, line.str());
      out.histogram_count++;
    }
  }
  out.timeline = kFnvBasis;
  for (const auto& event : registry.timeline().events()) {
    fold_line(out.timeline, event.to_string());
    out.timeline_events++;
  }
}

struct Scenario {
  Setup setup = Setup::clean;
  int backups = 0;
  int crash_index = -1;   ///< server to crash; -1 = none
  int crash_after_ms = 0;
  double loss = 0.0;
  std::uint64_t seed = 1;
  std::size_t total_bytes = 512 * 1024;
};

RunDigest run_scenario(const Scenario& scenario) {
  TestbedConfig config;
  config.setup = scenario.setup;
  config.backups = scenario.backups;
  config.detector.retransmission_threshold = 3;
  config.seed = scenario.seed;
  Testbed bed(config);
  if (scenario.loss > 0) {
    bed.client_link().set_loss_model(
        std::make_unique<link::BernoulliLoss>(scenario.loss));
  }

  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), config.service.address, config.service.port));
  }
  apps::TtcpTransmitter::Config tx;
  tx.server = config.service;
  tx.total_bytes = scenario.total_bytes;
  tx.write_size = 1024;
  apps::TtcpTransmitter transmitter(bed.client(), tx);
  EXPECT_TRUE(transmitter.start().ok());

  if (scenario.crash_index >= 0) {
    bed.net().scheduler().schedule_after(
        sim::milliseconds(scenario.crash_after_ms), [&bed, &scenario] {
          bed.crash_server(static_cast<std::size_t>(scenario.crash_index));
        });
  }
  bed.net().run_for(sim::seconds(120));

  RunDigest result;
  result.finished = transmitter.report().finished;
  result.failed = transmitter.report().failed;
  for (const auto& receiver : receivers) {
    for (const auto& report : receiver->reports()) {
      std::ostringstream line;
      line << report.bytes_received << ":" << report.checksum << ":"
           << report.eof;
      result.streams.push_back(line.str());
    }
  }
  digest_metrics(bed.stats(), result);
  return result;
}

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  std::ostringstream name;
  name << (s.setup == Setup::clean ? "tcp" : "ftcp") << "_b" << s.backups;
  if (s.crash_index >= 0) name << "_crash" << s.crash_index;
  if (s.loss > 0) name << "_loss" << static_cast<int>(s.loss * 100);
  name << "_s" << s.seed;
  return name.str();
}

/// Recorded per scenario name; printed in this form when a run differs.
const std::map<std::string, RunDigest>& goldens() {
  static const std::map<std::string, RunDigest> table = {
      {"tcp_b0_s11",
       {true, false,
        {"524288:8664058035103212325:1"},
        0, 0xcbf29ce484222325ull,
        100, 0x1f1991d7a1ea09eeull,
        5, 0x69aae9335ca215f4ull}},
      {"tcp_b0_loss2_s12",
       {true, false,
        {"524288:8664058035103212325:1"},
        0, 0xcbf29ce484222325ull,
        100, 0xbc9a1a6e77b07279ull,
        5, 0x399aa3637ada2d37ull}},
      {"tcp_b0_loss5_s13",
       {true, false,
        {"262144:10245519426936513317:1"},
        0, 0xcbf29ce484222325ull,
        100, 0xc44033ffe31048e5ull,
        5, 0x69da2f34cf6bbeb5ull}},
      {"ftcp_b1_s21",
       {true, false,
        {"524288:8664058035103212325:1",
         "524288:8664058035103212325:1"},
        2, 0x1d16f394db07dbb3ull,
        159, 0x03f7db582fe5e894ull,
        11, 0x8d3becbaf1e09203ull}},
      {"ftcp_b2_s22",
       {true, false,
        {"524288:8664058035103212325:1",
         "524288:8664058035103212325:1",
         "524288:8664058035103212325:1"},
        3, 0x96123cb35533b94bull,
        198, 0xfc5849ec01b1a98cull,
        15, 0x088af21a530267edull}},
      {"ftcp_b1_loss2_s23",
       {true, false,
        {"524288:8664058035103212325:1",
         "524288:8664058035103212325:1"},
        2, 0x1d16f394db07dbb3ull,
        159, 0x34cffc7235a3d6c9ull,
        11, 0xd5052f861b9fda97ull}},
      {"ftcp_b1_crash0_s31",
       {true, false,
        {"258048:16337226066835997477:0",
         "524288:8664058035103212325:1"},
        11, 0xd38db94f9a78d8b3ull,
        159, 0x4eb41574e69e4344ull,
        11, 0x32995b8783c0847eull}},
      {"ftcp_b2_crash0_s32",
       {true, false,
        {"356352:8346145729570276133:0",
         "524288:8664058035103212325:1",
         "524288:8664058035103212325:1"},
        14, 0x5e4d1d642f8ad019ull,
        198, 0x88bc99fe90c01f3bull,
        15, 0x979c3ae36a87d645ull}},
      {"ftcp_b2_crash1_s33",
       {true, false,
        {"524288:8664058035103212325:1",
         "232448:11060660474732247845:0",
         "524288:8664058035103212325:1"},
        12, 0x092b0d62e916a370ull,
        198, 0xc44c9035988b54a1ull,
        15, 0xa9d82cdabe42778cull}},
      {"ftcp_b1_crash0_loss1_s41",
       {true, false,
        {"384000:2948629723796085541:0",
         "524288:8664058035103212325:1"},
        11, 0x8b4f2f2828908045ull,
        159, 0x4f17813fa06bb0f5ull,
        11, 0x4a799dbfe9d181e7ull}},
  };
  return table;
}

class TcpInputGolden : public ::testing::TestWithParam<Scenario> {};

TEST_P(TcpInputGolden, RunMatchesGolden) {
  const std::string name = scenario_name(
      ::testing::TestParamInfo<Scenario>(GetParam(), 0));
  const RunDigest run = run_scenario(GetParam());
  auto golden = goldens().find(name);
  ASSERT_NE(golden, goldens().end()) << "{\"" << name << "\", " << run << "},";
  EXPECT_EQ(run, golden->second) << "{\"" << name << "\", " << run << "},";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, TcpInputGolden,
    ::testing::Values(
        // Plain TCP, clean path: in-order deposits almost throughout.
        Scenario{Setup::clean, 0, -1, 0, 0.00, 11},
        // Plain TCP under loss: retransmissions, dup ACKs, SACK recovery,
        // out-of-order arrivals staged in the reassembly buffer.
        Scenario{Setup::clean, 0, -1, 0, 0.02, 12},
        Scenario{Setup::clean, 0, -1, 0, 0.05, 13, 256 * 1024},
        // ft-TCP chain, no faults: gate checks on every deposit/send.
        Scenario{Setup::primary_backup, 1, -1, 0, 0.00, 21},
        Scenario{Setup::primary_backup, 2, -1, 0, 0.00, 22},
        // ft-TCP chain under loss: gates + retransmission interleaving.
        Scenario{Setup::primary_backup, 1, -1, 0, 0.02, 23},
        // Failover: primary crash mid-stream, backup crash mid-stream.
        Scenario{Setup::primary_backup, 1, 0, 800, 0.00, 31},
        Scenario{Setup::primary_backup, 2, 0, 1500, 0.00, 32},
        Scenario{Setup::primary_backup, 2, 1, 1000, 0.00, 33},
        // Failover under ambient loss.
        Scenario{Setup::primary_backup, 1, 0, 1200, 0.01, 41}),
    scenario_name);

// Final sequence numbers, checked directly on a live connection: transfer
// with deterministic drops, then compare the snd/rcv wire sequence numbers
// of the still-open client connection and both streams' digests with the
// recorded ones.
TEST(TcpInputGolden, FinalSequenceNumbersUnderDropsMatchGolden) {
  testutil::Pair pair;
  pair.link.set_loss_model(std::make_unique<testutil::DropNth>(
      std::vector<std::uint64_t>{3, 7, 20, 21, 45}, 200));
  // The echo side needs headroom: a retransmission-repaired hole delivers
  // a burst that must fit the echo send buffer in one readable callback.
  tcp::TcpOptions server_options;
  server_options.send_buffer_capacity = 256 * 1024;
  server_options.sack = true;
  testutil::ByteSinkServer sink(pair.b, testutil::ip(10, 0, 0, 2), 9000,
                                /*echo_back=*/true, server_options);
  // Delayed ACKs + SACK on the client: both the deferred-ACK bookkeeping
  // of in-order deposits and SACK-carrying segments get traffic.
  tcp::TcpOptions client_options;
  client_options.sack = true;
  client_options.delayed_ack = true;
  auto client =
      pair.a.tcp()
          .connect(testutil::ip(10, 0, 0, 1),
                   net::Endpoint{testutil::ip(10, 0, 0, 2), 9000},
                   client_options)
          .value();
  Bytes echoed;
  client->set_on_readable([&] {
    for (;;) {
      auto data = client->recv(64 * 1024);
      if (!data || data.value().empty()) return;
      echoed.insert(echoed.end(), data.value().begin(), data.value().end());
    }
  });
  Bytes payload = apps::ttcp_pattern(96 * 1024, 5);
  std::size_t sent = 0;
  auto pump = [&] {
    while (sent < payload.size()) {
      auto took = client->send(
          BytesView(payload.data() + sent, payload.size() - sent));
      if (!took || took.value() == 0) return;
      sent += took.value();
    }
  };
  client->set_on_established(pump);
  client->set_on_writable(pump);
  pair.net.run_for(sim::seconds(30));

  const auto final_state =
      std::tuple{client->snd_nxt_wire(), client->rcv_nxt_wire(),
                 apps::fnv1a(echoed), echoed.size(),
                 apps::fnv1a(sink.received)};
  const decltype(final_state) golden{3983427505u, 3370865884u,
                                     0x9164b8b04bdf2325ull, 98304,
                                     0x9164b8b04bdf2325ull};
  EXPECT_EQ(final_state, golden)
      << std::get<0>(final_state) << "u, " << std::get<1>(final_state)
      << "u, 0x" << std::hex << std::get<2>(final_state) << "ull, "
      << std::dec << std::get<3>(final_state) << ", 0x" << std::hex
      << std::get<4>(final_state) << "ull";
  EXPECT_EQ(echoed.size(), 96u * 1024u);
}

}  // namespace
}  // namespace hydranet
