// Causal span tracer (src/trace2): deterministic ids, flight-recorder
// rings, root sampling, Chrome/JSONL export, the end-to-end causal chain
// client → redirector → replica, and the failover post-mortem — including
// two concurrent failovers of two services in one run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/ttcp.hpp"
#include "sim/scheduler.hpp"
#include "stats/timeline.hpp"
#include "test_util.hpp"
#include "testbed/testbed.hpp"
#include "trace2/export.hpp"
#include "trace2/recorder.hpp"
#include "trace2/span.hpp"

namespace hydranet::trace2 {
namespace {

using testbed::Setup;
using testbed::Testbed;
using testbed::TestbedConfig;
using testutil::ip;

/// ttcp push over the deployed service (mirrors test_mgmt's helper).
struct TtcpRun {
  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  std::unique_ptr<apps::TtcpTransmitter> transmitter;

  TtcpRun(Testbed& bed, std::size_t total_bytes) {
    tcp::TcpOptions server_options = apps::period_tcp_options();
    for (std::size_t i = 0; i < bed.server_count(); ++i) {
      receivers.push_back(std::make_unique<apps::TtcpReceiver>(
          bed.server(i), bed.config().service.address,
          bed.config().service.port, server_options));
    }
    apps::TtcpTransmitter::Config config;
    config.server = bed.config().service;
    config.total_bytes = total_bytes;
    config.write_size = 1024;
    transmitter =
        std::make_unique<apps::TtcpTransmitter>(bed.client(), config);
  }
};

std::vector<SpanRecord> spans_named(const Recorder& recorder,
                                    const char* name) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& r : recorder.snapshot()) {
    if (std::string(r.name) == name) out.push_back(r);
  }
  return out;
}

TEST(Trace2Recorder, IdsAreDeterministicAndEncodeNode) {
  sim::Scheduler scheduler;
  Recorder a;
  Recorder b;
  HostRing& a_client = a.add_ring("client", scheduler);
  HostRing& a_server = a.add_ring("server", scheduler);
  HostRing& b_client = b.add_ring("client", scheduler);
  HostRing& b_server = b.add_ring("server", scheduler);
  // Two recorders fed the same begin sequence allocate identical ids:
  // nothing about an id depends on wall clock or addresses.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a_client.begin_root(), b_client.begin_root());
    std::uint64_t parent = a_client.begin_root();
    EXPECT_EQ(a_server.begin_child(parent),
              b_server.begin_child(b_client.begin_root()));
  }
  // Distinct hosts get distinct id spaces (top bits).
  Recorder c;
  HostRing& client = c.add_ring("client", scheduler);
  HostRing& server = c.add_ring("server", scheduler);
  std::uint64_t client_id = client.begin_root();
  std::uint64_t server_id = server.begin_child(client_id);
  EXPECT_NE(client_id >> 48, server_id >> 48);
  // Child of nothing is nothing (sampled-out chains stay dark).
  EXPECT_EQ(server.begin_child(0), 0u);
}

TEST(Trace2Recorder, RootSamplingTakesEveryNth) {
  sim::Scheduler scheduler;
  Recorder::Config config;
  config.sample_every = 4;
  Recorder recorder(config);
  HostRing& client = recorder.add_ring("client", scheduler);
  int sampled = 0;
  for (int i = 0; i < 16; ++i) {
    if (client.begin_root() != 0) sampled++;
  }
  EXPECT_EQ(sampled, 4);
  EXPECT_EQ(recorder.roots_seen(), 16u);
  EXPECT_EQ(recorder.roots_sampled(), 4u);
  // Each host counts its own roots: after one more client root, the
  // server's first root is still the first of its own four.
  EXPECT_NE(client.begin_root(), 0u);
  HostRing& server = recorder.add_ring("server", scheduler);
  EXPECT_NE(server.begin_root(), 0u);
  EXPECT_EQ(server.begin_root(), 0u);
  EXPECT_EQ(recorder.roots_seen(), 19u);
  EXPECT_EQ(recorder.roots_sampled(), 6u);
}

TEST(Trace2Recorder, RingOverflowDropsOldestAndCounts) {
  sim::Scheduler scheduler;
  Recorder::Config config;
  config.ring_capacity = 4;
  Recorder recorder(config);
  HostRing& client = recorder.add_ring("client", scheduler);
  for (int i = 0; i < 6; ++i) {
    std::uint64_t id = client.begin_root();
    client.commit_at(id, 0, span::kAppWrite, sim::TimePoint{i * 100},
                     sim::TimePoint{i * 100 + 50},
                     static_cast<std::uint32_t>(i), 0);
  }
  EXPECT_EQ(recorder.spans_recorded(), 6u);
  EXPECT_EQ(recorder.spans_dropped(), 2u);
  std::vector<SpanRecord> kept = recorder.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  // Oldest two (a=0, a=1) were overwritten; survivors come oldest first.
  EXPECT_EQ(kept.front().a, 2u);
  EXPECT_EQ(kept.back().a, 5u);
}

TEST(Trace2Recorder, SpansEndOnTheirOwnHostsClock) {
  // Two hosts on two shards' schedulers whose clocks differ: each span's
  // end stamp comes from the clock of the host that emitted it.
  sim::Scheduler shard0;
  sim::Scheduler shard1;
  shard0.run_until(sim::TimePoint{1000});
  shard1.run_until(sim::TimePoint{5000});
  Recorder recorder;
  HostRing& a = recorder.add_ring("a", shard0);
  HostRing& b = recorder.add_ring("b", shard1);
  std::uint64_t root = a.begin_root();
  a.commit(root, 0, span::kAppWrite, sim::TimePoint{900});
  std::uint64_t child = b.begin_child(root);
  b.commit(child, root, span::kTcpInput, sim::TimePoint{4000});
  std::vector<SpanRecord> spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(recorder.node_name(spans[0].node), "a");
  EXPECT_EQ(spans[0].end, sim::TimePoint{1000});
  EXPECT_EQ(recorder.node_name(spans[1].node), "b");
  EXPECT_EQ(spans[1].end, sim::TimePoint{5000});
}

TEST(Trace2Export, ChromeJsonCarriesThreadsSpansAndFlows) {
  sim::Scheduler scheduler;
  Recorder recorder;
  HostRing& client = recorder.add_ring("client", scheduler);
  HostRing& server = recorder.add_ring("server", scheduler);
  std::uint64_t root = client.begin_root();
  client.commit_at(root, 0, span::kAppWrite, sim::TimePoint{1000},
                   sim::TimePoint{3000});
  std::uint64_t child = server.begin_child(root);
  server.commit_at(child, root, span::kTcpInput, sim::TimePoint{2000},
                   sim::TimePoint{2500});

  std::string json = to_chrome_json(recorder);
  // Thread metadata names both nodes.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"client\""), std::string::npos);
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  // Complete events for both spans, µs timestamps with ns fractions.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span.app.write\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  // One flow pair (s at the parent, f at the child) for the parent link.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);

  std::string jsonl = to_spans_jsonl(recorder);
  EXPECT_NE(jsonl.find("\"name\":\"span.tcp.input\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"parent\":" + std::to_string(root)),
            std::string::npos);
}

TEST(Trace2EndToEnd, CausalChainClientRedirectorReplica) {
  if (!kEnabled) GTEST_SKIP() << "built with HYDRANET_TRACING=OFF";
  TestbedConfig config;
  config.setup = Setup::primary_backup;
  config.backups = 1;
  Testbed bed(config);
  const Recorder& recorder = bed.net().enable_tracing();

  TtcpRun run(bed, 256 * 1024);
  ASSERT_TRUE(run.transmitter->start().ok());
  bed.net().run_for(sim::seconds(30));
  ASSERT_TRUE(run.transmitter->report().finished);

  // Every layer of the chain emitted spans.
  for (const char* name :
       {span::kAppWrite, span::kTcpSegmentize, span::kRedirectorFanout,
        span::kRedirectorCopy, span::kTcpInput}) {
    EXPECT_FALSE(spans_named(recorder, name).empty()) << name;
  }

  // Reconstruct one segment's full causal chain: a tcp.input on the
  // primary replica must walk parent links back through the redirector
  // copy and fan-out to the client's segmentize and application write.
  std::vector<SpanRecord> records = recorder.snapshot();
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& r : records) by_id.emplace(r.id, &r);

  bool chain_found = false;
  const char* expected[] = {span::kRedirectorCopy, span::kRedirectorFanout,
                            span::kTcpSegmentize, span::kAppWrite};
  const char* expected_node[] = {"redirector", "redirector", "client",
                                 "client"};
  for (const SpanRecord& input : spans_named(recorder, span::kTcpInput)) {
    if (recorder.node_name(input.node) != "server1") continue;
    const SpanRecord* cursor = &input;
    bool ok = true;
    for (std::size_t hop = 0; hop < 4; ++hop) {
      auto it = by_id.find(cursor->parent);
      if (it == by_id.end()) { ok = false; break; }
      cursor = it->second;
      if (std::string(cursor->name) != expected[hop] ||
          recorder.node_name(cursor->node) != expected_node[hop]) {
        ok = false;
        break;
      }
    }
    if (ok && cursor->parent == 0) {
      chain_found = true;
      break;
    }
  }
  EXPECT_TRUE(chain_found)
      << "no tcp.input span on server1 chains back to a client app.write";

  // The backup receives the same fan-out: its inputs chain to the same
  // redirector fan-outs.
  EXPECT_FALSE([&] {
    std::vector<SpanRecord> backup_inputs;
    for (const SpanRecord& r : spans_named(recorder, span::kTcpInput)) {
      if (recorder.node_name(r.node) == "server2") backup_inputs.push_back(r);
    }
    return backup_inputs.empty();
  }());
}

TEST(Trace2EndToEnd, SamplingScalesSpanVolume) {
  if (!kEnabled) GTEST_SKIP() << "built with HYDRANET_TRACING=OFF";
  auto run_with_sample = [](std::size_t every) {
    TestbedConfig config;
    config.setup = Setup::primary_backup;
    config.backups = 1;
    Testbed bed(config);
    Recorder::Config rc;
    rc.sample_every = every;
    const Recorder& recorder = bed.net().enable_tracing(rc);
    TtcpRun run(bed, 128 * 1024);
    EXPECT_TRUE(run.transmitter->start().ok());
    bed.net().run_for(sim::seconds(30));
    EXPECT_TRUE(run.transmitter->report().finished);
    return std::pair<std::uint64_t, std::uint64_t>(recorder.roots_seen(),
                                                   recorder.spans_recorded());
  };
  auto [roots_full, spans_full] = run_with_sample(1);
  auto [roots_64, spans_64] = run_with_sample(64);
  // Same deterministic workload either way; sampling only thins traces.
  EXPECT_EQ(roots_full, roots_64);
  EXPECT_GT(spans_full, 0u);
  // 1-in-64 sampling cuts span volume by well over an order of magnitude.
  EXPECT_LT(spans_64, spans_full / 10);
}

TEST(Trace2Postmortem, SingleFailoverDecomposition) {
  if (!kEnabled) GTEST_SKIP() << "built with HYDRANET_TRACING=OFF";
  TestbedConfig config;
  config.setup = Setup::primary_backup;
  config.backups = 1;
  config.detector.retransmission_threshold = 4;
  Testbed bed(config);
  const Recorder& recorder = bed.net().enable_tracing();

  TtcpRun run(bed, 3 * 1024 * 1024);
  ASSERT_TRUE(run.transmitter->start().ok());
  bed.net().run_for(sim::seconds(2));
  ASSERT_FALSE(run.transmitter->report().finished);
  bed.crash_server(0);
  bed.net().run_for(sim::seconds(60));
  ASSERT_TRUE(run.transmitter->report().finished);

  const stats::EventTimeline& timeline = bed.stats().timeline();
  std::vector<FailoverBreakdown> breakdowns = postmortem(&recorder, timeline);
  ASSERT_EQ(breakdowns.size(), 1u);
  const FailoverBreakdown& b = breakdowns[0];
  EXPECT_EQ(b.service, config.service.to_string());
  EXPECT_EQ(b.failed_node, "server1");
  EXPECT_EQ(b.promoted_node, "server2");
  // Phases exist and come in causal order.
  EXPECT_GE(b.detect_ms, 0);
  EXPECT_GE(b.report_received_ms, b.detect_ms);
  EXPECT_GE(b.eliminate_ms, b.report_received_ms);
  EXPECT_GE(b.promote_ms, b.eliminate_ms);
  // Span-derived joins: the failed primary was alive shortly before the
  // crash, and the new primary put a segment on the wire after promotion.
  EXPECT_GE(b.last_report_age_ms, 0);
  EXPECT_GE(b.first_segment_ms, b.promote_ms);
  // The gate-stall aggregate sees the primary's deposit stall during the
  // crash window (its successor stopped acking).
  std::string text = postmortem_text(&recorder, timeline);
  EXPECT_NE(text.find("post-mortem: service"), std::string::npos);
  EXPECT_NE(text.find("server2 promoted"), std::string::npos);
}

TEST(Trace2Postmortem, PhasesTakeTheEarliestEventNotTheFirstRecorded) {
  // With more than one shard, events of one epoch are recorded in thread
  // order: a later failure_signal can be recorded before an earlier one,
  // and same-instant events in either node order.  The decomposition must
  // read the timeline by time (ties to the node name that sorts first).
  auto at = [](std::int64_t ms) {
    return sim::TimePoint{sim::milliseconds(ms).ns};
  };
  const std::string service = "192.20.225.20:5001";
  stats::EventTimeline timeline;
  timeline.record(at(1000), "server1", stats::event::kCrashInjected, service);
  timeline.record(at(1300), "server2", stats::event::kFailureSignal,
                  service + "<->192.20.225.1:40000 late");
  timeline.record(at(1200), "server2", stats::event::kFailureSignal,
                  service + "<->192.20.225.1:40000 early");
  timeline.record(at(1450), "redirector", stats::event::kReplicaEliminated,
                  service + " server1");
  timeline.record(at(1400), "redirector", stats::event::kReplicaEliminated,
                  service + " server1");
  timeline.record(at(1500), "server3", stats::event::kPromoted, service);
  timeline.record(at(1500), "server2", stats::event::kPromoted, service);
  timeline.record(at(1700), "client", stats::event::kStreamResumed);
  timeline.record(at(1600), "client", stats::event::kStreamResumed);

  std::vector<FailoverBreakdown> breakdowns = postmortem(nullptr, timeline);
  ASSERT_EQ(breakdowns.size(), 1u);
  const FailoverBreakdown& b = breakdowns[0];
  EXPECT_DOUBLE_EQ(b.detect_ms, 200.0);
  EXPECT_DOUBLE_EQ(b.eliminate_ms, 400.0);
  EXPECT_DOUBLE_EQ(b.promote_ms, 500.0);
  EXPECT_EQ(b.promoted_node, "server2");
  EXPECT_DOUBLE_EQ(b.resume_ms, 600.0);
}

TEST(Trace2Postmortem, TwoConcurrentFailoversStayServiceTagged) {
  // Two FT services failing over concurrently in one run: service A on
  // server1(primary)/server2(backup), service B on server3/server4.  The
  // events interleave on one timeline; the post-mortem must attribute
  // each to the right service via the detail tags.
  TestbedConfig config;
  config.setup = Setup::primary_backup;
  config.backups = 3;
  config.detector.retransmission_threshold = 4;
  Testbed bed(config);

  // Shrink service A's chain to servers 1–2, freeing servers 3–4.
  bed.agent(2).leave(config.service);
  bed.agent(3).leave(config.service);
  bed.net().run_for(sim::seconds(2));
  ASSERT_EQ(bed.redirector_agent().chain(config.service).size(), 2u);

  // Deploy service B on the freed pair.
  net::Endpoint service_b{ip(192, 20, 225, 21), 5001};
  bed.redirector_host().ip().add_route(service_b.address, 32,
                                       bed.server_address(2), nullptr);
  bed.agent(2).install_replica(service_b, tcp::ReplicaMode::primary,
                               config.detector,
                               config.ftcp_refresh_interval);
  bed.agent(3).install_replica(service_b, tcp::ReplicaMode::backup,
                               config.detector,
                               config.ftcp_refresh_interval);
  bed.net().run_for(sim::seconds(2));
  ASSERT_EQ(bed.redirector_agent().chain(service_b).size(), 2u);

  // One stream per service.
  tcp::TcpOptions server_options = apps::period_tcp_options();
  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < 2; ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), config.service.address, config.service.port,
        server_options));
  }
  for (std::size_t i = 2; i < 4; ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), service_b.address, service_b.port, server_options));
  }
  auto make_tx = [&](const net::Endpoint& service) {
    apps::TtcpTransmitter::Config tx;
    tx.server = service;
    tx.total_bytes = 3 * 1024 * 1024;
    tx.write_size = 1024;
    return std::make_unique<apps::TtcpTransmitter>(bed.client(), tx);
  };
  auto tx_a = make_tx(config.service);
  auto tx_b = make_tx(service_b);
  ASSERT_TRUE(tx_a->start().ok());
  ASSERT_TRUE(tx_b->start().ok());
  bed.net().run_for(sim::seconds(2));
  ASSERT_FALSE(tx_a->report().finished);
  ASSERT_FALSE(tx_b->report().finished);

  // Crash both primaries 100 ms apart: the two failovers overlap.
  bed.crash_server(0);  // tagged with service A by crash_server
  bed.net().run_for(sim::milliseconds(100));
  bed.server(2).record_event(stats::event::kCrashInjected,
                             service_b.to_string());
  bed.server(2).crash();
  bed.net().run_for(sim::seconds(90));
  EXPECT_TRUE(tx_a->report().finished);
  EXPECT_TRUE(tx_b->report().finished);

  const stats::EventTimeline& timeline = bed.stats().timeline();
  std::vector<FailoverBreakdown> breakdowns = postmortem(nullptr, timeline);
  ASSERT_EQ(breakdowns.size(), 2u);
  const FailoverBreakdown& a = breakdowns[0];
  const FailoverBreakdown& b = breakdowns[1];
  EXPECT_EQ(a.service, config.service.to_string());
  EXPECT_EQ(a.failed_node, "server1");
  EXPECT_EQ(a.promoted_node, "server2");
  EXPECT_EQ(b.service, service_b.to_string());
  EXPECT_EQ(b.failed_node, "server3");
  EXPECT_EQ(b.promoted_node, "server4");
  // Both failovers completed while the other was in flight, from
  // interleaved events — promotion events for both services exist and
  // each breakdown only counted its own.
  EXPECT_GE(a.promote_ms, 0);
  EXPECT_GE(b.promote_ms, 0);
  int promotions = 0;
  for (const stats::Event& e : timeline.events()) {
    if (e.kind == stats::event::kPromoted) promotions++;
  }
  EXPECT_EQ(promotions, 2);
}

}  // namespace
}  // namespace hydranet::trace2
