// Metrics registry + event timeline tests: registry semantics, histogram
// bucketing/merging, timeline merging, golden exporter output — and the
// end-to-end assertions the observability layer exists for: a lossy
// transfer shows up in tcp.retransmits, and a primary crash leaves the
// full ordered failover timeline (crash -> report -> eliminate -> promote)
// in the registry.
#include <gtest/gtest.h>

#include <memory>

#include "apps/ttcp.hpp"
#include "link/loss_model.hpp"
#include "net/tcp_header.hpp"
#include "stats/export.hpp"
#include "stats/metrics.hpp"
#include "testbed/testbed.hpp"
#include "trace2/export.hpp"

namespace hydranet::stats {
namespace {

// ---------------------------------------------------------------- registry

TEST(Registry, CountersCreateAtZeroAndAccumulate) {
  Registry registry;
  EXPECT_EQ(registry.counter_value("client", "tcp.retransmits"), 0u);
  EXPECT_EQ(registry.node("client"), nullptr);

  registry.counter("client", "tcp.retransmits").inc();
  registry.counter("client", "tcp.retransmits").inc(4);
  EXPECT_EQ(registry.counter_value("client", "tcp.retransmits"), 5u);

  registry.set_counter("client", "tcp.retransmits", 2);  // snapshot overwrite
  EXPECT_EQ(registry.counter_value("client", "tcp.retransmits"), 2u);

  ASSERT_NE(registry.node("client"), nullptr);
  EXPECT_EQ(registry.node("client")->counters.size(), 1u);
}

TEST(Registry, TotalSumsAcrossNodes) {
  Registry registry;
  registry.set_counter("server1", "ftcp.deposit_gate_stalls", 3);
  registry.set_counter("server2", "ftcp.deposit_gate_stalls", 4);
  registry.set_counter("server2", "ftcp.send_gate_stalls", 9);
  EXPECT_EQ(registry.total("ftcp.deposit_gate_stalls"), 7u);
  EXPECT_EQ(registry.total("ftcp.send_gate_stalls"), 9u);
  EXPECT_EQ(registry.total("no.such.metric"), 0u);
}

TEST(Registry, ReferencesStayStableAndClearResets) {
  Registry registry;
  Counter& c = registry.counter("a", "x");
  for (int i = 0; i < 100; ++i) {
    registry.counter("node" + std::to_string(i), "x").inc();
  }
  c.inc(7);
  EXPECT_EQ(registry.counter_value("a", "x"), 7u);

  registry.gauge("a", "depth").set(2.5);
  registry.timeline().record(sim::TimePoint{}, "a", "kind");
  registry.clear();
  EXPECT_TRUE(registry.nodes().empty());
  EXPECT_TRUE(registry.timeline().events().empty());
}

// --------------------------------------------------------------- histogram

TEST(HistogramTest, BucketsObservationsByUpperBound) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (boundary counts in the lower bucket)
  h.observe(5.0);    // <= 10
  h.observe(100.0);  // <= 100
  h.observe(5000.0); // overflow

  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 5106.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 5000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5106.5 / 5);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, MergeAddsAndEmptyAdoptsBounds) {
  Histogram a({1.0, 10.0});
  a.observe(0.5);
  a.observe(50.0);
  Histogram b({1.0, 10.0});
  b.observe(2.0);

  Histogram merged;          // empty adopts a's bounds
  merged.merge(a);
  merged.merge(b);
  ASSERT_EQ(merged.bounds(), a.bounds());
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_EQ(merged.bucket_counts()[0], 1u);
  EXPECT_EQ(merged.bucket_counts()[1], 1u);
  EXPECT_EQ(merged.bucket_counts()[2], 1u);
  EXPECT_DOUBLE_EQ(merged.min(), 0.5);
  EXPECT_DOUBLE_EQ(merged.max(), 50.0);
}

// ---------------------------------------------------------------- timeline

TEST(Timeline, RecordsInOrderAndSelects) {
  EventTimeline timeline;
  timeline.record(sim::TimePoint{sim::seconds(1).ns}, "client", "a", "one");
  timeline.record(sim::TimePoint{sim::seconds(2).ns}, "server", "b");
  timeline.record(sim::TimePoint{sim::seconds(3).ns}, "client", "a", "two");

  ASSERT_EQ(timeline.events().size(), 3u);
  auto first_a = timeline.first("a");
  ASSERT_TRUE(first_a.has_value());
  EXPECT_EQ(first_a->detail, "one");
  auto later_a =
      timeline.first_after("a", sim::TimePoint{sim::seconds(2).ns});
  ASSERT_TRUE(later_a.has_value());
  EXPECT_EQ(later_a->detail, "two");
  EXPECT_FALSE(timeline.first("zzz").has_value());
  EXPECT_EQ(timeline.select("a").size(), 2u);
}

TEST(Timeline, CapacityBoundIsEnforced) {
  EventTimeline timeline(/*max_events=*/4);
  for (int i = 0; i < 10; ++i) {
    timeline.record(sim::TimePoint{}, "n", "k");
  }
  EXPECT_EQ(timeline.events().size(), 4u);
  EXPECT_EQ(timeline.dropped(), 6u);
}

TEST(Timeline, MergeOrdersByTimeThenLogThenEmission) {
  EventTimeline a(/*max_events=*/2);
  EventTimeline b;
  a.record(sim::TimePoint{20}, "a", "k", "a1");
  a.record(sim::TimePoint{30}, "a", "k", "a2");
  a.record(sim::TimePoint{40}, "a", "k", "dropped");
  b.record(sim::TimePoint{10}, "b", "k", "b1");
  b.record(sim::TimePoint{20}, "b", "k", "b2");
  b.record(sim::TimePoint{20}, "b", "k", "b3");

  // b comes first in the list, so it wins the tie at t=20 even though a
  // recorded there first; within b the tie keeps emission order.
  EventTimeline merged = EventTimeline::merge({&b, &a});
  std::vector<std::string> details;
  for (const Event& e : merged.events()) details.push_back(e.detail);
  EXPECT_EQ(details, (std::vector<std::string>{"b1", "b2", "b3", "a1", "a2"}));
  EXPECT_EQ(merged.dropped(), 1u);
  EXPECT_TRUE(EventTimeline::merge({}).events().empty());
}

TEST(Timeline, FailoverPhasesFromSyntheticRun) {
  EventTimeline timeline;
  auto at = [](double s) {
    return sim::TimePoint{static_cast<std::int64_t>(s * 1e9)};
  };
  timeline.record(at(1.0), "server1", event::kCrashInjected);
  timeline.record(at(1.5), "redirector", event::kFailureReportReceived);
  timeline.record(at(2.0), "redirector", event::kReplicaEliminated);
  timeline.record(at(2.1), "server2", event::kPromoted);
  timeline.record(at(2.2), "client", event::kStreamResumed);

  std::vector<trace2::FailoverBreakdown> phases =
      trace2::postmortem(nullptr, timeline);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_DOUBLE_EQ(phases[0].crash_s, 1.0);
  EXPECT_DOUBLE_EQ(phases[0].report_received_ms, 500.0);
  EXPECT_DOUBLE_EQ(phases[0].eliminate_ms, 1000.0);
  EXPECT_NEAR(phases[0].promote_ms, 1100.0, 1e-6);
  EXPECT_NEAR(phases[0].resume_ms, 1200.0, 1e-6);
}

TEST(Timeline, FailoverPhasesWithoutCrashAreNegative) {
  EventTimeline timeline;
  timeline.record(sim::TimePoint{}, "x", event::kReplicaEliminated);
  // No crash, no failover: nothing to decompose.
  EXPECT_TRUE(trace2::postmortem(nullptr, timeline).empty());
}

// --------------------------------------------------------------- exporters

Registry make_sample_registry() {
  Registry registry;
  registry.set_counter("client", "tcp.segments_out", 120);
  registry.set_counter("client", "tcp.retransmits", 3);
  registry.set_counter("server1", "ftcp.deposit_gate_stalls", 7);
  registry.set_gauge("testbed", "ftcp.ack_channel_lost", 2.0);
  Histogram h(stall_ms_buckets());
  h.observe(0.4);
  h.observe(25.0);
  registry.set_histogram("server1", "ftcp.deposit_gate_stall_ms", h);
  registry.timeline().record(sim::TimePoint{sim::seconds(3).ns}, "server1",
                             event::kCrashInjected, "fail-stop");
  registry.timeline().record(sim::TimePoint{sim::seconds(4).ns}, "redirector",
                             event::kReplicaEliminated, "10.0.2.2");
  return registry;
}

TEST(Export, JsonContainsNodesAndEvents) {
  std::string json = to_json(make_sample_registry());
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"client\""), std::string::npos);
  EXPECT_NE(json.find("\"tcp.retransmits\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"crash_injected\""), std::string::npos);
  EXPECT_NE(json.find("\"ftcp.deposit_gate_stall_ms\""), std::string::npos);
}

TEST(Export, CsvMatchesGoldenText) {
  // Numbers take their shortest exact form, which may be exponent
  // notation (10 -> "1e+01").
  EXPECT_EQ(to_csv(make_sample_registry()),
            "record,node,name,value\n"
            "counter,client,tcp.retransmits,3\n"
            "counter,client,tcp.segments_out,120\n"
            "counter,server1,ftcp.deposit_gate_stalls,7\n"
            "hbucket,server1,ftcp.deposit_gate_stall_ms,0.1,0\n"
            "hbucket,server1,ftcp.deposit_gate_stall_ms,0.3,0\n"
            "hbucket,server1,ftcp.deposit_gate_stall_ms,1,1\n"
            "hbucket,server1,ftcp.deposit_gate_stall_ms,3,0\n"
            "hbucket,server1,ftcp.deposit_gate_stall_ms,1e+01,0\n"
            "hbucket,server1,ftcp.deposit_gate_stall_ms,3e+01,1\n"
            "hbucket,server1,ftcp.deposit_gate_stall_ms,1e+02,0\n"
            "hbucket,server1,ftcp.deposit_gate_stall_ms,3e+02,0\n"
            "hbucket,server1,ftcp.deposit_gate_stall_ms,1e+03,0\n"
            "hbucket,server1,ftcp.deposit_gate_stall_ms,3e+03,0\n"
            "hbucket,server1,ftcp.deposit_gate_stall_ms,inf,0\n"
            "hsummary,server1,ftcp.deposit_gate_stall_ms,2,25.4,0.4,25\n"
            "gauge,testbed,ftcp.ack_channel_lost,2\n"
            "event,3,server1,crash_injected,fail-stop\n"
            "event,4,redirector,replica_eliminated,10.0.2.2\n");
}

TEST(Export, CsvQuotesEventDetailsWithCommasNewlinesAndQuotes) {
  // Event details are free text and may contain every CSV metacharacter;
  // to_csv quotes such fields per RFC 4180 (embedded quotes doubled), so
  // the 4-column header's shape is never ambiguous.
  Registry registry;
  registry.timeline().record(sim::TimePoint{sim::seconds(1).ns}, "server1",
                             event::kFailureSignal,
                             "192.20.225.20:5001, blocked_on_successor");
  registry.timeline().record(sim::TimePoint{sim::seconds(2).ns}, "redirector",
                             event::kReplicaEliminated,
                             "line one\nline two");
  registry.timeline().record(sim::TimePoint{sim::seconds(3).ns}, "server2",
                             event::kPromoted, "said \"ok\", twice");

  EXPECT_EQ(to_csv(registry),
            "record,node,name,value\n"
            "event,1,server1,failure_signal,"
            "\"192.20.225.20:5001, blocked_on_successor\"\n"
            "event,2,redirector,replica_eliminated,\"line one\nline two\"\n"
            "event,3,server2,promoted,\"said \"\"ok\"\", twice\"\n");
}

// ------------------------------------------------------------- integration

apps::TtcpTransmitter::Config ttcp_config(const testbed::TestbedConfig& config,
                                          std::size_t total_bytes) {
  apps::TtcpTransmitter::Config tx;
  tx.server = config.service;
  tx.total_bytes = total_bytes;
  tx.write_size = 1024;
  return tx;
}

// A lossy transfer must be visible in the registry: nonzero
// tcp.retransmits on the client, delivered/loss_drops on the link.
TEST(StatsIntegration, LossyTransferShowsUpInCounters) {
  testbed::TestbedConfig config;
  config.setup = testbed::Setup::primary_backup;
  config.backups = 1;
  testbed::Testbed bed(config);
  bed.client_link().set_loss_model(
      std::make_unique<link::BernoulliLoss>(0.03));

  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), config.service.address, config.service.port));
  }
  apps::TtcpTransmitter transmitter(bed.client(),
                                    ttcp_config(config, 256 * 1024));
  ASSERT_TRUE(transmitter.start().ok());
  bed.net().run_for(sim::seconds(60));
  ASSERT_TRUE(transmitter.report().finished);

  Registry& registry = bed.stats();
  EXPECT_GT(registry.counter_value("client", "tcp.retransmits"), 0u);
  EXPECT_GT(registry.counter_value("client", "tcp.segments_out"), 0u);
  EXPECT_GT(registry.total("link.loss_drops"), 0u);
  EXPECT_GT(registry.total("link.delivered"), 0u);
  // The FT chain was active: the redirector multicast segments and the
  // backup acknowledged them up-chain.
  EXPECT_GT(registry.total("redirector.copies_sent"), 0u);
  EXPECT_GT(registry.total("ftcp.ack_channel_sent"), 0u);
}

// After a primary crash the registry's timeline must carry the complete
// ordered failover sequence the paper describes: crash -> FAILURE-REPORT
// -> probe -> eliminate -> PROMOTE -> promoted.
TEST(StatsIntegration, CrashLeavesOrderedFailoverTimeline) {
  testbed::TestbedConfig config;
  config.setup = testbed::Setup::primary_backup;
  config.backups = 1;
  config.detector.retransmission_threshold = 2;
  testbed::Testbed bed(config);

  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), config.service.address, config.service.port));
  }
  apps::TtcpTransmitter transmitter(bed.client(),
                                    ttcp_config(config, 8 * 1024 * 1024));
  ASSERT_TRUE(transmitter.start().ok());

  bed.net().run_for(sim::seconds(1));
  bed.crash_server(0);
  bed.net().run_for(sim::seconds(30));

  const EventTimeline& timeline = bed.stats().timeline();
  auto crash = timeline.first(event::kCrashInjected);
  auto report = timeline.first(event::kFailureReportReceived);
  auto probe = timeline.first(event::kProbeStarted);
  auto eliminated = timeline.first(event::kReplicaEliminated);
  auto promote_ordered = timeline.first(event::kPromoteOrdered);
  auto promoted = timeline.first(event::kPromoted);
  ASSERT_TRUE(crash.has_value());
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(probe.has_value());
  ASSERT_TRUE(eliminated.has_value());
  ASSERT_TRUE(promote_ordered.has_value());
  ASSERT_TRUE(promoted.has_value());

  EXPECT_LT(crash->at.ns, report->at.ns);
  EXPECT_LE(report->at.ns, probe->at.ns);
  EXPECT_LE(probe->at.ns, eliminated->at.ns);
  EXPECT_LE(eliminated->at.ns, promote_ordered->at.ns);
  EXPECT_LE(promote_ordered->at.ns, promoted->at.ns);
  EXPECT_EQ(crash->node, "server1");
  EXPECT_EQ(promoted->node, "server2");

  std::vector<trace2::FailoverBreakdown> phases =
      trace2::postmortem(nullptr, timeline);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_GT(phases[0].report_received_ms, 0);
  EXPECT_GE(phases[0].eliminate_ms, phases[0].report_received_ms);
  EXPECT_GE(phases[0].promote_ms, phases[0].eliminate_ms);

  // The per-replica failure-signal counter corroborates the timeline.
  Registry& registry = bed.stats();
  EXPECT_GT(registry.total("ftcp.failure_signals"), 0u);
  EXPECT_GT(registry.counter_value(bed.redirector_host().name(),
                                   "mgmt.replicas_eliminated"), 0u);
}

}  // namespace
}  // namespace hydranet::stats
