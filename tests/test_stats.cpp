// Metrics registry + event timeline tests: registry semantics, histogram
// bucketing/merging, exporter round-trips — and the end-to-end assertions
// the observability layer exists for: a lossy transfer shows up in
// tcp.retransmits, and a primary crash leaves the full ordered failover
// timeline (crash -> report -> eliminate -> promote) in the registry.
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

TEST(HistogramTest, FromPartsRoundTrips) {
  Histogram h(stall_ms_buckets());
  h.observe(0.3);
  h.observe(12.0);
  h.observe(99999.0);
  Histogram copy = Histogram::from_parts(h.bounds(), h.bucket_counts(),
                                         h.count(), h.sum(), h.min(), h.max());
  EXPECT_EQ(copy.bucket_counts(), h.bucket_counts());
  EXPECT_EQ(copy.count(), h.count());
  EXPECT_DOUBLE_EQ(copy.sum(), h.sum());
  EXPECT_DOUBLE_EQ(copy.max(), h.max());
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

TEST(Export, CsvRoundTripsThroughFromCsv) {
  Registry original = make_sample_registry();
  std::string csv = to_csv(original);

  auto restored = from_csv(csv);
  ASSERT_TRUE(restored.ok());
  const Registry& r = restored.value();

  EXPECT_EQ(r.counter_value("client", "tcp.segments_out"), 120u);
  EXPECT_EQ(r.counter_value("client", "tcp.retransmits"), 3u);
  EXPECT_EQ(r.counter_value("server1", "ftcp.deposit_gate_stalls"), 7u);
  ASSERT_NE(r.node("testbed"), nullptr);
  EXPECT_DOUBLE_EQ(r.node("testbed")->gauges.at("ftcp.ack_channel_lost")
                       .value(), 2.0);

  const Histogram& h =
      r.node("server1")->histograms.at("ftcp.deposit_gate_stall_ms");
  const Histogram& orig =
      original.node("server1")->histograms.at("ftcp.deposit_gate_stall_ms");
  EXPECT_EQ(h.bucket_counts(), orig.bucket_counts());
  EXPECT_EQ(h.count(), orig.count());
  EXPECT_DOUBLE_EQ(h.max(), orig.max());

  ASSERT_EQ(r.timeline().events().size(), 2u);
  EXPECT_EQ(r.timeline().events()[0].kind, event::kCrashInjected);
  EXPECT_EQ(r.timeline().events()[0].node, "server1");
  EXPECT_EQ(r.timeline().events()[0].detail, "fail-stop");
  EXPECT_EQ(r.timeline().events()[1].kind, event::kReplicaEliminated);
  // Round-tripping again is a fixed point.
  EXPECT_EQ(to_csv(r), csv);
}

TEST(Export, FromCsvRejectsGarbage) {
  EXPECT_FALSE(from_csv("counter,only-two-fields\n").ok());
  EXPECT_FALSE(from_csv("frobnicate,a,b,c\n").ok());
}

TEST(Export, CsvQuotesEventDetailsWithCommasNewlinesAndQuotes) {
  // Event details are free text and may contain every CSV metacharacter;
  // to_csv must quote per RFC 4180 and from_csv must round-trip exactly.
  Registry registry;
  registry.timeline().record(sim::TimePoint{sim::seconds(1).ns}, "server1",
                             event::kFailureSignal,
                             "192.20.225.20:5001, blocked_on_successor");
  registry.timeline().record(sim::TimePoint{sim::seconds(2).ns}, "redirector",
                             event::kReplicaEliminated,
                             "line one\nline two");
  registry.timeline().record(sim::TimePoint{sim::seconds(3).ns}, "server2",
                             event::kPromoted, "said \"ok\", twice");

  std::string csv = to_csv(registry);
  // The comma-bearing detail is quoted, so the header's 4-column shape is
  // never ambiguous.
  EXPECT_NE(csv.find("\"192.20.225.20:5001, blocked_on_successor\""),
            std::string::npos);
  EXPECT_NE(csv.find("\"said \"\"ok\"\", twice\""), std::string::npos);

  auto restored = from_csv(csv);
  ASSERT_TRUE(restored.ok());
  const auto& events = restored.value().timeline().events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].detail, "192.20.225.20:5001, blocked_on_successor");
  EXPECT_EQ(events[1].detail, "line one\nline two");
  EXPECT_EQ(events[2].detail, "said \"ok\", twice");
  // Fixed point: re-export equals the first export.
  EXPECT_EQ(to_csv(restored.value()), csv);
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

  const EventTimeline& timeline = bed.net().metrics().timeline();
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
