// Lockstep differential test (DESIGN.md §10): the Figure-4 failover
// scenario must produce the same observable run at --shards=1 and
// --shards=4 — identical delivered byte streams, an identical failover
// event timeline, and byte-identical span traces and post-mortems (each
// host's spans live in its own ring and its events in its own log, all
// stamped by its own clock).
//
// Conservative synchronisation only reorders execution *between* shards
// inside an epoch; links are lossless here, so both runs carry the same
// frames and every cross-host interaction lands at identical virtual
// times.  The timelines are compared exactly as published: the merge of
// the host logs orders same-instant events by host creation order, not
// by the thread that recorded them first.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/ttcp.hpp"
#include "stats/timeline.hpp"
#include "testbed/testbed.hpp"
#include "trace2/export.hpp"

namespace hydranet::testbed {
namespace {

struct FailoverRun {
  bool finished = false;
  /// Per-server delivered streams: (bytes, fnv1a) per connection report.
  std::vector<std::string> streams;
  /// The failover story: every timeline event, in published order.
  std::vector<std::string> timeline;
  std::uint64_t mailbox_posted = 0;
  std::string spans_jsonl;  ///< trace2::to_spans_jsonl
  std::string postmortem;   ///< trace2::postmortem_text
};

/// "" when `a` and `b` are equal, else their first differing line (span
/// traces run to megabytes; a plain EXPECT_EQ would print all of them).
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(sa, la));
    const bool more_b = static_cast<bool>(std::getline(sb, lb));
    if (!more_a && !more_b) return "";
    if (more_a != more_b || la != lb) {
      return "line " + std::to_string(line) + ": '" + (more_a ? la : "<end>") +
             "' vs '" + (more_b ? lb : "<end>") + "'";
    }
  }
}

FailoverRun run_failover(std::size_t shards) {
  TestbedConfig config;
  config.setup = Setup::primary_backup;
  config.backups = 2;  // 5 hosts over up to 4 shards
  config.shards = shards;
  Testbed bed(config);
  const trace2::Recorder& recorder = bed.net().enable_tracing();

  tcp::TcpOptions tcp_options = apps::period_tcp_options();
  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), bed.config().service.address, bed.config().service.port,
        tcp_options));
  }
  apps::TtcpTransmitter::Config tx;
  tx.server = bed.config().service;
  tx.write_size = 1024;
  tx.total_bytes = 512 * 1024;
  tx.tcp = tcp_options;
  apps::TtcpTransmitter transmitter(bed.client(), tx);
  EXPECT_TRUE(transmitter.start().ok());

  // Crash the primary mid-stream.  crash_server flips state and records
  // the event from the controlling thread, so run up to the instant and
  // inject while the engine is idle — identical at any shard count.
  bed.net().run_for(sim::milliseconds(1000));
  EXPECT_FALSE(transmitter.report().finished);
  bed.crash_server(0);

  sim::TimePoint deadline = bed.net().now() + sim::seconds(600);
  while (bed.net().now() < deadline && !transmitter.report().finished &&
         !transmitter.report().failed) {
    bed.net().run_for(sim::milliseconds(500));
  }
  bed.net().run_for(sim::seconds(1));

  FailoverRun run;
  run.finished = transmitter.report().finished;
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    for (const auto& report : receivers[i]->reports()) {
      std::ostringstream stream;
      stream << "server" << (i + 1) << " bytes=" << report.bytes_received
             << " fnv=" << report.checksum << " eof=" << report.eof;
      run.streams.push_back(stream.str());
    }
  }
  for (const stats::Event& event : bed.stats().timeline().events()) {
    std::ostringstream line;
    line << event.at.ns << " " << event.node << " " << event.kind << " "
         << event.detail;
    run.timeline.push_back(line.str());
  }
  run.mailbox_posted = bed.net().engine().counters_total().mailbox_posted;
  run.spans_jsonl = trace2::to_spans_jsonl(recorder);
  run.postmortem = trace2::postmortem_text(&recorder, bed.stats().timeline());
  return run;
}

TEST(ShardDifferential, Fig4FailoverIsIdenticalAtOneAndFourShards) {
  FailoverRun single = run_failover(1);
  FailoverRun sharded = run_failover(4);

  EXPECT_TRUE(single.finished);
  EXPECT_TRUE(sharded.finished);
  // Identical byte streams at every replica...
  EXPECT_EQ(single.streams, sharded.streams);
  // ...and an identical failover timeline: crash, FAILURE-REPORT,
  // elimination, PROMOTE, resume all at the same virtual instants.
  EXPECT_EQ(single.timeline, sharded.timeline);
  ASSERT_FALSE(single.timeline.empty());

  // The sharded run really exercised the mailbox path.
  EXPECT_EQ(single.mailbox_posted, 0u);
  EXPECT_GT(sharded.mailbox_posted, 0u);

  // Tracing is a performance knob too: the same spans, byte for byte,
  // and the same post-mortem.
  EXPECT_EQ(first_difference(single.spans_jsonl, sharded.spans_jsonl), "");
  EXPECT_EQ(first_difference(single.postmortem, sharded.postmortem), "");
  EXPECT_EQ(single.spans_jsonl.empty(), !trace2::kEnabled);
  EXPECT_NE(single.postmortem.find("post-mortem: service"), std::string::npos);
}

TEST(ShardDifferential, ShardedFailoverIsRepeatable) {
  FailoverRun first = run_failover(4);
  FailoverRun second = run_failover(4);
  EXPECT_EQ(first.streams, second.streams);
  EXPECT_EQ(first.timeline, second.timeline);
  EXPECT_EQ(first_difference(first.spans_jsonl, second.spans_jsonl), "");
}

}  // namespace
}  // namespace hydranet::testbed
