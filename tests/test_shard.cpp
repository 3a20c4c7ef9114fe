// Sharded engine: conservative-lookahead synchronisation (DESIGN.md §10).
//
// Engine-level tests drive ShardEngine directly with hand-made events;
// network-level tests run real TCP traffic across shard boundaries and
// check exactness and run-to-run determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/shard.hpp"
#include "test_util.hpp"

namespace hydranet::sim {
namespace {

using apps::ttcp_pattern;
using testutil::ip;

TEST(ShardEngine, SingleShardBypassMatchesPlainScheduler) {
  Scheduler reference;
  ShardEngine engine({.shards = 1});

  std::vector<std::int64_t> ref_order;
  std::vector<std::int64_t> eng_order;
  for (std::int64_t t : {50, 10, 30, 10, 90}) {
    reference.schedule_at(TimePoint{t}, [&ref_order, t] {
      ref_order.push_back(t);
    });
    engine.scheduler(0).schedule_at(TimePoint{t}, [&eng_order, t] {
      eng_order.push_back(t);
    });
  }
  EXPECT_EQ(reference.run_until(TimePoint{100}),
            engine.run_until(TimePoint{100}));
  EXPECT_EQ(ref_order, eng_order);
  EXPECT_EQ(engine.scheduler(0).now(), TimePoint{100});
  // No epochs, no mailboxes at shards == 1, but every executed event counts.
  EXPECT_EQ(engine.counters_total().epochs, 0u);
  EXPECT_EQ(engine.counters_total().events, 5u);
}

TEST(ShardEngine, RunUntilAdvancesEveryShardClockExactly) {
  ShardEngine engine({.shards = 4});
  engine.observe_cross_shard_latency(microseconds(100));
  engine.run_until(TimePoint{1'000'000});
  for (std::size_t s = 0; s < engine.shards(); ++s) {
    EXPECT_EQ(engine.scheduler(s).now(), TimePoint{1'000'000}) << "shard " << s;
  }
}

// A complete drain leaves every clock at the latest executed event, as one
// shard does, not at the last epoch boundary up to one lookahead later:
// a post at 1,000 ns makes an event at 51,007 ns, and the clocks read
// 51,007 ns after run() at any shard count.
TEST(ShardEngine, CompleteDrainEndsAtTheLatestEventAtAnyShardCount) {
  for (std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ShardEngine engine({.shards = shards});
    const Duration w = microseconds(50);
    engine.observe_cross_shard_latency(w);
    const std::size_t last = shards - 1;
    engine.scheduler(0).schedule_at(TimePoint{1'000}, [&engine, last, w] {
      engine.post(0, last, engine.scheduler(0).now() + w + Duration{7}, [] {});
    });
    EXPECT_EQ(engine.run(), 2u);
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(engine.scheduler(s).now(), TimePoint{51'007}) << "shard " << s;
    }
  }
}

// A cross-shard message may never land in its receiver's past, and must
// execute at exactly its timestamp.
TEST(ShardEngine, CrossShardPostsExecuteAtTheirTimestamp) {
  ShardEngine engine({.shards = 2});
  const Duration w = microseconds(50);
  engine.observe_cross_shard_latency(w);

  struct Exec {
    std::size_t shard;
    std::int64_t at;
    std::int64_t clock;
  };
  std::vector<Exec> log[2];
  // Ping-pong: each delivery re-posts to the other shard w later, five
  // times over, starting from both sides at unaligned offsets.
  struct Pinger {
    ShardEngine* engine;
    Duration w;
    std::vector<Exec>* log;
    void bounce(std::size_t to, TimePoint at, int hops) {
      std::size_t from = 1 - to;
      engine->post(from, to, at, [this, to, at, hops] {
        log[to].push_back({to, at.ns, engine->scheduler(to).now().ns});
        if (hops > 0) bounce(1 - to, at + w, hops - 1);
      });
    }
  };
  Pinger pinger{&engine, w, log};
  pinger.bounce(1, TimePoint{13}, 5);
  pinger.bounce(0, TimePoint{29}, 5);

  const std::size_t executed = engine.run(100000);
  EXPECT_EQ(executed, 12u);
  for (auto& shard_log : log) {
    for (const Exec& e : shard_log) {
      EXPECT_EQ(e.at, e.clock) << "event ran off its timestamp";
    }
  }
  const ShardEngine::Counters totals = engine.counters_total();
  EXPECT_GE(totals.mailbox_posted, 10u);
  EXPECT_EQ(totals.mailbox_posted, totals.mailbox_drained);
}

TEST(ShardEngine, MailboxOverflowStaysCorrect) {
  ShardEngine engine({.shards = 2});
  engine.observe_cross_shard_latency(microseconds(10));
  // One shard-0 event fans 60 more posts into shard 1 than its mailbox
  // holds without growing; every one must still run, in timestamp order.
  constexpr int kPosts = static_cast<int>(ShardEngine::kMailboxCapacity) + 60;
  std::vector<int> ran;  // written by shard 1 only, read after the run
  engine.scheduler(0).schedule_at(TimePoint{5}, [&] {
    for (int i = 0; i < kPosts; ++i) {
      engine.post(0, 1, TimePoint{20'000 + i},
                  [&ran, i] { ran.push_back(i); });
    }
  });
  engine.run(100000);
  ASSERT_EQ(ran.size(), static_cast<std::size_t>(kPosts));
  for (int i = 0; i < kPosts; ++i) EXPECT_EQ(ran[i], i) << "out of order";
  const ShardEngine::Counters totals = engine.counters_total();
  EXPECT_EQ(totals.mailbox_posted, static_cast<std::uint64_t>(kPosts));
  EXPECT_EQ(totals.mailbox_drained, static_cast<std::uint64_t>(kPosts));
  EXPECT_EQ(totals.mailbox_overflows, 60u);
}

// ---- network-level: real TCP traffic across a shard boundary ------------

struct CrossShardPair {
  host::Network net;
  host::Host& a;
  host::Host& b;

  explicit CrossShardPair(std::size_t shards, std::uint64_t seed = 1234)
      : net(seed, shards),
        a(net.add_host("a", 0)),
        b(net.add_host("b", shards > 1 ? 1 : 0)) {
    net.connect(a, ip(10, 0, 0, 1), b, ip(10, 0, 0, 2), 24);
  }
};

std::uint64_t transfer_and_hash(CrossShardPair& pair, std::size_t total) {
  testutil::ByteSinkServer server(pair.b, net::Ipv4Address(), 80);
  auto client = pair.a.tcp().connect(net::Ipv4Address(), {ip(10, 0, 0, 2), 80});
  EXPECT_TRUE(client.ok());
  auto conn = client.value();
  Bytes payload = ttcp_pattern(total, 0);
  std::size_t written = 0;
  auto pump = [&] {
    while (written < total) {
      auto n = conn->send(BytesView(payload).subspan(written));
      if (!n) break;
      written += n.value();
    }
    if (written >= total) conn->close();
  };
  conn->set_on_established(pump);
  conn->set_on_writable(pump);
  pair.net.run();
  EXPECT_EQ(server.received.size(), total);
  return apps::fnv1a(server.received);
}

TEST(ShardNetwork, CrossShardTcpTransferIsExact) {
  const std::size_t total = 64 * 1024;
  CrossShardPair sharded(2);
  CrossShardPair single(1);
  const std::uint64_t expected = apps::fnv1a(ttcp_pattern(total, 0));
  EXPECT_EQ(transfer_and_hash(single, total), expected);
  EXPECT_EQ(transfer_and_hash(sharded, total), expected);
  // The traffic really crossed shards.
  sharded.net.publish_metrics();
  EXPECT_GT(sharded.net.engine().counters_total().mailbox_posted, 0u);
  EXPECT_EQ(single.net.engine().counters_total().mailbox_posted, 0u);
}

/// One run's reproducible fingerprint: the delivered streams' hashes and
/// every published counter.  The topology records no timeline events.
std::string run_fingerprint(std::size_t shards, std::uint64_t seed) {
  host::Network net(seed, shards);
  host::Host& a = net.add_host("a", 0);
  host::Host& b = net.add_host("b", shards > 1 ? 1 % shards : 0);
  host::Host& c = net.add_host("c", shards > 1 ? 2 % shards : 0);
  host::Host& d = net.add_host("d", shards > 1 ? 3 % shards : 0);
  // Star around `a` with some loss: retransmission timing and loss draws
  // must replay identically run-to-run.
  link::Link::Config lossy;
  lossy.loss_probability = 0.02;
  net.connect(a, ip(10, 0, 1, 1), b, ip(10, 0, 1, 2), 24, lossy);
  net.connect(a, ip(10, 0, 2, 1), c, ip(10, 0, 2, 2), 24, lossy);
  net.connect(a, ip(10, 0, 3, 1), d, ip(10, 0, 3, 2), 24, lossy);

  std::vector<std::unique_ptr<testutil::ByteSinkServer>> servers;
  std::vector<std::shared_ptr<tcp::TcpConnection>> conns;
  std::vector<std::size_t> written(3, 0);
  const std::size_t total = 24 * 1024;
  Bytes payload = ttcp_pattern(total, 0);
  host::Host* peers[] = {&b, &c, &d};
  for (int i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<testutil::ByteSinkServer>(
        *peers[i], net::Ipv4Address(), 80));
    // Bind the local address per link: `a` has three interfaces, and the
    // peers have no route back to the other two subnets.
    auto client = a.tcp().connect(
        ip(10, 0, static_cast<std::uint8_t>(1 + i), 1),
        {ip(10, 0, static_cast<std::uint8_t>(1 + i), 2), 80});
    EXPECT_TRUE(client.ok());
    auto conn = client.value();
    conns.push_back(conn);
    auto pump = [conn, &written, &payload, total, i] {
      while (written[i] < total) {
        auto n = conn->send(BytesView(payload).subspan(written[i]));
        if (!n) break;
        written[i] += n.value();
      }
      if (written[i] >= total) conn->close();
    };
    conn->set_on_established(pump);
    conn->set_on_writable(pump);
  }
  net.run();
  for (auto& server : servers) EXPECT_EQ(server->received.size(), total);

  net.publish_metrics();
  std::string fp;
  for (const auto& server : servers) {
    fp += std::to_string(apps::fnv1a(server->received)) + "\n";
  }
  // Counter rows (std::map keeps them sorted already).  The datapath node
  // is skipped: its allocator/pool telemetry is process-cumulative, so a
  // second run in the same process sees warm pools and different hit/miss
  // splits even though the simulation itself replays exactly.
  for (const auto& [node, metrics] : net.metrics().nodes()) {
    if (node == "datapath") continue;
    for (const auto& [name, counter] : metrics.counters) {
      fp += node + " " + name + " " + std::to_string(counter.value()) + "\n";
    }
  }
  return fp;
}

// Satellite 3: identical global seed => identical multi-shard run, every
// counter and byte, regardless of thread interleaving.
TEST(ShardNetwork, RepeatRunsAreDeterministicAtFourShards) {
  const std::string first = run_fingerprint(4, 77);
  const std::string second = run_fingerprint(4, 77);
  EXPECT_EQ(first, second);
  const std::string other_seed = run_fingerprint(4, 78);
  EXPECT_NE(first, other_seed);  // the seed actually reaches the streams
}

// Each host records into its own log; publishing merges the logs by
// (time, host creation order, per-host sequence).  Four hosts record at
// one instant, scheduled in reverse creation order, one host per shard at
// 4 shards: the published timeline must read a, b, c, d at every shard
// count, not the scheduling order (1 shard) or the thread order (4).
TEST(ShardNetwork, SameInstantEventsPublishInHostCreationOrder) {
  for (std::size_t shards : {1, 2, 4}) {
    host::Network net(1, shards);
    std::vector<host::Host*> hosts;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::string name(1, static_cast<char>('a' + i));
      hosts.push_back(&net.add_host(name, i % shards));
    }
    const TimePoint at{1'000'000};
    for (auto it = hosts.rbegin(); it != hosts.rend(); ++it) {
      host::Host* h = *it;
      net.schedule_on(*h, at, [h] { h->record_event("tie", h->name()); });
    }
    net.run();
    net.publish_metrics();

    std::string order;
    for (const stats::Event& e : net.metrics().timeline().events()) {
      EXPECT_EQ(e.at, at);
      order += e.node;
    }
    EXPECT_EQ(order, "abcd") << shards << " shards";
  }
}

TEST(ShardNetwork, PlanPartitionBalancesAndRespectsAffinity) {
  // star: r in the middle, 7 leaves, 4 shards, 8 hosts -> cap 2.
  std::vector<std::string> hosts{"r", "a", "b", "c", "d", "e", "f", "g"};
  std::vector<std::pair<std::string, std::string>> edges;
  for (const auto& h : hosts) {
    if (h != "r") edges.emplace_back("r", h);
  }
  auto partition = host::Network::plan_partition(hosts, edges, 4);
  ASSERT_EQ(partition.size(), hosts.size());
  std::vector<int> load(4, 0);
  for (const auto& [name, shard] : partition) {
    ASSERT_LT(shard, 4u);
    load[shard]++;
  }
  for (int l : load) EXPECT_LE(l, 2);
  // First leaf placed lands with the hub (affinity), before balance caps.
  EXPECT_EQ(partition.at("a"), partition.at("r"));
}

TEST(ShardNetwork, CrossShardZeroDelayLinkIsRejected) {
  host::Network net(1, 2);
  host::Host& a = net.add_host("a", 0);
  host::Host& b = net.add_host("b", 1);
  link::Link::Config config;
  config.propagation = sim::Duration{0};
  EXPECT_THROW(net.connect(a, ip(10, 0, 0, 1), b, ip(10, 0, 0, 2), 24, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace hydranet::sim
