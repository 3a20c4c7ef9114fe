// Differential property tests for link rx batching (Link::Config
// batch_frames):
//   - batch_frames = 1 IS the legacy path: streams, event timeline, and
//     the full metrics snapshot must be byte-identical to a default-config
//     run, and the scheduler.batch.* counters must stay untouched;
//   - batch_frames > 1 trades arrival timing for event amortisation: the
//     application streams must still be byte-identical, while the batch
//     counters show multiple frames per dispatch, exactly as many as the
//     recorded golden counts;
//   - a deep rx backlog (one connection-scale wave of SYNs queued in one
//     instant) must deliver every frame in the recorded order at the
//     recorded instants: callback and wire digests and the link counters
//     are pinned to golden values.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/ttcp.hpp"
#include "test_util.hpp"

namespace hydranet {
namespace {

using testutil::ByteSinkServer;
using testutil::DropNth;
using testutil::Pair;
using testutil::ip;

/// Everything observable about one echo transfer over a Pair link.
struct RunResult {
  std::uint64_t sink_checksum = 0;
  std::uint64_t echo_checksum = 0;
  std::size_t sink_bytes = 0;
  std::size_t echo_bytes = 0;
  std::vector<std::string> timeline;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::string> histograms;
  std::uint64_t batch_bursts = 0;  ///< delta accumulated by this run
  std::uint64_t batch_packets = 0;
};

/// Process-global counters that accumulate across Networks in one test
/// binary and legitimately differ between runs.
bool excluded_metric(const std::string& node, const std::string& name) {
  if (node == "datapath" || node == "verify") return true;
  if (name == "scheduler.alloc_fallbacks") return true;
  if (name == "scheduler.batch.bursts" || name == "scheduler.batch.packets") {
    return true;  // compared via the explicit per-run delta instead
  }
  return false;
}

RunResult run_echo(link::Link::Config config, double drop_data_segments) {
  const link::BatchCounters before = link::batch_counters();
  RunResult result;
  {
    Pair pair(config);
    if (drop_data_segments > 0) {
      pair.link.set_loss_model(std::make_unique<DropNth>(
          std::vector<std::uint64_t>{3, 11, 12, 30}, 200));
    }
    tcp::TcpOptions server_options;
    server_options.send_buffer_capacity = 256 * 1024;
    ByteSinkServer sink(pair.b, ip(10, 0, 0, 2), 9000, /*echo_back=*/true,
                        server_options);
    auto client = pair.a.tcp()
                      .connect(net::Ipv4Address(),
                               net::Endpoint{ip(10, 0, 0, 2), 9000})
                      .value();
    Bytes echoed;
    client->set_on_readable([&] {
      for (;;) {
        auto data = client->recv(64 * 1024);
        if (!data || data.value().empty()) return;
        echoed.insert(echoed.end(), data.value().begin(), data.value().end());
      }
    });
    const Bytes payload = apps::ttcp_pattern(128 * 1024, 9);
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
    pair.net.run_for(sim::seconds(60));

    result.sink_checksum = apps::fnv1a(sink.received);
    result.sink_bytes = sink.received.size();
    result.echo_checksum = apps::fnv1a(echoed);
    result.echo_bytes = echoed.size();

    pair.net.publish_metrics();
    for (const auto& [node, metrics] : pair.net.metrics().nodes()) {
      for (const auto& [name, counter] : metrics.counters) {
        if (excluded_metric(node, name)) continue;
        result.counters[node + "/" + name] = counter.value();
      }
      for (const auto& [name, histogram] : metrics.histograms) {
        if (excluded_metric(node, name)) continue;
        std::ostringstream fold;
        fold << histogram.count() << ":" << histogram.sum();
        result.histograms[node + "/" + name] = fold.str();
      }
    }
    for (const auto& event : pair.net.metrics().timeline().events()) {
      result.timeline.push_back(event.to_string());
    }
  }
  const link::BatchCounters after = link::batch_counters();
  result.batch_bursts = after.bursts - before.bursts;
  result.batch_packets = after.packets - before.packets;
  return result;
}

void expect_streams_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.sink_bytes, b.sink_bytes);
  EXPECT_EQ(a.sink_checksum, b.sink_checksum);
  EXPECT_EQ(a.echo_bytes, b.echo_bytes);
  EXPECT_EQ(a.echo_checksum, b.echo_checksum);
}

TEST(BatchProperty, BatchOneIsByteIdenticalToLegacy) {
  for (double loss : {0.0, 1.0}) {
    RunResult legacy = run_echo(link::Link::Config{}, loss);
    link::Link::Config batched;
    batched.batch_frames = 1;
    RunResult one = run_echo(batched, loss);

    expect_streams_identical(legacy, one);
    ASSERT_EQ(legacy.timeline.size(), one.timeline.size());
    for (std::size_t i = 0; i < legacy.timeline.size(); ++i) {
      EXPECT_EQ(legacy.timeline[i], one.timeline[i]) << "timeline entry " << i;
    }
    EXPECT_EQ(legacy.counters, one.counters);
    EXPECT_EQ(legacy.histograms, one.histograms);
    // batch=1 takes the one-event-per-frame path: the batching machinery
    // must never have engaged.
    EXPECT_EQ(legacy.batch_bursts, 0u);
    EXPECT_EQ(one.batch_bursts, 0u);
    EXPECT_EQ(one.batch_packets, 0u);
    // Sanity: the transfer really ran (full round trip, lossy or not).
    EXPECT_EQ(one.sink_bytes, 128u * 1024u);
    EXPECT_EQ(one.echo_bytes, 128u * 1024u);
  }
}

TEST(BatchProperty, BatchedRunsPreserveStreams) {
  struct Case {
    double loss;
    std::uint64_t bursts;  ///< golden, recorded from the original rx path
    std::uint64_t packets;
  };
  for (const Case& c : {Case{0.0, 184, 226}, Case{1.0, 219, 359}}) {
    RunResult one = run_echo(link::Link::Config{}, c.loss);
    link::Link::Config batched;
    batched.batch_frames = 8;
    RunResult eight = run_echo(batched, c.loss);

    // Timing differs (full batches coalesce to the newest arrival), but
    // both directions of the application stream must be byte-identical.
    expect_streams_identical(one, eight);
    EXPECT_EQ(eight.sink_bytes, 128u * 1024u);
    // The batched run really amortised (fewer dispatches than frames), and
    // exactly as the batch-fill rule dictates: a batch coalesces when
    // batch_frames *undelivered* frames wait, never counting delivered ones.
    EXPECT_EQ(eight.batch_bursts, c.bursts);
    EXPECT_EQ(eight.batch_packets, c.packets);
  }
}

/// Everything observable about one connect wave.
struct WaveResult {
  std::uint64_t callbacks = 0;  ///< digest of every (kind, index, now) callback
  std::uint64_t wire = 0;       ///< digest of every (sender, now, bytes) frame
  std::size_t accepted = 0;
  std::size_t established = 0;
  std::uint64_t batch_bursts = 0;  ///< delta accumulated by this run
  std::uint64_t batch_packets = 0;
  std::map<std::string, std::uint64_t> link_counters;
  std::string queue_depth;  ///< link.queue_depth as count:sum:max
};

/// FNV-1a step over the little-endian bytes of each word.
void fold_words(std::uint64_t& digest,
                std::initializer_list<std::uint64_t> words) {
  for (std::uint64_t word : words) {
    for (int shift = 0; shift < 64; shift += 8) {
      digest ^= (word >> shift) & 0xff;
      digest *= 1099511628211ull;
    }
  }
}

/// One bench_connection_scale wave (2,048 connect()s in one instant) over a
/// 10 Gb/s batching Pair: every SYN lands on the a->b rx queue before the
/// first one arrives, so later flushes drain a backlog of ~2,000 frames.
/// Runs to quiescence, folding each accept and client on-established
/// callback (connection index, net.now()) into one digest and every frame
/// the link's tap sees into another.
WaveResult run_connect_wave() {
  constexpr std::size_t kWave = 2048;
  const link::BatchCounters before = link::batch_counters();
  WaveResult result;
  {
    link::Link::Config config;
    config.bandwidth_bps = 10e9;
    config.queue_capacity_packets = 4096;
    config.batch_frames = 8;
    Pair pair(config);
    tcp::TcpOptions options;
    options.coalesce_timers = true;

    std::uint64_t callbacks = 14695981039346656037ull;
    std::uint64_t wire = callbacks;
    auto now = [&] { return static_cast<std::uint64_t>(pair.net.now().ns); };
    pair.link.set_tap([&](const link::NetworkInterface& from,
                          const PacketBuffer& frame) {
      fold_words(wire, {from.address() == ip(10, 0, 0, 1) ? 0u : 1u, now(),
                        apps::fnv1a(frame.flatten_copy())});
    });

    std::map<std::uint16_t, std::uint64_t> index_of_port;
    std::vector<std::shared_ptr<tcp::TcpConnection>> server_conns;
    auto listener = pair.b.tcp().listen(
        net::Ipv4Address(), 9000,
        [&](std::shared_ptr<tcp::TcpConnection> conn) {
          fold_words(callbacks,
                     {'A', index_of_port.at(conn->key().remote.port), now()});
          server_conns.push_back(std::move(conn));
        },
        options);
    EXPECT_TRUE(listener.ok());

    std::vector<std::shared_ptr<tcp::TcpConnection>> client_conns;
    for (std::size_t i = 0; i < kWave; ++i) {
      auto conn = pair.a.tcp()
                      .connect(net::Ipv4Address(),
                               net::Endpoint{ip(10, 0, 0, 2), 9000}, options)
                      .value();
      index_of_port[conn->key().local.port] = i;
      conn->set_on_established([&, i] {
        fold_words(callbacks, {'E', i, now()});
        result.established++;
      });
      client_conns.push_back(std::move(conn));
    }
    pair.net.run();

    result.callbacks = callbacks;
    result.wire = wire;
    result.accepted = server_conns.size();
    pair.net.publish_metrics();
    for (const auto& [node, metrics] : pair.net.metrics().nodes()) {
      for (const auto& [name, counter] : metrics.counters) {
        if (name.rfind("link.", 0) == 0) {
          result.link_counters[name] = counter.value();
        }
      }
      for (const auto& [name, histogram] : metrics.histograms) {
        if (name != "link.queue_depth") continue;
        // Depths are whole frames, so sum and max are exact integers.
        std::ostringstream fold;
        fold << histogram.count() << ":"
             << static_cast<std::uint64_t>(histogram.sum()) << ":"
             << static_cast<std::uint64_t>(histogram.max());
        result.queue_depth = fold.str();
      }
    }
  }
  const link::BatchCounters after = link::batch_counters();
  result.batch_bursts = after.bursts - before.bursts;
  result.batch_packets = after.packets - before.packets;
  return result;
}

// The golden values were recorded from the original rx path, which erased
// delivered frames from the front of a vector; any rx queue must reproduce
// them exactly.  A reordering inside a burst changes the order the far end
// answers in (the wire digest), a re-timing moves both digests.
TEST(BatchProperty, DeepBacklogWaveMatchesGolden) {
  const WaveResult wave = run_connect_wave();
  EXPECT_EQ(wave.accepted, 2048u);
  EXPECT_EQ(wave.established, 2048u);
  EXPECT_EQ(wave.callbacks, 0x17929ca62f4cad28ull);
  EXPECT_EQ(wave.wire, 0x9b04ff3891206b41ull);
  // Three frames per connection (SYN, SYN-ACK, ACK); after the first full
  // batch the backlog drains almost one frame per flush.
  EXPECT_EQ(wave.batch_packets, 6144u);
  EXPECT_EQ(wave.batch_bursts, 6130u);
  const std::map<std::string, std::uint64_t> link_golden = {
      {"link.delivered", 6144},
      {"link.down_drops", 0},
      {"link.loss_drops", 0},
      {"link.queue_drops", 0}};
  EXPECT_EQ(wave.link_counters, link_golden);
  // The whole wave sat in the a->b queue at once (depth up to 2,047).
  EXPECT_EQ(wave.queue_depth, "6144:2110758:2047");
}

}  // namespace
}  // namespace hydranet
