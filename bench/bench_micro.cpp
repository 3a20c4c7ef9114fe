// Substrate micro-benchmarks (google-benchmark): wire-format serialisation,
// checksums, the event scheduler, link rx, TCP connection demux, and the
// reassembly buffer — the inner loops every simulated packet passes
// through.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "common/bytes.hpp"
#include "common/packet_buffer.hpp"
#include "common/rng.hpp"
#include "host/network.hpp"
#include "link/link.hpp"
#include "net/tcp_header.hpp"
#include "net/tunnel.hpp"
#include "sim/scheduler.hpp"
#include "tcp/connection_table.hpp"
#include "tcp/reassembly.hpp"

namespace {

using namespace hydranet;

void BM_InternetChecksum(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(internet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(40)->Arg(576)->Arg(1500)->Arg(65536);

// Scalar reference path, pinned against the dispatched SIMD path above so
// the speedup on this machine is a measurement rather than a claim.
void BM_InternetChecksumScalar(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checksum_finish(checksum_accumulate_scalar(data, 0)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksumScalar)->Arg(576)->Arg(1500)->Arg(65536);

void BM_TcpSerialize(benchmark::State& state) {
  net::TcpSegment segment;
  segment.header.src_port = 40000;
  segment.header.dst_port = 80;
  segment.header.seq = 12345;
  segment.header.ack = 67890;
  segment.header.ack_flag = true;
  segment.payload.assign(static_cast<std::size_t>(state.range(0)), 0x5a);
  net::Ipv4Address src(10, 0, 1, 2), dst(192, 20, 225, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::serialize_tcp(segment, src, dst));
  }
  state.SetBytesProcessed(state.iterations() * (state.range(0) + 20));
}
BENCHMARK(BM_TcpSerialize)->Arg(0)->Arg(512)->Arg(1460);

void BM_TcpParse(benchmark::State& state) {
  net::TcpSegment segment;
  segment.header.src_port = 40000;
  segment.header.dst_port = 80;
  segment.header.ack_flag = true;
  segment.payload.assign(static_cast<std::size_t>(state.range(0)), 0x5a);
  net::Ipv4Address src(10, 0, 1, 2), dst(192, 20, 225, 20);
  Bytes wire = net::serialize_tcp(segment, src, dst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::parse_tcp(wire, src, dst));
  }
  state.SetBytesProcessed(state.iterations() * (state.range(0) + 20));
}
BENCHMARK(BM_TcpParse)->Arg(0)->Arg(512)->Arg(1460);

void BM_Ipv4DatagramRoundTrip(benchmark::State& state) {
  net::Datagram datagram;
  datagram.header.protocol = net::IpProto::udp;
  datagram.header.src = net::Ipv4Address(1, 2, 3, 4);
  datagram.header.dst = net::Ipv4Address(5, 6, 7, 8);
  datagram.payload.assign(1024, 0x33);
  for (auto _ : state) {
    Bytes wire = datagram.serialize();
    benchmark::DoNotOptimize(net::Datagram::parse(wire));
  }
}
BENCHMARK(BM_Ipv4DatagramRoundTrip);

/// The redirector's one-to-many hotspot in isolation: serialise one inner
/// datagram, then build one tunnelled frame per replica.  With the shared
/// buffer datapath the per-replica cost is a fresh 20-byte outer header;
/// the inner kilobyte is never copied again.
void BM_RedirectorFanOut(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  net::Datagram inner;
  inner.header.protocol = net::IpProto::udp;
  inner.header.src = net::Ipv4Address(10, 0, 1, 2);
  inner.header.dst = net::Ipv4Address(192, 20, 225, 20);
  inner.payload.assign(1000, 0x5a);
  const net::Ipv4Address tunnel_src(10, 0, 1, 1);

  reset_datapath_counters();
  for (auto _ : state) {
    PacketBuffer wire = inner.to_frame();
    for (int i = 0; i < replicas; ++i) {
      net::Datagram outer = net::encapsulate_ipip(
          wire, tunnel_src, net::Ipv4Address(10, 0, 2, 2 + i));
      benchmark::DoNotOptimize(outer.to_frame());
    }
  }
  state.SetBytesProcessed(state.iterations() * replicas *
                          static_cast<std::int64_t>(inner.size() + 20));
  state.counters["copied_B/fanout"] = benchmark::Counter(
      static_cast<double>(datapath_counters().copied_bytes) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_RedirectorFanOut)->Arg(1)->Arg(3)->Arg(7);

/// End-to-end cost of one simulated UDP packet crossing one link: socket
/// send, IP output, link transmit, IP input, demux, delivery.
void BM_OneHopUdpPacketPath(benchmark::State& state) {
  host::Network net;
  host::Host& a = net.add_host("a");
  host::Host& b = net.add_host("b");
  net.connect(a, net::Ipv4Address(10, 0, 0, 1), b,
              net::Ipv4Address(10, 0, 0, 2), 24);
  auto rx = b.udp().bind(net::Ipv4Address(), 9000).value();
  std::size_t received = 0;
  rx->set_rx_handler(
      [&received](const net::Endpoint&, CowBytes data) { received += data.size(); });
  auto tx = a.udp().bind(net::Ipv4Address(), 0).value();
  Bytes payload(static_cast<std::size_t>(state.range(0)), 0xaa);
  for (auto _ : state) {
    (void)tx->send_to({net::Ipv4Address(10, 0, 0, 2), 9000}, payload);
    net.run();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OneHopUdpPacketPath)->Arg(64)->Arg(1400);

/// Batched link rx under a deep backlog: `depth` frames queued in one
/// instant on a batch_frames = 8 link, then drained.  After the first full
/// batch each flush delivers about one frame, so the cost per delivered
/// frame (`s/frame`) must stay flat however many frames wait behind it.
void BM_LinkRxBacklog(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::Scheduler scheduler;
  link::NetworkInterface a{"a", net::Ipv4Address(10, 0, 0, 1), 24};
  link::NetworkInterface b{"b", net::Ipv4Address(10, 0, 0, 2), 24};
  link::Link::Config config;
  config.bandwidth_bps = 10e9;
  config.queue_capacity_packets = depth;
  config.batch_frames = 8;
  link::Link link(scheduler, config);
  link.attach(a, b);
  std::size_t delivered = 0;
  b.set_rx_handler([&delivered](PacketBuffer) { delivered++; });
  const PacketBuffer frame(Bytes(64, 0x5a));
  for (auto _ : state) {
    for (std::size_t i = 0; i < depth; ++i) (void)a.send(frame);
    scheduler.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.counters["s/frame"] = benchmark::Counter(
      static_cast<double>(delivered),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LinkRxBacklog)->Arg(64)->Arg(512)->Arg(4096);

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler scheduler;
    for (int i = 0; i < batch; ++i) {
      scheduler.schedule_after(sim::microseconds(i % 100), [] {});
    }
    scheduler.run();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(100)->Arg(10000);

void BM_SchedulerCancelChurn(benchmark::State& state) {
  // The retransmission-timer pattern: arm, cancel, re-arm continuously.
  sim::Scheduler scheduler;
  sim::TimerId timer = sim::kInvalidTimer;
  for (auto _ : state) {
    scheduler.cancel(timer);
    timer = scheduler.schedule_after(sim::seconds(1), [] {});
    scheduler.run_until(scheduler.now() + sim::microseconds(1));
  }
}
BENCHMARK(BM_SchedulerCancelChurn);

/// Steady-state dispatch with `live` events pending.  Each iteration
/// cancels a random far-future timer and re-arms it (the RTO pattern),
/// schedules a short-lived event (a link timer) and runs the next due
/// event.  Live sets of 32 and 128 fit the staging buffer; 512 and 4,096
/// spill into the heap behind it, as tcp_conn_scale does.  Reports the
/// time per executed event (`s/event`), churn included.
void BM_SchedulerLiveSet(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  sim::Scheduler scheduler;
  std::mt19937_64 rng(1);
  // 1-2 s: re-armed long before it could expire at ~5 us per iteration.
  auto rto = [&rng] {
    return sim::microseconds(1'000'000 +
                             static_cast<std::int64_t>(rng() % 1'000'000));
  };
  std::vector<sim::TimerId> timers;
  for (std::size_t i = 0; i < live; ++i) {
    timers.push_back(scheduler.schedule_after(rto(), [] {}));
  }
  std::int64_t executed = 0;
  for (auto _ : state) {
    sim::TimerId& timer = timers[rng() % live];
    scheduler.cancel(timer);
    timer = scheduler.schedule_after(rto(), [] {});
    scheduler.schedule_after(
        sim::microseconds(1 + static_cast<std::int64_t>(rng() % 10)), [] {});
    executed += scheduler.run_next() ? 1 : 0;
    benchmark::DoNotOptimize(executed);
  }
  state.counters["s/event"] = benchmark::Counter(
      static_cast<double>(executed),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SchedulerLiveSet)->Arg(32)->Arg(128)->Arg(512)->Arg(4096);

/// Per-segment connection demux: a find in a table of `conns` server-side
/// connections with bench_connection_scale's key shape (one virtual-host
/// service; client subnets of 25,000 ephemeral ports each, counting up
/// from 32768), probed in a shuffled order so each lookup pays the
/// table's cache misses as the datapath does.  Reports the time per
/// lookup (`s/lookup`).
void BM_ConnDemux(benchmark::State& state) {
  const auto conns = static_cast<std::size_t>(state.range(0));
  const net::Endpoint service{net::Ipv4Address(192, 20, 225, 20), 80};
  // The table only stores and null-tests its owning pointers: every entry
  // shares one token that owns an int (never dereferenced).
  auto owner = std::make_shared<int>(0);
  void* at = owner.get();
  const std::shared_ptr<tcp::TcpConnection> token(
      owner, static_cast<tcp::TcpConnection*>(at));
  tcp::ConnectionTable table;
  std::vector<tcp::ConnectionKey> keys;
  keys.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    const auto subnet = static_cast<std::uint8_t>(1 + i / 25000);
    const auto port = static_cast<std::uint16_t>(32768 + i % 25000);
    keys.push_back({service, {net::Ipv4Address(10, subnet, 0, 2), port}});
    table.insert(keys.back(), token);
  }
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(1));
  for (auto _ : state) {
    for (const tcp::ConnectionKey& key : keys) {
      benchmark::DoNotOptimize(table.find(key));
    }
  }
  state.counters["s/lookup"] = benchmark::Counter(
      static_cast<double>(state.iterations() * conns),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ConnDemux)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_ReassemblyInOrder(benchmark::State& state) {
  Bytes chunk(1460, 0x77);
  for (auto _ : state) {
    tcp::ReassemblyBuffer buffer;
    std::uint64_t base = 0;
    for (int i = 0; i < 64; ++i) {
      (void)buffer.insert(base, chunk, base, base + (1 << 20));
      Bytes out = buffer.extract(base, base + chunk.size());
      benchmark::DoNotOptimize(out);
      base += chunk.size();
    }
  }
  state.SetBytesProcessed(state.iterations() * 64 * 1460);
}
BENCHMARK(BM_ReassemblyInOrder);

void BM_ReassemblyOutOfOrder(benchmark::State& state) {
  Bytes chunk(1460, 0x77);
  for (auto _ : state) {
    tcp::ReassemblyBuffer buffer;
    // 32 segments inserted back-to-front, then drained.
    for (int i = 31; i >= 0; --i) {
      (void)buffer.insert(static_cast<std::uint64_t>(i) * 1460, chunk, 0,
                          1 << 20);
    }
    Bytes out = buffer.extract(0, 32 * 1460);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * 32 * 1460);
}
BENCHMARK(BM_ReassemblyOutOfOrder);

void BM_Fnv1aPattern(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x11);
  for (auto _ : state) {
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t b : data) {
      h ^= b;
      h *= 1099511628211ull;
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fnv1aPattern)->Arg(1460);

}  // namespace

BENCHMARK_MAIN();
