// Sustained packet-rate scenarios for the hot datapath: how many simulated
// packets per second of wall-clock time the simulator pushes through (a) a
// plain one-hop path, (b) a scaled redirect, (c) a fault-tolerant fan-out
// to several backups, and (d) TCP bulk transfers (plain and ft-TCP chain)
// that exercise the TCP input path, the ft-TCP gates and the scheduler.
//
// Unlike the google-benchmark binaries this is a plain scenario runner so
// it can emit machine-readable results:
//
//   bench_packet_rate [--packets N] [--json PATH]
//
// With --json the results (rates plus the datapath copy/alloc counters)
// are written as a JSON document; the committed snapshot is
// BENCH_hotpath.json, gated by tools/bench_check.py.
//
// --shards 1,2,4,8 switches to the sharded-engine scaling sweep instead:
// a fixed fleet of one-hop pairs is partitioned across N engine shards
// (DESIGN.md §10) and the aggregate pkt/s per shard count is emitted —
// the committed snapshot is BENCH_shards.json, gated by
// tools/bench_check.py --shards.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/ttcp.hpp"
#include "common/inline_function.hpp"
#include "common/packet_buffer.hpp"
#include "host/network.hpp"
#include "redirector/redirector.hpp"
#include "testbed/testbed.hpp"
#include "trace2/recorder.hpp"

namespace {

using namespace hydranet;

struct ScenarioResult {
  std::string name;
  int replicas = 0;            ///< tunnelled copies per packet (0 = no tunnel)
  std::size_t packets = 0;
  std::size_t payload_bytes = 0;
  double wall_seconds = 0;
  double sim_seconds = 0;
  double packets_per_wall_second = 0;
  // Datapath counter deltas over the scenario.
  std::uint64_t copies = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t allocations = 0;
  std::uint64_t cow_breaks = 0;
  std::uint64_t flattens = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t scheduler_heap_fallbacks = 0;
  // Redirector accounting (zero for the plain one-hop scenario).
  std::uint64_t redirected = 0;
  std::uint64_t copies_sent = 0;
  std::uint64_t inner_serializations = 0;
  /// copied_bytes the pre-zero-copy datapath would have spent duplicating
  /// the inner frame into every tunnel copy (inner wire size x copies).
  std::uint64_t naive_fanout_copy_bytes = 0;
  // Scheduler telemetry (delta over the scenario): entries spilled from
  // the staging buffer into the heap.
  std::uint64_t wheel_inserts = 0;
  // Causal-tracer overhead probe (0 = tracing not installed).
  std::size_t trace_sample = 0;
  std::uint64_t spans_recorded = 0;
};

/// Streams `packets` UDP datagrams from a client through a redirector to a
/// service with `backups` backup replicas (backups < 0: no redirection at
/// all, plain one-hop delivery).
ScenarioResult run_scenario(const std::string& name, int backups,
                            std::size_t packets, std::size_t payload_bytes) {
  ScenarioResult result;
  result.name = name;
  result.packets = packets;
  result.payload_bytes = payload_bytes;

  host::Network net{42};
  host::Host& client = net.add_host("client");
  net::Endpoint service{net::Ipv4Address(192, 20, 225, 20), 80};
  std::size_t delivered = 0;
  auto attach_sink = [&](host::Host& server) {
    server.v_host(service.address);
    auto sink = server.udp().bind(service.address, 80).value();
    sink->set_rx_handler([&delivered](const net::Endpoint&, CowBytes data) {
      delivered += data.size();
    });
  };

  redirector::Redirector* redirector = nullptr;
  host::Host* rd = nullptr;
  if (backups < 0) {
    // Plain one-hop path: client -> server, no tunnel.
    host::Host& server = net.add_host("server");
    net.connect(client, net::Ipv4Address(10, 0, 1, 2), server,
                net::Ipv4Address(10, 0, 1, 1), 24);
    client.ip().add_default_route(net::Ipv4Address(10, 0, 1, 1), nullptr);
    attach_sink(server);
    result.replicas = 0;
  } else {
    rd = &net.add_host("rd");
    net.connect(client, net::Ipv4Address(10, 0, 1, 2), *rd,
                net::Ipv4Address(10, 0, 1, 1), 24);
    client.ip().add_default_route(net::Ipv4Address(10, 0, 1, 1), nullptr);
    redirector = new redirector::Redirector(*rd);
    rd->ip().add_route(service.address, 32, net::Ipv4Address(10, 0, 2, 2),
                       nullptr);
    for (int i = 0; i <= backups; ++i) {
      host::Host& server = net.add_host("s" + std::to_string(i + 1));
      auto subnet = static_cast<std::uint8_t>(2 + i);
      net.connect(*rd, net::Ipv4Address(10, 0, subnet, 1), server,
                  net::Ipv4Address(10, 0, subnet, 2), 24);
      server.ip().add_default_route(net::Ipv4Address(10, 0, subnet, 1),
                                    nullptr);
      attach_sink(server);
      if (i == 0) {
        redirector->install_service(
            service,
            backups > 0 ? redirector::ServiceMode::fault_tolerant
                        : redirector::ServiceMode::scaled,
            net::Ipv4Address(10, 0, subnet, 2));
      } else {
        (void)redirector->add_backup(service,
                                     net::Ipv4Address(10, 0, subnet, 2));
      }
    }
    result.replicas = backups + 1;
  }

  auto socket = client.udp().bind(net::Ipv4Address(), 0).value();
  Bytes payload(payload_bytes, 0xaa);

  reset_datapath_counters();
  const std::uint64_t heap_before = inline_function_heap_allocs();
  const std::uint64_t inserts_before = net.scheduler().wheel_inserts();
  const auto wall_start = std::chrono::steady_clock::now();
  const sim::TimePoint sim_start = net.now();
  for (std::size_t i = 0; i < packets; ++i) {
    (void)socket->send_to(service, payload);
    net.run();
  }
  const auto wall_end = std::chrono::steady_clock::now();

  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.sim_seconds = (net.now() - sim_start).seconds();
  result.packets_per_wall_second =
      result.wall_seconds > 0 ? static_cast<double>(packets) / result.wall_seconds
                              : 0;
  const DatapathCounters& dp = datapath_counters();
  result.copies = dp.copies;
  result.copied_bytes = dp.copied_bytes;
  result.allocations = dp.allocations;
  result.cow_breaks = dp.cow_breaks;
  result.flattens = dp.flattens;
  result.pool_hits = dp.pool_hits;
  result.pool_misses = dp.pool_misses;
  result.scheduler_heap_fallbacks =
      inline_function_heap_allocs() - heap_before;
  result.wheel_inserts = net.scheduler().wheel_inserts() - inserts_before;
  if (redirector != nullptr) {
    result.redirected = redirector->stats().redirected_datagrams;
    result.copies_sent = redirector->stats().copies_sent;
    result.inner_serializations = redirector->stats().inner_serializations;
    // Inner wire = 20B IP header + 8B UDP header + payload, duplicated into
    // every tunnel copy by the old memcpy-per-replica fan-out.
    result.naive_fanout_copy_bytes =
        result.copies_sent * (20 + 8 + payload_bytes);
  }
  if (delivered == 0) std::fprintf(stderr, "warning: nothing delivered\n");
  delete redirector;
  return result;
}

/// Streams `total_bytes` over TCP in 1024-byte writes — plain one-hop for
/// backups < 0, an ft-TCP chain through the redirector otherwise — and
/// counts wire segments per wall second: the TCP input path's in-order
/// deposit and the ftcp gates under bulk load.
ScenarioResult run_tcp_scenario(const std::string& name, int backups,
                                std::size_t total_bytes,
                                std::size_t trace_sample = 0) {
  ScenarioResult result;
  result.name = name;
  result.payload_bytes = 1024;
  result.trace_sample = trace_sample;

  testbed::TestbedConfig config;
  config.setup =
      backups < 0 ? testbed::Setup::clean : testbed::Setup::primary_backup;
  config.backups = backups < 0 ? 1 : backups;
  result.replicas = backups < 0 ? 0 : backups + 1;
  testbed::Testbed bed(config);

  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), config.service.address, config.service.port));
  }
  apps::TtcpTransmitter::Config tx;
  tx.server = config.service;
  tx.total_bytes = total_bytes;
  tx.write_size = 1024;
  apps::TtcpTransmitter transmitter(bed.client(), tx);

  // Tracing-overhead scenarios: turn the network's recorder on for the
  // run, exactly as `hydranet-sim --trace --trace-sample N` would.
  const trace2::Recorder* recorder = nullptr;
  if (trace_sample > 0 && trace2::kEnabled) {
    trace2::Recorder::Config trace_config;
    trace_config.sample_every = trace_sample;
    recorder = &bed.net().enable_tracing(trace_config);
  }

  reset_datapath_counters();
  const std::uint64_t heap_before = inline_function_heap_allocs();
  const std::uint64_t inserts_before = bed.net().scheduler().wheel_inserts();
  const auto wall_start = std::chrono::steady_clock::now();
  const sim::TimePoint sim_start = bed.net().now();

  (void)transmitter.start();
  while (!transmitter.report().finished && !transmitter.report().failed &&
         (bed.net().now() - sim_start) < sim::seconds(600)) {
    bed.net().run_for(sim::milliseconds(500));
  }
  const auto wall_end = std::chrono::steady_clock::now();

  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.sim_seconds = (bed.net().now() - sim_start).seconds();

  stats::Registry& registry = bed.stats();
  // "Packets" here means wire segments: everything any host put on a link.
  result.packets = static_cast<std::size_t>(registry.total("tcp.segments_out"));
  result.packets_per_wall_second =
      result.wall_seconds > 0
          ? static_cast<double>(result.packets) / result.wall_seconds
          : 0;
  const DatapathCounters& dp = datapath_counters();
  result.copies = dp.copies;
  result.copied_bytes = dp.copied_bytes;
  result.allocations = dp.allocations;
  result.cow_breaks = dp.cow_breaks;
  result.flattens = dp.flattens;
  result.pool_hits = dp.pool_hits;
  result.pool_misses = dp.pool_misses;
  result.scheduler_heap_fallbacks = inline_function_heap_allocs() - heap_before;
  result.wheel_inserts = bed.net().scheduler().wheel_inserts() - inserts_before;
  if (recorder != nullptr) result.spans_recorded = recorder->spans_recorded();
  if (!transmitter.report().finished) {
    std::fprintf(stderr, "warning: %s did not finish\n", name.c_str());
  }
  return result;
}

// ---- sharded-engine scaling sweep (--shards) ----------------------------

struct ShardResult {
  std::string name;
  std::size_t shards = 0;
  std::size_t pairs = 0;
  bool cross = false;  ///< pairs straddle a shard boundary
  std::size_t packets = 0;  ///< datagrams delivered, all pairs summed
  double wall_seconds = 0;
  double sim_seconds = 0;
  double packets_per_wall_second = 0;
  sim::ShardEngine::Counters engine;
};

/// One independent one-hop UDP flow; the send loop reschedules itself on
/// the client's own shard so the whole sweep is a single engine run.
struct ShardFlow {
  udp::UdpSocket* socket = nullptr;
  sim::Scheduler* clock = nullptr;
  net::Endpoint service;
  Bytes payload;
  std::size_t remaining = 0;
  sim::Duration gap{};
  std::size_t delivered = 0;  ///< written on the server's shard

  void tick() {
    (void)socket->send_to(service, payload);
    if (--remaining == 0) return;
    clock->schedule_at(clock->now() + gap, [this] { tick(); });
  }
};

/// `pairs` independent client->server pairs, each pair pinned to one
/// shard (cross == false) or split across two neighbouring shards
/// (cross == true).  The workload is identical at every shard count —
/// only the partitioning changes — so rates compose into a scaling
/// curve.
ShardResult run_shard_scenario(std::size_t shards, bool cross,
                               std::size_t pairs,
                               std::size_t packets_per_pair,
                               std::size_t payload_bytes) {
  ShardResult result;
  result.name = (cross ? "cross_shard_s" : "one_hop_s") +
                std::to_string(shards);
  result.shards = shards;
  result.pairs = pairs;
  result.cross = cross;

  host::Network net{42, shards};
  link::Link::Config link_config;
  link_config.bandwidth_bps = 10e9;  // serialization off the critical path
  std::vector<std::unique_ptr<ShardFlow>> flows;
  for (std::size_t i = 0; i < pairs; ++i) {
    const std::size_t client_shard = i % shards;
    const std::size_t server_shard = cross ? (i + 1) % shards : client_shard;
    host::Host& client =
        net.add_host("c" + std::to_string(i), client_shard);
    host::Host& server =
        net.add_host("s" + std::to_string(i), server_shard);
    auto subnet = static_cast<std::uint8_t>(i + 1);
    net.connect(client, net::Ipv4Address(10, subnet, 0, 2), server,
                net::Ipv4Address(10, subnet, 0, 1), 24, link_config);

    auto flow = std::make_unique<ShardFlow>();
    flow->service = {net::Ipv4Address(10, subnet, 0, 1), 80};
    auto sink = server.udp().bind(flow->service.address, 80).value();
    ShardFlow* raw = flow.get();
    sink->set_rx_handler([raw](const net::Endpoint&, CowBytes data) {
      if (!data.empty()) raw->delivered++;
    });
    flow->socket = client.udp().bind(net::Ipv4Address(), 0).value();
    flow->clock = &client.scheduler();
    flow->payload = Bytes(payload_bytes, 0xaa);
    flow->remaining = packets_per_pair;
    flow->gap = sim::microseconds(1);  // > 0.8us serialization: queues empty
    net.schedule_on(client, net.now() + sim::microseconds(1),
                    [raw] { raw->tick(); });
    flows.push_back(std::move(flow));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const sim::TimePoint sim_start = net.now();
  net.run();
  const auto wall_end = std::chrono::steady_clock::now();

  for (const auto& flow : flows) result.packets += flow->delivered;
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.sim_seconds = (net.now() - sim_start).seconds();
  result.packets_per_wall_second =
      result.wall_seconds > 0
          ? static_cast<double>(result.packets) / result.wall_seconds
          : 0;
  result.engine = net.engine().counters_total();
  if (result.packets < pairs * packets_per_pair) {
    std::fprintf(stderr, "warning: %s delivered %zu of %zu datagrams\n",
                 result.name.c_str(), result.packets,
                 pairs * packets_per_pair);
  }
  return result;
}

void write_shards_json(const std::vector<ShardResult>& results,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  std::fprintf(f, "{\n  \"benchmark\": \"bench_packet_rate\",\n");
  std::fprintf(f, "  \"mode\": \"shards\",\n");
  std::fprintf(
      f, "  \"unit\": \"aggregate simulated packets per wall-clock second\",\n");
  // The scaling gate is meaningless without the cores to scale onto;
  // bench_check.py --shards reads this to decide whether to enforce it.
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShardResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"shards\": %zu,\n", r.shards);
    std::fprintf(f, "      \"pairs\": %zu,\n", r.pairs);
    std::fprintf(f, "      \"cross_shard\": %s,\n", r.cross ? "true" : "false");
    std::fprintf(f, "      \"packets\": %zu,\n", r.packets);
    std::fprintf(f, "      \"wall_seconds\": %.6f,\n", r.wall_seconds);
    std::fprintf(f, "      \"sim_seconds\": %.6f,\n", r.sim_seconds);
    std::fprintf(f, "      \"packets_per_wall_second\": %.1f,\n",
                 r.packets_per_wall_second);
    std::fprintf(f, "      \"engine\": {\n");
    std::fprintf(f, "        \"events\": %llu,\n", u(r.engine.events));
    std::fprintf(f, "        \"epochs\": %llu,\n", u(r.engine.epochs));
    std::fprintf(f, "        \"mailbox_posted\": %llu,\n",
                 u(r.engine.mailbox_posted));
    std::fprintf(f, "        \"mailbox_drained\": %llu,\n",
                 u(r.engine.mailbox_drained));
    std::fprintf(f, "        \"mailbox_overflows\": %llu\n",
                 u(r.engine.mailbox_overflows));
    std::fprintf(f, "      }\n");
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int run_shard_sweep(const std::vector<std::size_t>& shard_counts,
                    std::size_t packets, const std::string& json_path) {
  // The fleet size is fixed across the sweep (workload identical, only
  // the partitioning changes) and divides every swept shard count.
  constexpr std::size_t kPairs = 8;
  const std::size_t per_pair = std::max<std::size_t>(1, packets / kPairs);
  std::vector<ShardResult> results;
  for (std::size_t shards : shard_counts) {
    results.push_back(
        run_shard_scenario(shards, /*cross=*/false, kPairs, per_pair, 1000));
    results.push_back(
        run_shard_scenario(shards, /*cross=*/true, kPairs, per_pair, 1000));
  }
  for (const ShardResult& r : results) {
    std::printf(
        "%-16s shards=%zu pairs=%zu packets=%zu wall=%.3fs rate=%.0f pkt/s "
        "epochs=%llu mailbox=%llu/%llu overflows=%llu\n",
        r.name.c_str(), r.shards, r.pairs, r.packets, r.wall_seconds,
        r.packets_per_wall_second,
        static_cast<unsigned long long>(r.engine.epochs),
        static_cast<unsigned long long>(r.engine.mailbox_posted),
        static_cast<unsigned long long>(r.engine.mailbox_drained),
        static_cast<unsigned long long>(r.engine.mailbox_overflows));
  }
  if (!json_path.empty()) write_shards_json(results, json_path);
  return 0;
}

void write_json(const std::vector<ScenarioResult>& results,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"bench_packet_rate\",\n");
  std::fprintf(f, "  \"unit\": \"simulated packets per wall-clock second\",\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"replicas\": %d,\n", r.replicas);
    std::fprintf(f, "      \"packets\": %zu,\n", r.packets);
    std::fprintf(f, "      \"payload_bytes\": %zu,\n", r.payload_bytes);
    std::fprintf(f, "      \"wall_seconds\": %.6f,\n", r.wall_seconds);
    std::fprintf(f, "      \"sim_seconds\": %.6f,\n", r.sim_seconds);
    std::fprintf(f, "      \"packets_per_wall_second\": %.1f,\n",
                 r.packets_per_wall_second);
    std::fprintf(f, "      \"datapath\": {\n");
    std::fprintf(f, "        \"copies\": %llu,\n",
                 static_cast<unsigned long long>(r.copies));
    std::fprintf(f, "        \"copied_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.copied_bytes));
    std::fprintf(f, "        \"allocations\": %llu,\n",
                 static_cast<unsigned long long>(r.allocations));
    std::fprintf(f, "        \"cow_breaks\": %llu,\n",
                 static_cast<unsigned long long>(r.cow_breaks));
    std::fprintf(f, "        \"flattens\": %llu,\n",
                 static_cast<unsigned long long>(r.flattens));
    std::fprintf(f, "        \"pool_hits\": %llu,\n",
                 static_cast<unsigned long long>(r.pool_hits));
    std::fprintf(f, "        \"pool_misses\": %llu,\n",
                 static_cast<unsigned long long>(r.pool_misses));
    std::fprintf(f, "        \"scheduler_heap_fallbacks\": %llu\n",
                 static_cast<unsigned long long>(r.scheduler_heap_fallbacks));
    std::fprintf(f, "      },\n");
    std::fprintf(f, "      \"scheduler\": {\n");
    std::fprintf(f, "        \"wheel_inserts\": %llu\n",
                 static_cast<unsigned long long>(r.wheel_inserts));
    std::fprintf(f, "      },\n");
    std::fprintf(f, "      \"trace\": {\n");
    std::fprintf(f, "        \"sample_every\": %zu,\n", r.trace_sample);
    std::fprintf(f, "        \"spans_recorded\": %llu\n",
                 static_cast<unsigned long long>(r.spans_recorded));
    std::fprintf(f, "      },\n");
    std::fprintf(f, "      \"redirector\": {\n");
    std::fprintf(f, "        \"redirected_datagrams\": %llu,\n",
                 static_cast<unsigned long long>(r.redirected));
    std::fprintf(f, "        \"copies_sent\": %llu,\n",
                 static_cast<unsigned long long>(r.copies_sent));
    std::fprintf(f, "        \"inner_serializations\": %llu,\n",
                 static_cast<unsigned long long>(r.inner_serializations));
    std::fprintf(f, "        \"naive_fanout_copy_bytes\": %llu\n",
                 static_cast<unsigned long long>(r.naive_fanout_copy_bytes));
    std::fprintf(f, "      }\n");
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t packets = 20000;
  std::string json_path;
  std::vector<std::size_t> shard_counts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--packets") == 0 && i + 1 < argc) {
      packets = static_cast<std::size_t>(std::stoull(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      // Comma-separated sweep list, e.g. --shards 1,2,4,8.
      std::string list = argv[++i];
      for (std::size_t pos = 0; pos < list.size();) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        shard_counts.push_back(static_cast<std::size_t>(
            std::stoull(list.substr(pos, comma - pos))));
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--packets N] [--json PATH] [--shards 1,2,4,8]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!shard_counts.empty()) {
    return run_shard_sweep(shard_counts, packets, json_path);
  }

  std::vector<ScenarioResult> results;
  results.push_back(run_scenario("one_hop_udp", -1, packets, 1000));
  results.push_back(run_scenario("scaled_redirect", 0, packets, 1000));
  results.push_back(run_scenario("ft_fanout_3_backups", 3, packets, 1000));
  // TCP scenarios scale with --packets too: ~one 1024-byte write each.
  results.push_back(run_tcp_scenario("tcp_bulk_one_hop", -1, packets * 1024));
  results.push_back(
      run_tcp_scenario("tcp_ft_chain_1_backup", 1, packets * 1024));
#if HYDRANET_TRACING
  // Tracer-overhead column: the same ft chain with the causal tracer
  // installed at sample=1 (every root) and sample=64 (1-in-64 roots).
  // Only built when the tracer is compiled in; tracing-OFF builds keep
  // the scenario list identical to the committed baseline.
  results.push_back(
      run_tcp_scenario("tcp_ft_chain_trace1", 1, packets * 1024, 1));
  results.push_back(
      run_tcp_scenario("tcp_ft_chain_trace64", 1, packets * 1024, 64));
#endif

  for (const ScenarioResult& r : results) {
    std::printf(
        "%-22s replicas=%d packets=%zu wall=%.3fs rate=%.0f pkt/s "
        "copied=%lluB (naive fan-out would copy %lluB) "
        "inner_serializations=%llu sched_heap=%llu "
        "wheel=%llu"
        "%s\n",
        r.name.c_str(), r.replicas, r.packets, r.wall_seconds,
        r.packets_per_wall_second,
        static_cast<unsigned long long>(r.copied_bytes),
        static_cast<unsigned long long>(r.naive_fanout_copy_bytes),
        static_cast<unsigned long long>(r.inner_serializations),
        static_cast<unsigned long long>(r.scheduler_heap_fallbacks),
        static_cast<unsigned long long>(r.wheel_inserts),
        r.trace_sample > 0
            ? (" trace_sample=" + std::to_string(r.trace_sample) + " spans=" +
               std::to_string(r.spans_recorded))
                  .c_str()
            : "");
  }
  if (!json_path.empty()) write_json(results, json_path);
  return 0;
}
