// Connection-scale benchmark: how many concurrent ESTABLISHED connections
// one simulated network (one thread) sustains, and what each idle
// connection costs.
//
// The ramp establishes 100k -> 500k -> 1M connections (capped by --packets)
// against a single server stack, spread over enough client hosts to stay
// inside each stack's ephemeral-port range.  At every level it reports:
//
//   - bytes per connection, measured from the server's slab arena
//     (bytes_reserved / live -- flat memory, no per-connection heap),
//     and next to it the server's demux state per connection: the
//     connection table's entry array and the per-slot page-tick
//     deadlines,
//   - pending scheduler events (the coalesced per-page timers make this
//     O(pages), not O(connections)),
//   - packets per wall second under a mixed load: every connection runs
//     keepalive off the shared page ticks while a sample of connections
//     pushes application data.
//
//   bench_connection_scale [--packets MAX_CONNS] [--json PATH]
//
// The flag is spelled --packets so tools/bench_check.py can drive this
// binary unchanged; the committed snapshot lives in BENCH_connscale.json.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/packet_buffer.hpp"
#include "common/slab.hpp"
#include "host/network.hpp"

namespace {

using namespace hydranet;

constexpr std::size_t kConnsPerClientHost = 25000;  // < ephemeral range
constexpr std::size_t kWave = 2048;                 // connects per burst
constexpr std::uint16_t kServicePort = 80;

struct ScaleResult {
  std::string name;
  std::size_t connections = 0;  ///< target level
  std::size_t accepted = 0;     ///< server-side established connections
  // Mixed idle/active measurement window.
  std::size_t packets = 0;  ///< TCP segments sent by any host in the window
  double wall_seconds = 0;
  double sim_seconds = 0;
  double packets_per_wall_second = 0;
  std::uint64_t keepalives = 0;  ///< probes sent inside the window
  // Ramp cost for this level's increment.
  double ramp_wall_seconds = 0;
  double conns_per_wall_second = 0;
  // Flat-memory accounting (server arena; client stacks mirror it).
  std::uint64_t arena_bytes = 0;
  std::uint64_t arena_live = 0;
  std::uint64_t arena_pages = 0;
  double bytes_per_conn = 0;
  double demux_bytes_per_conn = 0;     ///< connection table entries
  double deadline_bytes_per_conn = 0;  ///< page-tick deadline array
  // Process-wide slab + scheduler telemetry at the level.
  std::uint64_t slab_pages = 0;
  std::uint64_t slab_live = 0;
  std::uint64_t slab_allocated = 0;
  std::uint64_t slab_recycled = 0;
  std::uint64_t slab_bytes = 0;
  std::uint64_t pending_events = 0;
};

struct Fixture {
  host::Network net;
  host::Host* server = nullptr;
  std::vector<host::Host*> clients;
  std::vector<std::shared_ptr<tcp::TcpConnection>> client_conns;
  std::vector<std::shared_ptr<tcp::TcpConnection>> server_conns;
  std::size_t accepted = 0;
  net::Endpoint service{net::Ipv4Address(192, 20, 225, 20), kServicePort};
  tcp::TcpOptions options;

  explicit Fixture(std::size_t max_conns, std::size_t shards = 1)
      : net(42, shards) {
    // Every idle connection keeps keepalive running off the shared page
    // ticks; RTOs ride them too.  A short interval makes the idle cost
    // visible inside the measurement windows.
    options.keepalive_interval = sim::seconds(5);
    options.coalesce_timers = true;

    // The server stack is the convergence point; pin it to shard 0 and
    // spread the client hosts round-robin so every other shard carries a
    // slice of the connection fleet.
    server = &net.add_host("server", 0);
    server->v_host(service.address);

    const std::size_t hosts =
        (max_conns + kConnsPerClientHost - 1) / kConnsPerClientHost;
    link::Link::Config config;
    config.bandwidth_bps = 10e9;  // keep serialization off the critical path
    config.queue_capacity_packets = 4096;
    config.batch_frames = 8;  // rx bursts amortise the dispatch
    for (std::size_t i = 0; i < hosts; ++i) {
      host::Host& client = net.add_host("c" + std::to_string(i), i % shards);
      auto subnet = static_cast<std::uint8_t>(i + 1);
      net.connect(client, net::Ipv4Address(10, subnet, 0, 2), *server,
                  net::Ipv4Address(10, subnet, 0, 1), 24, config);
      client.ip().add_default_route(net::Ipv4Address(10, subnet, 0, 1),
                                    nullptr);
      clients.push_back(&client);
    }

    auto listener = server->tcp().listen(
        net::Ipv4Address(), kServicePort,
        [this](std::shared_ptr<tcp::TcpConnection> conn) {
          tcp::TcpConnection* raw = conn.get();
          raw->set_on_readable([raw] {
            for (;;) {
              auto data = raw->recv(64 * 1024);
              if (!data || data.value().empty()) return;
            }
          });
          server_conns.push_back(std::move(conn));
          accepted++;
        },
        options);
    if (!listener.ok()) std::abort();
  }

  /// Establishes connections until `target` are accepted, in paced waves so
  /// SYN bursts never outrun the link queues.
  bool ramp_to(std::size_t target) {
    std::size_t issued = client_conns.size();
    const sim::TimePoint deadline = net.now() + sim::seconds(600);
    while (accepted < target && net.now() < deadline) {
      std::size_t wave = 0;
      while (issued < target && wave < kWave) {
        host::Host& client = *clients[issued / kConnsPerClientHost];
        auto conn =
            client.tcp().connect(net::Ipv4Address(), service, options);
        if (!conn.ok()) return false;
        client_conns.push_back(conn.value());
        issued++;
        wave++;
      }
      net.run_for(sim::milliseconds(5));
    }
    return accepted >= target;
  }

  std::uint64_t total_segments_sent() const {
    std::uint64_t total =
        server->tcp().aggregate_stats().segments_sent;
    for (host::Host* client : clients) {
      total += client->tcp().aggregate_stats().segments_sent;
    }
    return total;
  }

  std::uint64_t total_keepalives() const {
    std::uint64_t total =
        server->tcp().aggregate_stats().keepalives_sent;
    for (host::Host* client : clients) {
      total += client->tcp().aggregate_stats().keepalives_sent;
    }
    return total;
  }
};

ScaleResult measure_level(Fixture& bed, std::size_t level) {
  ScaleResult result;
  result.connections = level;
  if (level >= 1000000 && level % 1000000 == 0) {
    result.name = "conns_" + std::to_string(level / 1000000) + "m";
  } else if (level >= 1000 && level % 1000 == 0) {
    result.name = "conns_" + std::to_string(level / 1000) + "k";
  } else {
    result.name = "conns_" + std::to_string(level);
  }

  const auto ramp_start = std::chrono::steady_clock::now();
  const std::size_t before = bed.accepted;
  if (!bed.ramp_to(level)) {
    std::fprintf(stderr, "error: ramp to %zu stalled at %zu\n", level,
                 bed.accepted);
    return result;
  }
  const auto ramp_end = std::chrono::steady_clock::now();
  result.ramp_wall_seconds =
      std::chrono::duration<double>(ramp_end - ramp_start).count();
  result.conns_per_wall_second =
      result.ramp_wall_seconds > 0
          ? static_cast<double>(bed.accepted - before) / result.ramp_wall_seconds
          : 0;
  result.accepted = bed.accepted;

  // Flat-memory accounting straight from the server's arena.
  const auto& arena = bed.server->tcp().arena();
  result.arena_bytes = arena.bytes_reserved();
  result.arena_live = arena.live();
  result.arena_pages = arena.page_count();
  auto per_conn = [&result](std::size_t bytes) {
    return result.arena_live > 0 ? static_cast<double>(bytes) /
                                       static_cast<double>(result.arena_live)
                                 : 0;
  };
  result.bytes_per_conn = per_conn(result.arena_bytes);
  result.demux_bytes_per_conn =
      per_conn(bed.server->tcp().demux_table_bytes());
  result.deadline_bytes_per_conn = per_conn(bed.server->tcp().deadline_bytes());
  // Whole fleet: every shard's slab block and pending set (the engine is
  // quiescent between runs).
  const SlabCounters slab = slab_totals();
  result.slab_pages = slab.pages;
  result.slab_live = slab.live;
  result.slab_allocated = slab.allocated;
  result.slab_recycled = slab.recycled;
  result.slab_bytes = slab.bytes;
  for (std::size_t s = 0; s < bed.net.shards(); ++s) {
    result.pending_events += bed.net.engine().scheduler(s).pending();
  }

  // Mixed load: a sample of connections pushes 1 KiB of application data
  // while every established connection keeps its keepalive cadence going
  // (interval 5 s, so a 6 s window sees every idle connection probe).
  const std::size_t active =
      std::min<std::size_t>(10000, std::max<std::size_t>(1, level / 10));
  const std::size_t stride = std::max<std::size_t>(1, level / active);
  const Bytes payload(1024, 0x5a);
  const std::uint64_t segments_before = bed.total_segments_sent();
  const std::uint64_t keepalives_before = bed.total_keepalives();
  const auto wall_start = std::chrono::steady_clock::now();
  const sim::TimePoint sim_start = bed.net.now();
  for (std::size_t i = 0; i < bed.client_conns.size(); i += stride) {
    (void)bed.client_conns[i]->send(BytesView(payload));
  }
  bed.net.run_for(sim::seconds(6));
  const auto wall_end = std::chrono::steady_clock::now();

  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.sim_seconds = (bed.net.now() - sim_start).seconds();
  result.packets =
      static_cast<std::size_t>(bed.total_segments_sent() - segments_before);
  result.keepalives = bed.total_keepalives() - keepalives_before;
  result.packets_per_wall_second =
      result.wall_seconds > 0
          ? static_cast<double>(result.packets) / result.wall_seconds
          : 0;
  return result;
}

void write_json(const std::vector<ScaleResult>& results,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  std::fprintf(f, "{\n  \"benchmark\": \"bench_connection_scale\",\n");
  std::fprintf(f, "  \"unit\": \"simulated packets per wall-clock second\",\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"packets\": %zu,\n", r.packets);
    std::fprintf(f, "      \"wall_seconds\": %.6f,\n", r.wall_seconds);
    std::fprintf(f, "      \"sim_seconds\": %.6f,\n", r.sim_seconds);
    std::fprintf(f, "      \"packets_per_wall_second\": %.1f,\n",
                 r.packets_per_wall_second);
    std::fprintf(f, "      \"scale\": {\n");
    std::fprintf(f, "        \"connections\": %zu,\n", r.connections);
    std::fprintf(f, "        \"accepted\": %zu,\n", r.accepted);
    std::fprintf(f, "        \"bytes_per_conn\": %.1f,\n", r.bytes_per_conn);
    std::fprintf(f, "        \"demux_bytes_per_conn\": %.1f,\n",
                 r.demux_bytes_per_conn);
    std::fprintf(f, "        \"deadline_bytes_per_conn\": %.1f,\n",
                 r.deadline_bytes_per_conn);
    std::fprintf(f, "        \"arena_bytes\": %llu,\n", u(r.arena_bytes));
    std::fprintf(f, "        \"arena_live\": %llu,\n", u(r.arena_live));
    std::fprintf(f, "        \"arena_pages\": %llu,\n", u(r.arena_pages));
    std::fprintf(f, "        \"pending_events\": %llu,\n",
                 u(r.pending_events));
    std::fprintf(f, "        \"keepalives_in_window\": %llu,\n",
                 u(r.keepalives));
    std::fprintf(f, "        \"ramp_wall_seconds\": %.3f,\n",
                 r.ramp_wall_seconds);
    std::fprintf(f, "        \"conns_per_wall_second\": %.1f\n",
                 r.conns_per_wall_second);
    std::fprintf(f, "      },\n");
    std::fprintf(f, "      \"slab\": {\n");
    std::fprintf(f, "        \"pages\": %llu,\n", u(r.slab_pages));
    std::fprintf(f, "        \"live\": %llu,\n", u(r.slab_live));
    std::fprintf(f, "        \"allocated\": %llu,\n", u(r.slab_allocated));
    std::fprintf(f, "        \"recycled\": %llu,\n", u(r.slab_recycled));
    std::fprintf(f, "        \"bytes\": %llu\n", u(r.slab_bytes));
    std::fprintf(f, "      }\n");
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_conns = 1000000;
  std::size_t shards = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if ((std::strcmp(argv[i], "--packets") == 0 ||
         std::strcmp(argv[i], "--conns") == 0) &&
        i + 1 < argc) {
      max_conns = static_cast<std::size_t>(std::stoull(argv[++i]));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::stoull(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--packets MAX_CONNS] [--shards N] "
                   "[--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<std::size_t> levels;
  for (std::size_t level : {100000u, 500000u, 1000000u}) {
    if (level <= max_conns) levels.push_back(level);
  }
  if (levels.empty()) levels.push_back(max_conns);

  Fixture bed(levels.back(), shards);
  std::vector<ScaleResult> results;
  for (std::size_t level : levels) {
    results.push_back(measure_level(bed, level));
    const ScaleResult& r = results.back();
    std::printf(
        "%-12s accepted=%zu bytes/conn=%.0f (+demux %.0f, deadlines %.0f) "
        "arena=%lluMB pages=%llu pending=%llu ramp=%.1fs (%.0f conn/s) "
        "mixed=%.0f pkt/s keepalives=%llu\n",
        r.name.c_str(), r.accepted, r.bytes_per_conn, r.demux_bytes_per_conn,
        r.deadline_bytes_per_conn,
        static_cast<unsigned long long>(r.arena_bytes >> 20),
        static_cast<unsigned long long>(r.arena_pages),
        static_cast<unsigned long long>(r.pending_events),
        r.ramp_wall_seconds, r.conns_per_wall_second,
        r.packets_per_wall_second,
        static_cast<unsigned long long>(r.keepalives));
    if (r.accepted < r.connections) return 1;
  }
  if (!json_path.empty()) write_json(results, json_path);
  return 0;
}
