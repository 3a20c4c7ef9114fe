// hnbench: runs one benchmark workload and prints its metrics.
//
//   hnbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Flow of one run:
//   1. Reference fixture on kReferenceSeed: warm-up plus the fingerprint
//      prefix, with the replicas digesting every byte (untimed).  Prints
//      the "fingerprint" line, then probes the CPUs (cpu_pin.hpp).
//   2. setup_reps() - 1 timed set-ups on --seed (build + warm-up); setup_s
//      is their median.  The last one is kept.
//   3. Closed loop of operations for --seconds of wall time, each timed,
//      in kWindows windows; the end-to-end figures come from the fastest
//      tenth of them.  With --trace 1 every other window records
//      spans (until the span buffer is full), and the output is the
//      per-layer metrics instead of the end-to-end ones.
//   4. finish(): drain work in flight and check it.
// The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cpu_pin.hpp"
#include "spans.hpp"
#include "stats/metrics.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Counters;
using perfbench::Kind;
using perfbench::now_ns;
using perfbench::percentile;

constexpr std::uint64_t kReferenceSeed = 1;
constexpr std::size_t kSpanCapacity = 2'000'000;  // 48 MB of records

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Upper bound of the bucket holding quantile q of a bucketed histogram
/// (the last entry is the overflow bucket, reported as its lower bound).
double bucket_quantile(const std::vector<std::uint64_t>& counts,
                       const std::vector<double>& bounds, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0;
  const double want = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= want) {
      return bounds[std::min(i, bounds.size() - 1)];
    }
  }
  return bounds.back();
}

/// The closed loop is cut into kWindows equal slices of wall time, and the
/// thread leaves a CPU whose window ran slow (cpu_pin.hpp).  On a shared
/// virtual machine a CPU can run at half speed for seconds while a
/// neighbour competes for it, so the end-to-end figures come from the
/// fastest tenth of the windows (lowest mean time per operation): the rate
/// is their operations over their wall time, the percentiles are over their
/// pooled operation times.
constexpr std::size_t kWindows = 40;
constexpr std::size_t kExploreWindows = 4;
constexpr std::size_t kMaxSamples = 6 << 20;  // operation times kept

struct Window {
  std::size_t first = 0;    ///< index of its first sample
  std::size_t samples = 0;  ///< operation times kept
  double ops = 0;
  double wall_s = 0;
  double ns_sum = 0;

  double mean_ns() const { return ratio(ns_sum, ops); }
};

using Windows = std::vector<Window>;

double mean_op_ns(const Windows& windows) {
  double ops = 0;
  double ns = 0;
  for (const Window& w : windows) {
    ops += w.ops;
    ns += w.ns_sum;
  }
  return ratio(ns, ops);
}

/// One measured closed loop.  With a tracer, windows alternate between
/// untraced and traced (until the span buffer is full), so the tracing
/// overhead compares windows run under the same machine conditions.
struct Measurement {
  Windows plain;
  Windows traced;
  std::vector<float> samples;  ///< operation times (ns), window after window
  double ops = 0;
  double wall_s = 0;
  double cpu_s = 0;
  Counters before;
  Counters after;
  std::uint64_t pending_peak = 0;
};

Measurement measure(perfbench::Workload& wl, double seconds,
                    perfbench::Tracer* tracer, perfbench::CpuPin& pin) {
  Measurement m;
  // Allocated and touched up front, so memory does not depend on the
  // operation count.
  m.samples.assign(kMaxSamples, 0.0f);
  std::size_t kept = 0;
  wl.read(m.before);
  std::size_t per_op_records = 16;
  bool tracing = false;
  const double cpu0 = cpu_seconds();
  const std::uint64_t start = now_ns();
  const auto limit = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t window_len = limit / kWindows;
  std::uint64_t window_start = start;
  Window w;
  std::uint32_t op_id = 0;
  pin.reset();
  for (bool last = false; !last;) {
    const std::size_t records_before =
        tracing ? tracer->records().size() : 0;
    if (tracing) tracer->set_op(++op_id);
    const std::uint64_t t0 = now_ns();
    wl.op();
    const std::uint64_t t1 = now_ns();
    const auto ns = static_cast<double>(t1 - t0);
    if (kept < m.samples.size()) m.samples[kept++] = static_cast<float>(ns);
    w.ops++;
    w.ns_sum += ns;
    bool full = false;
    if (tracing) {
      tracer->span(Kind::op, t0, t1);
      per_op_records = std::max(per_op_records,
                                tracer->records().size() - records_before);
      full = !tracer->has_room(2 * per_op_records);
    }
    if (tracer != nullptr) {
      m.pending_peak = std::max(m.pending_peak, wl.pending());
    }
    last = t1 - start >= limit;
    if (last || full || t1 - window_start >= window_len) {
      w.wall_s = static_cast<double>(t1 - window_start) / 1e9;
      w.samples = kept - w.first;
      (tracing ? m.traced : m.plain).push_back(w);
      m.ops += w.ops;
      // Untraced runs stay on a CPU while its windows are fast, but try
      // another every kExploreWindows windows in case the best so far was
      // itself slow; traced runs move after each traced window, so every
      // CPU runs pairs of untraced and traced windows (their means are not
      // comparable).
      const std::size_t done = m.plain.size() + m.traced.size();
      if (tracer == nullptr && done % kExploreWindows != 0) {
        pin.observe(w.mean_ns());
      } else if (tracer == nullptr || tracing) {
        pin.next();
      }
      tracing = tracer != nullptr && !tracing &&
                tracer->has_room(4 * per_op_records);
      perfbench::g_tracer = tracing ? tracer : nullptr;
      w = Window{};
      w.first = kept;
      window_start = now_ns();
    }
  }
  m.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  m.cpu_s = cpu_seconds() - cpu0;
  perfbench::g_tracer = nullptr;
  if (tracer != nullptr) tracer->set_op(0);
  wl.read(m.after);
  return m;
}

/// The fastest tenth of `windows` by mean operation time.
Windows fastest(Windows windows) {
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) {
              return a.mean_ns() < b.mean_ns();
            });
  windows.resize(std::min(windows.size(), (windows.size() + 9) / 10));
  return windows;
}

/// Operation times pooled over the fastest windows of `windows`, and
/// their operations and wall time.
struct FastPool {
  std::vector<double> op_ns;
  double ops = 0;
  double wall_s = 0;
};

FastPool fast_pool(const Measurement& m, const Windows& windows) {
  FastPool pool;
  for (const Window& w : fastest(windows)) {
    pool.ops += w.ops;
    pool.wall_s += w.wall_s;
    pool.op_ns.insert(
        pool.op_ns.end(), m.samples.begin() + static_cast<long>(w.first),
        m.samples.begin() + static_cast<long>(w.first + w.samples));
  }
  return pool;
}

Metrics end_to_end(const Measurement& m, const std::vector<double>& setup_s) {
  Metrics out;
  // Read before the pooled samples below are allocated.
  out["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  out["setup_s"] = {median(setup_s), "s"};
  const FastPool pool = fast_pool(m, m.plain);
  // Frames per operation over the whole loop turns the operation rate into
  // a frame rate.
  const double frames_per_op =
      ratio(static_cast<double>(m.after.frames - m.before.frames), m.ops);
  out["sim_pkts_per_s"] = {frames_per_op * ratio(pool.ops, pool.wall_s),
                           "frames/s"};
  out["op_us_p50"] = {percentile(pool.op_ns, 0.5) / 1e3, "us"};
  return out;
}

/// Per-layer metrics: counter ratios over the whole loop, span statistics
/// over the traced windows.
Metrics per_layer(const Measurement& m, const perfbench::Analysis& a) {
  const Counters& b = m.before;
  const Counters& e = m.after;
  auto d = [](std::uint64_t before, std::uint64_t after) {
    return static_cast<double>(after - before);
  };
  const double ops = m.ops;
  const double frames = d(b.frames, e.frames);
  const double segments = d(b.tcp_segments, e.tcp_segments);
  const double events = d(b.events, e.events);
  auto p50 = [](const std::map<std::string, std::vector<double>>& m,
                const char* key) {
    auto it = m.find(key);
    return it == m.end() ? 0.0 : percentile(it->second, 0.5);
  };
  auto sum = [](const std::map<std::string, std::vector<double>>& m,
                const char* key) {
    double total = 0;
    auto it = m.find(key);
    if (it != m.end()) {
      for (double v : it->second) total += v;
    }
    return total;
  };
  auto self = [&](const char* layer) {
    auto it = a.self_ns.find(layer);
    return it == a.self_ns.end() ? 0.0
                                 : ratio(it->second, static_cast<double>(a.ops));
  };

  Metrics out;
  // common
  out["common.copied_bytes_per_payload_byte"] = {
      ratio(d(b.copied_bytes, e.copied_bytes),
            d(b.payload_bytes, e.payload_bytes)),
      "B/B"};
  out["common.allocs_per_op"] = {ratio(d(b.allocations, e.allocations), ops),
                                 "1/op"};
  out["common.cow_breaks"] = {d(b.cow_breaks, e.cow_breaks), "count"};
  out["common.heap_fallbacks"] = {d(b.heap_fallbacks, e.heap_fallbacks),
                                  "count"};
  const double hits = d(b.pool_hits, e.pool_hits);
  out["common.pool_hit_rate"] = {
      ratio(hits, hits + d(b.pool_misses, e.pool_misses)), "fraction"};
  out["common.slab_bytes_per_conn"] = {
      ratio(static_cast<double>(e.slab_bytes), static_cast<double>(e.slab_live)),
      "B"};
  // sim (scheduler)
  out["sim.events_per_op"] = {ratio(events, ops), "1/op"};
  // sim.run time per traced operation over events per operation (events
  // are counted over every window, spans only over the traced ones).
  out["sim.ns_per_event"] = {
      ratio(ratio(sum(a.durations, "sim.run"), static_cast<double>(a.ops)),
            ratio(events, ops)),
      "ns"};
  out["sim.run_ns_p50"] = {p50(a.durations, "sim.run"), "ns"};
  out["sim.wheel_inserts_per_kevent"] = {
      1e3 * ratio(d(b.wheel_inserts, e.wheel_inserts), events), "1/kevent"};
  out["sim.wheel_cascades_per_kevent"] = {
      1e3 * ratio(d(b.wheel_cascades, e.wheel_cascades), events), "1/kevent"};
  out["sim.pending_peak"] = {static_cast<double>(m.pending_peak), "count"};
  // sim (shard engine)
  out["sim.epochs_per_kpkt"] = {1e3 * ratio(d(b.epochs, e.epochs), frames),
                                "1/kpkt"};
  out["sim.mailbox_posted_per_kpkt"] = {
      1e3 * ratio(d(b.mailbox_posted, e.mailbox_posted), frames), "1/kpkt"};
  out["sim.mailbox_overflows"] = {d(b.mailbox_overflows, e.mailbox_overflows),
                                  "count"};
  out["sim.cpu_s_per_wall_s"] = {ratio(m.cpu_s, m.wall_s), "s/s"};
  // link
  out["link.frames_per_op"] = {ratio(frames, ops), "1/op"};
  out["link.queue_drops"] = {d(b.queue_drops, e.queue_drops), "count"};
  out["link.loss_drops"] = {d(b.loss_drops, e.loss_drops), "count"};
  std::vector<std::uint64_t> depth(e.queue_depth.size());
  for (std::size_t i = 0; i < depth.size(); ++i) {
    depth[i] = e.queue_depth[i] -
               (i < b.queue_depth.size() ? b.queue_depth[i] : 0);
  }
  out["link.queue_depth_p99"] = {
      bucket_quantile(depth, hydranet::stats::queue_depth_buckets(), 0.99),
      "frames"};
  out["link.hop_ns_p50"] = {p50(a.intervals, "hop"), "ns"};
  out["link.frames_per_burst"] = {
      ratio(d(b.batch_frames, e.batch_frames), d(b.batch_bursts, e.batch_bursts)),
      "frames"};
  // ip / net
  out["ip.forwarded_per_op"] = {ratio(d(b.ip_forwarded, e.ip_forwarded), ops),
                                "1/op"};
  out["ip.fragments"] = {d(b.ip_fragments, e.ip_fragments), "count"};
  out["ip.parse_drops"] = {d(b.ip_parse_drops, e.ip_parse_drops), "count"};
  // udp
  out["udp.send_to_ns_p50"] = {p50(a.durations, "udp.send_to"), "ns"};
  out["udp.deliver_ns_p50"] = {p50(a.intervals, "deliver"), "ns"};
  // redirector
  const double redirected = d(b.redirected, e.redirected);
  out["redirector.copies_per_datagram"] = {
      ratio(d(b.redirector_copies, e.redirector_copies), redirected), "1/dgram"};
  out["redirector.inner_serializations_per_datagram"] = {
      ratio(d(b.inner_serializations, e.inner_serializations), redirected),
      "1/dgram"};
  out["redirector.fanout_ns_p50"] = {p50(a.intervals, "fanout"), "ns"};
  // tcp
  out["tcp.segments_per_op"] = {ratio(segments, ops), "1/op"};
  const double fast = d(b.fastpath_hits, e.fastpath_hits);
  out["tcp.fastpath_hit_rate"] = {
      ratio(fast, fast + d(b.fastpath_misses, e.fastpath_misses)), "fraction"};
  out["tcp.retransmits"] = {d(b.retransmits, e.retransmits), "count"};
  out["tcp.dup_acks"] = {d(b.dup_acks, e.dup_acks), "count"};
  out["tcp.send_ns_p50"] = {p50(a.durations, "tcp.send"), "ns"};
  out["tcp.recv_ns_p50"] = {p50(a.durations, "tcp.recv"), "ns"};
  out["tcp.connect_ns_p50"] = {
      a.durations.count("tcp.connect") != 0 ? p50(a.durations, "tcp.connect")
                                            : p50(a.setup_durations, "tcp.connect"),
      "ns"};
  out["tcp.keepalives_per_conn"] = {
      ratio(d(b.keepalives, e.keepalives), static_cast<double>(e.connections)),
      "1/conn"};
  // ftcp
  out["ftcp.gate_cached_checks_per_kseg"] = {
      1e3 * ratio(d(b.gate_cached_checks, e.gate_cached_checks), segments),
      "1/kseg"};
  out["ftcp.deposit_gate_stalls_per_op"] = {
      ratio(d(b.deposit_stalls, e.deposit_stalls), ops), "1/op"};
  out["ftcp.send_gate_stalls_per_op"] = {
      ratio(d(b.send_stalls, e.send_stalls), ops), "1/op"};
  out["ftcp.ack_channel_msgs_per_kseg"] = {
      1e3 * ratio(d(b.ack_channel_sent, e.ack_channel_sent), segments),
      "1/kseg"};
  out["ftcp.ack_channel_lost"] = {e.ack_channel_lost, "count"};
  out["ftcp.failure_signals"] = {d(b.failure_signals, e.failure_signals),
                                 "count"};
  // mgmt / testbed
  out["mgmt.replicas_eliminated"] = {static_cast<double>(e.replicas_eliminated),
                                     "count"};
  out["testbed.build_s"] = {p50(a.setup_durations, "testbed.build") / 1e9, "s"};
  // self times (ns per traced operation) and what no span covers
  out["self.udp.send_to_ns_per_op"] = {self("udp.send_to"), "ns"};
  out["self.sim.run_ns_per_op"] = {self("sim.run"), "ns"};
  out["self.redirector.fanout_ns_per_op"] = {self("redirector.fanout"), "ns"};
  out["self.udp.deliver_ns_per_op"] = {self("udp.deliver"), "ns"};
  out["self.tcp.send_ns_per_op"] = {self("tcp.send"), "ns"};
  out["self.tcp.recv_ns_per_op"] = {self("tcp.recv"), "ns"};
  out["self.tcp.connect_ns_per_op"] = {self("tcp.connect"), "ns"};
  out["trace.uncovered_ns_per_op"] = {self("op"), "ns"};
  out["trace.op_ns_mean"] = {a.op_ns_mean, "ns"};
  // The operation-time tail of the untraced windows, estimated like the
  // end-to-end figures; too unsteady on a shared machine to gate.
  const FastPool pool = fast_pool(m, m.plain);
  out["op.us_p50"] = {percentile(pool.op_ns, 0.5) / 1e3, "us"};
  out["op.us_p90"] = {percentile(pool.op_ns, 0.9) / 1e3, "us"};
  out["trace.ops"] = {static_cast<double>(a.ops), "count"};
  out["trace.overhead_pct"] = {
      100.0 * (ratio(mean_op_ns(m.traced), mean_op_ns(m.plain)) - 1.0),
      "%"};
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0) return usage(argv[0]);
  std::unique_ptr<perfbench::Workload> wl = perfbench::make_workload(name);
  if (wl == nullptr || seconds <= 0) return usage(argv[0]);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto tally = [&] {
    attempted += wl->attempted;
    failed += wl->failed;
    wl->attempted = 0;
    wl->failed = 0;
  };

  // 1. Reference prefix and fingerprint; the same fixture then probes
  //    which CPU runs fastest right now.
  perfbench::CpuPin pin;
  wl->build(kReferenceSeed, /*digest=*/true);
  for (std::size_t i = 0; i < wl->fingerprint_ops(); ++i) wl->op();
  std::printf("fingerprint {\"workload\": \"%s\", \"seed\": %llu, "
              "\"ops\": %zu, \"simulated\": %s}\n",
              wl->name(), static_cast<unsigned long long>(kReferenceSeed),
              wl->fingerprint_ops(), wl->fingerprint().c_str());
  pin.settle([&] {
    for (std::size_t i = 0; i < std::max<std::size_t>(1, wl->warmup_ops() / 4);
         ++i) {
      wl->op();
    }
  });
  wl->finish();
  wl->destroy();
  tally();

  // 2. Timed set-ups on the run's seed; spans cover construction only.
  std::unique_ptr<perfbench::Tracer> tracer;
  if (trace) tracer = std::make_unique<perfbench::Tracer>(kSpanCapacity);
  std::vector<double> setup_s;
  for (std::size_t rep = 1; rep < wl->setup_reps(); ++rep) {
    if (rep > 1) {
      wl->finish();
      wl->destroy();
      tally();
    }
    const std::uint64_t t0 = now_ns();
    perfbench::g_tracer = tracer.get();
    wl->build(seed, /*digest=*/false);
    perfbench::g_tracer = nullptr;
    for (std::size_t i = 0; i < wl->warmup_ops(); ++i) wl->op();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    pin.observe(setup_s.back());
  }

  // 3. The measured closed loop.
  Metrics metrics;
  const Measurement loop = measure(*wl, seconds, tracer.get(), pin);
  if (!trace) {
    metrics = end_to_end(loop, setup_s);
    std::printf("window mean op us:");
    for (const Window& w : loop.plain) {
      std::printf(" %.3f", w.mean_ns() / 1e3);
    }
    std::printf("\ncpu hops: %u\n", pin.hops());
  } else {
    const perfbench::Analysis analysis = perfbench::analyze(tracer->records());
    metrics = per_layer(loop, analysis);
    // The partition check: self times plus uncovered time sum to the
    // traced operation time.
    double covered = 0;
    for (const auto& [layer, ns] : analysis.self_ns) covered += ns;
    std::printf("trace: %zu ops, self times sum to %.1f ns/op against "
                "%.1f ns/op traced\n",
                analysis.ops, ratio(covered, static_cast<double>(analysis.ops)),
                analysis.op_ns_mean);
    if (!spans_path.empty() && !tracer->write(spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    }
  }

  // 4. Drain and check what is still in flight.
  wl->finish();
  tally();
  const Counters last = [&] {
    Counters c;
    wl->read(c);
    return c;
  }();
  wl->destroy();
  if (last.replicas_eliminated != 0) failed++;

  std::printf("error_rate %.6g fraction (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const auto& [metric, m] : metrics) {
    std::printf("%-48s %.6g %s\n", metric.c_str(), m.value, m.unit);
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}
