// Ablation for §4.3's failure-detection trade-off: "Setting the detection
// threshold in number of re-transmissions before action is taken is a
// trade-off between detection latency and chance of false positives."
//
// Part 1 sweeps the retransmission threshold and measures, after a primary
// crash mid-stream: detection latency (crash -> failure report), fail-over
// latency (crash -> client's stream resumes), and the client-visible stall.
//
// Part 2 runs healthy chains over a lossy client link and counts spurious
// eliminations (false positives) per threshold.
#include "common/logging.hpp"
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "net/tcp_header.hpp"
#include "stats/timeline.hpp"
#include "trace2/export.hpp"

namespace {

using namespace hydranet;
using testbed::Setup;
using testbed::Testbed;
using testbed::TestbedConfig;

struct FailoverResult {
  double detection_ms = -1;  ///< crash -> first elimination at the redirector
  double report_ms = -1;     ///< crash -> failure report reaches redirector
  double promote_ms = -1;    ///< crash -> backup promoted to primary
  double resume_ms = -1;     ///< crash -> client acks pass the crash frontier
  double stall_ms = 0;       ///< longest client-visible progress gap
  bool completed = false;
};

FailoverResult measure_failover(int threshold) {
  TestbedConfig config;
  config.setup = Setup::primary_backup;
  config.backups = 1;
  config.detector.retransmission_threshold = threshold;
  Testbed bed(config);

  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), config.service.address, config.service.port));
  }
  apps::TtcpTransmitter::Config tx;
  tx.server = config.service;
  tx.total_bytes = 16 * 1024 * 1024;
  tx.write_size = 1024;
  apps::TtcpTransmitter transmitter(bed.client(), tx);
  if (!transmitter.start().ok()) return {};

  bed.net().run_for(sim::seconds(2));
  auto connection = transmitter.connection();
  sim::TimePoint crash_at = bed.net().now();
  bed.crash_server(0);

  FailoverResult result;
  std::uint64_t eliminations_before =
      bed.redirector_agent().stats().replicas_eliminated;
  std::uint32_t una_at_crash = connection->snd_una_wire();
  std::uint32_t frontier = connection->snd_nxt_wire();
  bool resumed = false;
  std::uint32_t last_una = una_at_crash;
  sim::TimePoint last_progress = bed.net().now();
  for (int step = 0; step < 30000; ++step) {
    bed.net().run_for(sim::milliseconds(10));
    if (result.detection_ms < 0 &&
        bed.redirector_agent().stats().replicas_eliminated >
            eliminations_before) {
      result.detection_ms = (bed.net().now() - crash_at).millis();
    }
    std::uint32_t una = connection->snd_una_wire();
    if (!resumed && net::seq::geq(una, frontier) &&
        net::seq::gt(una, una_at_crash)) {
      resumed = true;
      bed.client().record_event(stats::event::kStreamResumed,
                                "acks passed crash-time frontier");
    }
    if (una != last_una) {
      last_una = una;
      last_progress = bed.net().now();
    } else {
      double gap = (bed.net().now() - last_progress).millis();
      if (gap > result.stall_ms) result.stall_ms = gap;
    }
    if (transmitter.report().finished) {
      result.completed = true;
      break;
    }
    if (transmitter.report().failed) break;
  }
  std::vector<trace2::FailoverBreakdown> breakdowns =
      trace2::postmortem(nullptr, bed.stats().timeline());
  if (breakdowns.empty()) return result;
  const trace2::FailoverBreakdown& phases = breakdowns.front();
  result.report_ms = phases.report_received_ms;
  result.promote_ms = phases.promote_ms;
  result.resume_ms = phases.resume_ms;
  // The timeline's elimination timestamp is exact; the polled one has
  // 10 ms granularity.  Prefer the exact value when present.
  if (phases.eliminate_ms >= 0) result.detection_ms = phases.eliminate_ms;
  return result;
}

std::uint64_t count_false_positives(int threshold,
                                    link::GilbertElliottLoss::Params burst,
                                    std::uint64_t seed) {
  TestbedConfig config;
  config.setup = Setup::primary_backup;
  config.backups = 1;
  config.detector.retransmission_threshold = threshold;
  config.seed = seed;
  Testbed bed(config);
  // Bursty loss on the client's access link: ordinary congestion, not a
  // failure — eliminations here are false positives (a healthy replica
  // shut down).  Bursts produce the consecutive no-progress
  // retransmissions that low thresholds mistake for crashes.
  bed.client_link().set_loss_model(
      std::make_unique<link::GilbertElliottLoss>(burst));

  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), config.service.address, config.service.port));
  }
  apps::TtcpTransmitter::Config tx;
  tx.server = config.service;
  tx.total_bytes = 2 * 1024 * 1024;
  tx.write_size = 1024;
  apps::TtcpTransmitter transmitter(bed.client(), tx);
  (void)transmitter.start();
  bed.net().run_for(sim::seconds(300));
  return bed.redirector_agent().stats().replicas_eliminated;
}

}  // namespace

int main() {
  hydranet::set_log_level(hydranet::LogLevel::error);
  std::printf("HydraNet-FT: failure-detection threshold trade-off (§4.3)\n\n");
  std::printf("-- Part 1: primary crash mid-stream, 1 backup --\n");
  std::printf("(detection counts client retransmissions, which arrive at\n"
              " the BSD RTO backoff cadence of ~1,2,4,8,... seconds — so\n"
              " latency grows roughly exponentially with the threshold)\n\n");
  std::printf("%-10s %12s %14s %12s %11s %11s %10s\n", "threshold",
              "report[ms]", "eliminate[ms]", "promote[ms]", "resume[ms]",
              "stall[ms]", "completed");
  for (int threshold : {2, 3, 4, 5, 6}) {
    FailoverResult r = measure_failover(threshold);
    std::printf("%-10d %12.1f %14.1f %12.1f %11.1f %11.0f %10s\n", threshold,
                r.report_ms, r.detection_ms, r.promote_ms, r.resume_ms,
                r.stall_ms, r.completed ? "yes" : "NO");
    std::printf("csv,failover,%d,%.1f,%.1f,%.1f,%.1f,%.0f,%d\n", threshold,
                r.report_ms, r.detection_ms, r.promote_ms, r.resume_ms,
                r.stall_ms, r.completed ? 1 : 0);
  }

  std::printf("\n-- Part 2: false positives on a healthy chain "
              "(2 MB transfer, bursty loss on the client link) --\n");
  std::printf("%-10s %14s %24s\n", "threshold", "burst loss",
              "spurious eliminations");
  link::GilbertElliottLoss::Params mild{0.005, 0.6, 0.01, 0.15};
  link::GilbertElliottLoss::Params harsh{0.01, 0.9, 0.03, 0.08};
  struct Case { const char* name; link::GilbertElliottLoss::Params params; };
  for (const Case& c : {Case{"mild", mild}, Case{"harsh", harsh}}) {
    for (int threshold : {2, 3, 4, 6}) {
      std::uint64_t fp = count_false_positives(
          threshold, c.params, 1000 + static_cast<std::uint64_t>(threshold));
      std::printf("%-10d %14s %24llu\n", threshold, c.name,
                  static_cast<unsigned long long>(fp));
    }
  }
  std::printf("\nExpected: detection latency grows with the threshold;\n"
              "low thresholds risk eliminating healthy replicas under\n"
              "bursty congestion (the paper's false-positive caution, and\n"
              "why the threshold must clear TCP's own loss recovery).\n");
  return 0;
}
