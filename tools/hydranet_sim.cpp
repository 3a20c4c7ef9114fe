// hydranet_sim — run HydraNet-FT experiments from the command line.
//
// Subcommands:
//   ttcp      one throughput measurement on the paper's testbed
//   sweep     a Figure-4-style write-size sweep (CSV output)
//   failover  crash a replica mid-stream; report detection & completion
//   trace     run traffic and dump a tcpdump-style capture
//   ping      ICMP reachability through the deployed topology
//
// Examples:
//   hydranet_sim ttcp --setup backup --backups 2 --size 512
//   hydranet_sim sweep --setup clean --sizes 16,64,256,1024
//   hydranet_sim failover --threshold 4 --crash-at 2000 --stats out.json
//   hydranet_sim trace --max 40 --pcap run.pcap
#include "common/logging.hpp"
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/ttcp.hpp"
#include "stats/export.hpp"
#include "testbed/testbed.hpp"
#include "trace/packet_trace.hpp"
#include "trace2/export.hpp"
#include "trace2/recorder.hpp"

using namespace hydranet;

namespace {

struct Options {
  std::string command;
  testbed::Setup setup = testbed::Setup::primary_backup;
  int backups = 1;
  std::size_t write_size = 1024;
  std::size_t total_bytes = 1024 * 1024;
  std::size_t mss = 1460;
  double loss = 0.0;
  std::uint64_t seed = 42;
  int threshold = 4;
  std::int64_t crash_at_ms = 2000;
  int crash_index = 0;
  std::size_t max_trace = 60;
  std::vector<std::size_t> sizes = {16, 32, 64, 128, 256, 512, 1024};
  std::string stats_file;    ///< empty = no stats export
  std::string stats_format;  ///< "", "json", "csv" (default by extension)
  std::string pcap_file;     ///< (trace) empty = no pcap export
  bool span_trace = false;          ///< --trace: causal span tracer on
  std::size_t trace_sample = 1;     ///< --trace-sample: every Nth write
  std::string trace_out;            ///< --trace-out: span export file
  /// The human-readable report (run lines, post-mortem, summary, "written
  /// to" lines): stderr while a document goes to stdout, so stdout parses.
  std::FILE* text = stdout;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <ttcp|sweep|failover|trace|ping> [options]\n"
      "  --setup clean|noredir|primary|backup   testbed configuration\n"
      "  --backups N        backup replicas (setup backup)\n"
      "  --size BYTES       application write size\n"
      "  --total BYTES      bytes to transfer\n"
      "  --mss BYTES        TCP maximum segment size\n"
      "  --loss P           Bernoulli loss on the client link (0..1)\n"
      "  --seed N           simulation seed\n"
      "  --threshold N      failure-detection retransmission threshold\n"
      "  --crash-at MS      (failover) when to crash, after traffic start\n"
      "  --crash-index I    (failover) which server dies (0 = primary)\n"
      "  --sizes a,b,c      (sweep) write sizes\n"
      "  --max N            (trace) max lines to print\n"
      "  --stats FILE       export metrics + event timeline (- = stdout)\n"
      "  --stats-format F   json|csv (default: by FILE extension, else json)\n"
      "  --pcap FILE        (trace) also write a libpcap capture\n"
      "  --trace            enable the causal span tracer (src/trace2)\n"
      "  --trace-sample N   trace every Nth application write (default 1)\n"
      "  --trace-out FILE   span export: .jsonl = spans JSONL, otherwise\n"
      "                     Chrome/Perfetto trace JSON (- = stdout)\n"
      "                     (one of --stats/--trace-out may be -; the text\n"
      "                     report then goes to stderr)\n"
      "  --log-level L      trace|debug|info|warn|error|off (default error)\n",
      argv0);
  std::exit(2);
}

testbed::Setup parse_setup(const std::string& name) {
  if (name == "clean") return testbed::Setup::clean;
  if (name == "noredir") return testbed::Setup::no_redirection;
  if (name == "primary") return testbed::Setup::primary_only;
  if (name == "backup") return testbed::Setup::primary_backup;
  std::fprintf(stderr, "unknown setup '%s'\n", name.c_str());
  std::exit(2);
}

LogLevel parse_log_level(const std::string& name) {
  if (name == "trace") return LogLevel::trace;
  if (name == "debug") return LogLevel::debug;
  if (name == "info") return LogLevel::info;
  if (name == "warn") return LogLevel::warn;
  if (name == "error") return LogLevel::error;
  if (name == "off") return LogLevel::off;
  std::fprintf(stderr, "unknown log level '%s'\n", name.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  Options options;
  options.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--setup") {
      options.setup = parse_setup(value());
    } else if (flag == "--backups") {
      options.backups = std::atoi(value().c_str());
    } else if (flag == "--size") {
      options.write_size = static_cast<std::size_t>(std::atoll(value().c_str()));
    } else if (flag == "--total") {
      options.total_bytes = static_cast<std::size_t>(std::atoll(value().c_str()));
    } else if (flag == "--mss") {
      options.mss = static_cast<std::size_t>(std::atoll(value().c_str()));
    } else if (flag == "--loss") {
      options.loss = std::atof(value().c_str());
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(std::atoll(value().c_str()));
    } else if (flag == "--threshold") {
      options.threshold = std::atoi(value().c_str());
    } else if (flag == "--crash-at") {
      options.crash_at_ms = std::atoll(value().c_str());
    } else if (flag == "--crash-index") {
      options.crash_index = std::atoi(value().c_str());
    } else if (flag == "--max") {
      options.max_trace = static_cast<std::size_t>(std::atoll(value().c_str()));
    } else if (flag == "--stats") {
      options.stats_file = value();
    } else if (flag == "--stats-format") {
      options.stats_format = value();
      if (options.stats_format != "json" && options.stats_format != "csv") {
        std::fprintf(stderr, "unknown stats format '%s' (json|csv)\n",
                     options.stats_format.c_str());
        std::exit(2);
      }
    } else if (flag == "--pcap") {
      options.pcap_file = value();
    } else if (flag == "--trace") {
      options.span_trace = true;
    } else if (flag == "--trace-sample") {
      options.span_trace = true;
      options.trace_sample =
          static_cast<std::size_t>(std::atoll(value().c_str()));
      if (options.trace_sample == 0) options.trace_sample = 1;
    } else if (flag == "--trace-out") {
      options.span_trace = true;
      options.trace_out = value();
    } else if (flag == "--log-level") {
      set_log_level(parse_log_level(value()));
    } else if (flag == "--sizes") {
      options.sizes.clear();
      std::string list = value();
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        options.sizes.push_back(static_cast<std::size_t>(
            std::atoll(list.substr(pos, comma - pos).c_str())));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      usage(argv[0]);
    }
  }
  if (options.stats_file == "-" && options.trace_out == "-") {
    std::fprintf(stderr, "--stats and --trace-out cannot both be -\n");
    std::exit(2);
  }
  if (options.stats_file == "-" || options.trace_out == "-") {
    options.text = stderr;
  }
  return options;
}

testbed::TestbedConfig make_config(const Options& options) {
  testbed::TestbedConfig config;
  config.setup = options.setup;
  config.backups = options.backups;
  config.seed = options.seed;
  config.detector.retransmission_threshold = options.threshold;
  return config;
}

// ---- stats output -----------------------------------------------------------

bool stats_as_csv(const Options& options) {
  if (options.stats_format == "csv") return true;
  if (options.stats_format == "json") return false;
  const std::string& f = options.stats_file;
  return f.size() > 4 && f.compare(f.size() - 4, 4, ".csv") == 0;
}

/// Returns false (after reporting) when the stats file cannot be written.
bool export_stats(const Options& options, const stats::Registry& registry) {
  if (options.stats_file.empty()) return true;
  std::string text =
      stats_as_csv(options) ? stats::to_csv(registry) : stats::to_json(registry);
  Status status = stats::write_file(options.stats_file, text);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write stats to %s\n",
                 options.stats_file.c_str());
    return false;
  }
  if (options.stats_file != "-") {
    std::fprintf(options.text, "stats written to %s\n",
                 options.stats_file.c_str());
  }
  return true;
}

void print_stats_summary(std::FILE* out, const stats::Registry& registry) {
  std::fprintf(out, "\n%-22s %10s %10s %8s %6s %8s %8s\n", "node", "tcp.out",
               "tcp.in", "rexmit", "rto", "gates", "drops");
  for (const auto& [node, metrics] : registry.nodes()) {
    auto c = [&](const char* name) {
      return static_cast<unsigned long long>(
          registry.counter_value(node, name));
    };
    std::fprintf(out, "%-22s %10llu %10llu %8llu %6llu %8llu %8llu\n",
                 node.c_str(), c("tcp.segments_out"), c("tcp.segments_in"),
                 c("tcp.retransmits"), c("tcp.rto_firings"),
                 c("ftcp.deposit_gate_stalls") + c("ftcp.send_gate_stalls"),
                 c("link.queue_drops") + c("link.loss_drops"));
  }
  std::fprintf(out, "timeline: %zu events\n",
               registry.timeline().events().size());
}

// ---- span tracing -----------------------------------------------------------

/// Turns the testbed network's flight recorder on for one run when
/// --trace is on.
struct TraceSession {
  const trace2::Recorder* recorder = nullptr;

  TraceSession(const Options& options, testbed::Testbed& bed) {
    if (!options.span_trace) return;
    if (!trace2::kEnabled) {
      std::fprintf(stderr,
                   "warning: this binary was built with HYDRANET_TRACING=OFF; "
                   "--trace has no effect\n");
      return;
    }
    trace2::Recorder::Config config;
    config.sample_every = options.trace_sample;
    recorder = &bed.net().enable_tracing(config);
  }

  /// Writes --trace-out (.jsonl = spans JSONL, anything else = Chrome
  /// trace JSON for chrome://tracing / ui.perfetto.dev).
  bool export_trace(const Options& options) const {
    if (recorder == nullptr || options.trace_out.empty()) return true;
    const std::string& f = options.trace_out;
    bool jsonl = f.size() > 6 && f.compare(f.size() - 6, 6, ".jsonl") == 0;
    std::string text = jsonl ? trace2::to_spans_jsonl(*recorder)
                             : trace2::to_chrome_json(*recorder);
    Status status = stats::write_file(f, text);
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write trace to %s\n", f.c_str());
      return false;
    }
    if (f != "-") {
      std::fprintf(options.text,
                   "trace written to %s (%llu spans, %llu dropped, "
                   "%llu/%llu roots sampled)\n",
                   f.c_str(),
                   static_cast<unsigned long long>(recorder->spans_recorded()),
                   static_cast<unsigned long long>(recorder->spans_dropped()),
                   static_cast<unsigned long long>(recorder->roots_sampled()),
                   static_cast<unsigned long long>(recorder->roots_seen()));
    }
    return true;
  }
};

// ---- the shared measurement driver ------------------------------------------

struct RunResult {
  double throughput_kBps = 0;
  bool finished = false;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  double elapsed_s = 0;
};

RunResult run_ttcp_once(const Options& options, testbed::Testbed& bed,
                        std::int64_t crash_at_ms = -1, int crash_index = 0) {
  if (options.loss > 0) {
    bed.client_link().set_loss_model(
        std::make_unique<link::BernoulliLoss>(options.loss));
  }

  tcp::TcpOptions tcp_options = apps::period_tcp_options();
  tcp_options.mss = options.mss;
  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), bed.config().service.address, bed.config().service.port,
        tcp_options));
  }
  apps::TtcpTransmitter::Config tx;
  tx.server = bed.config().service;
  tx.write_size = options.write_size;
  tx.total_bytes = options.total_bytes;
  tx.tcp = tcp_options;
  apps::TtcpTransmitter transmitter(bed.client(), tx);
  if (!transmitter.start().ok()) return {};

  if (crash_at_ms >= 0) {
    bed.net().run_for(sim::milliseconds(crash_at_ms));
    if (!transmitter.report().finished &&
        crash_index < static_cast<int>(bed.server_count())) {
      std::fprintf(options.text, "t=%.3fs crashing server %d\n",
                   bed.net().now().seconds(), crash_index);
      bed.crash_server(static_cast<std::size_t>(crash_index));

      // Watch the client's acknowledged extent.  ACKs already in flight
      // from the dead primary may still advance it a little, so the
      // resume marker is the acknowledged extent passing the crash-time
      // send frontier — data only the promoted backup can acknowledge.
      if (auto connection = transmitter.connection()) {
        std::uint32_t una_at_crash = connection->snd_una_wire();
        std::uint32_t frontier = connection->snd_nxt_wire();
        auto poll = std::make_shared<std::function<void()>>();
        testbed::Testbed* bed_ptr = &bed;
        *poll = [bed_ptr, connection, una_at_crash, frontier, poll] {
          std::uint32_t una = connection->snd_una_wire();
          if (net::seq::geq(una, frontier) && net::seq::gt(una, una_at_crash)) {
            bed_ptr->client().record_event(stats::event::kStreamResumed,
                                           "acks passed crash-time frontier");
            return;
          }
          bed_ptr->scheduler().schedule_after(sim::milliseconds(1), *poll);
        };
        bed.scheduler().schedule_after(sim::milliseconds(1), *poll);
      }
    }
  }
  sim::TimePoint deadline = bed.net().now() + sim::seconds(600);
  while (bed.net().now() < deadline && !transmitter.report().finished &&
         !transmitter.report().failed) {
    bed.net().run_for(sim::milliseconds(500));
  }
  bed.net().run_for(sim::seconds(1));

  RunResult result;
  result.finished = transmitter.report().finished;
  if (transmitter.connection()) {
    result.retransmits = transmitter.connection()->stats().retransmits;
    result.timeouts = transmitter.connection()->stats().timeouts;
  }
  for (auto& receiver : receivers) {
    for (const auto& report : receiver->reports()) {
      if (report.eof && report.throughput_kBps() > result.throughput_kBps) {
        result.throughput_kBps = report.throughput_kBps();
        result.elapsed_s = (report.eof_at - report.first_byte_at).seconds();
      }
    }
  }
  return result;
}

// ---- subcommands ------------------------------------------------------------

int cmd_ttcp(const Options& options) {
  testbed::Testbed bed(make_config(options));
  TraceSession session(options, bed);
  RunResult result = run_ttcp_once(options, bed);
  std::fprintf(options.text,
               "setup=%s backups=%d size=%zu total=%zu loss=%.3f seed=%llu\n",
               testbed::to_string(options.setup), options.backups,
               options.write_size, options.total_bytes, options.loss,
               static_cast<unsigned long long>(options.seed));
  std::fprintf(options.text,
               "throughput %.1f kB/s, %s, %.2f s, %llu retransmits, "
               "%llu timeouts\n",
               result.throughput_kBps,
               result.finished ? "finished" : "DID NOT FINISH",
               result.elapsed_s,
               static_cast<unsigned long long>(result.retransmits),
               static_cast<unsigned long long>(result.timeouts));
  if (!options.stats_file.empty()) {
    stats::Registry& registry = bed.stats();
    print_stats_summary(options.text, registry);
    if (!export_stats(options, registry)) return 1;
  }
  if (!session.export_trace(options)) return 1;
  return result.finished ? 0 : 1;
}

int cmd_sweep(const Options& options) {
  std::fprintf(
      options.text,
      "csv,setup,size,kBps,retransmits,timeouts,deposit_stalls,send_stalls\n");
  for (std::size_t size : options.sizes) {
    Options one = options;
    one.write_size = size;
    one.total_bytes = std::clamp<std::size_t>(size * 1500, 96 * 1024,
                                              2 * 1024 * 1024);
    testbed::Testbed bed(make_config(one));
    TraceSession session(one, bed);
    RunResult result = run_ttcp_once(one, bed);
    stats::Registry& registry = bed.stats();
    std::fprintf(options.text, "csv,%s,%zu,%.1f,%llu,%llu,%llu,%llu\n",
                 testbed::to_string(options.setup), size,
                 result.throughput_kBps,
                 static_cast<unsigned long long>(result.retransmits),
                 static_cast<unsigned long long>(result.timeouts),
                 static_cast<unsigned long long>(
                     registry.total("ftcp.deposit_gate_stalls")),
                 static_cast<unsigned long long>(
                     registry.total("ftcp.send_gate_stalls")));
    if (!options.stats_file.empty() && size == options.sizes.back()) {
      // One registry per run; export the last size's (the CSV rows above
      // carry the per-size counters).
      if (!export_stats(options, registry)) return 1;
    }
    // As with stats: one trace per run, the last size's is exported.
    if (size == options.sizes.back() && !session.export_trace(options)) {
      return 1;
    }
  }
  return 0;
}

int cmd_failover(const Options& options) {
  Options one = options;
  one.setup = testbed::Setup::primary_backup;
  testbed::Testbed bed(make_config(one));
  TraceSession session(one, bed);
  RunResult result =
      run_ttcp_once(one, bed, options.crash_at_ms, options.crash_index);
  std::fprintf(options.text,
               "failover run: %s, %.1f kB/s end-to-end, %llu retransmits, "
               "%llu timeouts\n",
               result.finished ? "stream completed" : "STREAM FAILED",
               result.throughput_kBps,
               static_cast<unsigned long long>(result.retransmits),
               static_cast<unsigned long long>(result.timeouts));

  stats::Registry& registry = bed.stats();
  // Span-aware post-mortem: phase decomposition per crashed service plus
  // deposit-gate stall aggregates (works without --trace too, from the
  // event timeline alone).
  std::fputs(
      trace2::postmortem_text(session.recorder, registry.timeline()).c_str(),
      options.text);
  if (!options.stats_file.empty()) {
    print_stats_summary(options.text, registry);
    if (!export_stats(options, registry)) return 1;
  }
  if (!session.export_trace(options)) return 1;
  return result.finished ? 0 : 1;
}

int cmd_trace(const Options& options) {
  testbed::Testbed bed(make_config(options));
  trace::PacketTrace capture(bed.scheduler(), options.max_trace);
  if (!options.pcap_file.empty()) capture.set_keep_frames(true);
  capture.attach(bed.client_link(), "cli-rd");

  tcp::TcpOptions tcp_options = apps::period_tcp_options();
  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), bed.config().service.address, bed.config().service.port,
        tcp_options));
  }
  apps::TtcpTransmitter::Config tx;
  tx.server = bed.config().service;
  tx.write_size = options.write_size;
  tx.total_bytes = std::min<std::size_t>(options.total_bytes, 64 * 1024);
  apps::TtcpTransmitter transmitter(bed.client(), tx);
  (void)transmitter.start();
  bed.net().run_for(sim::seconds(30));
  std::fputs(capture.dump().c_str(), stdout);
  if (capture.dropped() > 0) {
    std::printf("... %zu more frames not shown (--max %zu)\n",
                capture.dropped(), options.max_trace);
  }
  if (!options.pcap_file.empty()) {
    Status status = capture.write_pcap(options.pcap_file);
    if (status.ok()) {
      std::printf("pcap written to %s (%zu frames)\n",
                  options.pcap_file.c_str(), capture.entries().size());
    } else {
      std::fprintf(stderr, "failed to write pcap to %s\n",
                   options.pcap_file.c_str());
      return 1;
    }
  }
  return 0;
}

int cmd_ping(const Options& options) {
  testbed::Testbed bed(make_config(options));
  int exit_code = 1;
  bed.client().icmp().ping(bed.config().service.address,
                           [&](const icmp::IcmpStack::PingReply& reply) {
                             if (reply.ok) {
                               std::printf("reply from %s: rtt %.3f ms\n",
                                           reply.from.to_string().c_str(),
                                           reply.rtt.millis());
                               exit_code = 0;
                             } else {
                               std::printf("no reply\n");
                             }
                           });
  bed.net().run_for(sim::seconds(3));
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::error);
  Options options = parse(argc, argv);
  if (options.command == "ttcp") return cmd_ttcp(options);
  if (options.command == "sweep") return cmd_sweep(options);
  if (options.command == "failover") return cmd_failover(options);
  if (options.command == "trace") return cmd_trace(options);
  if (options.command == "ping") return cmd_ping(options);
  usage(argv[0]);
}
