#include "trace2/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "stats/export.hpp"
#include "trace2/span.hpp"

namespace hydranet::trace2 {

namespace {

std::string format_us(sim::TimePoint t) {
  // Chrome trace timestamps are microseconds; keep ns resolution as the
  // fractional part.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(t.ns / 1000),
                static_cast<long long>(t.ns % 1000));
  return buf;
}

std::string format_ms(double ms) {
  if (ms < 0) return "n/a";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f ms", ms);
  return buf;
}

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

std::string to_chrome_json(const Recorder& recorder) {
  std::vector<SpanRecord> records = recorder.snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
    out += "\n";
  };

  // One "thread" per simulated node, named after it.
  for (std::size_t node = 0; node < recorder.node_count(); ++node) {
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(node) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":";
    stats::append_escaped(
        out, recorder.node_name(static_cast<std::uint16_t>(node)));
    out += "}}";
  }

  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  by_id.reserve(records.size());
  for (const SpanRecord& r : records) by_id.emplace(r.id, &r);

  for (const SpanRecord& r : records) {
    sep();
    sim::Duration dur = r.end - r.start;
    char durbuf[40];
    std::snprintf(durbuf, sizeof durbuf, "%lld.%03lld",
                  static_cast<long long>(dur.ns / 1000),
                  static_cast<long long>(dur.ns % 1000));
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(r.node) +
           ",\"ts\":" + format_us(r.start) + ",\"dur\":" + durbuf +
           ",\"name\":\"" + r.name + "\",\"args\":{\"id\":\"" + hex_id(r.id) +
           "\",\"parent\":\"" + hex_id(r.parent) +
           "\",\"a\":" + std::to_string(r.a) + ",\"b\":" + std::to_string(r.b) +
           "}}";
  }

  // Flow arrows for every parent link whose parent record survived in the
  // rings — this is what draws the client→redirector→replica causality.
  for (const SpanRecord& r : records) {
    if (r.parent == 0) continue;
    auto it = by_id.find(r.parent);
    if (it == by_id.end()) continue;
    const SpanRecord& p = *it->second;
    sep();
    out += "{\"ph\":\"s\",\"pid\":1,\"tid\":" + std::to_string(p.node) +
           ",\"ts\":" + format_us(p.start) +
           ",\"id\":\"" + hex_id(r.id) + "\",\"name\":\"causal\",\"cat\":\"causal\"}";
    sep();
    out += "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":" +
           std::to_string(r.node) + ",\"ts\":" + format_us(r.start) +
           ",\"id\":\"" + hex_id(r.id) + "\",\"name\":\"causal\",\"cat\":\"causal\"}";
  }

  out += "\n]}\n";
  return out;
}

std::string to_spans_jsonl(const Recorder& recorder) {
  std::string out;
  for (const SpanRecord& r : recorder.snapshot()) {
    out += "{\"id\":" + std::to_string(r.id) +
           ",\"parent\":" + std::to_string(r.parent) + ",\"name\":\"" +
           r.name + "\",\"node\":";
    stats::append_escaped(out, recorder.node_name(r.node));
    out += ",\"start_ns\":" + std::to_string(r.start.ns) +
           ",\"end_ns\":" + std::to_string(r.end.ns) +
           ",\"a\":" + std::to_string(r.a) + ",\"b\":" + std::to_string(r.b) +
           "}\n";
  }
  return out;
}

std::vector<FailoverBreakdown> postmortem(
    const Recorder* recorder, const stats::EventTimeline& timeline) {
  std::vector<FailoverBreakdown> out;
  std::vector<SpanRecord> records;
  if (recorder != nullptr) records = recorder->snapshot();

  // A phase is the earliest matching event (ties to the node name that
  // sorts first), not the first one recorded: shards record events of the
  // same epoch in thread order, so emission order is not time order.
  auto earlier = [](const stats::Event& x, const stats::Event& y) {
    return x.at < y.at || (x.at == y.at && x.node < y.node);
  };

  for (const stats::Event& crash : timeline.events()) {
    if (crash.kind != stats::event::kCrashInjected) continue;
    FailoverBreakdown b;
    b.service = crash.detail;
    b.failed_node = crash.node;
    b.crash_s = crash.at.seconds();

    // An event belongs to this failover when it follows the crash and its
    // detail names the same service.  Every management/ft-TCP event's
    // detail leads with the service endpoint (failure_signal details lead
    // with the connection key, whose local side IS the service endpoint),
    // which is what keeps two concurrent failovers correctly attributed.
    auto first = [&](const char* kind,
                     bool tagged = true) -> const stats::Event* {
      const stats::Event* found = nullptr;
      for (const stats::Event& e : timeline.events()) {
        if (e.kind != kind || e.at < crash.at) continue;
        if (tagged && !b.service.empty() &&
            e.detail.compare(0, b.service.size(), b.service) != 0) {
          continue;
        }
        if (found == nullptr || earlier(e, *found)) found = &e;
      }
      return found;
    };
    auto phase = [&](const stats::Event* e) {
      return e == nullptr ? -1.0 : (e->at - crash.at).millis();
    };

    b.detect_ms = phase(first(stats::event::kFailureSignal));
    if (b.detect_ms < 0) {
      b.detect_ms = phase(first(stats::event::kFailureReportSent));
    }
    b.report_received_ms = phase(first(stats::event::kFailureReportReceived));
    b.eliminate_ms = phase(first(stats::event::kReplicaEliminated));
    const stats::Event* promoted = first(stats::event::kPromoted);
    b.promote_ms = phase(promoted);
    if (promoted != nullptr) b.promoted_node = promoted->node;
    // stream_resumed is recorded by the measurement driver on the client
    // and carries no service tag; attribute the first one after the crash.
    b.resume_ms = phase(first(stats::event::kStreamResumed, false));

    // Span-derived phases: the failed replica's last sign of life before
    // the crash, and the first segment the promoted node put on the wire
    // after taking over.  Ack-channel reports are the paper's heartbeat,
    // but only replicas with a predecessor send them (reports flow
    // tail→head), so for a crashed primary fall back to its last traced
    // span of any kind.
    double last_any_age = -1;
    for (const SpanRecord& r : records) {
      const std::string& node = recorder->node_name(r.node);
      if (node == b.failed_node && r.end <= crash.at) {
        double age = (crash.at - r.end).millis();
        if (last_any_age < 0 || age < last_any_age) last_any_age = age;
        if (r.name == std::string(span::kFtcpAckReport) &&
            (b.last_report_age_ms < 0 || age < b.last_report_age_ms)) {
          b.last_report_age_ms = age;
        }
      }
      if (promoted != nullptr &&
          r.name == std::string(span::kTcpSegmentize) &&
          node == b.promoted_node && r.start >= promoted->at) {
        double ms = (r.start - crash.at).millis();
        if (b.first_segment_ms < 0 || ms < b.first_segment_ms) {
          b.first_segment_ms = ms;
        }
      }
    }
    if (b.last_report_age_ms < 0) b.last_report_age_ms = last_any_age;
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<GateStallSummary> deposit_stall_summary(const Recorder& recorder) {
  std::map<std::pair<std::string, std::uint32_t>, GateStallSummary> grouped;
  for (const SpanRecord& r : recorder.snapshot()) {
    if (r.name != std::string(span::kFtcpDepositWait)) continue;
    const std::string& node = recorder.node_name(r.node);
    GateStallSummary& s = grouped[{node, r.a}];
    s.node = node;
    s.connection_tag = r.a;
    s.stalls++;
    double ms = (r.end - r.start).millis();
    s.total_ms += ms;
    s.max_ms = std::max(s.max_ms, ms);
  }
  std::vector<GateStallSummary> out;
  out.reserve(grouped.size());
  for (auto& [key, summary] : grouped) out.push_back(std::move(summary));
  return out;
}

std::string postmortem_text(const Recorder* recorder,
                            const stats::EventTimeline& timeline) {
  std::string out;
  std::vector<FailoverBreakdown> breakdowns = postmortem(recorder, timeline);
  if (breakdowns.empty()) {
    out += "post-mortem: no crash recorded\n";
  }
  for (const FailoverBreakdown& b : breakdowns) {
    char head[160];
    std::snprintf(head, sizeof head,
                  "post-mortem: service %s, %s crashed at %.3fs",
                  b.service.c_str(), b.failed_node.c_str(), b.crash_s);
    out += head;
    if (!b.promoted_node.empty()) {
      out += ", " + b.promoted_node + " promoted";
    }
    out += "\n";
    out += "  last activity on failed node     " +
           format_ms(b.last_report_age_ms) + " before crash\n";
    out += "  detector fired                   +" + format_ms(b.detect_ms) +
           "\n";
    out += "  report reached redirector        +" +
           format_ms(b.report_received_ms) + "\n";
    out += "  replica eliminated (reroute)     +" + format_ms(b.eliminate_ms) +
           "\n";
    out += "  backup promoted                  +" + format_ms(b.promote_ms) +
           "\n";
    out += "  first segment via new primary    +" +
           format_ms(b.first_segment_ms) + "\n";
    out += "  client stream resumed            +" + format_ms(b.resume_ms) +
           "\n";
  }
  if (recorder != nullptr) {
    std::vector<GateStallSummary> stalls = deposit_stall_summary(*recorder);
    if (!stalls.empty()) {
      out += "deposit-gate stalls per connection (node/client-port: "
             "count, total, max):\n";
      for (const GateStallSummary& s : stalls) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "  %s/%u: %llu stalls, %.3f ms total, %.3f ms max\n",
                      s.node.c_str(), s.connection_tag,
                      static_cast<unsigned long long>(s.stalls), s.total_ms,
                      s.max_ms);
        out += line;
      }
    }
  }
  return out;
}

}  // namespace hydranet::trace2
