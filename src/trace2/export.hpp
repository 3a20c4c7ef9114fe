// Exporters for the flight recorder (src/trace2/recorder.hpp):
//
//   * to_chrome_json — Chrome trace-event JSON ("Complete" X events plus
//     flow arrows for parent links), loadable in chrome://tracing and
//     ui.perfetto.dev so a whole simulated run can be scrubbed visually;
//   * to_spans_jsonl — one JSON object per span, machine-readable;
//   * postmortem / postmortem_text — joins spans with the stats event
//     timeline (PR 1) into the paper-relevant per-failover decomposition:
//     last report from the failed replica → detector fired → management
//     reroute → first segment via the new primary, plus per-connection
//     deposit-gate stall aggregates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/timeline.hpp"
#include "trace2/recorder.hpp"

namespace hydranet::trace2 {

std::string to_chrome_json(const Recorder& recorder);
std::string to_spans_jsonl(const Recorder& recorder);

/// One failover's phase decomposition.  Times are milliseconds relative
/// to the crash (−1 = phase not observed); `last_report_age_ms` is how
/// stale the failed replica's final ack-channel report already was when
/// the crash hit (the paper's "last heartbeat").
struct FailoverBreakdown {
  std::string service;        ///< service endpoint ("ip:port")
  std::string failed_node;    ///< host that crashed
  std::string promoted_node;  ///< new primary ("" = none promoted)
  double crash_s = -1;
  double last_report_age_ms = -1;   ///< crash − failed node's last report
                                    ///< (or last span, if it never reported)
  double detect_ms = -1;            ///< first failure signal (any replica)
  double report_received_ms = -1;   ///< redirector received the report
  double eliminate_ms = -1;         ///< replica removed from the chain
  double promote_ms = -1;           ///< backup promoted to primary
  double first_segment_ms = -1;     ///< first segment via the new primary
  double resume_ms = -1;            ///< client stream resumed
};

/// Per-connection deposit-gate stall aggregate (from span.ftcp.* spans).
struct GateStallSummary {
  std::string node;
  std::uint32_t connection_tag = 0;  ///< client port (see track_gate)
  std::uint64_t stalls = 0;
  double total_ms = 0;
  double max_ms = 0;
};

/// One breakdown per crash_injected event, in crash order.  `recorder`
/// may be null: the event-timeline phases still fill in, only the
/// span-derived fields (last_report_age_ms, first_segment_ms) stay −1.
std::vector<FailoverBreakdown> postmortem(const Recorder* recorder,
                                          const stats::EventTimeline& timeline);

std::vector<GateStallSummary> deposit_stall_summary(const Recorder& recorder);

/// Human-readable report combining both of the above.
std::string postmortem_text(const Recorder* recorder,
                            const stats::EventTimeline& timeline);

}  // namespace hydranet::trace2
