// The benchmark's four seeded workloads, behind one closed-loop interface.
//
// A workload builds a fixture from a seed (the timed set-up), then runs one
// operation at a time on it.  Every operation's outputs are checked; the
// workload keeps its own attempted/failed tally.  Counters are cumulative
// reads of the simulator's public statistics, taken only between
// operations (quiescent points), and the harness differences them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Cumulative counters summed over the fixture's hosts, links and
/// process-wide blocks.  Read between operations only.
struct Counters {
  std::uint64_t frames = 0;  ///< Σ Link::stats().delivered
  std::uint64_t queue_drops = 0;
  std::uint64_t loss_drops = 0;
  /// Link queue-depth histogram (queue_depth_buckets + overflow), all
  /// links summed.
  std::vector<std::uint64_t> queue_depth;
  std::uint64_t batch_bursts = 0;
  std::uint64_t batch_frames = 0;

  std::uint64_t ip_forwarded = 0;
  std::uint64_t ip_fragments = 0;
  std::uint64_t ip_parse_drops = 0;

  std::uint64_t redirected = 0;
  std::uint64_t redirector_copies = 0;
  std::uint64_t inner_serializations = 0;

  std::uint64_t tcp_segments = 0;
  std::uint64_t fastpath_hits = 0;
  std::uint64_t fastpath_misses = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_acks = 0;
  std::uint64_t keepalives = 0;

  std::uint64_t gate_cached_checks = 0;
  std::uint64_t deposit_stalls = 0;
  std::uint64_t send_stalls = 0;
  std::uint64_t ack_channel_sent = 0;
  double ack_channel_lost = 0;  ///< gauge: sent - received, chain-wide
  std::uint64_t failure_signals = 0;
  std::uint64_t replicas_eliminated = 0;

  std::uint64_t events = 0;  ///< events executed (from run/run_for returns)
  std::uint64_t wheel_inserts = 0;
  std::uint64_t wheel_cascades = 0;
  std::uint64_t epochs = 0;
  std::uint64_t mailbox_posted = 0;
  std::uint64_t mailbox_overflows = 0;

  std::uint64_t copied_bytes = 0;
  std::uint64_t allocations = 0;
  std::uint64_t cow_breaks = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t heap_fallbacks = 0;
  std::uint64_t slab_bytes = 0;  ///< gauge: bytes reserved in slab pages
  std::uint64_t slab_live = 0;   ///< gauge: constructed slab slots

  std::uint64_t payload_bytes = 0;  ///< application bytes the benchmark sent
  std::uint64_t connections = 0;    ///< connections the fixture holds open
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Operations run as set-up warm-up (and, on the reference seed, as the
  /// prefix the fingerprint covers: fingerprint_ops() >= warmup_ops()).
  virtual std::size_t warmup_ops() const = 0;
  virtual std::size_t fingerprint_ops() const = 0;
  /// Set-up repetitions; the first runs on the reference seed and is not
  /// timed.
  virtual std::size_t setup_reps() const { return 12; }

  /// Builds a fresh fixture (replacing any previous one).  `digest` makes
  /// the replicas hash every byte they receive, for the fingerprint.
  virtual void build(std::uint64_t seed, bool digest) = 0;
  virtual void destroy() = 0;
  /// One closed-loop operation.
  virtual void op() = 0;
  /// Runs the simulation until work in flight is done and checks it; call
  /// once before reading the final tallies.
  virtual void finish() {}

  /// Description of what was simulated so far (JSON object text).
  virtual std::string fingerprint() = 0;
  virtual void read(Counters& counters) = 0;
  /// The scheduler's pending-event count right now.
  virtual std::uint64_t pending() = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);
std::vector<std::string> workload_names();

}  // namespace perfbench
