// Point-to-point link with bandwidth, propagation delay, a drop-tail queue,
// and a pluggable loss model per direction.
//
// A link may span two shards of the sharded engine (bind_shards): each
// direction's tx-side state (drop-tail queue, transmitter, loss draw) then
// lives on the transmitting host's shard, and delivery crosses to the
// receiving shard as a timestamped mailbox post instead of a
// same-scheduler schedule.  Same-shard links (and everything at --shards=1) take exactly
// the legacy single-scheduler path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/packet_buffer.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "link/interface.hpp"
#include "link/loss_model.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"
#include "stats/metrics.hpp"

namespace hydranet::link {

/// Rx-burst accounting (`scheduler.batch.*`, DESIGN.md §8).  A burst is
/// one scheduler event that delivered frames through a batching link's rx
/// path; `packets` is how many frames those bursts carried.  Links with
/// batch_frames <= 1 never touch these.  One block per thread (shard):
/// batch_counters() is the calling thread's block, batch_counters_total()
/// the process-wide sum (quiescent points only).
struct BatchCounters {
  std::uint64_t bursts = 0;
  std::uint64_t packets = 0;
};
BatchCounters& batch_counters();
BatchCounters batch_counters_total();
void reset_batch_counters();

class Link {
 public:
  struct Config {
    double bandwidth_bps = 10e6;  ///< 10 Mb/s Ethernet by default
    sim::Duration propagation = sim::microseconds(50);
    std::size_t queue_capacity_packets = 64;  ///< drop-tail threshold
    double loss_probability = 0.0;            ///< shortcut for BernoulliLoss
    std::uint64_t seed = 1;
    /// Frames delivered per rx scheduler event.  1 (the default) is the
    /// legacy path: one event per frame at its exact arrival instant.
    /// Larger values amortise event dispatch over bursts — frames that
    /// became due together are handed to the interface as one span, and a
    /// full batch is coalesced into a single event at its newest member's
    /// arrival (bounded extra latency: at most batch_frames serialisation
    /// times).  Batching preserves streams, not timelines; see
    /// tests/test_batch_property.cpp.
    std::size_t batch_frames = 1;
  };

  /// Aggregate view over both directions' counters (stats() sums them;
  /// per-direction blocks keep tx-side and rx-side increments on their
  /// owning shard's thread).
  struct Stats {
    std::uint64_t delivered = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t loss_drops = 0;
    std::uint64_t down_drops = 0;
  };

  Link(sim::Scheduler& scheduler, Config config);
  ~Link();

  /// Wires the link between two interfaces (sets their link pointers).
  void attach(NetworkInterface& a, NetworkInterface& b);

  /// Splits the link across engine shards: `shard_a` transmits end-a
  /// frames, `shard_b` end-b frames.  With shard_a == shard_b this only
  /// re-homes both directions onto that shard's scheduler (legacy
  /// behaviour otherwise untouched); with distinct shards each direction
  /// gets its own loss-model clone + RNG stream (the two transmit paths
  /// run on different threads) and delivery is posted through the
  /// engine's mailboxes.  Cross-shard links deliver per frame — rx
  /// batching (config.batch_frames) is an intra-shard optimisation and is
  /// bypassed.  Call once, after attach() and before traffic flows.
  void bind_shards(sim::ShardEngine& engine, std::size_t shard_a,
                   std::size_t shard_b);

  /// Enqueues `frame` for transmission from interface `from` toward the
  /// other end.  Fails with no_route when the link is down.  A full
  /// drop-tail queue drops the frame silently, as hardware does: the call
  /// still succeeds and only `link.queue_drops` counts it (loss-model
  /// drops likewise, in `link.loss_drops`).
  Status transmit(const NetworkInterface* from, PacketBuffer frame);

  /// Replaces the loss model applied to both directions.
  void set_loss_model(std::unique_ptr<LossModel> model);

  /// Monitoring tap: sees every frame accepted for transmission (before
  /// loss is applied), with the interface it came from.  One tap per link.
  /// The tap borrows the frame; retaining it (pcap capture) is a refcount
  /// bump, not a copy.
  using Tap = std::function<void(const NetworkInterface& from,
                                 const PacketBuffer& frame)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Takes the link down (failure injection); frames in flight still land.
  /// Atomic: the flag is read by both directions' shards.
  void set_down(bool down) { down_.store(down, std::memory_order_relaxed); }
  bool is_down() const { return down_.load(std::memory_order_relaxed); }

  /// Both directions summed.  Read at quiescent points when the link
  /// crosses shards.
  Stats stats() const;
  const Config& config() const { return config_; }

  /// Queue occupancy sampled at every enqueue attempt (both directions
  /// merged): the distribution that separates "drops because the loss
  /// model fired" from "drops because the drop-tail queue was full".
  stats::Histogram queue_depth() const;

  /// Display/metrics label ("client-redirector"); set by the topology
  /// builder.
  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

 private:
  /// Per-direction counters.  The tx-side fields are written on the
  /// transmitting shard's thread, the rx-side fields on the receiving
  /// shard's; stats() folds them into the legacy aggregate.
  struct DirStats {
    std::uint64_t delivered = 0;      ///< rx
    std::uint64_t queue_drops = 0;    ///< tx
    std::uint64_t loss_drops = 0;     ///< tx
    std::uint64_t down_drops_tx = 0;  ///< tx: link already down at transmit
    std::uint64_t down_drops_rx = 0;  ///< rx: went down while in flight
  };

  struct Direction {
    NetworkInterface* destination = nullptr;
    /// Scheduler of the transmitting side — where the serialisation timer,
    /// departure event and (same-shard) arrival event run.
    sim::Scheduler* src = nullptr;
    std::size_t src_shard = 0;
    std::size_t dst_shard = 0;
    DirStats stats;
    stats::Histogram queue_depth{stats::queue_depth_buckets()};
    /// Cross-shard only: this direction's own loss stream (clone of the
    /// configured model + an RNG derived from the link seed), so the two
    /// transmit threads never share generator state.  Same-shard
    /// directions draw from the link-wide loss_/rng_ exactly as before.
    std::unique_ptr<LossModel> loss;
    std::unique_ptr<Rng> rng;
    sim::TimePoint transmitter_free{};
    std::size_t queued = 0;
    /// Batched rx (config.batch_frames > 1, same-shard only): a FIFO of
    /// frames awaiting delivery with their arrival instants.  Entries
    /// before rx_head were delivered; the prefix is reclaimed once it is
    /// half the vector, so a flush costs O(frames delivered), not
    /// O(backlog).  Arrivals never decrease (a frame starts serialising
    /// no earlier than the previous one finished, and propagation is
    /// fixed), so the frames due at a flush are always a prefix.
    std::vector<std::pair<sim::TimePoint, PacketBuffer>> rx_pending;
    std::size_t rx_head = 0;
    /// The span handed to handle_rx_burst, reused across flushes.
    std::vector<PacketBuffer> rx_burst;
    /// The one pending flush event.
    sim::TimerId rx_flush_timer = sim::kInvalidTimer;
    sim::TimePoint rx_flush_at{};
    bool rx_flush_scheduled = false;

    bool crosses_shards() const { return src_shard != dst_shard; }
    /// Frames queued for batched delivery and not yet delivered.
    std::size_t rx_waiting() const { return rx_pending.size() - rx_head; }
  };

  Direction& direction_from(const NetworkInterface* from);
  void enqueue_arrival(Direction& dir, sim::TimePoint arrival,
                       PacketBuffer frame);
  void flush_rx(Direction& dir);
  void deliver(Direction& dir, PacketBuffer frame);

  sim::ShardEngine* engine_ = nullptr;
  Config config_;
  NetworkInterface* end_a_ = nullptr;
  NetworkInterface* end_b_ = nullptr;
  Direction toward_b_;  // frames sent by end_a_
  Direction toward_a_;  // frames sent by end_b_
  std::unique_ptr<LossModel> loss_;
  Rng rng_;
  std::atomic<bool> down_{false};
  Tap tap_;
  std::string label_;
};

}  // namespace hydranet::link
