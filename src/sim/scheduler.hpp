// Discrete-event scheduler: the heart of the simulator.
//
// Everything in HydraNet-FT — link transmissions, TCP retransmission timers,
// management-daemon probes — is an event on this queue.  Events at equal
// times execute in scheduling order (FIFO), which keeps runs deterministic:
// every event is keyed by (time, seq), seq being its global schedule order,
// and the next event is always the least key pending.
//
// The pending set lives in two structures ordered by that one key.  New
// events park in a staging buffer: a contiguous vector of kStagingCap (256)
// entries, reserved at construction and kept sorted by (time, seq)
// descending, so the next event to fire sits at the back.  Dispatch pops it
// off the back, and a near-future schedule shifts only the entries due
// sooner than itself.  cancel() is O(1): it bumps the event's slot
// generation, and the stale entry is dropped wherever it is later found.
// A full buffer first compacts its cancelled entries out and spills only if
// it is still full, i.e. when more than 256 events are genuinely pending:
// the spill moves the whole buffer into a binary min-heap (std::push_heap)
// ordered by the same key.  The next event is whichever of the staging back
// and the heap top has the lesser key, so one peek serves dispatch and the
// exact next-due query alike.  A spill that finds the heap holding more
// than twice the live count first drops the heap's cancelled entries.
//
// The capacity sits above the peak live sets the benchmark workloads hold:
// udp_ft_fanout at most 8, ttcp_ft_sessions at most 125 and
// udp_fleet_2shard at most 213 per shard, so those runs never touch the
// heap.  tcp_conn_scale peaks at 5,091 live events and keeps most of them
// in the heap.  The buffer stays because the FT chain's pattern is
// schedule-then-cancel (link serialisation timers, RTO timers cancelled by
// the next ACK) among ~100 live events: a heap-only queue measured 0.79x
// the frames/s on ttcp_ft_sessions (Release, 4-vCPU VM, 6/6 pairs).
//
// The hot path is allocation-free in steady state: callbacks are
// small-buffer-optimised (InlineFunction, no per-event malloc for typical
// captures) and live in a recycled slot pool; the heap keeps its capacity.
#pragma once

#include <cstdint>
#include <vector>

#include "common/effect_annotations.hpp"
#include "common/inline_function.hpp"
#include "sim/time.hpp"

namespace hydranet::sim {

/// Handle for a scheduled event; cancel() revokes it if still pending.
/// Encodes (slot index + 1, slot generation); 0 is never produced.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class Scheduler {
 public:
  /// Inline capacity fits the datapath's largest common capture (a
  /// Datagram plus a couple of pointers); larger captures fall back to the
  /// heap and are counted in inline_function_heap_allocs().
  using Callback = InlineFunction<128>;

  /// Entries the staging buffer holds before it compacts out cancelled
  /// ones or spills into the heap: above every benchmark workload's
  /// measured peak live set except tcp_conn_scale's (see the header
  /// comment).  A constant, not a knob.
  static constexpr std::size_t kStagingCap = 256;

  Scheduler();

  /// Current simulated time.  Advances only when events execute.
  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()).
  /// Hot-path effect root (DESIGN.md §12): allocation-free and lock-free in
  /// steady state; sanctioned cold paths (slot-pool grow, staging spill)
  /// carry HN_EFFECT_ESCAPE regions in the definition.
  TimerId schedule_at(TimePoint t, Callback cb) HN_NONBLOCKING;

  /// Schedules `cb` after delay `d` from now (d < 0 is clamped to now).
  TimerId schedule_after(Duration d, Callback cb) HN_NONBLOCKING;

  /// Revokes a pending event.  Cancelling an already-fired or invalid id is
  /// a harmless no-op (the common case when a timer raced its cancellation).
  void cancel(TimerId id) HN_NONBLOCKING;

  /// Executes the next pending event, advancing the clock.  Returns false
  /// if the queue is empty.  Effect contract covers the dispatch machinery
  /// only — the event callbacks themselves are outside it.
  bool run_next() HN_NONBLOCKING;

  /// Runs all events with time <= t, then advances the clock to exactly t.
  /// Returns the number of events executed.
  std::size_t run_until(TimePoint t) HN_NONBLOCKING;

  /// run_until without the final clock advance: runs all events with time
  /// <= t and leaves the clock at the last of them.  The sharded engine's
  /// drain epochs use it, so a complete drain ends at the latest executed
  /// event rather than at an epoch boundary.
  std::size_t run_through(TimePoint t) HN_NONBLOCKING;

  /// Runs events for the next `d` of simulated time.
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  /// Runs until the queue drains or `max_events` executed (a watchdog
  /// against livelock in protocol bugs).  Returns events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Number of pending (uncancelled) events.
  std::size_t pending() const { return live_; }

  /// Exact time of the next event this scheduler would execute, or
  /// kTimePointMax when nothing is pending.  Non-const: it lazily drops
  /// cancelled entries off the staging back and the heap top.
  TimePoint next_due();

  /// Spill telemetry.  `wheel_inserts` counts the entries spills moved
  /// from the staging buffer into the heap; events that fire or are
  /// cancelled while still staged are not counted, so a count far below
  /// the number of scheduled events means most events lived and died in
  /// the buffer — the pattern the design is built for.
  std::uint64_t wheel_inserts() const { return heap_inserts_; }
  /// Always 0: the heap never cascades; kept for the benchmark runner.
  std::uint64_t wheel_cascades() const { return 0; }

#if HYDRANET_INVARIANTS
  /// Execution-order invariant: every executed event's (time, seq) pair
  /// must be nondecreasing in time with FIFO (ascending-seq) ties.  Called
  /// from the dispatch path; public so negative tests can feed a regressed
  /// pair directly.
  void check_execution(TimePoint t, std::uint64_t seq);
#endif

 private:
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  struct Slot {
    Callback cb;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoFreeSlot;
    bool armed = false;
  };

  /// POD queue entry; the callback stays in its slot until execution.
  struct QEntry {
    TimePoint time;
    std::uint64_t seq;  // tiebreaker: FIFO among equal times
    std::uint32_t slot;
    std::uint32_t generation;
  };

  /// Strict (time, seq) order: true when `a` fires after `b`.  As a heap
  /// comparator it puts the least key on top.
  static bool later(const QEntry& a, const QEntry& b) {
    return a.time.ns != b.time.ns ? a.time.ns > b.time.ns : a.seq > b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  static TimerId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<TimerId>(slot) + 1) << 32 | generation;
  }

  /// True when `entry`'s event was cancelled (or already fired): its slot
  /// was recycled, so the entry is skipped wherever it is found.
  bool stale(const QEntry& entry) const {
    const Slot& slot = slots_[entry.slot];
    return !slot.armed || slot.generation != entry.generation;
  }
  /// Makes room in a full staging buffer: drops its stale entries and, if
  /// it is still full, moves the rest into the heap.
  void make_staging_room();
  /// Drops stale entries off the staging back and the heap top, then
  /// returns the entry of the next event to fire: the lesser of the two.
  /// Requires live_ > 0.
  const QEntry& peek();
  /// Removes `next` (the entry peek() returned) from its structure and
  /// executes its event, advancing the clock.
  void execute(const QEntry& next);

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFreeSlot;
  /// Recent schedules, sorted by (time, seq) descending: the next-due entry
  /// is at the back.  Reserved to kStagingCap at construction and never
  /// grown past it.  May contain stale (cancelled) entries, popped off the
  /// back or compacted out when the buffer fills.
  std::vector<QEntry> staging_;
  /// Spilled entries, a min-heap on (time, seq) under `later`.  May contain
  /// stale entries, popped off the top or dropped by a spill.
  std::vector<QEntry> heap_;
  std::uint64_t heap_inserts_ = 0;
#if HYDRANET_INVARIANTS
  TimePoint last_exec_time_{};
  std::uint64_t last_exec_seq_ = 0;
  bool any_executed_ = false;
#endif
};

}  // namespace hydranet::sim
