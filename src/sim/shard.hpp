// Sharded simulation engine: conservative parallel discrete-event
// execution (see DESIGN.md §10).
//
// The network is partitioned into N shards.  Each shard owns a disjoint
// set of hosts, a Scheduler (its own event queue and clock),
// and a run loop on a dedicated thread (shard 0 runs on the caller's
// thread).  Shards advance in lockstep epochs bounded by conservative
// lookahead W = the minimum cross-shard link propagation delay:
//
//   1. drain: each shard empties its inbound mailboxes (in fixed source-
//      shard order, for determinism) into its scheduler, then reports
//      its exact next event time;
//   2. reduce (barrier): the last arriver computes the global lower bound
//      LBTS = min over shards, and the epoch boundary
//      epoch_end = min(target, LBTS + W);
//   3. run: every shard executes run_until(epoch_end) concurrently
//      (run_through in drain mode, which leaves the clock at the shard's
//      latest event).  Cross-shard Link::transmit posts a timestamped
//      callback into the destination shard's mailbox instead of its own
//      scheduler;
//   4. barrier: all posts complete before anyone drains again.
//
// Safety: any event executed during an epoch has time >= LBTS, so any
// message it posts carries a timestamp >= LBTS + W >= epoch_end — never
// in the receiving shard's past.  Progress: W > 0 whenever cross-shard
// links exist, so epoch_end > LBTS and the LBTS event itself executes.
//
// Mailbox memory ordering: mailboxes are plain vectors, not atomics.
// During the run phase only the producing shard touches a (src, dst)
// mailbox; during the drain phase only the consuming shard does.  The
// barriers between the phases (a mutex + condition variable) establish
// the happens-before edges, which keeps the mailboxes TSan-clean without a
// single atomic on the message path.
//
// --shards=1 bypasses all of this: run_until/run delegate straight to
// scheduler(0) on the calling thread, byte-identical to the pre-sharding
// engine by construction.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/effect_annotations.hpp"
#include "common/thread_annotations.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace hydranet::sim {

class ShardEngine {
 public:
  struct Config {
    std::size_t shards = 1;
  };

  /// Messages each (source, destination) mailbox holds without growing.
  /// Posts past it are still delivered; each one is counted in
  /// `shard.mailbox.overflows`.
  static constexpr std::size_t kMailboxCapacity = 1024;

  /// Per-shard engine telemetry (`shard.*`, DESIGN.md §8); aggregated
  /// across shards by Network::publish_metrics.
  struct Counters {
    std::uint64_t events = 0;             ///< events executed by this shard
    std::uint64_t epochs = 0;             ///< epoch rounds participated in
    std::uint64_t mailbox_posted = 0;     ///< messages posted to other shards
    std::uint64_t mailbox_drained = 0;    ///< messages drained from inboxes
    std::uint64_t mailbox_overflows = 0;  ///< posts past kMailboxCapacity
  };

  explicit ShardEngine(Config config);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  std::size_t shards() const { return schedulers_.size(); }
  Scheduler& scheduler(std::size_t shard) { return *schedulers_[shard]; }

  /// Conservative lookahead: the minimum cross-shard link propagation
  /// delay.  The topology builder min-reduces this as it connects hosts;
  /// must be positive once any cross-shard link exists, and must not
  /// change while the engine is running.
  void observe_cross_shard_latency(Duration d);
  Duration lookahead() const { return lookahead_; }

  /// Posts `cb` for execution at absolute time `at` on shard `to`'s
  /// scheduler.  Called from shard `from`'s thread during its run phase
  /// (or from the main thread while the engine is idle, in which case the
  /// message is delivered at the next drain).
  /// Hot-path effect root (DESIGN.md §12): during a run phase this is a
  /// plain-vector push into a pre-reserved mailbox — no locks, no atomics
  /// (the phase barriers carry the memory ordering).
  void post(std::size_t from, std::size_t to, TimePoint at,
            Scheduler::Callback cb) HN_NONBLOCKING;

  /// Runs all shards until every clock reaches exactly `t` and all events
  /// (and cross-shard messages) with time <= t have executed.  Returns
  /// total events executed.
  std::size_t run_until(TimePoint t);

  /// Runs until every shard's queue and every mailbox drains, or about
  /// `max_events` total events executed (livelock watchdog, checked at
  /// epoch boundaries).  A complete drain leaves every shard's clock at
  /// the latest event any shard executed, which is what one shard reads
  /// after the same drain; a drain the watchdog stops leaves each shard's
  /// clock at its own latest event.  Returns total events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  const Counters& counters(std::size_t shard) const {
    return counters_[shard];
  }
  Counters counters_total() const;

  /// The scheduler of the shard whose run loop is executing on the
  /// calling thread; null outside a run phase.  Used by the logger to
  /// stamp virtual time.
  static Scheduler* current_scheduler();

 private:
  struct Message {
    TimePoint at;
    Scheduler::Callback cb;
  };
  /// One (source, destination) mailbox, reserved to kMailboxCapacity.
  using Mailbox = std::vector<Message>;

  Mailbox& mailbox(std::size_t from, std::size_t to) {
    return mailboxes_[from * schedulers_.size() + to];
  }

  /// What every shard must know after a reduce barrier.  Double-buffered
  /// by barrier-phase parity: a shard that is slow to wake from phase P's
  /// barrier still reads slot P&1, which cannot be overwritten before
  /// phase P+2 completes — and that requires this shard to have passed
  /// phase P+1 first.
  struct Decision {
    TimePoint epoch_end{};
    bool finished = false;
  };

  /// Mutex+cv barrier; the last arriver runs `on_last` under the lock
  /// (the coordinator reduction) and its writes are visible to every
  /// shard on wake.  Returns the phase's Decision, captured under the
  /// lock.
  template <typename Fn>
  Decision barrier(Fn&& on_last) {
    UniqueLock lock(barrier_mu_);
    const std::uint64_t phase = barrier_phase_;
    if (++barrier_waiting_ == schedulers_.size()) {
      barrier_waiting_ = 0;
      Decision& decision = decisions_[phase & 1];
      decision = Decision{};
      on_last(decision);
      ++barrier_phase_;
      barrier_cv_.notify_all();
      return decision;
    }
    // Explicit wait loop (not the predicate overload): the predicate would
    // read barrier_phase_ from a lambda scope the thread-safety analysis
    // cannot see the held lock in.
    while (barrier_phase_ == phase) barrier_cv_.wait(lock.native());
    return decisions_[phase & 1];
  }
  void barrier() {
    barrier([](Decision&) {});
  }

  struct Job {
    TimePoint target;        ///< run_until bound (kTimePointMax: drain mode)
    bool drain_mode = false;
    std::size_t max_events = SIZE_MAX;
  };

  /// One shard's participation in a full job (run_until or drain mode);
  /// every shard executes this in lockstep, shard 0 on the main thread.
  /// The job is passed by value — each participant copies it out of job_
  /// under job_mu_ (the dispatch handshake), so the shared slot is only
  /// ever touched with the lock held.
  void participate(std::size_t shard, Job job);
  /// Hot-path effect root (DESIGN.md §12): moves messages from the plain
  /// mailbox vectors onto the shard's scheduler; producers are quiescent.
  std::size_t drain_inboxes(std::size_t shard) HN_NONBLOCKING;
  void worker_main(std::size_t shard);

  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  std::vector<Counters> counters_;
  /// shards x shards mailboxes, row-major by source; the (s, s) diagonal
  /// stays empty.  Plain vectors — see the memory-ordering note above.
  std::vector<Mailbox> mailboxes_;
  Duration lookahead_{INT64_MAX};  ///< no cross-shard link yet: unbounded

  // ---- job dispatch (shards > 1 only) ------------------------------------
  std::vector<std::thread> workers_;
  Mutex job_mu_;
  std::condition_variable job_cv_;
  std::uint64_t job_seq_ HN_GUARDED_BY(job_mu_) = 0;
  bool shutdown_ HN_GUARDED_BY(job_mu_) = false;
  Job job_ HN_GUARDED_BY(job_mu_);

  std::size_t start_job(Job job);
  /// After a drain-mode job, main thread only: if every queue is empty,
  /// moves every shard's clock to the latest one.
  void settle_clocks();

  // ---- barrier + per-round coordinator state -----------------------------
  Mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  std::size_t barrier_waiting_ HN_GUARDED_BY(barrier_mu_) = 0;
  std::uint64_t barrier_phase_ HN_GUARDED_BY(barrier_mu_) = 0;
  Decision decisions_[2] HN_GUARDED_BY(barrier_mu_);
  /// Written by each shard before the reduce barrier (its own slot only —
  /// sharded-by-index, like counters_), read by the last arriver under
  /// barrier_mu_; the barrier itself orders the two.  Not lock-annotatable:
  /// the ownership contract is per-element, which the shard-affinity
  /// analyzer (not the mutex analysis) polices.
  std::vector<TimePoint> next_due_;
  std::vector<std::size_t> executed_;
  /// Coordinator-only (touched under barrier_mu_): whether an epoch
  /// ending exactly at the job target has completed, i.e. all clocks sit
  /// at the target and a final lbts > target means done.
  bool at_target_ HN_GUARDED_BY(barrier_mu_) = false;
  /// True between job start and final barrier.  Written by the main
  /// thread only while every worker is parked in the job_mu_ handshake;
  /// workers read it lock-free in post() during a run, after the
  /// handshake's happens-before edge, and it cannot change mid-run.
  bool running_ = false;
};

}  // namespace hydranet::sim
