#include "sim/shard.hpp"

#include <algorithm>
#include <cassert>

namespace hydranet::sim {

namespace {

/// lbts + W without signed overflow near the sentinel.
TimePoint saturating_add(TimePoint t, Duration d) {
  if (t.ns > INT64_MAX - d.ns) return kTimePointMax;
  return t + d;
}

/// The scheduler of the shard running on this thread (null outside a run).
thread_local Scheduler* t_shard = nullptr;

}  // namespace

Scheduler* ShardEngine::current_scheduler() { return t_shard; }

ShardEngine::ShardEngine(Config config) {
  const std::size_t n = config.shards == 0 ? 1 : config.shards;
  schedulers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    schedulers_.push_back(std::make_unique<Scheduler>());
  }
  counters_.resize(n);
  next_due_.resize(n);
  executed_.resize(n);
  mailboxes_.resize(n * n);
  for (Mailbox& mb : mailboxes_) mb.reserve(kMailboxCapacity);
  // Shard 0 runs on the caller's thread; 1..n-1 get dedicated workers.
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ShardEngine::~ShardEngine() {
  {
    LockGuard lock(job_mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ShardEngine::observe_cross_shard_latency(Duration d) {
  assert(!running_);
  assert(d.ns > 0 && "cross-shard links need positive propagation delay");
  lookahead_ = std::min(lookahead_, d);
}

void ShardEngine::post(std::size_t from, std::size_t to, TimePoint at,
                       Scheduler::Callback cb) HN_NONBLOCKING {
  if (!running_ || from == to) {
    // Engine idle (topology building, between-run injection) or local:
    // straight onto the destination scheduler.
    schedulers_[to]->schedule_at(at, std::move(cb));
    return;
  }
  counters_[from].mailbox_posted++;
  Mailbox& mb = mailbox(from, to);
  if (mb.size() >= kMailboxCapacity) counters_[from].mailbox_overflows++;
  HN_EFFECT_ESCAPE(
      "push within the capacity reserved at construction never "
      "reallocates; a post past it (counted in shard.mailbox.overflows) "
      "grows the vector, which keeps the capacity for later epochs")
  mb.push_back({at, std::move(cb)});
  HN_EFFECT_ESCAPE_END()
}

std::size_t ShardEngine::drain_inboxes(std::size_t shard) HN_NONBLOCKING {
  Scheduler& sched = *schedulers_[shard];
  std::size_t drained = 0;
  // Fixed source order keeps scheduling seqs — and therefore same-time
  // FIFO ties — deterministic across runs.
  for (std::size_t src = 0; src < schedulers_.size(); ++src) {
    if (src == shard) continue;
    Mailbox& mb = mailbox(src, shard);
    for (Message& msg : mb) {
      // Conservative-sync safety: a message may never land in the
      // receiver's past.  (Lookahead guarantees at >= epoch_end; the
      // receiver's clock is at most the last epoch_end.)
      assert(msg.at >= sched.now());
      sched.schedule_at(msg.at, std::move(msg.cb));
      ++drained;
    }
    mb.clear();  // keeps capacity
  }
  counters_[shard].mailbox_drained += drained;
  return drained;
}

void ShardEngine::participate(std::size_t shard, Job job) {
  Scheduler& sched = *schedulers_[shard];
  t_shard = &sched;
  while (true) {
    // Drain phase: producers are quiescent (they sit between the post-run
    // barrier of the previous round and this round's reduce barrier).
    drain_inboxes(shard);
    next_due_[shard] = sched.next_due();
    const Decision decision = barrier([&](Decision& d) {
      TimePoint lbts = kTimePointMax;
      for (TimePoint due : next_due_) lbts = std::min(lbts, due);
      if (job.drain_mode) {
        std::size_t total = 0;
        for (std::size_t e : executed_) total += e;
        if (lbts == kTimePointMax || total >= job.max_events) {
          d.finished = true;
        } else {
          d.epoch_end = saturating_add(lbts, lookahead_);
        }
      } else {
        if (at_target_ && lbts > job.target) {
          d.finished = true;
        } else {
          d.epoch_end = std::min(job.target, saturating_add(lbts, lookahead_));
          at_target_ = d.epoch_end == job.target;
        }
      }
    });
    if (decision.finished) break;
    counters_[shard].epochs++;
    std::size_t ran;
    if (!job.drain_mode) {
      ran = sched.run_until(decision.epoch_end);
    } else if (decision.epoch_end == kTimePointMax) {
      // No cross-shard links: drain to empty without teleporting the
      // clock to the sentinel.
      ran = sched.run(job.max_events);
    } else {
      // The clock stays at this shard's latest event, not the epoch
      // boundary, so the drain can end where one shard would (settle_clocks).
      ran = sched.run_through(decision.epoch_end);
    }
    executed_[shard] += ran;
    counters_[shard].events += ran;
    // Post-run barrier: every cross-shard post of this epoch is complete
    // (and visible) before any shard drains again.
    barrier();
  }
  t_shard = nullptr;
}

void ShardEngine::worker_main(std::size_t shard) {
  std::uint64_t seen = 0;
  while (true) {
    Job job;
    {
      UniqueLock lock(job_mu_);
      // Explicit wait loop: a predicate lambda would read the guarded
      // fields from a scope the thread-safety analysis cannot see into.
      while (!shutdown_ && job_seq_ == seen) job_cv_.wait(lock.native());
      if (shutdown_) return;
      seen = job_seq_;
      job = job_;  // copied under the lock; stable for the whole job
    }
    participate(shard, job);
  }
}

std::size_t ShardEngine::start_job(Job job) {
  assert(!running_ && "the engine does not support re-entrant runs");
  {
    // Coordinator state is only ever touched under barrier_mu_.
    LockGuard lock(barrier_mu_);
    at_target_ = false;
  }
  std::fill(executed_.begin(), executed_.end(), 0);
  running_ = true;
  {
    LockGuard lock(job_mu_);
    job_ = job;
    ++job_seq_;
  }
  job_cv_.notify_all();
  participate(0, job);
  running_ = false;
  if (job.drain_mode) settle_clocks();
  std::size_t total = 0;
  for (std::size_t e : executed_) total += e;
  return total;
}

void ShardEngine::settle_clocks() {
  // Every worker passed the final barrier and no longer touches its
  // scheduler; that barrier orders their writes before these reads.
  TimePoint latest{};
  for (const auto& sched : schedulers_) {
    if (sched->pending() > 0) return;  // the watchdog stopped the drain
    latest = std::max(latest, sched->now());
  }
  // Every queue is empty, so this only moves the lagging clocks.
  for (const auto& sched : schedulers_) sched->run_until(latest);
}

std::size_t ShardEngine::run_until(TimePoint t) {
  if (schedulers_.size() == 1) {
    // Single shard: byte-identical to the pre-sharding engine — same
    // scheduler, same thread, no epochs, no mailboxes.
    const std::size_t ran = schedulers_[0]->run_until(t);
    counters_[0].events += ran;
    return ran;
  }
  return start_job(Job{t, /*drain_mode=*/false, SIZE_MAX});
}

std::size_t ShardEngine::run(std::size_t max_events) {
  if (schedulers_.size() == 1) {
    const std::size_t ran = schedulers_[0]->run(max_events);
    counters_[0].events += ran;
    return ran;
  }
  return start_job(Job{kTimePointMax, /*drain_mode=*/true, max_events});
}

ShardEngine::Counters ShardEngine::counters_total() const {
  Counters total;
  for (const Counters& c : counters_) {
    total.events += c.events;
    total.epochs += c.epochs;
    total.mailbox_posted += c.mailbox_posted;
    total.mailbox_drained += c.mailbox_drained;
    total.mailbox_overflows += c.mailbox_overflows;
  }
  return total;
}

}  // namespace hydranet::sim
