// Randomized differential test: the scheduler against a straightforward
// reference heap.  Both models consume an identical, pre-generated
// operation stream (schedule with a wide delta mixture, cancel of live and
// already-fired timers, run_until, run_next); the firing logs, clock, and
// pending counts must match exactly — including FIFO order among equal
// deadlines.  Further streams schedule and cancel from inside callbacks,
// hold an RTO-style live set on both sides of the staging buffer's
// capacity, and cancel most of a wave of spilled timers; all of them check
// that next_due() equals the reference's next event time at every step,
// the time the sharded engine's epochs rest on.
//
// The scheduler's own heap is ordered by the same (time, seq) key as the
// reference, so what these streams exercise is the machinery around it:
// the sorted staging buffer, its compaction and spills into the heap, the
// heap's own compaction, the choice between staging back and heap top, and
// slot generations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <queue>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/scheduler.hpp"

namespace hydranet::sim {
namespace {

/// One observed firing: which scheduled op fired, and at what clock value.
struct Firing {
  std::uint64_t label;
  std::int64_t at;
  bool operator==(const Firing&) const = default;
};

/// Reference model: a lazy-deletion min-heap ordered by (time, seq), the
/// exact semantics the scheduler must reproduce.  seq is the global schedule
/// order, shared with the real scheduler because both are driven in
/// lockstep.
class ReferenceScheduler {
 public:
  void schedule(std::int64_t time, std::uint64_t seq, std::uint64_t label) {
    heap_.push(Entry{time, seq, label});
    live_.insert(seq);
  }

  void cancel(std::uint64_t seq) { live_.erase(seq); }
  bool is_live(std::uint64_t seq) const { return live_.contains(seq); }
  std::size_t pending() const { return live_.size(); }
  std::int64_t now() const { return now_; }

  /// Time of the next event to fire, if any.
  std::optional<std::int64_t> next_time() {
    skip_dead();
    if (heap_.empty()) return std::nullopt;
    return heap_.top().time;
  }

  bool run_next(std::vector<Firing>& log) {
    skip_dead();
    if (heap_.empty()) return false;
    Entry e = heap_.top();
    heap_.pop();
    live_.erase(e.seq);
    now_ = e.time;
    log.push_back({e.label, e.time});
    return true;
  }

  void run_until(std::int64_t t, std::vector<Firing>& log) {
    for (;;) {
      skip_dead();
      if (heap_.empty() || heap_.top().time > t) break;
      Entry e = heap_.top();
      heap_.pop();
      live_.erase(e.seq);
      now_ = e.time;
      log.push_back({e.label, e.time});
    }
    if (now_ < t) now_ = t;
  }

 private:
  struct Entry {
    std::int64_t time;
    std::uint64_t seq;
    std::uint64_t label;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  void skip_dead() {
    while (!heap_.empty() && !live_.contains(heap_.top().seq)) heap_.pop();
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_set<std::uint64_t> live_;
  std::int64_t now_ = 0;
};

/// next_due() must be exactly the time of the next event to fire
/// (kTimePointMax when nothing is pending).
void expect_next_due_exact(Scheduler& real, ReferenceScheduler& ref) {
  const TimePoint due = real.next_due();
  const std::optional<std::int64_t> next = ref.next_time();
  if (!next) {
    EXPECT_EQ(due, kTimePointMax);
    return;
  }
  EXPECT_EQ(due.ns, *next) << "next_due is not the next event's time";
  EXPECT_GE(due.ns, real.now().ns) << "next_due precedes the clock";
}

/// Delta mixture spanning twelve orders of magnitude: zero delays
/// (same-tick FIFO), small deltas, values straddling powers of 64 (generic
/// stress around binary boundaries), mid-range and far-future deltas.
std::int64_t random_delta(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0:
      return 0;  // same tick: FIFO order must hold
    case 1:
    case 2:
      return static_cast<std::int64_t>(rng() % 64);  // near future
    case 3:
    case 4: {
      // Around a random power of 64: 64^k +/- small.
      int k = 1 + static_cast<int>(rng() % 5);
      std::int64_t boundary = std::int64_t{1} << (6 * k);
      std::int64_t jitter = static_cast<std::int64_t>(rng() % 128) - 64;
      return std::max<std::int64_t>(0, boundary + jitter);
    }
    case 5:
      return static_cast<std::int64_t>(rng() % 1'000'000);  // mid-range
    case 6:
      return static_cast<std::int64_t>(rng() % 1'000'000'000'000);  // far
    default:
      return -static_cast<std::int64_t>(rng() % 100);  // clamped to now
  }
}

void fuzz_one_seed(std::uint64_t seed, int ops) {
  std::mt19937_64 rng(seed);
  Scheduler real;
  ReferenceScheduler ref;
  std::vector<Firing> real_log;
  std::vector<Firing> ref_log;

  // Live handles by schedule order: (seq, TimerId) pairs for cancellation.
  struct Handle {
    std::uint64_t seq;
    TimerId id;
  };
  std::vector<Handle> handles;
  std::uint64_t next_seq = 0;
  std::int64_t sticky_time = -1;  // reused deadline to pile up equal times

  for (int op = 0; op < ops; ++op) {
    expect_next_due_exact(real, ref);
    std::uint64_t dice = rng() % 100;
    if (dice < 55) {
      // Schedule.  One in four reuses the previous absolute deadline so
      // several distinct schedule calls collide on one tick.
      std::int64_t delta = random_delta(rng);
      std::int64_t when = real.now().ns + std::max<std::int64_t>(0, delta);
      if (sticky_time >= real.now().ns && rng() % 4 == 0) {
        when = sticky_time;
      }
      sticky_time = when;
      std::uint64_t seq = next_seq++;
      std::uint64_t label = seq;
      TimerId id = real.schedule_at(
          TimePoint{when},
          [&real_log, &real, label] { real_log.push_back({label, real.now().ns}); });
      ref.schedule(when, seq, label);
      handles.push_back({seq, id});
    } else if (dice < 75) {
      // Cancel a random handle — possibly one that already fired, which
      // must be a harmless no-op on both sides.
      if (handles.empty()) continue;
      std::size_t pick = rng() % handles.size();
      Handle h = handles[pick];
      real.cancel(h.id);
      ref.cancel(h.seq);
      if (rng() % 2 == 0) {
        handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (dice < 90) {
      // Advance time by a random span (zero included: drains due events).
      std::int64_t span = random_delta(rng);
      TimePoint target{real.now().ns + std::max<std::int64_t>(0, span)};
      real.run_until(target);
      ref.run_until(target.ns, ref_log);
    } else {
      real.run_next();
      ref.run_next(ref_log);
    }

    ASSERT_EQ(real.now().ns, ref.now()) << "clock diverged at op " << op;
    ASSERT_EQ(real.pending(), ref.pending()) << "pending diverged at op " << op;
    ASSERT_EQ(real_log.size(), ref_log.size()) << "log length at op " << op;
  }

  // Drain everything still pending and compare the complete firing logs.
  while (real.run_next()) {
  }
  while (ref.run_next(ref_log)) {
  }
  ASSERT_EQ(real_log.size(), ref_log.size());
  for (std::size_t i = 0; i < real_log.size(); ++i) {
    ASSERT_EQ(real_log[i].label, ref_log[i].label) << "order diverged at " << i;
    ASSERT_EQ(real_log[i].at, ref_log[i].at) << "fire time diverged at " << i;
  }
  EXPECT_EQ(real.pending(), 0u);
  EXPECT_EQ(real.now().ns, ref.now());
}

TEST(SchedulerFuzz, MatchesReferenceHeapAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 42ull, 1234ull, 987654321ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fuzz_one_seed(seed, 20000);
  }
}

// Dense equal-time collisions: hundreds of events on a handful of ticks,
// interleaved with cancels, must still fire in exact schedule order.
TEST(SchedulerFuzz, EqualTimeStressKeepsFifo) {
  std::mt19937_64 rng(7);
  Scheduler real;
  ReferenceScheduler ref;
  std::vector<Firing> real_log;
  std::vector<Firing> ref_log;
  std::vector<std::pair<std::uint64_t, TimerId>> handles;

  const std::int64_t ticks[] = {0, 1, 63, 64, 65, 4096, 4097};
  for (std::uint64_t seq = 0; seq < 600; ++seq) {
    std::int64_t when = ticks[rng() % std::size(ticks)];
    TimerId id = real.schedule_at(
        TimePoint{when},
        [&real_log, &real, seq] { real_log.push_back({seq, real.now().ns}); });
    ref.schedule(when, seq, seq);
    handles.emplace_back(seq, id);
  }
  for (int i = 0; i < 150; ++i) {
    auto& [seq, id] = handles[rng() % handles.size()];
    real.cancel(id);
    ref.cancel(seq);
  }
  real.run_until(TimePoint{5000});
  ref.run_until(5000, ref_log);
  ASSERT_EQ(real_log.size(), ref_log.size());
  for (std::size_t i = 0; i < real_log.size(); ++i) {
    ASSERT_EQ(real_log[i].label, ref_log[i].label) << "at " << i;
    ASSERT_EQ(real_log[i].at, ref_log[i].at) << "at " << i;
  }
  EXPECT_EQ(real.pending(), 0u);
}

// Timers re-armed from inside callbacks (the RTO pattern) with periods
// growing over fifteen orders of magnitude; a self-rescheduling chain must
// tick precisely.
TEST(SchedulerFuzz, SelfReschedulingChainAdvancesExactly) {
  // Growing-period recurrence, computed in uint64 and masked to 50 bits so
  // it spans a wide range of deadlines without signed overflow.
  constexpr auto next_period = [](std::uint64_t p) {
    return (p * 3 + 1) & ((std::uint64_t{1} << 50) - 1);
  };
  Scheduler s;
  int fired = 0;
  std::uint64_t period = 1;
  std::function<void()> step = [&] {
    ++fired;
    period = next_period(period);
    if (fired < 40) {
      s.schedule_after(Duration{static_cast<std::int64_t>(period)},
                       [&] { step(); });
    }
  };
  s.schedule_after(Duration{0}, [&] { step(); });
  s.run();
  EXPECT_EQ(fired, 40);
  std::uint64_t expect = 0;
  std::uint64_t p = 1;
  for (int i = 1; i < 40; ++i) {
    p = next_period(p);
    expect += p;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(s.now().ns), expect);
  EXPECT_EQ(s.pending(), 0u);
}

/// Drives the scheduler and the reference in lockstep for streams whose
/// callbacks schedule and cancel re-entrantly.  Every schedule and cancel
/// goes to both models, and each firing is checked against the reference
/// the moment it happens, before its callback touches either model; every
/// step first checks next_due().
class Lockstep {
 public:
  /// Runs inside the firing's callback, after the check.
  using Action = std::function<void()>;

  std::int64_t now() const { return real_.now().ns; }
  std::size_t pending() const { return ref_.pending(); }
  const Scheduler& real() const { return real_; }

  /// Schedules at absolute time `when` (clamped to now) on both models;
  /// returns the event's seq.
  std::uint64_t schedule(std::int64_t when, Action then = {}) {
    when = std::max(when, now());
    const std::uint64_t seq = ids_.size();
    ids_.push_back(real_.schedule_at(
        TimePoint{when}, [this, seq, then = std::move(then)] {
          fired(seq);
          if (then) then();
        }));
    ref_.schedule(when, seq, seq);
    return seq;
  }

  void cancel(std::uint64_t seq) {
    real_.cancel(ids_[seq]);
    ref_.cancel(seq);
  }

  bool run_next() {
    expect_next_due_exact(real_, ref_);
    const bool ran = real_.run_next();
    if (!ran) {
      EXPECT_EQ(ref_.pending(), 0u) << "scheduler ran dry early";
    }
    EXPECT_EQ(real_.pending(), ref_.pending());
    return ran;
  }

  void run_until(std::int64_t t) {
    expect_next_due_exact(real_, ref_);
    real_.run_until(TimePoint{t});
    const std::size_t fired = log_.size();
    ref_.run_until(t, log_);  // its firings all happened through fired()
    EXPECT_EQ(log_.size(), fired) << "scheduler skipped a due event";
    EXPECT_EQ(now(), ref_.now());
    EXPECT_EQ(real_.pending(), ref_.pending());
  }

  /// Runs both dry; callbacks must stop re-arming first.
  void drain() {
    while (run_next() && !::testing::Test::HasFailure()) {
    }
  }

 private:
  void fired(std::uint64_t seq) {
    ASSERT_TRUE(ref_.run_next(log_)) << "fired " << seq << " past the end";
    EXPECT_EQ(log_.back().label, seq) << "order diverged";
    EXPECT_EQ(log_.back().at, now()) << "fire time diverged";
  }

  Scheduler real_;
  ReferenceScheduler ref_;
  std::vector<TimerId> ids_;  // by seq
  std::vector<Firing> log_;
};

// Callbacks schedule and cancel re-entrantly while the live set swings
// across the staging capacity: growth phases schedule more than they
// retire until 2.5x the capacity is live, shrink phases retire until 32
// are left.
TEST(SchedulerFuzz, ReentrantScheduleAndCancelMatchReference) {
  for (std::uint64_t seed : {5ull, 17ull, 2024ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Lockstep both;
    std::vector<std::uint64_t> seqs;  // everything scheduled: cancel picks
    bool growing = true;
    bool quiet = false;
    Lockstep::Action react = [&] {
      if (quiet) return;
      if (growing && both.pending() > Scheduler::kStagingCap * 5 / 2) {
        growing = false;
      } else if (!growing && both.pending() < 32) {
        growing = true;
      }
      const std::uint64_t schedules = growing ? 1 + rng() % 3 : rng() % 2;
      for (std::uint64_t i = 0; i < schedules; ++i) {
        seqs.push_back(both.schedule(both.now() + random_delta(rng), react));
      }
      const std::uint64_t cancels = growing ? rng() % 2 : rng() % 3;
      for (std::uint64_t i = 0; i < cancels; ++i) {
        both.cancel(seqs[rng() % seqs.size()]);
      }
    };
    for (int i = 0; i < 64; ++i) {
      seqs.push_back(both.schedule(random_delta(rng), react));
    }
    for (int step = 0; step < 20000 && !HasFailure(); ++step) {
      if (rng() % 8 == 0) {
        both.run_until(both.now() + static_cast<std::int64_t>(rng() % 256));
      } else if (!both.run_next()) {
        seqs.push_back(both.schedule(both.now() + random_delta(rng), react));
      }
    }
    EXPECT_GT(both.real().wheel_inserts(), 0u) << "never left the buffer";
    quiet = true;
    both.drain();
    EXPECT_EQ(both.real().pending(), 0u);
  }
}

// The FT chain's retransmission-timer pattern: each step cancels one
// connection's RTO and re-arms it far ahead, and so does each short-lived
// link event when it fires, while the open connections ramp between 32 and
// twice the staging capacity.  Every re-arm leaves a cancelled entry
// behind, and some RTOs expire and re-arm themselves from their own
// callback.
TEST(SchedulerFuzz, RtoRearmStreamAcrossStagingCapacityMatchesReference) {
  constexpr std::size_t kFew = 32;
  constexpr std::size_t kMany = 2 * Scheduler::kStagingCap;
  std::mt19937_64 rng(11);
  Lockstep both;
  std::vector<std::uint64_t> armed;  // by connection id: its RTO's seq
  std::vector<std::size_t> open;     // ids of the open connections
  bool closing = false;
  int expired = 0;
  std::function<void(std::size_t)> arm = [&](std::size_t conn) {
    const auto rto = static_cast<std::int64_t>(1'000'000 + rng() % 2'000'000);
    armed[conn] = both.schedule(both.now() + rto, [&, conn] {
      ++expired;
      if (!closing) arm(conn);
    });
  };
  auto rearm_one = [&] {
    const std::size_t conn = open[rng() % open.size()];
    both.cancel(armed[conn]);
    arm(conn);
  };
  for (std::size_t conn = 0; conn < kFew; ++conn) {
    open.push_back(conn);
    armed.push_back(0);
    arm(conn);
  }
  bool growing = true;
  for (int step = 0; step < 30000 && !HasFailure(); ++step) {
    if (growing) {
      open.push_back(armed.size());
      armed.push_back(0);
      arm(open.back());
      growing = open.size() < kMany;
    } else {
      const std::size_t pick = rng() % open.size();
      both.cancel(armed[open[pick]]);
      open[pick] = open.back();
      open.pop_back();
      growing = open.size() <= kFew;
    }
    // An ACK in flight: its arrival re-arms some connection's RTO.
    both.schedule(both.now() + 1'000 + static_cast<std::int64_t>(rng() % 9'000),
                  [&] {
                    if (!closing) rearm_one();
                  });
    rearm_one();
    if (step % 4 == 0) {
      both.run_next();
    } else {
      both.run_until(both.now() + 5'000);
    }
    ASSERT_GE(both.pending(), kFew);
    ASSERT_LE(both.pending(), kMany + 8);
  }
  EXPECT_GT(both.real().wheel_inserts(), 0u) << "never left the buffer";
  EXPECT_GT(expired, 0) << "no RTO ever expired";
  closing = true;
  both.drain();
  EXPECT_EQ(both.real().pending(), 0u);
}

// A wave of connections opens and mostly closes again: each round
// schedules four buffers' worth of far-future timers, so the buffer
// spills into the heap, then cancels about 15 in 16 of them.  The next
// round's first spill finds the heap holding more than twice the live
// count, so it drops the heap's cancelled entries and rebuilds the heap
// before near-future events interleave with the survivors.
TEST(SchedulerFuzz, MassCancelBehindStagingBufferMatchesReference) {
  std::mt19937_64 rng(29);
  Lockstep both;
  std::vector<std::uint64_t> wave;
  for (int round = 0; round < 40 && !HasFailure(); ++round) {
    wave.clear();
    for (std::size_t i = 0; i < 4 * Scheduler::kStagingCap; ++i) {
      const auto delay = static_cast<std::int64_t>(rng() % 1'000'000);
      wave.push_back(both.schedule(both.now() + 1'000'000 + delay));
    }
    for (std::uint64_t seq : wave) {
      if (rng() % 16 != 0) both.cancel(seq);
    }
    for (int step = 0; step < 200; ++step) {
      both.schedule(both.now() + static_cast<std::int64_t>(rng() % 5'000));
      if (step % 3 == 0) {
        both.run_until(both.now() + 2'000);
      } else {
        both.run_next();
      }
    }
  }
  EXPECT_GT(both.real().wheel_inserts(), 0u) << "never left the buffer";
  both.drain();
  EXPECT_EQ(both.real().pending(), 0u);
}

}  // namespace
}  // namespace hydranet::sim
