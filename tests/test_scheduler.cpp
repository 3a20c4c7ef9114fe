// Unit tests for the discrete-event scheduler.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sim/scheduler.hpp"

namespace hydranet::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint{300}, [&] { order.push_back(3); });
  s.schedule_at(TimePoint{100}, [&] { order.push_back(1); });
  s.schedule_at(TimePoint{200}, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now().ns, 300);
}

TEST(Scheduler, EqualTimesRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(TimePoint{50}, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  TimePoint fired{};
  s.schedule_at(TimePoint{1000}, [&] {
    s.schedule_after(Duration{500}, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired.ns, 1500);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  TimerId id = s.schedule_at(TimePoint{100}, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelIsIdempotentAndSafeAfterFire) {
  Scheduler s;
  int count = 0;
  TimerId id = s.schedule_at(TimePoint{10}, [&] { count++; });
  s.run();
  s.cancel(id);  // already fired: harmless
  s.cancel(id);
  s.cancel(kInvalidTimer);
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler s;
  std::vector<std::int64_t> fired;
  for (int i = 1; i <= 5; ++i) {
    s.schedule_at(TimePoint{i * 100}, [&fired, &s] { fired.push_back(s.now().ns); });
  }
  std::size_t executed = s.run_until(TimePoint{250});
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(s.now().ns, 250);
  EXPECT_EQ(s.pending(), 3u);
  s.run();
  EXPECT_EQ(fired.size(), 5u);
}

TEST(Scheduler, EventsScheduledDuringRunAreHonoured) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_after(Duration{1}, recurse);
  };
  s.schedule_at(TimePoint{0}, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now().ns, 99);
}

TEST(Scheduler, RunRespectsMaxEvents) {
  Scheduler s;
  std::function<void()> forever = [&] { s.schedule_after(Duration{1}, forever); };
  s.schedule_at(TimePoint{0}, forever);
  std::size_t executed = s.run(1000);
  EXPECT_EQ(executed, 1000u);
  EXPECT_GE(s.pending(), 1u);
}

TEST(Scheduler, PastDeadlinesClampToNow) {
  Scheduler s;
  s.schedule_at(TimePoint{100}, [] {});
  s.run();
  bool fired = false;
  s.schedule_at(TimePoint{50}, [&] { fired = true; });  // in the past
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now().ns, 100);
}

TEST(Scheduler, NegativeDelayClampsToZero) {
  Scheduler s;
  bool fired = false;
  s.schedule_after(Duration{-500}, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now().ns, 0);
}

TEST(Time, ArithmeticAndComparisons) {
  TimePoint t{1000};
  Duration d = milliseconds(1);
  EXPECT_EQ((t + d).ns, 1000 + 1000000);
  EXPECT_EQ(((t + d) - t).ns, d.ns);
  EXPECT_LT(t, t + d);
  EXPECT_EQ(seconds(2).ns, 2000000000);
  EXPECT_DOUBLE_EQ(seconds(3).seconds(), 3.0);
  EXPECT_EQ(seconds_f(0.5).ns, 500000000);
}

/// Holds `live` far-future timers and, `steps` times, cancels a random one
/// and re-arms it next to a short-lived event that fires at once (the RTO
/// plus link-timer pattern).  The cancelled entry is rarely the next due,
/// so it stays behind in the staging buffer.  Returns the entries spilled
/// into the heap.
std::uint64_t wheel_inserts_holding(std::size_t live, int steps) {
  Scheduler s;
  std::mt19937_64 rng(1);
  std::vector<TimerId> timers;
  for (std::size_t i = 0; i < live; ++i) {
    timers.push_back(s.schedule_after(seconds(1), [] {}));
  }
  for (int step = 0; step < steps; ++step) {
    TimerId& timer = timers[rng() % live];
    s.cancel(timer);
    timer = s.schedule_after(seconds(1), [] {});
    s.schedule_after(microseconds(1), [] {});
    s.run_until(s.now() + microseconds(1));
  }
  EXPECT_EQ(s.pending(), live);
  return s.wheel_inserts();
}

// A live set below the staging capacity never reaches the heap however
// many cancelled entries the churn leaves behind: a full buffer compacts
// them out instead of spilling.  Above the capacity the heap takes over.
TEST(Scheduler, LiveSetBelowStagingCapacityNeverSpills) {
  EXPECT_EQ(wheel_inserts_holding(Scheduler::kStagingCap - 16, 20000), 0u);
  EXPECT_GT(wheel_inserts_holding(Scheduler::kStagingCap + 16, 20000), 0u);
}

}  // namespace
}  // namespace hydranet::sim
