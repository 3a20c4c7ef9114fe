#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "verify/invariant.hpp"

namespace hydranet::sim {

#if HYDRANET_INVARIANTS
void Scheduler::check_execution(TimePoint t, std::uint64_t seq) {
  HN_INVARIANT(sched_order, !any_executed_ || t >= last_exec_time_,
               "event fire time regressed: %lld ns after %lld ns",
               static_cast<long long>(t.ns),
               static_cast<long long>(last_exec_time_.ns));
  HN_INVARIANT(sched_order,
               !any_executed_ || t > last_exec_time_ || seq > last_exec_seq_,
               "FIFO tie broken at %lld ns: seq %llu executed after %llu",
               static_cast<long long>(t.ns),
               static_cast<unsigned long long>(seq),
               static_cast<unsigned long long>(last_exec_seq_));
  any_executed_ = true;
  last_exec_time_ = t;
  last_exec_seq_ = seq;
}
#endif

Scheduler::Scheduler() { staging_.reserve(kStagingCap); }

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNoFreeSlot;
    return index;
  }
  HN_EFFECT_ESCAPE(
      "slot-pool grow: amortised one-time — slots recycle through the free "
      "list, so the steady state never reaches this line")
  slots_.emplace_back();
  HN_EFFECT_ESCAPE_END()
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  // Advancing the generation invalidates both the event's queue entry and
  // any TimerId still held by callers.
  slot.generation++;
  slot.armed = false;
  slot.cb = nullptr;
  slot.next_free = free_head_;
  free_head_ = index;
  assert(live_ > 0);
  live_--;
}

void Scheduler::make_staging_room() {
  // Compaction first: the stale entries' slots were already recycled by
  // cancel(), so dropping them only closes the gaps.  The survivors keep
  // their order, and spill into the heap only if every entry was live.
  std::erase_if(staging_, [this](const QEntry& e) { return stale(e); });
  if (staging_.size() < kStagingCap) return;
  // Cancelled heap entries otherwise leave only when they reach the top;
  // dropping them here keeps the heap within twice the live set.
  if (heap_.size() > 2 * live_) {
    std::erase_if(heap_, [this](const QEntry& e) { return stale(e); });
    std::make_heap(heap_.begin(), heap_.end(), later);
  }
  for (const QEntry& entry : staging_) {
    HN_EFFECT_ESCAPE(
        "the heap keeps its capacity: push_back allocates only while the "
        "spilled live set grows past its all-time high-water mark")
    heap_.push_back(entry);
    HN_EFFECT_ESCAPE_END()
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  heap_inserts_ += staging_.size();
  staging_.clear();
}

const Scheduler::QEntry& Scheduler::peek() {
  assert(live_ > 0);
  while (!staging_.empty() && stale(staging_.back())) staging_.pop_back();
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
  if (!heap_.empty() &&
      (staging_.empty() || later(staging_.back(), heap_.front()))) {
    return heap_.front();
  }
  return staging_.back();
}

void Scheduler::execute(const QEntry& next) {
  const QEntry entry = next;
  // Pop before running the callback: it may schedule (inserting into
  // staging_) or trigger a spill re-entrantly.
  if (!staging_.empty() && &next == &staging_.back()) {
    staging_.pop_back();
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
  Slot& slot = slots_[entry.slot];
  now_ = entry.time;
#if HYDRANET_INVARIANTS
  HN_EFFECT_ESCAPE(
      "invariant sink: reaches an effect only on protocol-violation abort, "
      "never on the healthy warm path (compiled out of Release)")
  check_execution(entry.time, entry.seq);
  HN_EFFECT_ESCAPE_END()
#endif
  // Move the callback out before recycling the slot: it may re-schedule
  // (growing the pool) or cancel other timers re-entrantly.
  Callback cb = std::move(slot.cb);
  release_slot(entry.slot);
  HN_EFFECT_ESCAPE(
      "event-callback dispatch: the callee is outside the scheduler's own "
      "effect contract (callbacks own their effects)")
  cb();
  HN_EFFECT_ESCAPE_END()
}

TimerId Scheduler::schedule_at(TimePoint t, Callback cb) HN_NONBLOCKING {
  assert(cb);
  if (t < now_) t = now_;  // clamp: "immediately" for past deadlines
  if (staging_.size() >= kStagingCap) {
    HN_EFFECT_ESCAPE(
        "full staging buffer: compaction erases in place within the "
        "reserved capacity; a spill moves entries into the heap, whose "
        "growth is sanctioned at the insert site")
    make_staging_room();
    HN_EFFECT_ESCAPE_END()
  }
  std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  slot.armed = true;
  // Keep staging sorted by (time, seq) descending: this entry has the
  // highest seq so far, so it goes behind every entry due later and in
  // front of every entry due at or before t (only those shift).
  const QEntry entry{t, next_seq_++, index, slot.generation};
  HN_EFFECT_ESCAPE(
      "staging capacity is pinned at kStagingCap and reserved at "
      "construction, and a full buffer was emptied above: push_back/insert "
      "below never reallocate")
  if (staging_.empty() || t.ns < staging_.back().time.ns) {
    staging_.push_back(entry);  // due before everything staged
  } else {
    auto it = std::partition_point(
        staging_.begin(), staging_.end(),
        [t](const QEntry& e) { return e.time.ns > t.ns; });
    staging_.insert(it, entry);
  }
  HN_EFFECT_ESCAPE_END()
  live_++;
  return make_id(index, slot.generation);
}

TimerId Scheduler::schedule_after(Duration d, Callback cb) HN_NONBLOCKING {
  if (d.ns < 0) d = Duration{0};
  return schedule_at(now_ + d, std::move(cb));
}

void Scheduler::cancel(TimerId id) HN_NONBLOCKING {
  if (id == kInvalidTimer) return;
  std::uint32_t index = static_cast<std::uint32_t>(id >> 32) - 1;
  std::uint32_t generation = static_cast<std::uint32_t>(id);
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  if (!slot.armed || slot.generation != generation) return;  // already fired
  release_slot(index);  // the stale queue entry is skipped when found
}

bool Scheduler::run_next() HN_NONBLOCKING {
  if (live_ == 0) return false;
  execute(peek());
  return true;
}

std::size_t Scheduler::run_until(TimePoint t) HN_NONBLOCKING {
  const std::size_t executed = run_through(t);
  if (now_ < t) now_ = t;
  return executed;
}

std::size_t Scheduler::run_through(TimePoint t) HN_NONBLOCKING {
  std::size_t executed = 0;
  while (live_ > 0) {
    const QEntry& next = peek();
    if (next.time > t) break;
    execute(next);
    ++executed;
  }
  return executed;
}

TimePoint Scheduler::next_due() {
  return live_ == 0 ? kTimePointMax : peek().time;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && run_next()) ++executed;
  return executed;
}

}  // namespace hydranet::sim
