#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
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
  // Advancing the generation invalidates both the stale bucket entry and
  // any TimerId still held by callers.
  slot.generation++;
  slot.armed = false;
  slot.cb = nullptr;
  slot.next_free = free_head_;
  free_head_ = index;
  assert(live_ > 0);
  live_--;
}

int Scheduler::level_for(std::uint64_t t) const {
  // The level is the highest 12-bit block in which t differs from now:
  // everything above it matches, so the bucket's slot index within that
  // block is reached before the clock leaves the enclosing span.
  std::uint64_t diff = t ^ static_cast<std::uint64_t>(now_.ns);
  if (diff == 0) return 0;
  return (63 - std::countl_zero(diff)) / kLevelBits;
}

void Scheduler::wheel_insert(const QEntry& entry) {
  if (wheel_.empty()) {  // first staging overflow: materialise the buckets
    HN_EFFECT_ESCAPE(
        "lazy one-time wheel materialisation: only the first staging "
        "overflow of the whole run pays this allocation")
    wheel_.resize(static_cast<std::size_t>(kLevels) * kWheelSlots);
    HN_EFFECT_ESCAPE_END()
  }
  const auto t = static_cast<std::uint64_t>(entry.time.ns);
  const int level = level_for(t);
  const auto slot_index =
      static_cast<std::uint32_t>((t >> (level * kLevelBits)) & kSlotMask);
  Bucket& b = bucket(level, slot_index);
  if (!b.entries.empty() && entry.seq < b.entries.back().seq) {
    b.unsorted = true;  // cascade appended behind a later schedule
  }
  HN_EFFECT_ESCAPE(
      "bucket vectors retain capacity across drains: push_back allocates "
      "only while a bucket grows past its all-time high-water mark")
  b.entries.push_back(entry);
  HN_EFFECT_ESCAPE_END()
  LevelOccupancy& occ = occupied_[level];
  occ.words[slot_index >> 6] |= 1ull << (slot_index & 63);
  occ.summary |= 1ull << (slot_index >> 6);
  level_mask_ |= 1u << level;
  wheel_inserts_++;
}

void Scheduler::reset_bucket(int level, std::uint32_t slot_index) {
  Bucket& b = bucket(level, slot_index);
  b.entries.clear();  // keeps capacity: steady state allocates nothing
  b.drained = 0;
  b.unsorted = false;
  LevelOccupancy& occ = occupied_[level];
  const std::uint32_t word = slot_index >> 6;
  occ.words[word] &= ~(1ull << (slot_index & 63));
  if (occ.words[word] == 0) {
    occ.summary &= ~(1ull << word);
    if (occ.summary == 0) level_mask_ &= ~(1u << level);
  }
}

void Scheduler::cascade(int level, std::uint32_t slot_index) {
  assert(level > 0);
  Bucket& b = bucket(level, slot_index);
  // Survivors re-insert strictly below `level` (now_ sits at this bucket's
  // boundary, so their remaining differing bits are all lower), never back
  // into this bucket — iterating in place is safe.
  for (std::size_t i = b.drained; i < b.entries.size(); ++i) {
    const QEntry& entry = b.entries[i];
    if (stale(entry)) continue;
    assert(level_for(static_cast<std::uint64_t>(entry.time.ns)) < level);
    wheel_insert(entry);
    wheel_cascades_++;
  }
  reset_bucket(level, slot_index);
}

void Scheduler::make_staging_room() {
  // Compaction first: the stale entries' slots were already recycled by
  // cancel(), so dropping them only closes the gaps.  The survivors keep
  // their order, and spill into the wheel only if every entry was live.
  staging_.erase(
      std::remove_if(staging_.begin(), staging_.end(),
                     [this](const QEntry& entry) { return stale(entry); }),
      staging_.end());
  if (staging_.size() >= kStagingCap) flush_staging();
}

void Scheduler::flush_staging() {
  // Back to front is (time, seq) ascending, so same-time entries reach
  // their level-0 bucket in seq order, behind everything already there
  // (wheel seqs are lower): a bucket draining right now, when a callback
  // overflowed the buffer, stays sorted past its cursor.  Stale entries
  // are dropped — cancel() already recycled their slots.
  for (auto it = staging_.rbegin(); it != staging_.rend(); ++it) {
    if (!stale(*it)) wheel_insert(*it);
  }
  staging_.clear();
}

void Scheduler::execute_staging() {
  const QEntry entry = staging_.back();
  // Pop before running the callback: it may schedule (inserting into
  // staging_) or trigger a flush re-entrantly.
  staging_.pop_back();
  Slot& slot = slots_[entry.slot];
  now_ = entry.time;
#if HYDRANET_INVARIANTS
  HN_EFFECT_ESCAPE(
      "invariant sink: reaches an effect only on protocol-violation abort, "
      "never on the healthy warm path (compiled out of Release)")
  check_execution(entry.time, entry.seq);
  HN_EFFECT_ESCAPE_END()
#endif
  Callback cb = std::move(slot.cb);
  release_slot(entry.slot);
  HN_EFFECT_ESCAPE(
      "event-callback dispatch: the callee is outside the scheduler's own "
      "effect contract (callbacks own their effects)")
  cb();
  HN_EFFECT_ESCAPE_END()
}

int Scheduler::find_first_occupied(int level, std::uint32_t pos) const {
  const LevelOccupancy& occ = occupied_[level];
  std::uint32_t word = pos >> 6;
  const std::uint64_t first = occ.words[word] & (~0ull << (pos & 63));
  if (first != 0) {
    return static_cast<int>(word * 64 +
                            static_cast<std::uint32_t>(std::countr_zero(first)));
  }
  if (word + 1 >= kSlotWords) return -1;
  const std::uint64_t rest = occ.summary & (~0ull << (word + 1));
  if (rest == 0) return -1;
  word = static_cast<std::uint32_t>(std::countr_zero(rest));
  return static_cast<int>(
      word * 64 + static_cast<std::uint32_t>(std::countr_zero(occ.words[word])));
}

Scheduler::NextDue Scheduler::find_next_due() {
  NextDue best;
  const auto now = static_cast<std::uint64_t>(now_.ns);
  // Scan occupied levels top down: on candidate-time ties the higher
  // level must win so its bucket cascades before any same-time level-0
  // event executes — the bucket may hold an earlier-scheduled entry due
  // at that very tick.
  for (std::uint32_t mask = level_mask_; mask != 0;) {
    const int level = 31 - std::countl_zero(mask);
    mask &= ~(1u << level);
    const int shift = level * kLevelBits;
    const auto pos = static_cast<std::uint32_t>((now >> shift) & kSlotMask);
    // Live entries always sit at or ahead of the clock's position within
    // their level (the clock never passes a bucket without draining it).
    const int found = find_first_occupied(level, pos);
    if (found < 0) continue;
    const auto slot_index = static_cast<std::uint32_t>(found);
    const int span_bits = shift + kLevelBits;
    const std::uint64_t high =
        span_bits >= 64 ? 0 : (now >> span_bits) << span_bits;
    std::uint64_t start =
        high | (static_cast<std::uint64_t>(slot_index) << shift);
    if (start < now) start = now;  // partially-consumed current bucket
    const auto candidate = static_cast<std::int64_t>(start);
    if (best.level < 0 || candidate < best.time) {
      best.time = candidate;
      best.level = level;
      best.slot = slot_index;
    }
  }
  // The staging buffer is sorted by (time, seq) descending: its minimum is
  // the back entry once stale (cancelled) ones are popped.  Staging
  // entries all have higher seqs than anything in the wheel, so strict <
  // resolves same-time ties wheel-first — exact global FIFO.
  while (!staging_.empty() && stale(staging_.back())) staging_.pop_back();
  if (!staging_.empty() &&
      (best.level < 0 || staging_.back().time.ns < best.time)) {
    best.time = staging_.back().time.ns;
    best.level = 0;
    best.slot = 0;
    best.staging = true;
  }
  return best;
}

std::size_t Scheduler::drain_due_bucket(std::uint32_t slot_index,
                                        bool single_step) {
  Bucket& b = bucket(0, slot_index);
  if (b.unsorted) {
    HN_EFFECT_ESCAPE(
        "one-time in-place re-sort of a cascade-disordered bucket: "
        "std::sort on a contiguous POD range, no allocation, amortised "
        "across every entry the bucket drains")
    std::sort(b.entries.begin() + b.drained, b.entries.end(),
              [](const QEntry& x, const QEntry& y) { return x.seq < y.seq; });
    HN_EFFECT_ESCAPE_END()
    b.unsorted = false;
  }
  std::size_t executed = 0;
  // Callbacks may schedule new same-tick events; they append to this very
  // bucket (with the highest seq so far) and are picked up by the re-check
  // of entries.size() each iteration.
  while (b.drained < b.entries.size()) {
    const QEntry entry = b.entries[b.drained++];
    if (stale(entry)) continue;
    Slot& slot = slots_[entry.slot];
    now_ = entry.time;
#if HYDRANET_INVARIANTS
    HN_EFFECT_ESCAPE(
        "invariant sink: reaches an effect only on protocol-violation "
        "abort, never on the healthy warm path (compiled out of Release)")
    check_execution(entry.time, entry.seq);
    HN_EFFECT_ESCAPE_END()
#endif
    // Move the callback out before recycling the slot: it may re-schedule
    // (growing the pool) or cancel other timers re-entrantly.
    Callback cb = std::move(slot.cb);
    release_slot(entry.slot);
    if (b.drained == b.entries.size()) {
      reset_bucket(0, slot_index);  // before cb(): its appends must survive
    }
    HN_EFFECT_ESCAPE(
        "event-callback dispatch: the callee is outside the scheduler's "
        "own effect contract (callbacks own their effects)")
    cb();
    HN_EFFECT_ESCAPE_END()
    ++executed;
    if (single_step) return executed;
  }
  reset_bucket(0, slot_index);
  return executed;
}

TimerId Scheduler::schedule_at(TimePoint t, Callback cb) HN_NONBLOCKING {
  assert(cb);
  if (t < now_) t = now_;  // clamp: "immediately" for past deadlines
  if (staging_.size() >= kStagingCap) {
    HN_EFFECT_ESCAPE(
        "full staging buffer: compaction erases in place within the "
        "reserved capacity; a spill moves entries into wheel buckets, whose "
        "one-time growth is sanctioned at the insert site")
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
  release_slot(index);  // the stale bucket entry is skipped on drain
}

bool Scheduler::run_next() HN_NONBLOCKING {
  while (live_ > 0) {
    const NextDue due = find_next_due();
    assert(due.level >= 0);
    if (due.level < 0) return false;  // unreachable while live_ > 0
    if (due.staging) {
      execute_staging();
      return true;
    }
    if (due.level > 0) {
      now_ = TimePoint{due.time};
      cascade(due.level, due.slot);
      continue;
    }
    if (drain_due_bucket(due.slot, /*single_step=*/true) > 0) return true;
    // Bucket held only cancelled entries; keep looking.
  }
  return false;
}

std::size_t Scheduler::run_until(TimePoint t) HN_NONBLOCKING {
  const std::size_t executed = run_through(t);
  if (now_ < t) now_ = t;
  return executed;
}

std::size_t Scheduler::run_through(TimePoint t) HN_NONBLOCKING {
  std::size_t executed = 0;
  while (live_ > 0) {
    const NextDue due = find_next_due();
    assert(due.level >= 0);
    if (due.level < 0) break;
    if (due.time > t.ns) break;
    if (due.staging) {
      execute_staging();
      ++executed;
      continue;
    }
    if (due.level > 0) {
      now_ = TimePoint{due.time};
      cascade(due.level, due.slot);
      continue;
    }
    executed += drain_due_bucket(due.slot, /*single_step=*/false);
  }
  return executed;
}

TimePoint Scheduler::next_due_lower_bound() {
  if (live_ == 0) return kTimePointMax;
  const NextDue due = find_next_due();
  if (due.level < 0) return kTimePointMax;  // unreachable while live_ > 0
  return TimePoint{due.time};
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && run_next()) ++executed;
  return executed;
}

}  // namespace hydranet::sim
