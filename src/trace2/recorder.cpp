#include "trace2/recorder.hpp"

#include <cassert>

#include "sim/scheduler.hpp"

namespace hydranet::trace2 {

namespace {

#if HYDRANET_TRACING
// The ambient context is an implicit argument of the *current execution
// context*: each shard thread dispatches its own events, so the value is
// per-thread state.  Cross-shard parentage does not flow through it — it
// rides inside the packet (`datagram.trace_ctx`) through the mailboxes.
thread_local std::uint64_t g_ambient_ctx = 0;
#endif

// Span ids encode (host, per-host sequence): the host's ring index (+1,
// so id 0 stays "no span") in the top 16 bits, the host's monotonically
// increasing sequence below.  Both inputs are deterministic in a
// deterministic simulation, so ids are reproducible across runs.
constexpr int kNodeShift = 48;

}  // namespace

#if HYDRANET_TRACING
std::uint64_t current_ctx() { return g_ambient_ctx; }

ScopedCtx::ScopedCtx(std::uint64_t ctx) : previous_(g_ambient_ctx) {
  g_ambient_ctx = ctx;
}

ScopedCtx::~ScopedCtx() { g_ambient_ctx = previous_; }
#endif

HostRing::HostRing(std::string node, sim::Scheduler& scheduler,
                   std::uint16_t index, std::size_t capacity,
                   std::size_t sample_every)
    : node_(std::move(node)),
      scheduler_(scheduler),
      index_(index),
      capacity_(capacity),
      sample_every_(sample_every) {
  // Reserved up front so the record path below never allocates.
  records_.reserve(capacity_);
}

std::uint64_t HostRing::next_id() {
  return (static_cast<std::uint64_t>(index_) + 1) << kNodeShift | ++seq_;
}

std::uint64_t HostRing::begin_root() {
  if (roots_seen_++ % sample_every_ != 0) return 0;
  roots_sampled_++;
  return next_id();
}

std::uint64_t HostRing::begin_child(std::uint64_t parent) {
  if (parent == 0) return 0;
  return next_id();
}

void HostRing::commit(std::uint64_t id, std::uint64_t parent,
                      const char* name, sim::TimePoint start, std::uint32_t a,
                      std::uint32_t b) {
  commit_at(id, parent, name, start, scheduler_.now(), a, b);
}

void HostRing::commit_at(std::uint64_t id, std::uint64_t parent,
                         const char* name, sim::TimePoint start,
                         sim::TimePoint end, std::uint32_t a,
                         std::uint32_t b) {
  if (id == 0) return;
  assert(id >> kNodeShift == static_cast<std::uint64_t>(index_) + 1 &&
         "a span is committed to the ring that numbered it");
  SpanRecord record{id, parent, start, end, name, index_, a, b};
  if (records_.size() < capacity_) {
    records_.push_back(record);
  } else {
    // Ring full: flight-recorder semantics — overwrite the oldest.
    records_[next_] = record;
    next_ = (next_ + 1) % capacity_;
    spans_dropped_++;
  }
  spans_recorded_++;
}

Recorder::Recorder(Config config) : config_(config) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  if (config_.sample_every == 0) config_.sample_every = 1;
}

HostRing& Recorder::add_ring(std::string node, sim::Scheduler& scheduler) {
  assert(rings_.size() < (1u << 16) - 1 && "span ids carry a 16-bit host");
  const auto index = static_cast<std::uint16_t>(rings_.size());
  rings_.push_back(std::unique_ptr<HostRing>(
      new HostRing(std::move(node), scheduler, index, config_.ring_capacity,
                   config_.sample_every)));
  return *rings_.back();
}

std::uint64_t Recorder::sum(std::uint64_t HostRing::*counter) const {
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += (*ring).*counter;
  return total;
}

std::vector<SpanRecord> Recorder::snapshot() const {
  std::vector<SpanRecord> out;
  std::size_t total = 0;
  for (const auto& ring : rings_) total += ring->records_.size();
  out.reserve(total);
  for (const auto& ring : rings_) {
    const std::vector<SpanRecord>& records = ring->records_;
    // `next_` is the oldest surviving record once the ring has wrapped.
    for (std::size_t i = 0; i < records.size(); ++i) {
      out.push_back(records[(ring->next_ + i) % records.size()]);
    }
  }
  return out;
}

}  // namespace hydranet::trace2
