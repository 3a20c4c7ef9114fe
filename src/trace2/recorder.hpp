// The flight recorder: a low-overhead causal span tracer (DESIGN.md §8,
// "Tracing" in the README).
//
// Each interesting unit of work — an application write, a segmentize, a
// redirector fan-out copy, a gate stall — is one *span*: a (start, end]
// interval on a node, with a parent span id that threads causality across
// layers and hosts.  Context propagates two ways:
//
//   * on packets — net::Datagram and PacketBuffer carry a passive
//     `trace_ctx` field (never serialised to the wire, so simulated bytes
//     are untouched), which survives link transit, IP-in-IP encap/decap,
//     fragmentation, the CPU model's deferred-work lambdas and the
//     cross-shard mailboxes;
//   * ambiently — current_ctx()/ScopedCtx hold the active span across
//     synchronous call chains (IP demux → TCP input → ft-TCP gates).
//     Delivery demux is synchronous and each shard thread dispatches
//     only its own hosts' events, so one thread_local slot is exact.
//
// Ownership: a host::Network owns at most one Recorder (turned on with
// Network::enable_tracing), and the Recorder holds one HostRing per host,
// in host-creation order.  Each host's IpStack points at its own ring,
// and every span the host emits is numbered, end-stamped and stored
// there by the host's own shard thread.  No ring is shared, so none
// needs a lock, and a snapshot reads back in the same order at any shard
// count.
//
// Design constraints, all load-bearing:
//   * deterministic — span ids are (host index, per-host sequence) pairs
//     and every timestamp is the emitting host's virtual clock; two runs
//     of the same seed produce byte-identical traces, at 1 shard or 4,
//     and no wall clock is consulted;
//   * allocation-free hot path — records are fixed-size PODs in a ring
//     reserved when the host gets it; when a ring wraps, the oldest
//     record is overwritten (flight-recorder semantics) and counted in
//     spans_dropped;
//   * sampled at the root — the sampling decision is taken once per root
//     span (every Nth application write on each host); an unsampled root
//     yields ctx 0 and every downstream helper no-ops on ctx 0 in one
//     branch;
//   * compiled out — with HYDRANET_TRACING=OFF every helper below is an
//     empty inline function and hot-path object code contains no tracer
//     calls (mirrors HN_INVARIANT / HYDRANET_INVARIANTS).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"

#ifndef HYDRANET_TRACING
#define HYDRANET_TRACING 0
#endif

namespace hydranet::sim {
class Scheduler;
}

namespace hydranet::trace2 {

inline constexpr bool kEnabled = HYDRANET_TRACING != 0;

/// One finished span.  Fixed-size POD; `name` points at a string literal
/// from span.hpp, `node` is the emitting host's index in the recorder
/// (host-creation order), and `a`/`b` carry span-specific detail
/// (sequence numbers, byte counts, replica addresses — see the
/// exporters).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  sim::TimePoint start{};
  sim::TimePoint end{};
  const char* name = "";
  std::uint16_t node = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// One host's span ring: the handle the host's IpStack holds.  It carries
/// the host's name and scheduler, and only the host's own shard thread
/// writes it.
class HostRing {
 public:
  HostRing(const HostRing&) = delete;
  HostRing& operator=(const HostRing&) = delete;

  const std::string& node() const { return node_; }

  /// Root sampling decision + id allocation in one step: returns 0 when
  /// this root is sampled out, else a fresh span id (the new trace ctx).
  std::uint64_t begin_root();

  /// Allocates a child span id under `parent`; 0 when parent is 0 (the
  /// chain was sampled out upstream).
  std::uint64_t begin_child(std::uint64_t parent);

  /// Commits a finished span ending now on this host's clock.  No-op when
  /// `id` is 0.
  void commit(std::uint64_t id, std::uint64_t parent, const char* name,
              sim::TimePoint start, std::uint32_t a = 0, std::uint32_t b = 0);
  /// Commits with an explicit end time (gate stalls close retroactively).
  void commit_at(std::uint64_t id, std::uint64_t parent, const char* name,
                 sim::TimePoint start, sim::TimePoint end, std::uint32_t a = 0,
                 std::uint32_t b = 0);

 private:
  friend class Recorder;

  HostRing(std::string node, sim::Scheduler& scheduler, std::uint16_t index,
           std::size_t capacity, std::size_t sample_every);

  std::uint64_t next_id();

  std::string node_;
  sim::Scheduler& scheduler_;
  std::uint16_t index_;
  std::size_t capacity_;
  std::size_t sample_every_;
  std::vector<SpanRecord> records_;  ///< reserved to capacity_
  std::size_t next_ = 0;             ///< overwrite cursor once full
  std::uint64_t seq_ = 0;            ///< per-host id sequence
  std::uint64_t roots_seen_ = 0;
  std::uint64_t roots_sampled_ = 0;
  std::uint64_t spans_recorded_ = 0;
  std::uint64_t spans_dropped_ = 0;
};

class Recorder {
 public:
  struct Config {
    /// Span records kept per host; older records are overwritten.
    std::size_t ring_capacity = 65536;
    /// Trace every Nth root (application write) on each host; 1 = every
    /// root.
    std::size_t sample_every = 1;
  };

  Recorder() : Recorder(Config{}) {}
  explicit Recorder(Config config);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Adds the ring of host `node`, whose spans end on `scheduler`'s clock
  /// (the host's shard).  Rings are indexed in the order they are added.
  /// Call at quiescent points only (no shard executing).
  HostRing& add_ring(std::string node, sim::Scheduler& scheduler);

  // ---- introspection / export (quiescent points only) --------------------

  /// Counters summed over every host's ring.
  std::uint64_t spans_recorded() const {
    return sum(&HostRing::spans_recorded_);
  }
  std::uint64_t spans_dropped() const { return sum(&HostRing::spans_dropped_); }
  std::uint64_t roots_sampled() const { return sum(&HostRing::roots_sampled_); }
  std::uint64_t roots_seen() const { return sum(&HostRing::roots_seen_); }
  std::size_t node_count() const { return rings_.size(); }
  const std::string& node_name(std::uint16_t node) const {
    return rings_.at(node)->node();
  }

  /// All retained records, oldest first per host, hosts in ring order.
  std::vector<SpanRecord> snapshot() const;

 private:
  std::uint64_t sum(std::uint64_t HostRing::*counter) const;

  Config config_;
  std::vector<std::unique_ptr<HostRing>> rings_;
};

#if HYDRANET_TRACING

/// The ambient trace context (active span id; 0 = none).
std::uint64_t current_ctx();

/// Scopes the ambient context: installs `ctx` (even 0 — an untraced
/// delivery must not inherit a stale context) and restores on exit.
class ScopedCtx {
 public:
  explicit ScopedCtx(std::uint64_t ctx);
  ~ScopedCtx();
  ScopedCtx(const ScopedCtx&) = delete;
  ScopedCtx& operator=(const ScopedCtx&) = delete;

 private:
  std::uint64_t previous_;
};

// Emission helpers: `ring` is the emitting host's ring (IpStack::
// trace_ring()), null while tracing is off.  A non-zero id always comes
// from the same ring it is committed to.

inline std::uint64_t begin_root(HostRing* ring) {
  return ring == nullptr ? 0 : ring->begin_root();
}

inline std::uint64_t begin_child(HostRing* ring, std::uint64_t parent) {
  return parent == 0 || ring == nullptr ? 0 : ring->begin_child(parent);
}

inline void commit(HostRing* ring, std::uint64_t id, std::uint64_t parent,
                   const char* name, sim::TimePoint start, std::uint32_t a = 0,
                   std::uint32_t b = 0) {
  if (id != 0) ring->commit(id, parent, name, start, a, b);
}

inline void commit_at(HostRing* ring, std::uint64_t id, std::uint64_t parent,
                      const char* name, sim::TimePoint start,
                      sim::TimePoint end, std::uint32_t a = 0,
                      std::uint32_t b = 0) {
  if (id != 0) ring->commit_at(id, parent, name, start, end, a, b);
}

#else  // !HYDRANET_TRACING — every helper is an empty inline no-op so call
       // sites compile away entirely; ScopedCtx is an empty object.

constexpr std::uint64_t current_ctx() { return 0; }

class ScopedCtx {
 public:
  explicit ScopedCtx(std::uint64_t) {}
};

inline std::uint64_t begin_root(HostRing*) { return 0; }
inline std::uint64_t begin_child(HostRing*, std::uint64_t) { return 0; }
inline void commit(HostRing*, std::uint64_t, std::uint64_t, const char*,
                   sim::TimePoint, std::uint32_t = 0, std::uint32_t = 0) {}
inline void commit_at(HostRing*, std::uint64_t, std::uint64_t, const char*,
                      sim::TimePoint, sim::TimePoint, std::uint32_t = 0,
                      std::uint32_t = 0) {}

#endif  // HYDRANET_TRACING

}  // namespace hydranet::trace2
