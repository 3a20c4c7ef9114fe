// Topology builder: owns the shard engine (scheduler(s)), the hosts, and
// the links, and offers the small amount of plumbing every test, bench and
// example needs.
//
// With shards > 1 the network is partitioned: each host is pinned to one
// shard (explicitly via add_host(name, shard), or round-robin by default;
// plan_partition() computes a cut-minimising assignment for a known edge
// list) and runs on that shard's scheduler/thread.  Links between hosts on
// different shards become cross-shard links (see link::Link::bind_shards);
// their propagation delay bounds the engine's conservative lookahead, so
// every cross-shard link must have propagation > 0.  shards == 1 is
// byte-identical to the pre-sharding engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "host/host.hpp"
#include "link/link.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"
#include "stats/metrics.hpp"
#include "trace2/recorder.hpp"

namespace hydranet::host {

class Network {
 public:
  explicit Network(std::uint64_t seed = 42, std::size_t shards = 1);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Shard 0's scheduler — the only one at shards == 1, and the reference
  /// clock (now()) otherwise.  Code that schedules per-host work on a
  /// multi-shard network should use schedule_on() instead.
  sim::Scheduler& scheduler() { return engine_->scheduler(0); }
  sim::ShardEngine& engine() { return *engine_; }
  std::size_t shards() const { return engine_->shards(); }

  /// Creates a host; names must be unique.  The two-argument form pins the
  /// host to a shard; the default assigns shards round-robin in creation
  /// order (harmless at shards == 1 where everything is shard 0).  With
  /// tracing on, the host gets its span ring here.
  Host& add_host(const std::string& name);
  Host& add_host(const std::string& name, std::size_t shard);
  Host& host(const std::string& name);
  std::size_t shard_of(const Host& host) const;

  /// Greedy cut-minimising partition of `hosts` (names) over `shards`
  /// given the `edges` that will later be connect()ed: hosts are placed in
  /// order, each on the shard with the most already-placed neighbours
  /// (ties to the least-loaded shard), subject to balance (no shard gets
  /// more than ceil(n/shards) hosts).  Returns name -> shard; feed it to
  /// add_host(name, shard).
  static std::unordered_map<std::string, std::size_t> plan_partition(
      const std::vector<std::string>& hosts,
      const std::vector<std::pair<std::string, std::string>>& edges,
      std::size_t shards);

  /// Schedules `cb` at absolute time `t` on `h`'s shard — the only safe
  /// way to inject events (crashes, config changes) into a specific host
  /// of a multi-shard network from the outside.  Call while the engine is
  /// idle (between run_for/run calls).
  template <typename Fn>
  void schedule_on(Host& h, sim::TimePoint t, Fn&& cb) {
    h.scheduler().schedule_at(t, std::forward<Fn>(cb));
  }

  /// Runs the simulation for `d` of virtual time (all shards, lockstep).
  std::size_t run_for(sim::Duration d) {
    return engine_->run_until(now() + d);
  }
  /// Runs until every queue and mailbox drains (bounded by `max_events`).
  std::size_t run(std::size_t max_events = 50'000'000) {
    return engine_->run(max_events);
  }
  sim::TimePoint now() const { return engine_->scheduler(0).now(); }

  /// Connects `a` and `b` with a new point-to-point link; creates one
  /// interface on each side with the given addresses (prefix_len applies
  /// to both).  When a and b live on different shards the link is bound
  /// across them and config.propagation must be positive (it feeds the
  /// engine's conservative lookahead).
  link::Link& connect(Host& a, net::Ipv4Address address_a, Host& b,
                      net::Ipv4Address address_b, int prefix_len = 30,
                      link::Link::Config config = {},
                      std::size_t mtu = 1500);

  // ---- observability -----------------------------------------------------

  /// The network-wide metrics registry and event timeline: a snapshot,
  /// filled by publish_metrics.
  stats::Registry& metrics() { return metrics_; }

  /// Snapshots every host's and link's counters into the registry and
  /// replaces its timeline with the merge of the host event logs, ordered
  /// by (time, host creation order, per-host sequence) — the same at any
  /// shard count.  Call at quiescent points only (between runs):
  /// process-wide counters are per-thread blocks summed on read.
  void publish_metrics();

  /// Turns the causal span tracer on (README "Tracing"): creates this
  /// network's recorder and gives every host its own span ring — the
  /// existing hosts now, in creation order, later ones as they are
  /// added.  Call once, while the engine is idle.  With
  /// HYDRANET_TRACING=OFF the rings stay empty.
  trace2::Recorder& enable_tracing(trace2::Recorder::Config config = {});

 private:
  std::unique_ptr<sim::ShardEngine> engine_;
  std::uint64_t next_host_seed_;
  std::size_t next_shard_ = 0;  ///< round-robin cursor for add_host
  stats::Registry metrics_;
  // Declared before hosts_/links_: hosts hold a pointer to their span
  // ring inside tracer_ and may record spans while being torn down.
  std::unique_ptr<trace2::Recorder> tracer_;
  std::unordered_map<std::string, std::unique_ptr<Host>> hosts_;
  std::vector<Host*> host_order_;  ///< creation order (span rings, event merge)
  std::unordered_map<const Host*, std::size_t> host_shards_;
  std::vector<std::unique_ptr<link::Link>> links_;
};

}  // namespace hydranet::host
