#include "host/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/inline_function.hpp"
#include "common/logging.hpp"
#include "common/packet_buffer.hpp"
#include "common/slab.hpp"
#include "verify/invariant.hpp"

namespace hydranet::host {

Host::Host(sim::Scheduler& scheduler, std::string name, std::uint64_t seed)
    : scheduler_(scheduler),
      name_(std::move(name)),
      ip_(scheduler, name_),
      udp_(ip_),
      tcp_(ip_, seed),
      icmp_(ip_) {
  // Datagrams to dead UDP ports earn an ICMP port-unreachable.
  udp_.set_unbound_handler(
      [this](const net::Ipv4Header& header, const CowBytes& payload) {
        net::Datagram offending;
        offending.header = header;
        offending.payload = payload;
        icmp_.send_unreachable(offending,
                               icmp::UnreachableCode::port_unreachable);
      });
}

void Host::publish_metrics(stats::Registry& registry) const {
  const ip::IpStack::Stats& ip = ip_.stats();
  registry.set_counter(name_, "ip.sent", ip.sent);
  registry.set_counter(name_, "ip.received", ip.received);
  registry.set_counter(name_, "ip.forwarded", ip.forwarded);
  registry.set_counter(name_, "ip.delivered_local", ip.delivered_local);
  registry.set_counter(name_, "ip.ttl_drops", ip.ttl_drops);
  registry.set_counter(name_, "ip.no_route_drops", ip.no_route_drops);
  registry.set_counter(name_, "ip.parse_drops", ip.parse_drops);
  registry.set_counter(name_, "ip.fragments_sent", ip.fragments_sent);
  registry.set_counter(name_, "ip.fragments_received", ip.fragments_received);
  registry.set_counter(name_, "ip.reassembled", ip.reassembled);
  registry.set_counter(name_, "ip.reassembly_timeouts", ip.reassembly_timeouts);
  registry.set_counter(name_, "ip.crashed_drops", ip.crashed_drops);

  tcp::TcpConnection::Stats tcp = tcp_.aggregate_stats();
  registry.set_counter(name_, "tcp.segments_out", tcp.segments_sent);
  registry.set_counter(name_, "tcp.segments_in", tcp.segments_received);
  registry.set_counter(name_, "tcp.segments_swallowed", tcp.segments_swallowed);
  registry.set_counter(name_, "tcp.bytes_out", tcp.bytes_sent_app);
  registry.set_counter(name_, "tcp.bytes_in", tcp.bytes_received_app);
  registry.set_counter(name_, "tcp.retransmits", tcp.retransmits);
  registry.set_counter(name_, "tcp.fast_retransmits", tcp.fast_retransmits);
  registry.set_counter(name_, "tcp.rto_firings", tcp.timeouts);
  registry.set_counter(name_, "tcp.dup_acks", tcp.dup_acks);
  registry.set_counter(name_, "tcp.duplicate_segments",
                       tcp.duplicate_segments_seen);
  registry.set_counter(name_, "tcp.zero_window_probes", tcp.zero_window_probes);
  registry.set_counter(name_, "tcp.sack_retransmits", tcp.sack_retransmits);
  registry.set_counter(name_, "tcp.keepalives_sent", tcp.keepalives_sent);
  registry.set_histogram(name_, "tcp.cwnd_bytes", tcp_.cwnd_histogram());
}

Network::Network(std::uint64_t seed, std::size_t shards)
    : engine_(std::make_unique<sim::ShardEngine>(
          sim::ShardEngine::Config{.shards = shards})),
      next_host_seed_(seed * 7919 + 1) {
  // Stamp log lines with virtual time: the shard running on the calling
  // thread if a run phase is active, otherwise the reference clock.
  set_log_clock([this] {
    if (sim::Scheduler* current = sim::ShardEngine::current_scheduler()) {
      return current->now().ns;
    }
    return engine_->scheduler(0).now().ns;
  });
}

Network::~Network() {
  set_log_clock(nullptr);
  // Hosts carry timers referencing the schedulers; drop them before the
  // engine (a member declared first, destroyed last) goes away.
  hosts_.clear();
  links_.clear();
}

Host& Network::add_host(const std::string& name) {
  const std::size_t shard = next_shard_;
  next_shard_ = (next_shard_ + 1) % engine_->shards();
  return add_host(name, shard);
}

Host& Network::add_host(const std::string& name, std::size_t shard) {
  assert(!hosts_.contains(name));
  assert(shard < engine_->shards());
  auto host = std::make_unique<Host>(engine_->scheduler(shard), name,
                                     next_host_seed_);
  next_host_seed_ = next_host_seed_ * 6364136223846793005ull + 1442695040888963407ull;
  if (tracer_ != nullptr) {
    host->ip().set_trace_ring(
        &tracer_->add_ring(host->name(), host->scheduler()));
  }
  Host& ref = *host;
  host_shards_.emplace(&ref, shard);
  hosts_.emplace(name, std::move(host));
  host_order_.push_back(&ref);
  return ref;
}

trace2::Recorder& Network::enable_tracing(trace2::Recorder::Config config) {
  assert(tracer_ == nullptr && "tracing is turned on once per network");
  tracer_ = std::make_unique<trace2::Recorder>(config);
  for (Host* host : host_order_) {
    host->ip().set_trace_ring(
        &tracer_->add_ring(host->name(), host->scheduler()));
  }
  return *tracer_;
}

Host& Network::host(const std::string& name) {
  auto it = hosts_.find(name);
  if (it == hosts_.end()) {
    throw std::out_of_range("no such host: " + name);
  }
  return *it->second;
}

std::size_t Network::shard_of(const Host& host) const {
  auto it = host_shards_.find(&host);
  assert(it != host_shards_.end());
  return it->second;
}

std::unordered_map<std::string, std::size_t> Network::plan_partition(
    const std::vector<std::string>& hosts,
    const std::vector<std::pair<std::string, std::string>>& edges,
    std::size_t shards) {
  std::unordered_map<std::string, std::size_t> assignment;
  if (shards == 0) shards = 1;
  const std::size_t cap = (hosts.size() + shards - 1) / shards;
  std::vector<std::size_t> load(shards, 0);
  for (const std::string& name : hosts) {
    // Affinity: already-placed neighbours per shard.
    std::vector<std::size_t> affinity(shards, 0);
    for (const auto& [u, v] : edges) {
      const std::string* peer = nullptr;
      if (u == name) peer = &v;
      if (v == name) peer = &u;
      if (peer == nullptr) continue;
      auto it = assignment.find(*peer);
      if (it != assignment.end()) affinity[it->second]++;
    }
    std::size_t best = shards;  // none yet
    for (std::size_t s = 0; s < shards; ++s) {
      if (load[s] >= cap) continue;
      if (best == shards || affinity[s] > affinity[best] ||
          (affinity[s] == affinity[best] && load[s] < load[best])) {
        best = s;
      }
    }
    if (best == shards) best = 0;  // all full (shouldn't happen): fall back
    assignment[name] = best;
    load[best]++;
  }
  return assignment;
}

link::Link& Network::connect(Host& a, net::Ipv4Address address_a, Host& b,
                             net::Ipv4Address address_b, int prefix_len,
                             link::Link::Config config, std::size_t mtu) {
  if (config.seed == 1) config.seed = next_host_seed_ ^ 0x9e3779b9;
  const std::size_t shard_a = shard_of(a);
  const std::size_t shard_b = shard_of(b);
  if (shard_a != shard_b && config.propagation <= sim::Duration{0}) {
    // Zero-delay cross-shard links would collapse the conservative
    // lookahead to nothing — the engine could never run an epoch.
    throw std::invalid_argument(
        "cross-shard link " + a.name() + "-" + b.name() +
        " needs propagation > 0 (it bounds the engine's lookahead)");
  }
  auto link = std::make_unique<link::Link>(engine_->scheduler(0), config);
  // Metrics identify links by label; disambiguate parallel links between
  // the same pair of hosts with a #n suffix.
  std::string label = a.name() + "-" + b.name();
  std::size_t duplicates = 0;
  for (const auto& existing : links_) {
    if (existing->label().rfind(label, 0) == 0) duplicates++;
  }
  if (duplicates > 0) label += "#" + std::to_string(duplicates + 1);
  link->set_label(label);
  auto& iface_a = a.add_interface("to_" + b.name(), address_a, prefix_len, mtu);
  auto& iface_b = b.add_interface("to_" + a.name(), address_b, prefix_len, mtu);
  link->attach(iface_a, iface_b);
  link->bind_shards(*engine_, shard_a, shard_b);
  links_.push_back(std::move(link));
  return *links_.back();
}

void Network::publish_metrics() {
  std::vector<const stats::EventTimeline*> logs;
  logs.reserve(host_order_.size());
  for (const Host* host : host_order_) {
    host->publish_metrics(metrics_);
    logs.push_back(&host->event_log());
  }
  metrics_.timeline() = stats::EventTimeline::merge(logs);
  // Process-wide datapath counters: per-thread (per-shard) blocks, summed
  // on read.  Only valid at quiescent points — which publish_metrics is.
  const DatapathCounters dp = datapath_totals();
  metrics_.set_counter("datapath", "datapath.allocations", dp.allocations);
  metrics_.set_counter("datapath", "datapath.copies", dp.copies);
  metrics_.set_counter("datapath", "datapath.copied_bytes", dp.copied_bytes);
  metrics_.set_counter("datapath", "datapath.cow_breaks", dp.cow_breaks);
  metrics_.set_counter("datapath", "datapath.flattens", dp.flattens);
  metrics_.set_counter("datapath", "datapath.pool.hits", dp.pool_hits);
  metrics_.set_counter("datapath", "datapath.pool.misses", dp.pool_misses);
  const SlabCounters slab = slab_totals();
  metrics_.set_counter("datapath", "datapath.slab.pages", slab.pages);
  metrics_.set_counter("datapath", "datapath.slab.live", slab.live);
  metrics_.set_counter("datapath", "datapath.slab.allocated", slab.allocated);
  metrics_.set_counter("datapath", "datapath.slab.recycled", slab.recycled);
  metrics_.set_counter("datapath", "datapath.slab.freed", slab.freed);
  metrics_.set_counter("datapath", "datapath.slab.bytes", slab.bytes);
  metrics_.set_counter("scheduler", "scheduler.alloc_fallbacks",
                       inline_function_heap_allocs_total());
  const link::BatchCounters batch = link::batch_counters_total();
  metrics_.set_counter("scheduler", "scheduler.batch.bursts", batch.bursts);
  metrics_.set_counter("scheduler", "scheduler.batch.packets", batch.packets);
  std::uint64_t wheel_inserts = 0;
  for (std::size_t s = 0; s < engine_->shards(); ++s) {
    wheel_inserts += engine_->scheduler(s).wheel_inserts();
  }
  metrics_.set_counter("scheduler", "scheduler.wheel.inserts", wheel_inserts);
  // Shard-engine telemetry (all shards summed; see DESIGN.md §10).
  const sim::ShardEngine::Counters shard = engine_->counters_total();
  metrics_.set_counter("shard", "shard.events", shard.events);
  metrics_.set_counter("shard", "shard.epochs", shard.epochs);
  metrics_.set_counter("shard", "shard.mailbox.posted", shard.mailbox_posted);
  metrics_.set_counter("shard", "shard.mailbox.drained",
                       shard.mailbox_drained);
  metrics_.set_counter("shard", "shard.mailbox.overflows",
                       shard.mailbox_overflows);
  // Protocol-invariant violation counters (process-wide, like the datapath
  // counters; all zero in a healthy run).  Metric names come from the
  // verify component so the catalogue has a single source of truth.
  for (std::size_t i = 0; i < verify::kCategoryCount; ++i) {
    auto category = static_cast<verify::Category>(i);
    metrics_.set_counter("verify", verify::metric_name(category),
                         verify::violation_count(category));
  }
  // Flight-recorder health, published only while tracing is on (the
  // tracer itself is opt-in; metric names still lint against §8).
  if (tracer_ != nullptr) {
    metrics_.set_counter("trace", "trace.spans_recorded",
                         tracer_->spans_recorded());
    metrics_.set_counter("trace", "trace.spans_dropped",
                         tracer_->spans_dropped());
    metrics_.set_counter("trace", "trace.roots_sampled",
                         tracer_->roots_sampled());
  }
  for (const auto& link : links_) {
    const link::Link::Stats s = link->stats();
    const std::string& node = link->label();
    metrics_.set_counter(node, "link.delivered", s.delivered);
    metrics_.set_counter(node, "link.queue_drops", s.queue_drops);
    metrics_.set_counter(node, "link.loss_drops", s.loss_drops);
    metrics_.set_counter(node, "link.down_drops", s.down_drops);
    metrics_.set_histogram(node, "link.queue_depth", link->queue_depth());
  }
}

}  // namespace hydranet::host
