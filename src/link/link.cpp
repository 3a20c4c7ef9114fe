#include "link/link.hpp"

#include <cassert>
#include <utility>

#include "common/tls_counters.hpp"

namespace hydranet::link {

namespace {
PerThreadCounters<BatchCounters>& batch_registry() {
  static auto* registry = new PerThreadCounters<BatchCounters>();
  return *registry;
}
}  // namespace

BatchCounters& batch_counters() { return batch_registry().local(); }

BatchCounters batch_counters_total() { return batch_registry().totals(); }

void reset_batch_counters() { batch_registry().reset(); }

Status NetworkInterface::send(PacketBuffer frame) {
  if (!up_) return Errc::no_route;
  if (link_ == nullptr) return Errc::no_route;
  tx_packets_++;
  tx_bytes_ += frame.size();
  return link_->transmit(this, std::move(frame));
}

NetworkInterface::NetworkInterface(std::string name, net::Ipv4Address address,
                                   int prefix_len)
    : name_(std::move(name)), address_(address), prefix_len_(prefix_len) {
  assert(prefix_len >= 0 && prefix_len <= 32);
}

bool NetworkInterface::on_subnet(net::Ipv4Address dst) const {
  if (prefix_len_ == 0) return true;
  std::uint32_t mask = prefix_len_ == 32
                           ? 0xffffffffu
                           : ~((1u << (32 - prefix_len_)) - 1);
  return (dst.value() & mask) == (address_.value() & mask);
}

void NetworkInterface::handle_rx(PacketBuffer frame) {
  if (!up_) return;  // a downed NIC hears nothing
  rx_packets_++;
  rx_bytes_ += frame.size();
  if (rx_handler_) rx_handler_(std::move(frame));
}

void NetworkInterface::handle_rx_burst(PacketBuffer* frames,
                                       std::size_t count) {
  if (!up_) return;
  rx_packets_ += count;
  for (std::size_t i = 0; i < count; ++i) rx_bytes_ += frames[i].size();
  if (!rx_handler_) return;
  for (std::size_t i = 0; i < count; ++i) rx_handler_(std::move(frames[i]));
}

Link::Link(sim::Scheduler& scheduler, Config config)
    : scheduler_(scheduler),
      config_(config),
      loss_(config.loss_probability > 0
                ? std::unique_ptr<LossModel>(
                      std::make_unique<BernoulliLoss>(config.loss_probability))
                : std::make_unique<NoLoss>()),
      rng_(config.seed) {
  toward_b_.src = &scheduler_;
  toward_a_.src = &scheduler_;
}

Link::~Link() {
  // Flush callbacks capture `this`; revoke them before the link goes.
  toward_a_.src->cancel(toward_a_.rx_flush_timer);
  toward_b_.src->cancel(toward_b_.rx_flush_timer);
}

void Link::attach(NetworkInterface& a, NetworkInterface& b) {
  end_a_ = &a;
  end_b_ = &b;
  a.set_link(this);
  b.set_link(this);
  toward_b_.destination = &b;
  toward_a_.destination = &a;
}

void Link::bind_shards(sim::ShardEngine& engine, std::size_t shard_a,
                       std::size_t shard_b) {
  engine_ = &engine;
  toward_b_.src = &engine.scheduler(shard_a);
  toward_b_.src_shard = shard_a;
  toward_b_.dst_shard = shard_b;
  toward_a_.src = &engine.scheduler(shard_b);
  toward_a_.src_shard = shard_b;
  toward_a_.dst_shard = shard_a;
  if (shard_a != shard_b) {
    engine.observe_cross_shard_latency(config_.propagation);
    // Independent per-direction loss streams, derived deterministically
    // from the link seed (direction index breaks the symmetry).
    SplitMix64 sm(config_.seed);
    const std::uint64_t seed_ab = sm.next();
    const std::uint64_t seed_ba = sm.next();
    toward_b_.loss = loss_->clone();
    toward_b_.rng = std::make_unique<Rng>(seed_ab);
    toward_a_.loss = loss_->clone();
    toward_a_.rng = std::make_unique<Rng>(seed_ba);
  }
}

void Link::set_loss_model(std::unique_ptr<LossModel> model) {
  assert(model);
  loss_ = std::move(model);
  // Cross-shard directions hold clones; refresh them from the new model.
  for (Direction* dir : {&toward_b_, &toward_a_}) {
    if (dir->loss != nullptr) dir->loss = loss_->clone();
  }
}

Link::Stats Link::stats() const {
  Stats out;
  for (const Direction* dir : {&toward_b_, &toward_a_}) {
    out.delivered += dir->stats.delivered;
    out.queue_drops += dir->stats.queue_drops;
    out.loss_drops += dir->stats.loss_drops;
    out.down_drops += dir->stats.down_drops_tx + dir->stats.down_drops_rx;
  }
  return out;
}

stats::Histogram Link::queue_depth() const {
  stats::Histogram merged(stats::queue_depth_buckets());
  merged.merge(toward_b_.queue_depth);
  merged.merge(toward_a_.queue_depth);
  return merged;
}

Link::Direction& Link::direction_from(const NetworkInterface* from) {
  assert(from == end_a_ || from == end_b_);
  return from == end_a_ ? toward_b_ : toward_a_;
}

Status Link::transmit(const NetworkInterface* from, PacketBuffer frame) {
  Direction& dir = direction_from(from);
  if (is_down()) {
    dir.stats.down_drops_tx++;
    return Errc::no_route;
  }
  if (tap_) tap_(*from, frame);
  dir.queue_depth.observe(static_cast<double>(dir.queued));
  if (dir.queued >= config_.queue_capacity_packets) {
    dir.stats.queue_drops++;
    // Drop-tail loss is silent on real hardware too; callers relying on
    // delivery must recover end-to-end (that is TCP's job).
    return Status::success();
  }
  dir.queued++;

  sim::TimePoint start = std::max(dir.src->now(), dir.transmitter_free);
  auto tx_ns = static_cast<std::int64_t>(
      static_cast<double>(frame.size()) * 8.0 / config_.bandwidth_bps * 1e9);
  sim::TimePoint done = start + sim::Duration{tx_ns};
  dir.transmitter_free = done;

  // Departure: the frame leaves the queue when fully serialised.
  dir.src->schedule_at(done, [this, &dir] {
    assert(dir.queued > 0);
    dir.queued--;
  });

  // Arrival: after propagation, subject to the loss model.  Cross-shard
  // directions draw from their own cloned stream (two transmit threads
  // must never share generator state).
  bool dropped = dir.loss != nullptr ? dir.loss->should_drop(*dir.rng, frame.size())
                                     : loss_->should_drop(rng_, frame.size());
  sim::TimePoint arrival = done + config_.propagation;
  if (dropped) {
    dir.stats.loss_drops++;
    return Status::success();
  }
  if (dir.crosses_shards()) {
    // Delivery runs on the destination shard's thread, in a later epoch
    // (the engine's lookahead guarantees arrival >= that epoch's start).
    // Batching is bypassed: the mailbox drain already amortises wakeups.
    engine_->post(dir.src_shard, dir.dst_shard, arrival,
                  [this, &dir, frame = std::move(frame)]() mutable {
                    deliver(dir, std::move(frame));
                  });
    return Status::success();
  }
  if (config_.batch_frames > 1) {
    enqueue_arrival(dir, arrival, std::move(frame));
    return Status::success();
  }
  dir.src->schedule_at(arrival,
                       [this, &dir, frame = std::move(frame)]() mutable {
                         deliver(dir, std::move(frame));
                       });
  return Status::success();
}

void Link::deliver(Direction& dir, PacketBuffer frame) {
  if (is_down()) {
    dir.stats.down_drops_rx++;
    return;
  }
  dir.stats.delivered++;
  dir.destination->handle_rx(std::move(frame));
}

// ---- batched rx (config.batch_frames > 1) ---------------------------------

void Link::enqueue_arrival(Direction& dir, sim::TimePoint arrival,
                           PacketBuffer frame) {
  assert((dir.rx_pending.empty() || dir.rx_pending.back().first <= arrival) &&
         "a direction's arrivals never decrease");
  dir.rx_pending.emplace_back(arrival, std::move(frame));
  if (!dir.rx_flush_scheduled) {
    dir.rx_flush_scheduled = true;
    dir.rx_flush_at = arrival;
    dir.rx_flush_timer =
        dir.src->schedule_at(arrival, [this, &dir] { flush_rx(dir); });
  } else if (dir.rx_waiting() == config_.batch_frames &&
             arrival > dir.rx_flush_at) {
    // The batch just filled: coalesce into one event at its newest
    // member's arrival.  Only the fill transition postpones (never later
    // frames), so delivery lags a frame's own arrival by at most
    // batch_frames serialisation times.
    dir.src->cancel(dir.rx_flush_timer);
    dir.rx_flush_at = arrival;
    dir.rx_flush_timer =
        dir.src->schedule_at(arrival, [this, &dir] { flush_rx(dir); });
  }
}

void Link::flush_rx(Direction& dir) {
  dir.rx_flush_scheduled = false;
  dir.rx_flush_timer = sim::kInvalidTimer;
  const sim::TimePoint now = dir.src->now();
  // Everything due by now (a prefix: arrivals never decrease) leaves as one
  // span, in arrival order.  Move the span out first: handle_rx_burst can
  // synchronously transmit (TCP ACKs) and grow rx_pending behind it.
  while (dir.rx_waiting() > 0 && dir.rx_pending[dir.rx_head].first <= now) {
    dir.rx_burst.push_back(std::move(dir.rx_pending[dir.rx_head].second));
    dir.rx_head++;
  }
  if (dir.rx_head * 2 >= dir.rx_pending.size()) {
    // Reclaim the delivered prefix; it is at least as long as what moves,
    // so each frame is moved O(1) times on average.
    dir.rx_pending.erase(dir.rx_pending.begin(),
                         dir.rx_pending.begin() +
                             static_cast<std::ptrdiff_t>(dir.rx_head));
    dir.rx_head = 0;
  }
  const std::size_t due = dir.rx_burst.size();
  if (due > 0) {
    if (is_down()) {
      dir.stats.down_drops_rx += due;
    } else {
      dir.stats.delivered += due;
      BatchCounters& c = batch_counters();
      c.bursts++;
      c.packets += due;
      dir.destination->handle_rx_burst(dir.rx_burst.data(), due);
    }
    dir.rx_burst.clear();  // keeps capacity for the next flush
  }
  if (dir.rx_waiting() > 0 && !dir.rx_flush_scheduled) {
    dir.rx_flush_scheduled = true;
    dir.rx_flush_at = dir.rx_pending[dir.rx_head].first;
    dir.rx_flush_timer = dir.src->schedule_at(dir.rx_flush_at,
                                              [this, &dir] { flush_rx(dir); });
  }
}

}  // namespace hydranet::link
