// Span recording for the traced benchmark run.
//
// The benchmark wraps its own calls into the simulator's public API
// (Testbed construction, UdpSocket::send_to, Network::run/run_for,
// TcpConnection::send/recv, TcpStack::connect) in spans, and drops instant
// marks from link taps and UDP sink handlers.  Every record carries the id
// of the closed-loop operation it belongs to (0 = set-up, not an
// operation).  Records go into a buffer preallocated before the run; a full
// buffer drops further records instead of growing.  analyze()
// turns the buffer into per-layer self times after the run, and write()
// dumps it raw.
//
// Only the thread that drives the benchmark records (the 2-shard workload
// records spans from the main thread only, never from a shard worker).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind : std::uint16_t {
  // Spans.
  op,             ///< one closed-loop operation (the root)
  build,          ///< testbed / topology construction (set-up)
  udp_send_to,    ///< UdpSocket::send_to
  sim_run,        ///< Network::run / run_for
  tcp_send,       ///< TcpConnection::send
  tcp_recv,       ///< TcpConnection::recv
  tcp_connect,    ///< TcpStack::connect
  // Instant marks (t0 == t1).
  tap_client,     ///< a frame entered the client's link
  tap_replica,    ///< a frame entered a redirector -> replica link
  sink,           ///< a UDP sink handler ran on a replica
};

const char* kind_name(Kind kind);

struct Record {
  std::uint64_t t0 = 0;  ///< steady_clock ns
  std::uint64_t t1 = 0;
  std::uint32_t op = 0;
  Kind kind = Kind::op;
  std::uint16_t arg = 0;  ///< link / replica index for marks
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  explicit Tracer(std::size_t capacity) { records_.reserve(capacity); }

  void set_op(std::uint32_t op) { op_ = op; }

  void span(Kind kind, std::uint64_t t0, std::uint64_t t1,
            std::uint16_t arg = 0) {
    if (records_.size() == records_.capacity()) return;
    records_.push_back(Record{t0, t1, op_, kind, arg});
  }
  void mark(Kind kind, std::uint16_t arg = 0) {
    const std::uint64_t t = now_ns();
    span(kind, t, t, arg);
  }

  /// True while at least `headroom` records still fit.
  bool has_room(std::size_t headroom) const {
    return records_.capacity() - records_.size() >= headroom;
  }
  const std::vector<Record>& records() const { return records_; }

  /// Raw dump: one little-endian Record (24 bytes) per entry.
  bool write(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::uint32_t op_ = 0;
};

/// The tracer the benchmark's own call sites report to; null when the run
/// is untraced, so an untraced call site costs one branch.
extern Tracer* g_tracer;

/// Times one benchmark call into a layer.
class Scoped {
 public:
  explicit Scoped(Kind kind)
      : kind_(kind), t0_(g_tracer != nullptr ? now_ns() : 0) {}
  ~Scoped() {
    if (g_tracer != nullptr) g_tracer->span(kind_, t0_, now_ns());
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Kind kind_;
  std::uint64_t t0_;
};

inline void mark(Kind kind, std::uint16_t arg = 0) {
  if (g_tracer != nullptr) g_tracer->mark(kind, arg);
}

/// What the traced operations spent, per layer.
struct Analysis {
  std::size_t ops = 0;              ///< operations with a root span
  double op_ns_mean = 0;            ///< mean traced operation time
  /// Layer -> self time summed over all operations (span duration minus
  /// the part its direct children cover).  "op" is the time no layer span
  /// covers; the entries sum to ops * op_ns_mean.
  std::map<std::string, double> self_ns;
  /// Span kind -> durations of every span of that kind, within operations
  /// and during set-up (operation id 0).
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, std::vector<double>> setup_durations;
  /// Mark-derived intervals of the UDP fan-out, one sample per operation:
  /// "hop" (client tap -> first replica tap), "fanout" (client tap -> last
  /// replica tap), "deliver" (last replica tap -> last sink handler).
  std::map<std::string, std::vector<double>> intervals;
};

/// Per-layer self times of every operation in `records`.  Within sim.run,
/// the replica-link taps and sink marks split the span into
/// "redirector.fanout" (run start -> last replica tap) and "udp.deliver"
/// (-> last sink mark) when both are present.
Analysis analyze(const std::vector<Record>& records);

/// Nearest-rank quantile q (0..1) of `n` values; reorders them.
double percentile_in_place(double* values, std::size_t n, double q);
double percentile(std::vector<double> values, double q);

}  // namespace perfbench
