#include "spans.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer* g_tracer = nullptr;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::op: return "op";
    case Kind::build: return "testbed.build";
    case Kind::udp_send_to: return "udp.send_to";
    case Kind::sim_run: return "sim.run";
    case Kind::tcp_send: return "tcp.send";
    case Kind::tcp_recv: return "tcp.recv";
    case Kind::tcp_connect: return "tcp.connect";
    case Kind::tap_client: return "tap.client";
    case Kind::tap_replica: return "tap.replica";
    case Kind::sink: return "udp.sink";
  }
  return "?";
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n =
      std::fwrite(records_.data(), sizeof(Record), records_.size(), f);
  return std::fclose(f) == 0 && n == records_.size();
}

double percentile_in_place(double* values, std::size_t n, double q) {
  if (n == 0) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
  std::nth_element(values, values + k, values + n);
  return values[k];
}

double percentile(std::vector<double> values, double q) {
  return percentile_in_place(values.data(), values.size(), q);
}

namespace {

bool is_mark(Kind kind) {
  return kind == Kind::tap_client || kind == Kind::tap_replica ||
         kind == Kind::sink;
}

struct Interval {
  const char* name;
  std::uint64_t t0;
  std::uint64_t t1;
};

/// Self times of one operation's records (root included) into `out`.
void analyze_op(const std::vector<Record>& group, Analysis& out) {
  const Record* root = nullptr;
  std::vector<Interval> spans;
  for (const Record& r : group) {
    if (r.kind == Kind::op) root = &r;
    if (!is_mark(r.kind)) spans.push_back({kind_name(r.kind), r.t0, r.t1});
  }
  if (root == nullptr) return;  // cut short by a full buffer

  // Marks inside each sim.run split it into fan-out and replica delivery.
  std::uint64_t client = 0, first_replica = 0, last_replica = 0,
                last_sink = 0;
  for (const Record& r : group) {
    if (r.kind == Kind::tap_client && client == 0) client = r.t0;
    if (r.kind == Kind::tap_replica) {
      if (first_replica == 0) first_replica = r.t0;
      last_replica = r.t0;
    }
    if (r.kind == Kind::sink) last_sink = r.t0;
  }
  if (last_replica != 0 && last_sink >= last_replica) {
    for (const Record& r : group) {
      if (r.kind != Kind::sim_run || r.t0 > last_replica ||
          r.t1 < last_sink) {
        continue;
      }
      spans.push_back({"redirector.fanout", r.t0, last_replica});
      spans.push_back({"udp.deliver", last_replica, last_sink});
    }
    if (client != 0 && client <= first_replica) {
      out.intervals["hop"].push_back(
          static_cast<double>(first_replica - client));
      out.intervals["fanout"].push_back(
          static_cast<double>(last_replica - client));
      out.intervals["deliver"].push_back(
          static_cast<double>(last_sink - last_replica));
    }
  }

  // Spans of one thread nest; order parents before children and walk with
  // a stack of open ancestors.
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) {
              if (a.t0 != b.t0) return a.t0 < b.t0;
              return a.t1 > b.t1;
            });
  std::vector<std::size_t> open;
  std::vector<double> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && spans[open.back()].t1 <= spans[i].t0 &&
           spans[open.back()].t1 < spans[i].t1) {
      open.pop_back();
    }
    if (!open.empty()) {
      child_ns[open.back()] += static_cast<double>(spans[i].t1 - spans[i].t0);
    }
    open.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double self =
        static_cast<double>(spans[i].t1 - spans[i].t0) - child_ns[i];
    out.self_ns[spans[i].name] += self;
  }
  out.ops++;
  out.op_ns_mean += static_cast<double>(root->t1 - root->t0);
}

}  // namespace

Analysis analyze(const std::vector<Record>& records) {
  Analysis out;
  std::vector<Record> group;
  auto flush = [&] {
    if (!group.empty() && group.front().op != 0) analyze_op(group, out);
    group.clear();
  };
  for (const Record& r : records) {
    if (!group.empty() && r.op != group.front().op) flush();
    group.push_back(r);
    if (!is_mark(r.kind)) {
      auto& by_kind = r.op != 0 ? out.durations : out.setup_durations;
      by_kind[kind_name(r.kind)].push_back(static_cast<double>(r.t1 - r.t0));
    }
  }
  flush();
  if (out.ops > 0) out.op_ns_mean /= static_cast<double>(out.ops);
  return out;
}

}  // namespace perfbench
