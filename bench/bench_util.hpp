// Shared measurement plumbing for the benchmark binaries.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/ttcp.hpp"
#include "testbed/testbed.hpp"

namespace hydranet::bench {

struct TtcpMeasurement {
  double throughput_kBps = 0;
  std::size_t bytes = 0;
  std::uint64_t client_retransmits = 0;
  std::uint64_t client_timeouts = 0;
  bool finished = false;
  double elapsed_s = 0;
  // From the testbed's metrics registry (0 for non-FT setups).
  std::uint64_t deposit_gate_stalls = 0;
  std::uint64_t send_gate_stalls = 0;
  std::uint64_t ack_channel_messages = 0;
  std::uint64_t redirector_copies = 0;
};

/// Runs one ttcp measurement (client -> service) on a fresh testbed and
/// reports the receiver-side sustained throughput, the paper's metric.
inline TtcpMeasurement run_ttcp(testbed::TestbedConfig config,
                                std::size_t write_size,
                                std::size_t total_bytes,
                                tcp::TcpOptions tcp_options =
                                    apps::period_tcp_options(),
                                sim::Duration time_limit = sim::seconds(600)) {
  testbed::Testbed bed(config);

  std::vector<std::unique_ptr<apps::TtcpReceiver>> receivers;
  for (std::size_t i = 0; i < bed.server_count(); ++i) {
    receivers.push_back(std::make_unique<apps::TtcpReceiver>(
        bed.server(i), config.service.address, config.service.port,
        tcp_options));
  }

  apps::TtcpTransmitter::Config tx;
  tx.server = config.service;
  tx.write_size = write_size;
  tx.total_bytes = total_bytes;
  tx.tcp = tcp_options;
  apps::TtcpTransmitter transmitter(bed.client(), tx);
  if (!transmitter.start().ok()) return {};

  sim::TimePoint deadline = bed.net().now() + time_limit;
  while (bed.net().now() < deadline && !transmitter.report().finished &&
         !transmitter.report().failed) {
    bed.net().run_for(sim::milliseconds(500));
  }
  bed.net().run_for(sim::seconds(1));  // let the last EOF land

  TtcpMeasurement out;
  out.finished = transmitter.report().finished;
  if (transmitter.connection()) {
    out.client_retransmits = transmitter.connection()->stats().retransmits;
    out.client_timeouts = transmitter.connection()->stats().timeouts;
  }
  // The primary's receiver (or the plain server in clean mode) reports.
  for (auto& receiver : receivers) {
    for (const auto& report : receiver->reports()) {
      if (report.eof && report.bytes_received >= out.bytes) {
        out.bytes = report.bytes_received;
        out.throughput_kBps = report.throughput_kBps();
        out.elapsed_s = (report.eof_at - report.first_byte_at).seconds();
      }
    }
  }
  const stats::Registry& registry = bed.stats();
  out.deposit_gate_stalls = registry.total("ftcp.deposit_gate_stalls");
  out.send_gate_stalls = registry.total("ftcp.send_gate_stalls");
  out.ack_channel_messages = registry.total("ftcp.ack_channel_sent");
  out.redirector_copies = registry.total("redirector.copies_sent");
  return out;
}

/// total bytes that keep each measurement's simulated duration reasonable
/// across the write-size sweep (small writes are slow per byte).
inline std::size_t sweep_total_bytes(std::size_t write_size) {
  return std::clamp<std::size_t>(write_size * 1500, 96 * 1024,
                                 2 * 1024 * 1024);
}

}  // namespace hydranet::bench
