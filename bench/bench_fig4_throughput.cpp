// Figure 4 reproduction: "ttcp Throughput Measurements for HydraNet-FT".
//
// Sweeps the application write size ("packet size": batching of small
// segments is off, so one write = one wire segment) over the paper's four
// configurations on the simulated testbed (two Pentium/120 servers, a 486
// redirector, a 486 client, 10 Mb/s links):
//
//   clean kernel        - stock software, direct path to the server
//   no redirection      - HydraNet-FT software installed, path unchanged
//   primary only        - redirection (IP-in-IP) to one replica
//   primary and backup  - FT multicast + acknowledgement-channel chain
//
// Also regenerates the §5 observation that throughput drops past the MTU:
// an extended sweep with a large MSS drives genuine IP fragmentation.
//
// Expected shape (the paper's, not its absolute numbers): throughput rises
// with write size (header processing amortises); each added mechanism
// costs a modest slice; the FT configuration stays within a reasonable
// factor of clean TCP; past the MTU the curve dips.
#include "common/logging.hpp"
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace hydranet;
using bench::run_ttcp;
using bench::sweep_total_bytes;
using testbed::Setup;
using testbed::TestbedConfig;

constexpr Setup kSetups[] = {Setup::clean, Setup::no_redirection,
                             Setup::primary_only, Setup::primary_backup};

void run_main_figure() {
  const std::size_t sizes[] = {16, 32, 64, 128, 256, 512, 1024};

  std::printf("== Figure 4: ttcp throughput vs packet size [kB/s] ==\n\n");
  std::printf("%-12s %14s %16s %14s %20s\n", "size[B]", "clean",
              "no-redirect", "primary", "primary+backup");

  std::vector<std::array<double, 4>> rows;
  std::vector<bench::TtcpMeasurement> ft_rows;  // primary+backup details
  for (std::size_t size : sizes) {
    std::array<double, 4> row{};
    for (int s = 0; s < 4; ++s) {
      TestbedConfig config;
      config.setup = kSetups[s];
      config.backups = 1;
      auto m = run_ttcp(config, size, sweep_total_bytes(size));
      row[static_cast<std::size_t>(s)] = m.throughput_kBps;
      if (kSetups[s] == Setup::primary_backup) ft_rows.push_back(m);
    }
    rows.push_back(row);
    std::printf("%-12zu %14.1f %16.1f %14.1f %20.1f\n", size, row[0], row[1],
                row[2], row[3]);
  }

  std::printf("\ncsv,size,clean,no_redirect,primary,primary_backup,"
              "ft_deposit_stalls,ft_send_stalls,ft_ack_msgs,ft_copies\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("csv,%zu,%.1f,%.1f,%.1f,%.1f,%llu,%llu,%llu,%llu\n", sizes[i],
                rows[i][0], rows[i][1], rows[i][2], rows[i][3],
                static_cast<unsigned long long>(ft_rows[i].deposit_gate_stalls),
                static_cast<unsigned long long>(ft_rows[i].send_gate_stalls),
                static_cast<unsigned long long>(ft_rows[i].ack_channel_messages),
                static_cast<unsigned long long>(ft_rows[i].redirector_copies));
  }
}

void run_mtu_extension() {
  // Past-MTU behaviour (§5 text): with a TCP MSS above the wire MTU, each
  // large write leaves as one segment that IP must fragment — per-packet
  // costs multiply and throughput dips.
  std::printf("\n== Extension: write sizes across the MTU boundary "
              "(MSS 4096 > MTU 1500, IP fragmentation) [kB/s] ==\n\n");
  std::printf("%-12s %14s %20s %12s\n", "size[B]", "clean",
              "primary+backup", "fragments");

  const std::size_t sizes[] = {512, 1024, 1460, 1600, 2048, 3000, 4096};
  for (std::size_t size : sizes) {
    tcp::TcpOptions options = apps::period_tcp_options();
    options.mss = 4096;  // segments may exceed the MTU -> IP fragments

    TestbedConfig clean_config;
    clean_config.setup = Setup::clean;
    auto clean = run_ttcp(clean_config, size, sweep_total_bytes(size),
                          options);

    TestbedConfig ft_config;
    ft_config.setup = Setup::primary_backup;
    ft_config.backups = 1;
    auto ft = run_ttcp(ft_config, size, sweep_total_bytes(size), options);

    std::printf("%-12zu %14.1f %20.1f %12s\n", size, clean.throughput_kBps,
                ft.throughput_kBps, size + 40 > 1500 ? "yes" : "no");
  }
}

}  // namespace

int main() {
  hydranet::set_log_level(hydranet::LogLevel::error);
  std::printf("HydraNet-FT reproduction: Figure 4 (ICDCS 2000, §5)\n");
  std::printf("Simulated testbed: 486 client & redirector, Pentium/120 "
              "servers, 10 Mb/s links, 16 kB sockets, batching off.\n\n");
  run_main_figure();
  run_mtu_extension();

  std::printf("\nShape checks (paper):\n");
  std::printf("  * throughput rises with packet size\n");
  std::printf("  * clean >= no-redirection >= primary-only >= "
              "primary+backup, each gap modest\n");
  std::printf("  * FT mode 'not unreasonably lower' than clean TCP\n");
  std::printf("  * beyond the MTU the curve drops (fragmentation)\n");
  return 0;
}
