#!/usr/bin/env python3
"""Hot-path benchmark regression gate.

Runs bench_packet_rate --json (best of N runs), compares every scenario's
packets_per_wall_second against the committed snapshot (BENCH_hotpath.json
at the repo root), and fails if any scenario regressed by more than the
tolerance (default 15%).  Improvements are reported but never fail.

Refresh the snapshot after a deliberate perf change with:

    tools/bench_check.py --bench <path>/bench_packet_rate \\
        --baseline BENCH_hotpath.json --update
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def run_bench(bench, packets, runs, shards=None):
    """Best-of-N: keeps, per scenario, the run with the highest rate (wall
    clock only gets slower under interference, never faster)."""
    best = {}
    order = []
    for i in range(runs):
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            path = tmp.name
        cmd = [bench, "--packets", str(packets), "--json", path]
        if shards:
            cmd += ["--shards", shards]
        try:
            subprocess.run(
                cmd,
                check=True,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            with open(path) as f:
                doc = json.load(f)
        finally:
            os.unlink(path)
        for scenario in doc["scenarios"]:
            name = scenario["name"]
            if name not in best:
                order.append(name)
                best[name] = scenario
            elif (scenario["packets_per_wall_second"]
                  > best[name]["packets_per_wall_second"]):
                best[name] = scenario
    return doc, [best[name] for name in order]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="path to the bench_packet_rate binary")
    parser.add_argument("--baseline", required=True,
                        help="committed snapshot (BENCH_hotpath.json)")
    parser.add_argument("--packets", type=int, default=20000)
    parser.add_argument("--runs", type=int, default=3,
                        help="best-of-N runs (default 3)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run and exit")
    parser.add_argument("--shards", default=None,
                        help="run the sharded-engine sweep instead (e.g. "
                             "1,2,4,8) and gate the 4-shard speedup against "
                             "BENCH_shards.json")
    args = parser.parse_args()

    doc, scenarios = run_bench(args.bench, args.packets, args.runs,
                               args.shards)

    if args.update:
        doc["scenarios"] = scenarios
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"baseline refreshed: {args.baseline}")
        return 0

    with open(args.baseline) as f:
        baseline = {s["name"]: s for s in json.load(f)["scenarios"]}

    failed = []  # (name, detail) pairs; details land in the FAIL message
    for scenario in scenarios:
        name = scenario["name"]
        rate = scenario["packets_per_wall_second"]
        base = baseline.get(name)
        if base is None:
            print(f"{name:24s} {rate:12.0f} pkt/s  (no baseline — skipped)")
            continue
        base_rate = base["packets_per_wall_second"]
        delta = (rate - base_rate) / base_rate if base_rate > 0 else 0.0
        verdict = "ok"
        if delta < -args.tolerance:
            verdict = "REGRESSION"
            floor = base_rate * (1 - args.tolerance)
            failed.append((name,
                           f"{name}: expected >= {floor:.0f} pkt/s "
                           f"(baseline {base_rate:.0f} - {args.tolerance:.0%}), "
                           f"measured {rate:.0f} ({delta:+.1%})"))
        print(f"{name:24s} {rate:12.0f} pkt/s  vs {base_rate:12.0f} "
              f"({delta:+7.1%})  {verdict}")

    missing = set(baseline) - {s["name"] for s in scenarios}
    for name in sorted(missing):
        print(f"{name:24s} missing from current run")
        failed.append((name, f"{name}: in baseline but missing from this run"))

    # Sharded-engine scaling gate (--shards sweeps only): the 4-shard
    # one-hop fleet must aggregate >= 2x the 1-shard rate.  Compared
    # in-run (same machine, same interference), and only where there are
    # cores to scale onto — on a 1-core box the shard threads just
    # time-slice one core, so the ratio is reported but not enforced.
    if args.shards:
        shard_rates = {s["name"]: s["packets_per_wall_second"]
                       for s in scenarios}
        s1 = shard_rates.get("one_hop_s1")
        s4 = shard_rates.get("one_hop_s4")
        cores = doc.get("hardware_threads", 0)
        if s1 and s4:
            speedup = s4 / s1
            if cores >= 4:
                verdict = "ok" if speedup >= 2.0 else "REGRESSION"
                print(f"{'4-shard speedup':24s} {speedup:11.2f}x vs 1 shard "
                      f"(>= 2.0x required)  {verdict}")
                if verdict != "ok":
                    failed.append(("shard_scaling",
                                   f"shard_scaling: expected one_hop_s4 >= "
                                   f"2x one_hop_s1 aggregate pkt/s, "
                                   f"measured {speedup:.2f}x"))
            else:
                print(f"{'4-shard speedup':24s} {speedup:11.2f}x vs 1 shard "
                      f"(gate skipped: {cores} hardware thread(s) < 4)")

    # Tracer-overhead gate: with sampling at 1-in-64 the causal tracer
    # must cost < 5% of the untraced ft-chain rate.  Compared in-run
    # (same machine, same interference) rather than against the committed
    # baseline; vacuous on tracing-OFF builds, which omit the scenarios.
    rates = {s["name"]: s["packets_per_wall_second"] for s in scenarios}
    untraced = rates.get("tcp_ft_chain_1_backup")
    traced64 = rates.get("tcp_ft_chain_trace64")
    if untraced and traced64:
        overhead = 1 - traced64 / untraced
        verdict = "ok" if overhead < 0.05 else "REGRESSION"
        print(f"{'trace64 overhead':24s} {overhead:12.1%} vs untraced "
              f"(< 5% required)  {verdict}")
        if verdict != "ok":
            failed.append(("trace64_overhead",
                           f"trace64_overhead: expected < 5.0% of the "
                           f"untraced ft-chain rate, measured "
                           f"{overhead:.1%}"))

    # Pool-hot gate: after warmup the one-hop datapath must recycle
    # PacketBuffers from the freelist pool rather than hitting the heap.
    # In-run (absolute property, not a baseline comparison); vacuous for
    # benches whose scenarios don't report pool counters.
    for scenario in scenarios:
        dp = scenario.get("datapath", {})
        if scenario["name"] != "one_hop_udp" or "pool_hits" not in dp:
            continue
        hits, misses = dp["pool_hits"], dp["pool_misses"]
        total = hits + misses
        ratio = hits / total if total else 0.0
        verdict = "ok" if ratio >= 0.95 else "REGRESSION"
        print(f"{'one_hop pool hit rate':24s} {ratio:12.1%} "
              f"({hits}/{total}, >= 95% required)  {verdict}")
        if verdict != "ok":
            failed.append(("one_hop_pool_cold",
                           f"one_hop_pool_cold: expected >= 95% pool hits "
                           f"after warmup, measured {ratio:.1%} "
                           f"({hits} hits / {misses} misses)"))

    if failed:
        print(f"\nFAIL: {len(failed)} scenario(s) out of tolerance "
              f"({args.tolerance:.0%}):")
        for _, detail in failed:
            print(f"  {detail}")
        return 1
    print("\nPASS: no scenario regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
