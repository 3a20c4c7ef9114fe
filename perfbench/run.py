#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and the workload runner from
source, runs one workload (or all four) and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, seed 1, 10 s

Run it from the repository root.  The build goes to .bench_build/ (CMake,
Release).  Each workload prints the fingerprint of what it simulated on the
reference seed next to the one recorded in perfbench/fingerprints.json;
--record-fingerprint stores the current one instead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "hnbench"
FINGERPRINTS = HERE / "fingerprints.json"
WORKLOADS = ["udp_ft_fanout", "ttcp_ft_sessions", "tcp_conn_scale",
             "udp_fleet_2shard"]
RUN_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; output goes to stderr."""
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "hnbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("benchmark build failed:", " ".join(cmd))
            return False
    return True


def load_fingerprints():
    try:
        return json.loads(FINGERPRINTS.read_text())
    except (OSError, ValueError):
        return {}


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (fingerprint, other stdout lines, result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}.bin")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: runner exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    fingerprint = None
    other = []
    for line in lines[:-1]:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
        else:
            other.append(line)
    if fingerprint is None:
        raise RuntimeError(f"{workload}: no fingerprint")
    return fingerprint, other, result


def report_fingerprint(workload, fingerprint, recorded):
    now = fingerprint["simulated"]
    print(f"fingerprint {workload} (seed {fingerprint['seed']}, "
          f"{fingerprint['ops']} ops): {json.dumps(now)}")
    was = recorded.get(workload)
    if was is None:
        print(f"fingerprint {workload}: nothing recorded")
    elif was == now:
        print(f"fingerprint {workload}: matches the recorded one")
    else:
        print(f"fingerprint {workload}: DIFFERS from the recorded "
              f"{json.dumps(was)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-fingerprint", action="store_true",
                        help="store this run's fingerprints as the recorded "
                             "ones")
    args = parser.parse_args()

    if not build():
        return 1
    recorded = load_fingerprints()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        try:
            fingerprint, lines, result = run_workload(
                workload, args.seed, args.seconds, args.trace == 1)
        except (RuntimeError, ValueError, IndexError,
                subprocess.TimeoutExpired) as error:
            log("benchmark run failed:", error)
            return 1
        if len(workloads) > 1:
            print(f"== {workload}")
        for line in lines:
            print(line)
        report_fingerprint(workload, fingerprint, recorded)
        if args.record_fingerprint:
            recorded[workload] = fingerprint["simulated"]
        results[workload] = result

    if args.record_fingerprint:
        FINGERPRINTS.write_text(json.dumps(recorded, indent=2,
                                           sort_keys=True) + "\n")
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
