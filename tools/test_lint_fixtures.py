#!/usr/bin/env python3
"""Negative tests for the custom static gates.

Each tree under tests/lint_fixtures/ contains deliberate violations of
one gate's rules.  This test runs the relevant run_static.py mode against
every tree and asserts the gate *fires* (exit 1) with every expected
diagnostic at its `file:line`.  Without this, a regex typo in
run_static.py, shard_affinity.py or hotpath_effects.py could silently
disable a lint forever — every run would report a clean tree and nobody
would notice.

Every gate reports lines of the shared scanner's output
(tools/source_scan.py) as lines of the file, so the test also lexes each
file of the real src/ and checks the output has as many lines as the
file.

Run directly or via ctest (label: analysis).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import source_scan

TOOLS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TOOLS_DIR.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

# (fixture dir, run_static.py mode, diagnostics that must appear in the
# output, each from its `file:line` on)
CASES = [
    (
        "metric_drift",
        "lint",
        [
            "src/bad_metric.cpp:4: metric `tcp.bogus_counter` is not in "
            "the DESIGN.md",
        ],
    ),
    (
        "span_drift",
        "lint",
        ["src/bad_span.cpp:3: span `span.tcp.bogus` is not in the DESIGN.md"],
    ),
    (
        "reinterpret",
        "lint",
        ["src/net/bad_cast.cpp:4: raw reinterpret_cast outside src/common/"],
    ),
    (
        "slab_bypass",
        "lint",
        ["src/bad_alloc.cpp:4: direct new/delete of slab-owned"],
    ),
    (
        "unordered_iter",
        "lint",
        [
            "src/tcp/conn_table.hpp:18: iteration over unordered container "
            "`guarded_`",
            "src/tcp/conn_table.hpp:24: iteration over unordered container "
            "`plain_`",
            "src/tcp/conn_table.hpp:31: hn-unordered-iter-ok without a "
            "justification",
            "src/tcp/stack_demux.hpp:16: iteration over unordered container "
            "`table_`",
        ],
    ),
    (
        "shard_affinity",
        "affinity",
        [
            "src/bad_affinity.cpp:12: HN_SHARD_AFFINE on `rogue_entry` is "
            "not in the shard_affinity.py AFFINE_TABLE",
            "src/bad_affinity.cpp:14: indexes another shard's scheduler",
            "src/bad_affinity.cpp:17: calls ShardEngine::post outside the "
            "link layer",
            "src/bad_affinity.cpp:22: calls shard-affine `record_event` from "
            "a non-affine module",
            "src/bad_affinity.cpp:22: shard-affine `record_event` called "
            "inside a mailbox-post closure",
        ],
    ),
    (
        "thread_local",
        "affinity",
        ["src/bad_tls.cpp:4: thread_local `g_scratch` is not on the"],
    ),
    (
        "effect_alloc",
        "effects",
        [
            "src/sim/scheduler.hpp:22: allocation `new` in "
            "`remember_cancellation`, reachable from a hot-path effect root "
            "(cancel -> forget -> remember_cancellation)",
        ],
    ),
    (
        "effect_lock",
        "effects",
        [
            "src/sim/shard.hpp:19: lock `lock()` in `enqueue`, reachable "
            "from a hot-path effect root (post -> enqueue)",
        ],
    ),
    (
        "effect_char_literal",
        "effects",
        [
            "src/stats/row_writer.hpp:21: allocation `new` in `quote`, "
            "reachable from a hot-path effect root (write_row -> quote)",
        ],
    ),
]


def run_case(fixture: str, mode: str, expected: list[str]) -> list[str]:
    """Returns a list of failure descriptions (empty = pass)."""
    tree = FIXTURES / fixture
    if not tree.is_dir():
        return [f"fixture tree missing: {tree}"]
    proc = subprocess.run(
        [
            sys.executable,
            str(TOOLS_DIR / "run_static.py"),
            mode,
            "--source-dir",
            str(tree),
        ],
        capture_output=True,
        text=True,
    )
    output = proc.stdout + proc.stderr
    failures = []
    if proc.returncode != 1:
        failures.append(
            f"expected exit 1 (gate fires), got {proc.returncode}; output:\n{output}"
        )
    for needle in expected:
        if needle not in output:
            failures.append(f"missing diagnostic {needle!r} in output:\n{output}")
    return failures


def scanner_line_failures() -> list[str]:
    """Files of the real src/ whose lexed text has a different number of
    lines than the file itself."""
    failures = []
    for rel, src in source_scan.Tree(REPO_ROOT).files.items():
        lexed, actual = len(src.code.splitlines()), len(src.text.splitlines())
        if lexed != actual:
            failures.append(f"{rel}: scanner output has {lexed} lines, the file {actual}")
    return failures


def main() -> int:
    total_failures = 0
    for fixture, mode, expected in CASES:
        failures = run_case(fixture, mode, expected)
        if failures:
            total_failures += len(failures)
            print(f"FAIL {fixture} ({mode}):")
            for failure in failures:
                print(f"  {failure}")
        else:
            print(f"ok   {fixture} ({mode}): gate fired with expected diagnostics")
    failures = scanner_line_failures()
    if failures:
        total_failures += len(failures)
        print("FAIL scanner line count:")
        for failure in failures:
            print(f"  {failure}")
    else:
        print("ok   scanner output keeps the line count of every src/ file")
    if total_failures:
        print(f"FAIL: {total_failures} fixture assertion(s) failed")
        return 1
    print(f"OK: all {len(CASES)} lint fixtures fire their gates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
