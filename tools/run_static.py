#!/usr/bin/env python3
"""Static-analysis gate: clang-tidy, cppcheck, custom repo lints, Clang
thread-safety analysis, the shard-affinity analyzer and the hot-path
effect analyzer.

Usage:
    run_static.py tidy         [--build-dir DIR] [--source-dir DIR]
    run_static.py cppcheck     [--source-dir DIR]
    run_static.py lint         [--source-dir DIR]
    run_static.py threadsafety [--source-dir DIR]
    run_static.py affinity     [--source-dir DIR]
    run_static.py effects      [--source-dir DIR]
    run_static.py --all        [--build-dir DIR] [--source-dir DIR]

Each mode prints normalised findings and exits non-zero when there are
any — the baseline is empty by policy (fix findings, don't suppress
them in a growing baseline file).  Exit code 77 means the required tool
is not installed, which ctest (SKIP_RETURN_CODE 77) reports as a skip,
keeping the suite green on minimal containers while CI images with the
tools installed enforce the gate.  `--all` runs every mode and prints a
per-mode summary table (exit non-zero if any mode failed; exit 77 when
every mode skipped, so ctest reports the hollow run as a skip instead
of a pass).  `--json PATH` (any mode, or --all) additionally writes a
machine-readable summary: per-mode status (ok/fail/skip) and finding
count, for CI annotations and trend dashboards.

The `lint`, `affinity` and `effects` modes need no external tools and
always run.  They read src/ through one scanner, tools/source_scan.py,
which a run loads once and shares between them.

The `lint` mode:
  * metric-name cross-check — every string literal in src/ that looks
    like a metric name (`<layer>.<name>` with a catalogued layer prefix)
    must appear in the DESIGN.md §8 table, and vice versa, so the
    observability docs can never drift from the code;
  * span-name cross-check — the same contract for the causal tracer's
    `span.<layer>.<what>` literals (src/trace2/span.hpp) against the §8
    span-name row;
  * reinterpret_cast ban — the only sanctioned reinterpret_cast lives in
    src/common/ (the as_bytes() helper); anywhere else must go through
    it;
  * slab-bypass ban — per-connection state (tcp::TcpConnection, the
    ft-TCP ConnState) lives in SlabArena pages (src/common/slab.hpp);
    direct `new`/`delete` of those types anywhere would bypass the
    freelist accounting the connection-scale bench depends on.  The
    arena itself placement-constructs through its type parameter, so it
    never spells the banned type names;
  * unordered-iteration ban — see UNORDERED_ITER_DIRS below.

The `threadsafety` mode compiles every src/ TU with Clang's
-Wthread-safety -Werror=thread-safety (-fsyntax-only, so no build tree
is needed), proving every HN_GUARDED_BY field access holds its mutex —
the compile-time half of the concurrency contract (DESIGN.md §11).
Skips (77) when no clang++ is installed, since the analysis is a Clang
extension; the `analysis` CMake preset enforces the same flags in a
full build when the configured compiler is Clang.

The `affinity` mode runs tools/shard_affinity.py — the other half of
the contract: HN_SHARD_AFFINE confinement, cross-shard reach-around
bans, and the thread_local allowlist.

The `effects` mode runs tools/hotpath_effects.py — the hot-path effect
contract (DESIGN.md §12): no allocation, locking, throwing, or I/O
reachable from the HN_NONALLOCATING / HN_NONBLOCKING datapath roots
outside sanctioned HN_EFFECT_ESCAPE regions.
"""

import argparse
import json
import pathlib
import re
import shutil
import subprocess
import sys

import hotpath_effects
import shard_affinity
import source_scan

SKIP = 77

# Layer prefixes catalogued in DESIGN.md §8; a whole string literal of the
# shape <prefix>.<token>(.<token>)* is treated as a metric name.  Literals
# with slashes (include paths) or other characters never match because the
# match is anchored over the entire literal.
METRIC_RE = re.compile(
    r"(ip|tcp|link|redirector|ftcp|mgmt|datapath|scheduler|shard|invariant"
    r"|trace)"
    r"\.[a-z0-9_]+(\.[a-z0-9_]+)*$"
)
# Causal-tracer span names: `span.<layer>.<what>` (src/trace2/span.hpp).
SPAN_RE = re.compile(r"span\.[a-z0-9_]+(\.[a-z0-9_]+)*$")

# Directories where iterating a hash-ordered container is banned: the
# std::unordered_map/unordered_set family and the TCP stack's
# open-addressing ConnectionTable (src/tcp/connection_table.hpp).  Hash
# order is implementation-defined, so any side effect sequenced by it
# (teardown order, retransmit order, gate updates, ack-channel reports)
# silently varies across standard libraries and breaks the simulator's
# determinism contract.  The sanctioned idioms are (a) collect the keys and
# sort them before acting, or (b) prove the loop body order-independent;
# either way the site carries `// hn-unordered-iter-ok: <why>` on the loop
# (or the line above it) with a non-empty justification.
UNORDERED_ITER_DIRS = ("src/sim/", "src/tcp/", "src/ftcp/", "src/redirector/")
UNORDERED_ITER_OK = re.compile(r"//\s*hn-unordered-iter-ok:\s*(\S.*)?$")
# A declaration: a std template's argument list opens at the trailing `<`;
# ConnectionTable is not a template, so its name follows the type directly.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<|\bConnectionTable\b")
# The declared name after the template argument list (or after the
# ConnectionTable type); a field's trailing annotations
# (`guarded_ HN_GUARDED_BY(mu_);`) may sit between it and the terminator.
UNORDERED_NAME_RE = re.compile(r"\s*(\w+)\s*(?:HN_\w+\s*\([^)]*\)\s*)*[;{=]")

# Types whose storage is owned by SlabArena (src/common/slab.hpp): direct
# heap allocation or deletion of them anywhere in src/ bypasses the slab.
SLAB_BYPASS_RE = re.compile(
    r"\bnew\s+(?:hydranet::)?(?:tcp::)?TcpConnection\b"
    r"|\bnew\s+(?:ReplicatedService::)?ConnState\b"
    r"|\bdelete\s+\(?\s*(?:hydranet::)?(?:tcp::)?TcpConnection\b"
)

# "/abs/path/src/x.cpp:12:3: warning: ... [check]" from clang-tidy/clang++.
DIAGNOSTIC_RE = re.compile(
    r"^(/\S+?):(\d+):(\d+): (?:warning|error): (.*)$", re.M)


def find_tool(names):
    for name in names:
        path = shutil.which(name)
        if path:
            return path
    return None


def skip(tool):
    """Reports a mode that cannot run; its result is None, not findings."""
    print(f"SKIP: {tool} not installed; install it to run this gate")


def report(findings, what):
    if not findings:
        print(f"OK: {what} clean")
        return 0
    print(f"FAIL: {len(findings)} {what} finding(s) vs empty baseline:")
    for finding in findings:
        print(f"  {finding}")
    return 1


def diagnostics(output, source_root):
    """`rel:line: message` for every clang-style diagnostic in `output`
    that points into source_root (system/third-party headers dropped)."""
    findings = set()
    for match in DIAGNOSTIC_RE.finditer(output):
        try:
            rel = pathlib.Path(match.group(1)).resolve().relative_to(
                source_root)
        except ValueError:
            continue
        findings.add(f"{rel}:{match.group(2)}: {match.group(4)}")
    return findings


# ---- clang-tidy -----------------------------------------------------------


def run_tidy(args, _tree):
    tidy = find_tool(["clang-tidy", "clang-tidy-18", "clang-tidy-17",
                      "clang-tidy-16", "clang-tidy-15"])
    if not tidy:
        return skip("clang-tidy")
    compile_db = pathlib.Path(args.build_dir) / "compile_commands.json"
    if not compile_db.exists():
        print(f"SKIP: {compile_db} missing; configure with "
              "CMAKE_EXPORT_COMPILE_COMMANDS=ON first")
        return None
    with open(compile_db) as handle:
        entries = json.load(handle)
    source_root = pathlib.Path(args.source_dir).resolve()
    files = sorted(
        entry["file"]
        for entry in entries
        if pathlib.Path(entry["file"]).resolve().is_relative_to(
            source_root / "src")
    )
    findings = set()
    for chunk_start in range(0, len(files), 16):
        chunk = files[chunk_start:chunk_start + 16]
        proc = subprocess.run(
            [tidy, "-p", str(args.build_dir), "--quiet", *chunk],
            capture_output=True, text=True)
        findings |= diagnostics(proc.stdout, source_root)
    return sorted(findings)


# ---- cppcheck -------------------------------------------------------------


def run_cppcheck(args, _tree):
    cppcheck = find_tool(["cppcheck"])
    if not cppcheck:
        return skip("cppcheck")
    source_root = pathlib.Path(args.source_dir).resolve()
    proc = subprocess.run(
        [cppcheck, "--enable=warning,performance,portability",
         "--std=c++20", "--inline-suppr", "--quiet",
         "--suppress=missingIncludeSystem",
         "--template={file}:{line}: {severity}: {message} [{id}]",
         str(source_root / "src")],
        capture_output=True, text=True)
    findings = []
    for line in proc.stderr.splitlines():
        match = re.match(r"(/\S+?):(\d+): (.*)", line)
        if not match:
            continue
        rel = pathlib.Path(match.group(1)).resolve().relative_to(source_root)
        findings.append(f"{rel}:{match.group(2)}: {match.group(3)}")
    return sorted(set(findings))


# ---- Clang thread-safety analysis -----------------------------------------


def run_threadsafety(args, _tree):
    clang = find_tool(["clang++", "clang++-18", "clang++-17", "clang++-16",
                       "clang++-15"])
    if not clang:
        return skip("clang++ (thread-safety analysis is a Clang extension)")
    source_root = pathlib.Path(args.source_dir).resolve()
    findings = set()
    for path in source_scan.list_sources(source_root):
        if path.suffix != ".cpp":
            continue
        proc = subprocess.run(
            [clang, "-fsyntax-only", "-std=c++20", "-xc++",
             f"-I{source_root / 'src'}",
             "-DHYDRANET_TRACING=1", "-DHYDRANET_INVARIANTS=1",
             "-Wthread-safety", "-Werror=thread-safety",
             "-Wno-everything", "-Wthread-safety",  # only this family
             str(path)],
            capture_output=True, text=True)
        findings |= diagnostics(proc.stderr, source_root)
    return sorted(findings)


# ---- custom lints ---------------------------------------------------------


def design_names(catalogue):
    """(metric names, span names) in the DESIGN.md §8 table, given the
    lines of that section."""
    metrics, spans = set(), set()
    for line in catalogue:
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) < 2 or not re.fullmatch(r"`[a-z]+\.`", cells[0]):
            continue
        prefix = cells[0].strip("`")
        names = spans if prefix == "span." else metrics
        # Parenthesised text is commentary (derived-value formulas, node
        # names); only backticked tokens in the list structure are names.
        counters_cell = re.sub(r"\([^)]*\)", "", cells[1])
        for token in re.findall(r"`([a-z0-9_.]+)`", counters_cell):
            names.add(prefix + token)
    return metrics, spans


def code_names(tree, pattern):
    """String literals in src/ that fully match `pattern`, each mapped to
    its first location."""
    names = {}
    for rel, src in tree.files.items():
        for offset, literal in src.strings:
            if pattern.fullmatch(literal):
                names.setdefault(literal, f"{rel}:{src.line_of(offset)}")
    return names


def name_drift(in_code, documented, kind, where):
    """Both directions of a literal-name <-> DESIGN.md §8 contract."""
    findings = [f"{in_code[name]}: {kind} `{name}` is not in the DESIGN.md "
                f"§8 {where}" for name in sorted(set(in_code) - documented)]
    findings += [f"DESIGN.md: {kind} `{name}` is catalogued in §8 but never "
                 "appears in src/"
                 for name in sorted(documented - set(in_code))]
    return findings


def unordered_iteration_findings(tree):
    """Range-for loops and .begin()/.cbegin() walks over unordered
    containers inside UNORDERED_ITER_DIRS, minus sites sanctioned with a
    justified hn-unordered-iter-ok comment.  Loops are matched by the
    container's name: a name declared in a header counts everywhere, one
    declared in a .cpp file only in that file, so a local set in one file
    cannot taint a sorted vector of the same name in another."""
    declared = {}
    for rel, src in tree.files.items():
        for match in UNORDERED_DECL_RE.finditer(src.code):
            end = match.end()
            if src.code[end - 1] == "<":
                end = source_scan.match_bracket(src.code, end - 1) + 1
            name = end > 0 and UNORDERED_NAME_RE.match(src.code, end)
            if name:
                declared.setdefault(rel, set()).add(name.group(1))
    in_headers = set().union(*(names for rel, names in declared.items()
                               if rel.endswith(".hpp")))
    findings = []
    for rel, src in tree.files.items():
        names = in_headers | declared.get(rel, set())
        if not rel.startswith(UNORDERED_ITER_DIRS) or not names:
            continue
        name_alt = "|".join(sorted(names))
        range_for = re.compile(r"\bfor\s*\([^;)]*:\s*(?:\w+\.)*(" + name_alt
                               + r")\s*\)")
        begin_walk = re.compile(r"\b(" + name_alt + r")\s*\.\s*c?begin\s*\(")
        for lineno, line in enumerate(src.lines, 1):
            match = range_for.search(line) or begin_walk.search(line)
            if not match:
                continue
            sanction = (
                UNORDERED_ITER_OK.search(src.comments.get(lineno, ""))
                or UNORDERED_ITER_OK.search(src.comments.get(lineno - 1, "")))
            if sanction and (sanction.group(1) or "").strip():
                continue
            if sanction:
                findings.append(
                    f"{rel}:{lineno}: hn-unordered-iter-ok without a "
                    "justification — say why the order cannot matter")
                continue
            findings.append(
                f"{rel}:{lineno}: iteration over unordered container "
                f"`{match.group(1)}` — hash order is implementation-"
                "defined; collect-and-sort the keys, or mark the loop "
                "`// hn-unordered-iter-ok: <why>` if provably "
                "order-independent")
    return findings


def run_lint(tree):
    catalogue = tree.design_section(8)
    findings = [] if catalogue else [
        "DESIGN.md: no §8 name catalogue to check src/ against — wrong "
        "--source-dir?"]
    metrics, spans = design_names(catalogue)
    findings += name_drift(code_names(tree, METRIC_RE), metrics, "metric",
                           "table")
    findings += name_drift(code_names(tree, SPAN_RE), spans, "span",
                           "span-name row")
    for rel, src in tree.files.items():
        for lineno, line in enumerate(src.lines, 1):
            if ("reinterpret_cast" in line
                    and not rel.startswith("src/common/")):
                # src/common/ is the one sanctioned home (as_bytes,
                # slab pages).
                findings.append(
                    f"{rel}:{lineno}: raw reinterpret_cast outside "
                    "src/common/ — use hydranet::as_bytes() or add a "
                    "helper next to it")
            if SLAB_BYPASS_RE.search(line):
                findings.append(
                    f"{rel}:{lineno}: direct new/delete of slab-owned "
                    "connection state — construct through "
                    "SlabArena (see src/common/slab.hpp)")
    return findings + unordered_iteration_findings(tree)


# mode -> (label in reports, check(args, tree) -> findings, or None when
# the mode's tool is missing).
MODES = {
    "tidy": ("clang-tidy", run_tidy),
    "cppcheck": ("cppcheck", run_cppcheck),
    "lint": ("lint", lambda _args, tree: run_lint(tree)),
    "threadsafety": ("thread-safety", run_threadsafety),
    "affinity": ("shard-affinity",
                 lambda _args, tree: shard_affinity.run(tree)),
    "effects": ("hot-path effects",
                lambda _args, tree: hotpath_effects.run(tree)),
}

STATUS_OF = {0: "ok", SKIP: "skip"}


def run_modes(args, modes):
    """Runs `modes` in sequence over one source tree, lexed at most once;
    returns {mode: (exit code, finding count)}."""
    tree = source_scan.Tree(args.source_dir)
    results = {}
    for mode in modes:
        if len(modes) > 1:
            print(f"==== {mode} " + "=" * (60 - len(mode)))
        label, check = MODES[mode]
        findings = check(args, tree)
        if findings is None:
            results[mode] = (SKIP, 0)
        else:
            results[mode] = (report(findings, label), len(findings))
    return results


def write_json_summary(path, results):
    summary = {
        "modes": {
            mode: {
                "status": STATUS_OF.get(code, "fail"),
                "findings": count,
            }
            for mode, (code, count) in results.items()
        },
        "total_findings": sum(count for _code, count in results.values()),
        "failed": sorted(mode for mode, (code, _n) in results.items()
                         if code not in (0, SKIP)),
        "skipped": sorted(mode for mode, (code, _n) in results.items()
                          if code == SKIP),
    }
    pathlib.Path(path).write_text(json.dumps(summary, indent=2) + "\n")


def aggregate(results):
    """One exit code for a set of modes: fail if any mode failed, skip
    (77) if *every* mode skipped — a run that checked nothing must not
    read as a pass — ok otherwise."""
    codes = [code for code, _count in results.values()]
    if any(code not in (0, SKIP) for code in codes):
        return 1
    if codes and all(code == SKIP for code in codes):
        return SKIP
    return 0


def run_all(args):
    """Every mode in sequence, with a per-mode summary table."""
    results = run_modes(args, list(MODES))
    print()
    print("mode          result  findings")
    print("------------  ------  --------")
    for mode, (code, count) in results.items():
        status = STATUS_OF.get(code, "fail").upper()
        shown = "-" if code == SKIP else str(count)
        print(f"{mode:<12}  {status:<6}  {shown}")
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", nargs="?", choices=sorted(MODES))
    parser.add_argument("--all", action="store_true",
                        help="run every mode with a summary table")
    parser.add_argument("--json", metavar="PATH",
                        help="write a machine-readable per-mode summary")
    parser.add_argument("--build-dir", default="build",
                        help="build tree whose compile_commands.json "
                             "clang-tidy reads")
    parser.add_argument("--source-dir",
                        default=str(pathlib.Path(__file__).resolve().parent
                                    .parent))
    args = parser.parse_args()
    if args.all:
        results = run_all(args)
    elif args.mode is None:
        parser.error("a mode (or --all) is required")
    else:
        results = run_modes(args, [args.mode])
    if args.json:
        write_json_summary(args.json, results)
    return aggregate(results)


if __name__ == "__main__":
    sys.exit(main())
