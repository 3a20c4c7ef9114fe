"""Shard-affinity analyzer: whole-program lint for the PR-8 concurrency
contract (DESIGN.md §10/§11).

The sharded engine's correctness rests on rules no compiler checks:
per-host state is only touched by its owning shard's thread, cross-shard
traffic flows only through the epoch mailboxes, and thread-local state is
a curated exception list.  This tool enforces the mechanical shadow of
those rules over every file in src/:

  1. *marker drift* — the entry points through which shard dispatch enters
     per-host state (Host / TcpStack / GatingHooks / ReplicatedService)
     are marked HN_SHARD_AFFINE in the source; the table below is the
     contract.  A marked method missing from the table, or a tabled method
     whose marker disappeared, is a finding — mirroring the metric-name
     lint, so the markers can never silently rot.
  2. *cross-shard reach-around* — outside the engine/topology/link layer,
     no code may index another shard's scheduler (`engine.scheduler(i)`)
     or post into the mailboxes directly (`engine->post(...)`): cross-
     shard effects go through Link::transmit, which is the one audited
     user of ShardEngine::post.
  3. *thread_local allowlist* — PR 8's TSan fix showed stray process/
     thread globals are exactly how races sneak in.  Every `thread_local`
     in src/ must be on the allowlist below (trace2 ambient ctx, the
     per-thread counter blocks, the packet-buffer freelists, the engine's
     own shard slot).
  4. *affine confinement* — shard-affine methods may only be called from
     the shard-affine modules (the per-host datapath: host/ip/tcp/udp/
     icmp/ftcp/redirector/mgmt/apps/link/testbed).  Cross-thread
     infrastructure (src/common, src/sim, src/stats, src/trace*,
     src/verify) naming one is a layering breach: that code runs on
     arbitrary threads.
  5. *post-closure confinement* — a closure handed to ShardEngine::post
     executes on the destination shard in a later epoch; only the link
     delivery path (src/link/link.cpp) may resume affine work there.
     An affine call inside a post closure anywhere else is a finding.

The rules are token-level over the shared scanner (tools/source_scan.py),
so they always run and read the same text on every toolchain.
run_static.py's `affinity` mode runs them against an empty baseline.
"""

import re

import source_scan

# ---- the contract tables ---------------------------------------------------

# (repo-relative file) -> method names that must carry HN_SHARD_AFFINE.
# Rule 1 checks both directions, but only for files present in the scanned
# tree (so fixture trees exercise single rules without dragging this in).
AFFINE_TABLE = {
    "src/host/host.hpp": {"record_event"},
    "src/tcp/tcp_stack.hpp": {"on_segment_datagram", "on_page_tick"},
    "src/tcp/tcp_types.hpp": {
        "deposit_limit", "transmit_limit", "filter_segment",
        "on_client_retransmission", "on_retransmission_timeout",
        "on_established", "on_connection_closed", "gate_marks",
    },
    "src/ftcp/replicated_service.hpp": {
        "deposit_limit", "transmit_limit", "filter_segment",
        "on_client_retransmission", "on_retransmission_timeout",
        "on_established", "on_connection_closed", "gate_marks",
        "promote_to_primary", "on_channel_message", "on_orphan_segment",
        "refresh",
    },
}

# Modules whose code runs on the owning shard's thread (per-host datapath
# plus the topology/test scaffolding that runs at quiescent points).
AFFINE_MODULES = (
    "src/host/", "src/ip/", "src/tcp/", "src/udp/", "src/icmp/",
    "src/ftcp/", "src/redirector/", "src/mgmt/", "src/apps/",
    "src/link/", "src/testbed/",
)

# The only files that may index schedulers by shard or call
# ShardEngine::post: the engine itself, the topology builder, the link.
ENGINE_ALLOWLIST = {
    "src/sim/shard.hpp", "src/sim/shard.cpp",
    "src/host/network.hpp", "src/host/network.cpp",
    "src/link/link.hpp", "src/link/link.cpp",
}

# The only file whose post closures may resume affine work (delivery runs
# on the destination shard, which owns the receiving host).
POST_CLOSURE_ALLOWLIST = {"src/link/link.cpp"}

# (repo-relative file, declared name) pairs sanctioned to be thread_local.
THREAD_LOCAL_ALLOWLIST = {
    ("src/sim/shard.cpp", "t_shard"),           # engine's own shard slot
    ("src/trace2/recorder.cpp", "g_ambient_ctx"),  # ambient trace ctx
    ("src/common/tls_counters.hpp", "holder"),  # per-thread counter blocks
    ("src/common/packet_buffer.cpp", "pool"),   # per-thread freelists
}

IDENT_RE = re.compile(r"[A-Za-z_]\w*")
# `engine.scheduler(x)` / `engine_->scheduler(x)` with a non-empty
# argument: indexing some shard's scheduler by number.  The no-argument
# accessors (Host::scheduler(), Network::scheduler()) are fine.
SCHED_INDEX_RE = re.compile(r"(?:\.|->)\s*scheduler\s*\(\s*[^)\s]")
# ShardEngine::post through any engine-shaped receiver.
ENGINE_POST_RE = re.compile(r"\bengine\w*\s*(?:\(\s*\))?\s*(?:\.|->)\s*post\s*\(")
THREAD_LOCAL_RE = re.compile(r"\bthread_local\b([^;={(]*)")
MARKER = "HN_SHARD_AFFINE"
MARKER_HOME = "src/common/thread_annotations.hpp"  # defines the marker
TYPE_WORDS = {"virtual", "void", "bool", "std", "uint32_t", "const",
              "inline", "override"}


def marked_method(code, match):
    """The method a (leading) HN_SHARD_AFFINE marker applies to: the last
    identifier before the first '(' after it (declarations may wrap)."""
    head = code[match.end():match.end() + 300].split("(", 1)[0]
    idents = [t for t in IDENT_RE.findall(head) if t not in TYPE_WORDS]
    return idents[-1] if idents else None


def run(tree):
    """All five checks over a source_scan.Tree; returns the findings."""
    markers = source_scan.collect_markers(
        {rel: src.code for rel, src in tree.files.items()
         if rel != MARKER_HOME},
        [MARKER], marked_method)
    table = {(rel, name): MARKER
             for rel, names in AFFINE_TABLE.items() for name in names}
    findings = source_scan.marker_drift(
        markers, table, tree.files, "the shard_affinity.py AFFINE_TABLE",
        "shard-affine entry point", 11)

    affine = {name for _rel, _line, name, _macro in markers if name}
    affine.update(*AFFINE_TABLE.values())
    affine_call = re.compile(
        r"(?:\.|->)\s*(" + "|".join(sorted(affine)) + r")\s*\(")
    for rel, src in tree.files.items():
        for lineno, line in enumerate(src.lines, 1):
            # Rule 2: cross-shard reach-around.
            if rel not in ENGINE_ALLOWLIST and SCHED_INDEX_RE.search(line):
                findings.append(
                    f"{rel}:{lineno}: indexes another shard's scheduler "
                    "directly — cross-shard work goes through "
                    "Mailbox posts (ShardEngine::post via Link::transmit)")
            if rel not in ENGINE_ALLOWLIST and ENGINE_POST_RE.search(line):
                findings.append(
                    f"{rel}:{lineno}: calls ShardEngine::post outside the "
                    "link layer — only Link::transmit may feed the "
                    "cross-shard mailboxes")
            # Rule 3: thread_local allowlist.
            thread_local = THREAD_LOCAL_RE.search(line)
            if thread_local:
                idents = IDENT_RE.findall(thread_local.group(1))
                name = idents[-1] if idents else "?"
                if (rel, name) not in THREAD_LOCAL_ALLOWLIST:
                    findings.append(
                        f"{rel}:{lineno}: thread_local `{name}` is not on "
                        "the shard_affinity.py allowlist — stray "
                        "thread-locals are how the sharded engine's races "
                        "snuck in; add it deliberately or use per-shard "
                        "state")
        # Rule 4: affine confinement.
        if not (rel.startswith(AFFINE_MODULES) or rel in AFFINE_TABLE
                or rel == MARKER_HOME):
            for call in affine_call.finditer(src.code):
                findings.append(
                    f"{rel}:{src.line_of(call.start())}: calls shard-affine "
                    f"`{call.group(1)}` from a non-affine module — this code "
                    "runs on arbitrary threads; route through the owning "
                    "shard's scheduler instead")
        # Rule 5: post-closure confinement.
        if rel in POST_CLOSURE_ALLOWLIST:
            continue
        for post in ENGINE_POST_RE.finditer(src.code):
            close = source_scan.match_bracket(src.code, post.end() - 1)
            if close < 0:
                continue
            for call in affine_call.finditer(src.code, post.end(), close):
                findings.append(
                    f"{rel}:{src.line_of(call.start())}: shard-affine "
                    f"`{call.group(1)}` called inside a mailbox-post closure "
                    "— only the link delivery path may resume affine work "
                    "on the destination shard")
    return findings
