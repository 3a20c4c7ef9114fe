"""Hot-path effect analyzer: whole-program lint for the datapath's
no-alloc/no-lock/no-throw/no-I/O contract (DESIGN.md §12).

The datapath's benchmark results are *absence* results: PR 2/7 removed
allocations (slab arenas, packet-buffer pools — 0 allocs/pkt warm), PR 8
removed locks from the shard mailboxes, and the one TCP input path
deposits in-order bytes without staging them.  Nothing in a normal build
stops a future change from quietly re-introducing a `new`, a mutex
acquisition, or a logging call inside that code.  Clang >= 19 can enforce this with function-effect attributes (the
`effects` CMake preset); this tool is the half of the gate that works on
*any* compiler, in the mold of tools/shard_affinity.py.

What it enforces:

  1. *marker drift* — the hot-path roots carry HN_NONALLOCATING /
     HN_NONBLOCKING markers in the source (src/common/
     effect_annotations.hpp); EFFECT_ROOTS below is the contract table.
     A marked function missing from the table, or a tabled root whose
     marker disappeared from any of its declared files, is a finding —
     so neither the markers nor the table can silently rot.
  2. *reachable effects* — starting from the roots, every function
     transitively reachable through the token-level call graph is scanned
     for effect-introducing constructs:
       - allocation: `new`, `delete`, malloc-family, make_shared/unique;
       - container growth: push_back / emplace / resize / reserve /
         insert / assign on anything (growth is how std containers
         allocate) — except inside the slab/pool components, whose whole
         job is to own that memory and count it (datapath.slab.*,
         datapath.pool.*);
       - locking: hydranet::Mutex / std::mutex acquisition, lock guards;
       - `throw`;
       - I/O: printf-family, iostream globals, HLOG logging.
     Functions reachable from an HN_NONALLOCATING root are checked for
     the first two classes; HN_NONBLOCKING adds the rest.
  3. *sanctioned escapes* — a cold-path effect inside hot code (the slab
     arena growing a page, the scheduler's staging buffer spilling into
     its heap, event-callback dispatch) is wrapped in
     HN_EFFECT_ESCAPE("why this cannot erode the warm path") ...
     HN_EFFECT_ESCAPE_END().  The justification string is mandatory:
     an empty one is a finding.  ALLOWLIST below sanctions the remaining
     per-site cases where a source marker would be noise; entries carry a
     mandatory justification and go stale loudly (an entry that suppresses
     nothing is a finding).
  4. *doc drift* — when run over the real tree, every root must be named
     in DESIGN.md §12 so the catalogue can't drift from the table.

The release configuration is what the contract describes, so regions under
`#if HYDRANET_INVARIANTS` / `#if HYDRANET_TRACING` (compiled out of
Release) are stripped before analysis.

Analysis is token-level over the shared scanner (tools/source_scan.py),
so it always runs and reads the same text on every toolchain.  Traversal
rules, chosen to mirror what the Clang attribute layer would enforce:

  - indirect calls (std::function, member pointers) are not followed, and
    lambda bodies are excised before callee extraction: a callback is
    deferred work whose effects belong to its own contract, exactly like
    the scheduler's cb() dispatch escape;
  - CONTRACT_BOUNDARIES names declared hand-off points (the ft-hook
    virtual interface, the TCP -> IP `send` hand-off) where traversal
    stops, each with a mandatory justification;
  - std-container method names (push_back, insert, ...) are never
    traversed as callees — they are flagged *at the call site* by the
    growth scan instead, so a std::vector::push_back can never be
    mistaken for the repo's RingQueue::push_back and silently sanctioned;
  - otherwise same-named functions are merged conservatively (more
    reachability, never less); tabled roots are pinned to the bodies in
    their declared files so an unrelated same-named function elsewhere
    cannot widen a root's own closure.

run_static.py's `effects` mode runs it against an empty baseline.
"""

import re

from source_scan import blank, collect_markers, marker_drift, match_bracket

# ---- the contract tables ---------------------------------------------------

NONALLOC = "nonalloc"
NONBLOCK = "nonblock"
MARKER_OF = {NONALLOC: "HN_NONALLOCATING", NONBLOCK: "HN_NONBLOCKING"}

# (root function name, files that must carry its marker, effect class).
# NONBLOCK subsumes NONALLOC (mirrors the Clang attributes); each root
# carries exactly one marker.  The files list names every declaration and
# definition (Clang wants the attribute on both; removing either copy is a
# finding).  Checked both ways against the markers found in src/.
EFFECT_ROOTS = [
    # Scheduler: schedule/cancel/dispatch (staging buffer plus heap).
    ("schedule_at", ("src/sim/scheduler.hpp", "src/sim/scheduler.cpp"),
     NONBLOCK),
    ("schedule_after", ("src/sim/scheduler.hpp", "src/sim/scheduler.cpp"),
     NONBLOCK),
    ("cancel", ("src/sim/scheduler.hpp", "src/sim/scheduler.cpp"), NONBLOCK),
    ("run_next", ("src/sim/scheduler.hpp", "src/sim/scheduler.cpp"),
     NONBLOCK),
    ("run_until", ("src/sim/scheduler.hpp", "src/sim/scheduler.cpp"),
     NONBLOCK),
    ("run_through", ("src/sim/scheduler.hpp", "src/sim/scheduler.cpp"),
     NONBLOCK),
    # The one TCP input path: every segment a connection receives.
    ("on_segment", ("src/tcp/tcp_connection.hpp",
                    "src/tcp/tcp_connection.cpp"), NONBLOCK),
    # Per-segment connection demux: one probe of the flat table.
    ("find", ("src/tcp/connection_table.hpp",), NONBLOCK),
    # Coalesced page tick: the stack's dense scan of the page's cached
    # deadlines and each due connection's visit (keepalive or RTO).
    ("on_page_tick", ("src/tcp/tcp_stack.hpp", "src/tcp/tcp_stack.cpp",
                      "src/tcp/tcp_connection.hpp",
                      "src/tcp/tcp_connection.cpp"), NONBLOCK),
    # SIMD internet checksum (PR 7).
    ("internet_checksum", ("src/common/bytes.hpp",
                           "src/common/bytes.cpp"), NONBLOCK),
    ("checksum_accumulate", ("src/common/bytes.hpp",
                             "src/common/checksum.cpp"), NONBLOCK),
    # PacketBuffer pool warm path (PR 7: 0 allocs/pkt once pool-hot).
    ("acquire_pooled_bytes", ("src/common/packet_buffer.hpp",
                              "src/common/packet_buffer.cpp"), NONALLOC),
    ("recycle_storage_bytes", ("src/common/packet_buffer.hpp",
                               "src/common/packet_buffer.cpp"), NONALLOC),
    # SlabArena slot recycle (PR 7: connection churn without malloc).
    ("acquire", ("src/common/slab.hpp",), NONALLOC),
    ("release", ("src/common/slab.hpp",), NONALLOC),
    # RingQueue push/pop (PR 7: per-connection buffers).
    ("push_back", ("src/common/ring_queue.hpp",), NONBLOCK),
    ("pop_front", ("src/common/ring_queue.hpp",), NONBLOCK),
    # Shard mailbox post/drain (PR 8: no locks on the datapath).
    ("post", ("src/sim/shard.hpp", "src/sim/shard.cpp"), NONBLOCK),
    ("drain_inboxes", ("src/sim/shard.hpp", "src/sim/shard.cpp"), NONBLOCK),
]

# Components whose whole purpose is owning hot-path memory: allocation and
# container growth inside them is the counted, benchmark-gated slow path
# (datapath.slab.*, datapath.pool.*), not a contract breach.  Lock / throw
# / I/O scanning still applies to them.
POOL_COMPONENTS = {
    "src/common/slab.hpp", "src/common/slab.cpp",
    "src/common/packet_buffer.hpp", "src/common/packet_buffer.cpp",
    "src/common/inline_function.hpp",
}

# Hand-off points where the walk stops: the named function is a declared
# contract boundary, not part of the caller's effect budget.  Mirrors how
# the Clang layer treats virtual/indirect dispatch.  Every entry carries
# its justification.
CONTRACT_BOUNDARIES = {
    # The ft-hook virtual interface (TcpConnectionHooks, tcp_types.hpp):
    # the replication work behind these (the §4.3 gates, retransmission
    # and lifecycle reports) is the ftcp layer's own budget, gated by the
    # failover benches.  Each deposit asks deposit_limit and every
    # output() asks transmit_limit.
    "deposit_limit": "ft-hook virtual: the §4.3 deposit gate",
    "transmit_limit": "ft-hook virtual: the §4.3 send gate, asked on "
                      "every output()",
    "gate_marks": "ft-hook virtual: the gate marks the invariant "
                  "checks audit against",
    "filter_segment": "ft-hook virtual: backup swallow decision, asked "
                      "on the header and payload length before any "
                      "payload byte is read",
    "on_client_retransmission": "ft-hook virtual: loss-recovery path",
    "on_retransmission_timeout": "ft-hook virtual: failure-signal path",
    "on_established": "ft-hook virtual: connection lifecycle",
    "on_connection_closed": "ft-hook virtual: connection lifecycle",
    # The TCP -> IP hand-off.  The network layers below TCP (routing,
    # fragmentation, links, delivery) own their own effect budget; their
    # per-packet costs are gated by the packet-path benchmarks, not by the
    # TCP input-path contract.
    "send": "TCP -> IP hand-off: lower layers own their effect budget",
    # Connection teardown: a page tick reaches it only when a connection
    # exhausts its retransmissions, once per connection lifetime.  Folding
    # the connection's counters into the stack and deferring its release
    # are the lifecycle path's own budget, like on_connection_closed.
    "remove_connection": "connection lifecycle: teardown, once per "
                         "connection",
}

# Container-method names never traversed as callees (flagged at the call
# site by the growth scan instead): following them would merge
# std::vector::push_back with RingQueue::push_back and friends.
NO_TRAVERSE = {
    "push_back", "pop_back", "push_front", "pop_front", "emplace_back",
    "emplace_front", "emplace", "insert", "erase", "assign", "append",
    "append_fill", "resize", "reserve", "clear",
}

# Accessor / smart-pointer method names whose std identity dominates any
# same-named repo function: traversing them manufactures chains like
# `segment.payload.end()` (const BytesView iteration) -> CowBytes::end ->
# ensure_unique -> shared_ptr::reset -> PerThreadCounters::reset (a lock).
# Unlike NO_TRAVERSE there is no call-site scan for these — they are pure
# reads in every std container — so cutting them loses nothing.  Known
# limitation (documented in DESIGN.md §12): a *mutating* repo method
# deliberately named `end` or `reset` would not be walked.
NAME_MERGE_CUTS = {
    "begin", "end", "data", "front", "back", "get", "reset",
}

# Files whose definitions are excluded from the call graph because the
# modeled Release configuration compiles them out of the datapath: with
# HYDRANET_TRACING=OFF every trace2 free-function helper is an empty
# inline stub (recorder.hpp), and the Recorder implementation is reachable
# only through the tracing-ON wrappers that the OFF-strip removes.  Without
# this, the name merge unions the stub `begin_child` with the method
# `Recorder::begin_child` and drags the tracer's interning tables into
# every transmit closure.
RELEASE_EXCLUDED_PREFIXES = ("src/trace2/",)

# (repo-relative file, enclosing function, token) -> justification.  For
# sites where an HN_EFFECT_ESCAPE region in the source would be more noise
# than signal.  Justifications are mandatory; stale entries are findings.
ALLOWLIST = {
    # ByteWriter is the append primitive of every wire serialiser.  The
    # datapath serialisers hand it a buffer sized up front from the packet
    # pool (acquire_pooled_bytes warms to frame size), so the steady-state
    # appends write into existing capacity; per-site escapes on four
    # two-line methods would drown the header in markers.
    ("src/common/bytes.hpp", "u8", "push_back"):
        "ByteWriter append into capacity the caller pre-acquired from the "
        "packet pool (or a bounded local options buffer)",
    ("src/common/bytes.hpp", "u16", "push_back"):
        "ByteWriter append into capacity the caller pre-acquired from the "
        "packet pool (or a bounded local options buffer)",
    ("src/common/bytes.hpp", "u32", "push_back"):
        "ByteWriter append into capacity the caller pre-acquired from the "
        "packet pool (or a bounded local options buffer)",
    ("src/common/bytes.hpp", "raw", "insert"):
        "ByteWriter bulk append into capacity the caller pre-acquired from "
        "the packet pool (or a bounded local options buffer)",
    # Name-merge artifacts of `serialize`: the Ipv4 frame serialiser on the
    # transmit path merges with these protocol serialisers, which run on
    # the management / ICMP / replica-ACK planes, not the TCP datapath.
    # Each reserve sizes a message buffer once before appending.
    ("src/ftcp/ack_channel.cpp", "serialize", "reserve"):
        "ACK-channel message serialiser (replica control plane, reached "
        "only via the `serialize` name merge): one up-front reserve per "
        "message",
    ("src/icmp/icmp.cpp", "serialize", "reserve"):
        "ICMP serialiser (error plane, reached only via the `serialize` "
        "name merge): one up-front reserve per message",
    ("src/mgmt/protocol.cpp", "serialize", "reserve"):
        "management-protocol serialiser (control plane, reached only via "
        "the `serialize` name merge): one up-front reserve per message",
}

MARKER_EXCLUDE = "src/common/effect_annotations.hpp"
ESCAPE_OPEN = "HN_EFFECT_ESCAPE"
ESCAPE_CLOSE = "HN_EFFECT_ESCAPE_END"

# Preprocessor conditions treated as 0: the contract describes the Release
# hot path, where invariant checks and the span tracer compile out.
OFF_MACROS = {"HYDRANET_INVARIANTS", "HYDRANET_TRACING"}

# ---- banned-construct patterns ---------------------------------------------

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "assert", "defined", "new", "delete",
    "throw", "case", "do", "else", "goto", "co_await", "co_return",
    "noexcept", "alignas", "typeid", "requires",
}

ALLOC_PATTERNS = [
    # `new T` allocates; placement `new (mem) T` constructs into storage the
    # pool components already own and is allowed.
    (re.compile(r"\bnew\b(?!\s*\()"), "new"),
    (re.compile(r"(?<!=)(?<!= )\bdelete\b"), "delete"),  # `= delete` is fine
    (re.compile(r"\b(malloc|calloc|realloc|strdup)\s*\("), "malloc"),
    (re.compile(r"\bmake_(shared|unique)\b"), "make_shared/make_unique"),
]
GROWTH_METHODS = ("push_back|emplace_back|emplace|emplace_front|push_front"
                  "|resize|reserve|insert|assign|append|append_fill")
GROWTH_PATTERN = re.compile(r"(?:\.|->)\s*(" + GROWTH_METHODS + r")\s*\(")
LOCK_PATTERNS = [
    (re.compile(r"(?:\.|->)\s*(try_)?lock\s*\("), "lock()"),
    (re.compile(r"\b(LockGuard|UniqueLock|lock_guard|unique_lock"
                r"|scoped_lock)\b"), "lock guard"),
    (re.compile(r"\bstd::mutex\b|\bpthread_mutex"), "mutex"),
]
THROW_PATTERN = re.compile(r"\bthrow\b")
IO_PATTERNS = [
    (re.compile(r"\b(printf|fprintf|fwrite|fputs|puts|fopen|fflush|fputc"
                r"|putchar|getline|scanf|system)\s*\("), "stdio"),
    (re.compile(r"\bstd::(cout|cerr|clog|cin)\b"), "iostream"),
    (re.compile(r"\bHLOG\b"), "HLOG logging"),
]

IDENT_RE = re.compile(r"[A-Za-z_]\w*")
CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")
SPACE_RE = re.compile(r"\s*")
MEMBER_RE = re.compile(r"\s*[A-Za-z_]\w*\s*")
ESCAPE_RE = re.compile(r"\b" + ESCAPE_OPEN + r"(_END)?\b")
DIRECTIVE_RE = re.compile(r"\s*#\s*(if|ifdef|ifndef|elif|else|endif)\b(.*)")
OFF_CONDITION_RE = re.compile(r"\s*(?:defined\s*\(\s*)?(\w+)\s*\)?\s*")
LAMBDA_INTRO_RE = re.compile(
    r"\]\s*(\([^()]*\))?\s*(mutable\s*)?(noexcept\s*)?"
    r"(->\s*[\w:<>&*,\s]+?)?\s*\{")
QUALIFIER_RE = re.compile(
    r"\s*(const|noexcept|override|final|mutable|HN_\w+(\s*\([^)]*\))?"
    r"|\[\[[^\]]*\]\]|->\s*[\w:<>,*&\s]+)")


# ---- what the rules read -----------------------------------------------------


def blank_release_off(code):
    """`code` with the regions under `#if M` / `#ifdef M` blanked for the
    macros the Release build defines to 0 (OFF_MACROS), keeping any #else
    branch.  Unknown conditions keep both branches (conservative).  The
    conditional directives are blanked too; every offset is kept."""
    lines = code.split("\n")
    stack = []  # per open #if: [condition is an OFF macro, lines kept]
    for i, line in enumerate(lines):
        directive = DIRECTIVE_RE.match(line)
        kind = directive.group(1) if directive else None
        if kind in ("if", "ifdef", "ifndef"):
            macro = OFF_CONDITION_RE.fullmatch(directive.group(2))
            handled = bool(macro) and macro.group(1) in OFF_MACROS
            stack.append([handled, kind == "ifndef" or not handled])
        elif kind == "else" and stack:
            if stack[-1][0]:
                stack[-1][1] = not stack[-1][1]
        elif kind == "elif" and stack:
            if stack[-1][0]:
                stack[-1][1] = False  # past the handled arm: drop the rest
        elif kind == "endif" and stack:
            stack.pop()
        elif all(kept for _handled, kept in stack):
            continue
        lines[i] = blank(line)
    return "\n".join(lines)


def blank_lambda_bodies(code):
    """`code` with the contents of lambda bodies blanked (braces and every
    offset kept).  A lambda is deferred work: its effects belong to its own
    contract, not to the function that merely constructs it — the same
    boundary the scheduler's cb() dispatch escape draws at runtime."""
    out, done = [], 0
    for match in LAMBDA_INTRO_RE.finditer(code):
        brace = match.end() - 1
        end = match_bracket(code, brace) if brace >= done else -1
        if end > 0:
            out += [code[done:brace + 1], blank(code[brace + 1:end])]
            done = end
    return "".join(out) + code[done:]


def scan_text(src):
    """The text the effect rules read: the lexed file as Release compiles
    it, lambda bodies excised, every offset and line unchanged."""
    return blank_lambda_bodies(blank_release_off(src.code))


# ---- function extraction ---------------------------------------------------


def skip_initializer_list(text, pos):
    """From a ':' starting a constructor init list, returns the index of the
    body '{', or -1 when this isn't an init list after all."""
    pos += 1  # past ':'
    while True:
        member = MEMBER_RE.match(text, pos)
        if not member:
            return -1
        pos = member.end()
        if text.startswith("<", pos):  # templated base
            pos = match_bracket(text, pos)
            if pos < 0:
                return -1
            pos = SPACE_RE.match(text, pos + 1).end()
        if not text.startswith(("(", "{"), pos):
            return -1
        end = match_bracket(text, pos)
        if end < 0:
            return -1
        pos = SPACE_RE.match(text, end + 1).end()
        if not text.startswith(",", pos):
            return pos if text.startswith("{", pos) else -1
        pos += 1


def extract_functions(text):
    """[(name, body_start, body_end)] for every function definition in a
    scan text.  Token-level: a name followed by a balanced parameter list,
    optional qualifiers / init list, then a balanced '{' body."""
    functions = []
    for match in CALL_RE.finditer(text):
        name = match.group(1)
        if name in KEYWORDS:
            continue
        close = match_bracket(text, match.end() - 1)
        if close < 0:
            continue
        pos = close + 1
        while True:
            qual = QUALIFIER_RE.match(text, pos)
            if qual is None or qual.end() == pos:
                break
            pos = qual.end()
        pos = SPACE_RE.match(text, pos).end()
        if text.startswith(":", pos) and not text.startswith("::", pos):
            pos = skip_initializer_list(text, pos)
        if pos < 0 or not text.startswith("{", pos):
            continue
        end = match_bracket(text, pos)
        if end > 0:
            functions.append((name, pos, end + 1))
    return functions


# ---- markers and their catalogue -------------------------------------------


def marker_function_name(text, match):
    """The function a trailing effect marker annotates: the identifier that
    owns the parameter list immediately before the marker."""
    prefix = text[:match.start()].rstrip()
    trimmed = True
    while trimmed:
        trimmed = False
        for qual in ("const", "noexcept", "override", "final"):
            if prefix.endswith(qual):
                prefix = prefix[:-len(qual)].rstrip()
                trimmed = True
    if not prefix.endswith(")"):
        return None
    opener = match_bracket(prefix, len(prefix) - 1)
    if opener < 0:
        return None
    idents = IDENT_RE.findall(prefix[max(opener - 160, 0):opener])
    return idents[-1] if idents else None


def check_doc_catalogue(tree, findings):
    """Every root must be named in DESIGN.md §12 (real tree only)."""
    needed = {rel for _, root_files, _ in EFFECT_ROOTS for rel in root_files}
    if not needed.issubset(tree.files):
        return  # partial tree (lint fixture): no doc contract
    text = "\n".join(tree.design_section(12))
    if not text.strip():
        findings.append(
            "DESIGN.md: no §12 effect-contract catalogue — the roots table "
            "and sanctioned escapes must be documented there")
        return
    for name, _, _ in EFFECT_ROOTS:
        if f"`{name}`" not in text:
            findings.append(
                f"DESIGN.md: effect root `{name}` is missing from the §12 "
                "catalogue")


# ---- escape regions ---------------------------------------------------------


def escape_justification(text, src, pos):
    """The string literal(s) in the HN_EFFECT_ESCAPE(...) argument list
    that starts at `pos`, concatenated; empty when there is none."""
    paren = SPACE_RE.match(text, pos).end()
    if not text.startswith("(", paren):
        return ""
    close = match_bracket(text, paren)
    return "".join(value for offset, value in src.strings
                   if paren < offset < close)


def escape_regions(files, findings):
    """{rel: [(start_line, end_line)]} of HN_EFFECT_ESCAPE regions; also
    validates pairing and mandatory justification strings."""
    regions = {}
    for rel, (text, src) in files.items():
        if rel == MARKER_EXCLUDE:
            continue
        spans = []
        open_line = None
        for match in ESCAPE_RE.finditer(text):
            lineno = src.line_of(match.start())
            if match.group(1):  # the closing macro
                if open_line is None:
                    findings.append(
                        f"{rel}:{lineno}: {ESCAPE_CLOSE} without a matching "
                        f"{ESCAPE_OPEN}")
                else:
                    spans.append((open_line, lineno))
                    open_line = None
            elif open_line is not None:
                findings.append(
                    f"{rel}:{lineno}: nested {ESCAPE_OPEN} — close the "
                    "previous region first")
            else:
                if not escape_justification(text, src, match.end()).strip():
                    findings.append(
                        f"{rel}:{lineno}: {ESCAPE_OPEN} without a "
                        "justification string — every sanctioned escape "
                        "must say why it cannot erode the warm path")
                open_line = lineno
        if open_line is not None:
            findings.append(
                f"{rel}:{open_line}: {ESCAPE_OPEN} region never closed "
                f"({ESCAPE_CLOSE} missing)")
        regions[rel] = spans
    return regions


def in_escape(regions, rel, lineno):
    return any(start <= lineno <= end for start, end in regions.get(rel, []))


# ---- call graph -------------------------------------------------------------


def build_function_index(files):
    """{name: [(rel, body, body_start_line)]} over every definition."""
    index = {}
    for rel, (text, src) in files.items():
        if rel == MARKER_EXCLUDE:
            continue
        if rel.startswith(RELEASE_EXCLUDED_PREFIXES):
            continue
        for name, start, end in extract_functions(text):
            index.setdefault(name, []).append(
                (rel, text[start:end], src.line_of(start)))
    return index


def body_callees(body):
    names = set()
    for match in CALL_RE.finditer(body):
        name = match.group(1)
        if name not in KEYWORDS:
            names.add(name)
    return names


ROOT_FILES = {name: set(files) for name, files, _ in EFFECT_ROOTS}


def bodies_of(name, fn_index):
    """Definition bodies attributed to `name`.  Tabled roots are pinned to
    their declared files so an unrelated same-named function elsewhere
    (e.g. ShardEngine::run_until vs the Scheduler root) cannot widen the
    root's closure; everything else merges all same-named bodies."""
    bodies = fn_index.get(name, [])
    allowed = ROOT_FILES.get(name)
    if allowed is None:
        return bodies
    return [b for b in bodies if b[0] in allowed]


def reachable_from(roots, fn_index):
    """{name: chain} for every function reachable from `roots`, where chain
    is the discovery path 'root -> ... -> name' for diagnostics."""
    reached = {}
    queue = []
    for root in roots:
        if bodies_of(root, fn_index) and root not in reached:
            reached[root] = root
            queue.append(root)
    while queue:
        name = queue.pop()
        callees = set()
        for _rel, body, _line in bodies_of(name, fn_index):
            callees |= body_callees(body)
        for callee in sorted(callees):
            if (callee in NO_TRAVERSE or callee in NAME_MERGE_CUTS
                    or callee in CONTRACT_BOUNDARIES):
                continue
            if bodies_of(callee, fn_index) and callee not in reached:
                reached[callee] = f"{reached[name]} -> {callee}"
                queue.append(callee)
    return reached


# ---- effect scan ------------------------------------------------------------


def scan_body(rel, name, body, body_line, classes, regions, chain,
              used_allowlist, findings):
    """Flags banned constructs in one function body."""
    checks = []
    if "alloc" in classes and rel not in POOL_COMPONENTS:
        checks += [(p, label, "allocation") for p, label in ALLOC_PATTERNS]
        checks += [(GROWTH_PATTERN, None, "container growth")]
    if "lock" in classes:
        checks += [(p, label, "lock") for p, label in LOCK_PATTERNS]
        checks += [(THROW_PATTERN, "throw", "throw")]
        checks += [(p, label, "I/O") for p, label in IO_PATTERNS]
    if not checks:
        return
    for offset, line in enumerate(body.splitlines()):
        lineno = body_line + offset
        if in_escape(regions, rel, lineno):
            continue
        for pattern, label, kind in checks:
            match = pattern.search(line)
            if not match:
                continue
            token = label or match.group(1)
            key = (rel, name, token)
            if key in ALLOWLIST:
                used_allowlist.add(key)
                continue
            findings.append(
                f"{rel}:{lineno}: {kind} `{token}` in `{name}`, reachable "
                f"from a hot-path effect root ({chain}) — hoist it off the "
                "hot path, wrap a sanctioned cold path in "
                "HN_EFFECT_ESCAPE(\"why\"), or allowlist it in "
                "hotpath_effects.py with a justification")


def run(tree):
    """All checks over a source_scan.Tree; returns the findings list."""
    findings = []
    files = {rel: (scan_text(src), src) for rel, src in tree.files.items()}
    markers = collect_markers(
        {rel: text for rel, (text, _src) in files.items()
         if rel != MARKER_EXCLUDE},
        MARKER_OF.values(), marker_function_name)
    # A scan that resolves no roots at all is a misconfiguration (wrong
    # --source-dir), not a clean tree: fail loudly instead of passing
    # vacuously.  Fixture trees carry their own markers, so they resolve.
    tabled_present = [name for name, root_files, _ in EFFECT_ROOTS
                      if any(f in files for f in root_files)]
    if not markers and not tabled_present:
        findings.append(
            f"no effect roots found under {tree.root}: neither a tabled "
            "root file nor an HN_NONALLOCATING/HN_NONBLOCKING marker is in "
            "the scan — wrong --source-dir?")
    elif tabled_present and len(tabled_present) < len(
            {name for name, _f, _e in EFFECT_ROOTS}):
        for name, root_files, _effect in EFFECT_ROOTS:
            if not any(f in files for f in root_files):
                findings.append(
                    f"effect root `{name}`: none of its declared files "
                    f"({', '.join(sorted(root_files))}) are in the scan — "
                    "update EFFECT_ROOTS to follow the move")
    table = {(rel, name): MARKER_OF[effect]
             for name, root_files, effect in EFFECT_ROOTS
             for rel in root_files}
    findings += marker_drift(
        markers, table, files, "the hotpath_effects.py EFFECT_ROOTS table",
        "hot-path effect root", 12)
    check_doc_catalogue(tree, findings)
    regions = escape_regions(files, findings)
    fn_index = build_function_index(files)

    # Any marked function is a root for reachability (so fixture trees and
    # not-yet-tabled markers are analyzed too); the table adds the effect
    # class, defaulting to the stronger contract for unknown markers.
    effect_of = {name: effect for name, _files, effect in EFFECT_ROOTS}
    for _rel, _line, name, marker in markers:
        if name and name not in effect_of:
            effect_of[name] = (NONALLOC if marker == "HN_NONALLOCATING"
                               else NONBLOCK)

    nonalloc_roots = sorted(n for n, e in effect_of.items())
    nonblock_roots = sorted(n for n, e in effect_of.items()
                            if e == NONBLOCK)
    alloc_reach = reachable_from(nonalloc_roots, fn_index)
    block_reach = reachable_from(nonblock_roots, fn_index)

    used_allowlist = set()
    for name in sorted(set(alloc_reach) | set(block_reach)):
        classes = set()
        if name in alloc_reach:
            classes.add("alloc")
        if name in block_reach:
            classes.add("lock")
        chain = block_reach.get(name) or alloc_reach.get(name)
        for rel, body, body_line in bodies_of(name, fn_index):
            scan_body(rel, name, body, body_line, classes, regions, chain,
                      used_allowlist, findings)

    for name, why in sorted(CONTRACT_BOUNDARIES.items()):
        if not str(why).strip():
            findings.append(
                f"hotpath_effects.py CONTRACT_BOUNDARIES `{name}`: empty "
                "justification — every declared boundary must say why")
    for key, justification in sorted(ALLOWLIST.items()):
        if not str(justification).strip():
            findings.append(
                f"hotpath_effects.py ALLOWLIST {key}: empty justification — "
                "every sanctioned site must say why")
        elif key not in used_allowlist and key[0] in files:
            findings.append(
                f"hotpath_effects.py ALLOWLIST {key}: stale entry (suppresses "
                "nothing) — remove it so the allowlist stays tight")
    return findings
