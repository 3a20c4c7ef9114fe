// Hot-path effect contract (DESIGN.md §12).
//
// The datapath earned its numbers by *removing effects*: PR 2/7 removed
// allocations (slab arenas, packet-buffer pools — 0 allocs/pkt warm), PR 8
// removed locks and atomics from the shard mailboxes, and the one TCP
// input path (TcpConnection::on_segment) deposits in-order bytes without
// staging them.  Nothing in the type system stops a future
// change from quietly re-introducing a `new`, a mutex acquisition, or a
// throwing path inside those functions and eroding the benchmarked
// behaviour.  These markers make the discipline machine-checked, the way
// src/common/thread_annotations.hpp made the locking rules machine-checked:
//
//   * HN_NONALLOCATING — the function (and everything it reaches on the
//     warm path) performs no heap allocation or deallocation.
//   * HN_NONBLOCKING — additionally acquires no locks, does not throw and
//     performs no I/O.  Strictly stronger than HN_NONALLOCATING.
//
// Both markers are trailing annotations (they appertain to the function
// type, like noexcept):
//
//   TimerId schedule_at(TimePoint t, Callback cb) HN_NONBLOCKING;
//
// Two independent enforcement layers consume them:
//
//   1. Clang >= 19 function-effect analysis.  Under -DHYDRANET_EFFECTS=ON
//      (the `effects` CMake preset) the markers expand to
//      [[clang::nonallocating]] / [[clang::nonblocking]] and the tree is
//      compiled with -Werror=function-effects, so a blocking or allocating
//      call reachable from a marked function is a build break.  On other
//      compilers — and on older Clang — the markers expand to nothing.
//   2. tools/hotpath_effects.py (run_static.py `effects` mode, ctest label
//      `analysis`).  A whole-program call-graph walk that needs no special
//      compiler: starting from the marked roots (cross-checked both ways
//      against its EFFECT_ROOTS table so marker drift is itself a finding)
//      it flags reachable allocation, container growth, mutex acquisition,
//      `throw` and I/O outside the slab/pool components.
//
// The deliberate escape hatch is the HN_EFFECT_ESCAPE(...) /
// HN_EFFECT_ESCAPE_END() region:
// a sanctioned cold-path effect inside a hot function — the slab arena
// growing a page, the scheduler's staging buffer spilling into its
// heap, event-callback dispatch (the callee is outside the scheduler's
// own contract) — is wrapped in a region whose mandatory justification
// string names *why* the effect cannot erode the warm path.  Both
// enforcement layers honour the region: under Clang it suppresses
// -Wfunction-effects between the two markers; the analyzer skips banned
// tokens inside it but reports a finding when the justification is empty.
//
// Every escape is catalogued in DESIGN.md §12 next to the roots table.
#pragma once

// The function-effect attributes ([[clang::nonblocking]] and friends) and
// the -Wfunction-effects verification pass shipped in Clang 19.  The
// __has_cpp_attribute probe keeps the header correct on any earlier or
// non-Clang compiler claiming HYDRANET_EFFECTS.
#if defined(HYDRANET_EFFECTS) && defined(__clang__) && \
    defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::nonblocking)
#define HN_EFFECT_ATTRS 1
#endif
#endif

#ifdef HN_EFFECT_ATTRS
#define HN_NONALLOCATING [[clang::nonallocating]]
#define HN_NONBLOCKING [[clang::nonblocking]]
// Diagnostic suppression is lexical, so the pragma pair brackets exactly
// the sanctioned statements and nothing else.
#define HN_EFFECT_ESCAPE(justification)          \
  _Pragma("clang diagnostic push")               \
  _Pragma("clang diagnostic ignored \"-Wfunction-effects\"")
#define HN_EFFECT_ESCAPE_END() _Pragma("clang diagnostic pop")
#else
#define HN_NONALLOCATING
#define HN_NONBLOCKING
#define HN_EFFECT_ESCAPE(justification)
#define HN_EFFECT_ESCAPE_END()
#endif
