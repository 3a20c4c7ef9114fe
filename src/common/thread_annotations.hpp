// Compile-time concurrency contract (DESIGN.md §11).
//
// Two kinds of machine-checked markers live here:
//
//   * Clang thread-safety attributes (HN_CAPABILITY, HN_GUARDED_BY, ...)
//     wrapped so they expand to nothing off Clang.  Every mutex in src/
//     is an hn::Mutex and every field it protects carries HN_GUARDED_BY;
//     `tools/run_static.py threadsafety` (and the `analysis` CMake preset)
//     compiles the tree with -Wthread-safety -Werror=thread-safety, so a
//     lock forgotten on any annotated field is a build break, not a TSan
//     flake.
//
//   * HN_SHARD_AFFINE, a pure marker (expands to nothing everywhere) for
//     methods that may only run on the owning shard's thread — the sharded
//     engine's partitioning rule (DESIGN.md §10).  `tools/shard_affinity.py`
//     cross-checks the markers against its entry-point table and polices
//     who calls them.
#pragma once

#include <mutex>

#if defined(__clang__)
#define HN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HN_THREAD_ANNOTATION(x)
#endif

#define HN_CAPABILITY(x) HN_THREAD_ANNOTATION(capability(x))
#define HN_SCOPED_CAPABILITY HN_THREAD_ANNOTATION(scoped_lockable)
#define HN_GUARDED_BY(x) HN_THREAD_ANNOTATION(guarded_by(x))
#define HN_PT_GUARDED_BY(x) HN_THREAD_ANNOTATION(pt_guarded_by(x))
#define HN_REQUIRES(...) \
  HN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define HN_ACQUIRE(...) HN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define HN_RELEASE(...) HN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define HN_TRY_ACQUIRE(...) \
  HN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define HN_EXCLUDES(...) HN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define HN_RETURN_CAPABILITY(x) HN_THREAD_ANNOTATION(lock_returned(x))

/// Marks a method as shard-affine: it touches per-host state owned by one
/// shard and must only execute on that shard's thread — reached from the
/// owning shard's scheduler dispatch or from another affine method, never
/// directly across shards (cross-shard work goes through ShardEngine::post).
/// Enforced by tools/shard_affinity.py, not the compiler.
#define HN_SHARD_AFFINE

namespace hydranet {

/// std::mutex with the Clang capability annotations, so fields can declare
/// HN_GUARDED_BY(mu_) and -Wthread-safety proves every access holds it.
class HN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HN_ACQUIRE() { mu_.lock(); }
  void unlock() HN_RELEASE() { mu_.unlock(); }
  bool try_lock() HN_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped mutex, for std::condition_variable waits (via UniqueLock
  /// below).  The analysis keeps treating the capability as held across
  /// the wait, which matches cv semantics: wait() reacquires before it
  /// returns, so guarded accesses on either side of it are covered.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// std::lock_guard over hn::Mutex, annotated as a scoped capability.
class HN_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) HN_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() HN_RELEASE() { mu_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// std::unique_lock over hn::Mutex, for condition-variable waits:
/// `while (cond) cv.wait(lock.native());` — explicit loops, not predicate
/// lambdas, which the analysis cannot see the held lock inside.
/// Always locked for its whole scope —
/// the deferred/adopt states of std::unique_lock are not exposed because
/// the analysis could not track them.
class HN_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) HN_ACQUIRE(mu) : lock_(mu.native()) {}
  ~UniqueLock() HN_RELEASE() {}
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace hydranet
