// Spreads a measurement over the allowed CPUs, one CPU at a time.
//
// On a shared virtual machine a vCPU can slow to about half speed for
// seconds while a neighbour competes for the physical core, and which vCPUs
// are slow changes over time.  The pin holds every thread of the process on
// one allowed CPU: settle() tries a probe on every CPU and stays on the
// fastest, observe() moves on to the next CPU when a timed unit of work
// (a set-up, or a measurement window's mean operation) runs more than
// kSlowdown times slower than the best one since reset(), and next() moves
// on unconditionally.  Threads created later inherit the mask of the
// thread that creates them, so the 2-shard engine's two threads share the
// CPU: waking a thread parked on another vCPU cost a host-dependent delay
// at every epoch barrier, which swung that workload by ±30% between runs.
#pragma once

#include <dirent.h>
#include <sched.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <vector>

namespace perfbench {

class CpuPin {
 public:
  static constexpr double kSlowdown = 1.15;

  CpuPin() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
    if (cpus_.size() < 2) {
      cpus_.clear();  // nothing to choose between
      return;
    }
    pin();
  }

  /// Runs `probe` once on every allowed CPU and stays on the one where it
  /// ran fastest.
  template <typename Fn>
  void settle(Fn&& probe) {
    if (cpus_.empty()) return;
    double fastest = std::numeric_limits<double>::infinity();
    std::size_t chosen = at_;
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      at_ = i;
      pin();
      const auto t0 = std::chrono::steady_clock::now();
      probe();
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - t0;
      if (took.count() < fastest) {
        fastest = took.count();
        chosen = i;
      }
    }
    at_ = chosen;
    pin();
  }

  /// Starts comparing a new kind of unit.
  void reset() { best_ = std::numeric_limits<double>::infinity(); }

  /// Moves to the next allowed CPU.
  void next() {
    if (cpus_.empty()) return;
    at_ = (at_ + 1) % cpus_.size();
    pin();
    hops_++;
  }

  /// Reports one timed unit of work; moves on if it was slow.
  void observe(double duration) {
    if (!(duration > 0)) return;
    if (duration < best_) best_ = duration;
    if (duration > kSlowdown * best_) next();
  }
  unsigned hops() const { return hops_; }

 private:
  /// Moves every thread of the process to the current CPU.
  void pin() {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpus_[at_], &mask);
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) {
      (void)sched_setaffinity(0, sizeof mask, &mask);
      return;
    }
    while (const dirent* entry = readdir(tasks)) {
      const int tid = std::atoi(entry->d_name);
      // A thread that exits meanwhile just fails the call.
      if (tid > 0) (void)sched_setaffinity(tid, sizeof mask, &mask);
    }
    closedir(tasks);
  }

  std::vector<int> cpus_;
  std::size_t at_ = 0;
  double best_ = std::numeric_limits<double>::infinity();
  unsigned hops_ = 0;
};

}  // namespace perfbench
