// Fixture: iteration over unordered containers in a protocol layer.  The
// determinism lint must flag a loop over a field whose declaration ends
// in a thread-safety annotation, a loop over a plain field, and a
// sanction comment that gives no justification.
#pragma once

#include <unordered_map>

#include "common/thread_annotations.hpp"

namespace hydranet::tcp {

class ConnTable {
 public:
  int sum_guarded() {
    LockGuard lock(mu_);
    int total = 0;
    for (const auto& [port, count] : guarded_) total += count;
    return total;
  }

  int sum_plain() const {
    int total = 0;
    for (const auto& [port, count] : plain_) total += count;
    return total;
  }

  int sum_unjustified() const {
    int total = 0;
    // hn-unordered-iter-ok:
    for (const auto& [port, count] : plain_) total += count;
    return total;
  }

 private:
  Mutex mu_;
  std::unordered_map<int, int> guarded_ HN_GUARDED_BY(mu_);
  std::unordered_map<int, int> plain_;
};

}  // namespace hydranet::tcp
