// Fixture: iteration over the TCP stack's open-addressing connection
// table, which visits its entries in hash order just like a std unordered
// container.  The determinism lint must flag the unsanctioned loop and
// accept the justified one.
#pragma once

#include <cstddef>

#include "tcp/connection_table.hpp"

namespace hydranet::tcp {

class StackDemux {
 public:
  std::size_t first_pending_port() const {
    for (const ConnectionTable::Entry& entry : table_) {
      if (entry.pending_accept != nullptr) return entry.key.remote.port;
    }
    return 0;
  }

  std::size_t count() const {
    std::size_t total = 0;
    // hn-unordered-iter-ok: order-independent — counting only
    for (const ConnectionTable::Entry& entry : table_) total += 1;
    return total;
  }

 private:
  ConnectionTable table_;
};

}  // namespace hydranet::tcp
