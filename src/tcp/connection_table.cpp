#include "tcp/connection_table.hpp"

#include <cassert>
#include <utility>

namespace hydranet::tcp {

void ConnectionTable::insert(const ConnectionKey& key,
                             std::shared_ptr<TcpConnection> connection,
                             TcpListener* pending_accept) {
  assert(connection != nullptr && find(key) == nullptr);
  if (4 * (size_ + 1) > 3 * slots_.size()) {
    HN_EFFECT_ESCAPE(
        "demux table growth: doubles the array once per doubling of the "
        "live connection count (connection setup, never a segment or a "
        "page tick); lookups and erases work in place")
    grow();
    HN_EFFECT_ESCAPE_END()
  }
  place(Entry{key, std::move(connection), pending_accept});
  size_++;
}

void ConnectionTable::place(Entry&& entry) {
  std::size_t i = home_slot(entry.key);
  while (slots_[i].connection != nullptr) i = (i + 1) & mask_;
  slots_[i] = std::move(entry);
}

std::shared_ptr<TcpConnection> ConnectionTable::erase(
    const ConnectionKey& key) {
  Entry* found = find(key);
  if (found == nullptr) return nullptr;
  std::shared_ptr<TcpConnection> owner = std::move(found->connection);
  found->pending_accept = nullptr;
  size_--;
  // Backward shift: walk the run after the hole and pull back every entry
  // whose home slot lies cyclically at or before the hole, so no probe
  // sequence ever crosses an empty slot to reach its key.
  auto hole = static_cast<std::size_t>(found - slots_.data());
  for (std::size_t i = (hole + 1) & mask_; slots_[i].connection != nullptr;
       i = (i + 1) & mask_) {
    const std::size_t from_home = (i - home_slot(slots_[i].key)) & mask_;
    if (from_home >= ((i - hole) & mask_)) {
      slots_[hole] = std::move(slots_[i]);
      slots_[i].pending_accept = nullptr;
      hole = i;
    }
  }
  return owner;
}

void ConnectionTable::grow() {
  std::vector<Entry> old = std::move(slots_);
  const std::size_t capacity =
      old.empty() ? kMinCapacity : 2 * old.size();
  slots_ = std::vector<Entry>(capacity);
  mask_ = capacity - 1;
  for (Entry& entry : old) {
    if (entry.connection != nullptr) place(std::move(entry));
  }
}

}  // namespace hydranet::tcp
