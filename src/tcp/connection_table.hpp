// The TCP stack's connection demux: one open-addressing hash table keyed by
// the 4-tuple.  Every inbound segment costs one probe sequence here, so the
// layout is flat: a power-of-two array of entries holding the key and the
// owning pointer inline (no per-connection heap node, no bucket array),
// linear probing, and backward-shift erase, so the array never carries
// tombstones and a probe stops at the first empty slot.
//
// Iteration visits entries in hash order.  Like the std unordered
// containers, that order is not part of the simulation: the
// unordered-iteration lint (tools/run_static.py) treats this type as one.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/effect_annotations.hpp"
#include "tcp/tcp_types.hpp"

namespace hydranet::tcp {

class TcpConnection;
class TcpListener;

class ConnectionTable {
 public:
  struct Entry {
    ConnectionKey key{};
    /// Owns the connection while it is demuxable; null marks an empty slot.
    std::shared_ptr<TcpConnection> connection;
    /// The listener whose accept callback this passive open still awaits.
    TcpListener* pending_accept = nullptr;
  };

  /// Capacity of the first array.  The table doubles before its size
  /// exceeds 3/4 of the capacity, so every probe ends at an empty slot.
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  /// Bytes of the entry array (bench_connection_scale's demux figure).
  std::size_t bytes_reserved() const { return slots_.size() * sizeof(Entry); }

  /// Hot-path effect root (DESIGN.md §12): the per-segment demux probe —
  /// a linear walk from the key's home slot to its entry or the first
  /// empty slot; no allocation, no locks.  The pointer stays valid until
  /// the next insert or erase.
  Entry* find(const ConnectionKey& key) HN_NONBLOCKING {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home_slot(key);; i = (i + 1) & mask_) {
      Entry& entry = slots_[i];
      if (entry.connection == nullptr) return nullptr;
      if (entry.key == key) return &entry;
    }
  }

  /// Adds `key`, which must be absent; `connection` must be non-null.
  void insert(const ConnectionKey& key,
              std::shared_ptr<TcpConnection> connection,
              TcpListener* pending_accept = nullptr);
  /// Removes `key` and hands back its owning pointer (null when absent).
  std::shared_ptr<TcpConnection> erase(const ConnectionKey& key);

  /// Occupied entries in array (hash) order.
  template <typename E>
  class Iterator {
   public:
    Iterator(E* at, E* end) : at_(at), end_(end) { skip_empty(); }
    E& operator*() const { return *at_; }
    Iterator& operator++() {
      ++at_;
      skip_empty();
      return *this;
    }
    bool operator==(const Iterator& other) const { return at_ == other.at_; }

   private:
    void skip_empty() {
      while (at_ != end_ && at_->connection == nullptr) ++at_;
    }
    E* at_;
    E* end_;
  };
  Iterator<Entry> begin() { return {slots_.data(), slots_end()}; }
  Iterator<Entry> end() { return {slots_end(), slots_end()}; }
  Iterator<const Entry> begin() const { return {slots_.data(), slots_end()}; }
  Iterator<const Entry> end() const { return {slots_end(), slots_end()}; }

 private:
  std::size_t home_slot(const ConnectionKey& key) const {
    return ConnectionKeyHash{}(key) & mask_;
  }
  /// Doubles the array (or allocates the first one) and re-inserts every
  /// entry.
  void grow();
  /// Places an entry known to be absent without checking the load.
  void place(Entry&& entry);

  Entry* slots_end() { return slots_.data() + slots_.size(); }
  const Entry* slots_end() const { return slots_.data() + slots_.size(); }

  std::vector<Entry> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hydranet::tcp
