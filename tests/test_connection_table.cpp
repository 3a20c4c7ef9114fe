// Randomized differential test: the TCP stack's open-addressing connection
// table against a std::map reference.  Both consume one seeded operation
// stream (insert, find and erase, of present and absent keys) drawn from
// key pools built to stress linear probing: keys that share one home slot,
// keys whose home is the last slot (their runs wrap to the front of the
// array, and so do the backward shifts that close erased holes), and
// enough distinct keys to force several doublings.  Every find and erase
// must agree with the reference, and the table's full contents are
// compared with it at intervals.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "tcp/connection_table.hpp"

namespace hydranet::tcp {
namespace {

/// The table only moves, copies and null-tests its owning pointers, so the
/// test hands it tokens: shared_ptrs owning an int label and pointing at it.
/// They are never dereferenced as connections.
std::shared_ptr<TcpConnection> token(int label) {
  auto owner = std::make_shared<int>(label);
  void* at = owner.get();
  return {std::move(owner), static_cast<TcpConnection*>(at)};
}

int label_of(const std::shared_ptr<TcpConnection>& connection) {
  const void* at = connection.get();
  return *static_cast<const int*>(at);
}

/// A distinct, never-dereferenced listener address per index.
TcpListener* fake_listener(int index) {
  static char storage[8];
  void* at = &storage[index % 8];
  return static_cast<TcpListener*>(at);
}

/// The server side of a client connection, as on a stack serving a
/// virtual host: only the remote half varies.
ConnectionKey server_key(std::uint32_t client, std::uint16_t port) {
  return {net::Endpoint{net::Ipv4Address(192, 20, 225, 20), 80},
          net::Endpoint{net::Ipv4Address(0x0a000002u | (client << 16)), port}};
}

/// `count` keys whose hash has `low_bits` in its low 8 bits: they share a
/// home slot at every capacity up to 256.
std::vector<ConnectionKey> keys_with_home(std::uint64_t low_bits,
                                          std::size_t count,
                                          std::uint32_t client) {
  std::vector<ConnectionKey> keys;
  for (std::uint32_t port = 1; keys.size() < count; ++port) {
    ConnectionKey key = server_key(client, static_cast<std::uint16_t>(port));
    if ((ConnectionKeyHash{}(key) & 0xff) == low_bits) keys.push_back(key);
  }
  return keys;
}

struct Expected {
  int label;
  TcpListener* pending;
};

class Lockstep {
 public:
  void insert(const ConnectionKey& key, TcpListener* pending) {
    if (ref_.contains(key)) return;  // the table requires absent keys
    const int label = next_label_++;
    table_.insert(key, token(label), pending);
    ref_.emplace(key, Expected{label, pending});
    ASSERT_EQ(table_.size(), ref_.size());
  }

  void find(const ConnectionKey& key) {
    ConnectionTable::Entry* entry = table_.find(key);
    auto it = ref_.find(key);
    ASSERT_EQ(entry != nullptr, it != ref_.end()) << key.to_string();
    if (entry == nullptr) return;
    EXPECT_EQ(entry->key, key);
    EXPECT_EQ(label_of(entry->connection), it->second.label);
    EXPECT_EQ(entry->pending_accept, it->second.pending);
  }

  void erase(const ConnectionKey& key) {
    std::shared_ptr<TcpConnection> owner = table_.erase(key);
    auto it = ref_.find(key);
    ASSERT_EQ(owner != nullptr, it != ref_.end()) << key.to_string();
    if (owner != nullptr) {
      EXPECT_EQ(label_of(owner), it->second.label);
      EXPECT_EQ(owner.use_count(), 1);  // the table kept no copy
      ref_.erase(it);
    }
    ASSERT_EQ(table_.size(), ref_.size());
  }

  /// Full-content comparison through iteration and through find.
  void check_all() {
    std::map<ConnectionKey, int> seen;
    for (const ConnectionTable::Entry& entry : table_) {
      EXPECT_TRUE(seen.emplace(entry.key, label_of(entry.connection)).second)
          << "duplicate " << entry.key.to_string();
    }
    ASSERT_EQ(seen.size(), ref_.size());
    for (const auto& [key, expected] : ref_) {
      EXPECT_EQ(seen[key], expected.label);
      find(key);
    }
    const std::size_t capacity = table_.capacity();
    EXPECT_EQ(capacity & (capacity - 1), 0u) << "power-of-two capacity";
    EXPECT_LE(4 * table_.size(), 3 * capacity);
  }

  ConnectionTable& table() { return table_; }
  std::size_t size() const { return ref_.size(); }

 private:
  ConnectionTable table_;
  std::map<ConnectionKey, Expected> ref_;
  int next_label_ = 0;
};

TEST(ConnectionTableFuzz, EmptyTableFindsNothing) {
  ConnectionTable table;
  EXPECT_EQ(table.find(server_key(1, 32768)), nullptr);
  EXPECT_EQ(table.erase(server_key(1, 32768)), nullptr);
  EXPECT_TRUE(table.begin() == table.end());
}

// The run that starts in the last slot wraps to slot 0; erasing its head
// must shift every wrapped member back across the end of the array.
TEST(ConnectionTableFuzz, EraseShiftsWrappedRunBackAcrossTheEnd) {
  Lockstep model;
  const auto wrapped = keys_with_home(0xff, 5, 1);
  const auto neighbours = keys_with_home(0x00, 2, 2);
  for (const auto& key : wrapped) model.insert(key, nullptr);
  for (const auto& key : neighbours) model.insert(key, fake_listener(1));
  // At this capacity `wrapped` call the last slot home, `neighbours` the
  // first, so the wrapped run pushes the neighbours further along.
  ASSERT_EQ(model.table().capacity(), ConnectionTable::kMinCapacity);
  model.erase(wrapped[0]);
  model.check_all();
  model.erase(wrapped[2]);
  model.check_all();
  model.erase(neighbours[0]);
  model.check_all();
}

TEST(ConnectionTableFuzz, LockstepWithReferenceMap) {
  std::mt19937_64 rng(20260417);
  // Pools: one home slot in the middle, the last home slot (wrapping runs),
  // and a broad set of client connections (growth, scattered homes).
  const auto mid = keys_with_home(0x47, 24, 3);
  const auto wrap = keys_with_home(0xff, 24, 4);
  std::vector<ConnectionKey> broad;
  for (std::uint32_t client = 1; client <= 4; ++client) {
    for (std::uint16_t port = 32768; port < 32768 + 700; ++port) {
      broad.push_back(server_key(client, port));
    }
  }
  auto pick = [&](const std::vector<ConnectionKey>& pool) {
    return pool[rng() % pool.size()];
  };
  Lockstep model;

  // Phase 1: a small table (at most 64 live keys, capacity <= 128) where
  // the colliding pools dominate, so probes and shifts cross long runs.
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t r = rng() % 100;
    const auto& pool = r % 3 == 0 ? mid : r % 3 == 1 ? wrap : broad;
    const ConnectionKey key = pick(pool);
    if (r < 40 && model.size() < 64) {
      model.insert(key, rng() % 4 == 0 ? fake_listener(op) : nullptr);
    } else if (r < 70) {
      model.find(key);
    } else {
      model.erase(key);
    }
    if (op % 97 == 0) model.check_all();
  }
  model.check_all();

  // Phase 2: grow through several doublings, then drain with interleaved
  // lookups of present and absent keys.
  for (const auto& key : broad) {
    model.insert(key, nullptr);
    if (rng() % 8 == 0) model.find(pick(broad));
  }
  model.check_all();
  EXPECT_GE(model.table().capacity(), 4096u);
  for (int op = 0; op < 30000 && model.size() > 0; ++op) {
    const ConnectionKey key = pick(rng() % 4 == 0 ? wrap : broad);
    if (rng() % 3 == 0) {
      model.find(key);
    } else {
      model.erase(key);
    }
    if (op % 997 == 0) model.check_all();
  }
  model.check_all();
}

}  // namespace
}  // namespace hydranet::tcp
