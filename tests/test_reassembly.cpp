// Unit and property tests for the TCP reassembly buffer (islands past a
// gap, drained onto a receive ring once the gap fills).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "tcp/reassembly.hpp"

namespace hydranet::tcp {
namespace {

using Insert = ReassemblyBuffer::InsertResult;

Bytes bytes_of(std::initializer_list<int> values) {
  Bytes out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

/// The ring's contents, front to back.
Bytes contents(const RingQueue<std::uint8_t>& ring) {
  Bytes out;
  ring.copy_range(0, ring.size(), out);
  return out;
}

TEST(Reassembly, InOrderInsertAndExtract) {
  ReassemblyBuffer buffer;
  RingQueue<std::uint8_t> ring;
  EXPECT_EQ(buffer.insert(0, bytes_of({1, 2, 3}), 0, 100), Insert::new_data);
  EXPECT_EQ(buffer.drain_into(0, ring), 3u);
  EXPECT_EQ(contents(ring), bytes_of({1, 2, 3}));
  EXPECT_EQ(buffer.buffered(), 0u);
}

TEST(Reassembly, GapBlocksInOrderEnd) {
  ReassemblyBuffer buffer;
  RingQueue<std::uint8_t> ring;
  EXPECT_EQ(buffer.insert(5, bytes_of({6, 7}), 0, 100), Insert::new_data);
  EXPECT_EQ(buffer.drain_into(0, ring), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(buffer.insert(0, bytes_of({1, 2, 3, 4, 5}), 0, 100),
            Insert::new_data);
  EXPECT_EQ(buffer.drain_into(0, ring), 7u);
  EXPECT_EQ(contents(ring), bytes_of({1, 2, 3, 4, 5, 6, 7}));
}

TEST(Reassembly, ExactDuplicateIsReported) {
  ReassemblyBuffer buffer;
  EXPECT_EQ(buffer.insert(0, bytes_of({1, 2, 3}), 0, 100), Insert::new_data);
  EXPECT_EQ(buffer.insert(0, bytes_of({1, 2, 3}), 0, 100), Insert::duplicate);
  EXPECT_EQ(buffer.buffered(), 3u);  // nothing double-stored
}

TEST(Reassembly, DataBelowBaseIsDuplicate) {
  ReassemblyBuffer buffer;
  RingQueue<std::uint8_t> ring;
  EXPECT_EQ(buffer.insert(0, bytes_of({1, 2}), 5, 100), Insert::duplicate);
  // Straddling base: the old part is trimmed, the new part stored.
  EXPECT_EQ(buffer.insert(3, bytes_of({4, 5, 6, 7}), 5, 100),
            Insert::new_data);
  EXPECT_EQ(buffer.drain_into(5, ring), 2u);
  EXPECT_EQ(contents(ring), bytes_of({6, 7}));
}

TEST(Reassembly, DataBeyondWindowIsRejected) {
  ReassemblyBuffer buffer;
  EXPECT_EQ(buffer.insert(100, bytes_of({1}), 0, 50), Insert::out_of_window);
  // Straddling the window end: the inside part is kept.
  EXPECT_EQ(buffer.insert(48, bytes_of({1, 2, 3, 4}), 0, 50),
            Insert::new_data);
  EXPECT_EQ(buffer.buffered(), 2u);
}

TEST(Reassembly, OverlappingSegmentsStoreEachByteOnce) {
  ReassemblyBuffer buffer;
  RingQueue<std::uint8_t> ring;
  EXPECT_EQ(buffer.insert(0, bytes_of({1, 2, 3, 4}), 0, 100),
            Insert::new_data);
  EXPECT_EQ(buffer.insert(2, bytes_of({3, 4, 5, 6}), 0, 100),
            Insert::new_data);
  EXPECT_EQ(buffer.buffered(), 6u);
  EXPECT_EQ(buffer.drain_into(0, ring), 6u);
  EXPECT_EQ(contents(ring), bytes_of({1, 2, 3, 4, 5, 6}));
}

TEST(Reassembly, InsertFillingAGapBridgesNeighbours) {
  ReassemblyBuffer buffer;
  RingQueue<std::uint8_t> ring;
  (void)buffer.insert(0, bytes_of({1, 2}), 0, 100);
  (void)buffer.insert(4, bytes_of({5, 6}), 0, 100);
  // The drain stops at the gap and leaves the island buffered.
  EXPECT_EQ(buffer.drain_into(0, ring), 2u);
  EXPECT_EQ(buffer.buffered(), 2u);
  EXPECT_EQ(buffer.insert(2, bytes_of({3, 4}), 2, 100), Insert::new_data);
  EXPECT_EQ(buffer.drain_into(2, ring), 4u);
  EXPECT_EQ(contents(ring), bytes_of({1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(buffer.empty());
}

TEST(Reassembly, ClearResets) {
  ReassemblyBuffer buffer;
  RingQueue<std::uint8_t> ring;
  (void)buffer.insert(0, bytes_of({1, 2, 3}), 0, 100);
  buffer.clear();
  EXPECT_EQ(buffer.buffered(), 0u);
  EXPECT_EQ(buffer.drain_into(0, ring), 0u);
}

// Property: random segmentations with duplication, reordering and overlap
// always reassemble to the original stream.
class ReassemblyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReassemblyProperty, RandomisedSegmentsReassembleExactly) {
  Rng rng(GetParam());
  const std::size_t stream_len = 2000 + rng.uniform_int(0, 2000);
  Bytes stream(stream_len);
  for (std::size_t i = 0; i < stream_len; ++i) {
    stream[i] = static_cast<std::uint8_t>(rng.next());
  }

  // Build random (offset, length) pieces covering the stream, duplicated
  // and shuffled.
  struct Piece {
    std::size_t off, len;
  };
  std::vector<Piece> pieces;
  std::size_t cursor = 0;
  while (cursor < stream_len) {
    std::size_t len = 1 + rng.uniform_int(0, 300);
    len = std::min(len, stream_len - cursor);
    pieces.push_back({cursor, len});
    cursor += len;
  }
  std::size_t original = pieces.size();
  for (std::size_t i = 0; i < original / 2; ++i) {
    pieces.push_back(pieces[rng.uniform_int(0, original - 1)]);  // dupes
  }
  // Overlapping random windows.
  for (int i = 0; i < 20; ++i) {
    std::size_t off = rng.uniform_int(0, stream_len - 1);
    std::size_t len = 1 + rng.uniform_int(0, 200);
    len = std::min(len, stream_len - off);
    pieces.push_back({off, len});
  }
  // Shuffle.
  for (std::size_t i = pieces.size(); i > 1; --i) {
    std::swap(pieces[i - 1], pieces[rng.uniform_int(0, i - 1)]);
  }

  ReassemblyBuffer buffer;
  RingQueue<std::uint8_t> ring;
  std::uint64_t base = 0;
  for (const Piece& piece : pieces) {
    BytesView view(stream.data() + piece.off, piece.len);
    (void)buffer.insert(piece.off, view, base, stream_len);
    // Drain after every insert, as TCP does: what stays behind is islands.
    base += buffer.drain_into(base, ring);
    auto islands = buffer.blocks(1);
    ASSERT_TRUE(islands.empty() || islands.front().first > base);
  }
  ASSERT_EQ(ring.size(), stream_len);
  EXPECT_EQ(contents(ring), stream);
  EXPECT_EQ(buffer.buffered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace hydranet::tcp
