#include "tcp/reassembly.hpp"

#include <algorithm>

#include "common/effect_annotations.hpp"

namespace hydranet::tcp {

ReassemblyBuffer::InsertResult ReassemblyBuffer::insert(
    std::uint64_t off, BytesView data, std::uint64_t base,
    std::uint64_t window_end) {
  std::uint64_t begin = off;
  std::uint64_t end = off + data.size();

  // Clip to the receive window; bytes below `base` are already in order.
  std::uint64_t clipped_begin = std::max(begin, base);
  std::uint64_t clipped_end = std::min(end, window_end);
  if (clipped_begin >= clipped_end) {
    return end <= base ? InsertResult::duplicate : InsertResult::out_of_window;
  }

  bool stored_new = false;
  std::uint64_t cursor = clipped_begin;
  while (cursor < clipped_end) {
    // Find the chunk covering or following `cursor`.
    auto next = chunks_.lower_bound(cursor);
    if (next != chunks_.begin()) {
      auto prev = std::prev(next);
      std::uint64_t prev_end = prev->first + prev->second.size();
      if (prev_end > cursor) {
        // cursor lies inside an existing chunk: skip the overlap.
        cursor = prev_end;
        continue;
      }
    }
    std::uint64_t gap_end =
        next == chunks_.end() ? clipped_end : std::min(clipped_end, next->first);
    if (cursor >= gap_end) {
      // No gap before the next chunk; jump past it.
      if (next == chunks_.end()) break;
      cursor = next->first + next->second.size();
      continue;
    }
    // Store [cursor, gap_end) from the input.
    std::size_t src_from = cursor - begin;
    std::size_t len = gap_end - cursor;
    Bytes piece(data.begin() + static_cast<std::ptrdiff_t>(src_from),
                data.begin() + static_cast<std::ptrdiff_t>(src_from + len));
    bytes_ += piece.size();
    chunks_.emplace(cursor, std::move(piece));
    stored_new = true;
    cursor = gap_end;
  }
  return stored_new ? InsertResult::new_data : InsertResult::duplicate;
}

std::size_t ReassemblyBuffer::drain_into(std::uint64_t base,
                                         RingQueue<std::uint8_t>& ring) {
  // Inserts clip at the ring's tail, so no chunk starts below `base`.
  std::size_t moved = 0;
  for (auto it = chunks_.begin();
       it != chunks_.end() && it->first == base + moved;
       it = chunks_.erase(it)) {
    HN_EFFECT_ESCAPE(
        "hole repair: islands a retransmission made contiguous move onto "
        "the receive ring once each; an in-order arrival with no islands is "
        "appended by the connection and never comes here")
    ring.append(it->second.begin(), it->second.end());
    HN_EFFECT_ESCAPE_END()
    moved += it->second.size();
    bytes_ -= it->second.size();
  }
  return moved;
}

void ReassemblyBuffer::clear() {
  chunks_.clear();
  bytes_ = 0;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> ReassemblyBuffer::blocks(
    std::size_t max_blocks) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
  for (const auto& [begin, data] : chunks_) {
    // Chunks are disjoint, so a chunk either extends the last block or
    // starts a new one past a gap.
    if (!blocks.empty() && begin == blocks.back().second) {
      blocks.back().second += data.size();
      continue;
    }
    if (blocks.size() == max_blocks) break;
    HN_EFFECT_ESCAPE(
        "SACK island assembly: at most max_blocks (kMaxSackBlocks) entries, "
        "and only reached while islands exist — the out-of-order path, "
        "never an in-order arrival")
    blocks.emplace_back(begin, begin + data.size());
    HN_EFFECT_ESCAPE_END()
  }
  return blocks;
}

}  // namespace hydranet::tcp
