#include "tcp/reassembly.hpp"

#include <algorithm>
#include <cassert>

#include "common/effect_annotations.hpp"

namespace hydranet::tcp {

ReassemblyBuffer::InsertResult ReassemblyBuffer::insert(
    std::uint64_t off, BytesView data, std::uint64_t base,
    std::uint64_t window_end) {
  std::uint64_t begin = off;
  std::uint64_t end = off + data.size();

  // Clip to the receive window; bytes below `base` are already consumed.
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

std::uint64_t ReassemblyBuffer::in_order_end(std::uint64_t base) const {
  std::uint64_t end = base;
  for (auto it = chunks_.lower_bound(base); it != chunks_.end(); ++it) {
    if (it->first > end) break;
    end = std::max(end, it->first + it->second.size());
  }
  // Also account for a chunk starting below base that extends past it.
  auto it = chunks_.lower_bound(base);
  if (it != chunks_.begin()) {
    auto prev = std::prev(it);
    std::uint64_t prev_end = prev->first + prev->second.size();
    if (prev_end > end) {
      // Re-scan from prev_end for further contiguity.
      std::uint64_t extended = prev_end;
      for (auto jt = chunks_.lower_bound(base); jt != chunks_.end(); ++jt) {
        if (jt->first > extended) break;
        extended = std::max(extended, jt->first + jt->second.size());
      }
      end = extended;
    }
  }
  return end;
}

Bytes ReassemblyBuffer::extract(std::uint64_t base, std::uint64_t limit) {
  Bytes out;
  if (limit <= base) return out;
  HN_EFFECT_ESCAPE(
      "staged-deposit drain: bytes the ft-TCP deposit gate held or a hole "
      "reordered, drained once per gate report or repaired hole; a segment "
      "that arrives in order with nothing staged never comes here")
  out.reserve(limit - base);
  std::uint64_t cursor = base;
  while (cursor < limit) {
    auto it = chunks_.upper_bound(cursor);
    assert(it != chunks_.begin() && "extract() requires contiguous data");
    --it;
    std::uint64_t chunk_begin = it->first;
    std::uint64_t chunk_end = chunk_begin + it->second.size();
    assert(chunk_begin <= cursor && chunk_end > cursor);
    std::size_t from = cursor - chunk_begin;
    std::size_t take = std::min<std::uint64_t>(chunk_end, limit) - cursor;
    out.insert(out.end(),
               it->second.begin() + static_cast<std::ptrdiff_t>(from),
               it->second.begin() + static_cast<std::ptrdiff_t>(from + take));
    cursor += take;

    if (chunk_end <= limit && from == 0) {
      // Whole chunk consumed.
      bytes_ -= it->second.size();
      chunks_.erase(it);
    } else if (chunk_end <= limit) {
      // Tail of chunk consumed; keep the head... cannot happen: from > 0
      // only when chunk_begin < base, i.e. a chunk straddling base, which
      // extract consumes fully up to limit.  Trim the chunk to its head.
      Bytes head(it->second.begin(),
                 it->second.begin() + static_cast<std::ptrdiff_t>(from));
      bytes_ -= (it->second.size() - head.size());
      it->second = std::move(head);
    } else {
      // Chunk extends past limit: keep the tail, re-keyed at limit.
      Bytes tail(it->second.begin() + static_cast<std::ptrdiff_t>(from + take),
                 it->second.end());
      Bytes head(it->second.begin(),
                 it->second.begin() + static_cast<std::ptrdiff_t>(from));
      bytes_ -= (it->second.size() - head.size() - tail.size());
      if (head.empty()) {
        chunks_.erase(it);
      } else {
        it->second = std::move(head);
      }
      if (!tail.empty()) chunks_.emplace(cursor, std::move(tail));
    }
  }
  HN_EFFECT_ESCAPE_END()
  return out;
}

void ReassemblyBuffer::clear() {
  chunks_.clear();
  bytes_ = 0;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
ReassemblyBuffer::blocks_beyond(std::uint64_t base,
                                std::size_t max_blocks) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
  std::uint64_t prefix_end = in_order_end(base);
  std::uint64_t current_start = 0;
  std::uint64_t current_end = 0;
  bool open = false;
  for (auto it = chunks_.upper_bound(prefix_end); it != chunks_.end(); ++it) {
    // upper_bound(prefix_end) may still skip a chunk that starts exactly
    // at prefix_end (part of the prefix) — that is the intent.
    std::uint64_t begin = it->first;
    std::uint64_t end = begin + it->second.size();
    if (begin <= prefix_end) continue;  // belongs to the contiguous prefix
    if (open && begin <= current_end) {
      current_end = std::max(current_end, end);
      continue;
    }
    if (open) {
      HN_EFFECT_ESCAPE(
          "SACK island assembly: at most max_blocks (kMaxSackBlocks) "
          "entries, and only reached when the reassembly queue has gaps — "
          "the out-of-order path, never an in-order arrival")
      blocks.emplace_back(current_start, current_end);
      HN_EFFECT_ESCAPE_END()
      if (blocks.size() >= max_blocks) return blocks;
    }
    open = true;
    current_start = begin;
    current_end = end;
  }
  if (open && blocks.size() < max_blocks) {
    HN_EFFECT_ESCAPE(
        "SACK island assembly tail: same bound and same out-of-order-only "
        "reachability as the loop above")
    blocks.emplace_back(current_start, current_end);
    HN_EFFECT_ESCAPE_END()
  }
  return blocks;
}

}  // namespace hydranet::tcp
