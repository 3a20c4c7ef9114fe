// Lazily-allocated FIFO byte/element queue for per-connection buffers.
//
// std::deque allocates its map and first chunk at construction, which puts
// more than half a kilobyte of heap behind every empty queue — fatal at a
// million idle connections, each carrying a send and a receive buffer it
// may never use.  RingQueue is a power-of-two ring over one contiguous
// allocation that does not exist until the first push: an idle connection
// pays 32 bytes of inline state and nothing else, and a busy connection
// gets bulk memcpy in/out (at most two segments per transfer) that the
// deque's chunked layout denied.
//
// Only the operations the TCP buffers need are provided: append at the
// tail, drop from the head, random-access reads, and ranged reads (as
// borrowed runs, or copied out).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/effect_annotations.hpp"

namespace hydranet {

template <typename T>
class RingQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "RingQueue moves elements with memcpy");

 public:
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Current allocation in elements (0 until the first push).
  std::size_t capacity() const { return buf_.size(); }

  const T& operator[](std::size_t i) const {
    assert(i < count_);
    return buf_[wrap(head_ + i)];
  }
  const T& front() const { return (*this)[0]; }

  /// Hot-path effect root (DESIGN.md §12): once the ring reaches its
  /// high-water capacity, pushes are pure index arithmetic plus one store.
  void push_back(const T& v) HN_NONBLOCKING {
    HN_EFFECT_ESCAPE(
        "ring growth: power-of-two doubling amortised over every element "
        "pushed since; a ring at its high-water mark never reallocates")
    reserve_for(count_ + 1);
    HN_EFFECT_ESCAPE_END()
    buf_[wrap(head_ + count_)] = v;
    count_++;
  }

  /// Appends [first, last) at the tail.
  template <typename It>
  void append(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n == 0) return;
    reserve_for(count_ + n);
    if constexpr (std::contiguous_iterator<It>) {
      const std::size_t tail = wrap(head_ + count_);
      const std::size_t chunk = std::min(n, buf_.size() - tail);
      std::memcpy(buf_.data() + tail, std::to_address(first),
                  chunk * sizeof(T));
      std::memcpy(buf_.data(), std::to_address(first) + chunk,
                  (n - chunk) * sizeof(T));
    } else {
      for (std::size_t i = 0; i < n; ++i, ++first) {
        buf_[wrap(head_ + count_ + i)] = *first;
      }
    }
    count_ += n;
  }

  /// Appends `n` copies of `value`.
  void append_fill(std::size_t n, T value) {
    reserve_for(count_ + n);
    for (std::size_t i = 0; i < n; ++i) {
      buf_[wrap(head_ + count_ + i)] = value;
    }
    count_ += n;
  }

  /// Drops the first `n` elements (n <= size()).  Hot-path effect root
  /// (DESIGN.md §12): never touches memory beyond the inline state.
  void pop_front(std::size_t n) HN_NONBLOCKING {
    assert(n <= count_);
    count_ -= n;
    head_ = count_ == 0 ? 0 : wrap(head_ + n);
  }

  /// Elements [from, from + len) as at most two contiguous runs: `head`,
  /// then `tail` where the range wraps past the end of the allocation.
  /// The runs borrow the ring: valid until it is next appended to or
  /// cleared.
  struct Runs {
    std::span<const T> head;
    std::span<const T> tail;
  };
  Runs runs(std::size_t from, std::size_t len) const {
    if (len == 0) return {};  // any `from`, even one outside the queue
    assert(from + len <= count_);
    const std::size_t start = wrap(head_ + from);
    const std::size_t chunk = std::min(len, buf_.size() - start);
    return {{buf_.data() + start, chunk}, {buf_.data(), len - chunk}};
  }

  /// Appends elements [from, from + len) of the queue to `out`.
  void copy_range(std::size_t from, std::size_t len,
                  std::vector<T>& out) const {
    const Runs r = runs(from, len);
    out.reserve(out.size() + len);
    out.insert(out.end(), r.head.begin(), r.head.end());
    out.insert(out.end(), r.tail.begin(), r.tail.end());
  }

  void clear() {
    head_ = 0;
    count_ = 0;
    buf_.clear();
    buf_.shrink_to_fit();
  }

 private:
  std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

  void reserve_for(std::size_t needed) {
    if (needed <= buf_.size()) return;
    std::size_t cap = buf_.empty() ? 64 : buf_.size();
    while (cap < needed) cap *= 2;
    std::vector<T> grown(cap);
    if (count_ != 0) {
      const std::size_t chunk = std::min(count_, buf_.size() - head_);
      std::memcpy(grown.data(), buf_.data() + head_, chunk * sizeof(T));
      std::memcpy(grown.data() + chunk, buf_.data(),
                  (count_ - chunk) * sizeof(T));
    }
    buf_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< power-of-two length once allocated
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace hydranet
