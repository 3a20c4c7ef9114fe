// Out-of-order segment reassembly for the TCP receive path.
//
// Works in 64-bit *stream offsets* (bytes since the initial sequence
// number) rather than raw 32-bit sequence numbers, so ordering is total.
// The buffer keeps only *islands*: bytes that arrived past a gap.  Every
// in-order byte lives in the connection's receive ring, including the
// bytes the ft-TCP deposit gate still holds behind RCV.NXT (§4.3), so
// inserts are based at the ring's tail and drain_into() moves whatever a
// filled hole made contiguous onto that ring.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/ring_queue.hpp"

namespace hydranet::tcp {

class ReassemblyBuffer {
 public:
  enum class InsertResult {
    new_data,     ///< at least one previously-unseen byte stored
    duplicate,    ///< every byte was already present or already consumed
    out_of_window,///< entirely outside [base, window_end): dropped
  };

  /// Stores `data` at stream offset `off`, clipped to [base, window_end).
  InsertResult insert(std::uint64_t off, BytesView data, std::uint64_t base,
                      std::uint64_t window_end);

  /// Appends the chunks that continue the stream at `base` to `ring`, in
  /// order and whole, and returns how many bytes moved (0 while a gap is
  /// still open at `base`).
  std::size_t drain_into(std::uint64_t base, RingQueue<std::uint8_t>& ring);

  /// Total bytes currently buffered.
  std::size_t buffered() const { return bytes_; }

  /// The islands, merged and ascending, at most `max_blocks` of them — the
  /// material for SACK blocks.  Bytes the deposit gate holds sit in the
  /// receive ring, never here, so they look unreceived to the client and
  /// the failure estimator keeps its retransmission signal.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks(
      std::size_t max_blocks) const;

  bool empty() const { return chunks_.empty(); }
  void clear();

 private:
  std::map<std::uint64_t, Bytes> chunks_;  // offset -> contiguous bytes
  std::size_t bytes_ = 0;
};

}  // namespace hydranet::tcp
