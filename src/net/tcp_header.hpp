// TCP segment wire format (RFC 793) with the MSS option, plus the segment
// abstraction shared by the TCP machinery and the ft-TCP extensions.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "net/ipv4.hpp"

namespace hydranet::net {

/// 32-bit TCP sequence arithmetic (wrap-around aware comparisons).
namespace seq {
inline bool lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool leq(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
inline bool gt(std::uint32_t a, std::uint32_t b) { return lt(b, a); }
inline bool geq(std::uint32_t a, std::uint32_t b) { return leq(b, a); }
inline std::uint32_t max(std::uint32_t a, std::uint32_t b) {
  return geq(a, b) ? a : b;
}
inline std::uint32_t min(std::uint32_t a, std::uint32_t b) {
  return leq(a, b) ? a : b;
}
}  // namespace seq

struct TcpHeader {
  static constexpr std::size_t kSize = 20;  ///< without options
  static constexpr std::size_t kMaxSackBlocks = 4;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  bool fin = false;
  bool syn = false;
  bool rst = false;
  bool psh = false;
  bool ack_flag = false;
  std::uint16_t window = 0;
  /// MSS option value; 0 means "option absent" (only valid on SYN).
  std::uint16_t mss_option = 0;
  /// SACK-permitted option (RFC 2018, kind 4); only valid on SYN.
  bool sack_permitted = false;
  /// SACK blocks (kind 5): [left, right) sequence ranges received beyond
  /// the cumulative ACK.  At most kMaxSackBlocks.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sack_blocks;

  std::string flags_string() const;

  /// Sequence-number length of a segment with this header carrying
  /// `payload_len` bytes: the payload plus one for SYN and FIN each.
  std::uint32_t seq_length(std::size_t payload_len) const {
    return static_cast<std::uint32_t>(payload_len) + (syn ? 1 : 0) +
           (fin ? 1 : 0);
  }
};

/// A TCP segment: header + payload, the unit the TCP machinery operates on.
/// The payload is copy-on-write: parsed segments borrow the datagram's
/// buffer, and segment copies (ft-TCP staging, retransmission queues)
/// share it.
struct TcpSegment {
  TcpHeader header;
  CowBytes payload;

  std::uint32_t seq_length() const {
    return header.seq_length(payload.size());
  }
};

/// Serialises `header` followed by a payload given as two runs, `head` then
/// `tail` (either may be empty), with a valid pseudo-header checksum.  The
/// payload bytes are copied once, straight into the pooled wire buffer.
Bytes serialize_tcp(const TcpHeader& header, BytesView head, BytesView tail,
                    Ipv4Address src, Ipv4Address dst);

/// Serialises a whole segment (resets, tests): the same wire bytes.
Bytes serialize_tcp(const TcpSegment& segment, Ipv4Address src,
                    Ipv4Address dst);

/// Parses and checksum-verifies a TCP segment carried in an IP payload.
/// The returned segment's payload borrows `wire`'s storage (no copy).
Result<TcpSegment> parse_tcp(const CowBytes& wire, Ipv4Address src,
                             Ipv4Address dst);

}  // namespace hydranet::net
