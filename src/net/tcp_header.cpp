#include "net/tcp_header.hpp"

#include "common/effect_annotations.hpp"

namespace hydranet::net {

std::string TcpHeader::flags_string() const {
  std::string s;
  if (syn) s += 'S';
  if (fin) s += 'F';
  if (rst) s += 'R';
  if (psh) s += 'P';
  if (ack_flag) s += 'A';
  return s.empty() ? "-" : s;
}

Bytes serialize_tcp(const TcpSegment& segment, Ipv4Address src,
                    Ipv4Address dst) {
  const TcpHeader& h = segment.header;

  // Assemble the options region, padded with NOPs to a 4-byte multiple.
  Bytes options;
  {
    ByteWriter opt(options);
    if (h.mss_option != 0) {
      opt.u8(2);  // kind: MSS
      opt.u8(4);
      opt.u16(h.mss_option);
    }
    if (h.sack_permitted) {
      opt.u8(4);  // kind: SACK-permitted
      opt.u8(2);
    }
    if (!h.sack_blocks.empty()) {
      std::size_t blocks =
          std::min(h.sack_blocks.size(), TcpHeader::kMaxSackBlocks);
      opt.u8(5);  // kind: SACK
      opt.u8(static_cast<std::uint8_t>(2 + 8 * blocks));
      for (std::size_t i = 0; i < blocks; ++i) {
        opt.u32(h.sack_blocks[i].first);
        opt.u32(h.sack_blocks[i].second);
      }
    }
    HN_EFFECT_ESCAPE(
        "TCP option padding: only SYN and SACK-bearing segments carry "
        "options; plain data and ACK segments leave the buffer empty "
        "and skips this loop")
    while (options.size() % 4 != 0) options.push_back(1);  // NOP padding
    HN_EFFECT_ESCAPE_END()
  }
  const std::size_t header_len = TcpHeader::kSize + options.size();
  auto total = static_cast<std::uint16_t>(header_len + segment.payload.size());

  Bytes wire = acquire_pooled_bytes(total);
  ByteWriter w(wire);
  w.u16(h.src_port);
  w.u16(h.dst_port);
  w.u32(h.seq);
  w.u32(h.ack);
  std::uint16_t offset_flags =
      static_cast<std::uint16_t>((header_len / 4) << 12);
  if (h.fin) offset_flags |= 0x001;
  if (h.syn) offset_flags |= 0x002;
  if (h.rst) offset_flags |= 0x004;
  if (h.psh) offset_flags |= 0x008;
  if (h.ack_flag) offset_flags |= 0x010;
  w.u16(offset_flags);
  w.u16(h.window);
  w.u16(0);  // checksum placeholder
  w.u16(0);  // urgent pointer (unused)
  w.raw(options);
  w.raw(segment.payload);

  std::uint32_t acc = pseudo_header_sum(src, dst, IpProto::tcp, total);
  std::uint16_t checksum = checksum_finish(checksum_accumulate(wire, acc));
  wire[16] = static_cast<std::uint8_t>(checksum >> 8);
  wire[17] = static_cast<std::uint8_t>(checksum & 0xff);
  return wire;
}

Result<TcpSegment> parse_tcp(const CowBytes& bytes, Ipv4Address src,
                             Ipv4Address dst) {
  BytesView wire = bytes.view();
  if (wire.size() < TcpHeader::kSize || wire.size() > 0xffff) {
    return Errc::invalid_argument;
  }
  std::uint32_t acc = pseudo_header_sum(
      src, dst, IpProto::tcp, static_cast<std::uint16_t>(wire.size()));
  if (checksum_finish(checksum_accumulate(wire, acc)) != 0) {
    return Errc::invalid_argument;
  }

  ByteReader r(wire);
  TcpSegment s;
  TcpHeader& h = s.header;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.seq = r.u32();
  h.ack = r.u32();
  std::uint16_t offset_flags = r.u16();
  std::size_t header_len = static_cast<std::size_t>(offset_flags >> 12) * 4;
  h.fin = (offset_flags & 0x001) != 0;
  h.syn = (offset_flags & 0x002) != 0;
  h.rst = (offset_flags & 0x004) != 0;
  h.psh = (offset_flags & 0x008) != 0;
  h.ack_flag = (offset_flags & 0x010) != 0;
  h.window = r.u16();
  r.skip(2);  // checksum, verified above
  r.skip(2);  // urgent pointer
  if (header_len < TcpHeader::kSize || header_len > wire.size()) {
    return Errc::invalid_argument;
  }

  // Walk the options region looking for MSS; skip anything else.
  std::size_t options_len = header_len - TcpHeader::kSize;
  while (options_len > 0) {
    std::uint8_t kind = r.u8();
    if (kind == 0) break;  // end of options
    if (kind == 1) {       // NOP
      options_len -= 1;
      continue;
    }
    if (options_len < 2) return Errc::invalid_argument;
    std::uint8_t len = r.u8();
    if (len < 2 || len > options_len) return Errc::invalid_argument;
    if (kind == 2 && len == 4) {
      h.mss_option = r.u16();
    } else if (kind == 4 && len == 2) {
      h.sack_permitted = true;
    } else if (kind == 5 && len >= 2 && (len - 2) % 8 == 0) {
      std::size_t blocks = (len - 2u) / 8;
      for (std::size_t i = 0; i < blocks; ++i) {
        std::uint32_t left = r.u32();
        std::uint32_t right = r.u32();
        if (h.sack_blocks.size() < TcpHeader::kMaxSackBlocks) {
          h.sack_blocks.emplace_back(left, right);
        }
      }
    } else {
      r.skip(len - 2);
    }
    options_len -= len;
  }

  // Borrow the payload as a slice of the caller's buffer — the common
  // case (segment handed to the reassembly buffer or the ft-TCP stage)
  // never copies it.
  s.payload = bytes.slice(header_len, wire.size() - header_len);
  return s;
}

}  // namespace hydranet::net
