// Network interfaces: the attachment points between nodes and links.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "common/packet_buffer.hpp"
#include "common/result.hpp"
#include "net/address.hpp"

namespace hydranet::link {

class Link;

/// One NIC of a node: an IPv4 address on a subnet, attached to one link.
/// Frames are reference-counted PacketBuffers, so handing one to the link
/// (and to its monitoring tap) never copies the bytes.
class NetworkInterface {
 public:
  using RxHandler = std::function<void(PacketBuffer frame)>;

  NetworkInterface(std::string name, net::Ipv4Address address, int prefix_len);

  const std::string& name() const { return name_; }
  net::Ipv4Address address() const { return address_; }
  int prefix_len() const { return prefix_len_; }

  /// True if `dst` lies in this interface's subnet (directly reachable).
  bool on_subnet(net::Ipv4Address dst) const;

  /// Installed by the node's IP layer; called once per arriving frame,
  /// bursts included.
  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }

  /// Attach/detach the link (done by Link::attach).
  void set_link(Link* link) { link_ = link; }
  Link* link() const { return link_; }

  /// Administrative up/down, used for failure injection.
  void set_up(bool up) { up_ = up; }
  bool is_up() const { return up_; }

  /// Hands a serialised datagram to the attached link.
  Status send(PacketBuffer frame);
  Status send(Bytes frame) { return send(PacketBuffer(std::move(frame))); }

  /// Called by the link when a frame arrives at this end.
  void handle_rx(PacketBuffer frame);
  void handle_rx(Bytes frame) { handle_rx(PacketBuffer(std::move(frame))); }
  /// Burst arrival (batching links): all `count` frames became due in the
  /// same scheduler event; each reaches the rx handler in arrival order.
  /// Consumes the frames.
  void handle_rx_burst(PacketBuffer* frames, std::size_t count);

  // Counters for tests and benches.
  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }

 private:
  std::string name_;
  net::Ipv4Address address_;
  int prefix_len_;
  bool up_ = true;
  Link* link_ = nullptr;
  RxHandler rx_handler_;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t rx_bytes_ = 0;
};

}  // namespace hydranet::link
