// DHCP over the virtual LAN.
//
// The paper (§II.B) notes that because WAVNet joins hosts at the link
// layer, "protocols such as DHCP can be applied without any
// modification". This module proves it: a DHCP server on one member of
// the virtual LAN leases addresses to clients anywhere in the VPC — the
// DISCOVER broadcast rides the WAV-Switch flood path through the WAN
// tunnels like any other Ethernet broadcast.
//
// The wire format is a compact DHCP subset (op/xid/chaddr/yiaddr +
// message type), exchanged as real bytes over UDP 67/68 with the classic
// DORA handshake (Discover, Offer, Request, Ack).
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>

#include "stack/udp.hpp"
#include "wavnet/bridge.hpp"
#include "wavnet/virtual_ip.hpp"

namespace wav::wavnet {

enum class DhcpMessageType : std::uint8_t {
  kDiscover = 1,
  kOffer = 2,
  kRequest = 3,
  kAck = 5,
  kNak = 6,
};

struct DhcpMessage {
  DhcpMessageType type{DhcpMessageType::kDiscover};
  std::uint32_t xid{0};
  net::MacAddress client_mac{};
  net::Ipv4Address your_ip{};     // offered/acknowledged address
  net::Ipv4Address server_ip{};
  std::uint32_t lease_seconds{0};
};

[[nodiscard]] net::Chunk encode_dhcp(const DhcpMessage& msg);
[[nodiscard]] std::optional<DhcpMessage> parse_dhcp(const net::Chunk& chunk);

/// Leases addresses from a pool. Runs on any virtual-LAN member's stack.
class DhcpServer {
 public:
  struct Config {
    net::Ipv4Address pool_begin{};
    std::size_t pool_size{100};
    Duration lease_time{seconds(3600)};
  };

  DhcpServer(VirtualIpStack& stack, Config config);

  [[nodiscard]] std::size_t active_leases() const noexcept { return leases_.size(); }
  [[nodiscard]] std::optional<net::Ipv4Address> lease_of(net::MacAddress mac) const;

  struct Stats {
    std::uint64_t discovers{0};
    std::uint64_t acks{0};
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void on_datagram(const net::Endpoint& from, const net::UdpDatagram& dgram);
  [[nodiscard]] std::optional<net::Ipv4Address> allocate(net::MacAddress mac);

  VirtualIpStack& stack_;
  Config config_;
  stack::UdpLayer udp_;
  stack::UdpSocket socket_;  // port 67
  std::unordered_map<net::MacAddress, net::Ipv4Address> leases_;
  std::size_t next_offset_{0};
  Stats stats_;
};

/// Acquires an address for a NIC that has no IP yet. The client briefly
/// drives the NIC itself (raw frames from 0.0.0.0); once the ACK lands it
/// releases the NIC so the caller can bind a VirtualIpStack to the leased
/// address — exactly how a freshly booted VM would come up on the VPC.
class DhcpClient {
 public:
  using LeaseHandler =
      std::function<void(std::optional<net::Ipv4Address> address)>;

  DhcpClient(sim::Simulation& sim, VirtualNic& nic);
  ~DhcpClient();

  /// Runs DORA; the handler fires once with the leased address (or
  /// nullopt after `attempts` timeouts).
  void acquire(LeaseHandler handler);

  struct Config {
    Duration retry{seconds(2)};
    std::uint32_t attempts{4};
  };
  void set_config(Config config) { config_ = config; }

 private:
  void send_discover();
  void on_frame(const net::EthernetFrame& frame);
  void finish(std::optional<net::Ipv4Address> address);

  sim::Simulation& sim_;
  VirtualNic& nic_;
  Config config_{};
  std::uint32_t xid_{0};
  std::uint32_t attempts_left_{0};
  bool requested_{false};
  net::Ipv4Address offered_{};
  LeaseHandler handler_;
  sim::OneShotTimer retry_timer_;
};

}  // namespace wav::wavnet
