// IPv4-over-virtual-Ethernet: the stack a host or VM binds to its
// virtual NIC on the WAVNet LAN. Runs the real ARP protocol over the
// bridge (and hence over the WAN tunnels), answers requests for its own
// address, learns from gratuitous ARP announcements (the VM-migration
// redirect mechanism), and implements the IpLayer seam so the shared
// UDP/TCP/ICMP modules run unmodified on the virtual plane.
#pragma once

#include <deque>
#include <unordered_map>

#include "stack/ip_layer.hpp"
#include "wavnet/bridge.hpp"

namespace wav::wavnet {

class VirtualIpStack : public stack::IpLayer {
 public:
  struct Config {
    Duration arp_cache_ttl{seconds(600)};
    Duration arp_retry{milliseconds(500)};
    std::uint32_t arp_max_retries{8};
    std::size_t pending_queue_limit{128};  // packets parked per unresolved IP
  };

  VirtualIpStack(sim::Simulation& sim, VirtualNic& nic, net::Ipv4Address address,
                 net::Ipv4Subnet subnet, Config config);
  VirtualIpStack(sim::Simulation& sim, VirtualNic& nic, net::Ipv4Address address,
                 net::Ipv4Subnet subnet);
  ~VirtualIpStack() override;

  bool send_ip(net::IpPacket pkt) override;
  [[nodiscard]] net::Ipv4Address ip_address() const override { return address_; }
  [[nodiscard]] net::Ipv4Subnet subnet() const noexcept { return subnet_; }
  [[nodiscard]] VirtualNic& nic() noexcept { return nic_; }

  /// Broadcasts a gratuitous ARP announcing this stack's (IP, MAC). The
  /// migration orchestrator calls this right after a VM resumes on its
  /// destination host (paper §II.C).
  void announce_gratuitous_arp();

  /// Moves the stack to a different IP (DHCP-style reconfiguration).
  void set_address(net::Ipv4Address address) { address_ = address; }

  struct Stats {
    std::uint64_t arp_requests_sent{0};
    std::uint64_t arp_replies_sent{0};
    std::uint64_t gratuitous_seen{0};
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t arp_cache_size() const noexcept { return arp_cache_.size(); }
  [[nodiscard]] std::optional<net::MacAddress> arp_lookup(net::Ipv4Address ip) const;

 private:
  struct ArpEntry {
    net::MacAddress mac{};
    TimePoint learned{};
  };
  struct PendingResolution {
    std::deque<net::IpPacket> queue;
    std::uint32_t retries{0};
    sim::EventId retry_event{};
  };

  void on_frame(const net::EthernetFrame& frame);
  void handle_arp(const net::ArpMessage& arp);
  void learn(net::Ipv4Address ip, net::MacAddress mac);
  void send_arp_request(net::Ipv4Address target);
  void retry_resolution(net::Ipv4Address target);
  void transmit_resolved(const net::MacAddress& dst_mac, net::IpPacket pkt);
  void note_unresolved_drop(const net::IpPacket& pkt);

  VirtualNic& nic_;
  net::Ipv4Address address_;
  net::Ipv4Subnet subnet_;
  Config config_;
  std::unordered_map<net::Ipv4Address, ArpEntry> arp_cache_;
  std::unordered_map<net::Ipv4Address, PendingResolution> pending_;
  Stats stats_;
};

}  // namespace wav::wavnet
