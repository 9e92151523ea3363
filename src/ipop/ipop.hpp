// IPOP-like baseline (Ganguly et al., "IP over P2P", IPDPS'06) — the
// system the paper compares against. Faithful to the properties WAVNet's
// evaluation exercises:
//
//   1. Data packets are routed *through the structured P2P overlay*: each
//      node keeps direct connections only to its ring successor and
//      predecessor (plus optional shortcuts), so most traffic crosses
//      intermediate peers.
//   2. Every hop pays the user-level P2P routing stack's per-packet cost
//      (decapsulate, route lookup, re-encapsulate) — far heavier than
//      WAVNet's thin header, which is the root of Figures 6-9's gaps.
//   3. The virtual-IP -> overlay-node binding is distributed and *not*
//      updated by VM migration: packets keep flowing to the old node
//      until the binding is explicitly refreshed ("IPOP needs to be
//      killed and restarted at the destination"), stalling live flows
//      (Figure 9's post-migration stall).
//
// Like WavnetHost, an IpopHost bridges the local virtual LAN into the
// overlay, so the same workloads/stacks run on both systems.
#pragma once

#include <map>

#include "fabric/host.hpp"
#include "net/frame_pool.hpp"
#include "overlay/host_agent.hpp"
#include "wavnet/bridge.hpp"
#include "wavnet/processing.hpp"
#include "wavnet/virtual_ip.hpp"

namespace wav::ipop {

using OverlayId = std::uint64_t;

/// Deterministic overlay id for a virtual IP (the DHT key).
[[nodiscard]] OverlayId overlay_id_of(net::Ipv4Address virtual_ip) noexcept;

/// Shared, replicated virtual-IP -> overlay-node binding table (models
/// IPOP's DHT bindings with instantaneous replication; what matters for
/// the evaluation is *when* a binding changes, which the VM-migration
/// path deliberately does not do until rebind()).
class BindingTable {
 public:
  void bind(net::Ipv4Address ip, OverlayId node);
  void rebind(net::Ipv4Address ip, OverlayId node) { bind(ip, node); }
  [[nodiscard]] std::optional<OverlayId> lookup(net::Ipv4Address ip) const;

 private:
  std::unordered_map<net::Ipv4Address, OverlayId> bindings_;
};

class IpopHost : public wavnet::BridgePort {
 public:
  struct Config {
    overlay::HostAgent::Config agent{};
    net::Ipv4Address virtual_ip{};
    net::Ipv4Subnet virtual_subnet{net::Ipv4Address::from_octets(10, 10, 0, 0), 16};
    std::uint32_t p2p_header_bytes{48};  // Brunet-style routing header
    wavnet::ProcessingQueue::Config hop_processing{
        microseconds(250), nanoseconds(100), milliseconds(400)};
    std::size_t shortcut_count{0};  // extra chord links beyond ring neighbors
  };

  IpopHost(fabric::HostNode& host, BindingTable& bindings, Config config);

  /// Registers with the rendezvous layer.
  void start(overlay::HostAgent::RegisteredHandler on_registered = {});

  [[nodiscard]] OverlayId overlay_id() const noexcept { return id_; }
  [[nodiscard]] overlay::HostAgent& agent() noexcept { return agent_; }
  [[nodiscard]] wavnet::SoftwareBridge& bridge() noexcept { return bridge_; }
  [[nodiscard]] wavnet::VirtualIpStack& stack() noexcept { return host_stack_; }
  [[nodiscard]] net::Ipv4Address virtual_ip() const noexcept {
    return host_stack_.ip_address();
  }
  [[nodiscard]] std::size_t shortcut_count() const noexcept {
    return config_.shortcut_count;
  }
  [[nodiscard]] const wavnet::ProcessingQueue& router() const noexcept { return router_; }

  /// Announces a virtual IP hosted at this node (its own stack is bound
  /// automatically; VM IPs are added when VMs attach).
  void bind_local_ip(net::Ipv4Address ip);

  struct Stats {
    std::uint64_t packets_originated{0};
    std::uint64_t packets_delivered{0};
    std::uint64_t total_hops_delivered{0};
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // --- overlay topology construction (done by IpopOverlay) ---------------
  /// Connects a direct overlay link to `peer` (ring neighbor/shortcut).
  void connect_neighbor(const overlay::HostInfo& peer, OverlayId peer_overlay_id,
                        overlay::HostAgent::ConnectHandler handler = {});

  /// BridgePort: local frame entering the overlay.
  void deliver(const net::EthernetFrame& frame) override;

 private:
  void on_overlay_frame(overlay::HostId from, const net::EncapFrame& encap);
  void route(const net::EthernetFrame& frame, OverlayId target, std::uint8_t hops,
             bool originated);
  [[nodiscard]] overlay::HostId next_hop_toward(OverlayId target) const;
  void answer_arp_locally(const net::ArpMessage& arp);

  fabric::HostNode& host_;
  BindingTable& bindings_;
  Config config_;
  OverlayId id_;
  overlay::HostAgent agent_;
  wavnet::SoftwareBridge bridge_;
  wavnet::VirtualNic host_nic_;
  wavnet::VirtualIpStack host_stack_;
  wavnet::ProcessingQueue router_;
  net::FramePool& frame_pool_;

  // peer overlay id -> agent host id for connected ring/shortcut links.
  std::map<OverlayId, overlay::HostId> connected_;
  Stats stats_;
};

/// Builds the IPOP deployment: assigns ring positions, connects each node
/// to its successor/predecessor (and shortcuts) through the rendezvous
/// layer, and replicates the binding table.
class IpopOverlay {
 public:
  explicit IpopOverlay(BindingTable& bindings) : bindings_(bindings) {}

  void add(IpopHost& host) { hosts_.push_back(&host); }

  /// Establishes the ring links (call after all hosts registered).
  /// `done(connected_links)` fires when all pairwise connects resolved.
  void connect_ring(std::function<void(std::size_t)> done = {});

  /// Establishes a direct link between every pair — models IPOP having
  /// formed on-demand shortcuts for all active flows (appropriate for
  /// small deployments; the per-packet P2P stack cost still applies).
  void connect_full_mesh(std::function<void(std::size_t)> done = {});

  [[nodiscard]] BindingTable& bindings() noexcept { return bindings_; }
  [[nodiscard]] const std::vector<IpopHost*>& hosts() const noexcept { return hosts_; }

 private:
  BindingTable& bindings_;
  std::vector<IpopHost*> hosts_;
};

}  // namespace wav::ipop
