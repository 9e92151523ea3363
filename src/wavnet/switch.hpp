// The Wide-Area Virtual Switch (paper §II.A): the bridge port that
// extends the local link layer across the WAN.
//
// Outbound: frames from the local bridge are encapsulated by the Packet
// Assembler (a 4-byte WAVNet header + the frame) and sent over the
// hole-punched UDP socket of the HostAgent directly to the peer that owns
// the destination MAC — never through the rendezvous/CAN overlay.
// Broadcast and unknown-unicast frames are replicated to every connected
// peer, which is how ARP (including the post-migration gratuitous ARP)
// reaches all members of the virtual LAN.
// Inbound: decapsulated frames teach the switch which peer owns the
// source MAC and are injected into the local bridge.
#pragma once

#include <vector>

#include "net/frame_pool.hpp"
#include "overlay/host_agent.hpp"
#include "vpg/group.hpp"
#include "wavnet/bridge.hpp"
#include "wavnet/mac_table.hpp"
#include "wavnet/processing.hpp"

namespace wav::wavnet {

class WavSwitch : public BridgePort {
 public:
  struct Config {
    std::uint32_t encap_header_bytes{4};  // WAVNet id + length header
    ProcessingQueue::Config processing{};  // tap read + encapsulation cost
    Duration mac_ttl{seconds(300)};
  };

  WavSwitch(overlay::HostAgent& agent, Config config);
  WavSwitch(overlay::HostAgent& agent);

  /// BridgePort: local frame leaving toward the WAN.
  void deliver(const net::EthernetFrame& frame) override;

  [[nodiscard]] overlay::HostAgent& agent() noexcept { return agent_; }

  struct Stats {
    std::uint64_t frames_tunneled{0};
    std::uint64_t frames_flooded{0};
    std::uint64_t frames_received{0};
    std::uint64_t frames_dropped_no_peer{0};
    std::uint64_t frames_dropped_backlog{0};
    std::uint64_t bytes_tunneled{0};
    std::uint64_t bytes_received{0};
  };
  /// Snapshot view assembled from the simulation's metrics registry (the
  /// registry owns the live counters; see docs/OBSERVABILITY.md).
  [[nodiscard]] Stats stats() const noexcept;
  [[nodiscard]] std::size_t learned_macs() const noexcept { return remote_fdb_.size(); }

  /// Runtime-tunable FDB entry lifetime (tests shrink it to exercise the
  /// lazy-expiry path without simulating five minutes).
  void set_mac_ttl(Duration ttl) noexcept { config_.mac_ttl = ttl; }
  [[nodiscard]] Duration mac_ttl() const noexcept { return config_.mac_ttl; }

  /// Attaches the private-group gate (vpg::GroupMember), turning the
  /// switch group-scoped: unicast honors the learned (peer, group) pair,
  /// floods replicate once per active group, and frames crossing a
  /// membership boundary drop with the typed group_isolation reason.
  /// nullptr restores the legacy flat-LAN path. The group drop counters
  /// register on first attach so ungrouped fleets' exports stay
  /// byte-identical.
  void attach_group_gate(vpg::GroupGate* gate);
  [[nodiscard]] bool group_scoped() const noexcept { return gate_ != nullptr; }
  /// Purges every FDB entry learned from `peer` within `group` (wired to
  /// GroupMember::on_gate_closed, so a revocation can't leave unicast
  /// pinned to a now-banned tunnel).
  void purge_group_peer(vpg::GroupId group, overlay::HostId peer);

 private:
  /// What the group-scoped FDB learns per remote MAC: the owning peer
  /// and the isolation domain the frame arrived in.
  struct FdbVal {
    overlay::HostId peer{0};
    vpg::GroupId group{0};
  };

  void on_wan_frame(overlay::HostId from, const net::EncapFrame& encap);
  void on_link_down(overlay::HostId peer);
  void tunnel_to(overlay::HostId peer, const net::EthernetFrame& frame,
                 vpg::GroupId group = 0);
  /// Replicates an unknown-unicast/broadcast frame: to every connected
  /// peer on the flat LAN, or once per (active group x admitted peer)
  /// when a gate is attached.
  void flood(const net::EthernetFrame& frame);

  overlay::HostAgent& agent_;
  Config config_;
  std::string instance_;  // host name, also the flow-trace hop instance
  ProcessingQueue egress_;
  ProcessingQueue ingress_;

  /// Remote MACs -> owning (peer, group), open-addressed (mac_table.hpp).
  /// Entries expire lazily: a lookup that hits a stale entry erases it,
  /// so learned_macs() never counts dead state.
  MacTable<FdbVal> remote_fdb_;
  vpg::GroupGate* gate_{nullptr};
  net::FramePool& frame_pool_;

  obs::Counter* c_frames_tunneled_{nullptr};
  obs::Counter* c_frames_flooded_{nullptr};
  obs::Counter* c_frames_received_{nullptr};
  obs::Counter* c_frames_dropped_no_peer_{nullptr};
  obs::Counter* c_frames_dropped_backlog_{nullptr};
  obs::Counter* c_bytes_tunneled_{nullptr};
  obs::Counter* c_bytes_received_{nullptr};
  /// Registered only once a group gate attaches (same byte-identity
  /// contract for ungrouped fleets).
  obs::Counter* c_group_egress_dropped_{nullptr};
  obs::Counter* c_group_ingress_dropped_{nullptr};
};

}  // namespace wav::wavnet
