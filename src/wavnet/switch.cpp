#include "wavnet/switch.hpp"

#include <utility>

#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace wav::wavnet {

WavSwitch::WavSwitch(overlay::HostAgent& agent) : WavSwitch(agent, Config{}) {}

WavSwitch::WavSwitch(overlay::HostAgent& agent, Config config)
    : agent_(agent),
      config_(config),
      instance_(agent.self_info().name),
      egress_(agent.sim(), config.processing),
      ingress_(agent.sim(), config.processing),
      frame_pool_(net::FramePool::local()) {
  agent_.on_frame([this](overlay::HostId from, const net::EncapFrame& encap) {
    on_wan_frame(from, encap);
  });
  agent_.on_link_down([this](overlay::HostId peer) { on_link_down(peer); });

  obs::MetricsRegistry& reg = agent_.sim().metrics();
  const std::string& inst = instance_;
  c_frames_tunneled_ = &reg.counter("switch.frames_tunneled", inst);
  c_frames_flooded_ = &reg.counter("switch.frames_flooded", inst);
  c_frames_received_ = &reg.counter("switch.frames_received", inst);
  c_frames_dropped_no_peer_ = &reg.counter("switch.frames_dropped_no_peer", inst);
  c_frames_dropped_backlog_ = &reg.counter("switch.frames_dropped_backlog", inst);
  c_bytes_tunneled_ = &reg.counter("switch.bytes_tunneled", inst);
  c_bytes_received_ = &reg.counter("switch.bytes_received", inst);
}

WavSwitch::Stats WavSwitch::stats() const noexcept {
  Stats s;
  s.frames_tunneled = c_frames_tunneled_->value();
  s.frames_flooded = c_frames_flooded_->value();
  s.frames_received = c_frames_received_->value();
  s.frames_dropped_no_peer = c_frames_dropped_no_peer_->value();
  s.frames_dropped_backlog = c_frames_dropped_backlog_->value();
  s.bytes_tunneled = c_bytes_tunneled_->value();
  s.bytes_received = c_bytes_received_->value();
  return s;
}

void WavSwitch::attach_group_gate(vpg::GroupGate* gate) {
  gate_ = gate;
  if (gate_ != nullptr && c_group_egress_dropped_ == nullptr) {
    obs::MetricsRegistry& reg = agent_.sim().metrics();
    c_group_egress_dropped_ = &reg.counter("switch.group_egress_dropped", instance_);
    c_group_ingress_dropped_ = &reg.counter("switch.group_ingress_dropped", instance_);
  }
}

void WavSwitch::purge_group_peer(vpg::GroupId group, overlay::HostId peer) {
  remote_fdb_.erase_if([group, peer](const MacTable<FdbVal>::Entry& e) {
    return e.value.peer == peer && e.value.group == group;
  });
}

void WavSwitch::on_link_down(overlay::HostId peer) {
  // A dead tunnel's MACs must not pin unicast traffic to a black hole;
  // purging them makes the next frame flood (and re-learn once the peer
  // is re-punched).
  remote_fdb_.erase_if(
      [peer](const MacTable<FdbVal>::Entry& e) { return e.value.peer == peer; });
}

void WavSwitch::deliver(const net::EthernetFrame& frame) {
  WAV_PROF_SCOPE("switch", "deliver");
  const TimePoint now = agent_.sim().now();

  if (!frame.dst.is_broadcast() && !frame.dst.is_multicast()) {
    if (const MacTable<FdbVal>::Entry* e = remote_fdb_.find(frame.dst)) {
      if (now - e->learned <= config_.mac_ttl) {
        const FdbVal val = e->value;
        if (gate_ == nullptr || gate_->egress_allowed(val.group, val.peer)) {
          tunnel_to(val.peer, frame, val.group);
          return;
        }
        // The learned entry points across a membership boundary that has
        // since closed (revocation, leave): the frame must not ride the
        // tunnel, and the entry must go so the flood below can re-learn
        // a legal owner if one exists.
        c_group_egress_dropped_->inc();
        remote_fdb_.erase(frame.dst);
        if (frame.flow.id != 0) {
          agent_.sim().flows().dropped(frame.flow, obs::HopComponent::kSwitchEgress,
                                       instance_, obs::DropReason::kGroupIsolation);
        }
        return;
      }
      // Drop the stale remote-MAC entry so it neither pins memory nor
      // inflates learned_macs(); the flood below re-learns the owner.
      remote_fdb_.erase(frame.dst);
    }
    // Unknown unicast: replicate to all peers (they will learn/deliver).
  }
  c_frames_flooded_->inc();
  flood(frame);
}

void WavSwitch::flood(const net::EthernetFrame& frame) {
  const auto peers = agent_.connected_peers();
  if (gate_ == nullptr) {
    if (peers.empty()) {
      c_frames_dropped_no_peer_->inc();
      if (frame.flow.id != 0) {
        agent_.sim().flows().dropped(frame.flow, obs::HopComponent::kSwitchEgress,
                                     instance_, obs::DropReason::kFdbMiss);
      }
      return;
    }
    for (const overlay::HostId peer : peers) tunnel_to(peer, frame);
    return;
  }
  // Group-scoped flood: replicate once per (active group, admitted peer)
  // pair. A dual-membership host floods into each of its L2 domains; a
  // peer sharing both receives one copy per domain, which is exactly the
  // two-broadcast-domains-over-one-tunnel-set semantics.
  std::vector<vpg::GroupId> groups;
  gate_->broadcast_groups(groups);
  bool sent = false;
  for (const vpg::GroupId group : groups) {
    for (const overlay::HostId peer : peers) {
      if (!gate_->egress_allowed(group, peer)) continue;
      tunnel_to(peer, frame, group);
      sent = true;
    }
  }
  if (!sent) {
    // No open gate anywhere: membership (not connectivity) confined the
    // frame, so the typed isolation reason tells the tracer why.
    c_frames_dropped_no_peer_->inc();
    c_group_egress_dropped_->inc();
    if (frame.flow.id != 0) {
      agent_.sim().flows().dropped(frame.flow, obs::HopComponent::kSwitchEgress,
                                   instance_, obs::DropReason::kGroupIsolation);
    }
  }
}

void WavSwitch::tunnel_to(overlay::HostId peer, const net::EthernetFrame& frame,
                          vpg::GroupId group) {
  // Relayed links carry an extra relay header on the wire; folding it in
  // here (once, at egress) keeps both ends' byte accounting consistent —
  // header_bytes travels with the frame, so a frame billed for the relay
  // path stays billed that way even if it drains direct post-upgrade.
  // A non-zero group tag adds its 4 on-wire bytes the same way.
  const std::uint32_t header_bytes = config_.encap_header_bytes +
                                     agent_.relay_overhead(peer) +
                                     (group != 0 ? 4 : 0);
  const std::uint64_t size = frame.wire_size() + header_bytes;
  // Packet Assembler: the user-space capture + encapsulation cost. The
  // frame rides in a pooled refcounted buffer — no per-frame allocation.
  auto shared = frame_pool_.acquire(frame);
  const TimePoint submitted = agent_.sim().now();
  const bool accepted = egress_.submit(size, [this, peer, shared, size,
                                             header_bytes, group, submitted] {
    WAV_PROF_SCOPE("switch", "egress");
    if (shared->flow.id != 0) {
      // Queue delay = how long the frame waited for the Packet Assembler.
      agent_.sim().flows().forwarded(shared->flow,
                                     obs::HopComponent::kSwitchEgress, instance_,
                                     agent_.sim().now() - submitted);
    }
    net::EncapFrame encap;
    encap.header_bytes = header_bytes;
    encap.group = group;
    encap.frame = shared;
    if (agent_.send_frame(peer, std::move(encap))) {
      c_frames_tunneled_->inc();
      c_bytes_tunneled_->inc(size);
    } else {
      c_frames_dropped_no_peer_->inc();
      if (shared->flow.id != 0) {
        agent_.sim().flows().dropped(shared->flow,
                                     obs::HopComponent::kTunnelSend, instance_,
                                     obs::DropReason::kNoRoute);
      }
    }
  });
  if (!accepted) {
    c_frames_dropped_backlog_->inc();
    if (shared->flow.id != 0) {
      agent_.sim().flows().dropped(shared->flow, obs::HopComponent::kSwitchEgress,
                                   instance_, obs::DropReason::kBacklog);
    }
  }
}

void WavSwitch::on_wan_frame(overlay::HostId from, const net::EncapFrame& encap) {
  if (!encap.frame) return;
  const auto shared = encap.frame;
  const vpg::GroupId group = encap.group;
  // Membership check runs before the decapsulation queue: a banned frame
  // never costs ingress processing (and never teaches the FDB). This is
  // where the revoked host's in-flight frames die during its blind
  // window — the typed drop the revocation bench watches for.
  if (gate_ != nullptr && !gate_->ingress_allowed(group, from)) {
    c_group_ingress_dropped_->inc();
    if (shared->flow.id != 0) {
      agent_.sim().flows().dropped(shared->flow, obs::HopComponent::kSwitchIngress,
                                   instance_, obs::DropReason::kGroupIsolation);
    }
    return;
  }
  // Ingress decapsulation handles the same on-wire bytes egress
  // assembled: frame + encap header. Submitting and counting the same
  // size keeps switch.bytes_received equal to the sender's
  // switch.bytes_tunneled when nothing drops.
  const std::uint64_t wire_bytes = shared->wire_size() + encap.header_bytes;
  const TimePoint submitted = agent_.sim().now();
  const bool accepted =
      ingress_.submit(wire_bytes, [this, from, group, shared, wire_bytes, submitted] {
        WAV_PROF_SCOPE("switch", "ingress");
        c_frames_received_->inc();
        c_bytes_received_->inc(wire_bytes);
        const net::EthernetFrame& frame = *shared;
        if (frame.flow.id != 0) {
          agent_.sim().flows().forwarded(frame.flow,
                                         obs::HopComponent::kSwitchIngress,
                                         instance_, agent_.sim().now() - submitted);
        }
        if (!frame.src.is_multicast() && !frame.src.is_zero()) {
          remote_fdb_.learn(frame.src, FdbVal{from, group}, agent_.sim().now());
        }
        if (gate_ != nullptr) gate_->note_delivered(group, from);
        inject_to_bridge(frame);
      });
  if (!accepted) {
    c_frames_dropped_backlog_->inc();
    if (shared->flow.id != 0) {
      agent_.sim().flows().dropped(shared->flow,
                                   obs::HopComponent::kSwitchIngress, instance_,
                                   obs::DropReason::kBacklog);
    }
  }
}

}  // namespace wav::wavnet
