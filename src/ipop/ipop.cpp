#include "ipop/ipop.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace wav::ipop {
namespace {

constexpr std::uint8_t kMaxHops = 32;

/// Clockwise ring distance from `a` to `b` in the 64-bit id space.
std::uint64_t ring_distance(OverlayId a, OverlayId b) noexcept {
  const std::uint64_t cw = b - a;
  const std::uint64_t ccw = a - b;
  return std::min(cw, ccw);
}

}  // namespace

OverlayId overlay_id_of(net::Ipv4Address virtual_ip) noexcept {
  std::uint64_t state = virtual_ip.value;
  return splitmix64(state);
}

void BindingTable::bind(net::Ipv4Address ip, OverlayId node) { bindings_[ip] = node; }

std::optional<OverlayId> BindingTable::lookup(net::Ipv4Address ip) const {
  const auto it = bindings_.find(ip);
  if (it == bindings_.end()) return std::nullopt;
  return it->second;
}

IpopHost::IpopHost(fabric::HostNode& host, BindingTable& bindings, Config config)
    : host_(host),
      bindings_(bindings),
      config_(config),
      id_(overlay_id_of(config.virtual_ip)),
      agent_(host, config.agent),
      bridge_(host.fabric::Node::sim()),
      host_nic_(wavnet::make_mac(config.virtual_ip.value)),
      host_stack_(host.fabric::Node::sim(), host_nic_, config.virtual_ip,
                  config.virtual_subnet),
      router_(host.fabric::Node::sim(), config.hop_processing),
      frame_pool_(net::FramePool::local()) {
  bridge_.attach(*this);
  bridge_.attach(host_nic_);
  agent_.on_frame([this](overlay::HostId from, const net::EncapFrame& encap) {
    on_overlay_frame(from, encap);
  });
  bind_local_ip(config.virtual_ip);
}

void IpopHost::start(overlay::HostAgent::RegisteredHandler on_registered) {
  agent_.start(std::move(on_registered));
}

void IpopHost::bind_local_ip(net::Ipv4Address ip) { bindings_.bind(ip, id_); }

void IpopHost::connect_neighbor(const overlay::HostInfo& peer, OverlayId peer_overlay_id,
                                overlay::HostAgent::ConnectHandler handler) {
  agent_.connect_to(peer, [this, peer_overlay_id, handler = std::move(handler)](
                              bool ok, overlay::HostId agent_id) {
    if (ok) connected_[peer_overlay_id] = agent_id;
    if (handler) handler(ok, agent_id);
  });
}

void IpopHost::answer_arp_locally(const net::ArpMessage& arp) {
  // IPOP is a layer-3 overlay: ARP never leaves the host. The local
  // driver proxy-answers with the deterministic MAC of the target IP.
  if (arp.op != net::ArpMessage::kRequest || arp.is_gratuitous()) return;
  net::ArpMessage reply;
  reply.op = net::ArpMessage::kReply;
  reply.sender_mac = wavnet::make_mac(arp.target_ip.value);
  reply.sender_ip = arp.target_ip;
  reply.target_mac = arp.sender_mac;
  reply.target_ip = arp.sender_ip;
  inject_to_bridge(
      net::EthernetFrame::make_arp(arp.sender_mac, reply.sender_mac, reply));
}

void IpopHost::deliver(const net::EthernetFrame& frame) {
  if (const auto* arp = frame.arp()) {
    answer_arp_locally(*arp);
    return;
  }
  const auto* ip = frame.ip();
  if (ip == nullptr) return;
  const auto target = bindings_.lookup(ip->dst);
  if (!target) {
    if (frame.flow.id != 0) {
      host_.fabric::Node::sim().flows().dropped(
          frame.flow, obs::HopComponent::kIpopRouter, config_.agent.name,
          obs::DropReason::kNoRoute);
    }
    return;
  }
  ++stats_.packets_originated;
  route(frame, *target, 0, true);
}

void IpopHost::route(const net::EthernetFrame& frame, OverlayId target,
                     std::uint8_t hops, bool originated) {
  (void)originated;
  if (hops >= kMaxHops) {
    if (frame.flow.id != 0) {
      host_.fabric::Node::sim().flows().dropped(
          frame.flow, obs::HopComponent::kIpopRouter, config_.agent.name,
          obs::DropReason::kTtlExpired);
    }
    return;
  }
  const std::uint64_t size = frame.wire_size() + config_.p2p_header_bytes;
  auto shared = frame_pool_.acquire(frame);
  const TimePoint submitted = host_.fabric::Node::sim().now();
  // Every traversal of this node's P2P routing stack costs processing
  // time — the decisive difference from WAVNet's direct path.
  const bool accepted = router_.submit(size, [this, shared, target, hops,
                                              submitted] {
    if (shared->flow.id != 0) {
      sim::Simulation& s = host_.fabric::Node::sim();
      s.flows().forwarded(shared->flow, obs::HopComponent::kIpopRouter,
                          config_.agent.name, s.now() - submitted);
    }
    if (target == id_) {
      ++stats_.packets_delivered;
      stats_.total_hops_delivered += hops;
      // Rewrite the destination MAC to the deterministic MAC convention
      // so the local NIC owning the inner destination IP accepts it.
      const auto* inner = shared->ip();
      if (inner == nullptr) return;
      net::EthernetFrame local = *shared;
      local.dst = wavnet::make_mac(inner->dst.value);
      inject_to_bridge(local);
      return;
    }
    const overlay::HostId next = next_hop_toward(target);
    if (next == 0) {
      if (shared->flow.id != 0) {
        host_.fabric::Node::sim().flows().dropped(
            shared->flow, obs::HopComponent::kIpopRouter, config_.agent.name,
            obs::DropReason::kNoRoute);
      }
      return;
    }
    net::EncapFrame encap;
    encap.header_bytes = config_.p2p_header_bytes;
    encap.overlay_src = id_;
    encap.overlay_dst = target;
    encap.hop_count = static_cast<std::uint8_t>(hops + 1);
    encap.frame = shared;
    agent_.send_frame(next, std::move(encap));
  });
  if (!accepted) {
    if (shared->flow.id != 0) {
      host_.fabric::Node::sim().flows().dropped(
          shared->flow, obs::HopComponent::kIpopRouter, config_.agent.name,
          obs::DropReason::kBacklog);
    }
  }
}

overlay::HostId IpopHost::next_hop_toward(OverlayId target) const {
  const std::uint64_t my_dist = ring_distance(id_, target);
  overlay::HostId best = 0;
  std::uint64_t best_dist = my_dist;
  for (const auto& [peer_overlay, agent_id] : connected_) {
    if (!agent_.link_established(agent_id)) continue;
    const std::uint64_t d = ring_distance(peer_overlay, target);
    if (d < best_dist) {
      best_dist = d;
      best = agent_id;
    }
  }
  return best;
}

void IpopHost::on_overlay_frame(overlay::HostId from, const net::EncapFrame& encap) {
  (void)from;
  if (!encap.frame) return;
  route(*encap.frame, encap.overlay_dst, encap.hop_count, false);
}

void IpopOverlay::connect_full_mesh(std::function<void(std::size_t)> done) {
  struct Pending {
    std::size_t remaining{0};
    std::size_t ok{0};
    std::function<void(std::size_t)> done;
  };
  auto pending = std::make_shared<Pending>();
  pending->done = std::move(done);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    for (std::size_t j = 0; j < hosts_.size(); ++j) {
      if (i == j) continue;
      ++pending->remaining;
      hosts_[i]->connect_neighbor(hosts_[j]->agent().self_info(),
                                  hosts_[j]->overlay_id(),
                                  [pending](bool ok, overlay::HostId) {
                                    if (ok) ++pending->ok;
                                    if (--pending->remaining == 0 && pending->done) {
                                      pending->done(pending->ok);
                                    }
                                  });
    }
  }
  if (pending->remaining == 0 && pending->done) pending->done(0);
}

void IpopOverlay::connect_ring(std::function<void(std::size_t)> done) {
  std::vector<IpopHost*> ring = hosts_;
  std::sort(ring.begin(), ring.end(), [](const IpopHost* a, const IpopHost* b) {
    return a->overlay_id() < b->overlay_id();
  });
  const std::size_t n = ring.size();
  if (n < 2) {
    if (done) done(0);
    return;
  }

  struct Pending {
    std::size_t remaining{0};
    std::size_t ok{0};
    std::function<void(std::size_t)> done;
  };
  auto pending = std::make_shared<Pending>();
  pending->done = std::move(done);

  auto link = [&](IpopHost& a, IpopHost& b) {
    ++pending->remaining;
    overlay::HostInfo peer = b.agent().self_info();
    a.connect_neighbor(peer, b.overlay_id(), [pending](bool ok, overlay::HostId) {
      if (ok) ++pending->ok;
      if (--pending->remaining == 0 && pending->done) pending->done(pending->ok);
    });
  };

  for (std::size_t i = 0; i < n; ++i) {
    IpopHost& a = *ring[i];
    IpopHost& succ = *ring[(i + 1) % n];
    link(a, succ);
    link(succ, a);  // record the reverse overlay-id mapping too
  }
  // Shortcuts: node i also links to node i + 2^j for j >= 1.
  for (std::size_t i = 0; i < n; ++i) {
    IpopHost& a = *ring[i];
    const std::size_t count = a.shortcut_count();
    std::size_t step = 2;
    for (std::size_t s = 0; s < count && step < n; ++s, step *= 2) {
      IpopHost& b = *ring[(i + step) % n];
      link(a, b);
      link(b, a);
    }
  }
}

}  // namespace wav::ipop
