#include "wavnet/virtual_ip.hpp"

#include "common/log.hpp"

namespace wav::wavnet {

VirtualIpStack::VirtualIpStack(sim::Simulation& sim, VirtualNic& nic,
                               net::Ipv4Address address, net::Ipv4Subnet subnet)
    : VirtualIpStack(sim, nic, address, subnet, Config{}) {}

VirtualIpStack::VirtualIpStack(sim::Simulation& sim, VirtualNic& nic,
                               net::Ipv4Address address, net::Ipv4Subnet subnet,
                               Config config)
    : stack::IpLayer(sim), nic_(nic), address_(address), subnet_(subnet), config_(config) {
  nic_.set_receive_handler([this](const net::EthernetFrame& frame) { on_frame(frame); });
}

VirtualIpStack::~VirtualIpStack() { nic_.set_receive_handler(nullptr); }

std::optional<net::MacAddress> VirtualIpStack::arp_lookup(net::Ipv4Address ip) const {
  const auto it = arp_cache_.find(ip);
  if (it == arp_cache_.end()) return std::nullopt;
  return it->second.mac;
}

bool VirtualIpStack::send_ip(net::IpPacket pkt) {
  if (pkt.src.is_zero()) pkt.src = address_;
  if (pkt.dst == address_) {
    // Loopback.
    sim().schedule_after(kZeroDuration,
                         [this, pkt = std::move(pkt)] { deliver_up(pkt); });
    return true;
  }
  if (pkt.dst.is_broadcast()) {
    net::EthernetFrame frame = net::EthernetFrame::make_ip(
        net::MacAddress::broadcast(), nic_.mac(), std::move(pkt));
    return nic_.transmit(frame);
  }
  if (!subnet_.contains(pkt.dst)) {
    // The virtual LAN is flat (one Ethernet segment); there is no router.
    log::trace("virt-ip", "{}: no route to off-link {}", address_.to_string(),
               pkt.dst.to_string());
    return false;
  }

  const auto it = arp_cache_.find(pkt.dst);
  if (it != arp_cache_.end() &&
      sim().now() - it->second.learned <= config_.arp_cache_ttl) {
    transmit_resolved(it->second.mac, std::move(pkt));
    return true;
  }

  // Park the packet and resolve.
  PendingResolution& pending = pending_[pkt.dst];
  if (pending.queue.size() >= config_.pending_queue_limit) {
    note_unresolved_drop(pkt);
    return false;
  }
  const bool first = pending.queue.empty() && pending.retries == 0;
  const net::Ipv4Address target = pkt.dst;
  pending.queue.push_back(std::move(pkt));
  if (first) send_arp_request(target);
  return true;
}

void VirtualIpStack::transmit_resolved(const net::MacAddress& dst_mac, net::IpPacket pkt) {
  // Flow-trace origin: the stack is where a virtual-plane frame is born,
  // so the deterministic sampling decision happens exactly once here.
  std::uint64_t seq_end = 0;
  if (const auto* tcp = pkt.tcp(); tcp != nullptr && tcp->data_size() > 0) {
    seq_end = static_cast<std::uint64_t>(tcp->seq) + tcp->data_size();
  }
  const obs::FlowKey key = obs::flow_key_of(pkt);
  const std::uint64_t bytes = pkt.wire_size();
  net::EthernetFrame frame =
      net::EthernetFrame::make_ip(dst_mac, nic_.mac(), std::move(pkt));
  frame.flow = sim().flows().begin_passage(key, bytes, seq_end);
  if (frame.flow.id != 0) {
    sim().flows().forwarded(frame.flow, obs::HopComponent::kHostStack,
                            address_.to_string());
  }
  nic_.transmit(frame);
}

void VirtualIpStack::note_unresolved_drop(const net::IpPacket& pkt) {
  // The packet dies parked (never became a frame): open a passage just to
  // close it with the typed drop, so sampled flows see the ARP failure.
  const net::FlowContext ctx =
      sim().flows().begin_passage(obs::flow_key_of(pkt), pkt.wire_size());
  if (ctx.id != 0) {
    sim().flows().dropped(ctx, obs::HopComponent::kHostStack, address_.to_string(),
                          obs::DropReason::kArpUnresolved);
  }
}

void VirtualIpStack::send_arp_request(net::Ipv4Address target) {
  net::ArpMessage arp;
  arp.op = net::ArpMessage::kRequest;
  arp.sender_mac = nic_.mac();
  arp.sender_ip = address_;
  arp.target_mac = net::MacAddress{};
  arp.target_ip = target;
  ++stats_.arp_requests_sent;
  nic_.transmit(
      net::EthernetFrame::make_arp(net::MacAddress::broadcast(), nic_.mac(), arp));

  PendingResolution& pending = pending_[target];
  pending.retry_event = sim().schedule_after(config_.arp_retry,
                                             [this, target] { retry_resolution(target); });
}

void VirtualIpStack::retry_resolution(net::Ipv4Address target) {
  const auto it = pending_.find(target);
  if (it == pending_.end()) return;
  PendingResolution& pending = it->second;
  if (++pending.retries > config_.arp_max_retries) {
    for (const net::IpPacket& pkt : pending.queue) note_unresolved_drop(pkt);
    pending_.erase(it);
    return;
  }
  send_arp_request(target);
}

void VirtualIpStack::announce_gratuitous_arp() {
  net::ArpMessage arp;
  arp.op = net::ArpMessage::kRequest;  // gratuitous ARP is a broadcast request
  arp.sender_mac = nic_.mac();
  arp.sender_ip = address_;
  arp.target_mac = net::MacAddress{};
  arp.target_ip = address_;
  nic_.transmit(
      net::EthernetFrame::make_arp(net::MacAddress::broadcast(), nic_.mac(), arp));
}

void VirtualIpStack::learn(net::Ipv4Address ip, net::MacAddress mac) {
  if (ip.is_zero()) return;
  arp_cache_[ip] = ArpEntry{mac, sim().now()};
  const auto it = pending_.find(ip);
  if (it != pending_.end()) {
    PendingResolution pending = std::move(it->second);
    pending_.erase(it);
    sim().cancel(pending.retry_event);
    for (auto& pkt : pending.queue) transmit_resolved(mac, std::move(pkt));
  }
}

void VirtualIpStack::handle_arp(const net::ArpMessage& arp) {
  if (arp.is_gratuitous()) ++stats_.gratuitous_seen;
  // Learn the sender unconditionally: gratuitous announcements after VM
  // migration must overwrite stale entries everywhere.
  learn(arp.sender_ip, arp.sender_mac);

  if (arp.op == net::ArpMessage::kRequest && arp.target_ip == address_ &&
      !arp.is_gratuitous()) {
    net::ArpMessage reply;
    reply.op = net::ArpMessage::kReply;
    reply.sender_mac = nic_.mac();
    reply.sender_ip = address_;
    reply.target_mac = arp.sender_mac;
    reply.target_ip = arp.sender_ip;
    ++stats_.arp_replies_sent;
    nic_.transmit(net::EthernetFrame::make_arp(arp.sender_mac, nic_.mac(), reply));
  }
}

void VirtualIpStack::on_frame(const net::EthernetFrame& frame) {
  if (const auto* arp = frame.arp()) {
    handle_arp(*arp);
    return;
  }
  if (const auto* ip = frame.ip()) {
    if (ip->dst == address_ || ip->dst.is_broadcast()) {
      // Terminal flow-trace hop: the passage completed end to end.
      if (frame.flow.id != 0) {
        sim().flows().delivered(frame.flow, obs::HopComponent::kDelivery,
                                address_.to_string());
      }
      deliver_up(*ip);
    }
    // Frames for other IPs (promiscuous captures) are ignored by the stack.
  }
}

}  // namespace wav::wavnet
