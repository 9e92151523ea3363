#include "fabric/node.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "fabric/network.hpp"

namespace wav::fabric {

Node::Node(Network& network, std::string name)
    : network_(network), name_(std::move(name)) {}

Node::~Node() = default;

sim::Simulation& Node::sim() const noexcept { return network_.sim(); }

std::size_t Node::attach_interface(Link& link, net::Ipv4Address addr,
                                   net::Ipv4Subnet subnet) {
  interfaces_.push_back(Interface{&link, addr, subnet});
  local_addresses_.insert(
      std::lower_bound(local_addresses_.begin(), local_addresses_.end(), addr), addr);
  return interfaces_.size() - 1;
}

bool Node::owns_address(net::Ipv4Address a) const noexcept {
  return std::binary_search(local_addresses_.begin(), local_addresses_.end(), a);
}

net::Ipv4Address Node::primary_address() const noexcept {
  return interfaces_.empty() ? net::Ipv4Address{} : interfaces_.front().address;
}

void Node::add_route(net::Ipv4Subnet dest, std::size_t iface_index) {
  if (dest.prefix_len == 32) {
    host_routes_[dest.network] = iface_index;
    return;
  }
  routes_.push_back(RouteEntry{dest, iface_index});
  std::stable_sort(routes_.begin(), routes_.end(),
                   [](const RouteEntry& x, const RouteEntry& y) {
                     return x.dest.prefix_len > y.dest.prefix_len;
                   });
}

void Node::set_default_route(std::size_t iface_index) { default_route_ = iface_index; }

void Node::receive_from_link(net::IpPacket pkt, Link& from) {
  ++stats_.rx_packets;
  stats_.rx_bytes += pkt.wire_size();
  if (tap_) tap_(pkt, from);

  if (owns_address(pkt.dst) || pkt.dst.is_broadcast()) {
    deliver_local(pkt, from);
    return;
  }
  forward(std::move(pkt), from);
}

bool Node::originate(net::IpPacket pkt) {
  const Interface* out = route_lookup(pkt.dst);
  if (out == nullptr) {
    ++stats_.dropped_no_route;
    log::trace("node", "{}: no route to {}", name_, pkt.dst.to_string());
    return false;
  }
  if (pkt.src.is_zero()) pkt.src = out->address;
  transmit(*out, std::move(pkt));
  return true;
}

void Node::deliver_local(const net::IpPacket& pkt, Link& from) {
  (void)pkt;
  (void)from;
  log::trace("node", "{}: packet to self dropped (no local stack)", name_);
}

void Node::forward(net::IpPacket pkt, Link& from) {
  (void)from;
  if (pkt.ttl <= 1) {
    ++stats_.dropped_ttl;
    return;
  }
  pkt.ttl = static_cast<std::uint8_t>(pkt.ttl - 1);
  const Interface* out = route_lookup(pkt.dst);
  if (out == nullptr) {
    ++stats_.dropped_no_route;
    log::trace("node", "{}: cannot forward to {}", name_, pkt.dst.to_string());
    return;
  }
  ++stats_.forwarded;
  transmit(*out, std::move(pkt));
}

const Interface* Node::route_lookup(net::Ipv4Address dst) const {
  if (const auto it = host_routes_.find(dst); it != host_routes_.end()) {
    return &interfaces_[it->second];
  }
  for (const auto& r : routes_) {
    if (r.dest.contains(dst)) return &interfaces_[r.iface];
  }
  if (default_route_) return &interfaces_[*default_route_];
  return nullptr;
}

void Node::transmit(const Interface& out, net::IpPacket pkt) {
  ++stats_.tx_packets;
  stats_.tx_bytes += pkt.wire_size();
  out.link->transmit(*this, std::move(pkt));
}

}  // namespace wav::fabric
