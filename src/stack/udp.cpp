#include "stack/udp.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace wav::stack {

UdpLayer::UdpLayer(IpLayer& ip) : ip_(ip) {
  ip_.set_protocol_handler(net::kProtoUdp,
                           [this](const net::IpPacket& pkt) { handle_packet(pkt); });
}

UdpLayer::~UdpLayer() { ip_.set_protocol_handler(net::kProtoUdp, nullptr); }

void UdpLayer::handle_packet(const net::IpPacket& pkt) {
  const auto* dgram = pkt.udp();
  if (dgram == nullptr) return;
  const auto it = sockets_.find(dgram->dst_port);
  if (it == sockets_.end()) {
    log::trace("udp", "{}: no socket on port {}", ip_.ip_address().to_string(),
               dgram->dst_port);
    return;
  }
  UdpSocket& sock = *it->second;
  if (sock.handler_) {
    sock.handler_(net::Endpoint{pkt.src, dgram->src_port}, *dgram);
  }
}

std::uint16_t UdpLayer::bind(UdpSocket& socket, std::uint16_t requested_port) {
  if (requested_port != 0) {
    if (sockets_.contains(requested_port)) {
      throw std::runtime_error("UDP port already bound: " + std::to_string(requested_port));
    }
    sockets_[requested_port] = &socket;
    return requested_port;
  }
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ == 65535 ? 49152 : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    if (!sockets_.contains(candidate)) {
      sockets_[candidate] = &socket;
      return candidate;
    }
  }
  throw std::runtime_error("UDP ephemeral port space exhausted");
}

void UdpLayer::unbind(std::uint16_t port) { sockets_.erase(port); }

UdpSocket::UdpSocket(UdpLayer& layer, std::uint16_t port)
    : layer_(layer), port_(layer.bind(*this, port)) {}

UdpSocket::~UdpSocket() { layer_.unbind(port_); }

bool UdpSocket::send_to(const net::Endpoint& dst, net::Chunk payload) {
  net::UdpDatagram dgram;
  dgram.payload = std::move(payload);
  return send_datagram(dst, std::move(dgram));
}

bool UdpSocket::send_encap(const net::Endpoint& dst, net::EncapFrame frame) {
  net::UdpDatagram dgram;
  dgram.payload = std::move(frame);
  return send_datagram(dst, std::move(dgram));
}

bool UdpSocket::send_datagram(const net::Endpoint& dst, net::UdpDatagram dgram) {
  dgram.src_port = port_;
  dgram.dst_port = dst.port;

  net::IpPacket pkt;
  pkt.dst = dst.ip;
  pkt.body = std::move(dgram);
  return layer_.ip_.send_ip(std::move(pkt));
}

}  // namespace wav::stack
