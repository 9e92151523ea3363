// UDP over the IpLayer seam: port demultiplexing and a socket API used by
// the STUN client, hole-punching broker, CAN overlay messaging, WAVNet
// tunnels and the IPOP baseline.
#pragma once

#include <functional>
#include <unordered_map>

#include "stack/ip_layer.hpp"

namespace wav::stack {

class UdpSocket;

class UdpLayer {
 public:
  explicit UdpLayer(IpLayer& ip);
  ~UdpLayer();

  UdpLayer(const UdpLayer&) = delete;
  UdpLayer& operator=(const UdpLayer&) = delete;

  [[nodiscard]] IpLayer& ip() noexcept { return ip_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return ip_.sim(); }

 private:
  friend class UdpSocket;

  void handle_packet(const net::IpPacket& pkt);
  std::uint16_t bind(UdpSocket& socket, std::uint16_t requested_port);
  void unbind(std::uint16_t port);

  IpLayer& ip_;
  std::unordered_map<std::uint16_t, UdpSocket*> sockets_;
  std::uint16_t next_ephemeral_{49152};
};

/// RAII-bound UDP socket. Binding happens at construction; the port is
/// released on destruction.
class UdpSocket {
 public:
  using Handler =
      std::function<void(const net::Endpoint& from, const net::UdpDatagram& dgram)>;

  /// `port == 0` picks an ephemeral port. Throws std::runtime_error if the
  /// requested port is taken (configuration error, not a data-path event).
  UdpSocket(UdpLayer& layer, std::uint16_t port = 0);
  ~UdpSocket();

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  void on_receive(Handler handler) { handler_ = std::move(handler); }

  bool send_to(const net::Endpoint& dst, net::Chunk payload);
  bool send_encap(const net::Endpoint& dst, net::EncapFrame frame);

  [[nodiscard]] std::uint16_t local_port() const noexcept { return port_; }
  [[nodiscard]] net::Endpoint local_endpoint() const {
    return net::Endpoint{layer_.ip_.ip_address(), port_};
  }

 private:
  friend class UdpLayer;

  bool send_datagram(const net::Endpoint& dst, net::UdpDatagram dgram);

  UdpLayer& layer_;
  std::uint16_t port_;
  Handler handler_;
};

}  // namespace wav::stack
