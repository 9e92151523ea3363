#include "wavnet/dhcp.hpp"

#include "common/log.hpp"

namespace wav::wavnet {
namespace {

constexpr std::uint16_t kServerPort = 67;
constexpr std::uint16_t kClientPort = 68;

}  // namespace

net::Chunk encode_dhcp(const DhcpMessage& msg) {
  ByteBuffer out;
  ByteWriter w{out};
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.u32(msg.xid);
  for (const auto octet : msg.client_mac.octets) w.u8(octet);
  w.u32(msg.your_ip.value);
  w.u32(msg.server_ip.value);
  w.u32(msg.lease_seconds);
  return net::Chunk::from_bytes(std::move(out));
}

std::optional<DhcpMessage> parse_dhcp(const net::Chunk& chunk) {
  ByteReader r{chunk.real};
  DhcpMessage msg;
  const auto type = r.u8();
  const auto xid = r.u32();
  if (!type || !xid) return std::nullopt;
  msg.type = static_cast<DhcpMessageType>(*type);
  msg.xid = *xid;
  for (auto& octet : msg.client_mac.octets) {
    const auto b = r.u8();
    if (!b) return std::nullopt;
    octet = *b;
  }
  const auto yiaddr = r.u32();
  const auto server = r.u32();
  const auto lease = r.u32();
  if (!yiaddr || !server || !lease) return std::nullopt;
  msg.your_ip = net::Ipv4Address{*yiaddr};
  msg.server_ip = net::Ipv4Address{*server};
  msg.lease_seconds = *lease;
  return msg;
}

// --- server ----------------------------------------------------------------

DhcpServer::DhcpServer(VirtualIpStack& stack, Config config)
    : stack_(stack), config_(config), udp_(stack), socket_(udp_, kServerPort) {
  socket_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& d) {
    on_datagram(from, d);
  });
}

std::optional<net::Ipv4Address> DhcpServer::lease_of(net::MacAddress mac) const {
  const auto it = leases_.find(mac);
  if (it == leases_.end()) return std::nullopt;
  return it->second;
}

std::optional<net::Ipv4Address> DhcpServer::allocate(net::MacAddress mac) {
  if (const auto it = leases_.find(mac); it != leases_.end()) return it->second;
  if (leases_.size() >= config_.pool_size) return std::nullopt;
  // Linear scan from the cursor for a free address.
  for (std::size_t probe = 0; probe < config_.pool_size; ++probe) {
    const auto candidate =
        net::Ipv4Address{config_.pool_begin.value +
                         static_cast<std::uint32_t>((next_offset_ + probe) % config_.pool_size)};
    bool taken = false;
    for (const auto& [m, ip] : leases_) {
      if (ip == candidate) {
        taken = true;
        break;
      }
    }
    if (!taken) {
      next_offset_ = (next_offset_ + probe + 1) % config_.pool_size;
      leases_[mac] = candidate;
      return candidate;
    }
  }
  return std::nullopt;
}

void DhcpServer::on_datagram(const net::Endpoint& from, const net::UdpDatagram& dgram) {
  (void)from;
  const auto* chunk = dgram.chunk();
  if (chunk == nullptr) return;
  const auto msg = parse_dhcp(*chunk);
  if (!msg) return;

  auto reply = [&](DhcpMessage out) {
    out.xid = msg->xid;
    out.client_mac = msg->client_mac;
    out.server_ip = stack_.ip_address();
    out.lease_seconds =
        static_cast<std::uint32_t>(to_seconds(config_.lease_time));
    // Clients have no IP yet: reply via link-layer broadcast.
    socket_.send_to({net::Ipv4Address{0xFFFFFFFF}, kClientPort}, encode_dhcp(out));
  };

  switch (msg->type) {
    case DhcpMessageType::kDiscover: {
      ++stats_.discovers;
      const auto address = allocate(msg->client_mac);
      if (!address) {
        reply({DhcpMessageType::kNak});
        return;
      }
      DhcpMessage offer{DhcpMessageType::kOffer};
      offer.your_ip = *address;
      reply(offer);
      return;
    }
    case DhcpMessageType::kRequest: {
      const auto it = leases_.find(msg->client_mac);
      if (it == leases_.end() || it->second != msg->your_ip) {
        reply({DhcpMessageType::kNak});
        return;
      }
      ++stats_.acks;
      DhcpMessage ack{DhcpMessageType::kAck};
      ack.your_ip = it->second;
      reply(ack);
      return;
    }
    default:
      return;
  }
}

// --- client ----------------------------------------------------------------

DhcpClient::DhcpClient(sim::Simulation& sim, VirtualNic& nic)
    : sim_(sim), nic_(nic), retry_timer_(sim, [this] {
        if (attempts_left_ == 0) {
          finish(std::nullopt);
          return;
        }
        --attempts_left_;
        send_discover();
      }) {}

DhcpClient::~DhcpClient() = default;

void DhcpClient::acquire(LeaseHandler handler) {
  handler_ = std::move(handler);
  xid_ = static_cast<std::uint32_t>(sim_.rng().next());
  attempts_left_ = config_.attempts;
  requested_ = false;
  nic_.set_receive_handler([this](const net::EthernetFrame& frame) { on_frame(frame); });
  send_discover();
}

void DhcpClient::send_discover() {
  DhcpMessage msg{requested_ ? DhcpMessageType::kRequest : DhcpMessageType::kDiscover};
  msg.xid = xid_;
  msg.client_mac = nic_.mac();
  if (requested_) msg.your_ip = offered_;

  net::UdpDatagram dgram;
  dgram.src_port = kClientPort;
  dgram.dst_port = kServerPort;
  dgram.payload = encode_dhcp(msg);
  net::IpPacket pkt;
  pkt.src = net::Ipv4Address{};  // 0.0.0.0: no address yet
  pkt.dst = net::Ipv4Address{0xFFFFFFFF};
  pkt.body = std::move(dgram);
  nic_.transmit(net::EthernetFrame::make_ip(net::MacAddress::broadcast(), nic_.mac(),
                                            std::move(pkt)));
  retry_timer_.arm(config_.retry);
}

void DhcpClient::on_frame(const net::EthernetFrame& frame) {
  const auto* ip = frame.ip();
  if (ip == nullptr) return;
  const auto* udp = ip->udp();
  if (udp == nullptr || udp->dst_port != kClientPort) return;
  const auto* chunk = udp->chunk();
  if (chunk == nullptr) return;
  const auto msg = parse_dhcp(*chunk);
  if (!msg || msg->xid != xid_ || msg->client_mac != nic_.mac()) return;

  switch (msg->type) {
    case DhcpMessageType::kOffer: {
      if (requested_) return;
      requested_ = true;
      offered_ = msg->your_ip;
      DhcpMessage request{DhcpMessageType::kRequest};
      request.xid = xid_;
      request.client_mac = nic_.mac();
      request.your_ip = msg->your_ip;
      net::UdpDatagram dgram;
      dgram.src_port = kClientPort;
      dgram.dst_port = kServerPort;
      dgram.payload = encode_dhcp(request);
      net::IpPacket pkt;
      pkt.src = net::Ipv4Address{};
      pkt.dst = net::Ipv4Address{0xFFFFFFFF};
      pkt.body = std::move(dgram);
      nic_.transmit(net::EthernetFrame::make_ip(net::MacAddress::broadcast(), nic_.mac(),
                                                std::move(pkt)));
      retry_timer_.arm(config_.retry);
      return;
    }
    case DhcpMessageType::kAck:
      finish(msg->your_ip);
      return;
    case DhcpMessageType::kNak:
      finish(std::nullopt);
      return;
    default:
      return;
  }
}

void DhcpClient::finish(std::optional<net::Ipv4Address> address) {
  retry_timer_.cancel();
  nic_.set_receive_handler(nullptr);
  if (handler_) {
    auto handler = std::move(handler_);
    handler_ = nullptr;
    handler(address);
  }
}

}  // namespace wav::wavnet
