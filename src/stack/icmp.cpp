#include "stack/icmp.hpp"

namespace wav::stack {

IcmpLayer::IcmpLayer(IpLayer& ip) : ip_(ip) {
  ip_.set_protocol_handler(net::kProtoIcmp,
                           [this](const net::IpPacket& pkt) { handle_packet(pkt); });
}

IcmpLayer::~IcmpLayer() { ip_.set_protocol_handler(net::kProtoIcmp, nullptr); }

void IcmpLayer::on_reply(std::uint16_t id, ReplyHandler handler) {
  handlers_[id] = std::move(handler);
}

void IcmpLayer::remove_handler(std::uint16_t id) { handlers_.erase(id); }

bool IcmpLayer::send_echo_request(net::Ipv4Address dst, std::uint16_t id, std::uint16_t seq,
                                  std::uint64_t payload_size) {
  net::IcmpMessage msg;
  msg.type = net::IcmpMessage::kEchoRequest;
  msg.id = id;
  msg.seq = seq;
  msg.payload = net::Chunk::virtual_bytes(payload_size);

  net::IpPacket pkt;
  pkt.dst = dst;
  pkt.body = std::move(msg);
  return ip_.send_ip(std::move(pkt));
}

void IcmpLayer::handle_packet(const net::IpPacket& pkt) {
  const auto* msg = pkt.icmp();
  if (msg == nullptr) return;

  if (msg->type == net::IcmpMessage::kEchoRequest) {
    ++stats_.requests_answered;
    net::IcmpMessage reply = *msg;
    reply.type = net::IcmpMessage::kEchoReply;
    net::IpPacket out;
    out.dst = pkt.src;
    out.body = std::move(reply);
    ip_.send_ip(std::move(out));
    return;
  }
  if (msg->type == net::IcmpMessage::kEchoReply) {
    if (const auto it = handlers_.find(msg->id); it != handlers_.end()) {
      it->second(pkt.src, *msg);
    }
  }
}

}  // namespace wav::stack
