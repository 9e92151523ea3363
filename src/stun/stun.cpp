#include "stun/stun.hpp"

#include "common/log.hpp"

namespace wav::stun {
namespace {

constexpr std::uint8_t kTypeRequest = 1;
constexpr std::uint8_t kTypeResponse = 2;

}  // namespace

net::Chunk encode_request(const BindingRequest& req) {
  ByteBuffer out;
  ByteWriter w{out};
  w.u8(kTypeRequest);
  w.u32(req.transaction_id);
  w.u8(static_cast<std::uint8_t>((req.change_ip ? 1 : 0) | (req.change_port ? 2 : 0)));
  return net::Chunk::from_bytes(std::move(out));
}

std::optional<BindingRequest> parse_request(const net::Chunk& chunk) {
  ByteReader r{chunk.real};
  const auto type = r.u8();
  if (!type || *type != kTypeRequest) return std::nullopt;
  BindingRequest req;
  const auto txid = r.u32();
  const auto flags = r.u8();
  if (!txid || !flags) return std::nullopt;
  req.transaction_id = *txid;
  req.change_ip = (*flags & 1) != 0;
  req.change_port = (*flags & 2) != 0;
  return req;
}

net::Chunk encode_response(const BindingResponse& resp) {
  ByteBuffer out;
  ByteWriter w{out};
  w.u8(kTypeResponse);
  w.u32(resp.transaction_id);
  w.u32(resp.mapped.ip.value);
  w.u16(resp.mapped.port);
  return net::Chunk::from_bytes(std::move(out));
}

std::optional<BindingResponse> parse_response(const net::Chunk& chunk) {
  ByteReader r{chunk.real};
  const auto type = r.u8();
  if (!type || *type != kTypeResponse) return std::nullopt;
  BindingResponse resp;
  const auto txid = r.u32();
  const auto ip = r.u32();
  const auto port = r.u16();
  if (!txid || !ip || !port) return std::nullopt;
  resp.transaction_id = *txid;
  resp.mapped = net::Endpoint{net::Ipv4Address{*ip}, *port};
  return resp;
}

// --- server ---------------------------------------------------------------

StunServer::StunServer(stack::IpLayer& primary, stack::IpLayer& alternate)
    : primary_ip_(primary),
      alternate_ip_(alternate),
      udp_primary_(primary),
      udp_alternate_(alternate),
      primary_main_(udp_primary_, kStunPort),
      primary_alt_(udp_primary_, kStunAltPort),
      alternate_main_(udp_alternate_, kStunPort),
      alternate_alt_(udp_alternate_, kStunAltPort) {
  primary_main_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& d) {
    serve(primary_main_, false, from, d);
  });
  primary_alt_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& d) {
    serve(primary_alt_, false, from, d);
  });
  alternate_main_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& d) {
    serve(alternate_main_, true, from, d);
  });
  alternate_alt_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& d) {
    serve(alternate_alt_, true, from, d);
  });
}

stack::UdpSocket& StunServer::reply_socket(bool alt_ip, bool alt_port) {
  if (alt_ip) return alt_port ? alternate_alt_ : alternate_main_;
  return alt_port ? primary_alt_ : primary_main_;
}

void StunServer::serve(stack::UdpSocket& in_socket, bool on_alternate_ip,
                       const net::Endpoint& from, const net::UdpDatagram& dgram) {
  const auto* chunk = dgram.chunk();
  if (chunk == nullptr) return;
  const auto req = parse_request(*chunk);
  if (!req) return;

  if (c_requests_ == nullptr) {
    c_requests_ = &primary_ip_.sim().metrics().counter(
        "stun.requests", primary_ip_.ip_address().to_string());
  }
  c_requests_->inc();

  BindingResponse resp;
  resp.transaction_id = req->transaction_id;
  resp.mapped = from;

  const bool reply_alt_ip = on_alternate_ip != req->change_ip;  // toggle
  const bool in_alt_port = in_socket.local_port() == kStunAltPort;
  const bool reply_alt_port = in_alt_port != req->change_port;
  reply_socket(reply_alt_ip, reply_alt_port).send_to(from, encode_response(resp));
}

// --- client ---------------------------------------------------------------

StunClient::StunClient(stack::UdpLayer& udp, net::Endpoint server_primary,
                       net::Endpoint server_alternate)
    : StunClient(udp, server_primary, server_alternate, Config{}) {}

StunClient::StunClient(stack::UdpLayer& udp, net::Endpoint server_primary,
                       net::Endpoint server_alternate, Config config)
    : udp_(udp),
      server_primary_(server_primary),
      server_alternate_(server_alternate),
      config_(config),
      socket_(udp),
      retry_timer_(udp.sim(), [this] { on_timeout(); }) {
  socket_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& d) {
    on_datagram(from, d);
  });
}

void StunClient::probe(Callback callback) {
  callback_ = std::move(callback);
  phase_ = Phase::kTest1;
  retries_left_ = config_.max_retries;
  probe_started_ = udp_.sim().now();
  send_current();
}

void StunClient::send_current() {
  BindingRequest req;
  req.transaction_id = txid_;
  net::Endpoint target = server_primary_;
  switch (phase_) {
    case Phase::kTest1:
      break;
    case Phase::kTest2:
      req.change_ip = true;
      req.change_port = true;
      break;
    case Phase::kTest1Alt:
      target = server_alternate_;
      break;
    case Phase::kTest3:
      req.change_port = true;
      break;
    default:
      return;
  }
  socket_.send_to(target, encode_request(req));
  retry_timer_.arm(config_.retry_interval);
}

void StunClient::on_timeout() {
  if (retries_left_ > 0) {
    --retries_left_;
    ++txid_;
    send_current();
    return;
  }
  advance(false, BindingResponse{});
}

void StunClient::on_datagram(const net::Endpoint& from, const net::UdpDatagram& dgram) {
  (void)from;
  const auto* chunk = dgram.chunk();
  if (chunk == nullptr) return;
  const auto resp = parse_response(*chunk);
  if (!resp || resp->transaction_id != txid_) return;
  retry_timer_.cancel();
  advance(true, *resp);
}

void StunClient::advance(bool got_response, const BindingResponse& resp) {
  ++txid_;
  retries_left_ = config_.max_retries;
  switch (phase_) {
    case Phase::kTest1: {
      if (!got_response) {
        finish(ProbeResult{false, nat::NatType::kSymmetric, {}});
        return;
      }
      mapped_primary_ = resp.mapped;
      const net::Endpoint local{udp_.ip().ip_address(), socket_.local_port()};
      if (resp.mapped == local) {
        // Not translated at all: public host.
        finish(ProbeResult{true, nat::NatType::kOpenInternet, resp.mapped});
        return;
      }
      phase_ = Phase::kTest2;
      send_current();
      return;
    }
    case Phase::kTest2: {
      test2_passed_ = got_response;
      if (got_response) {
        finish(ProbeResult{true, nat::NatType::kFullCone, mapped_primary_});
        return;
      }
      phase_ = Phase::kTest1Alt;
      send_current();
      return;
    }
    case Phase::kTest1Alt: {
      if (!got_response) {
        // Alternate server unreachable; be conservative.
        finish(ProbeResult{true, nat::NatType::kSymmetric, mapped_primary_});
        return;
      }
      if (resp.mapped != mapped_primary_) {
        finish(ProbeResult{true, nat::NatType::kSymmetric, mapped_primary_});
        return;
      }
      phase_ = Phase::kTest3;
      send_current();
      return;
    }
    case Phase::kTest3: {
      const auto type = got_response ? nat::NatType::kRestrictedCone
                                     : nat::NatType::kPortRestrictedCone;
      finish(ProbeResult{true, type, mapped_primary_});
      return;
    }
    default:
      return;
  }
}

void StunClient::finish(ProbeResult result) {
  phase_ = Phase::kDone;
  retry_timer_.cancel();
  if (c_probes_finished_ == nullptr) {
    c_probes_finished_ = &udp_.sim().metrics().counter("stun.probes_finished");
  }
  c_probes_finished_->inc();
  udp_.sim().tracer().complete(
      obs::Category::kStun, "stun.probe", probe_started_,
      udp_.ip().ip_address().to_string(),
      "\"reachable\":" + std::string(result.reachable ? "true" : "false") +
          ",\"nat_type\":\"" + nat::to_string(result.nat_type) + "\"");
  if (callback_) {
    auto cb = std::move(callback_);
    callback_ = nullptr;
    cb(result);
  }
}

}  // namespace wav::stun
