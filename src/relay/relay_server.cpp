#include "relay/relay_server.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace wav::relay {

using namespace overlay;

RelayServer::RelayServer(stack::IpLayer& ip) : RelayServer(ip, Config{}) {}

RelayServer::RelayServer(stack::IpLayer& ip, Config config)
    : ip_(ip),
      config_(config),
      owned_udp_(std::make_unique<stack::UdpLayer>(ip)),
      socket_(*owned_udp_, config.port),
      credit_timer_(ip.sim(), config.credit_interval, [this] { refill_credits(); }),
      idle_timer_(ip.sim(),
                  std::max<Duration>(config.channel_idle_timeout / 3, seconds(1)),
                  [this] { expire_idle_channels(); }) {
  init();
}

RelayServer::RelayServer(stack::UdpLayer& udp, Config config)
    : ip_(udp.ip()),
      config_(config),
      socket_(udp, config.port),
      credit_timer_(ip_.sim(), config.credit_interval, [this] { refill_credits(); }),
      idle_timer_(ip_.sim(),
                  std::max<Duration>(config.channel_idle_timeout / 3, seconds(1)),
                  [this] { expire_idle_channels(); }) {
  init();
}

void RelayServer::init() {
  socket_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& d) {
    on_datagram(from, d);
  });
  obs::MetricsRegistry& reg = ip_.sim().metrics();
  // Several relays can co-host on one public IP (distinct ports), so the
  // instance label is the full endpoint, not just the address.
  const std::string instance = endpoint().to_string();
  c_allocations_ = &reg.counter("relay.allocations", instance);
  c_refreshes_ = &reg.counter("relay.refreshes", instance);
  c_alloc_failures_ = &reg.counter("relay.alloc_failures", instance);
  c_frames_relayed_ = &reg.counter("relay.frames_relayed", instance);
  c_bytes_relayed_ = &reg.counter("relay.bytes_relayed", instance);
  c_dropped_no_credit_ = &reg.counter("relay.frames_dropped_no_credit", instance);
  c_dropped_unbound_ = &reg.counter("relay.frames_dropped_unbound", instance);
  c_channels_expired_ = &reg.counter("relay.channels_expired", instance);
  g_active_channels_ = &reg.gauge("relay.active_channels", instance);
  credit_timer_.start();
  idle_timer_.start();
}

RelayServer::Stats RelayServer::stats() const noexcept {
  return {.allocations = c_allocations_->value(),
          .refreshes = c_refreshes_->value(),
          .alloc_failures = c_alloc_failures_->value(),
          .frames_relayed = c_frames_relayed_->value(),
          .bytes_relayed = c_bytes_relayed_->value(),
          .frames_dropped_no_credit = c_dropped_no_credit_->value(),
          .frames_dropped_unbound = c_dropped_unbound_->value(),
          .channels_expired = c_channels_expired_->value()};
}

void RelayServer::sync_channel_gauge() {
  g_active_channels_->set(static_cast<double>(channels_.size()));
}

void RelayServer::crash() {
  if (down_) return;
  down_ = true;
  channels_.clear();
  sync_channel_gauge();
  credit_timer_.stop();
  idle_timer_.stop();
  ip_.sim().tracer().instant(obs::Category::kChaos, "relay.crash",
                             endpoint().to_string());
}

void RelayServer::restart() {
  if (!down_) return;
  down_ = false;
  credit_timer_.start();
  idle_timer_.start();
  ip_.sim().tracer().instant(obs::Category::kChaos, "relay.restart",
                             endpoint().to_string());
}

void RelayServer::on_datagram(const net::Endpoint& from, const net::UdpDatagram& dgram) {
  WAV_PROF_SCOPE("relay", "datagram");
  if (down_) {  // crashed process: the port is deaf
    if (const auto* encap = dgram.encap();
        encap != nullptr && encap->frame && encap->frame->flow.id != 0) {
      ip_.sim().flows().dropped(encap->frame->flow, obs::HopComponent::kRelay,
                                endpoint().to_string(),
                                obs::DropReason::kRelayDown);
    }
    return;
  }
  if (const auto* encap = dgram.encap()) {
    forward_encap(*encap);
    return;
  }
  const auto* chunk = dgram.chunk();
  if (chunk == nullptr) return;
  const auto type = peek_type(dgram);
  if (!type) return;
  switch (*type) {
    case MsgType::kRelayAllocate: {
      if (const auto msg = parse_relay_allocate(*chunk)) handle_allocate(from, *msg);
      return;
    }
    case MsgType::kRelayRelease: {
      if (const auto msg = parse_relay_release(*chunk)) handle_release(from, *msg);
      return;
    }
    case MsgType::kRelayPulse: {
      if (const auto msg = parse_relay_pulse(*chunk)) {
        forward_control(msg->from_host, msg->to_host, *chunk);
      }
      return;
    }
    case MsgType::kRelayFlush: {
      if (const auto msg = parse_relay_flush(*chunk)) {
        forward_control(msg->from_host, msg->to_host, *chunk);
      }
      return;
    }
    case MsgType::kGroupHandshake: {
      // Group pair handshakes ride the same channel as data; the relay
      // routes by the leading (from, to) pair and never parses the rest.
      if (const auto route = parse_group_route(*chunk)) {
        forward_control(route->from_host, route->to_host, *chunk);
      }
      return;
    }
    default:
      log::debug("relay", "unexpected message type {}", static_cast<int>(*type));
      return;
  }
}

void RelayServer::handle_allocate(const net::Endpoint& from,
                                  const RelayAllocateMsg& msg) {
  const PairKey key = key_of(msg.from_host, msg.to_host);
  auto it = channels_.find(key);
  if (it == channels_.end()) {
    if (channels_.size() >= config_.max_channels) {
      c_alloc_failures_->inc();
      socket_.send_to(from,
                      encode(RelayAllocateAckMsg{msg.to_host, false, false, "capacity"}));
      return;
    }
    Channel ch;
    ch.credit = config_.credit_bytes_per_interval;
    it = channels_.emplace(key, std::move(ch)).first;
    c_allocations_->inc();
    sync_channel_gauge();
    ip_.sim().tracer().instant(obs::Category::kRelay, "relay.allocate",
                               endpoint().to_string(),
                               "\"pair\":\"" + std::to_string(key.first) + "-" +
                                   std::to_string(key.second) + "\"");
  } else {
    c_refreshes_->inc();
  }
  Channel& ch = it->second;
  Side& mine = side_of(ch, msg.from_host, msg.to_host);
  Side& theirs = other_side(ch, msg.from_host, msg.to_host);
  const bool newly_bound = !mine.bound;
  // NAT rebinding keeps working: every allocate/refresh re-learns the
  // sender's current mapping.
  mine.endpoint = from;
  mine.bound = true;
  mine.last_seen = ip_.sim().now();
  ch.last_active = ip_.sim().now();
  // peer_bound vouches only for a *live* binding: a crashed peer's side
  // stops counting once its liveness window lapses, even though the
  // survivor's refreshes keep the channel itself active.
  socket_.send_to(from,
                  encode(RelayAllocateAckMsg{msg.to_host, true, side_alive(theirs), ""}));
  // Completing the pair unblocks the side that bound first — tell it
  // proactively instead of making it wait for its next refresh.
  if (newly_bound && side_alive(theirs)) {
    socket_.send_to(theirs.endpoint,
                    encode(RelayAllocateAckMsg{msg.from_host, true, true, ""}));
  }
}

void RelayServer::handle_release(const net::Endpoint& from, const RelayReleaseMsg& msg) {
  (void)from;
  const auto it = channels_.find(key_of(msg.from_host, msg.to_host));
  if (it == channels_.end()) return;
  Side& mine = side_of(it->second, msg.from_host, msg.to_host);
  mine.bound = false;
  if (!it->second.lo_side.bound && !it->second.hi_side.bound) {
    channels_.erase(it);
    sync_channel_gauge();
  }
}

void RelayServer::forward_encap(const net::EncapFrame& encap) {
  WAV_PROF_SCOPE("relay", "forward_encap");
  const net::FlowContext* flow =
      encap.frame && encap.frame->flow.id != 0 ? &encap.frame->flow : nullptr;
  const auto it = channels_.find(key_of(encap.overlay_src, encap.overlay_dst));
  if (it == channels_.end()) {
    c_dropped_unbound_->inc();
    if (flow != nullptr) {
      ip_.sim().flows().dropped(*flow, obs::HopComponent::kRelay,
                                endpoint().to_string(),
                                obs::DropReason::kRelayUnbound);
    }
    return;
  }
  Channel& ch = it->second;
  Side& src = side_of(ch, encap.overlay_src, encap.overlay_dst);
  Side& dst = side_of(ch, encap.overlay_dst, encap.overlay_src);
  if (src.bound) src.last_seen = ip_.sim().now();
  if (!src.bound || !side_alive(dst)) {
    c_dropped_unbound_->inc();
    if (flow != nullptr) {
      ip_.sim().flows().dropped(*flow, obs::HopComponent::kRelay,
                                endpoint().to_string(),
                                obs::DropReason::kRelayUnbound);
    }
    return;
  }
  const std::uint64_t size = encap.wire_size();
  if (ch.credit < size) {
    c_dropped_no_credit_->inc();
    if (flow != nullptr) {
      ip_.sim().flows().dropped(*flow, obs::HopComponent::kRelay,
                                endpoint().to_string(),
                                obs::DropReason::kRelayCapacity);
    }
    return;
  }
  ch.credit -= size;
  ch.last_active = ip_.sim().now();
  c_frames_relayed_->inc();
  c_bytes_relayed_->inc(size);
  if (flow != nullptr) {
    // The triangle's middle hop: tunnel_send->relay and relay->tunnel_recv
    // become separately measurable legs in the hop-pair histograms.
    ip_.sim().flows().forwarded(*flow, obs::HopComponent::kRelay,
                                endpoint().to_string());
  }
  // The shared_ptr copy keeps the pooled frame buffer alive end to end;
  // no payload bytes are duplicated by the relay hop.
  socket_.send_encap(dst.endpoint, encap);
}

void RelayServer::forward_control(HostId from_host, HostId to_host,
                                  const net::Chunk& chunk) {
  const auto it = channels_.find(key_of(from_host, to_host));
  if (it == channels_.end()) return;
  Side& src = side_of(it->second, from_host, to_host);
  if (src.bound) src.last_seen = ip_.sim().now();
  Side& dst = other_side(it->second, from_host, to_host);
  if (!side_alive(dst)) return;
  it->second.last_active = ip_.sim().now();
  socket_.send_to(dst.endpoint, chunk);
}

void RelayServer::refill_credits() {
  for (auto& [key, ch] : channels_) {
    ch.credit = std::min(ch.credit + config_.credit_bytes_per_interval,
                         2 * config_.credit_bytes_per_interval);
  }
}

void RelayServer::expire_idle_channels() {
  WAV_PROF_SCOPE("relay", "expire_channels");
  const TimePoint now = ip_.sim().now();
  bool erased = false;
  for (auto it = channels_.begin(); it != channels_.end();) {
    Channel& ch = it->second;
    // Unbind individually-stale sides so a channel kept busy by one
    // survivor still sheds its dead peer's binding.
    const auto shed_stale = [&](Side& side) {
      if (side.bound && now - side.last_seen > config_.side_liveness_timeout) {
        side.bound = false;
      }
    };
    shed_stale(ch.lo_side);
    shed_stale(ch.hi_side);
    if ((!ch.lo_side.bound && !ch.hi_side.bound) ||
        now - ch.last_active > config_.channel_idle_timeout) {
      c_channels_expired_->inc();
      it = channels_.erase(it);
      erased = true;
    } else {
      ++it;
    }
  }
  if (erased) sync_channel_gauge();
}

bool RelayServer::side_alive(const Side& side) const {
  return side.bound && ip_.sim().now() - side.last_seen <= config_.side_liveness_timeout;
}

}  // namespace wav::relay
