#include "overlay/rendezvous.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace wav::overlay {

RendezvousServer::RendezvousServer(stack::IpLayer& ip)
    : RendezvousServer(ip, Config{}) {}

RendezvousServer::RendezvousServer(stack::IpLayer& ip, Config config)
    : ip_(ip),
      config_(config),
      udp_(ip),
      host_socket_(udp_, config.host_port),
      can_socket_(udp_, config.can_port),
      can_(
          ip.sim(), ip.ip_address().value /* unique per server */,
          net::Endpoint{ip.ip_address(), config.can_port},
          [this](const net::Endpoint& to, net::Chunk msg) {
            can_socket_.send_to(to, std::move(msg));
          },
          can::CanNode::Config{config.can_dims, seconds(10), milliseconds(800), 1}),
      expiry_timer_(ip.sim(), seconds(30), [this] { expire_stale_hosts(); }),
      shard_ping_timer_(ip.sim(), config.shard_ping_interval,
                        [this] { shard_ping_tick(); }) {
  host_socket_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& d) {
    on_host_datagram(from, d);
  });
  can_socket_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& d) {
    if (down_) return;
    if (const auto* chunk = d.chunk()) can_.on_message(from, *chunk);
  });
  obs::MetricsRegistry& reg = ip_.sim().metrics();
  const std::string instance = ip_.ip_address().to_string();
  c_registrations_ = &reg.counter("rendezvous.registrations", instance);
  c_heartbeats_ = &reg.counter("rendezvous.heartbeats", instance);
  c_queries_ = &reg.counter("rendezvous.queries", instance);
  c_connects_brokered_ = &reg.counter("rendezvous.connects_brokered", instance);
  c_connects_failed_ = &reg.counter("rendezvous.connects_failed", instance);
  c_hosts_expired_ = &reg.counter("rendezvous.hosts_expired", instance);
  c_shard_pings_ = &reg.counter("rendezvous.shard_pings", instance);
  g_registered_hosts_ = &reg.gauge("rendezvous.registered_hosts", instance);
  g_shards_alive_ = &reg.gauge("rendezvous.shards_alive", instance);
  expiry_timer_.start();
  if (!config_.shard_peers.empty()) set_shard_peers(config_.shard_peers);
}

void RendezvousServer::set_shard_peers(std::vector<net::Endpoint> peers) {
  config_.shard_peers = std::move(peers);
  shard_state_.clear();
  for (const auto& peer : config_.shard_peers) shard_state_[peer];
  shard_ping_timer_.stop();
  if (!config_.shard_peers.empty() && !down_) shard_ping_timer_.start();
  sync_shard_gauge();
}

std::size_t RendezvousServer::alive_shards() const {
  const TimePoint now = ip_.sim().now();
  const Duration window = 3 * config_.shard_ping_interval;
  std::size_t alive = down_ ? 0 : 1;
  for (const auto& [peer, state] : shard_state_) {
    if (state.ever_seen && now - state.last_seen <= window) ++alive;
  }
  return alive;
}

std::size_t RendezvousServer::fleet_registered_hosts() const {
  const TimePoint now = ip_.sim().now();
  const Duration window = 3 * config_.shard_ping_interval;
  std::size_t total = down_ ? 0 : hosts_.size();
  for (const auto& [peer, state] : shard_state_) {
    if (state.ever_seen && now - state.last_seen <= window) {
      total += state.reported_hosts;
    }
  }
  return total;
}

void RendezvousServer::shard_ping_tick() {
  if (down_) return;
  ShardPingMsg ping;
  ping.from = host_endpoint();
  ping.registered_hosts = static_cast<std::uint32_t>(hosts_.size());
  if (shard_payload_provider_) ping.payload = shard_payload_provider_();
  for (const auto& peer : config_.shard_peers) {
    c_shard_pings_->inc();
    host_socket_.send_to(peer, encode(ping));
    // Cross-hello the peer's CAN node too (fleet convention: one shared
    // can_port). After a false-positive liveness takeover two shards can
    // hold overlapping zone claims with no neighbor-table path between
    // them; this out-of-band hello is what lets the CAN layer notice and
    // resolve the conflict (see CanNode::announce_to).
    can_.announce_to({peer.ip, config_.can_port});
  }
  sync_shard_gauge();
}

RendezvousServer::Stats RendezvousServer::stats() const noexcept {
  return {.registrations = c_registrations_->value(),
          .heartbeats = c_heartbeats_->value(),
          .queries = c_queries_->value(),
          .connects_brokered = c_connects_brokered_->value(),
          .connects_failed = c_connects_failed_->value()};
}

void RendezvousServer::sync_shard_gauge() {
  g_shards_alive_->set(static_cast<double>(alive_shards()));
}

void RendezvousServer::sync_host_gauge() {
  g_registered_hosts_->set(static_cast<double>(hosts_.size()));
}

void RendezvousServer::bootstrap() { can_.bootstrap(); }

void RendezvousServer::join(const net::Endpoint& seed_can_endpoint) {
  can_.join(seed_can_endpoint);
}

void RendezvousServer::crash() {
  if (down_) return;
  down_ = true;
  hosts_.clear();
  sync_host_gauge();
  pending_connects_.clear();
  expiry_buckets_.clear();
  expiry_timer_.stop();
  shard_ping_timer_.stop();
  for (auto& [peer, state] : shard_state_) state = ShardPeer{};
  sync_shard_gauge();
  can_.crash();
  ip_.sim().tracer().instant(obs::Category::kChaos, "rendezvous.crash",
                             ip_.ip_address().to_string());
}

void RendezvousServer::restart() {
  if (!down_) return;
  down_ = false;
  expiry_timer_.start();
  if (!config_.shard_peers.empty()) shard_ping_timer_.start();
  can_.restart();
  can_.bootstrap();
  ip_.sim().tracer().instant(obs::Category::kChaos, "rendezvous.restart",
                             ip_.ip_address().to_string());
}

void RendezvousServer::restart(const net::Endpoint& seed_can_endpoint) {
  if (!down_) return;
  down_ = false;
  expiry_timer_.start();
  if (!config_.shard_peers.empty()) shard_ping_timer_.start();
  can_.restart();
  can_.join(seed_can_endpoint);
  ip_.sim().tracer().instant(obs::Category::kChaos, "rendezvous.restart",
                             ip_.ip_address().to_string());
}

can::Point RendezvousServer::attrs_to_point(const std::vector<double>& attrs) const {
  can::Point p;
  p.coords.resize(config_.can_dims, 0.5);
  for (std::size_t i = 0; i < config_.can_dims && i < attrs.size(); ++i) {
    p.coords[i] = std::clamp(attrs[i], 0.0, 0.999999);
  }
  return p;
}

void RendezvousServer::on_host_datagram(const net::Endpoint& from,
                                        const net::UdpDatagram& dgram) {
  if (down_) return;  // crashed process: the port is deaf
  WAV_PROF_SCOPE("rendezvous", "datagram");
  const auto* chunk = dgram.chunk();
  if (chunk == nullptr) return;
  const auto type = peek_type(dgram);
  if (!type) return;

  switch (*type) {
    case MsgType::kRegister: {
      if (const auto msg = parse_register(*chunk)) handle_register(from, *msg);
      return;
    }
    case MsgType::kDeregister: {
      if (const auto msg = parse_deregister(*chunk)) {
        const auto it = hosts_.find(msg->host_id);
        if (it != hosts_.end()) {
          can_.erase(attrs_to_point(it->second.info.attributes), [&] {
            ByteBuffer buf;
            ByteWriter w{buf};
            encode_host_info(w, it->second.info);
            return buf;
          }());
          hosts_.erase(it);
          sync_host_gauge();
        }
      }
      return;
    }
    case MsgType::kHeartbeat: {
      if (const auto msg = parse_heartbeat(*chunk)) {
        c_heartbeats_->inc();
        // Every heartbeat is acked: the ack is the host's liveness signal
        // for this shard. A nack (unknown host: our tables were wiped by a
        // crash/restart after it registered) makes it re-register instead
        // of heartbeating into the void until its tunnels rot.
        RegisterAckMsg ack;
        ack.observed = from;
        const auto it = hosts_.find(msg->host_id);
        if (it != hosts_.end()) {
          ack.ok = true;
          ack.relays = config_.relays;
          it->second.last_seen = ip_.sim().now();
          it->second.observed = from;  // NAT rebinding keeps working
          note_alive(msg->host_id, it->second.last_seen);
          // Refresh the CAN record's TTL (erase the old copy first so
          // re-stores do not pile up duplicates).
          ByteBuffer blob;
          ByteWriter w{blob};
          encode_host_info(w, it->second.info);
          can_.erase(attrs_to_point(it->second.info.attributes), blob);
          can_.store(attrs_to_point(it->second.info.attributes), std::move(blob),
                     config_.host_expiry);
        }
        host_socket_.send_to(from, encode(ack));
      }
      return;
    }
    case MsgType::kQuery: {
      if (const auto msg = parse_query(*chunk)) handle_query(from, *msg);
      return;
    }
    case MsgType::kConnectRequest: {
      if (const auto msg = parse_connect_request(*chunk)) {
        handle_connect_request(from, *msg);
      }
      return;
    }
    case MsgType::kRvForwardNotify: {
      if (const auto msg = parse_rv_forward(*chunk)) handle_rv_forward(from, *msg);
      return;
    }
    case MsgType::kConnectNotify: {
      // A peer server answered our forwarded connect: relay to the local
      // requester host recorded under this request id.
      if (const auto msg = parse_connect_notify(*chunk)) {
        const auto it = pending_connects_.find(msg->request_id);
        if (it != pending_connects_.end()) {
          host_socket_.send_to(it->second.requester_observed, encode(*msg));
          pending_connects_.erase(it);
          c_connects_brokered_->inc();
        }
      }
      return;
    }
    case MsgType::kConnectFail: {
      if (const auto msg = parse_connect_fail(*chunk)) {
        const auto it = pending_connects_.find(msg->request_id);
        if (it != pending_connects_.end()) {
          host_socket_.send_to(it->second.requester_observed, encode(*msg));
          pending_connects_.erase(it);
          c_connects_failed_->inc();
        }
      }
      return;
    }
    case MsgType::kShardPing: {
      if (const auto msg = parse_shard_ping(*chunk)) {
        if (const auto it = shard_state_.find(msg->from); it != shard_state_.end()) {
          it->second.last_seen = ip_.sim().now();
          it->second.reported_hosts = msg->registered_hosts;
          it->second.ever_seen = true;
        }
        if (shard_payload_handler_ && !msg->payload.empty()) {
          shard_payload_handler_(msg->payload);
        }
        ShardPongMsg pong;
        pong.from = host_endpoint();
        pong.registered_hosts = static_cast<std::uint32_t>(hosts_.size());
        if (shard_payload_provider_) pong.payload = shard_payload_provider_();
        host_socket_.send_to(msg->from, encode(pong));
      }
      return;
    }
    case MsgType::kShardPong: {
      if (const auto msg = parse_shard_pong(*chunk)) {
        if (const auto it = shard_state_.find(msg->from); it != shard_state_.end()) {
          it->second.last_seen = ip_.sim().now();
          it->second.reported_hosts = msg->registered_hosts;
          it->second.ever_seen = true;
          sync_shard_gauge();
        }
        if (shard_payload_handler_ && !msg->payload.empty()) {
          shard_payload_handler_(msg->payload);
        }
      }
      return;
    }
    default:
      log::debug("rendezvous", "unexpected message type {}",
                 static_cast<int>(*type));
      return;
  }
}

void RendezvousServer::handle_register(const net::Endpoint& from, const RegisterMsg& msg) {
  WAV_PROF_SCOPE("rendezvous", "register");
  c_registrations_->inc();
  ip_.sim().tracer().instant(obs::Category::kOverlay, "rendezvous.register",
                             ip_.ip_address().to_string(),
                             "\"host\":" + std::to_string(msg.info.host_id));
  // Re-registration: drop the stale CAN record first.
  if (const auto it = hosts_.find(msg.info.host_id); it != hosts_.end()) {
    ByteBuffer old;
    ByteWriter ow{old};
    encode_host_info(ow, it->second.info);
    can_.erase(attrs_to_point(it->second.info.attributes), std::move(old));
  }
  Registered reg;
  reg.info = msg.info;
  // The source endpoint we observe *is* the host's NAT mapping for its
  // overlay socket — the coordinate peers will hole-punch toward.
  reg.info.public_endpoint = from;
  reg.info.rendezvous = host_endpoint();
  reg.observed = from;
  reg.last_seen = ip_.sim().now();

  // Index the host in the CAN by its resource-state point, bounded by a
  // TTL so records don't outlive a crashed host (or a rendezvous server
  // that died before cleaning up) — heartbeats refresh it below.
  ByteBuffer blob;
  ByteWriter w{blob};
  encode_host_info(w, reg.info);
  can_.store(attrs_to_point(reg.info.attributes), std::move(blob), config_.host_expiry);

  const TimePoint seen = reg.last_seen;
  hosts_[msg.info.host_id] = std::move(reg);
  note_alive(msg.info.host_id, seen);
  sync_host_gauge();

  RegisterAckMsg ack;
  ack.ok = true;
  ack.observed = from;
  ack.relays = config_.relays;
  host_socket_.send_to(from, encode(ack));
}

void RendezvousServer::handle_query(const net::Endpoint& from, const QueryMsg& msg) {
  WAV_PROF_SCOPE("rendezvous", "query");
  c_queries_->inc();
  const can::Point target = attrs_to_point(msg.target);
  const std::uint64_t query_id = msg.query_id;
  const std::uint16_t k = msg.k;
  can_.query(target, k, [this, from, query_id, k](std::vector<can::Item> items) {
    QueryReplyMsg reply;
    reply.query_id = query_id;
    for (const auto& item : items) {
      ByteReader r{item.payload};
      if (const auto info = parse_host_info(r)) {
        // Registrations can be refreshed; keep only the first (closest)
        // record per host id.
        const bool dup = std::any_of(
            reply.hosts.begin(), reply.hosts.end(),
            [&](const HostInfo& h) { return h.host_id == info->host_id; });
        if (!dup) reply.hosts.push_back(*info);
      }
    }
    if (reply.hosts.size() > k) reply.hosts.resize(k);
    host_socket_.send_to(from, encode(reply));
  });
}

void RendezvousServer::handle_connect_request(const net::Endpoint& from,
                                              const ConnectRequestMsg& msg) {
  // Figure 3, step 2: this (requester-side) server records the pending
  // request and asks the peer's rendezvous server to notify both ends.
  PendingConnect pending;
  pending.requester_observed = from;
  pending.created = ip_.sim().now();
  pending_connects_[msg.request_id] = pending;

  RvForwardNotifyMsg fwd;
  fwd.request_id = msg.request_id;
  fwd.requester = msg.requester;
  fwd.requester.public_endpoint = from;  // authoritative mapping
  fwd.requester.rendezvous = host_endpoint();
  fwd.target = msg.target;

  if (msg.target_rendezvous == host_endpoint()) {
    handle_rv_forward(host_endpoint(), fwd);
  } else {
    host_socket_.send_to(msg.target_rendezvous, encode(fwd));
  }
}

void RendezvousServer::handle_rv_forward(const net::Endpoint& from,
                                         const RvForwardNotifyMsg& msg) {
  const auto it = hosts_.find(msg.target);
  const auto reply_to = [&](net::Chunk chunk) {
    if (from == host_endpoint()) {
      // Local shortcut: requester registered at this very server.
      const auto pending = pending_connects_.find(msg.request_id);
      if (pending != pending_connects_.end()) {
        host_socket_.send_to(pending->second.requester_observed, std::move(chunk));
        pending_connects_.erase(pending);
      }
    } else {
      host_socket_.send_to(from, std::move(chunk));
    }
  };

  if (it == hosts_.end()) {
    c_connects_failed_->inc();
    reply_to(encode(ConnectFailMsg{msg.request_id, "unknown host"}));
    return;
  }

  // Figure 3, step 3: tell the target who wants in...
  ConnectNotifyMsg to_target;
  to_target.request_id = msg.request_id;
  to_target.peer = msg.requester;
  host_socket_.send_to(it->second.observed, encode(to_target));

  // ...and hand the target's fresh info back toward the requester.
  ConnectNotifyMsg to_requester;
  to_requester.request_id = msg.request_id;
  to_requester.peer = it->second.info;
  c_connects_brokered_->inc();
  reply_to(encode(to_requester));
}

// Bucket width for the expiry wheel. Must divide the expiry tick period
// (30 s) so that sweeps land exactly on bucket boundaries — which makes
// the wheel expire precisely the hosts the old full-table scan would
// have, just without visiting the fresh ones.
namespace {
constexpr std::uint64_t kExpiryBucketNs = 10'000'000'000ULL;  // 10 s
}  // namespace

void RendezvousServer::note_alive(HostId id, TimePoint last_seen) {
  const auto deadline =
      static_cast<std::uint64_t>((last_seen + config_.host_expiry).since_start.count());
  expiry_buckets_[deadline / kExpiryBucketNs].push_back(id);
}

void RendezvousServer::expire_stale_hosts() {
  WAV_PROF_SCOPE("rendezvous", "expire");
  const TimePoint now = ip_.sim().now();
  // Sweep only buckets whose whole deadline range lies in the past. A
  // host refreshed since its entry was queued fails the staleness check
  // and is skipped — its live entry sits in a later bucket.
  const auto now_bucket =
      static_cast<std::uint64_t>(now.since_start.count()) / kExpiryBucketNs;
  while (!expiry_buckets_.empty()) {
    const auto bucket = expiry_buckets_.begin();
    if (bucket->first >= now_bucket) break;
    for (const HostId id : bucket->second) {
      const auto it = hosts_.find(id);
      if (it == hosts_.end()) continue;  // departed or already expired
      if (now - it->second.last_seen <= config_.host_expiry) continue;  // refreshed
      ByteBuffer blob;
      ByteWriter w{blob};
      encode_host_info(w, it->second.info);
      can_.erase(attrs_to_point(it->second.info.attributes), std::move(blob));
      c_hosts_expired_->inc();
      hosts_.erase(it);
    }
    expiry_buckets_.erase(bucket);
  }
  sync_host_gauge();
  // Connect requests that never completed fail loudly: the requester
  // gets a ConnectFail so its punch attempt can give up, and the failure
  // shows up in stats instead of vanishing in a silent GC.
  for (auto it = pending_connects_.begin(); it != pending_connects_.end();) {
    if (now - it->second.created > config_.connect_timeout) {
      c_connects_failed_->inc();
      host_socket_.send_to(it->second.requester_observed,
                           encode(ConnectFailMsg{it->first, "timeout"}));
      it = pending_connects_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace wav::overlay
