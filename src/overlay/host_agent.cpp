#include "overlay/host_agent.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace wav::overlay {

HostAgent::HostAgent(stack::IpLayer& ip, Config config)
    : ip_(ip),
      config_(std::move(config)),
      udp_(ip),
      socket_(udp_, config_.port),
      next_request_id_(1),
      heartbeat_timer_(ip.sim(), config_.heartbeat_interval,
                       [this] {
                         if (!registered_) return;
                         c_heartbeats_sent_->inc();
                         socket_.send_to(active_rendezvous_,
                                         encode(HeartbeatMsg{self_.host_id}));
                         // Every heartbeat is acked; the RegisterAck handler
                         // resets the silence count.
                         if (++silent_probes_ > config_.rendezvous_probe_failures) {
                           fail_over_rendezvous();
                         }
                       }),
      pulse_timer_(ip.sim(), config_.pulse_interval, [this] { pulse_links(); },
                   WAV_PROF_CATEGORY("overlay", "pulse_timer")),
      idle_check_timer_(ip.sim(), std::max(config_.link_idle_timeout / 3, seconds(1)),
                        [this] { reap_idle_links(); }),
      relay_refresh_timer_(ip.sim(), config_.relay_refresh_interval,
                           [this] { refresh_relayed_links(); }),
      upgrade_probe_timer_(ip.sim(), config_.upgrade_probe_interval,
                           [this] { probe_upgrades(); }) {
  active_rendezvous_ = config_.rendezvous;
  relays_ = config_.relays;
  self_.host_id = config_.host_id != 0 ? config_.host_id : ip.ip_address().value;
  self_.name = config_.name.empty() ? ip.ip_address().to_string() : config_.name;
  self_.private_endpoint = net::Endpoint{ip.ip_address(), config_.port};
  self_.attributes = config_.attributes;
  self_.nat_type =
      config_.nat_type.value_or(nat::NatType::kPortRestrictedCone);

  // Sharded fleet: hash-home to one shard; failover order walks the ring
  // of successors, so every agent homed to a dead shard lands on the same
  // deterministic survivor sequence.
  if (!config_.rendezvous_shards.empty()) {
    const std::size_t n = config_.rendezvous_shards.size();
    const std::size_t home = static_cast<std::size_t>(
        (self_.host_id * 0x9E3779B97F4A7C15ULL) >> 32) % n;
    active_rendezvous_ = config_.rendezvous_shards[home];
    config_.rendezvous = active_rendezvous_;
    config_.rendezvous_backups.clear();
    for (std::size_t i = 1; i < n; ++i) {
      config_.rendezvous_backups.push_back(config_.rendezvous_shards[(home + i) % n]);
    }
  }
  home_rendezvous_ = active_rendezvous_;

  obs::MetricsRegistry& reg = ip_.sim().metrics();
  const std::string& mi =
      config_.metrics_instance.empty() ? self_.name : config_.metrics_instance;
  c_punches_sent_ = &reg.counter("overlay.punches_sent", mi);
  c_punch_acks_sent_ = &reg.counter("overlay.punch_acks_sent", mi);
  c_pulses_sent_ = &reg.counter("overlay.connect_pulse_sent", mi);
  c_pulses_received_ = &reg.counter("overlay.connect_pulse_received", mi);
  c_frames_sent_ = &reg.counter("overlay.frames_sent", mi);
  c_frames_received_ = &reg.counter("overlay.frames_received", mi);
  c_links_established_ = &reg.counter("overlay.links_established", mi);
  c_links_lost_ = &reg.counter("overlay.links_lost", mi);
  c_punch_timeouts_ = &reg.counter("overlay.punch_timeouts", mi);
  c_heartbeats_sent_ = &reg.counter("overlay.heartbeats_sent", mi);
  c_queries_timed_out_ = &reg.counter("overlay.queries_timed_out", mi);
  c_reregistrations_ = &reg.counter("overlay.reregistrations", mi);
  c_connects_failed_ = &reg.counter("overlay.connects_failed", mi);
  c_failed_timeout_ = &reg.counter("overlay.connects_failed.timeout", mi);
  c_failed_incompatible_ =
      &reg.counter("overlay.connects_failed.incompatible_nat", mi);
  c_failed_relay_ = &reg.counter("overlay.connects_failed.relay", mi);
  c_failed_broker_ = &reg.counter("overlay.connects_failed.broker", mi);
  c_peers_forgotten_ = &reg.counter("overlay.peers_forgotten", mi);
  c_traversal_direct_ = &reg.counter("overlay.traversal_direct", mi);
  c_traversal_relayed_ = &reg.counter("overlay.traversal_relayed", mi);
  c_relay_fallbacks_ = &reg.counter("overlay.relay_fallbacks", mi);
  c_relay_failovers_ = &reg.counter("overlay.relay_failovers", mi);
  c_relay_upgrades_ = &reg.counter("overlay.relay_upgrades", mi);
  c_relay_upgrade_aborts_ = &reg.counter("overlay.relay_upgrade_aborts", mi);
  g_links_active_ = &reg.gauge("overlay.links_active", mi);
  g_links_relayed_ = &reg.gauge("overlay.links_relayed", mi);
  h_punch_latency_ms_ = &reg.histogram(
      "punch.latency_ms", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
  h_relay_alloc_ms_ = &reg.histogram(
      "relay.alloc_latency_ms", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
  // Shard-loss recovery latency: from the last proof the old shard was
  // serving us to the ack that completes registration on the new one.
  h_rehome_ms_ = &reg.histogram(
      "overlay.rehome_ms",
      {100, 500, 1000, 2000, 5000, 10000, 20000, 30000, 60000, 120000}, mi);

  // De-phase the keepalive across agents: with hundreds of hosts sharing
  // nominal intervals, identical periods would fire every pulse in the
  // same simulation instant (and, in the real system, the same RTO tick).
  pulse_timer_.set_period(jittered(config_.pulse_interval));
  relay_refresh_timer_.set_period(jittered(config_.relay_refresh_interval));
  upgrade_probe_timer_.set_period(jittered(config_.upgrade_probe_interval));

  socket_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& d) {
    on_datagram(from, d);
  });
}

HostAgent::~HostAgent() {
  for (auto& [qid, pending] : pending_queries_) ip_.sim().cancel(pending.deadline);
}

Duration HostAgent::jittered(Duration d) {
  return seconds_f(to_seconds(d) * (0.9 + 0.2 * ip_.sim().rng().uniform()));
}

void HostAgent::start(RegisteredHandler on_registered) {
  on_registered_ = std::move(on_registered);
  if (config_.stun && !config_.nat_type) {
    stun_client_.emplace(udp_, config_.stun->first, config_.stun->second);
    stun_client_->probe([this](const stun::ProbeResult& result) {
      if (result.reachable) self_.nat_type = result.nat_type;
      do_register();
    });
  } else {
    do_register();
  }
}

void HostAgent::go_offline(bool graceful) {
  if (down_) return;
  if (graceful && registered_) {
    socket_.send_to(active_rendezvous_, encode(DeregisterMsg{self_.host_id}));
  }
  down_ = true;
  registered_ = false;
  on_registered_ = nullptr;
  // Tear every link down without the link-down fanfare: the host is
  // leaving, not diagnosing a fault. Peers idle the links out (crash) or
  // fail their repunches (graceful, since our record is gone).
  for (auto& [peer, link] : links_) {
    if (link.punch_timer) link.punch_timer->stop();
    if (link.established && link.kind == LinkKind::kRelayed) {
      g_links_relayed_->add(-1);
      if (graceful && !link.relay.is_zero()) {
        socket_.send_to(link.relay, encode(RelayReleaseMsg{self_.host_id, peer}));
      }
    }
    if (link.established) g_links_active_->add(-1);
    ++link.alloc_epoch;  // retire in-flight allocate/flush deadlines
  }
  links_.clear();
  endpoint_to_peer_.clear();
  request_to_peer_.clear();
  repunch_backoff_.clear();
  repunch_failures_.clear();
  for (auto& [qid, pending] : pending_queries_) ip_.sim().cancel(pending.deadline);
  pending_queries_.clear();
  heartbeat_timer_.stop();
  pulse_timer_.stop();
  idle_check_timer_.stop();
  relay_refresh_timer_.stop();
  upgrade_probe_timer_.stop();
  silent_probes_ = 0;
  register_backoff_ = kZeroDuration;
  rehoming_ = false;
  ip_.sim().tracer().instant(obs::Category::kOverlay,
                             graceful ? "agent.depart" : "agent.crash", self_.name);
}

void HostAgent::go_online(RegisteredHandler on_registered) {
  if (!down_) return;
  down_ = false;
  registered_ = false;
  silent_probes_ = 0;
  register_backoff_ = kZeroDuration;
  rehoming_ = false;
  last_rendezvous_ok_ = TimePoint{};
  next_backup_ = 0;
  // A fresh session always starts at the hash-home shard; if that shard
  // is still dead, registration retries walk the ring as usual.
  active_rendezvous_ = home_rendezvous_;
  on_registered_ = std::move(on_registered);
  ip_.sim().tracer().instant(obs::Category::kOverlay, "agent.arrive", self_.name);
  do_register();
}

void HostAgent::do_register() {
  if (down_) return;
  RegisterMsg msg;
  msg.info = self_;
  socket_.send_to(active_rendezvous_, encode(msg));
  // Retry until acked (the ack handler flips registered_), backing off
  // exponentially with jitter so a crashed shard's whole population does
  // not re-register in lockstep. Repeated failures also walk the
  // failover ring.
  const Duration delay = register_backoff_ <= kZeroDuration ? config_.register_retry
                                                            : register_backoff_;
  ip_.sim().schedule_after(delay, [this] {
    if (registered_ || down_) return;
    register_backoff_ = jittered(
        std::min((register_backoff_ <= kZeroDuration ? config_.register_retry
                                                     : register_backoff_) *
                     2,
                 config_.register_retry_max));
    if (++silent_probes_ >= config_.rendezvous_probe_failures) {
      const net::Endpoint before = active_rendezvous_;
      fail_over_rendezvous();
      // An actual switch restarted registration with a fresh backoff.
      if (active_rendezvous_ != before) return;
    }
    do_register();
  });
}

void HostAgent::fail_over_rendezvous() {
  if (config_.rendezvous_backups.empty()) {
    silent_probes_ = 0;  // nothing to fail over to; keep trying the primary
    return;
  }
  const net::Endpoint next =
      config_.rendezvous_backups[next_backup_ % config_.rendezvous_backups.size()];
  ++next_backup_;
  if (next == active_rendezvous_) return;
  log::debug("agent", "{}: rendezvous {} silent; failing over to {}", self_.name,
             active_rendezvous_.to_string(), next.to_string());
  active_rendezvous_ = next;
  ++rendezvous_failovers_;
  // Only a host that *was* serving traffic re-homes; a first registration
  // walking the ring is arrival convergence, not recovery.
  if (registered_) rehoming_ = true;
  ip_.sim().tracer().instant(obs::Category::kOverlay, "rendezvous.failover",
                             self_.name, "\"to\":\"" + next.to_string() + "\"");
  silent_probes_ = 0;
  registered_ = false;
  register_backoff_ = kZeroDuration;
  do_register();
}

void HostAgent::query(const std::vector<double>& target, std::size_t k,
                      QueryHandler handler) {
  if (down_) {
    if (handler) handler({});
    return;
  }
  QueryMsg msg;
  msg.query_id = next_query_id_++;
  msg.target = target;
  msg.k = static_cast<std::uint16_t>(k);
  PendingQuery pending;
  pending.handler = std::move(handler);
  pending.target = target;
  pending.k = msg.k;
  pending.issued = ip_.sim().now();
  pending.deadline = ip_.sim().schedule_after(
      config_.query_timeout, [this, qid = msg.query_id] { expire_query(qid); });
  pending_queries_[msg.query_id] = std::move(pending);
  socket_.send_to(active_rendezvous_, encode(msg));
}

HostAgent::Stats HostAgent::stats() const noexcept {
  return {.punches_sent = c_punches_sent_->value(),
          .pulses_sent = c_pulses_sent_->value(),
          .frames_received = c_frames_received_->value(),
          .links_lost = c_links_lost_->value(),
          .queries_timed_out = c_queries_timed_out_->value(),
          .reregistrations = c_reregistrations_->value(),
          .connects_failed = c_connects_failed_->value(),
          .peers_forgotten = c_peers_forgotten_->value(),
          .relay_fallbacks = c_relay_fallbacks_->value(),
          .relay_failovers = c_relay_failovers_->value(),
          .relay_upgrades = c_relay_upgrades_->value()};
}

std::size_t HostAgent::stale_query_count(Duration age) const {
  const TimePoint now = ip_.sim().now();
  std::size_t n = 0;
  for (const auto& [qid, q] : pending_queries_) {
    if (now - q.issued > age) ++n;
  }
  return n;
}

void HostAgent::expire_query(std::uint64_t query_id) {
  const auto it = pending_queries_.find(query_id);
  if (it == pending_queries_.end()) return;
  PendingQuery& pending = it->second;
  if (pending.attempts < config_.query_retries) {
    // Resend under the same id with a linearly stretched deadline — the
    // reply datagram may simply have been lost.
    ++pending.attempts;
    QueryMsg msg;
    msg.query_id = query_id;
    msg.target = pending.target;
    msg.k = pending.k;
    pending.deadline = ip_.sim().schedule_after(
        config_.query_timeout * (pending.attempts + 1),
        [this, query_id] { expire_query(query_id); });
    socket_.send_to(active_rendezvous_, encode(msg));
    return;
  }
  auto handler = std::move(pending.handler);
  pending_queries_.erase(it);
  c_queries_timed_out_->inc();
  ip_.sim().tracer().instant(obs::Category::kOverlay, "query.timeout", self_.name,
                             "\"query_id\":" + std::to_string(query_id));
  if (handler) handler({});
}

void HostAgent::connect_to(const HostInfo& peer, ConnectHandler handler) {
  if (down_ || peer.host_id == self_.host_id) {
    if (handler) handler(false, peer.host_id);
    return;
  }
  if (const auto it = links_.find(peer.host_id);
      it != links_.end() && it->second.established) {
    if (handler) handler(true, peer.host_id);
    return;
  }
  // Ask the rendezvous layer to notify the peer (it will punch back)...
  ConnectRequestMsg req;
  req.request_id = next_request_id_++;
  req.requester = self_;
  req.target = peer.host_id;
  req.target_rendezvous = peer.rendezvous;
  socket_.send_to(active_rendezvous_, encode(req));
  request_to_peer_[req.request_id] = peer.host_id;
  // ...and start punching immediately with the info we already have.
  begin_punching(peer, std::move(handler));
  if (const auto it = links_.find(peer.host_id); it != links_.end()) {
    it->second.request_id = req.request_id;
  }
}

void HostAgent::begin_punching(const HostInfo& peer, ConnectHandler handler) {
  Link& link = links_[peer.host_id];
  link.peer = peer.host_id;
  link.info = peer;
  if (link.established) {
    if (handler) handler(true, peer.host_id);
    return;
  }
  if (handler) link.on_result = std::move(handler);
  // The relay ladder owns the link once entered: a ConnectNotify for the
  // same pair must not restart punching underneath the allocation.
  if (link.relay_tried) return;
  link.nonce = ip_.sim().rng().next();

  link.candidates.clear();
  // Behind the same NAT (identical public IP): the private address is the
  // only workable path (consumer NATs rarely hairpin); try it first.
  if (!peer.public_endpoint.is_zero() && !self_.public_endpoint.is_zero() &&
      peer.public_endpoint.ip == self_.public_endpoint.ip) {
    link.candidates.push_back(peer.private_endpoint);
  }
  if (!peer.public_endpoint.is_zero()) link.candidates.push_back(peer.public_endpoint);
  if (link.candidates.empty()) link.candidates.push_back(peer.private_endpoint);

  link.punch_deadline = ip_.sim().now() + config_.punch_timeout;
  if (!link.punch_timer || !link.punch_timer->running()) {
    link.punch_started = ip_.sim().now();
  }
  // Known-incompatible NAT pair with a relay tier available: punching is
  // futile (RFC 5128 §3.4), skip straight to the relay rung. Both sides
  // see the same two NAT types, so both jump together.
  if (!relays_.empty() &&
      !nat::hole_punch_compatible(self_.nat_type, peer.nat_type)) {
    begin_relay(link, "incompatible-nat");
    return;
  }
  if (!link.punch_timer) {
    const HostId peer_id = peer.host_id;
    // Jittered per-link so two agents punching each other (or many links
    // punching at once) don't lock their rounds into the same instant.
    link.punch_timer = std::make_unique<sim::PeriodicTimer>(
        ip_.sim(), jittered(config_.punch_interval),
        [this, peer_id] { punch_round(peer_id); },
        WAV_PROF_CATEGORY("overlay", "punch_timer"));
  }
  link.punch_timer->start_after(kZeroDuration);
}

void HostAgent::punch_round(HostId peer) {
  WAV_PROF_SCOPE("overlay", "punch_round");
  const auto it = links_.find(peer);
  if (it == links_.end()) return;
  Link& link = it->second;
  if (link.established && !link.probing) {
    link.punch_timer->stop();
    return;
  }
  if (ip_.sim().now() >= link.punch_deadline) {
    link.punch_timer->stop();
    if (link.established) {
      // Upgrade probe window closed without an ack: stay relayed and let
      // the next probe interval try again.
      link.probing = false;
      return;
    }
    c_punch_timeouts_->inc();
    ip_.sim().tracer().complete(obs::Category::kPunch, "punch.timeout",
                                link.punch_started, self_.name,
                                "\"peer\":" + std::to_string(peer));
    log::debug("agent", "{}: hole punch to {} timed out", self_.name, peer);
    // Next rung of the traversal ladder: a relayed tunnel. Only when the
    // ladder has no relay rung (or it already failed) is the connect
    // reported dead — and even then a backoff repunch keeps trying, so a
    // timeout during a partition is not the end of the story.
    if (!relays_.empty() && !link.relay_tried) {
      begin_relay(link, "punch-timeout");
      return;
    }
    fail_link(peer,
              nat::hole_punch_compatible(self_.nat_type, link.info.nat_type)
                  ? "timeout"
                  : "incompatible-nat");
    return;
  }
  for (const auto& candidate : link.candidates) {
    c_punches_sent_->inc();
    socket_.send_to(candidate, encode(PunchMsg{self_.host_id, link.nonce}));
  }
}

void HostAgent::fail_link(HostId peer, const std::string& reason) {
  const auto it = links_.find(peer);
  if (it == links_.end()) return;
  Link& link = it->second;
  if (link.punch_timer) link.punch_timer->stop();
  auto handler = std::move(link.on_result);
  const HostInfo info = link.info;
  if (link.request_id != 0) request_to_peer_.erase(link.request_id);
  links_.erase(it);
  c_connects_failed_->inc();
  if (reason == "timeout") {
    c_failed_timeout_->inc();
  } else if (reason == "incompatible-nat") {
    c_failed_incompatible_->inc();
  } else if (reason == "relay") {
    c_failed_relay_->inc();
  } else {
    c_failed_broker_->inc();
  }
  ip_.sim().tracer().instant(obs::Category::kOverlay, "connect.fail", self_.name,
                             "\"peer\":" + std::to_string(peer) + ",\"reason\":\"" +
                                 reason + "\"");
  log::debug("agent", "{}: connect to {} failed ({})", self_.name, peer, reason);
  if (handler) handler(false, peer);
  // Give-up pruning: enough consecutive terminal failures mean the peer
  // permanently departed — drop its retry records instead of repunching
  // a ghost forever (under churn those maps otherwise grow without
  // bound). A later successful link (the peer came back and dialed us)
  // resets the count.
  if (config_.repunch_give_up > 0 &&
      ++repunch_failures_[peer] >= config_.repunch_give_up) {
    repunch_failures_.erase(peer);
    repunch_backoff_.erase(peer);
    c_peers_forgotten_->inc();
    ip_.sim().tracer().instant(obs::Category::kOverlay, "peer.forgotten", self_.name,
                               "\"peer\":" + std::to_string(peer));
    return;
  }
  schedule_repunch(info);
}

void HostAgent::establish(Link& link, const net::Endpoint& proven) {
  WAV_PROF_SCOPE("overlay", "establish");
  link.remote = proven;
  link.last_rx = ip_.sim().now();
  endpoint_to_peer_[proven] = link.peer;
  if (link.established) return;
  link.established = true;
  link.kind = LinkKind::kDirect;
  if (link.punch_timer) link.punch_timer->stop();
  repunch_backoff_.erase(link.peer);
  repunch_failures_.erase(link.peer);
  if (link.request_id != 0) request_to_peer_.erase(link.request_id);
  // Direct won a race against a pending relay allocation: clean up.
  if (link.relay_tried && !link.relay.is_zero()) {
    socket_.send_to(link.relay, encode(RelayReleaseMsg{self_.host_id, link.peer}));
    link.relay_bound = false;
    ++link.alloc_epoch;
  }
  c_links_established_->inc();
  c_traversal_direct_->inc();
  g_links_active_->add(1);
  h_punch_latency_ms_->observe(
      to_milliseconds(ip_.sim().now() - link.punch_started));
  ip_.sim().tracer().complete(obs::Category::kPunch, "punch.success",
                              link.punch_started, self_.name,
                              "\"peer\":" + std::to_string(link.peer));
  if (!pulse_timer_.running()) pulse_timer_.start();
  if (!idle_check_timer_.running()) idle_check_timer_.start();
  log::debug("agent", "{}: direct link to {} via {}", self_.name, link.peer,
             proven.to_string());
  if (link.on_result) {
    auto handler = std::move(link.on_result);
    link.on_result = nullptr;
    handler(true, link.peer);
  }
  if (on_link_up_) on_link_up_(link.peer);
  if (on_link_up_group_) on_link_up_group_(link.peer);
}

bool HostAgent::send_frame(HostId peer, net::EncapFrame frame) {
  WAV_PROF_SCOPE("overlay", "send_frame");
  if (down_) return false;
  const auto it = links_.find(peer);
  if (it == links_.end() || !it->second.established) return false;
  Link& link = it->second;
  c_frames_sent_->inc();
  if (frame.frame && frame.frame->flow.id != 0) {
    ip_.sim().flows().forwarded(frame.frame->flow, obs::HopComponent::kTunnelSend,
                                self_.name);
  }
  if (link.kind == LinkKind::kRelayed) {
    // The relay picks the channel by the (src, dst) pair riding the
    // encap header — that's what kRelayEncapHeaderBytes pays for.
    frame.overlay_src = self_.host_id;
    frame.overlay_dst = peer;
    if (link.upgrading) {
      // Flush handshake in flight: hold the frame; it drains in order on
      // whichever path the handshake settles on.
      link.upgrade_buffer.push_back(std::move(frame));
      return true;
    }
    return socket_.send_encap(link.relay, std::move(frame));
  }
  return socket_.send_encap(link.remote, std::move(frame));
}

// ---------------------------------------------------------------------------
// Relay ladder: allocation, refresh/failover, and the direct upgrade.

void HostAgent::begin_relay(Link& link, const char* reason) {
  link.relay_tried = true;
  link.relay_bound = false;
  link.relay_acked = false;
  link.relay_attempts = 0;
  link.relays_cycled = 0;
  link.peer_wait_rounds = 0;
  // Both sides derive the same starting relay from the pair ids, so they
  // allocate the same channel without extra coordination.
  link.relay_cursor =
      static_cast<std::size_t>((self_.host_id + link.peer) % relays_.size());
  link.relay_started = ip_.sim().now();
  if (link.punch_timer) link.punch_timer->stop();
  c_relay_fallbacks_->inc();
  ip_.sim().tracer().instant(obs::Category::kRelay, "relay.fallback", self_.name,
                             "\"peer\":" + std::to_string(link.peer) +
                                 ",\"reason\":\"" + reason + "\"");
  log::debug("agent", "{}: falling back to relay for {} ({})", self_.name,
             link.peer, reason);
  send_relay_allocate(link);
}

void HostAgent::send_relay_allocate(Link& link) {
  link.relay = relays_[link.relay_cursor % relays_.size()];
  link.relay_acked = false;
  const std::uint64_t epoch = ++link.alloc_epoch;
  socket_.send_to(link.relay, encode(RelayAllocateMsg{self_.host_id, link.peer}));
  ip_.sim().schedule_after(
      config_.relay_alloc_timeout,
      [this, peer = link.peer, epoch] { relay_alloc_expired(peer, epoch); });
}

void HostAgent::relay_alloc_expired(HostId peer, std::uint64_t epoch) {
  const auto it = links_.find(peer);
  if (it == links_.end()) return;
  Link& link = it->second;
  if (link.alloc_epoch != epoch || link.relay_bound) return;
  if (link.relay_acked) {
    // The relay is alive; the peer just hasn't bound its side yet. Keep
    // re-asking the SAME relay (rotating would desync the two cursors),
    // but only for a bounded number of rounds.
    if (++link.peer_wait_rounds > config_.relay_alloc_retries + 2) {
      if (link.established) {
        const HostInfo info = link.info;
        drop_link(peer);
        schedule_repunch(info);
      } else {
        fail_link(peer, "relay");
      }
      return;
    }
    send_relay_allocate(link);
    return;
  }
  advance_relay(link);
}

void HostAgent::advance_relay(Link& link) {
  if (++link.relay_attempts <= config_.relay_alloc_retries) {
    send_relay_allocate(link);
    return;
  }
  link.relay_attempts = 0;
  link.peer_wait_rounds = 0;
  ++link.relays_cycled;
  ++link.relay_cursor;
  if (link.relays_cycled >= relays_.size()) {
    if (link.established) {
      // A live relayed link whose every relay stopped answering: drop it
      // and let the backoff repunch rebuild the whole ladder later.
      const HostInfo info = link.info;
      const HostId peer = link.peer;
      drop_link(peer);
      schedule_repunch(info);
    } else {
      fail_link(link.peer, "relay");
    }
    return;
  }
  send_relay_allocate(link);
}

void HostAgent::establish_relayed(Link& link) {
  link.relay_bound = true;
  link.relay_acked = true;
  link.missed_refreshes = 0;
  link.peer_wait_rounds = 0;
  link.relay_attempts = 0;
  link.relays_cycled = 0;
  ++link.alloc_epoch;  // retire the pending allocate deadline
  link.kind = LinkKind::kRelayed;
  // remote tracks the egress endpoint; deliberately NOT entered in
  // endpoint_to_peer_ (many peers share one relay endpoint).
  link.remote = link.relay;
  link.last_rx = ip_.sim().now();
  if (link.established) return;  // failover re-bind completed
  link.established = true;
  if (link.punch_timer) link.punch_timer->stop();
  repunch_backoff_.erase(link.peer);
  repunch_failures_.erase(link.peer);
  if (link.request_id != 0) request_to_peer_.erase(link.request_id);
  c_links_established_->inc();
  c_traversal_relayed_->inc();
  g_links_active_->add(1);
  g_links_relayed_->add(1);
  h_relay_alloc_ms_->observe(to_milliseconds(ip_.sim().now() - link.relay_started));
  ip_.sim().tracer().complete(obs::Category::kRelay, "relay.established",
                              link.relay_started, self_.name,
                              "\"peer\":" + std::to_string(link.peer) +
                                  ",\"relay\":\"" + link.relay.to_string() + "\"");
  if (!pulse_timer_.running()) pulse_timer_.start();
  if (!idle_check_timer_.running()) idle_check_timer_.start();
  if (!relay_refresh_timer_.running()) relay_refresh_timer_.start();
  // Opportunistic upgrade probing only helps pairs that could ever punch
  // (a path blip, not a NAT-type incompatibility, forced the relay).
  if (nat::hole_punch_compatible(self_.nat_type, link.info.nat_type) &&
      !upgrade_probe_timer_.running()) {
    upgrade_probe_timer_.start();
  }
  log::debug("agent", "{}: relayed link to {} via {}", self_.name, link.peer,
             link.relay.to_string());
  if (link.on_result) {
    auto handler = std::move(link.on_result);
    link.on_result = nullptr;
    handler(true, link.peer);
  }
  if (on_link_up_) on_link_up_(link.peer);
  if (on_link_up_group_) on_link_up_group_(link.peer);
}

void HostAgent::relay_failover(Link& link) {
  c_relay_failovers_->inc();
  ip_.sim().tracer().instant(obs::Category::kRelay, "relay.failover", self_.name,
                             "\"peer\":" + std::to_string(link.peer) +
                                 ",\"from\":\"" + link.relay.to_string() + "\"");
  log::debug("agent", "{}: relay {} silent; failing link to {} over", self_.name,
             link.relay.to_string(), link.peer);
  link.relay_bound = false;
  link.relay_acked = false;
  link.relay_attempts = 0;
  link.relays_cycled = 0;
  link.peer_wait_rounds = 0;
  link.missed_refreshes = 0;
  link.last_rx = ip_.sim().now();  // grace against the idle reaper mid-rebind
  if (relays_.size() <= 1) {
    // Nothing to fail over to: drop and rebuild via backoff repunch once
    // the relay (or the direct path) comes back.
    const HostInfo info = link.info;
    const HostId peer = link.peer;
    drop_link(peer);
    schedule_repunch(info);
    return;
  }
  // Deterministic next choice keeps both sides converging on the same
  // survivor: each detects the dead relay via its own missed refreshes
  // and advances the shared cursor by one.
  ++link.relay_cursor;
  send_relay_allocate(link);
}

void HostAgent::refresh_relayed_links() {
  bool any_relayed = false;
  std::vector<HostId> failed;
  for (auto& [peer, link] : links_) {
    if (!link.established || link.kind != LinkKind::kRelayed) continue;
    any_relayed = true;
    if (!link.relay_bound) continue;  // re-bind already in progress
    if (++link.missed_refreshes > config_.relay_max_missed_refreshes) {
      failed.push_back(peer);
      continue;
    }
    socket_.send_to(link.relay, encode(RelayAllocateMsg{self_.host_id, peer}));
  }
  // Failover mutates links_ (it may drop the link) — second phase.
  for (const HostId peer : failed) {
    const auto it = links_.find(peer);
    if (it != links_.end()) relay_failover(it->second);
  }
  if (!any_relayed) relay_refresh_timer_.stop();
}

void HostAgent::probe_upgrades() {
  bool any_upgradable = false;
  for (auto& [peer, link] : links_) {
    if (!link.established || link.kind != LinkKind::kRelayed) continue;
    if (!nat::hole_punch_compatible(self_.nat_type, link.info.nat_type)) continue;
    any_upgradable = true;
    if (link.probing || link.upgrading || !link.relay_bound) continue;
    if (link.candidates.empty()) continue;
    start_upgrade_probe(link);
  }
  if (!any_upgradable) upgrade_probe_timer_.stop();
}

void HostAgent::start_upgrade_probe(Link& link) {
  link.probing = true;
  link.nonce = ip_.sim().rng().next();
  link.punch_started = ip_.sim().now();
  link.punch_deadline = ip_.sim().now() + config_.upgrade_punch_window;
  if (!link.punch_timer) {
    const HostId peer_id = link.peer;
    link.punch_timer = std::make_unique<sim::PeriodicTimer>(
        ip_.sim(), jittered(config_.punch_interval),
        [this, peer_id] { punch_round(peer_id); },
        WAV_PROF_CATEGORY("overlay", "punch_timer"));
  }
  link.punch_timer->start_after(kZeroDuration);
}

void HostAgent::start_switchover(Link& link, const net::Endpoint& proven) {
  if (link.upgrading || link.kind != LinkKind::kRelayed) return;
  link.upgrading = true;
  link.probing = false;
  if (link.punch_timer && link.punch_timer->running()) link.punch_timer->stop();
  link.direct_candidate = proven;
  // Inbound attribution for the peer's direct frames can't wait for
  // complete_upgrade: the peer's own switchover may finish first.
  endpoint_to_peer_[proven] = link.peer;
  link.flush_nonce = ip_.sim().rng().next();
  // The flush is the LAST message we put on the relayed path; FIFO
  // delivery through the relay means the peer sees every frame we ever
  // relayed before it sees this barrier.
  socket_.send_to(link.relay,
                  encode(RelayFlushMsg{self_.host_id, link.peer, link.flush_nonce}));
  ip_.sim().schedule_after(
      config_.upgrade_flush_timeout,
      [this, peer = link.peer, nonce = link.flush_nonce] {
        flush_expired(peer, nonce);
      });
}

void HostAgent::complete_upgrade(Link& link) {
  link.upgrading = false;
  link.probing = false;
  link.kind = LinkKind::kDirect;
  link.remote = link.direct_candidate;
  endpoint_to_peer_[link.remote] = link.peer;
  link.last_rx = ip_.sim().now();
  g_links_relayed_->add(-1);
  c_relay_upgrades_->inc();
  ip_.sim().tracer().instant(obs::Category::kRelay, "traversal.upgrade",
                             self_.name,
                             "\"peer\":" + std::to_string(link.peer) + ",\"via\":\"" +
                                 link.remote.to_string() + "\"");
  log::debug("agent", "{}: upgraded link to {} to direct via {}", self_.name,
             link.peer, link.remote.to_string());
  // Release the relay side after a grace period: the peer may still have
  // frames in flight through the relay until its own flush completes,
  // and forwarding requires both sides bound.
  ip_.sim().schedule_after(
      config_.pulse_interval,
      [this, peer = link.peer, relay = link.relay] {
        const auto it = links_.find(peer);
        if (it == links_.end() || it->second.kind != LinkKind::kDirect ||
            it->second.relay != relay) {
          return;
        }
        socket_.send_to(relay, encode(RelayReleaseMsg{self_.host_id, peer}));
        it->second.relay_bound = false;
      });
  // Frames held during the handshake drain in order on the direct path.
  // They were already counted as sent when buffered.
  for (auto& frame : link.upgrade_buffer) {
    socket_.send_encap(link.remote, std::move(frame));
  }
  link.upgrade_buffer.clear();
}

void HostAgent::flush_expired(HostId peer, std::uint64_t nonce) {
  const auto it = links_.find(peer);
  if (it == links_.end()) return;
  Link& link = it->second;
  if (!link.upgrading || link.flush_nonce != nonce) return;
  // The peer never confirmed the relay pipe drained: abort the upgrade,
  // stay relayed, and push the held frames down the relay in order.
  link.upgrading = false;
  c_relay_upgrade_aborts_->inc();
  ip_.sim().tracer().instant(obs::Category::kRelay, "traversal.upgrade_abort",
                             self_.name, "\"peer\":" + std::to_string(peer));
  for (auto& frame : link.upgrade_buffer) {
    socket_.send_encap(link.relay, std::move(frame));
  }
  link.upgrade_buffer.clear();
}

bool HostAgent::link_established(HostId peer) const {
  const auto it = links_.find(peer);
  return it != links_.end() && it->second.established;
}

std::vector<HostId> HostAgent::connected_peers() const {
  std::vector<HostId> peers;
  for (const auto& [id, link] : links_) {
    if (link.established) peers.push_back(id);
  }
  std::sort(peers.begin(), peers.end());
  return peers;
}

std::optional<net::Endpoint> HostAgent::link_remote(HostId peer) const {
  const auto it = links_.find(peer);
  if (it == links_.end() || !it->second.established) return std::nullopt;
  return it->second.remote;
}

std::optional<HostAgent::LinkKind> HostAgent::link_kind(HostId peer) const {
  const auto it = links_.find(peer);
  if (it == links_.end() || !it->second.established) return std::nullopt;
  return it->second.kind;
}

std::optional<net::Endpoint> HostAgent::link_relay(HostId peer) const {
  const auto it = links_.find(peer);
  if (it == links_.end() || !it->second.established ||
      it->second.kind != LinkKind::kRelayed) {
    return std::nullopt;
  }
  return it->second.relay;
}

std::vector<HostId> HostAgent::relayed_peers() const {
  std::vector<HostId> peers;
  for (const auto& [id, link] : links_) {
    if (link.established && link.kind == LinkKind::kRelayed) peers.push_back(id);
  }
  std::sort(peers.begin(), peers.end());
  return peers;
}

std::uint32_t HostAgent::relay_overhead(HostId peer) const {
  const auto it = links_.find(peer);
  if (it == links_.end() || !it->second.established) return 0;
  return it->second.kind == LinkKind::kRelayed ? kRelayEncapHeaderBytes : 0;
}

void HostAgent::drop_link(HostId peer) {
  const auto it = links_.find(peer);
  if (it == links_.end()) return;
  Link& link = it->second;
  if (link.established && link.kind == LinkKind::kRelayed) {
    g_links_relayed_->add(-1);
    // Best effort: tell the relay to reclaim our side of the channel.
    if (!link.relay.is_zero()) {
      socket_.send_to(link.relay, encode(RelayReleaseMsg{self_.host_id, peer}));
    }
  }
  // For relayed links remote is the relay endpoint, which was never
  // entered in endpoint_to_peer_, so this erase is a harmless no-op.
  endpoint_to_peer_.erase(link.remote);
  // An upgrade probe may have registered the punch-proven endpoint for
  // early attribution; it dies with the link.
  if (!link.direct_candidate.is_zero()) {
    endpoint_to_peer_.erase(link.direct_candidate);
  }
  if (link.request_id != 0) request_to_peer_.erase(link.request_id);
  const bool was_established = link.established;
  links_.erase(it);
  if (was_established) {
    c_links_lost_->inc();
    g_links_active_->add(-1);
    ip_.sim().tracer().instant(obs::Category::kOverlay, "link.down", self_.name,
                               "\"peer\":" + std::to_string(peer));
    if (on_link_down_) on_link_down_(peer);
    if (on_link_down_group_) on_link_down_group_(peer);
  }
}

bool HostAgent::send_group_ctrl(HostId peer, net::Chunk chunk) {
  if (down_) return false;
  const auto it = links_.find(peer);
  if (it == links_.end() || !it->second.established) return false;
  Link& link = it->second;
  // A relayed link routes the chunk through the pair channel (the relay
  // reads the (from, to) ids off the body via parse_group_route); this
  // holds through an upgrade flush too — the channel stays bound until
  // the handshake completes, so FIFO ordering is preserved.
  return socket_.send_to(link.kind == LinkKind::kRelayed ? link.relay : link.remote,
                         std::move(chunk));
}

void HostAgent::pulse_links() {
  WAV_PROF_SCOPE("overlay", "pulse_links");
  for (auto& [peer, link] : links_) {
    if (!link.established) continue;
    c_pulses_sent_->inc();
    if (link.kind == LinkKind::kRelayed) {
      // The 2-byte pulse can't ride a relay (the channel needs the pair
      // addressing), so relayed links keep alive with a RelayPulse that
      // refreshes the channel's idle clock end to end.
      socket_.send_to(link.relay, encode(RelayPulseMsg{self_.host_id, peer}));
    } else {
      socket_.send_to(link.remote, encode_pulse());
    }
  }
}

void HostAgent::reap_idle_links() {
  const TimePoint now = ip_.sim().now();
  std::vector<HostId> dead;
  for (auto& [peer, link] : links_) {
    if (link.established && now - link.last_rx > config_.link_idle_timeout) {
      dead.push_back(peer);
    }
  }
  for (const HostId peer : dead) {
    log::debug("agent", "{}: link to {} idle-timed out", self_.name, peer);
    const HostInfo info = links_[peer].info;
    drop_link(peer);
    // NAT reboots invalidate both sides' bindings; a fresh brokered
    // connect re-learns the mappings and punches again.
    schedule_repunch(info);
  }
}

void HostAgent::schedule_repunch(const HostInfo& info) {
  if (!config_.auto_repunch || info.rendezvous.is_zero()) return;
  // Exponential backoff per peer (reset when a link establishes), with
  // seeded jitter so a fleet of agents doesn't retry in lockstep.
  Duration& backoff = repunch_backoff_[info.host_id];
  if (backoff <= kZeroDuration) backoff = config_.repunch_delay;
  const Duration delay = jittered(backoff);
  backoff = std::min(backoff * 2, config_.repunch_backoff_max);
  ip_.sim().schedule_after(delay, [this, info] {
    if (down_) return;
    if (!links_.contains(info.host_id)) {
      log::debug("agent", "{}: re-punching lost link to {}", self_.name,
                 info.host_id);
      connect_to(info, {});
    }
  });
}

HostAgent::Link* HostAgent::link_by_endpoint(const net::Endpoint& ep) {
  const auto it = endpoint_to_peer_.find(ep);
  if (it == endpoint_to_peer_.end()) return nullptr;
  const auto lit = links_.find(it->second);
  return lit == links_.end() ? nullptr : &lit->second;
}

void HostAgent::on_datagram(const net::Endpoint& from, const net::UdpDatagram& dgram) {
  if (down_) return;  // offline host: the socket is deaf
  const auto type = peek_type(dgram);
  if (!type) return;

  switch (*type) {
    case MsgType::kData: {
      const auto* encap = dgram.encap();
      Link* link = link_by_endpoint(from);
      if (link == nullptr && encap->overlay_dst == self_.host_id) {
        // Relayed frames all arrive from the relay's endpoint, which maps
        // to no single peer — attribute by the overlay source id. Gated
        // on the frame really coming from that link's relay; the check
        // stays valid while the peer drains its side post-upgrade.
        const auto it = links_.find(encap->overlay_src);
        if (it != links_.end() && it->second.established &&
            it->second.relay_tried && from == it->second.relay) {
          link = &it->second;
        }
      }
      if (link != nullptr) {
        link->last_rx = ip_.sim().now();
        c_frames_received_->inc();
        if (encap->frame && encap->frame->flow.id != 0) {
          ip_.sim().flows().forwarded(encap->frame->flow,
                                      obs::HopComponent::kTunnelRecv, self_.name);
        }
        if (on_frame_) on_frame_(link->peer, *encap);
      }
      return;
    }
    case MsgType::kPulse: {
      if (Link* link = link_by_endpoint(from)) {
        link->last_rx = ip_.sim().now();
        c_pulses_received_->inc();
      }
      return;
    }
    case MsgType::kPunch: {
      const auto msg = parse_punch(*dgram.chunk());
      if (!msg) return;
      c_punch_acks_sent_->inc();
      socket_.send_to(from, encode(PunchAckMsg{self_.host_id, msg->nonce}));
      // Traffic from the peer proves the path; adopt it.
      Link& link = links_[msg->from_host];
      if (link.peer == 0) {
        link.peer = msg->from_host;
        link.info.host_id = msg->from_host;
        link.info.public_endpoint = from;
        // Passive side: the punch effectively began when the peer's first
        // packet arrived, so the span collapses to the handshake itself.
        link.punch_started = ip_.sim().now();
      }
      if (link.established && link.kind == LinkKind::kRelayed) {
        // A punch landing on a relayed link is the peer probing for an
        // upgrade: the direct path works now. Remember it so the flush
        // handshake can complete over it; the ack we just sent tells the
        // peer to start its switchover. Register the endpoint for inbound
        // attribution immediately — the peer may finish its switchover
        // (and start sending direct) before our own flush completes.
        link.direct_candidate = from;
        endpoint_to_peer_[from] = link.peer;
        link.last_rx = ip_.sim().now();
        return;
      }
      establish(link, from);
      return;
    }
    case MsgType::kPunchAck: {
      const auto msg = parse_punch_ack(*dgram.chunk());
      if (!msg) return;
      const auto it = links_.find(msg->from_host);
      if (it == links_.end()) return;
      Link& link = it->second;
      if (link.established && link.kind == LinkKind::kRelayed) {
        // Our upgrade probe got through both NATs: switch to direct.
        if (link.punch_timer && link.punch_timer->running()) {
          link.punch_timer->stop();
        }
        link.probing = false;
        start_switchover(link, from);
        return;
      }
      establish(link, from);
      return;
    }
    case MsgType::kRegisterAck: {
      const auto msg = parse_register_ack(*dgram.chunk());
      if (!msg) return;
      if (!msg->ok) {
        // Negative ack: the server no longer has our record (it crashed
        // and restarted with empty tables). Re-register so discovery and
        // connect brokering work again.
        if (registered_) {
          registered_ = false;
          c_reregistrations_->inc();
          ip_.sim().tracer().instant(obs::Category::kOverlay, "agent.reregister",
                                     self_.name);
          do_register();
        }
        return;
      }
      self_.public_endpoint = msg->observed;
      self_.rendezvous = active_rendezvous_;
      // Merge the advertised relay tier (dedup keeps config entries and
      // list order stable, which the pair-cursor math relies on).
      for (const auto& relay : msg->relays) {
        if (std::find(relays_.begin(), relays_.end(), relay) == relays_.end()) {
          relays_.push_back(relay);
        }
      }
      silent_probes_ = 0;
      register_backoff_ = kZeroDuration;
      const TimePoint last_ok = std::exchange(last_rendezvous_ok_, ip_.sim().now());
      if (!registered_) {
        if (rehoming_ && last_ok != TimePoint{}) {
          h_rehome_ms_->observe(to_milliseconds(last_rendezvous_ok_ - last_ok));
        }
        rehoming_ = false;
        registered_ = true;
        ip_.sim().tracer().instant(obs::Category::kOverlay, "agent.registered",
                                   self_.name);
        heartbeat_timer_.start();
        if (on_registered_) {
          auto handler = std::move(on_registered_);
          on_registered_ = nullptr;
          handler(true);
        }
      }
      return;
    }
    case MsgType::kQueryReply: {
      const auto msg = parse_query_reply(*dgram.chunk());
      if (!msg) return;
      const auto it = pending_queries_.find(msg->query_id);
      if (it == pending_queries_.end()) return;
      auto handler = std::move(it->second.handler);
      ip_.sim().cancel(it->second.deadline);
      pending_queries_.erase(it);
      // Never hand back our own record.
      std::vector<HostInfo> hosts = msg->hosts;
      std::erase_if(hosts,
                    [this](const HostInfo& h) { return h.host_id == self_.host_id; });
      handler(std::move(hosts));
      return;
    }
    case MsgType::kConnectNotify: {
      const auto msg = parse_connect_notify(*dgram.chunk());
      if (!msg) return;
      // Either the peer's fresh info for our own request, or a request
      // initiated by the peer — both mean: punch toward them.
      begin_punching(msg->peer, {});
      return;
    }
    case MsgType::kConnectFail: {
      const auto msg = parse_connect_fail(*dgram.chunk());
      if (!msg) return;
      log::debug("agent", "{}: connect failed: {}", self_.name, msg->reason);
      const auto rit = request_to_peer_.find(msg->request_id);
      if (rit == request_to_peer_.end()) return;
      const HostId peer = rit->second;
      request_to_peer_.erase(rit);
      const auto it = links_.find(peer);
      if (it == links_.end() || it->second.established) return;
      // Once the ladder reached the relay rung the broker's verdict no
      // longer matters (relaying needs no brokered punch-back).
      if (it->second.relay_tried) return;
      // The broker cannot complete this connect (e.g. unknown host):
      // fail fast instead of waiting out the punch deadline.
      fail_link(peer, "broker");
      return;
    }
    case MsgType::kRelayAllocateAck: {
      const auto msg = parse_relay_allocate_ack(*dgram.chunk());
      if (!msg) return;
      const auto it = links_.find(msg->peer);
      if (it == links_.end()) return;
      Link& link = it->second;
      if (!link.relay_tried || from != link.relay) return;
      if (!msg->ok) {
        if (link.established && link.kind == LinkKind::kRelayed) {
          relay_failover(link);
        } else if (!link.established) {
          // A nack (e.g. capacity) won't clear by retrying: rotate now.
          link.relay_attempts = config_.relay_alloc_retries;
          advance_relay(link);
        }
        return;
      }
      link.relay_acked = true;
      link.missed_refreshes = 0;
      if (!link.relay_bound && msg->peer_bound) establish_relayed(link);
      // ok but peer not bound yet: the allocate deadline re-asks.
      return;
    }
    case MsgType::kRelayPulse: {
      const auto msg = parse_relay_pulse(*dgram.chunk());
      if (!msg || msg->to_host != self_.host_id) return;
      const auto it = links_.find(msg->from_host);
      if (it != links_.end() && it->second.established) {
        it->second.last_rx = ip_.sim().now();
        c_pulses_received_->inc();
      }
      return;
    }
    case MsgType::kRelayFlush: {
      const auto msg = parse_relay_flush(*dgram.chunk());
      if (!msg || msg->to_host != self_.host_id) return;
      const auto it = links_.find(msg->from_host);
      if (it == links_.end() || !it->second.established) return;
      Link& link = it->second;
      link.last_rx = ip_.sim().now();
      if (link.direct_candidate.is_zero()) return;  // peer's probe never landed
      // FIFO through the relay: every relayed frame the peer ever sent
      // precedes this barrier, so acking it (direct) tells the peer it
      // can safely drain onto the direct path.
      socket_.send_to(link.direct_candidate,
                      encode(RelayFlushAckMsg{self_.host_id, msg->nonce}));
      // Symmetric switch: the peer is moving to direct, move our egress
      // too so the channel winds down from both ends.
      if (link.kind == LinkKind::kRelayed && !link.upgrading) {
        start_switchover(link, link.direct_candidate);
      }
      return;
    }
    case MsgType::kRelayFlushAck: {
      const auto msg = parse_relay_flush_ack(*dgram.chunk());
      if (!msg) return;
      const auto it = links_.find(msg->from_host);
      if (it == links_.end()) return;
      Link& link = it->second;
      if (!link.upgrading || link.flush_nonce != msg->nonce) return;
      complete_upgrade(link);
      return;
    }
    case MsgType::kGroupHandshake: {
      const auto route = parse_group_route(*dgram.chunk());
      if (!route || route->to_host != self_.host_id) return;
      // Refresh the link's idle clock when the sender's endpoint checks
      // out, then hand the opaque body to the group layer. Delivery is
      // not gated on an established link: a handshake racing our own
      // punch-ack is fine — the group layer gates on link state itself.
      if (Link* link = link_by_endpoint(from)) link->last_rx = ip_.sim().now();
      if (on_group_ctrl_) on_group_ctrl_(route->from_host, *dgram.chunk());
      return;
    }
    default:
      return;
  }
}

}  // namespace wav::overlay
