#include "can/node.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace wav::can {
namespace {

constexpr std::uint8_t kMaxHops = 64;

/// How many times a ZoneTakeover may be passed along when the receiver's
/// zone doesn't merge with the shipped rectangle. Each hop either ends at
/// a mergeable sibling or hands the receiver's own zone one node further;
/// real fleets resolve in one or two hops, the budget just guarantees
/// termination in adversarial geometries.
constexpr std::uint8_t kCascadeBudget = 8;

void encode_endpoint(ByteWriter& w, const net::Endpoint& ep) {
  w.u32(ep.ip.value);
  w.u16(ep.port);
}

std::optional<net::Endpoint> parse_endpoint(ByteReader& r) {
  const auto ip = r.u32();
  const auto port = r.u16();
  if (!ip || !port) return std::nullopt;
  return net::Endpoint{net::Ipv4Address{*ip}, *port};
}

double point_distance_sq(const Point& a, const Point& b) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.dims() && i < b.dims(); ++i) {
    const double d = a.coords[i] - b.coords[i];
    d2 += d * d;
  }
  return d2;
}

}  // namespace

/// Items travel with their *remaining* TTL in milliseconds (0 = never
/// expires), so transfers during join/leave preserve expiry semantics.
void encode_items(ByteWriter& w, const std::vector<Item>& items, TimePoint now) {
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) {
    encode_point(w, item.point);
    std::uint32_t ttl_ms = 0;
    if (item.expires < kTimeInfinity) {
      const Duration remaining = item.expires - now;
      ttl_ms = remaining > kZeroDuration
                   ? static_cast<std::uint32_t>(
                         std::min<double>(to_milliseconds(remaining), 4e9))
                   : 1;
    }
    w.u32(ttl_ms);
    w.u32(static_cast<std::uint32_t>(item.payload.size()));
    w.raw(item.payload);
  }
}

std::optional<std::vector<Item>> parse_items(ByteReader& r, TimePoint now) {
  // Smallest encoded item: a zero-dimension point, its TTL and an empty
  // payload's length. A count the remaining bytes cannot hold is forged,
  // and must not reach the reserve below.
  constexpr std::size_t kMinItemBytes = 1 + 4 + 4;
  const auto count = r.u32();
  if (!count || *count > r.remaining() / kMinItemBytes) return std::nullopt;
  std::vector<Item> items;
  items.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto point = parse_point(r);
    if (!point) return std::nullopt;
    const auto ttl_ms = r.u32();
    const auto len = r.u32();
    if (!ttl_ms || !len) return std::nullopt;
    const auto payload = r.raw(*len);
    if (!payload) return std::nullopt;
    Item item{*point, ByteBuffer{payload->begin(), payload->end()}, kTimeInfinity};
    if (*ttl_ms != 0) item.expires = now + milliseconds(*ttl_ms);
    items.push_back(std::move(item));
  }
  return items;
}

CanNode::CanNode(sim::Simulation& sim, NodeId id, net::Endpoint self, SendFn send)
    : CanNode(sim, id, self, std::move(send), Config{}) {}

CanNode::CanNode(sim::Simulation& sim, NodeId id, net::Endpoint self, SendFn send,
                 Config config)
    : sim_(sim),
      id_(id),
      self_(self),
      send_(std::move(send)),
      config_(config),
      zone_(Zone::whole(config.dims)),
      hello_timer_(sim, config.hello_interval, [this] {
        prune_expired_items();
        announce_to_neighbors();
        // Drop neighbors that have gone silent for several periods. A
        // crashed node never sends a ZoneTakeover, so its zone would
        // otherwise stay orphaned forever — absorb any silent neighbor's
        // zone that merges with ours (ungraceful takeover).
        const TimePoint now = sim_.now();
        std::vector<NeighborInfo> dead;
        for (auto it = neighbors_.begin(); it != neighbors_.end();) {
          if (now - it->second.last_seen > config_.hello_interval * 3) {
            dead.push_back(it->second);
            it = neighbors_.erase(it);
          } else {
            ++it;
          }
        }
        if (config_.liveness_takeover && !dead.empty()) {
          bool grew = false;
          for (const auto& info : dead) {
            if (zone_.merged_with(info.zone)) {
              if (wins_takeover_election(info, dead)) {
                take_over_zone(info);
                grew = true;
              }
            } else if (!any_direct_takeover_candidate(info, dead) &&
                       wins_handover_election(info, dead)) {
              // Nobody bordering the victim can absorb its zone into a
              // rectangle. Don't adopt yet: stash the claim for another
              // liveness window so a falsely-declared-dead victim can
              // resurface before we seize its space.
              pending_handovers_.push_back(
                  PendingHandover{info, now + config_.hello_interval * 3});
            }
          }
          if (grew) {
            announce_to_neighbors();
            prune_non_adjacent();
          }
        }
        process_pending_handovers();
      }) {
  obs::MetricsRegistry& reg = sim_.metrics();
  const std::string inst = "can#" + std::to_string(id_);
  c_messages_sent_ = &reg.counter("can.messages_sent", inst);
  c_messages_received_ = &reg.counter("can.messages_received", inst);
  c_routed_forwarded_ = &reg.counter("can.routed_forwarded", inst);
  c_routed_delivered_ = &reg.counter("can.routed_delivered", inst);
  c_routed_dead_end_ = &reg.counter("can.routed_dead_end", inst);
  c_zone_splits_ = &reg.counter("can.zone_splits", inst);
  c_zone_takeovers_ = &reg.counter("can.zone_takeovers", inst);
  c_queries_timed_out_ = &reg.counter("can.queries_timed_out", inst);
  h_query_hops_ = &reg.histogram("can.query_hops", {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48});
  h_delivery_hops_ = &reg.histogram("can.delivery_hops", {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48});
  h_query_latency_ms_ = &reg.histogram(
      "can.query_latency_ms", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
}

void CanNode::bootstrap() {
  zone_ = Zone::whole(config_.dims);
  joined_ = true;
  down_ = false;
  hello_timer_.start();
}

void CanNode::crash() {
  if (down_) return;
  down_ = true;
  joined_ = false;
  hello_timer_.stop();
  drop_pending_state();
  neighbors_.clear();
  items_.clear();
  pending_handovers_.clear();
  sim_.tracer().instant(obs::Category::kChaos, "can.crash",
                        "can#" + std::to_string(id_));
}

void CanNode::restart() {
  if (!down_) return;
  down_ = false;
  sim_.tracer().instant(obs::Category::kChaos, "can.restart",
                        "can#" + std::to_string(id_));
}

void CanNode::drop_pending_state() {
  // Move the maps out first: a callback may issue a fresh query, which
  // would otherwise mutate the map mid-iteration.
  auto queries = std::move(pending_queries_);
  pending_queries_.clear();
  for (auto& [qid, pending] : queries) {
    sim_.cancel(pending.deadline);
    pending.callback({});
  }
  auto aggs = std::move(aggregations_);
  aggregations_.clear();
  for (auto& [agg_id, agg] : aggs) sim_.cancel(agg.deadline);
}

bool CanNode::wins_takeover_election(const NeighborInfo& dead_info,
                                     const std::vector<NeighborInfo>& dead) const {
  // Every survivor around the victim holds the victim's last gossiped
  // neighbor list, so each computes the same candidate set — the
  // mergeable, believed-alive peers plus itself — and the smallest id
  // claims. Without this, two split-siblings of the victim (which need
  // not know each other) would both merge and overlap the space.
  NodeId winner = id_;
  for (const NeighborLink& peer : dead_info.peers) {
    if (peer.id == id_ || peer.id == dead_info.id || peer.id >= winner) continue;
    const bool also_dead =
        std::any_of(dead.begin(), dead.end(),
                    [&](const NeighborInfo& d) { return d.id == peer.id; });
    if (also_dead) continue;
    if (peer.zone.merged_with(dead_info.zone)) winner = peer.id;
  }
  return winner == id_;
}

bool CanNode::any_direct_takeover_candidate(
    const NeighborInfo& dead_info, const std::vector<NeighborInfo>& dead) const {
  // Callers reach this only when this node itself cannot merge, so the
  // scan covers the victim's gossiped peers alone.
  for (const NeighborLink& peer : dead_info.peers) {
    if (peer.id == id_ || peer.id == dead_info.id) continue;
    const bool also_dead =
        std::any_of(dead.begin(), dead.end(),
                    [&](const NeighborInfo& d) { return d.id == peer.id; });
    if (also_dead) continue;
    if (peer.zone.merged_with(dead_info.zone)) return true;
  }
  return false;
}

bool CanNode::wins_handover_election(const NeighborInfo& dead_info,
                                     const std::vector<NeighborInfo>& dead) const {
  // Nobody bordering the victim can absorb its zone into a rectangle
  // (classic CAN fragmentation — e.g. a half-space victim surrounded by
  // quadrants). Elect the smallest believed-alive id from the victim's
  // gossiped list unconditionally: every survivor computes the same
  // winner from the shared snapshot, so at most one node adopts. The
  // winner vacates its own zone via a cascading handover (see
  // adopt_zone_via_handover) and takes the victim's zone wholesale.
  NodeId winner = id_;
  for (const NeighborLink& peer : dead_info.peers) {
    if (peer.id == dead_info.id || peer.id >= winner) continue;
    const bool also_dead =
        std::any_of(dead.begin(), dead.end(),
                    [&](const NeighborInfo& d) { return d.id == peer.id; });
    if (also_dead) continue;
    winner = peer.id;
  }
  return winner == id_;
}

const NeighborInfo* CanNode::cascade_heir() const {
  // Who inherits this node's zone when it vacates: the smallest-id live
  // neighbor whose zone merges with ours (cascade ends there in one
  // hop); failing that, the smallest-id live neighbor outright — it will
  // adopt our rectangle and cascade its own zone onward.
  const NeighborInfo* mergeable = nullptr;
  const NeighborInfo* any = nullptr;
  for (const auto& [nid, info] : neighbors_) {
    if (any == nullptr || info.id < any->id) any = &info;
    if (zone_.merged_with(info.zone)) {
      if (mergeable == nullptr || info.id < mergeable->id) mergeable = &info;
    }
  }
  return mergeable != nullptr ? mergeable : any;
}

void CanNode::relinquish_and_rejoin(const net::Endpoint& via) {
  log::warn("can", "node {} relinquishes zone {} (conflicting claim) and re-joins",
            id_, zone_.to_string());
  sim_.tracer().instant(obs::Category::kChaos, "can.zone_relinquish",
                        "can#" + std::to_string(id_));
  hello_timer_.stop();
  joined_ = false;
  neighbors_.clear();
  items_.clear();
  pending_handovers_.clear();
  drop_pending_state();
  join(via);
}

void CanNode::process_pending_handovers() {
  WAV_PROF_SCOPE("can", "handover");
  const TimePoint now = sim_.now();
  constexpr double kVolumeEps = 1e-12;
  bool grew = false;
  for (auto it = pending_handovers_.begin(); it != pending_handovers_.end();) {
    if (now < it->ready) {
      ++it;
      continue;
    }
    // Adopt only if the victim's space is still unclaimed: a resurfaced
    // victim re-announces its old zone (so it shows up in neighbors_),
    // and any other claimant's grown zone would overlap it.
    bool claimed = zone_.overlap_volume(it->victim.zone) > kVolumeEps;
    for (const auto& [nid, info] : neighbors_) {
      if (claimed) break;
      claimed = info.zone.overlap_volume(it->victim.zone) > kVolumeEps;
    }
    if (!claimed && adopt_zone_via_handover(it->victim)) grew = true;
    it = pending_handovers_.erase(it);
  }
  if (grew) {
    announce_to_neighbors();
    prune_non_adjacent();
  }
}

bool CanNode::adopt_zone_via_handover(const NeighborInfo& dead) {
  const NeighborInfo* heir = cascade_heir();
  if (heir == nullptr) {
    log::warn("can", "node {} lost handover heir for zone {}", id_,
              zone_.to_string());
    return false;
  }
  send_zone_takeover(heir->endpoint, kCascadeBudget);
  zone_ = dead.zone;
  items_.clear();  // the old zone's items now live at the heir
  ++stats_.zone_takeovers;
  c_zone_takeovers_->inc();
  sim_.tracer().instant(obs::Category::kChaos, "can.zone_handover",
                        "can#" + std::to_string(id_),
                        "\"dead\":" + std::to_string(dead.id) +
                            ",\"heir\":" + std::to_string(heir->id));
  log::debug("can", "node {} handed its zone to {} and adopted dead neighbor {}",
             id_, heir->id, dead.id);
  // The victim's gossiped peers are the best guess at the adopted zone's
  // neighborhood; stale entries fall out via prune_non_adjacent.
  for (const NeighborLink& peer : dead.peers) {
    if (peer.id == id_ || peer.id == dead.id) continue;
    refresh_neighbor(peer.id, peer.endpoint, peer.zone);
  }
  return true;
}

void CanNode::take_over_zone(const NeighborInfo& dead) {
  WAV_PROF_SCOPE("can", "takeover");
  const auto merged = zone_.merged_with(dead.zone);
  if (!merged) return;
  zone_ = *merged;
  ++stats_.zone_takeovers;
  c_zone_takeovers_->inc();
  sim_.tracer().instant(obs::Category::kChaos, "can.zone_takeover",
                        "can#" + std::to_string(id_),
                        "\"dead\":" + std::to_string(dead.id));
  log::debug("can", "node {} absorbed zone of dead neighbor {}", id_, dead.id);
  // Inherit the victim's gossiped neighbors that abut the grown zone:
  // nodes adjacent only to the absorbed territory must learn the new
  // owner or greedy routes into it would dead-end at the old frontier.
  for (const NeighborLink& peer : dead.peers) {
    if (peer.id == id_ || peer.id == dead.id) continue;
    refresh_neighbor(peer.id, peer.endpoint, peer.zone);
  }
}

void CanNode::join(const net::Endpoint& seed) {
  const Point target = Point::random(sim_.rng(), config_.dims);
  ByteBuffer out;
  ByteWriter w{out};
  w.u8(static_cast<std::uint8_t>(MsgType::kJoinRequest));
  w.u8(0);  // hops
  w.u64(id_);
  encode_endpoint(w, self_);
  encode_point(w, target);
  send(seed, net::Chunk::from_bytes(std::move(out)));
}

void CanNode::send(const net::Endpoint& to, net::Chunk msg) {
  ++stats_.messages_sent;
  c_messages_sent_->inc();
  send_(to, std::move(msg));
}

bool CanNode::route(const Point& target, const net::Chunk& msg, std::uint8_t hops) {
  WAV_PROF_SCOPE("can", "route");
  if (hops >= kMaxHops) {
    ++stats_.routed_dead_end;
    c_routed_dead_end_->inc();
    return false;
  }
  const double my_dist = zone_.distance_sq(target);
  const NeighborInfo* best = nullptr;
  double best_dist = my_dist;
  for (const auto& [nid, info] : neighbors_) {
    const double d = info.zone.distance_sq(target);
    if (d < best_dist) {
      best_dist = d;
      best = &info;
    }
  }
  if (best == nullptr) {
    ++stats_.routed_dead_end;
    c_routed_dead_end_->inc();
    log::debug("can", "node {} dead-ends routing to {}", id_, target.to_string());
    return false;
  }
  net::Chunk fwd = msg;
  fwd.real[1] = static_cast<std::byte>(hops + 1);
  ++stats_.routed_forwarded;
  c_routed_forwarded_->inc();
  send(best->endpoint, std::move(fwd));
  return true;
}

void CanNode::on_message(const net::Endpoint& from, const net::Chunk& msg) {
  if (down_) return;  // a crashed node hears nothing
  WAV_PROF_SCOPE("can", "on_message");
  ++stats_.messages_received;
  c_messages_received_->inc();
  if (msg.real.size() < 2) return;
  ByteReader r{msg.real};
  const auto type_raw = r.u8();
  const auto hops = r.u8();
  if (!type_raw || !hops) return;
  const auto type = static_cast<MsgType>(*type_raw);

  switch (type) {
    case MsgType::kJoinRequest: {
      // Peek the target to decide routing before full parsing.
      ByteReader peek{msg.real};
      (void)peek.u8();
      (void)peek.u8();
      (void)peek.u64();
      (void)parse_endpoint(peek);
      const auto target = parse_point(peek);
      if (!target) return;
      if (!zone_.contains(*target)) {
        route(*target, msg, *hops);
        return;
      }
      stats_.total_delivery_hops += *hops;
      ++stats_.routed_delivered;
      c_routed_delivered_->inc();
      h_delivery_hops_->observe(*hops);
      handle_join_request(msg);
      return;
    }
    case MsgType::kStore:
    case MsgType::kErase: {
      ByteReader peek{msg.real};
      (void)peek.u8();
      (void)peek.u8();
      const auto target = parse_point(peek);
      if (!target) return;
      if (!zone_.contains(*target)) {
        route(*target, msg, *hops);
        return;
      }
      stats_.total_delivery_hops += *hops;
      ++stats_.routed_delivered;
      c_routed_delivered_->inc();
      h_delivery_hops_->observe(*hops);
      if (type == MsgType::kStore) {
        handle_store(msg);
      } else {
        handle_erase(msg);
      }
      return;
    }
    case MsgType::kQuery: {
      ByteReader peek{msg.real};
      (void)peek.u8();
      (void)peek.u8();
      (void)peek.u64();
      (void)parse_endpoint(peek);
      const auto target = parse_point(peek);
      if (!target) return;
      if (!zone_.contains(*target)) {
        route(*target, msg, *hops);
        return;
      }
      stats_.total_delivery_hops += *hops;
      ++stats_.routed_delivered;
      c_routed_delivered_->inc();
      h_delivery_hops_->observe(*hops);
      h_query_hops_->observe(*hops);
      handle_query(msg);
      return;
    }
    case MsgType::kJoinResponse: {
      const auto zone = parse_zone(r);
      if (!zone) return;
      const auto n_neighbors = r.u16();
      if (!n_neighbors) return;
      zone_ = *zone;
      joined_ = true;
      neighbors_.clear();
      for (std::uint16_t i = 0; i < *n_neighbors; ++i) {
        const auto nid = r.u64();
        const auto ep = parse_endpoint(r);
        const auto nzone = parse_zone(r);
        if (!nid || !ep || !nzone) return;
        if (zone_.is_neighbor(*nzone)) {
          neighbors_[*nid] = NeighborInfo{*nid, *ep, *nzone, sim_.now(), {}};
        }
      }
      auto items = parse_items(r, sim_.now());
      if (items) {
        for (auto& item : *items) {
          if (item_observer_) item_observer_(item);
          items_.push_back(std::move(item));
        }
      }
      announce_to_neighbors();
      hello_timer_.start();
      return;
    }
    case MsgType::kNeighborHello: {
      const auto nid = r.u64();
      const auto ep = parse_endpoint(r);
      const auto nzone = parse_zone(r);
      if (!nid || !ep || !nzone || *nid == id_) return;
      if (joined_ && zone_.overlap_volume(*nzone) > 1e-12) {
        // The announcer claims space we also claim — someone absorbed a
        // zone whose owner wasn't actually dead. The redundant claimant
        // (the one whose zone lies inside the other's; ids break exact
        // ties) vacates and re-joins, restoring a proper tiling with no
        // coverage gap.
        const bool mine_inside = nzone->contains_zone(zone_);
        const bool theirs_inside = zone_.contains_zone(*nzone);
        if (mine_inside && (!theirs_inside || id_ > *nid)) {
          relinquish_and_rejoin(*ep);
          return;
        }
        if (theirs_inside) {
          // Keeper side: answer with our own claim immediately — the
          // contained claimant yields on receipt, and cannot echo back.
          send(*ep, net::Chunk::from_bytes(build_hello()));
        } else {
          // Neither zone contains the other: no safe unilateral fix and
          // no immediate counter-announce (two partial keepers would
          // ping-pong). The sender stays cached below, so periodic
          // hellos keep flowing until churn collapses the conflict into
          // a containment case.
          log::warn("can", "node {} sees unresolvable zone overlap with {}",
                    id_, *nid);
        }
      }
      std::vector<NeighborLink> peers;
      if (const auto count = r.u16()) {
        for (std::uint16_t i = 0; i < *count; ++i) {
          const auto pid = r.u64();
          const auto pep = parse_endpoint(r);
          const auto pzone = parse_zone(r);
          if (!pid || !pep || !pzone) break;
          peers.push_back(NeighborLink{*pid, *pep, *pzone});
        }
      }
      refresh_neighbor(*nid, *ep, *nzone, std::move(peers));
      return;
    }
    case MsgType::kNeighborBye: {
      const auto nid = r.u64();
      if (nid) neighbors_.erase(*nid);
      return;
    }
    case MsgType::kNeighborProbe: {
      const auto agg_id = r.u64();
      const auto owner_ep = parse_endpoint(r);
      const auto point = parse_point(r);
      const auto k = r.u16();
      if (!agg_id || !owner_ep || !point || !k) return;
      std::vector<Item> found;
      add_items_sorted_by_distance(*point, found, *k);
      ByteBuffer out;
      ByteWriter w{out};
      w.u8(static_cast<std::uint8_t>(MsgType::kNeighborProbeReply));
      w.u8(0);
      w.u64(*agg_id);
      encode_items(w, found, sim_.now());
      send(*owner_ep, net::Chunk::from_bytes(std::move(out)));
      return;
    }
    case MsgType::kNeighborProbeReply: {
      const auto agg_id = r.u64();
      if (!agg_id) return;
      const auto it = aggregations_.find(*agg_id);
      if (it == aggregations_.end()) return;
      auto items = parse_items(r, sim_.now());
      if (items) {
        for (auto& item : *items) it->second.collected.push_back(std::move(item));
      }
      if (it->second.outstanding > 0) --it->second.outstanding;
      if (it->second.outstanding == 0) finish_aggregation(*agg_id);
      return;
    }
    case MsgType::kQueryReply: {
      const auto query_id = r.u64();
      if (!query_id) return;
      const auto it = pending_queries_.find(*query_id);
      if (it == pending_queries_.end()) return;
      auto items = parse_items(r, sim_.now());
      auto callback = std::move(it->second.callback);
      sim_.cancel(it->second.deadline);
      h_query_latency_ms_->observe(to_milliseconds(sim_.now() - it->second.started));
      pending_queries_.erase(it);
      callback(items ? std::move(*items) : std::vector<Item>{});
      return;
    }
    case MsgType::kZoneTakeover: {
      const auto departing = r.u64();
      const auto zone = parse_zone(r);
      if (!departing || !zone) return;
      auto items = parse_items(r, sim_.now());
      neighbors_.erase(*departing);
      const auto merged = zone_.merged_with(*zone);
      if (merged) {
        zone_ = *merged;
      } else if (const NeighborInfo* heir =
                     *hops > 0 ? cascade_heir() : nullptr) {
        // The shipped rectangle doesn't merge with ours — a cascading
        // handover (the hops byte carries the remaining budget). Ship our
        // own zone + items onward first, then adopt the shipped zone
        // wholesale. Each hop either terminates at a mergeable sibling or
        // passes a strictly shrinking budget, so the chain is bounded.
        send_zone_takeover(heir->endpoint, static_cast<std::uint8_t>(*hops - 1));
        zone_ = *zone;
        items_.clear();
        ++stats_.zone_takeovers;
        c_zone_takeovers_->inc();
        sim_.tracer().instant(obs::Category::kChaos, "can.zone_cascade",
                              "can#" + std::to_string(id_),
                              "\"from\":" + std::to_string(*departing) +
                                  ",\"heir\":" + std::to_string(heir->id));
        log::debug("can", "node {} cascaded its zone to {} and adopted {}'s zone",
                   id_, heir->id, *departing);
      } else {
        log::warn("can", "node {} received unmergeable takeover zone", id_);
      }
      if (items) {
        for (auto& item : *items) {
          if (item_observer_) item_observer_(item);
          items_.push_back(std::move(item));
        }
      }
      // Inherit the departing node's neighbors that now abut our grown
      // zone, so nodes that were adjacent only to the old zone learn us.
      const auto inherited = r.u16();
      if (inherited) {
        for (std::uint16_t i = 0; i < *inherited; ++i) {
          const auto nid = r.u64();
          const auto ep = parse_endpoint(r);
          const auto nzone = parse_zone(r);
          if (!nid || !ep || !nzone) break;
          if (*nid != id_ && zone_.is_neighbor(*nzone) && !neighbors_.contains(*nid)) {
            neighbors_[*nid] = NeighborInfo{*nid, *ep, *nzone, sim_.now(), {}};
          }
        }
      }
      announce_to_neighbors();
      prune_non_adjacent();
      return;
    }
  }
  (void)from;
}

void CanNode::handle_join_request(const net::Chunk& msg) {
  ByteReader r{msg.real};
  (void)r.u8();
  (void)r.u8();
  const auto joiner_id = r.u64();
  const auto joiner_ep = parse_endpoint(r);
  const auto target = parse_point(r);
  if (!joiner_id || !joiner_ep || !target) return;
  if (*joiner_id == id_) return;

  auto [lower, upper] = zone_.split();
  c_zone_splits_->inc();
  sim_.tracer().instant(obs::Category::kCan, "can.zone_split",
                        "can#" + std::to_string(id_),
                        "\"joiner\":" + std::to_string(*joiner_id));
  const bool joiner_gets_lower = lower.contains(*target);
  const Zone joiner_zone = joiner_gets_lower ? lower : upper;
  const Zone my_zone = joiner_gets_lower ? upper : lower;

  // Partition items.
  std::vector<Item> transferred;
  std::vector<Item> kept;
  for (auto& item : items_) {
    if (joiner_zone.contains(item.point)) {
      transferred.push_back(std::move(item));
    } else {
      kept.push_back(std::move(item));
    }
  }
  items_ = std::move(kept);

  // Build the join response: assigned zone + my neighbor table + myself.
  ByteBuffer out;
  ByteWriter w{out};
  w.u8(static_cast<std::uint8_t>(MsgType::kJoinResponse));
  w.u8(0);
  encode_zone(w, joiner_zone);
  w.u16(static_cast<std::uint16_t>(neighbors_.size() + 1));
  w.u64(id_);
  encode_endpoint(w, self_);
  encode_zone(w, my_zone);
  for (const auto& [nid, info] : neighbors_) {
    w.u64(nid);
    encode_endpoint(w, info.endpoint);
    encode_zone(w, info.zone);
  }
  encode_items(w, transferred, sim_.now());

  zone_ = my_zone;
  neighbors_[*joiner_id] = NeighborInfo{*joiner_id, *joiner_ep, joiner_zone, sim_.now(), {}};
  // Announce the shrunken zone to the *old* neighbor set first so nodes
  // that are no longer adjacent drop us; then prune them locally.
  announce_to_neighbors();
  prune_non_adjacent();

  send(*joiner_ep, net::Chunk::from_bytes(std::move(out)));
}

void CanNode::handle_store(const net::Chunk& msg) {
  ByteReader r{msg.real};
  (void)r.u8();
  (void)r.u8();
  const auto point = parse_point(r);
  if (!point) return;
  const auto ttl_ms = r.u32();
  const auto len = r.u32();
  if (!ttl_ms || !len) return;
  const auto payload = r.raw(*len);
  if (!payload) return;
  Item item{*point, ByteBuffer{payload->begin(), payload->end()}, kTimeInfinity};
  if (*ttl_ms != 0) item.expires = sim_.now() + milliseconds(*ttl_ms);
  // Replace an existing record with identical payload location semantics
  // (same point + same leading 8 payload bytes act as the record key).
  if (item_observer_) item_observer_(item);
  items_.push_back(std::move(item));
}

void CanNode::handle_erase(const net::Chunk& msg) {
  ByteReader r{msg.real};
  (void)r.u8();
  (void)r.u8();
  const auto point = parse_point(r);
  if (!point) return;
  const auto len = r.u32();
  if (!len) return;
  const auto payload = r.raw(*len);
  if (!payload) return;
  const ByteBuffer needle{payload->begin(), payload->end()};
  std::erase_if(items_, [&](const Item& item) {
    return item.point == *point && item.payload == needle;
  });
}

void CanNode::handle_query(const net::Chunk& msg) {
  WAV_PROF_SCOPE("can", "query");
  ByteReader r{msg.real};
  (void)r.u8();
  (void)r.u8();
  const auto query_id = r.u64();
  const auto requester = parse_endpoint(r);
  const auto point = parse_point(r);
  const auto k = r.u16();
  if (!query_id || !requester || !point || !k) return;

  std::vector<Item> found;
  add_items_sorted_by_distance(*point, found, *k);

  const bool need_expansion =
      found.size() < *k && config_.neighbor_expansion > 0 && !neighbors_.empty();
  if (!need_expansion) {
    ByteBuffer out;
    ByteWriter w{out};
    w.u8(static_cast<std::uint8_t>(MsgType::kQueryReply));
    w.u8(0);
    w.u64(*query_id);
    encode_items(w, found, sim_.now());
    send(*requester, net::Chunk::from_bytes(std::move(out)));
    return;
  }

  const std::uint64_t agg_id = next_agg_id_++;
  Aggregation agg;
  agg.query_id = *query_id;
  agg.requester = *requester;
  agg.point = *point;
  agg.k = *k;
  agg.collected = std::move(found);
  agg.outstanding = neighbors_.size();
  agg.deadline = sim_.schedule_after(config_.query_timeout,
                                     [this, agg_id] { finish_aggregation(agg_id); });
  aggregations_[agg_id] = std::move(agg);

  for (const auto& [nid, info] : neighbors_) {
    ByteBuffer probe;
    ByteWriter w{probe};
    w.u8(static_cast<std::uint8_t>(MsgType::kNeighborProbe));
    w.u8(0);
    w.u64(agg_id);
    encode_endpoint(w, self_);
    encode_point(w, *point);
    w.u16(static_cast<std::uint16_t>(*k));
    send(info.endpoint, net::Chunk::from_bytes(std::move(probe)));
  }
}

void CanNode::finish_aggregation(std::uint64_t agg_id) {
  const auto it = aggregations_.find(agg_id);
  if (it == aggregations_.end()) return;
  Aggregation agg = std::move(it->second);
  aggregations_.erase(it);
  sim_.cancel(agg.deadline);

  std::sort(agg.collected.begin(), agg.collected.end(),
            [&](const Item& a, const Item& b) {
              return point_distance_sq(a.point, agg.point) <
                     point_distance_sq(b.point, agg.point);
            });
  // De-duplicate identical records picked up from both owner and probes.
  agg.collected.erase(
      std::unique(agg.collected.begin(), agg.collected.end(),
                  [](const Item& a, const Item& b) {
                    return a.point == b.point && a.payload == b.payload;
                  }),
      agg.collected.end());
  if (agg.collected.size() > agg.k) agg.collected.resize(agg.k);

  ByteBuffer out;
  ByteWriter w{out};
  w.u8(static_cast<std::uint8_t>(MsgType::kQueryReply));
  w.u8(0);
  w.u64(agg.query_id);
  encode_items(w, agg.collected, sim_.now());
  send(agg.requester, net::Chunk::from_bytes(std::move(out)));
}

void CanNode::store(const Point& point, ByteBuffer payload, Duration ttl) {
  ByteBuffer out;
  ByteWriter w{out};
  w.u8(static_cast<std::uint8_t>(MsgType::kStore));
  w.u8(0);
  encode_point(w, point);
  w.u32(ttl > kZeroDuration
            ? static_cast<std::uint32_t>(std::min<double>(to_milliseconds(ttl), 4e9))
            : 0);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  const net::Chunk msg = net::Chunk::from_bytes(std::move(out));
  if (zone_.contains(point)) {
    stats_.total_delivery_hops += 0;
    ++stats_.routed_delivered;
    handle_store(msg);
  } else {
    route(point, msg, 0);
  }
}

void CanNode::erase(const Point& point, ByteBuffer payload_equals) {
  ByteBuffer out;
  ByteWriter w{out};
  w.u8(static_cast<std::uint8_t>(MsgType::kErase));
  w.u8(0);
  encode_point(w, point);
  w.u32(static_cast<std::uint32_t>(payload_equals.size()));
  w.raw(payload_equals);
  const net::Chunk msg = net::Chunk::from_bytes(std::move(out));
  if (zone_.contains(point)) {
    handle_erase(msg);
  } else {
    route(point, msg, 0);
  }
}

void CanNode::query(const Point& point, std::size_t k, QueryCallback callback) {
  const std::uint64_t qid = next_query_id_++;
  // A reply can die anywhere (crashed owner, routing dead end mid-path,
  // lost datagram); the deadline guarantees the callback always fires.
  const sim::EventId deadline = sim_.schedule_after(
      config_.query_timeout * 4, [this, qid] { expire_query(qid); });
  pending_queries_[qid] = PendingQuery{std::move(callback), deadline, sim_.now()};

  ByteBuffer out;
  ByteWriter w{out};
  w.u8(static_cast<std::uint8_t>(MsgType::kQuery));
  w.u8(0);
  w.u64(qid);
  encode_endpoint(w, self_);
  encode_point(w, point);
  w.u16(static_cast<std::uint16_t>(k));
  const net::Chunk msg = net::Chunk::from_bytes(std::move(out));
  if (zone_.contains(point)) {
    handle_query(msg);
  } else if (!route(point, msg, 0)) {
    // Dead end: answer with nothing rather than hang the caller.
    const auto it = pending_queries_.find(qid);
    if (it != pending_queries_.end()) {
      auto cb = std::move(it->second.callback);
      sim_.cancel(it->second.deadline);
      pending_queries_.erase(it);
      cb({});
    }
  }
}

void CanNode::expire_query(std::uint64_t query_id) {
  const auto it = pending_queries_.find(query_id);
  if (it == pending_queries_.end()) return;
  auto callback = std::move(it->second.callback);
  pending_queries_.erase(it);
  ++stats_.queries_timed_out;
  c_queries_timed_out_->inc();
  callback({});
}

void CanNode::send_zone_takeover(const net::Endpoint& to,
                                 std::uint8_t cascade_budget) {
  ByteBuffer out;
  ByteWriter w{out};
  w.u8(static_cast<std::uint8_t>(MsgType::kZoneTakeover));
  w.u8(cascade_budget);  // hops byte doubles as the remaining cascade budget
  w.u64(id_);
  encode_zone(w, zone_);
  encode_items(w, items_, sim_.now());
  w.u16(static_cast<std::uint16_t>(neighbors_.size()));
  for (const auto& [nid, info] : neighbors_) {
    w.u64(nid);
    encode_endpoint(w, info.endpoint);
    encode_zone(w, info.zone);
  }
  send(to, net::Chunk::from_bytes(std::move(out)));
}

bool CanNode::leave() {
  const NeighborInfo* sibling = nullptr;
  for (const auto& [nid, info] : neighbors_) {
    if (zone_.merged_with(info.zone)) {
      sibling = &info;
      break;
    }
  }
  if (sibling == nullptr) return false;

  send_zone_takeover(sibling->endpoint, kCascadeBudget);

  for (const auto& [nid, info] : neighbors_) {
    if (nid == sibling->id) continue;
    ByteBuffer bye;
    ByteWriter bw{bye};
    bw.u8(static_cast<std::uint8_t>(MsgType::kNeighborBye));
    bw.u8(0);
    bw.u64(id_);
    send(info.endpoint, net::Chunk::from_bytes(std::move(bye)));
  }

  joined_ = false;
  hello_timer_.stop();
  neighbors_.clear();
  items_.clear();
  pending_handovers_.clear();
  return true;
}

ByteBuffer CanNode::build_hello() const {
  ByteBuffer hello;
  ByteWriter w{hello};
  w.u8(static_cast<std::uint8_t>(MsgType::kNeighborHello));
  w.u8(0);
  w.u64(id_);
  encode_endpoint(w, self_);
  encode_zone(w, zone_);
  // Gossip our neighbor set (CAN-paper style): receivers cache it so
  // that if we die silently they can elect a unique takeover claimant
  // and introduce the winner to our other neighbors.
  w.u16(static_cast<std::uint16_t>(neighbors_.size()));
  for (const auto& [nid, info] : neighbors_) {
    w.u64(nid);
    encode_endpoint(w, info.endpoint);
    encode_zone(w, info.zone);
  }
  return hello;
}

void CanNode::announce_to_neighbors() {
  const ByteBuffer hello = build_hello();
  for (const auto& [nid, info] : neighbors_) {
    send(info.endpoint, net::Chunk::from_bytes(ByteBuffer{hello}));
  }
}

void CanNode::announce_to(const net::Endpoint& ep) {
  if (!joined_ || down_ || ep == self_) return;
  send(ep, net::Chunk::from_bytes(build_hello()));
}

void CanNode::refresh_neighbor(NodeId nid, const net::Endpoint& ep, const Zone& zone,
                               std::vector<NeighborLink> peers) {
  // Overlapping zones are not CAN neighbors but ARE conflicting claims;
  // keep them cached so the hello channel that resolves the conflict
  // (relinquish-and-rejoin) stays open.
  if (zone_.is_neighbor(zone) || zone_.overlap_volume(zone) > 1e-12) {
    if (peers.empty()) {
      // Gossip rides only on hellos; a gossip-less refresh (join,
      // takeover inheritance) must not wipe the cached list.
      if (const auto it = neighbors_.find(nid); it != neighbors_.end()) {
        peers = std::move(it->second.peers);
      }
    }
    neighbors_[nid] = NeighborInfo{nid, ep, zone, sim_.now(), std::move(peers)};
  } else {
    neighbors_.erase(nid);
  }
}

void CanNode::prune_non_adjacent() {
  for (auto it = neighbors_.begin(); it != neighbors_.end();) {
    // A zone that *overlaps* ours is not a CAN neighbor — it's a
    // conflicting ownership claim. Keep the entry anyway: the hellos we
    // keep sending it are what drive the relinquish-and-rejoin conflict
    // resolution; pruning it would freeze the conflict in place.
    if (!zone_.is_neighbor(it->second.zone) &&
        zone_.overlap_volume(it->second.zone) <= 1e-12) {
      it = neighbors_.erase(it);
    } else {
      ++it;
    }
  }
}

void CanNode::prune_expired_items() {
  const TimePoint now = sim_.now();
  std::erase_if(items_, [now](const Item& item) { return item.expires <= now; });
}

void CanNode::add_items_sorted_by_distance(const Point& p, std::vector<Item>& out,
                                           std::size_t k) const {
  // Rank the live items by distance, computed once each, and copy only the
  // k nearest. The ranks sort with the same distance-only comparator the
  // items would, so introsort takes the same steps and records at equal
  // distance come out in the same order as sorting the items themselves.
  struct Ranked {
    double distance;
    std::size_t index;
  };
  const TimePoint now = sim_.now();
  std::vector<Ranked> ranked;
  ranked.reserve(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].expires > now) ranked.push_back({point_distance_sq(items_[i].point, p), i});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) { return a.distance < b.distance; });
  const std::size_t n = std::min(k, ranked.size());
  out.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(items_[ranked[i].index]);
}

}  // namespace wav::can
