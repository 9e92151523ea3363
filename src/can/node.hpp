// A CAN (Content-Addressable Network) node: zone ownership, greedy point
// routing, join/leave with zone split/merge, neighbor maintenance, and a
// point-indexed item store with k-nearest queries.
//
// The node is transport-agnostic: it emits wire-encoded control messages
// through a send callback and consumes them via on_message(). WAVNet's
// rendezvous servers (overlay module) bind this to UDP sockets on the
// simulated Internet; unit tests bind it to an in-memory loopback.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "can/geometry.hpp"
#include "net/address.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace wav::can {

using NodeId = std::uint64_t;

/// One entry of a neighbor's gossiped neighbor set.
struct NeighborLink {
  NodeId id{0};
  net::Endpoint endpoint{};
  Zone zone;
};

struct NeighborInfo {
  NodeId id{0};
  net::Endpoint endpoint{};
  Zone zone;
  TimePoint last_seen{};
  /// The neighbor's own neighbor set as of its last hello (the CAN
  /// paper's neighbor-list gossip). When a node dies silently, every
  /// survivor around it holds the same copy of this list, so they can
  /// elect a unique takeover claimant without talking to each other.
  std::vector<NeighborLink> peers;
};

struct Item {
  Point point;
  ByteBuffer payload;
  /// Absolute expiry; owners prune expired items (kTimeInfinity = never).
  /// Registrations carry a TTL so records of crashed publishers (or of
  /// rendezvous servers that died with their hosts' state) age out.
  TimePoint expires{kTimeInfinity};
};

/// Item-list wire codec (zone transfers, neighbor probes, query replies).
/// Parsing returns nullopt on truncated input or a forged item count.
void encode_items(ByteWriter& w, const std::vector<Item>& items, TimePoint now);
[[nodiscard]] std::optional<std::vector<Item>> parse_items(ByteReader& r, TimePoint now);

struct CanStats {
  std::uint64_t messages_sent{0};
  std::uint64_t messages_received{0};
  std::uint64_t routed_forwarded{0};
  std::uint64_t routed_delivered{0};
  std::uint64_t routed_dead_end{0};
  std::uint64_t total_delivery_hops{0};
  std::uint64_t zone_takeovers{0};   // dead-neighbor zones absorbed via liveness
  std::uint64_t queries_timed_out{0};  // origin-side queries answered empty
};

class CanNode {
 public:
  using SendFn = std::function<void(const net::Endpoint&, net::Chunk)>;
  using QueryCallback = std::function<void(std::vector<Item>)>;
  /// Invoked when this node becomes responsible for an item (stored
  /// locally or transferred during join/leave).
  using ItemObserver = std::function<void(const Item&)>;

  struct Config {
    std::size_t dims{2};
    Duration hello_interval{seconds(10)};
    Duration query_timeout{milliseconds(800)};
    std::size_t neighbor_expansion{1};  // extra neighbor hop for short queries
    // When a neighbor goes silent past the liveness window, absorb its
    // zone if it merges with ours (ungraceful takeover). The dead node's
    // items are lost — TTL'd re-stores repopulate them — but the
    // coordinate space stays fully covered so routing keeps working.
    // Several survivors may hold mergeable zones; the gossiped neighbor
    // lists elect a unique claimant so zones never overlap.
    bool liveness_takeover{true};
  };

  CanNode(sim::Simulation& sim, NodeId id, net::Endpoint self, SendFn send,
          Config config);
  CanNode(sim::Simulation& sim, NodeId id, net::Endpoint self, SendFn send);

  /// First node of the overlay: owns the whole space immediately.
  void bootstrap();

  /// Joins via any existing overlay member. Zone assignment arrives
  /// asynchronously; `joined()` flips once complete.
  void join(const net::Endpoint& seed);

  [[nodiscard]] bool joined() const noexcept { return joined_; }
  [[nodiscard]] const Zone& zone() const noexcept { return zone_; }
  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const net::Endpoint& endpoint() const noexcept { return self_; }
  [[nodiscard]] const std::map<NodeId, NeighborInfo>& neighbors() const noexcept {
    return neighbors_;
  }
  [[nodiscard]] const std::vector<Item>& items() const noexcept { return items_; }
  [[nodiscard]] const CanStats& stats() const noexcept { return stats_; }

  /// Routes a store request toward the owner of `point`. A non-zero TTL
  /// bounds the record's lifetime unless re-stored.
  void store(const Point& point, ByteBuffer payload, Duration ttl = kZeroDuration);

  /// Removes any stored items at exactly `point` whose payload matches
  /// the predicate — routed to the owner. Used for host deregistration.
  void erase(const Point& point, ByteBuffer payload_equals);

  /// K-nearest query: routed to the owner of `point`; the owner answers
  /// with its own items and (when short of k) polls its direct neighbors
  /// before replying to this node.
  void query(const Point& point, std::size_t k, QueryCallback callback);

  /// Graceful departure: merges the zone into the sibling neighbor when
  /// possible and transfers items. Returns false if no mergeable
  /// neighbor exists (caller should retry later; CAN background zone
  /// reassignment is out of scope).
  bool leave();

  /// Ungraceful death: no ZoneTakeover message, no byes — the node just
  /// stops. Neighbors detect the silence via hello-liveness and absorb
  /// the orphaned zone (see Config::liveness_takeover). Pending state is
  /// discarded; origin-side query callbacks fire empty first.
  void crash();
  /// Clears the crashed flag; the caller re-bootstraps or re-joins.
  void restart();
  [[nodiscard]] bool down() const noexcept { return down_; }

  /// Origin-side queries still awaiting a reply (leak detector).
  [[nodiscard]] std::size_t pending_query_count() const noexcept {
    return pending_queries_.size();
  }
  /// Pending queries older than `age`. Every entry schedules a reaper at
  /// 4x query_timeout, so an entry that has outlived that deadline is a
  /// leaked handler — a younger one is just in-flight work (an invariant
  /// sweep can land between issue and reply under continuous churn).
  [[nodiscard]] std::size_t stale_query_count(Duration age) const noexcept {
    std::size_t n = 0;
    for (const auto& [qid, q] : pending_queries_) {
      if (sim_.now() - q.started > age) ++n;
    }
    return n;
  }

  /// Feeds a received control message into the node.
  void on_message(const net::Endpoint& from, const net::Chunk& msg);

  /// Sends this node's hello to an arbitrary endpoint (no-op unless
  /// joined). Deployments with a small, statically-known fleet (WAVNet's
  /// rendezvous shards) cross-hello all members periodically: neighbor
  /// tables can decay to nothing between two nodes holding conflicting
  /// zone claims after a false-positive takeover, and an out-of-band
  /// hello is what restarts the relinquish-and-rejoin resolution.
  void announce_to(const net::Endpoint& ep);

  void set_item_observer(ItemObserver obs) { item_observer_ = std::move(obs); }

 private:
  enum class MsgType : std::uint8_t {
    kJoinRequest = 1,
    kJoinResponse,
    kNeighborHello,
    kNeighborBye,
    kStore,
    kErase,
    kQuery,
    kNeighborProbe,   // owner asking a neighbor for items near a point
    kNeighborProbeReply,
    kQueryReply,
    kZoneTakeover,
  };

  struct PendingQuery {
    QueryCallback callback;
    sim::EventId deadline{};
    TimePoint started{};  // anchor for the end-to-end latency histogram
  };

  /// Aggregation state while the owner waits for neighbor probe replies.
  struct Aggregation {
    std::uint64_t query_id{0};
    net::Endpoint requester{};
    Point point;
    std::size_t k{0};
    std::vector<Item> collected;
    std::size_t outstanding{0};
    sim::EventId deadline{};
  };

  void send(const net::Endpoint& to, net::Chunk msg);
  /// Greedy geographic routing; returns false on dead end.
  bool route(const Point& target, const net::Chunk& msg, std::uint8_t hops);
  void handle_join_request(const net::Chunk& msg);
  void handle_store(const net::Chunk& msg);
  void handle_erase(const net::Chunk& msg);
  void handle_query(const net::Chunk& msg);
  void finish_aggregation(std::uint64_t agg_id);
  /// Encodes this node's hello (id, endpoint, zone, gossiped neighbors).
  [[nodiscard]] ByteBuffer build_hello() const;
  void announce_to_neighbors();
  void prune_expired_items();
  void expire_query(std::uint64_t query_id);
  void drop_pending_state();
  void take_over_zone(const NeighborInfo& dead);
  /// True when this node wins the deterministic takeover election for
  /// `dead_info`'s zone (smallest id among the mergeable candidates in
  /// the victim's last gossiped neighbor list).
  [[nodiscard]] bool wins_takeover_election(
      const NeighborInfo& dead_info, const std::vector<NeighborInfo>& dead) const;
  /// True when some believed-alive peer in the victim's gossiped list can
  /// directly merge the victim's zone (so the plain election applies and
  /// this node should stay out of the handover path).
  [[nodiscard]] bool any_direct_takeover_candidate(
      const NeighborInfo& dead_info, const std::vector<NeighborInfo>& dead) const;
  /// The fallback election when NO candidate can merge the victim's zone
  /// into a rectangle (classic CAN fragmentation — e.g. a half-space
  /// victim surrounded by quadrants): the smallest believed-alive id in
  /// the victim's gossiped list wins unconditionally and vacates its own
  /// zone via a cascading handover.
  [[nodiscard]] bool wins_handover_election(
      const NeighborInfo& dead_info, const std::vector<NeighborInfo>& dead) const;
  /// Who inherits this node's zone when it vacates: smallest-id mergeable
  /// live neighbor if one exists (cascade ends there), else the
  /// smallest-id live neighbor (it adopts and cascades its own zone on).
  [[nodiscard]] const NeighborInfo* cascade_heir() const;
  /// Executes the handover: ships this node's zone + items + neighbor
  /// table to its cascade heir (the graceful-leave wire format), then
  /// adopts the victim's zone and neighborhood.
  bool adopt_zone_via_handover(const NeighborInfo& dead);
  /// Fires stashed handovers whose extra grace window has elapsed,
  /// unless the victim reappeared or its space was reclaimed meanwhile.
  void process_pending_handovers();
  /// Drops this node's zone claim entirely (conflicting ownership seen)
  /// and re-joins the overlay through `via`. Items are lost — TTL'd
  /// re-stores repopulate them.
  void relinquish_and_rejoin(const net::Endpoint& via);
  /// Sends this node's current zone, items and neighbor table to `to` as
  /// a kZoneTakeover (shared by leave(), the handover takeover, and the
  /// cascade). The message's hops byte carries the remaining cascade
  /// budget: a receiver that cannot merge the shipped rectangle adopts it
  /// and passes its own zone onward while the budget lasts.
  void send_zone_takeover(const net::Endpoint& to, std::uint8_t cascade_budget);
  void refresh_neighbor(NodeId nid, const net::Endpoint& ep, const Zone& zone,
                        std::vector<NeighborLink> peers = {});
  void prune_non_adjacent();
  void add_items_sorted_by_distance(const Point& p, std::vector<Item>& out,
                                    std::size_t k) const;

  sim::Simulation& sim_;
  NodeId id_;
  net::Endpoint self_;
  SendFn send_;
  Config config_;

  /// A handover election win awaiting its extra grace window. Silence
  /// alone is a weak death signal under load, and an unconditional
  /// adoption on a false positive creates overlapping claims — so the
  /// winner re-checks at `ready` that nobody (including a resurfaced
  /// victim) covers the zone before adopting it.
  struct PendingHandover {
    NeighborInfo victim;
    TimePoint ready{};
  };

  bool joined_{false};
  bool down_{false};
  Zone zone_;
  std::map<NodeId, NeighborInfo> neighbors_;
  std::vector<Item> items_;
  std::vector<PendingHandover> pending_handovers_;
  CanStats stats_;

  std::uint64_t next_query_id_{1};
  std::unordered_map<std::uint64_t, PendingQuery> pending_queries_;
  std::unordered_map<std::uint64_t, Aggregation> aggregations_;
  std::uint64_t next_agg_id_{1};
  sim::PeriodicTimer hello_timer_;
  ItemObserver item_observer_;

  obs::Counter* c_messages_sent_{nullptr};
  obs::Counter* c_messages_received_{nullptr};
  obs::Counter* c_routed_forwarded_{nullptr};
  obs::Counter* c_routed_delivered_{nullptr};
  obs::Counter* c_routed_dead_end_{nullptr};
  obs::Counter* c_zone_splits_{nullptr};
  obs::Counter* c_zone_takeovers_{nullptr};
  obs::Counter* c_queries_timed_out_{nullptr};
  obs::Histogram* h_query_hops_{nullptr};     // per-overlay (no instance)
  obs::Histogram* h_delivery_hops_{nullptr};  // all routed deliveries
  obs::Histogram* h_query_latency_ms_{nullptr};  // origin-side answered queries
};

}  // namespace wav::can
