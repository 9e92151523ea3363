// CAN overlay tests: geometry invariants, join/leave zone bookkeeping,
// greedy routing, and the item store/query path — all over an in-memory
// loopback transport with per-message delivery delay.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "can/node.hpp"

namespace wav {
namespace {

using can::CanNode;
using can::Item;
using can::Point;
using can::Zone;

TEST(CanGeometry, SplitHalvesVolume) {
  const Zone whole = Zone::whole(2);
  const auto [lo, hi] = whole.split();
  EXPECT_DOUBLE_EQ(lo.volume() + hi.volume(), 1.0);
  EXPECT_DOUBLE_EQ(lo.volume(), 0.5);
  EXPECT_TRUE(lo.is_neighbor(hi));
  const auto merged = lo.merged_with(hi);
  ASSERT_TRUE(merged);
  EXPECT_EQ(*merged, whole);
}

TEST(CanGeometry, ContainsHalfOpen) {
  const auto [lo, hi] = Zone::whole(2).split();
  Point mid{{0.5, 0.3}};
  EXPECT_FALSE(lo.contains(mid));
  EXPECT_TRUE(hi.contains(mid));
}

TEST(CanGeometry, NeighborRequiresSharedFace) {
  // Two diagonal quadrants touch only at a corner: not neighbors.
  const auto [left, right] = Zone::whole(2).split();
  const auto [ll, lu] = left.split();
  const auto [rl, ru] = right.split();
  EXPECT_TRUE(ll.is_neighbor(lu));
  EXPECT_TRUE(ll.is_neighbor(rl));
  EXPECT_FALSE(ll.is_neighbor(ru));  // diagonal
  EXPECT_FALSE(ll.is_neighbor(ll));  // self-overlap, not abutting
}

TEST(CanGeometry, DistanceToZone) {
  const auto [lo, hi] = Zone::whole(1).split();
  EXPECT_DOUBLE_EQ(lo.distance_sq(Point{{0.25}}), 0.0);
  EXPECT_NEAR(lo.distance_sq(Point{{0.75}}), 0.0625, 1e-8);
  // A point exactly on the half-open upper face is outside, so its
  // distance must be strictly positive (routing tie-break invariant).
  EXPECT_GT(lo.distance_sq(Point{{0.5}}), 0.0);
  EXPECT_DOUBLE_EQ(hi.distance_sq(Point{{0.5}}), 0.0);
}

TEST(CanGeometry, PointCodecRoundTrip) {
  Rng rng{7};
  const Point p = Point::random(rng, 3);
  ByteBuffer buf;
  ByteWriter w{buf};
  can::encode_point(w, p);
  can::encode_zone(w, Zone::whole(3));
  ByteReader r{buf};
  EXPECT_EQ(can::parse_point(r).value(), p);
  EXPECT_EQ(can::parse_zone(r).value(), Zone::whole(3));
}

TEST(CanGeometry, ItemCodecRejectsForgedCount) {
  const TimePoint now{};
  const std::vector<Item> items{{Point{{0.25, 0.75}}, ByteBuffer(3), kTimeInfinity},
                                {Point{{0.5, 0.5}}, ByteBuffer{}, kTimeInfinity}};
  ByteBuffer buf;
  ByteWriter w{buf};
  can::encode_items(w, items, now);
  {
    ByteReader r{buf};
    const auto parsed = can::parse_items(r, now);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->size(), 2u);
    EXPECT_EQ(parsed->front().payload.size(), 3u);
  }
  // The same bytes behind an inflated count: a reserve sized from the
  // wire would throw mid-simulation; the parser must just refuse.
  for (const std::uint32_t forged : {0xFFFFFFFFu, 0x10000000u, 3u}) {
    ByteBuffer bad;
    ByteWriter bw{bad};
    bw.u32(forged);
    bad.insert(bad.end(), buf.begin() + 4, buf.end());
    ByteReader r{bad};
    std::optional<std::vector<Item>> parsed;
    EXPECT_NO_THROW(parsed = can::parse_items(r, now)) << forged;
    EXPECT_FALSE(parsed) << forged;
  }
}

/// In-memory overlay harness: N CAN nodes exchanging messages through the
/// simulator with a fixed delivery delay.
class Overlay {
 public:
  explicit Overlay(std::size_t n, std::uint64_t seed = 42, std::size_t dims = 2)
      : sim_(seed) {
    CanNode::Config cfg;
    cfg.dims = dims;
    for (std::size_t i = 0; i < n; ++i) {
      const net::Endpoint ep{net::Ipv4Address{static_cast<std::uint32_t>(i + 1)}, 9000};
      nodes_.push_back(std::make_unique<CanNode>(
          sim_, i + 1, ep,
          [this](const net::Endpoint& to, net::Chunk msg) {
            sim_.schedule_after(milliseconds(5), [this, to, msg = std::move(msg)] {
              if (auto* node = find(to)) node->on_message(net::Endpoint{}, msg);
            });
          },
          cfg));
    }
    nodes_[0]->bootstrap();
    for (std::size_t i = 1; i < n; ++i) {
      nodes_[i]->join(nodes_[0]->endpoint());
      sim_.run_for(seconds(1));  // let each join settle before the next
    }
    sim_.run_for(seconds(30));  // a few hello rounds
  }

  CanNode* find(const net::Endpoint& ep) {
    for (auto& n : nodes_) {
      if (n->endpoint() == ep) return n.get();
    }
    return nullptr;
  }

  sim::Simulation sim_;
  std::vector<std::unique_ptr<CanNode>> nodes_;
};

TEST(CanOverlay, ZonesPartitionTheSpace) {
  Overlay overlay{16};
  double volume = 0.0;
  for (const auto& n : overlay.nodes_) {
    ASSERT_TRUE(n->joined());
    volume += n->zone().volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);

  // Any random point is owned by exactly one node.
  Rng rng{123};
  for (int i = 0; i < 200; ++i) {
    const Point p = Point::random(rng, 2);
    int owners = 0;
    for (const auto& n : overlay.nodes_) {
      if (n->zone().contains(p)) ++owners;
    }
    EXPECT_EQ(owners, 1) << "point " << p.to_string();
  }
}

TEST(CanOverlay, NeighborTablesAreSymmetricAndComplete) {
  Overlay overlay{12};
  for (const auto& a : overlay.nodes_) {
    for (const auto& b : overlay.nodes_) {
      if (a == b) continue;
      const bool adjacent = a->zone().is_neighbor(b->zone());
      const bool a_knows_b = a->neighbors().contains(b->id());
      EXPECT_EQ(adjacent, a_knows_b)
          << "zones " << a->zone().to_string() << " vs " << b->zone().to_string();
    }
  }
}

TEST(CanOverlay, StoreRoutesToOwnerAndQueryFindsIt) {
  Overlay overlay{8};
  Rng rng{7};
  // Store 40 items from random origin nodes at random points.
  std::vector<Point> points;
  for (int i = 0; i < 40; ++i) {
    const Point p = Point::random(rng, 2);
    points.push_back(p);
    const auto origin = rng.uniform_u64(0, overlay.nodes_.size() - 1);
    overlay.nodes_[origin]->store(p, to_bytes("item-" + std::to_string(i)));
  }
  overlay.sim_.run_for(seconds(2));

  // Every item must live exactly at its owner.
  std::size_t total_items = 0;
  for (const auto& n : overlay.nodes_) {
    for (const auto& item : n->items()) {
      EXPECT_TRUE(n->zone().contains(item.point));
      ++total_items;
    }
  }
  EXPECT_EQ(total_items, 40u);

  // A query from an arbitrary node finds the nearest stored item.
  bool answered = false;
  overlay.nodes_[3]->query(points[5], 1, [&](std::vector<Item> items) {
    answered = true;
    ASSERT_FALSE(items.empty());
    EXPECT_EQ(items[0].point, points[5]);
  });
  overlay.sim_.run_for(seconds(5));
  EXPECT_TRUE(answered);
}

TEST(CanOverlay, QueryExpandsToNeighborsWhenShort) {
  Overlay overlay{8};
  Rng rng{99};
  for (int i = 0; i < 30; ++i) {
    const Point p = Point::random(rng, 2);
    overlay.nodes_[0]->store(p, to_bytes("host-" + std::to_string(i)));
  }
  overlay.sim_.run_for(seconds(2));

  bool answered = false;
  overlay.nodes_[1]->query(Point{{0.5, 0.5}}, 12, [&](std::vector<Item> items) {
    answered = true;
    // 30 items over ~8 zones: one zone rarely holds 12, so expansion
    // must have pulled results from neighbors.
    EXPECT_GE(items.size(), 6u);
    EXPECT_LE(items.size(), 12u);
  });
  overlay.sim_.run_for(seconds(5));
  EXPECT_TRUE(answered);
}

TEST(CanOverlay, EraseRemovesRecord) {
  Overlay overlay{4};
  const Point p{{0.7, 0.2}};
  overlay.nodes_[2]->store(p, to_bytes("gone"));
  overlay.sim_.run_for(seconds(1));
  overlay.nodes_[1]->erase(p, to_bytes("gone"));
  overlay.sim_.run_for(seconds(1));
  for (const auto& n : overlay.nodes_) EXPECT_TRUE(n->items().empty());
}

TEST(CanOverlay, QueryReturnsTheKNearestLiveItemsInSortedOrder) {
  // One node owns the whole space, so the reply is exactly its own
  // k-nearest selection, with no neighbor expansion.
  Overlay overlay{1};
  CanNode& node = *overlay.nodes_[0];
  Rng rng{11};
  for (int i = 0; i < 40; ++i) {
    node.store(Point::random(rng, 2), to_bytes("live-" + std::to_string(i)));
  }
  // Records that tie on distance: several payloads at one point, and
  // points mirrored around the query point.
  for (int i = 0; i < 4; ++i) {
    node.store(Point{{0.25, 0.5}}, to_bytes("shared-" + std::to_string(i)));
  }
  node.store(Point{{0.75, 0.5}}, to_bytes("mirror-x"));
  node.store(Point{{0.5, 0.25}}, to_bytes("mirror-y"));
  // Expired by query time, and nearer the query point than anything live.
  for (int i = 0; i < 10; ++i) {
    node.store(Point{{0.5, 0.5 + 0.001 * i}}, to_bytes("stale-" + std::to_string(i)),
               milliseconds(500));
  }
  overlay.sim_.run_for(seconds(1));
  const std::size_t live = 46;
  ASSERT_EQ(node.items().size(), live + 10) << "expired items must still be stored";

  const Point target{{0.5, 0.5}};
  const auto reference = [&](std::size_t k) {
    std::vector<Item> ranked;
    for (const auto& item : node.items()) {
      if (item.expires > overlay.sim_.now()) ranked.push_back(item);
    }
    const auto dist = [&](const Item& item) {
      double d2 = 0.0;
      for (std::size_t i = 0; i < item.point.dims(); ++i) {
        const double d = item.point.coords[i] - target.coords[i];
        d2 += d * d;
      }
      return d2;
    };
    std::sort(ranked.begin(), ranked.end(),
              [&](const Item& a, const Item& b) { return dist(a) < dist(b); });
    if (ranked.size() > k) ranked.resize(k);
    return ranked;
  };

  for (const std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{30}, live,
                              std::size_t{64}}) {
    const std::vector<Item> expected = reference(k);
    ASSERT_EQ(expected.size(), std::min(k, live));
    bool answered = false;
    node.query(target, k, [&](std::vector<Item> items) {
      answered = true;
      ASSERT_EQ(items.size(), expected.size()) << "k=" << k;
      for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(items[i].point, expected[i].point) << "k=" << k << " rank " << i;
        EXPECT_EQ(items[i].payload, expected[i].payload) << "k=" << k << " rank " << i;
      }
    });
    overlay.sim_.run_for(milliseconds(100));
    EXPECT_TRUE(answered) << "k=" << k;
  }
}

TEST(CanOverlay, RoutingHopsAreBounded) {
  Overlay overlay{25};
  Rng rng{5};
  for (int i = 0; i < 100; ++i) {
    const auto origin = rng.uniform_u64(0, overlay.nodes_.size() - 1);
    overlay.nodes_[origin]->store(Point::random(rng, 2), to_bytes("x"));
  }
  overlay.sim_.run_for(seconds(5));

  std::uint64_t delivered = 0;
  std::uint64_t dead_ends = 0;
  std::uint64_t hops = 0;
  for (const auto& n : overlay.nodes_) {
    delivered += n->stats().routed_delivered;
    dead_ends += n->stats().routed_dead_end;
    hops += n->stats().total_delivery_hops;
  }
  EXPECT_EQ(dead_ends, 0u);
  EXPECT_GE(delivered, 100u);
  // CAN routing is O(sqrt(N)) hops for d=2; with N=25 expect ~2.5 average.
  const double avg_hops = static_cast<double>(hops) / static_cast<double>(delivered);
  EXPECT_LT(avg_hops, 6.0);
}

TEST(CanOverlay, GracefulLeaveMergesZone) {
  Overlay overlay{2};
  ASSERT_TRUE(overlay.nodes_[1]->joined());
  overlay.nodes_[1]->store(Point{{0.9, 0.9}}, to_bytes("keep-me"));
  overlay.sim_.run_for(seconds(1));

  EXPECT_TRUE(overlay.nodes_[1]->leave());
  overlay.sim_.run_for(seconds(1));

  EXPECT_EQ(overlay.nodes_[0]->zone(), Zone::whole(2));
  ASSERT_EQ(overlay.nodes_[0]->items().size(), 1u);
  EXPECT_EQ(bytes_to_string(overlay.nodes_[0]->items()[0].payload), "keep-me");
  EXPECT_TRUE(overlay.nodes_[0]->neighbors().empty());
}

TEST(CanOverlay, SimultaneousAdjacentCrashesElectOneWinnerPerZone) {
  // Two neighbors die in the same instant. Each orphaned zone must be
  // absorbed by exactly one survivor: the gossiped-neighbor-list
  // election may not produce two claimants (overlap) or zero (orphan),
  // even though each victim's last gossiped list still names the other
  // victim as a live candidate.
  Overlay overlay{16};
  std::size_t a = 0;
  std::size_t b = 0;
  bool found = false;
  for (std::size_t i = 0; i < overlay.nodes_.size() && !found; ++i) {
    for (std::size_t j = i + 1; j < overlay.nodes_.size() && !found; ++j) {
      if (overlay.nodes_[i]->zone().is_neighbor(overlay.nodes_[j]->zone())) {
        a = i;
        b = j;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);

  overlay.nodes_[a]->crash();
  overlay.nodes_[b]->crash();
  // Liveness window is 3 hello intervals (30 s); give the survivors a
  // few extra rounds for second-stage takeovers (a zone whose elected
  // winner was the other victim re-runs once that victim is also
  // declared dead).
  overlay.sim_.run_for(seconds(90));

  // No orphan: the survivors' zones tile the whole space again.
  double volume = 0.0;
  for (std::size_t i = 0; i < overlay.nodes_.size(); ++i) {
    if (i == a || i == b) continue;
    ASSERT_TRUE(overlay.nodes_[i]->joined());
    volume += overlay.nodes_[i]->zone().volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);

  // No double-absorb: every point has exactly one surviving owner.
  Rng rng{321};
  for (int k = 0; k < 300; ++k) {
    const Point p = Point::random(rng, 2);
    int owners = 0;
    for (std::size_t i = 0; i < overlay.nodes_.size(); ++i) {
      if (i == a || i == b) continue;
      if (overlay.nodes_[i]->zone().contains(p)) ++owners;
    }
    EXPECT_EQ(owners, 1) << "point " << p.to_string();
  }

  // Exactly one takeover per orphaned zone across the fleet.
  std::uint64_t takeovers = 0;
  for (std::size_t i = 0; i < overlay.nodes_.size(); ++i) {
    if (i == a || i == b) continue;
    takeovers += overlay.nodes_[i]->stats().zone_takeovers;
  }
  EXPECT_EQ(takeovers, 2u);
}

TEST(CanOverlay, FragmentedCrashHealsViaCascadingHandover) {
  // Classic CAN fragmentation: a victim whose zone no survivor can merge
  // into a rectangle (e.g. a half-space bordered only by quadrants).
  // Direct takeover can never fire; the fleet must heal through the
  // handover path — the elected survivor vacates its own zone to an heir
  // (cascading until someone can merge) and adopts the victim's zone.
  std::unique_ptr<Overlay> overlay;
  std::size_t victim = 0;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 50 && !found; ++seed) {
    overlay = std::make_unique<Overlay>(4, seed);
    for (std::size_t i = 0; i < overlay->nodes_.size() && !found; ++i) {
      bool mergeable = false;
      for (std::size_t j = 0; j < overlay->nodes_.size(); ++j) {
        if (i == j) continue;
        if (overlay->nodes_[j]->zone().merged_with(overlay->nodes_[i]->zone())) {
          mergeable = true;
          break;
        }
      }
      if (!mergeable) {
        victim = i;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "no fragmented topology in 50 seeds";

  overlay->nodes_[victim]->crash();
  // Liveness detection (3 hello intervals) + the handover's extra grace
  // window (3 more) + time for the cascade and table repair to settle.
  overlay->sim_.run_for(seconds(150));

  double volume = 0.0;
  for (std::size_t i = 0; i < overlay->nodes_.size(); ++i) {
    if (i == victim) continue;
    ASSERT_TRUE(overlay->nodes_[i]->joined());
    volume += overlay->nodes_[i]->zone().volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);

  // No overlapping claims either: the survivors tile the space.
  for (std::size_t i = 0; i < overlay->nodes_.size(); ++i) {
    for (std::size_t j = i + 1; j < overlay->nodes_.size(); ++j) {
      if (i == victim || j == victim) continue;
      EXPECT_LT(overlay->nodes_[i]->zone().overlap_volume(
                    overlay->nodes_[j]->zone()),
                1e-12);
    }
  }
}

TEST(CanGeometry, OverlapVolumeAndZoneContainment) {
  const Zone whole = Zone::whole(2);
  const auto [left, right] = whole.split();
  EXPECT_NEAR(left.overlap_volume(right), 0.0, 1e-12);  // abutting, not overlapping
  EXPECT_NEAR(whole.overlap_volume(left), 0.5, 1e-12);
  EXPECT_NEAR(left.overlap_volume(left), 0.5, 1e-12);
  EXPECT_TRUE(whole.contains_zone(left));
  EXPECT_TRUE(left.contains_zone(left));
  EXPECT_FALSE(left.contains_zone(whole));
  EXPECT_FALSE(left.contains_zone(right));
}

TEST(CanOverlay, HigherDimensionalSpace) {
  Overlay overlay{9, 11, 4};
  double volume = 0.0;
  for (const auto& n : overlay.nodes_) {
    ASSERT_TRUE(n->joined());
    volume += n->zone().volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);
}

}  // namespace
}  // namespace wav
