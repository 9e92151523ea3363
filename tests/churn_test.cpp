// Churn-engine and sharded-rendezvous robustness tests: seeded NAT-mix
// and session sampling, engine determinism, shard failover re-homing,
// bucketed registration expiry after silent crashes, per-peer state
// pruning on permanent departure, and the shard liveness gauge.
#include <gtest/gtest.h>

#include <map>

#include "chaos/invariants.hpp"
#include "churn/churn.hpp"
#include "fabric/wan.hpp"
#include "overlay/host_agent.hpp"
#include "overlay/rendezvous.hpp"

namespace wav {
namespace {

using churn::ChurnEngine;
using churn::ChurnPlan;
using churn::NatMix;
using overlay::HostAgent;
using overlay::RendezvousServer;

TEST(NatMixTest, SamplingIsSeededAndDeterministic) {
  const NatMix mix = NatMix::trautwein_global();
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(mix.sample(a), mix.sample(b));
}

TEST(NatMixTest, ZeroWeightTypesNeverSampled) {
  const NatMix mix = NatMix::campus();  // no symmetric share
  Rng rng{7};
  std::map<nat::NatType, int> counts;
  for (int i = 0; i < 2000; ++i) ++counts[mix.sample(rng)];
  EXPECT_EQ(counts[nat::NatType::kSymmetric], 0);
  // Every non-zero-weight type shows up in a 2000-draw sample.
  EXPECT_GT(counts[nat::NatType::kOpenInternet], 0);
  EXPECT_GT(counts[nat::NatType::kFullCone], 0);
  EXPECT_GT(counts[nat::NatType::kRestrictedCone], 0);
  EXPECT_GT(counts[nat::NatType::kPortRestrictedCone], 0);
}

TEST(ChurnPlanTest, SamplesRespectMinimum) {
  ChurnPlan plan;
  plan.min_session = seconds(45);
  plan.mean_session = seconds(180);
  plan.min_offline = seconds(10);
  plan.mean_offline = seconds(60);
  Rng rng{2026};
  Duration session_sum{};
  for (int i = 0; i < 500; ++i) {
    const Duration s = plan.sample_session(rng);
    EXPECT_GE(s, plan.min_session);
    session_sum += s;
    EXPECT_GE(plan.sample_offline(rng), plan.min_offline);
  }
  // The empirical mean of a shifted exponential should land near the
  // configured mean (generous band: 500 draws of a heavy-tailed law).
  const double mean_s = to_seconds(session_sum) / 500.0;
  EXPECT_GT(mean_s, 120.0);
  EXPECT_LT(mean_s, 260.0);
}

TEST(ChurnPlanTest, DegenerateMeanCollapsesToMinimum) {
  ChurnPlan plan;
  plan.min_session = seconds(30);
  plan.mean_session = seconds(10);  // mean below min: constant sessions
  Rng rng{1};
  for (int i = 0; i < 20; ++i) EXPECT_EQ(plan.sample_session(rng), seconds(30));
}

/// A small sharded world: `shards` rendezvous servers on public hosts
/// (each aware of its siblings), `n` host agents hash-homed across them,
/// driven by a ChurnEngine.
struct ChurnWorld {
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};
  std::vector<std::unique_ptr<RendezvousServer>> shards;
  std::vector<std::unique_ptr<HostAgent>> agents;
  std::unique_ptr<ChurnEngine> engine;

  ChurnWorld(std::size_t n_shards, std::size_t n_hosts, ChurnPlan plan,
             std::uint64_t seed = 2026)
      : sim(seed) {
    std::vector<net::Endpoint> shard_eps;
    for (std::size_t s = 0; s < n_shards; ++s) {
      auto& host = wan.add_public_host("rv" + std::to_string(s));
      shards.push_back(std::make_unique<RendezvousServer>(host));
      shard_eps.push_back(shards.back()->host_endpoint());
    }
    for (std::size_t s = 0; s < n_shards; ++s) {
      std::vector<net::Endpoint> peers;
      for (std::size_t o = 0; o < n_shards; ++o) {
        if (o != s) peers.push_back(shard_eps[o]);
      }
      shards[s]->set_shard_peers(std::move(peers));
    }
    shards[0]->bootstrap();
    for (std::size_t s = 1; s < n_shards; ++s) {
      shards[s]->join(shards[0]->can_endpoint());
    }
    sim.run_for(seconds(2));

    engine = std::make_unique<ChurnEngine>(sim, plan);
    for (std::size_t i = 0; i < n_hosts; ++i) {
      auto& host = wan.add_public_host("h" + std::to_string(i + 1));
      HostAgent::Config cfg;
      cfg.name = "h" + std::to_string(i + 1);
      cfg.rendezvous_shards = shard_eps;
      cfg.nat_type = nat::NatType::kPortRestrictedCone;
      cfg.attributes = {sim.rng().uniform(), sim.rng().uniform()};
      cfg.metrics_instance = "fleet";
      cfg.repunch_give_up = 3;
      agents.push_back(std::make_unique<HostAgent>(host, cfg));
      engine->add_host(*agents.back());
    }
  }
};

TEST(ChurnEngineTest, DoubleRunIsDeterministic) {
  ChurnPlan plan;
  plan.ramp = seconds(10);
  plan.mean_session = seconds(30);
  plan.min_session = seconds(8);
  plan.mean_offline = seconds(8);
  plan.min_offline = seconds(2);
  plan.connect_fanout = 1;
  auto run = [&] {
    ChurnWorld world{2, 10, plan, 77};
    world.engine->start();
    world.sim.run_for(seconds(120));
    return world.engine->stats();
  };
  const ChurnEngine::Stats a = run();
  const ChurnEngine::Stats b = run();
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.departures_graceful, b.departures_graceful);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.rehomes, b.rehomes);
  EXPECT_EQ(a.connects_attempted, b.connects_attempted);
  EXPECT_EQ(a.connects_ok, b.connects_ok);
  EXPECT_EQ(a.connects_failed, b.connects_failed);
  EXPECT_GT(a.arrivals, 10u);  // the loop actually cycled hosts
}

TEST(ChurnEngineTest, ContinuousChurnKeepsConvergencePopulated) {
  ChurnPlan plan;
  plan.ramp = seconds(10);
  plan.mean_session = seconds(60);
  plan.min_session = seconds(20);
  plan.mean_offline = seconds(10);
  plan.min_offline = seconds(3);
  plan.connect_fanout = 1;
  ChurnWorld world{2, 12, plan};
  world.engine->start();
  world.sim.run_for(seconds(180));

  // Whatever is online and past the deadline must be registered.
  for (HostAgent* agent : world.engine->convergent_agents()) {
    EXPECT_TRUE(agent->registered()) << agent->self_info().name;
  }
  EXPECT_GT(world.engine->online_count(), 0u);
  EXPECT_EQ(world.engine->pool_size(), 12u);
  std::size_t fleet = 0;
  for (auto& shard : world.shards) fleet += shard->registered_hosts();
  EXPECT_EQ(fleet, world.engine->online_count());
}

TEST(ChurnEngineTest, ShardCrashRehomesItsPopulation) {
  ChurnPlan plan;
  plan.ramp = seconds(5);
  plan.mean_session = seconds(10000);  // effectively no churn: isolate failover
  plan.min_session = seconds(10000);
  plan.connect_fanout = 0;
  ChurnWorld world{2, 12, plan};
  const HostAgent::Config& cfg = world.agents.front()->config();
  const Duration hb = cfg.heartbeat_interval;
  const auto n_silent = static_cast<std::int64_t>(cfg.rendezvous_probe_failures);
  world.engine->start();
  // Six heartbeat intervals of a quiet fleet: no dials, so the shards
  // must see heartbeats but no queries (liveness rides the heartbeat
  // ack), and the acks keep every agent on its home shard.
  world.sim.run_for(plan.ramp + hb * 6);
  for (const auto& shard : world.shards) {
    EXPECT_GT(shard->stats().heartbeats, 0u);
    EXPECT_EQ(shard->stats().queries, 0u);
  }
  for (const auto& agent : world.agents) {
    EXPECT_EQ(agent->rendezvous_failovers(), 0u) << agent->self_info().name;
  }

  // Both shards carry part of the population (hash homing).
  const std::size_t on_rv0 = world.shards[0]->registered_hosts();
  const std::size_t on_rv1 = world.shards[1]->registered_hosts();
  EXPECT_EQ(on_rv0 + on_rv1, 12u);
  EXPECT_GT(on_rv0, 0u);
  EXPECT_GT(on_rv1, 0u);

  world.shards[1]->crash();
  // Failover fires on the heartbeat tick after N unanswered heartbeats,
  // so detection takes at most (N+1) heartbeat intervals; 90 s is
  // comfortably past it.
  world.sim.run_for(seconds(90));

  EXPECT_EQ(world.shards[0]->registered_hosts(), 12u);
  std::uint64_t rehomed = 0;
  for (auto& agent : world.agents) {
    EXPECT_TRUE(agent->registered()) << agent->self_info().name;
    rehomed += agent->rendezvous_failovers();
  }
  EXPECT_GE(rehomed, on_rv1);
  EXPECT_EQ(world.engine->stats().rehomes, rehomed);
  // The agents timed their own recovery into the shared fleet histogram.
  const auto* h =
      world.sim.metrics().find_histogram("overlay.rehome_ms", "fleet");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->count(), on_rv1);
  // The heartbeat timer is not jittered: each re-home reads (N+1)·H from
  // the last ack plus one registration round trip to the surviving shard.
  EXPECT_GE(h->summary().min(), to_milliseconds(hb * n_silent));
  EXPECT_LE(h->summary().max(), to_milliseconds(hb * (n_silent + 1) + seconds(1)));
}

TEST(ChurnEngineTest, CrashedHostExpiresFromShardTable) {
  ChurnPlan plan;
  plan.ramp = seconds(2);
  plan.mean_session = seconds(10000);
  plan.min_session = seconds(10000);
  plan.connect_fanout = 0;
  ChurnWorld world{1, 3, plan};
  world.engine->start();
  world.sim.run_for(seconds(10));
  ASSERT_EQ(world.shards[0]->registered_hosts(), 3u);

  const overlay::HostId dead = world.agents[0]->id();
  world.agents[0]->go_offline(/*graceful=*/false);  // silent crash
  // Expiry-wheel worst case: host_expiry (90 s) + bucket width + sweep
  // period. 130 s covers it; the record must be gone, the others kept.
  world.sim.run_for(seconds(130));
  EXPECT_FALSE(world.shards[0]->knows_host(dead));
  EXPECT_EQ(world.shards[0]->registered_hosts(), 2u);
}

TEST(ChurnEngineTest, GracefulDepartureDeregistersImmediately) {
  ChurnPlan plan;
  plan.ramp = seconds(2);
  plan.mean_session = seconds(10000);
  plan.min_session = seconds(10000);
  plan.connect_fanout = 0;
  ChurnWorld world{1, 2, plan};
  world.engine->start();
  world.sim.run_for(seconds(10));
  ASSERT_EQ(world.shards[0]->registered_hosts(), 2u);

  world.agents[0]->go_offline(/*graceful=*/true);
  world.sim.run_for(seconds(2));  // one WAN round trip, not an expiry window
  EXPECT_FALSE(world.shards[0]->knows_host(world.agents[0]->id()));
  EXPECT_EQ(world.shards[0]->registered_hosts(), 1u);
}

TEST(ChurnEngineTest, SurvivorPrunesPermanentlyDepartedPeer) {
  ChurnPlan plan;
  plan.ramp = seconds(2);
  plan.mean_session = seconds(10000);
  plan.min_session = seconds(10000);
  plan.connect_fanout = 0;
  ChurnWorld world{1, 2, plan};
  world.engine->start();
  world.sim.run_for(seconds(10));

  HostAgent& survivor = *world.agents[0];
  HostAgent& victim = *world.agents[1];
  bool linked = false;
  survivor.connect_to(victim.self_info(), [&](bool ok, overlay::HostId) { linked = ok; });
  world.sim.run_for(seconds(10));
  ASSERT_TRUE(linked);
  ASSERT_TRUE(survivor.link_established(victim.id()));

  // The agents share the "fleet" counters, so stats() is the fleet's
  // count; with the victim offline, only the survivor can add to it.
  const std::uint64_t forgotten_before = survivor.stats().peers_forgotten;
  victim.go_offline(/*graceful=*/false);
  // Idle-out (30 s) + give-up (3 failed re-brokered repunches with
  // backoff) fits in 150 s once the victim's registration expired.
  world.sim.run_for(seconds(150));

  EXPECT_FALSE(survivor.link_established(victim.id()));
  EXPECT_GT(survivor.stats().peers_forgotten, forgotten_before);
  EXPECT_EQ(survivor.repunch_state_size(), 0u);
}

TEST(ShardLiveness, PingGaugeTracksCrashAndRestart) {
  ChurnPlan plan;  // no hosts needed: shard-to-shard liveness only
  ChurnWorld world{3, 0, plan};
  world.sim.run_for(seconds(30));
  EXPECT_EQ(world.shards[0]->alive_shards(), 3u);

  world.shards[2]->crash();
  // Liveness window: three ping intervals (10 s each) past the last pong.
  world.sim.run_for(seconds(45));
  EXPECT_EQ(world.shards[0]->alive_shards(), 2u);
  EXPECT_EQ(world.shards[1]->alive_shards(), 2u);

  world.shards[2]->restart(world.shards[0]->can_endpoint());
  world.sim.run_for(seconds(30));
  EXPECT_EQ(world.shards[0]->alive_shards(), 3u);
  EXPECT_EQ(world.shards[2]->alive_shards(), 3u);
}

TEST(ChurnInvariants, ReclaimableDepartedRespectsDeadline) {
  ChurnPlan plan;
  plan.ramp = seconds(2);
  plan.mean_session = seconds(8);  // short sessions: both hosts depart...
  plan.min_session = seconds(8);
  plan.mean_offline = seconds(10000);  // ...and never come back
  plan.min_offline = seconds(10000);
  plan.crash_fraction = 0.0;  // graceful: deregistration is immediate
  plan.connect_fanout = 0;
  plan.reclaim_deadline = seconds(20);
  ChurnWorld world{1, 2, plan};
  world.engine->start();
  world.sim.run_for(seconds(12));  // past the ramp + session: both departed
  ASSERT_EQ(world.engine->online_count(), 0u);
  // Departed, but not past the reclaim deadline yet.
  EXPECT_TRUE(world.engine->reclaimable_departed().empty());
  world.sim.run_for(seconds(30));
  const auto reclaimable = world.engine->reclaimable_departed();
  ASSERT_EQ(reclaimable.size(), 2u);

  // And the checker wired via attach() sees a clean world: the graceful
  // departure deregistered, so no live shard still knows the host.
  chaos::InvariantChecker checker;
  world.engine->attach(checker);
  for (auto& shard : world.shards) checker.add_rendezvous(*shard);
  EXPECT_TRUE(checker.converged()) << checker.violations().front();
}

}  // namespace
}  // namespace wav
