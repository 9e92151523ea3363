// Deterministic membership churn engine.
//
// A VPC over WAVNet never sees a static population: desktops arrive,
// leave gracefully, and crash, continuously. ChurnPlan captures that
// regime as seeded distributions — exponential inter-arrival and session
// lengths, a graceful-vs-crash split, NAT-type mixes sampled from
// measured populations (Trautwein et al.'s libp2p study) — and
// ChurnEngine replays it over a pool of HostAgents by driving their
// go_online()/go_offline() lifecycle. Agents are parked, never
// destroyed, so scheduled callbacks inside the overlay stay valid across
// a host's whole arrival/departure history.
//
// The engine is also the bookkeeper the churn invariants need: it knows
// when each host came online (so it can say which ones OUGHT to have
// converged to registered by now), when each departed (so it can say
// whose registrations and links must have been reclaimed), and it
// measures registration-convergence latency as a histogram (re-home
// latency is measured inside HostAgent as overlay.rehome_ms — the
// failover completes in milliseconds, below any external sampling
// tick). attach() wires those expectations into a
// chaos::InvariantChecker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chaos/invariants.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "nat/nat_gateway.hpp"
#include "overlay/host_agent.hpp"
#include "sim/simulation.hpp"

namespace wav::churn {

/// A NAT-type population: relative weights, sampled per arriving host.
/// The presets follow the measured shares reported for public P2P
/// populations (most hosts behind port-restricted cones, a meaningful
/// symmetric/CGNAT tail, a small directly-reachable slice).
struct NatMix {
  double open_internet{0.0};
  double full_cone{0.0};
  double restricted_cone{0.0};
  double port_restricted_cone{1.0};
  double symmetric{0.0};

  /// Measured global desktop mix: mostly cone NATs, ~15% symmetric,
  /// ~8% publicly reachable.
  [[nodiscard]] static NatMix trautwein_global();
  /// Mobile/CGNAT-heavy population: symmetric NATs dominate, punching
  /// fails often and the relay tier carries real load.
  [[nodiscard]] static NatMix trautwein_mobile();
  /// Benign campus population: cones only, no symmetric tail.
  [[nodiscard]] static NatMix campus();

  [[nodiscard]] nat::NatType sample(Rng& rng) const;
};

/// Seeded description of a churn regime. Every duration is sampled from
/// a shifted exponential (min + Exp(mean - min)) so sessions are long
/// enough to converge but the tail stays heavy, matching observed
/// peer-session distributions.
struct ChurnPlan {
  /// First arrivals are spread across this ramp (staggered join).
  Duration ramp{seconds(60)};
  Duration mean_session{seconds(180)};
  Duration min_session{seconds(45)};
  Duration mean_offline{seconds(60)};
  Duration min_offline{seconds(10)};
  /// Fraction of departures that are ungraceful (silent crash: no
  /// Deregister, peers and servers must time the host out).
  double crash_fraction{0.3};
  /// Peers each host dials (via a rendezvous query) once registered.
  std::size_t connect_fanout{2};
  /// A host online this long must be registered (re-homed if its shard
  /// died) — the convergence invariant's deadline.
  Duration convergence_deadline{seconds(45)};
  /// A host departed this long must have no trace left anywhere — no
  /// registration on a live shard, no established link on a survivor.
  /// Must exceed worst-case expiry (host_expiry + expiry sweep + bucket
  /// granularity) plus the survivors' idle-out + give-up window.
  Duration reclaim_deadline{seconds(150)};
  NatMix nat_mix{};

  [[nodiscard]] Duration sample_session(Rng& rng) const;
  [[nodiscard]] Duration sample_offline(Rng& rng) const;
};

class ChurnEngine {
 public:
  ChurnEngine(sim::Simulation& sim, ChurnPlan plan);

  ChurnEngine(const ChurnEngine&) = delete;
  ChurnEngine& operator=(const ChurnEngine&) = delete;

  /// Adds a parked agent to the pool. Call before start(); the agent
  /// must not have been start()ed — the engine owns its lifecycle.
  void add_host(overlay::HostAgent& agent);

  /// Schedules the initial arrivals across plan.ramp and begins the
  /// continuous churn loop plus the 1 s bookkeeping tick.
  void start();

  /// Freezes churn: no further departures or arrivals fire. Hosts
  /// currently online stay online (and converge); hosts offline stay
  /// departed (and must be reclaimed). Benches call this ahead of the
  /// final invariant sweep so the system can quiesce.
  void stop();

  /// Hosts online past the convergence deadline and not inside a
  /// re-home window — each must satisfy every per-agent invariant.
  [[nodiscard]] std::vector<overlay::HostAgent*> convergent_agents() const;
  /// Hosts departed past the reclaim deadline (and still offline) —
  /// no live shard may know them, no survivor may hold a link to them.
  [[nodiscard]] std::vector<overlay::HostId> reclaimable_departed() const;

  /// Wires convergent_agents()/reclaimable_departed() into the checker.
  void attach(chaos::InvariantChecker& checker);

  struct Stats {
    std::uint64_t arrivals{0};
    std::uint64_t departures_graceful{0};
    std::uint64_t crashes{0};
    std::uint64_t rehomes{0};  // shard failovers observed across the fleet
    std::uint64_t connects_attempted{0};
    std::uint64_t connects_ok{0};
    std::uint64_t connects_failed{0};
  };
  /// Snapshot of the engine's registry counters.
  [[nodiscard]] Stats stats() const noexcept;
  [[nodiscard]] std::size_t online_count() const noexcept { return online_; }
  [[nodiscard]] std::size_t pool_size() const noexcept { return slots_.size(); }
  [[nodiscard]] bool running() const noexcept { return running_; }

 private:
  struct Slot {
    overlay::HostAgent* agent{nullptr};
    bool started{false};  // first arrival uses start(), later ones go_online()
    bool online{false};
    bool was_registered{false};  // this session has completed a registration
    TimePoint online_since{};
    TimePoint departed_at{};
    TimePoint lost_registration_at{kTimeInfinity};
    std::uint32_t last_failovers{0};  // agent failover counter at last tick
  };

  void arrive(std::size_t idx);
  void depart(std::size_t idx);
  void on_registered(std::size_t idx);
  void issue_connects(std::size_t idx);
  void tick();  // 1 s bookkeeping: failover counting + gauges

  sim::Simulation& sim_;
  ChurnPlan plan_;
  std::vector<Slot> slots_;
  std::size_t online_{0};
  bool running_{false};
  sim::PeriodicTimer tick_timer_;

  obs::Counter* c_arrivals_{nullptr};
  obs::Counter* c_departures_{nullptr};
  obs::Counter* c_crashes_{nullptr};
  obs::Counter* c_rehomes_{nullptr};
  obs::Counter* c_connects_attempted_{nullptr};
  obs::Counter* c_connects_ok_{nullptr};
  obs::Counter* c_connects_failed_{nullptr};
  obs::Gauge* g_online_{nullptr};
  obs::Gauge* g_registered_online_{nullptr};
  obs::Histogram* h_converge_ms_{nullptr};
};

}  // namespace wav::churn
