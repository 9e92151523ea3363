#include "churn/churn.hpp"
#include "obs/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace wav::churn {

namespace {

constexpr Duration kTickPeriod = seconds(1);

/// Shifted exponential: min + Exp(mean - min). Degenerates to `min`
/// when mean <= min. The 1-u guard keeps log() off exactly zero.
Duration sample_shifted_exp(Rng& rng, Duration min, Duration mean) {
  if (mean <= min) return min;
  const double tail_ns = static_cast<double>((mean - min).count());
  const double u = rng.uniform();
  const double draw = -std::log(1.0 - u * 0.999999) * tail_ns;
  return min + Duration{static_cast<Duration::rep>(draw)};
}

}  // namespace

NatMix NatMix::trautwein_global() {
  NatMix m;
  m.open_internet = 0.08;
  m.full_cone = 0.12;
  m.restricted_cone = 0.17;
  m.port_restricted_cone = 0.48;
  m.symmetric = 0.15;
  return m;
}

NatMix NatMix::trautwein_mobile() {
  NatMix m;
  m.open_internet = 0.02;
  m.full_cone = 0.05;
  m.restricted_cone = 0.08;
  m.port_restricted_cone = 0.30;
  m.symmetric = 0.55;
  return m;
}

NatMix NatMix::campus() {
  NatMix m;
  m.open_internet = 0.10;
  m.full_cone = 0.30;
  m.restricted_cone = 0.25;
  m.port_restricted_cone = 0.35;
  m.symmetric = 0.0;
  return m;
}

nat::NatType NatMix::sample(Rng& rng) const {
  const double total =
      open_internet + full_cone + restricted_cone + port_restricted_cone + symmetric;
  double x = rng.uniform() * (total > 0 ? total : 1.0);
  if ((x -= open_internet) < 0) return nat::NatType::kOpenInternet;
  if ((x -= full_cone) < 0) return nat::NatType::kFullCone;
  if ((x -= restricted_cone) < 0) return nat::NatType::kRestrictedCone;
  if ((x -= port_restricted_cone) < 0) return nat::NatType::kPortRestrictedCone;
  return nat::NatType::kSymmetric;
}

Duration ChurnPlan::sample_session(Rng& rng) const {
  return sample_shifted_exp(rng, min_session, mean_session);
}

Duration ChurnPlan::sample_offline(Rng& rng) const {
  return sample_shifted_exp(rng, min_offline, mean_offline);
}

ChurnEngine::ChurnEngine(sim::Simulation& sim, ChurnPlan plan)
    : sim_(sim), plan_(plan), tick_timer_(sim, kTickPeriod, [this] { tick(); },
                  WAV_PROF_CATEGORY("churn", "tick_event")) {
  auto& reg = sim_.metrics();
  const std::string inst = "churn";
  c_arrivals_ = &reg.counter("churn.arrivals", inst);
  c_departures_ = &reg.counter("churn.departures_graceful", inst);
  c_crashes_ = &reg.counter("churn.crashes", inst);
  c_rehomes_ = &reg.counter("churn.rehomes", inst);
  c_connects_attempted_ = &reg.counter("churn.connects_attempted", inst);
  c_connects_ok_ = &reg.counter("churn.connects_ok", inst);
  c_connects_failed_ = &reg.counter("churn.connects_failed", inst);
  g_online_ = &reg.gauge("churn.online_hosts", inst);
  g_registered_online_ = &reg.gauge("churn.registered_online_hosts", inst);
  h_converge_ms_ = &reg.histogram(
      "churn.converge_ms", {50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000}, inst);
}

void ChurnEngine::add_host(overlay::HostAgent& agent) {
  Slot slot;
  slot.agent = &agent;
  slots_.push_back(slot);
}

void ChurnEngine::start() {
  running_ = true;
  Rng& rng = sim_.rng();
  const std::size_t n = slots_.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Evenly spaced across the ramp with per-slot jitter, so the join
    // wave is staggered but the overall arrival rate is flat.
    const double frac = (static_cast<double>(i) + rng.uniform()) /
                        static_cast<double>(n > 0 ? n : 1);
    const auto delay = Duration{
        static_cast<Duration::rep>(static_cast<double>(plan_.ramp.count()) * frac)};
    sim_.schedule_after(delay, WAV_PROF_CATEGORY("churn", "arrival_event"), [this, i] {
      if (running_) arrive(i);
    });
  }
  tick_timer_.start();
}

void ChurnEngine::stop() {
  running_ = false;
  tick_timer_.stop();
}

void ChurnEngine::arrive(std::size_t idx) {
  WAV_PROF_SCOPE("churn", "arrive");
  Slot& slot = slots_[idx];
  if (slot.online) return;
  slot.online = true;
  slot.online_since = sim_.now();
  slot.was_registered = false;
  slot.lost_registration_at = kTimeInfinity;
  ++online_;
  c_arrivals_->inc();
  g_online_->set(static_cast<double>(online_));
  if (!slot.started) {
    slot.started = true;
    slot.agent->start([this, idx](bool ok) {
      if (ok) on_registered(idx);
    });
  } else {
    slot.agent->go_online([this, idx](bool ok) {
      if (ok) on_registered(idx);
    });
  }
  // The session clock starts at arrival, not at convergence: a host that
  // crashes while still registering is exactly the hard case.
  const Duration session = plan_.sample_session(sim_.rng());
  sim_.schedule_after(session, WAV_PROF_CATEGORY("churn", "depart_event"), [this, idx] {
    if (running_) depart(idx);
  });
}

void ChurnEngine::depart(std::size_t idx) {
  WAV_PROF_SCOPE("churn", "depart");
  Slot& slot = slots_[idx];
  if (!slot.online) return;
  const bool crash = sim_.rng().chance(plan_.crash_fraction);
  slot.agent->go_offline(/*graceful=*/!crash);
  slot.online = false;
  slot.departed_at = sim_.now();
  slot.lost_registration_at = kTimeInfinity;
  --online_;
  if (crash) {
    c_crashes_->inc();
  } else {
    c_departures_->inc();
  }
  g_online_->set(static_cast<double>(online_));
  const Duration offline = plan_.sample_offline(sim_.rng());
  sim_.schedule_after(offline, WAV_PROF_CATEGORY("churn", "rejoin_event"), [this, idx] {
    if (running_) arrive(idx);
  });
}

void ChurnEngine::on_registered(std::size_t idx) {
  Slot& slot = slots_[idx];
  if (!slot.online) return;  // registration raced a departure
  const TimePoint now = sim_.now();
  if (!slot.was_registered) {
    // First registration of this session: arrival convergence.
    h_converge_ms_->observe(to_milliseconds(now - slot.online_since));
    slot.was_registered = true;
    issue_connects(idx);
  }
  // Re-homes are counted by the tick from the agent's failover counter:
  // the agent re-registers internally (heartbeat NACK, shard failover)
  // without calling the registration handler again.
}

void ChurnEngine::issue_connects(std::size_t idx) {
  if (plan_.connect_fanout == 0) return;
  Slot& slot = slots_[idx];
  // Query around a random point so the dialed peers spread across the
  // CAN space instead of clustering near this host's own attributes.
  std::vector<double> target;
  const std::size_t dims = slot.agent->self_info().attributes.size();
  target.reserve(dims);
  for (std::size_t d = 0; d < dims; ++d) target.push_back(sim_.rng().uniform());
  overlay::HostAgent* agent = slot.agent;
  const overlay::HostId self = agent->id();
  agent->query(target, plan_.connect_fanout + 1, [this, agent, self](
                                                     std::vector<overlay::HostInfo> hits) {
    std::size_t dialed = 0;
    for (const overlay::HostInfo& peer : hits) {
      if (peer.host_id == self) continue;
      if (dialed >= plan_.connect_fanout) break;
      if (agent->link_established(peer.host_id)) continue;
      ++dialed;
      c_connects_attempted_->inc();
      agent->connect_to(peer, [this](bool ok, overlay::HostId) {
        if (ok) {
          c_connects_ok_->inc();
        } else {
          c_connects_failed_->inc();
        }
      });
    }
  });
}

ChurnEngine::Stats ChurnEngine::stats() const noexcept {
  return {.arrivals = c_arrivals_->value(),
          .departures_graceful = c_departures_->value(),
          .crashes = c_crashes_->value(),
          .rehomes = c_rehomes_->value(),
          .connects_attempted = c_connects_attempted_->value(),
          .connects_ok = c_connects_ok_->value(),
          .connects_failed = c_connects_failed_->value()};
}

void ChurnEngine::tick() {
  WAV_PROF_SCOPE("churn", "tick");
  const TimePoint now = sim_.now();
  std::size_t registered_online = 0;
  for (Slot& slot : slots_) {
    if (!slot.online) continue;
    const bool reg = slot.agent->registered();
    if (reg) ++registered_online;
    // Shard failovers complete in milliseconds (the agent re-registers
    // the moment it gives up on the old shard), so a 1 Hz edge detector
    // on registered() would miss them all. The agent's failover counter
    // is the ground truth; latency lives in the overlay.rehome_ms
    // histogram the agent itself populates.
    const std::uint32_t failovers = slot.agent->rendezvous_failovers();
    if (failovers > slot.last_failovers) {
      const std::uint32_t delta = failovers - slot.last_failovers;
      c_rehomes_->inc(delta);
      slot.last_failovers = failovers;
    }
    if (!slot.was_registered) continue;  // still in arrival convergence
    if (!reg && slot.lost_registration_at == kTimeInfinity) {
      // Registration dropped and has not come back by this tick: the
      // convergence invariant grants a fresh deadline from here.
      slot.lost_registration_at = now;
    } else if (reg && slot.lost_registration_at != kTimeInfinity) {
      slot.lost_registration_at = kTimeInfinity;
    }
  }
  g_registered_online_->set(static_cast<double>(registered_online));
}

std::vector<overlay::HostAgent*> ChurnEngine::convergent_agents() const {
  const TimePoint now = sim_.now();
  std::vector<overlay::HostAgent*> out;
  for (const Slot& slot : slots_) {
    if (!slot.online) continue;
    if (now - slot.online_since < plan_.convergence_deadline) continue;
    // A host mid-re-home is not in violation until the re-home itself
    // has outlived the deadline (its shard may have died seconds ago).
    if (!slot.agent->registered() && slot.lost_registration_at != kTimeInfinity &&
        now - slot.lost_registration_at < plan_.convergence_deadline) {
      continue;
    }
    out.push_back(slot.agent);
  }
  return out;
}

std::vector<overlay::HostId> ChurnEngine::reclaimable_departed() const {
  const TimePoint now = sim_.now();
  std::vector<overlay::HostId> out;
  for (const Slot& slot : slots_) {
    if (slot.online || !slot.started) continue;
    if (now - slot.departed_at < plan_.reclaim_deadline) continue;
    out.push_back(slot.agent->id());
  }
  return out;
}

void ChurnEngine::attach(chaos::InvariantChecker& checker) {
  checker.set_churn_agents([this] { return convergent_agents(); });
  checker.set_departed_hosts([this] { return reclaimable_departed(); });
}

}  // namespace wav::churn
