// Churn at scale: the registration fleet under continuous membership
// churn (the VPC's real operating regime, not the static-population
// benches). Per tier (default 1000/5000/10000 hosts) the bench builds a
// control-plane-only world — every host sits directly on the Internet
// core with a *declared* NAT type sampled from a measured population
// (churn::NatMix), so no per-host gateway machinery dilutes the scale —
// plus a four-shard rendezvous fleet (hash-homed agents, ring-successor
// failover, ShardPing liveness) with one co-hosted TURN-style relay per
// shard.
//
// A ChurnEngine then drives arrivals, graceful departures and silent
// crashes from seeded distributions while a FaultPlan kills one
// rendezvous shard mid-churn and restarts it a minute later: the dead
// shard's population must detect the silence, re-home around the ring,
// and re-register with bounded backoff; the CAN layer must absorb the
// zone via liveness takeover and re-split when the shard rejoins.
//
// Convergence is asserted, not eyeballed: the chaos::InvariantChecker is
// wired to the engine (hosts online past the convergence deadline must
// be registered with no leaked state; hosts departed past the reclaim
// deadline must be forgotten everywhere; the live shards' CAN zones must
// tile the space exactly), its violation count is mirrored into the
// sampled series, and the process exit code is the final violation
// count. A fixed --seed reproduces byte-identical --metrics-out and
// --series-out exports (asserted with cmp in CI, gated by metrics_diff
// against the committed baseline).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos_controller.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "churn/churn.hpp"
#include "common/table.hpp"
#include "fabric/wan.hpp"
#include "harness.hpp"
#include "obs/timeseries.hpp"
#include "overlay/host_agent.hpp"
#include "overlay/rendezvous.hpp"
#include "relay/relay_server.hpp"

namespace {

using namespace wav;

constexpr std::size_t kShards = 4;
constexpr std::uint16_t kRelayPort = 5300;

// Timeline (simulated seconds): churn runs [0, kChurnStop]; the shard
// dies mid-churn and returns a minute later; after kChurnStop the
// population freezes and the world must quiesce — every surviving host
// converged, every departed host reclaimed — by kEnd.
constexpr Duration kShardCrashAt = seconds(180);
constexpr Duration kShardRestartAt = seconds(240);
constexpr Duration kChurnStop = seconds(420);
constexpr Duration kEnd = seconds(620);

struct TierResult {
  std::size_t hosts{0};
  std::size_t violations{0};
  double connect_success{0};   // fraction of resolved dials that linked
  double converge_p95_ms{0};   // arrival -> registered
  double rehome_p95_ms{0};     // shard loss -> re-registered on survivor
  double query_hops_p95{0};    // CAN routing hops per resolved query
  std::size_t rehomes{0};
};

// Per-tier exports reuse benchx::numbered_path ("series.jsonl" for tier
// 1, "series-N.jsonl" for tier N>=2) so CI artifact globs treat this
// bench like any multi-world one.
using benchx::numbered_path;

TierResult run_tier(std::size_t n_hosts, std::uint64_t seed, int tier_index) {
  TierResult result;
  result.hosts = n_hosts;

  sim::Simulation sim{seed};
  fabric::Network network{sim};
  fabric::Wan wan{network};

  // --- rendezvous fleet: kShards public nodes, full CAN overlay ---
  std::vector<fabric::HostNode*> rv_nodes;
  for (std::size_t s = 0; s < kShards; ++s) {
    rv_nodes.push_back(&wan.add_public_host("rv" + std::to_string(s)));
  }
  std::vector<net::Endpoint> relay_eps;
  for (std::size_t s = 0; s < kShards; ++s) {
    relay_eps.push_back({rv_nodes[s]->primary_address(), kRelayPort});
  }
  std::vector<std::unique_ptr<overlay::RendezvousServer>> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    overlay::RendezvousServer::Config cfg;
    cfg.relays = relay_eps;
    shards.push_back(std::make_unique<overlay::RendezvousServer>(*rv_nodes[s], cfg));
  }
  std::vector<net::Endpoint> shard_eps;
  for (const auto& shard : shards) shard_eps.push_back(shard->host_endpoint());
  for (std::size_t s = 0; s < kShards; ++s) {
    std::vector<net::Endpoint> peers;
    for (std::size_t t = 0; t < kShards; ++t) {
      if (t != s) peers.push_back(shard_eps[t]);
    }
    shards[s]->set_shard_peers(std::move(peers));
  }
  // One TURN-style relay co-hosted per shard (advertised in RegisterAck)
  // so symmetric-NAT arrivals still connect via the traversal ladder.
  std::vector<std::unique_ptr<relay::RelayServer>> relays;
  for (std::size_t s = 0; s < kShards; ++s) {
    relay::RelayServer::Config cfg;
    cfg.port = kRelayPort;
    // Provision for the population: the default 64-channel cap is sized
    // for the small traversal benches. Saturated relays here don't just
    // fail the symmetric pairs — every starved dial burns its full
    // retry ladder (retries x relays x backoff), which at a few
    // thousand hosts snowballs into an event storm that dominates the
    // whole run.
    cfg.max_channels = n_hosts;
    relays.push_back(std::make_unique<relay::RelayServer>(shards[s]->udp(), cfg));
  }
  shards[0]->bootstrap();
  for (std::size_t s = 1; s < kShards; ++s) shards[s]->join(shards[0]->can_endpoint());
  sim.run_for(seconds(3));  // let the CAN splits settle before the ramp

  // --- host population: public nodes with declared NAT types ---
  churn::ChurnPlan plan;
  plan.nat_mix = churn::NatMix::trautwein_global();
  std::vector<std::unique_ptr<overlay::HostAgent>> agents;
  agents.reserve(n_hosts);
  churn::ChurnEngine engine{sim, plan};
  for (std::size_t i = 0; i < n_hosts; ++i) {
    fabric::HostNode& node = wan.add_public_host("h" + std::to_string(i + 1));
    overlay::HostAgent::Config cfg;
    cfg.name = "h" + std::to_string(i + 1);
    cfg.rendezvous_shards = shard_eps;
    cfg.nat_type = plan.nat_mix.sample(sim.rng());
    cfg.attributes = {sim.rng().uniform(), sim.rng().uniform()};
    cfg.metrics_instance = "fleet";  // 10k agents, one set of counters
    cfg.repunch_give_up = 4;         // prune state for departed peers
    agents.push_back(std::make_unique<overlay::HostAgent>(node, cfg));
    engine.add_host(*agents.back());
  }

  // --- invariants + fault schedule ---
  chaos::InvariantChecker checker;
  engine.attach(checker);
  checker.expect_can_coverage(2);
  for (auto& shard : shards) checker.add_rendezvous(*shard);
  for (auto& relay_srv : relays) checker.add_relay(*relay_srv);

  chaos::ChaosController controller{sim};
  controller.set_wan(wan);
  for (std::size_t s = 0; s < kShards; ++s) {
    controller.add_rendezvous("rv" + std::to_string(s), *shards[s],
                              shards[0]->can_endpoint());
  }
  chaos::FaultPlan faults;
  faults.rendezvous_crash(TimePoint{kShardCrashAt}, "rv1")
      .rendezvous_restart(TimePoint{kShardRestartAt}, "rv1");
  controller.schedule(faults);

  // --- telemetry: 1 s sampling + violation mirror every 10 s ---
  obs::MetricsRegistry& reg = sim.metrics();
  obs::TimeSeriesSampler sampler{reg, [&sim] { return sim.now(); }};
  sim::PeriodicTimer sample_timer{sim, seconds(1), [&] { sampler.sample(); }};
  obs::Gauge& g_violations = reg.gauge("chaos.invariant_violations");
  sim::PeriodicTimer violation_timer{sim, seconds(10), [&] {
    g_violations.set(static_cast<double>(checker.violations().size()));
  }};
  sample_timer.start();
  violation_timer.start();

  engine.start();
  sim.schedule_after(kChurnStop, [&engine] { engine.stop(); });
  sim.run_until(TimePoint{kEnd});

  const std::vector<std::string> violations = checker.violations();
  g_violations.set(static_cast<double>(violations.size()));
  reg.gauge("churn.final_violations", "churn")
      .set(static_cast<double>(violations.size()));
  sampler.sample();

  for (const std::string& v : violations) {
    std::printf("  VIOLATION [%zu hosts]: %s\n", n_hosts, v.c_str());
  }

  result.violations = violations.size();
  result.rehomes = engine.stats().rehomes;
  const auto& st = engine.stats();
  const std::uint64_t resolved = st.connects_ok + st.connects_failed;
  result.connect_success =
      resolved > 0 ? static_cast<double>(st.connects_ok) / static_cast<double>(resolved)
                   : 0.0;
  if (const auto* h = reg.find_histogram("churn.converge_ms", "churn")) {
    result.converge_p95_ms = h->percentile(95);
  }
  if (const auto* h = reg.find_histogram("overlay.rehome_ms", "fleet")) {
    result.rehome_p95_ms = h->percentile(95);
  }
  if (const auto* h = reg.find_histogram("can.query_hops")) {
    result.query_hops_p95 = h->percentile(95);
  }

  benchx::append_metrics_line(sim, "churn-" + std::to_string(n_hosts), seed);
  benchx::append_profile_line("churn-" + std::to_string(n_hosts), seed);
  const auto& obs = benchx::obs_options();
  if (!obs.series_out.empty()) {
    sampler.write_jsonl(numbered_path(obs.series_out, tier_index));
  }
  if (!obs.trace_out.empty()) {
    sim.tracer().write_chrome_json(numbered_path(obs.trace_out, tier_index));
  }
  return result;
}

constexpr char kUsage[] =
    "usage: bench_churn_scale [--tiers N[,N...]] [--seed S] [observability flags]\n"
    "  --tiers  fleet sizes to run, comma-separated (default 1000,5000,10000)\n"
    "  --seed   simulation seed (default 2026)\n"
    "  plus --metrics-out, --series-out, --trace-out, ... (bench/harness.hpp)\n";

struct Args {
  std::uint64_t seed{2026};
  std::vector<std::size_t> tiers{1000, 5000, 10000};
};

std::vector<std::size_t> parse_tiers(const std::string& spec) {
  std::vector<std::size_t> tiers;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok = spec.substr(pos, comma - pos);
    if (!tok.empty()) tiers.push_back(std::strtoull(tok.c_str(), nullptr, 10));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return tiers;
}

/// Every flag takes a value, as "--flag value" or "--flag=value".
/// --help prints the usage and exits 0; an unknown flag or a missing
/// value exits 2 before any tier runs.
Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const bool known = name == "--tiers" || name == "--seed" || benchx::is_obs_flag(name);
    const char* value = nullptr;
    if (eq != std::string::npos) {
      value = argv[i] + eq + 1;
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (!known || value == nullptr) {
      std::fprintf(stderr, "bench_churn_scale: %s '%s'\n%s",
                   known ? "missing value for" : "unknown argument", arg.c_str(), kUsage);
      std::exit(2);
    }
    if (name == "--tiers") args.tiers = parse_tiers(value);
    if (name == "--seed") args.seed = std::strtoull(value, nullptr, 10);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto [seed, tiers] = parse_args(argc, argv);
  benchx::obs_init(argc, argv);
  benchx::banner(
      "Churn at scale — sharded rendezvous under continuous membership churn",
      "4-shard fleet + per-shard relay; Trautwein NAT mix; shard rv1 killed at "
      "180 s, restarted at 240 s; churn stops at 420 s; invariants checked at "
      "620 s (seed " + std::to_string(seed) + ").");

  std::vector<TierResult> results;
  int tier_index = 1;
  std::size_t total_violations = 0;
  for (const std::size_t n : tiers) {
    std::printf("\n-- tier: %zu hosts --\n", n);
    results.push_back(run_tier(n, seed, tier_index++));
    total_violations += results.back().violations;
  }

  TextTable table{"Churn convergence by population size"};
  table.header({"Hosts", "Connect success", "Converge p95 (ms)", "Re-homes",
                "Re-home p95 (ms)", "CAN query hops p95", "Violations"});
  for (const TierResult& r : results) {
    table.row({std::to_string(r.hosts), fmt_f(r.connect_success * 100, 1) + "%",
               fmt_f(r.converge_p95_ms, 0), std::to_string(r.rehomes),
               fmt_f(r.rehome_p95_ms, 0), fmt_f(r.query_hops_p95, 1),
               std::to_string(r.violations)});
  }
  table.print();

  std::printf(
      "\nShape check: every surviving host re-registers (re-homing around the\n"
      "shard ring when rv1 dies) within the convergence deadline, departed\n"
      "hosts leave no trace past the reclaim deadline, and the live shards'\n"
      "CAN zones tile the space — zero violations at every tier.\n");
  return total_violations > 125 ? 125 : static_cast<int>(total_violations);
}
