// Benchmark driver: runs one repetition of one workload of the repository
// benchmark and prints one JSON document of raw measurements that run.py
// turns into the end-to-end and per-layer metrics (see README.md).
//
//   wavbench_driver --workload <churn-2k|http-mesh|migrate-bulk>
//                   --seed <n> --variant <i> --trace <0|1>
//
// One process runs one repetition: it builds a fresh world from the seed
// (the timed, cold set-up), runs the workload's fixed simulated span
// (timed, with the profiler on when --trace is 1) and checks the outcome.
// A workload has one or more variants of its scenario: churn-2k runs its
// fleet in two CAN layouts, the others have one. run.py starts one
// process per repetition, so no repetition inherits another's heap, and
// merges them.
//
// No probes are added to the program. The driver only times its own
// calls into public functions (world build, deploy, run_until in fixed
// simulated slices, ChurnEngine start/stop), reads the obs::Profiler
// categories (1-in-16 sampled) on profiled repetitions, and reads the
// always-on MetricsRegistry.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/http.hpp"
#include "chaos/chaos_controller.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "churn/churn.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "net/frame_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "overlay/host_agent.hpp"
#include "overlay/rendezvous.hpp"
#include "relay/relay_server.hpp"
#include "stack/icmp.hpp"
#include "vm/migration.hpp"

namespace {

using namespace wav;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::string fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quoted(key) + ":" + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, obs::json_double(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  JsonObject& flag(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  static std::string quoted(const std::string& s) { return "\"" + obs::json_escape(s) + "\""; }

  std::string body_;
};

template <typename T, typename F>
std::string json_array(const std::vector<T>& items, F&& to_json) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + to_json(items[i]);
  }
  return out + "]";
}

/// What one repetition produced beyond its host timings.
struct Outcome {
  std::map<std::string, bool> checks;     // correctness checks, all must hold
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, double> modelled;  // simulated-time results
};

/// One workload world. build() and deploy() are the timed set-up; run()
/// is the timed simulated span; finish() runs untimed post-span checks.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void build() = 0;
  virtual void deploy() = 0;
  virtual void run() = 0;
  virtual Outcome finish() = 0;
  virtual sim::Simulation& sim() = 0;

  [[nodiscard]] std::size_t pending_max() const noexcept { return pending_max_; }
  [[nodiscard]] const std::map<std::string, double>& phase_wall_s() const noexcept {
    return phases_;
  }
  [[nodiscard]] const std::vector<std::pair<double, double>>& rss_slices() const noexcept {
    return rss_slices_;
  }

 protected:
  /// Runs to `end` in fixed simulated slices, recording the event-queue
  /// high-water mark at every slice boundary.
  void run_sliced(TimePoint end, Duration slice, const std::function<void()>& at_slice = {}) {
    sim::Simulation& s = sim();
    while (s.now() < end) {
      TimePoint next = s.now() + slice;
      if (end < next) next = end;
      s.run_until(next);
      pending_max_ = std::max(pending_max_, s.pending_events());
      if (at_slice) at_slice();
    }
  }

  /// run_sliced() timed as one named phase.
  void run_phase(const std::string& name, TimePoint end, Duration slice) {
    const auto t0 = Clock::now();
    run_sliced(end, slice);
    phases_[name] = seconds_since(t0);
  }

  std::size_t pending_max_{0};
  std::map<std::string, double> phases_;
  std::vector<std::pair<double, double>> rss_slices_;  // (requests served, peak RSS KB)
};

// --- churn-2k ---------------------------------------------------------------
//
// The bench_churn_scale world at 2 000 hosts: a four-shard rendezvous
// fleet with one relay per shard, hosts with declared NAT types from the
// Trautwein mix, shard rv1 killed at 180 s and restarted at 240 s, churn
// running for 420 s from 3 s, and an invariant sweep at 620 s. Control
// plane only: the hosts send no data frames.
//
// The shards' CAN zones follow from their join points, at boot and when
// rv1 rejoins. Four shards either split the space into quadrants or
// leave one shard with half of it, and with some skewed layouts the same
// events cost 40-60 % more host time, all of the difference in can/query.
// Left to the seed, the layout would split the seeds into two groups of
// host time. So the workload has two variants, each with one pinned
// layout: the join points come from a constant stream per variant, and
// the seed drives everything else (the hosts' NAT types and attributes,
// sessions, arrivals, jitter).
class ChurnWorkload final : public Workload {
 public:
  static constexpr std::size_t kHosts = 2000;
  static constexpr std::size_t kShards = 4;
  static constexpr std::uint16_t kRelayPort = 5300;
  // Fleet streams. Of streams 1-8, stream 2 is the first that gives
  // quadrants both at boot and after rv1 rejoins (variant 0), and stream
  // 8 the first that leaves a shard with half the space both times and
  // falls in the slow group (variant 1). The boot_zone_share and
  // rejoin_zone_share modelled outputs record the layout.
  static constexpr std::uint64_t kFleetSeeds[] = {2, 8};

  ChurnWorkload(std::uint64_t seed, std::size_t variant)
      : seed_(seed), fleet_seed_(kFleetSeeds[variant]), sim_(seed), network_(sim_),
        wan_(network_) {}

  sim::Simulation& sim() override { return sim_; }

  void build() override {
    for (std::size_t s = 0; s < kShards; ++s) {
      rv_nodes_.push_back(&wan_.add_public_host("rv" + std::to_string(s)));
    }
    std::vector<net::Endpoint> relay_eps;
    for (auto* node : rv_nodes_) relay_eps.push_back({node->primary_address(), kRelayPort});
    for (auto* node : rv_nodes_) {
      overlay::RendezvousServer::Config cfg;
      cfg.relays = relay_eps;
      shards_.push_back(std::make_unique<overlay::RendezvousServer>(*node, cfg));
    }
    for (const auto& shard : shards_) shard_eps_.push_back(shard->host_endpoint());
    for (std::size_t s = 0; s < kShards; ++s) {
      std::vector<net::Endpoint> peers;
      for (std::size_t t = 0; t < kShards; ++t) {
        if (t != s) peers.push_back(shard_eps_[t]);
      }
      shards_[s]->set_shard_peers(std::move(peers));
    }
    for (auto& shard : shards_) {
      relay::RelayServer::Config cfg;
      cfg.port = kRelayPort;
      cfg.max_channels = kHosts;  // provisioned for the population, as in the bench
      relays_.push_back(std::make_unique<relay::RelayServer>(shard->udp(), cfg));
    }

    plan_.nat_mix = churn::NatMix::trautwein_global();
    engine_ = std::make_unique<churn::ChurnEngine>(sim_, plan_);
    agents_.reserve(kHosts);
    for (std::size_t i = 0; i < kHosts; ++i) {
      const std::string name = "h" + std::to_string(i + 1);
      fabric::HostNode& node = wan_.add_public_host(name);
      overlay::HostAgent::Config cfg;
      cfg.name = name;
      cfg.rendezvous_shards = shard_eps_;
      cfg.nat_type = plan_.nat_mix.sample(sim_.rng());
      cfg.attributes = {sim_.rng().uniform(), sim_.rng().uniform()};
      cfg.metrics_instance = "fleet";
      cfg.repunch_give_up = 4;
      agents_.push_back(std::make_unique<overlay::HostAgent>(node, cfg));
      engine_->add_host(*agents_.back());
    }

    engine_->attach(checker_);
    checker_.expect_can_coverage(2);
    for (auto& shard : shards_) checker_.add_rendezvous(*shard);
    for (auto& relay_srv : relays_) checker_.add_relay(*relay_srv);
    controller_ = std::make_unique<chaos::ChaosController>(sim_);
    controller_->set_wan(wan_);
  }

  /// CAN bootstrap: shard 0 founds the space, the others join, splits settle.
  void deploy() override {
    for (std::size_t s = 0; s < kShards; ++s) {
      controller_->add_rendezvous("rv" + std::to_string(s), *shards_[s],
                                  shards_[0]->can_endpoint());
    }
    use_fleet_stream();
    shards_[0]->bootstrap();
    for (std::size_t s = 1; s < kShards; ++s) shards_[s]->join(shards_[0]->can_endpoint());
    sim_.run_for(seconds(3));
    boot_zone_share_ = largest_zone_share();
    use_workload_stream(1);
    chaos::FaultPlan faults;
    faults.rendezvous_crash(TimePoint{kCrashAt}, "rv1")
        .rendezvous_restart(TimePoint{kRestartAt}, "rv1");
    controller_->schedule(faults);
    // rv1 rejoins the CAN at a point drawn when it restarts: draw it from
    // the fleet stream too (the fault event runs between these two).
    sim_.schedule_at(TimePoint{kRestartAt} - nanoseconds(1), [this] { use_fleet_stream(); });
    sim_.schedule_at(TimePoint{kRestartAt} + nanoseconds(1),
                     [this] { use_workload_stream(2); });
  }

  /// The bench_churn_scale timeline: churn starts once the CAN settled
  /// (3 s) and stops kChurnStop later; the shard outage and the final
  /// sweep sit at absolute times.
  void run() override {
    engine_->start();
    const TimePoint stop_at = sim_.now() + kChurnStop;
    sim_.schedule_after(kChurnStop, [this] { engine_->stop(); });
    run_phase("ramp", TimePoint{kCrashAt}, seconds(10));
    run_phase("outage", TimePoint{kRestartAt}, seconds(10));
    run_phase("recovery", stop_at, seconds(10));
    rejoin_zone_share_ = largest_zone_share();
    run_phase("quiesce", TimePoint{kEnd}, seconds(10));
  }

  Outcome finish() override {
    Outcome out;
    const std::vector<std::string> violations = checker_.violations();
    for (const std::string& v : violations) std::fprintf(stderr, "violation: %s\n", v.c_str());
    out.checks["invariant_violations_zero"] = violations.empty();
    const auto& st = engine_->stats();
    // Operations are host sessions and dials. A session is an arrival
    // that must register and later be reclaimed; each final invariant
    // violation names one that did not. A dial the protocol resolves as
    // failed is a modelled outcome (connect_success); a dial that never
    // resolves is an error.
    const std::uint64_t unresolved = st.connects_attempted - st.connects_ok - st.connects_failed;
    out.attempted = st.arrivals + st.connects_attempted;
    out.failed = violations.size() + unresolved;
    out.checks["dials_attempted"] = st.connects_attempted > 0;
    out.checks["every_dial_resolved"] = unresolved == 0;
    out.modelled["dials_attempted"] = static_cast<double>(st.connects_attempted);
    out.modelled["dials_ok"] = static_cast<double>(st.connects_ok);
    out.modelled["dials_failed"] = static_cast<double>(st.connects_failed);
    out.modelled["rehomes"] = static_cast<double>(st.rehomes);
    out.modelled["boot_zone_share"] = boot_zone_share_;
    out.modelled["rejoin_zone_share"] = rejoin_zone_share_;
    return out;
  }

 private:
  /// The largest share of the CAN space one shard owns: 0.25 when the
  /// four shards split it evenly.
  [[nodiscard]] double largest_zone_share() const {
    double share = 0;
    for (const auto& shard : shards_) share = std::max(share, shard->can_node().zone().volume());
    return share;
  }

  void use_fleet_stream() { sim_.rng() = Rng{fleet_seed_}; }
  void use_workload_stream(std::uint64_t phase) {
    sim_.rng() = Rng{seed_ * 0x9E3779B97F4A7C15ULL + phase};
  }

  static constexpr Duration kCrashAt = seconds(180);
  static constexpr Duration kRestartAt = seconds(240);
  static constexpr Duration kChurnStop = seconds(420);
  static constexpr Duration kEnd = seconds(620);

  std::uint64_t seed_;
  std::uint64_t fleet_seed_;
  double boot_zone_share_{0};
  double rejoin_zone_share_{0};
  sim::Simulation sim_;
  fabric::Network network_;
  fabric::Wan wan_;
  std::vector<fabric::HostNode*> rv_nodes_;
  std::vector<std::unique_ptr<overlay::RendezvousServer>> shards_;
  std::vector<net::Endpoint> shard_eps_;
  std::vector<std::unique_ptr<relay::RelayServer>> relays_;
  churn::ChurnPlan plan_;
  std::unique_ptr<churn::ChurnEngine> engine_;
  std::vector<std::unique_ptr<overlay::HostAgent>> agents_;
  chaos::InvariantChecker checker_;
  std::unique_ptr<chaos::ChaosController> controller_;
};

// --- http-mesh --------------------------------------------------------------
//
// 16 single-host NAT'd sites on the WAVNet plane with a full tunnel mesh.
// Every host serves one resource and runs a closed-loop ApacheBench
// against one peer (a seeded derangement, so every server has exactly
// one client). Resource sizes are 16 log-spaced values from 1 KiB to
// 64 KiB, permuted over the hosts by the seed. With 16 workers per
// client the servers of the largest resources saturate and queue.
class HttpWorkload final : public Workload {
 public:
  static constexpr std::size_t kHosts = 16;
  static constexpr std::size_t kConcurrency = 16;
  static constexpr std::uint16_t kPort = 80;
  static constexpr Duration kSpan = seconds(12);

  explicit HttpWorkload(std::uint64_t seed)
      : world_(benchx::Plane::kWavnet, seed), inputs_(seed ^ 0x6874747055ULL) {}

  sim::Simulation& sim() override { return world_.sim(); }

  void build() override {
    world_.build_emulated(kHosts, megabits_per_sec(100), milliseconds(40));
    names_ = world_.host_names();
    for (std::size_t k = 0; k < kHosts; ++k) {
      const double kib = std::pow(2.0, 6.0 * static_cast<double>(k) /
                                           static_cast<double>(kHosts - 1));
      sizes_.push_back(static_cast<std::uint64_t>(std::lround(kib * 1024.0)));
    }
    inputs_.shuffle(std::span<std::uint64_t>(sizes_));
    // Derangement: shuffle until no host targets itself.
    peer_.resize(kHosts);
    for (std::size_t i = 0; i < kHosts; ++i) peer_[i] = i;
    do {
      inputs_.shuffle(std::span<std::size_t>(peer_));
    } while ([&] {
      for (std::size_t i = 0; i < kHosts; ++i) {
        if (peer_[i] == i) return true;
      }
      return false;
    }());
  }

  void deploy() override {
    world_.deploy();
    for (std::size_t i = 0; i < kHosts; ++i) {
      auto& host = world_.host(names_[i]);
      servers_.push_back(std::make_unique<apps::HttpServer>(host.tcp(), kPort));
      servers_.back()->add_resource("/r", ByteSize{sizes_[i]});
    }
  }

  void run() override {
    for (std::size_t i = 0; i < kHosts; ++i) {
      apps::ApacheBench::Config cfg;
      cfg.concurrency = kConcurrency;
      cfg.total_requests = 0;
      cfg.duration = kSpan;
      cfg.path = "/r";
      cfg.port = kPort;
      auto& client = world_.host(names_[i]);
      auto& server = world_.host(names_[peer_[i]]);
      clients_.push_back(
          std::make_unique<apps::ApacheBench>(client.tcp(), server.address(), cfg));
    }
    for (auto& ab : clients_) ab->start();
    const TimePoint end = sim().now() + kSpan;
    run_sliced(end, seconds(1), [this] {
      double served = 0;
      for (const auto& srv : servers_) served += static_cast<double>(srv->stats().requests_served);
      rss_slices_.emplace_back(served, static_cast<double>(peak_rss_kb()));
    });
    for (auto& ab : clients_) ab->stop();
  }

  Outcome finish() override {
    Outcome out;
    SampleSet latency;
    std::uint64_t completed = 0;
    bool every_client_served = true;
    for (const auto& ab : clients_) {
      const apps::ApacheBench::Report r = ab->report();
      completed += r.completed;
      out.failed += r.failed;
      every_client_served = every_client_served && r.completed > 0;
      for (const double ms : r.request_ms.samples()) latency.add(ms);
    }
    out.attempted = completed + out.failed;
    // ApacheBench counts a request complete only once the whole
    // Content-Length body arrived; a short body is a failed request.
    out.checks["every_body_complete"] = out.failed == 0;
    out.checks["every_client_served"] = every_client_served;
    out.checks["latency_not_degenerate"] =
        latency.count() > 0 && latency.percentile(99) > latency.percentile(50);
    out.modelled["requests"] = static_cast<double>(completed);
    out.modelled["req_p50_ms"] = latency.empty() ? 0.0 : latency.percentile(50);
    out.modelled["req_p99_ms"] = latency.empty() ? 0.0 : latency.percentile(99);
    out.modelled["req_per_s"] = static_cast<double>(completed) / to_seconds(kSpan);
    return out;
  }

 private:
  benchx::World world_;
  Rng inputs_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> sizes_;
  std::vector<std::size_t> peer_;
  std::vector<std::unique_ptr<apps::HttpServer>> servers_;
  std::vector<std::unique_ptr<apps::ApacheBench>> clients_;
};

// --- migrate-bulk -------------------------------------------------------------
//
// The paper's Table I testbed on the WAVNet plane with four concurrent
// 512 MiB pre-copy live migrations (OffCam, Sinica, AIST, SIAT -> HKU2),
// each on its own migration port. Each guest's dirty rate is drawn from
// the seed within +-10 % of the Table V setting. After the last
// migration resumes, HKU1 pings every guest at its new home.
class MigrateWorkload final : public Workload {
 public:
  static constexpr const char* kSources[] = {"OffCam", "Sinica", "AIST", "SIAT"};
  static constexpr std::size_t kVms = 4;

  explicit MigrateWorkload(std::uint64_t seed)
      : world_(benchx::Plane::kWavnet, seed), inputs_(seed ^ 0x6d69677261ULL) {}

  sim::Simulation& sim() override { return world_.sim(); }

  void build() override { world_.build_paper_testbed(); }

  void deploy() override {
    world_.deploy();
    for (std::size_t i = 0; i < kVms; ++i) {
      vm::VmConfig cfg;
      cfg.name = std::string("vm-") + kSources[i];
      cfg.memory = mebibytes(512);
      cfg.virtual_ip = net::Ipv4Address::from_octets(10, 10, 0, static_cast<std::uint8_t>(100 + i));
      cfg.hot_fraction = 0.02;
      cfg.dirty_pages_per_sec = 250.0 * inputs_.uniform(0.9, 1.1);
      vms_.push_back(std::make_unique<vm::VirtualMachine>(sim(), cfg));
      world_.attach_vm(*vms_.back(), kSources[i]);
    }
  }

  void run() override {
    results_.resize(kVms);
    const TimePoint start = sim().now();
    for (std::size_t i = 0; i < kVms; ++i) {
      vm::MigrationConfig cfg;
      cfg.port = static_cast<std::uint16_t>(8002 + i);  // one listener per migration
      tasks_.push_back(world_.migrate(*vms_[i], kSources[i], "HKU2", cfg,
                                      [this, i](const vm::MigrationResult& r) {
                                        results_[i] = r;
                                      }));
    }
    // Slices until every migration reports (bounded far past the
    // slowest Table V time).
    const TimePoint limit = start + seconds(3000);
    while (sim().now() < limit && !all_done()) {
      run_sliced(sim().now() + seconds(5), seconds(5));
    }
  }

  Outcome finish() override {
    Outcome out;
    // Post-resume reachability: HKU1 pings every guest at HKU2.
    stack::IcmpLayer icmp{world_.host("HKU1").stack()};
    const std::uint16_t id = icmp.allocate_id();
    std::vector<bool> answered(kVms, false);
    icmp.on_reply(id, [&](net::Ipv4Address from, const net::IcmpMessage&) {
      for (std::size_t i = 0; i < kVms; ++i) {
        if (vms_[i]->ip() == from) answered[i] = true;
      }
    });
    for (std::size_t i = 0; i < kVms; ++i) {
      icmp.send_echo_request(vms_[i]->ip(), id, static_cast<std::uint16_t>(i + 1), 56);
    }
    sim().run_for(seconds(3));
    icmp.remove_handler(id);

    double makespan = 0;
    double downtime = 0;
    double rounds = 0;
    double resent = 0;
    double memory = 0;
    bool all_ok = true;
    bool all_answer = true;
    for (std::size_t i = 0; i < kVms; ++i) {
      const auto& r = results_[i];
      const bool ok = r.has_value() && r->ok;
      all_ok = all_ok && ok;
      all_answer = all_answer && answered[i];
      out.attempted += 2;  // the migration and the post-resume ping
      out.failed += (ok ? 0 : 1) + (answered[i] ? 0 : 1);
      if (!r) continue;
      makespan = std::max(makespan, to_seconds(r->total_time));
      downtime = std::max(downtime, to_milliseconds(r->downtime));
      rounds += r->rounds;
      resent += static_cast<double>(r->bytes_transferred.bytes);
      memory += static_cast<double>(vms_[i]->config().memory.bytes);
    }
    out.checks["every_migration_ok"] = all_ok;
    out.checks["every_vm_answers_ping"] = all_answer;
    out.modelled["migration_s"] = makespan;
    out.modelled["downtime_ms"] = downtime;
    out.modelled["rounds"] = rounds;
    out.modelled["resend_ratio"] = memory > 0 ? resent / memory : 0.0;
    return out;
  }

 private:
  [[nodiscard]] bool all_done() const {
    return std::all_of(results_.begin(), results_.end(),
                       [](const auto& r) { return r.has_value(); });
  }

  benchx::World world_;
  Rng inputs_;
  std::vector<std::unique_ptr<vm::VirtualMachine>> vms_;
  std::vector<benchx::World::MigrationHandles> tasks_;
  std::vector<std::optional<vm::MigrationResult>> results_;
};

/// How many variants of its scenario a workload has; 0 for an unknown name.
std::size_t variant_count(const std::string& name) {
  if (name == "churn-2k") return std::size(ChurnWorkload::kFleetSeeds);
  if (name == "http-mesh" || name == "migrate-bulk") return 1;
  return 0;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        std::size_t variant) {
  if (name == "churn-2k") return std::make_unique<ChurnWorkload>(seed, variant);
  if (name == "http-mesh") return std::make_unique<HttpWorkload>(seed);
  return std::make_unique<MigrateWorkload>(seed);
}

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  std::size_t variant{0};
  bool trace{false};
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "wavbench_driver: %s\n"
               "usage: wavbench_driver --workload <churn-2k|http-mesh|migrate-bulk> "
               "--seed <n> --variant <i> --trace <0|1>\n",
               error.c_str());
  std::exit(2);
}

/// Strict parser: every flag is required, takes a value and appears once;
/// anything else is an error.
Options parse(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + arg);
    }
    if (arg != "--workload" && arg != "--seed" && arg != "--variant" && arg != "--trace") {
      usage("unknown flag " + arg);
    }
    if (!values.emplace(arg, value).second) usage("repeated flag " + arg);
  }
  for (const char* flag : {"--workload", "--seed", "--variant", "--trace"}) {
    if (!values.count(flag)) usage(std::string("missing ") + flag);
  }
  const auto integer = [&](const std::string& flag) {
    const std::string& v = values[flag];
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || end == nullptr || *end != '\0') {
      usage("bad value for " + flag + ": " + v);
    }
    return static_cast<std::uint64_t>(n);
  };
  Options opt;
  opt.workload = values["--workload"];
  const std::size_t variants = variant_count(opt.workload);
  if (variants == 0) usage("unknown workload " + opt.workload);
  opt.seed = integer("--seed");
  const std::uint64_t variant = integer("--variant");
  if (variant >= variants) {
    usage(opt.workload + " has " + std::to_string(variants) + " variant(s); --variant " +
          std::to_string(variant) + " is out of range");
  }
  opt.variant = static_cast<std::size_t>(variant);
  const std::uint64_t trace = integer("--trace");
  if (trace > 1) usage("--trace must be 0 or 1");
  opt.trace = trace == 1;
  return opt;
}

struct Rep {
  bool traced{false};
  double build_s{0};
  double deploy_s{0};
  double wall_s{0};
  std::uint64_t events{0};
  std::size_t pending_max{0};
  std::uint64_t pool_acquired{0};
  std::uint64_t pool_reused{0};
  long peak_rss_kb{0};  // the process's high-water mark when the span ended
  std::map<std::string, double> phases;
  std::vector<std::pair<double, double>> rss_slices;
  std::string digest;
  Outcome outcome;
};

/// One set-up and one timed span.
Rep run_once(const Options& opt, std::string& registry) {
  Rep rep;
  rep.traced = opt.trace;
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed, opt.variant);
  auto t = Clock::now();
  w->build();
  rep.build_s = seconds_since(t);
  t = Clock::now();
  w->deploy();
  rep.deploy_s = seconds_since(t);

  obs::Profiler& prof = obs::Profiler::instance();
  const net::FramePool& pool = net::FramePool::local();
  const std::uint64_t acquired0 = pool.frames_acquired();
  const std::uint64_t reused0 = pool.blocks_reused();
  const std::uint64_t events0 = w->sim().events_executed();
  prof.set_enabled(opt.trace);
  t = Clock::now();
  w->run();
  rep.wall_s = seconds_since(t);
  prof.set_enabled(false);
  rep.events = w->sim().events_executed() - events0;
  rep.pool_acquired = pool.frames_acquired() - acquired0;
  rep.pool_reused = pool.blocks_reused() - reused0;
  rep.peak_rss_kb = peak_rss_kb();
  rep.pending_max = w->pending_max();
  rep.phases = w->phase_wall_s();
  rep.rss_slices = w->rss_slices();
  rep.outcome = w->finish();
  const std::string dump = w->sim().metrics().to_json();
  rep.digest = fnv1a64(dump);
  registry = dump;
  return rep;
}

std::string rep_json(const Rep& r) {
  JsonObject checks;
  for (const auto& [k, v] : r.outcome.checks) checks.flag(k, v);
  JsonObject modelled;
  for (const auto& [k, v] : r.outcome.modelled) modelled.num(k, v);
  JsonObject phases;
  for (const auto& [k, v] : r.phases) phases.num(k, v);
  return JsonObject{}
      .flag("traced", r.traced)
      .num("build_s", r.build_s)
      .num("deploy_s", r.deploy_s)
      .num("wall_s", r.wall_s)
      .num("events", static_cast<double>(r.events))
      .num("pending_max", static_cast<double>(r.pending_max))
      .num("pool_acquired", static_cast<double>(r.pool_acquired))
      .num("pool_reused", static_cast<double>(r.pool_reused))
      .num("peak_rss_kb", static_cast<double>(r.peak_rss_kb))
      .raw("phase_wall_s", phases.dump())
      .raw("rss_slices", json_array(r.rss_slices,
                                    [](const auto& p) {
                                      return "[" + obs::json_double(p.first) + "," +
                                             obs::json_double(p.second) + "]";
                                    }))
      .str("digest", r.digest)
      .num("attempted", static_cast<double>(r.outcome.attempted))
      .num("failed", static_cast<double>(r.outcome.failed))
      .raw("checks", checks.dump())
      .raw("modelled", modelled.dump())
      .dump();
}

std::string profile_json() {
  const obs::Profiler& prof = obs::Profiler::instance();
  const auto rows = prof.category_rows();
  return JsonObject{}
      .num("sample_period", obs::Profiler::sample_period())
      .num("events_measured", static_cast<double>(prof.events_measured()))
      .num("event_ns", static_cast<double>(prof.event_ns()))
      .raw("categories", json_array(rows,
                                    [](const obs::Profiler::CategoryRow& c) {
                                      return JsonObject{}
                                          .str("name", c.name)
                                          .num("calls", static_cast<double>(c.calls))
                                          .num("self_ns", static_cast<double>(c.self_ns))
                                          .num("total_ns", static_cast<double>(c.total_ns))
                                          .dump();
                                    }))
      .dump();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Rep rep;
  std::string registry;
  try {
    rep = run_once(opt, registry);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wavbench_driver: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  const std::string out =
      JsonObject{}
          .str("workload", opt.workload)
          .num("seed", static_cast<double>(opt.seed))
          .num("variant", static_cast<double>(opt.variant))
          .num("variants", static_cast<double>(variant_count(opt.workload)))
          .flag("trace", opt.trace)
          .str("build_type", WAVBENCH_BUILD_TYPE)
          .str("compiler", WAVBENCH_COMPILER)
          .raw("rep", rep_json(rep))
          .raw("profile", opt.trace ? profile_json() : "null")
          .raw("registry", registry)
          .dump();
  std::printf("%s\n", out.c_str());
  return 0;
}
