#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace wav::benchx {

const char* to_string(Plane plane) noexcept {
  switch (plane) {
    case Plane::kPhysical: return "Physical";
    case Plane::kWavnet: return "WAVNet";
    case Plane::kIpop: return "IPOP";
  }
  return "?";
}

// --- observability sinks ----------------------------------------------------

namespace {

ObsOptions g_obs;
int g_worlds_flushed = 0;    // numbers the per-World trace files
int g_profiles_flushed = 0;  // numbers the per-experiment profile files

/// One row per observability flag: a string sink or a validated numeric
/// option. Adding a sink = adding an ObsOptions member and a row here.
struct FlagDef {
  const char* flag;
  std::string ObsOptions::* str{nullptr};    // string-valued flag
  double ObsOptions::* num{nullptr};         // numeric flag (kept if > 0)
};

constexpr FlagDef kObsFlags[] = {
    {"--metrics-out", &ObsOptions::metrics_out, nullptr},
    {"--trace-out", &ObsOptions::trace_out, nullptr},
    {"--series-out", &ObsOptions::series_out, nullptr},
    {"--health-out", &ObsOptions::health_out, nullptr},
    {"--flows-out", &ObsOptions::flows_out, nullptr},
    {"--hops-out", &ObsOptions::hops_out, nullptr},
    {"--groups-out", &ObsOptions::groups_out, nullptr},
    {"--prof-out", &ObsOptions::prof_out, nullptr},
    {"--sample-interval", nullptr, &ObsOptions::sample_interval_s},
};

}  // namespace

std::string numbered_path(const std::string& path, int run) {
  if (run == 1) return path;
  const std::string suffix = "-" + std::to_string(run);
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  if (!has_ext) return path + suffix;
  return path.substr(0, dot) + suffix + path.substr(dot);
}

void obs_init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& flag) -> const char* {
      if (arg == flag && i + 1 < argc) return argv[++i];
      if (arg.size() > flag.size() + 1 && arg.compare(0, flag.size(), flag) == 0 &&
          arg[flag.size()] == '=') {
        return arg.c_str() + flag.size() + 1;
      }
      return nullptr;
    };
    for (const FlagDef& def : kObsFlags) {
      const char* v = value_of(def.flag);
      if (v == nullptr) continue;
      if (def.str != nullptr) {
        g_obs.*def.str = v;
      } else {
        const double n = std::strtod(v, nullptr);
        if (n > 0) g_obs.*def.num = n;
      }
      break;
    }
  }
  // Start the JSONL append-mode files fresh; Worlds append as they die.
  if (!g_obs.metrics_out.empty()) {
    if (std::FILE* f = std::fopen(g_obs.metrics_out.c_str(), "w")) std::fclose(f);
  }
  if (!g_obs.prof_out.empty()) {
    if (std::FILE* f = std::fopen(g_obs.prof_out.c_str(), "w")) std::fclose(f);
    obs::Profiler::instance().set_enabled(true);
  }
}

bool is_obs_flag(std::string_view name) noexcept {
  for (const FlagDef& def : kObsFlags) {
    if (name == def.flag) return true;
  }
  return false;
}

const ObsOptions& obs_options() noexcept { return g_obs; }

void append_metrics_line(sim::Simulation& sim, const std::string& label,
                         std::uint64_t seed) {
  if (g_obs.metrics_out.empty()) return;
  std::FILE* f = std::fopen(g_obs.metrics_out.c_str(), "a");
  if (f == nullptr) return;
  // Compact the pretty-printed registry dump onto one line so the file
  // stays valid JSONL. Newlines inside string values are escaped by the
  // exporter, so every raw newline here is formatting.
  const std::string pretty = sim.metrics().to_json();
  std::string metrics;
  metrics.reserve(pretty.size());
  bool at_line_start = false;
  for (const char c : pretty) {
    if (c == '\n') {
      at_line_start = true;
      continue;
    }
    if (at_line_start && c == ' ') continue;
    at_line_start = false;
    metrics += c;
  }
  const std::string line = "{\"plane\":\"" + label +
                           "\",\"seed\":" + std::to_string(seed) +
                           ",\"metrics\":" + metrics + "}\n";
  std::fwrite(line.data(), 1, line.size(), f);
  std::fclose(f);
}

void append_profile_line(const std::string& label, std::uint64_t seed) {
  if (g_obs.prof_out.empty()) return;
  obs::Profiler& prof = obs::Profiler::instance();
  const int run = ++g_profiles_flushed;
  if (std::FILE* f = std::fopen(g_obs.prof_out.c_str(), "a")) {
    const std::string line = "{\"plane\":\"" + label +
                             "\",\"seed\":" + std::to_string(seed) +
                             ",\"profile\":" + prof.summary_json() + "}\n";
    std::fwrite(line.data(), 1, line.size(), f);
    std::fclose(f);
  }
  // The folded flamegraph rides alongside: "prof.jsonl" -> "prof.folded",
  // numbered per experiment like every other per-World sink.
  const std::size_t dot = g_obs.prof_out.rfind('.');
  const std::size_t slash = g_obs.prof_out.rfind('/');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  const std::string stem = has_ext ? g_obs.prof_out.substr(0, dot) : g_obs.prof_out;
  prof.write_folded(numbered_path(stem + ".folded", run));
  prof.reset();
}

void World::flush_observability() {
  // Profiles flush on their own counter: profiling composes with any
  // subset of the deterministic sinks (including none).
  append_profile_line(to_string(plane_), seed_);
  if (g_obs.metrics_out.empty() && g_obs.trace_out.empty() &&
      g_obs.series_out.empty() && g_obs.health_out.empty() &&
      g_obs.flows_out.empty() && g_obs.hops_out.empty()) {
    return;
  }
  const int run = ++g_worlds_flushed;
  append_metrics_line(sim_, to_string(plane_), seed_);
  if (!g_obs.trace_out.empty()) {
    sim_.tracer().write_chrome_json(numbered_path(g_obs.trace_out, run));
  }
  if (!g_obs.series_out.empty()) {
    sampler_->write_jsonl(numbered_path(g_obs.series_out, run));
  }
  if (!g_obs.health_out.empty()) {
    health_->write_jsonl(numbered_path(g_obs.health_out, run));
  }
  if (!g_obs.flows_out.empty()) {
    sim_.flows().write_flows_jsonl(numbered_path(g_obs.flows_out, run));
  }
  if (!g_obs.hops_out.empty()) {
    sim_.flows().write_hops_jsonl(numbered_path(g_obs.hops_out, run));
  }
}

stack::IpLayer& Deployed::stack() {
  if (wavnet) return wavnet->stack();
  if (ipop) return ipop->stack();
  return *node;
}

net::Ipv4Address Deployed::address() {
  if (wavnet) return wavnet->virtual_ip();
  if (ipop) return ipop->virtual_ip();
  return node->primary_address();
}

wavnet::SoftwareBridge* Deployed::bridge() {
  if (wavnet) return &wavnet->bridge();
  if (ipop) return &ipop->bridge();
  return nullptr;
}

tcp::TcpLayer& Deployed::tcp() {
  if (!tcp_) tcp_ = std::make_unique<tcp::TcpLayer>(stack());
  return *tcp_;
}

World::World(Plane plane, std::uint64_t seed)
    : plane_(plane),
      seed_(seed),
      sim_(seed),
      network_(sim_),
      wan_(std::make_unique<fabric::Wan>(network_)) {
  const Duration interval = seconds_f(g_obs.sample_interval_s);
  obs::TimeSeriesSampler::Config cfg;
  cfg.interval = interval;
  sampler_ = std::make_unique<obs::TimeSeriesSampler>(
      sim_.metrics(), [this] { return sim_.now(); }, cfg);
  health_ =
      std::make_unique<obs::HealthMonitor>(sim_.metrics(), [this] { return sim_.now(); });
  health_->set_tracer(&sim_.tracer());
  // Constant-period, RNG-free: the telemetry tick adds events but never
  // perturbs protocol behavior, so seeded runs stay reproducible.
  telemetry_timer_ = std::make_unique<sim::PeriodicTimer>(sim_, interval, [this] {
    if (invariants_ != nullptr) {
      g_invariant_violations_->set(static_cast<double>(invariants_->violations().size()));
    }
    sampler_->sample();
    health_->evaluate();
  });
  telemetry_timer_->start();
}

void World::set_invariant_checker(chaos::InvariantChecker* checker) {
  invariants_ = checker;
  if (g_invariant_violations_ == nullptr) {
    g_invariant_violations_ = &sim_.metrics().gauge("chaos.invariant_violations");
  }
}

World::~World() { flush_observability(); }

std::string World::site_of(const std::string& host_name) const {
  const auto it = host_site_.find(host_name);
  if (it == host_site_.end()) throw std::invalid_argument("unknown host " + host_name);
  return it->second;
}

void World::build_paper_testbed() {
  paper_testbed_ = true;
  using P = fabric::PaperTestbed;
  if (plane_ == Plane::kPhysical) {
    // Same sites, rates and paths, but hosts sit directly on the core.
    struct SiteSpec {
      const char* name;
      std::size_t hosts;
      double mbps;
      double gflops;
    };
    static constexpr SiteSpec kSites[] = {
        {P::kHku, 2, 95.0, 4.0},   {P::kOffCam, 1, 90.0, 2.8}, {P::kSiat, 1, 23.0, 2.8},
        {P::kPu, 1, 45.0, 9.6},    {P::kSinica, 1, 47.0, 9.0}, {P::kAist, 1, 60.0, 3.7},
        {P::kSdsc, 1, 30.0, 6.4},
    };
    for (const auto& spec : kSites) {
      fabric::SiteConfig cfg;
      cfg.name = spec.name;
      cfg.host_count = spec.hosts;
      cfg.access_rate = megabits_per_sec(spec.mbps);
      cfg.cpu_gflops = spec.gflops;
      cfg.public_hosts = true;
      wan_->add_site(cfg);
    }
    const std::vector<std::string> names = {P::kHku, P::kOffCam, P::kSiat,  P::kPu,
                                            P::kSinica, P::kAist, P::kSdsc};
    for (std::size_t i = 0; i < names.size(); ++i) {
      for (std::size_t j = i + 1; j < names.size(); ++j) {
        fabric::PairPath path;
        path.one_way =
            milliseconds_f(fabric::paper_rtt_ms(names[i], names[j]) / 2.0 - 0.4);
        path.jitter_stddev = milliseconds_f(0.3);
        wan_->set_path(names[i], names[j], path);
      }
    }
  } else {
    fabric::build_paper_testbed(*wan_);
  }

  auto add_host = [&](const std::string& name, const std::string& site,
                      fabric::HostNode* node, double gflops) {
    Deployed d;
    d.node = node;
    d.gflops = gflops;
    d.virtual_ip = net::Ipv4Address::from_octets(
        10, 10, 0, static_cast<std::uint8_t>(next_vip_++));
    hosts_[name] = std::move(d);
    host_site_[name] = site;
  };
  auto* hku = wan_->site(P::kHku);
  add_host("HKU1", P::kHku, hku->hosts[0], hku->cpu_gflops);
  add_host("HKU2", P::kHku, hku->hosts[1], hku->cpu_gflops);
  for (const char* name :
       {P::kOffCam, P::kSiat, P::kPu, P::kSinica, P::kAist, P::kSdsc}) {
    auto* site = wan_->site(name);
    add_host(name, name, site->hosts[0], site->cpu_gflops);
  }
}

void World::build_emulated(std::size_t n, BitRate access_rate, Duration rtt) {
  for (std::size_t i = 1; i <= n; ++i) {
    fabric::SiteConfig cfg;
    // append(), not "s" + std::to_string(i): GCC 12 at -O3 misreports the
    // latter as an overlapping copy (-Wrestrict).
    cfg.name = std::string("s").append(std::to_string(i));
    cfg.access_rate = access_rate;
    cfg.access_delay = microseconds(100);
    cfg.nat.type = emulated_nat_;
    cfg.public_hosts = plane_ == Plane::kPhysical;
    cfg.cpu_gflops = 4.0;
    auto& site = wan_->add_site(cfg);

    Deployed d;
    d.node = site.hosts[0];
    d.gflops = cfg.cpu_gflops;
    d.virtual_ip = net::Ipv4Address::from_octets(
        10, 10, static_cast<std::uint8_t>(next_vip_ / 200),
        static_cast<std::uint8_t>(next_vip_ % 200 + 10));
    ++next_vip_;
    const std::string name = std::string("h").append(std::to_string(i));
    hosts_[name] = std::move(d);
    host_site_[name] = cfg.name;
  }
  if (plane_ != Plane::kPhysical) wan_->add_public_host("rendezvous");

  fabric::PairPath path;
  path.one_way = rtt / 2 - microseconds(200);
  if (path.one_way < kZeroDuration) path.one_way = microseconds(50);
  wan_->set_default_paths(path);
}

void World::deploy() {
  switch (plane_) {
    case Plane::kPhysical:
      return;  // underlay stacks are ready as soon as the fabric exists
    case Plane::kWavnet:
      deploy_wavnet();
      return;
    case Plane::kIpop:
      deploy_ipop();
      return;
  }
}

void World::deploy_wavnet() {
  auto* rv_host = wan_->public_host("rendezvous");
  if (rv_host == nullptr) rv_host = &wan_->add_public_host("rendezvous");
  overlay::RendezvousServer::Config rv_cfg;
  for (std::size_t i = 0; i < relay_count_; ++i) {
    rv_cfg.relays.push_back({rv_host->primary_address(),
                             static_cast<std::uint16_t>(5300 + i)});
  }
  rendezvous_ = std::make_unique<overlay::RendezvousServer>(*rv_host, rv_cfg);
  // Relays co-host on the rendezvous node: they share its UdpLayer (an
  // IpLayer carries exactly one) and take the ports advertised above.
  for (std::size_t i = 0; i < relay_count_; ++i) {
    relay::RelayServer::Config relay_cfg;
    relay_cfg.port = static_cast<std::uint16_t>(5300 + i);
    relays_.push_back(
        std::make_unique<relay::RelayServer>(rendezvous_->udp(), relay_cfg));
  }
  rendezvous_->bootstrap();

  for (auto& [name, d] : hosts_) {
    wavnet::WavnetHost::Config cfg;
    cfg.agent.name = name;
    cfg.agent.rendezvous = rendezvous_->host_endpoint();
    cfg.virtual_ip = d.virtual_ip;
    d.wavnet = std::make_unique<wavnet::WavnetHost>(*d.node, cfg);
    d.wavnet->start();
  }
  sim_.run_for(seconds(5));

  // Full mesh of direct tunnels (the deployment knows its members).
  std::vector<std::string> names = host_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      auto& a = hosts_[names[i]];
      auto& b = hosts_[names[j]];
      a.wavnet->connect(b.wavnet->agent().self_info());
    }
  }
  sim_.run_for(seconds(15));
  add_default_slos();
}

void World::add_default_slos() {
  // Punch outcomes across the whole deployment: timeouts are the failure
  // arm (each timed-out punch also schedules a backoff retry).
  health_->add_success_rate_rule("punch", "overlay.links_established",
                                 "overlay.punch_timeouts", 0.9, 0.5, 4);
  // Per-agent blackhole detection: once an agent holds established links
  // it must keep hearing CONNECT_PULSEs. 15 s of silence (3 pulse
  // intervals) degrades it; 30 s (the link idle timeout) is critical.
  for (const auto& [name, d] : hosts_) {
    health_->add_progress_rule("agent:" + name, "overlay.connect_pulse_received", name,
                               "overlay.links_active", name, seconds(15), seconds(30));
  }
  // Traversal outcomes across the whole ladder: a connect that exhausts
  // direct punching AND the relay fallback is a hard failure.
  health_->add_success_rate_rule("traversal", "overlay.links_established",
                                 "overlay.connects_failed", 0.9, 0.5, 4);
  if (!relays_.empty()) {
    // Relay allocation health: capacity nacks starve the fallback arm.
    health_->add_success_rate_rule("relay", "relay.allocations",
                                   "relay.alloc_failures", 0.9, 0.5, 4);
  }
  // Registration liveness: the rendezvous table must hold every member.
  health_->add_gauge_floor_rule("rendezvous", "rendezvous.registered_hosts",
                                rendezvous_->host_endpoint().ip.to_string(),
                                static_cast<double>(hosts_.size()), 1.0);
  // Resource discovery latency ceiling over the simulated WAN.
  health_->add_percentile_rule("can", "can.query_latency_ms", {}, 99.0, 500.0, 2000.0,
                               8);
}

void World::deploy_ipop() {
  auto* rv_host = wan_->public_host("rendezvous");
  if (rv_host == nullptr) rv_host = &wan_->add_public_host("rendezvous");
  rendezvous_ = std::make_unique<overlay::RendezvousServer>(*rv_host);
  rendezvous_->bootstrap();

  ipop::IpopOverlay ring{bindings_};
  for (auto& [name, d] : hosts_) {
    ipop::IpopHost::Config cfg;
    cfg.agent.name = name;
    cfg.agent.rendezvous = rendezvous_->host_endpoint();
    cfg.virtual_ip = d.virtual_ip;
    d.ipop = std::make_unique<ipop::IpopHost>(*d.node, bindings_, cfg);
    d.ipop->start();
  }
  sim_.run_for(seconds(5));
  for (auto& [name, d] : hosts_) ring.add(*d.ipop);
  if (ipop_topology_ == IpopTopology::kFullMesh) {
    ring.connect_full_mesh();
  } else {
    ring.connect_ring();
  }
  sim_.run_for(seconds(20));
}

Deployed& World::host(const std::string& name) {
  const auto it = hosts_.find(name);
  if (it == hosts_.end()) throw std::invalid_argument("unknown host " + name);
  return it->second;
}

std::vector<std::string> World::host_names() const {
  std::vector<std::string> names;
  names.reserve(hosts_.size());
  for (const auto& [name, d] : hosts_) names.push_back(name);
  return names;
}

void World::set_site_rate(const std::string& site, BitRate rate) {
  wan_->set_site_rate(site, rate);
}

void World::set_host_site_rate(const std::string& host_name, BitRate rate) {
  wan_->set_site_rate(site_of(host_name), rate);
}

void World::attach_vm(vm::VirtualMachine& vmachine, const std::string& host_name) {
  Deployed& d = host(host_name);
  wavnet::SoftwareBridge* bridge = d.bridge();
  if (bridge == nullptr) {
    throw std::logic_error("VMs require an overlay plane (WAVNet or IPOP)");
  }
  bridge->attach(vmachine.nic());
  vmachine.set_cpu_gflops(d.gflops);
  if (plane_ == Plane::kIpop) {
    d.ipop->bind_local_ip(vmachine.ip());
  } else {
    vmachine.stack().announce_gratuitous_arp();
  }
  sim_.run_for(seconds(1));
}

World::MigrationHandles World::migrate(vm::VirtualMachine& vmachine,
                                       const std::string& from, const std::string& to,
                                       vm::MigrationConfig config,
                                       vm::MigrationTask::DoneHandler done) {
  Deployed& src = host(from);
  Deployed& dst = host(to);
  if (src.bridge() == nullptr || dst.bridge() == nullptr) {
    throw std::logic_error("migration requires an overlay plane");
  }
  MigrationHandles handles;
  handles.task = std::make_unique<vm::MigrationTask>(
      vmachine, *src.bridge(), *dst.bridge(), src.tcp(), dst.tcp(), dst.address(),
      dst.gflops, config, std::move(done));
  handles.task->start();
  return handles;
}

void banner(const std::string& experiment, const std::string& description) {
  std::printf("\n=============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("=============================================================\n");
  std::fflush(stdout);
}

}  // namespace wav::benchx
