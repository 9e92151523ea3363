// Shared experiment harness for the benchmark binaries: builds complete
// worlds (paper Table I testbed or emulated WAN) with one of three data
// planes deployed —
//   kPhysical : hosts sit directly on the Internet; workloads run on the
//               underlay stacks (the paper's "Physical"/"LAN" baselines),
//   kWavnet   : hosts behind NATs, full WAVNet deployment (rendezvous +
//               hole-punched tunnels + WAV-Switch virtual LAN),
//   kIpop     : hosts behind NATs, the IPOP-like ring overlay baseline.
// Workloads address hosts by name and measure on whichever plane is
// active, so each bench runs the same code three times.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "chaos/invariants.hpp"
#include "fabric/wan.hpp"
#include "ipop/ipop.hpp"
#include "obs/health.hpp"
#include "obs/timeseries.hpp"
#include "overlay/rendezvous.hpp"
#include "relay/relay_server.hpp"
#include "vm/migration.hpp"
#include "wavnet/host.hpp"

namespace wav::benchx {

enum class Plane { kPhysical, kWavnet, kIpop };

[[nodiscard]] const char* to_string(Plane plane) noexcept;

/// Observability sinks shared by all bench binaries.
///
/// Every bench main() forwards its argv to obs_init(), which understands
///   --metrics-out <file>   append one JSON object per World (JSONL; each
///                          line carries the plane label, the seed, and
///                          the full metrics-registry dump), and
///   --trace-out <file>     write each World's Chrome trace_event JSON
///                          (the first World gets the exact path so it
///                          loads straight into Perfetto; later Worlds
///                          get "<stem>-2<ext>", "<stem>-3<ext>", ...),
///   --series-out <file>    write each World's sampled time-series JSONL
///                          (numbered like --trace-out),
///   --health-out <file>    write each World's SLO health transitions
///                          JSONL (numbered like --trace-out),
///   --flows-out <file>     write each World's sampled FlowRecords JSONL
///                          (NetFlow-style aggregates; numbered like
///                          --trace-out),
///   --hops-out <file>      write each World's per-hop flow timelines
///                          JSONL (numbered like --trace-out),
///   --groups-out <file>    write the private-group membership event log
///                          JSONL (epoch adoptions, handshakes,
///                          revocation teardowns — vpg::GroupLog; the
///                          bench wires its log and writes via
///                          numbered_path like the other per-World
///                          sinks), and
///   --prof-out <file>      enable the wall-clock profiler
///                          (obs/profiler.hpp) and append one profile
///                          summary JSON line per World; a folded-stack
///                          flamegraph file rides alongside as
///                          "<stem>.folded" (numbered like --trace-out).
///                          Profiles carry wall-clock data only — the
///                          deterministic exports above stay
///                          byte-identical with or without this flag, and
///   --sample-interval <s>  telemetry sampling cadence in simulated
///                          seconds (default 1).
/// All flags also accept the --flag=value spelling. Worlds flush on
/// destruction, so a bench needs no per-experiment export code.
///
/// Flags are declared in one table (kObsFlags in harness.cpp): a new sink
/// is one added ObsOptions member plus one table row.
struct ObsOptions {
  std::string metrics_out;  // empty = disabled
  std::string trace_out;    // empty = disabled
  std::string series_out;   // empty = disabled
  std::string health_out;   // empty = disabled
  std::string flows_out;    // empty = disabled
  std::string hops_out;     // empty = disabled
  std::string groups_out;   // empty = disabled
  std::string prof_out;     // empty = profiler disabled
  double sample_interval_s{1.0};
};

/// Parses the observability flags out of argv (unrecognised arguments are
/// ignored) and installs the sinks for every World constructed afterwards.
void obs_init(int argc, char** argv);
/// True if `name` (e.g. "--metrics-out") is one of the flags obs_init()
/// understands; benches that reject unknown flags let these through.
[[nodiscard]] bool is_obs_flag(std::string_view name) noexcept;

[[nodiscard]] const ObsOptions& obs_options() noexcept;

/// Multi-run export numbering shared by every per-World sink: run 1 keeps
/// the exact path ("trace.json"); run N>=2 becomes "trace-N.json" (the
/// suffix lands before the extension if there is one).
[[nodiscard]] std::string numbered_path(const std::string& path, int run);

/// A deployed host on the measured plane.
struct Deployed {
  fabric::HostNode* node{nullptr};
  std::unique_ptr<wavnet::WavnetHost> wavnet;  // plane == kWavnet
  std::unique_ptr<ipop::IpopHost> ipop;        // plane == kIpop
  net::Ipv4Address virtual_ip{};
  double gflops{8.0};

  /// The IP stack workloads bind to on the active plane.
  [[nodiscard]] stack::IpLayer& stack();
  /// The address peers dial on the active plane.
  [[nodiscard]] net::Ipv4Address address();
  /// The local virtual bridge (nullptr on the physical plane).
  [[nodiscard]] wavnet::SoftwareBridge* bridge();
  /// The host's single shared TCP layer on the active plane (created on
  /// first use). A stack supports exactly one TcpLayer; everything —
  /// workloads and migration alike — must go through this one.
  [[nodiscard]] tcp::TcpLayer& tcp();

 private:
  std::unique_ptr<tcp::TcpLayer> tcp_;
};

class World {
 public:
  World(Plane plane, std::uint64_t seed);
  ~World();

  /// Builds the paper's seven-site Table I testbed; host names: "HKU1",
  /// "HKU2", "OffCam", "SIAT", "PU", "Sinica", "AIST", "SDSC".
  void build_paper_testbed();

  /// Builds an emulated WAN: `n` single-host sites ("h1".."hN") with the
  /// given access rate and uniform pairwise RTT.
  void build_emulated(std::size_t n, BitRate access_rate, Duration rtt);

  /// Deploys the plane (registration, hole punching, mesh/ring) and runs
  /// the simulation until the control plane settles.
  void deploy();

  [[nodiscard]] Plane plane() const noexcept { return plane_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] fabric::Wan& wan() noexcept { return *wan_; }
  [[nodiscard]] Deployed& host(const std::string& name);
  [[nodiscard]] std::vector<std::string> host_names() const;
  [[nodiscard]] ipop::BindingTable& bindings() noexcept { return bindings_; }
  /// The deployed rendezvous server (WAVNet plane only; null otherwise).
  /// Chaos experiments crash/restart it and verify re-registration.
  [[nodiscard]] overlay::RendezvousServer* rendezvous() noexcept {
    return rendezvous_.get();
  }

  /// Before deploy(): co-hosts `count` TURN-style relay servers on the
  /// rendezvous node (ports 5300, 5301, ...) and advertises them in the
  /// registration ack, enabling the relayed-tunnel fallback (WAVNet
  /// plane only).
  void enable_relay(std::size_t count = 1) { relay_count_ = count; }
  [[nodiscard]] std::size_t relay_count() const noexcept { return relays_.size(); }
  [[nodiscard]] relay::RelayServer& relay(std::size_t i) { return *relays_.at(i); }

  /// Continuous telemetry: every World samples its registry and evaluates
  /// SLO health on the --sample-interval cadence (deploy_wavnet installs
  /// the default WAVNet rules; benches may add their own before deploy).
  [[nodiscard]] obs::TimeSeriesSampler& sampler() noexcept { return *sampler_; }
  [[nodiscard]] obs::HealthMonitor& health() noexcept { return *health_; }

  /// Attaches an invariant checker whose violation count is mirrored into
  /// the chaos.invariant_violations gauge on every telemetry tick (so the
  /// sampled series shows convergence, not just the final verdict).
  void set_invariant_checker(chaos::InvariantChecker* checker);

  /// Sets the (site) access rate for the named host's site (Fig 7 sweep).
  void set_site_rate(const std::string& site, BitRate rate);
  /// Same, addressed by host name.
  void set_host_site_rate(const std::string& host_name, BitRate rate);

  /// Before build_emulated(): NAT behaviour for every emulated site
  /// (default port-restricted cone, which hole-punches fine). Symmetric
  /// forces the relay fallback — bench_flow_trace uses this to measure
  /// the relayed triangle's hop legs.
  void set_emulated_nat(nat::NatType type) noexcept { emulated_nat_ = type; }

  enum class IpopTopology { kFullMesh, kRing };
  /// Before deploy(): full mesh models IPOP with on-demand shortcuts for
  /// all active flows (small deployments); ring models its bounded
  /// connection set at scale (the Fig 8 degradation).
  void set_ipop_topology(IpopTopology topology) noexcept { ipop_topology_ = topology; }

  /// Migrates `vm` from host `from` to host `to` on the active plane.
  /// On kIpop the binding table is deliberately NOT updated (the paper's
  /// observation); call rebind_after_ipop_migration() to model restart.
  struct MigrationHandles {
    std::unique_ptr<vm::MigrationTask> task;
  };
  [[nodiscard]] MigrationHandles migrate(vm::VirtualMachine& vmachine,
                                         const std::string& from, const std::string& to,
                                         vm::MigrationConfig config,
                                         vm::MigrationTask::DoneHandler done);

  /// Attaches a VM to a host's bridge on the overlay planes (and binds
  /// its IP on IPOP). On the physical plane this is unsupported.
  void attach_vm(vm::VirtualMachine& vmachine, const std::string& host_name);

 private:
  void deploy_wavnet();
  void deploy_ipop();
  void add_default_slos();
  void flush_observability();
  std::string site_of(const std::string& host_name) const;

  Plane plane_;
  std::uint64_t seed_;
  sim::Simulation sim_;
  fabric::Network network_;
  std::unique_ptr<fabric::Wan> wan_;
  std::unique_ptr<overlay::RendezvousServer> rendezvous_;
  std::vector<std::unique_ptr<relay::RelayServer>> relays_;
  std::size_t relay_count_{0};
  ipop::BindingTable bindings_;
  std::map<std::string, Deployed> hosts_;
  std::map<std::string, std::string> host_site_;
  std::uint32_t next_vip_{10};
  bool paper_testbed_{false};
  nat::NatType emulated_nat_{nat::NatType::kPortRestrictedCone};
  IpopTopology ipop_topology_{IpopTopology::kFullMesh};

  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<obs::HealthMonitor> health_;
  std::unique_ptr<sim::PeriodicTimer> telemetry_timer_;
  chaos::InvariantChecker* invariants_{nullptr};
  obs::Gauge* g_invariant_violations_{nullptr};
};

/// Prints a bench banner with the experiment id and setup notes.
void banner(const std::string& experiment, const std::string& description);

/// Appends one --metrics-out JSONL line (same shape as a World flush: the
/// label in the "plane" field, the seed, and the full registry dump) for
/// benches that build raw per-experiment Simulations instead of Worlds —
/// e.g. the traversal matrix, one fixture per NAT×NAT cell. No-op when
/// --metrics-out was not given.
void append_metrics_line(sim::Simulation& sim, const std::string& label,
                         std::uint64_t seed);

/// Flushes the wall-clock profiler for one finished experiment: appends a
/// {"plane":label,"seed":N,"profile":{...}} line to --prof-out, writes the
/// numbered "<stem>.folded" flamegraph file, and resets the profiler so
/// the next World/tier starts from zero. Worlds call this automatically;
/// raw-Simulation benches call it after each experiment. No-op when
/// --prof-out was not given.
void append_profile_line(const std::string& label, std::uint64_t seed);

}  // namespace wav::benchx
