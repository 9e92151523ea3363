// End-to-end observability test: a two-host WAVNet deployment behind
// NATs punches a tunnel, exchanges ICMP traffic on the virtual plane,
// and the per-Simulation metrics/trace must tell that story accurately —
// exactly one successful punch span per direction, keepalive pulses
// flowing, switch frame/byte counters matching across the tunnel, and
// byte-identical exports for identical seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "fabric/wan.hpp"
#include "harness.hpp"
#include "overlay/rendezvous.hpp"
#include "stack/icmp.hpp"
#include "wavnet/host.hpp"

namespace wav {
namespace {

using overlay::HostInfo;
using wavnet::WavnetHost;

struct ObsFixture {
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::Wan::Site* site_a{};
  fabric::Wan::Site* site_b{};
  std::unique_ptr<overlay::RendezvousServer> rendezvous;
  std::unique_ptr<WavnetHost> a1;
  std::unique_ptr<WavnetHost> b1;

  ObsFixture() {
    fabric::SiteConfig sa;
    sa.name = "A";
    fabric::SiteConfig sb;
    sb.name = "B";
    site_a = &wan.add_site(sa);
    site_b = &wan.add_site(sb);
    auto& rv_host = wan.add_public_host("rendezvous");
    fabric::PairPath path;
    path.one_way = milliseconds(25);
    wan.set_default_paths(path);
    rendezvous = std::make_unique<overlay::RendezvousServer>(rv_host);
    rendezvous->bootstrap();

    a1 = make_host(*site_a->hosts[0], "a1", "10.10.0.1");
    b1 = make_host(*site_b->hosts[0], "b1", "10.10.0.2");
    a1->start();
    b1->start();
    sim.run_for(seconds(5));
  }

  std::unique_ptr<WavnetHost> make_host(fabric::HostNode& host, const std::string& name,
                                        const std::string& vip) {
    WavnetHost::Config cfg;
    cfg.agent.name = name;
    cfg.agent.rendezvous = rendezvous->host_endpoint();
    cfg.virtual_ip = net::Ipv4Address::parse(vip).value();
    return std::make_unique<WavnetHost>(host, cfg);
  }

  /// Connects a1 -> b1, pings across the tunnel, then idles long enough
  /// for several keepalive pulses.
  void run_punch_and_ping() {
    std::vector<HostInfo> results;
    a1->agent().query({0.5, 0.5}, 8, [&](std::vector<HostInfo> h) { results = h; });
    sim.run_for(seconds(3));
    ASSERT_FALSE(results.empty());
    a1->connect(results[0]);
    sim.run_for(seconds(10));
    ASSERT_TRUE(a1->agent().link_established(b1->agent().id()));
    ASSERT_TRUE(b1->agent().link_established(a1->agent().id()));

    stack::IcmpLayer icmp_a{a1->stack()};
    stack::IcmpLayer icmp_b{b1->stack()};
    int replies = 0;
    const std::uint16_t id = icmp_a.allocate_id();
    icmp_a.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
    for (std::uint16_t seq = 1; seq <= 3; ++seq) {
      icmp_a.send_echo_request(b1->virtual_ip(), id, seq, 56);
      sim.run_for(seconds(1));
    }
    ASSERT_EQ(replies, 3);
    sim.run_for(seconds(12));  // a few 5 s CONNECT_PULSE rounds
  }
};

TEST(ObsIntegration, PunchRecordsExactlyOneSuccessSpanPerDirection) {
  ObsFixture env;
  env.run_punch_and_ping();

  std::vector<obs::TraceEvent> punches;
  for (const auto& ev : env.sim.tracer().events()) {
    if (ev.name == "punch.success") punches.push_back(ev);
  }
  ASSERT_EQ(punches.size(), 2u);
  for (const auto& ev : punches) {
    EXPECT_TRUE(ev.span);
    EXPECT_EQ(ev.category, obs::Category::kPunch);
  }
  // One span per direction, stamped with the punching agent's name.
  const auto by_instance = [&](const std::string& who) {
    return std::count_if(punches.begin(), punches.end(),
                         [&](const auto& ev) { return ev.instance == who; });
  };
  EXPECT_EQ(by_instance("a1"), 1);
  EXPECT_EQ(by_instance("b1"), 1);

  // Both agents observed their punch latency.
  const auto* lat = env.sim.metrics().find_histogram("punch.latency_ms");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 2u);
}

TEST(ObsIntegration, PulsesFlowAndSwitchCountersMatchAcrossTunnel) {
  ObsFixture env;
  env.run_punch_and_ping();

  auto& reg = env.sim.metrics();
  // The 5 s keepalive must have pulsed several times in ~25 s of link
  // lifetime, on both sides.
  EXPECT_GT(reg.counter("overlay.connect_pulse_sent", "a1").value(), 0u);
  EXPECT_GT(reg.counter("overlay.connect_pulse_sent", "b1").value(), 0u);

  // Two-host mesh: everything one switch tunnels, the other receives.
  const auto sa = env.a1->wav_switch().stats();
  const auto sb = env.b1->wav_switch().stats();
  EXPECT_GT(sa.frames_tunneled, 0u);
  EXPECT_GT(sb.frames_tunneled, 0u);
  EXPECT_EQ(sb.frames_received, sa.frames_tunneled);
  EXPECT_EQ(sa.frames_received, sb.frames_tunneled);
  EXPECT_EQ(sb.bytes_received, sa.bytes_tunneled);
  EXPECT_EQ(sa.bytes_received, sb.bytes_tunneled);
  EXPECT_GT(sa.bytes_received, 0u);

  // stats() snapshots and the registry must agree (same source).
  EXPECT_EQ(sa.frames_tunneled,
            reg.counter("switch.frames_tunneled", "a1").value());
  EXPECT_EQ(sb.bytes_received,
            reg.counter("switch.bytes_received", "b1").value());
  EXPECT_EQ(reg.counter_total("switch.frames_tunneled"),
            sa.frames_tunneled + sb.frames_tunneled);
  const auto rv = env.rendezvous->stats();
  const std::string rv_inst = env.rendezvous->host_endpoint().ip.to_string();
  EXPECT_GT(rv.heartbeats, 0u);
  EXPECT_EQ(rv.registrations, reg.counter("rendezvous.registrations", rv_inst).value());
  EXPECT_EQ(rv.heartbeats, reg.counter("rendezvous.heartbeats", rv_inst).value());
  EXPECT_EQ(rv.queries, reg.counter("rendezvous.queries", rv_inst).value());
  EXPECT_EQ(env.a1->agent().stats().pulses_sent,
            reg.counter("overlay.connect_pulse_sent", "a1").value());
}

TEST(ObsIntegration, IdenticalSeedsYieldByteIdenticalExports) {
  const auto run = [] {
    ObsFixture env;
    env.run_punch_and_ping();
    return std::pair{env.sim.metrics().to_json(), env.sim.tracer().to_chrome_json()};
  };
  const auto [metrics_a, trace_a] = run();
  const auto [metrics_b, trace_b] = run();
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_NE(trace_a.find("punch.success"), std::string::npos);
}

TEST(ObsIntegration, NumberedPathInsertsRunSuffixBeforeExtension) {
  EXPECT_EQ(benchx::numbered_path("trace.json", 1), "trace.json");
  EXPECT_EQ(benchx::numbered_path("trace.json", 2), "trace-2.json");
  EXPECT_EQ(benchx::numbered_path("trace.json", 3), "trace-3.json");
  EXPECT_EQ(benchx::numbered_path("out/series.jsonl", 2), "out/series-2.jsonl");
  // No extension: the suffix appends.
  EXPECT_EQ(benchx::numbered_path("profile", 2), "profile-2");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(benchx::numbered_path("run.d/trace", 2), "run.d/trace-2");
}

TEST(ObsIntegration, MultiWorldRunsNumberEveryExportSink) {
  // Two Worlds in one process: the first gets the exact --*-out paths
  // (so traces load straight into Perfetto), the second gets
  // "<stem>-2<ext>" — for every per-World sink, not just --trace-out.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/wavnet_multiworld";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string trace = dir + "/trace.json";
  const std::string series = dir + "/series.jsonl";
  const std::string flows = dir + "/flows.jsonl";
  const std::string hops = dir + "/hops.jsonl";

  std::vector<std::string> args = {"obs_integration_test",
                                   "--trace-out=" + trace,
                                   "--series-out=" + series,
                                   "--flows-out=" + flows,
                                   "--hops-out=" + hops};
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  benchx::obs_init(static_cast<int>(argv.size()), argv.data());

  for (int run = 0; run < 2; ++run) {
    benchx::World world(benchx::Plane::kPhysical, 7);
    world.build_emulated(2, megabits_per_sec(100), milliseconds(10));
    world.sim().run_for(seconds(2));
    // ~World flushes every sink.
  }

  for (const std::string& base : {trace, series, flows, hops}) {
    EXPECT_TRUE(fs::exists(base)) << base;
    EXPECT_TRUE(fs::exists(benchx::numbered_path(base, 2)))
        << benchx::numbered_path(base, 2);
    EXPECT_FALSE(fs::exists(benchx::numbered_path(base, 3)))
        << "only two Worlds ran: " << benchx::numbered_path(base, 3);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wav
