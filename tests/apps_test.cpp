// Workload tests: ping sessions, netperf/ttcp throughput, the HTTP
// server + ApacheBench pair, message framing, FFT correctness, and the
// mini-MPI runtime with the heat solver verified against its serial
// reference.
#include <gtest/gtest.h>

#include "apps/http.hpp"
#include "apps/mpi_apps.hpp"
#include "apps/netperf.hpp"
#include "apps/ping.hpp"
#include "fabric/host.hpp"
#include "fabric/network.hpp"
#include "stack/icmp.hpp"

namespace wav {
namespace {

struct Pair {
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::HostNode* a{};
  fabric::HostNode* b{};
  fabric::Link* link{};

  explicit Pair(fabric::LinkConfig cfg = {}) {
    a = &network.add_node<fabric::HostNode>("a");
    b = &network.add_node<fabric::HostNode>("b");
    const auto subnet = net::Ipv4Subnet{net::Ipv4Address::parse("10.0.0.0").value(), 24};
    link = &network.connect(*a, {net::Ipv4Address::parse("10.0.0.1").value(), subnet},
                            *b, {net::Ipv4Address::parse("10.0.0.2").value(), subnet}, cfg);
    a->set_default_route(0);
    b->set_default_route(0);
  }
};

TEST(Framing, RoundTripRealAndVirtual) {
  std::vector<std::pair<net::FrameHeader, std::uint64_t>> got;
  net::MessageFramer framer{[&](const net::FrameHeader& h, std::vector<net::Chunk> p) {
    got.emplace_back(h, net::total_size(p));
  }};

  auto msg1 = net::frame_message({7, 42, 0}, net::Chunk::from_string("hello"));
  auto msg2 = net::frame_message({9, 1, 0}, net::Chunk::virtual_bytes(100000));
  // Deliver byte-by-byte-ish: split into awkward chunks.
  std::vector<net::Chunk> wire;
  for (auto& m : {msg1, msg2}) {
    for (auto& c : m) wire.push_back(c);
  }
  // Push in two unaligned batches.
  net::ChunkQueue q;
  for (auto& c : wire) q.push(std::move(c));
  framer.push(q.pop_up_to(9));
  framer.push(q.pop_up_to(20));
  framer.push(q.pop_up_to(1 << 20));

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first.type, 7);
  EXPECT_EQ(got[0].first.tag, 42u);
  EXPECT_EQ(got[0].second, 5u);
  EXPECT_EQ(got[1].first.type, 9);
  EXPECT_EQ(got[1].second, 100000u);
}

TEST(Framing, VirtualPayloadArrivingPerSegmentIsOneChunk) {
  // A bulk virtual message reaches the framer one MSS at a time; the
  // payload keeps one descriptor for the whole run, not one per segment.
  std::vector<std::vector<net::Chunk>> got;
  net::MessageFramer framer{[&](const net::FrameHeader&, std::vector<net::Chunk> p) {
    got.push_back(std::move(p));
  }};
  net::ChunkQueue q;
  for (auto& c : net::frame_message({3, 0, 0}, net::Chunk::virtual_bytes(1'000'000))) {
    q.push(std::move(c));
  }
  while (q.size() > 0) framer.push(q.pop_up_to(1460));
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].size(), 1u);
  EXPECT_EQ(got[0][0].virtual_size, 1'000'000u);
}

TEST(Ping, MeasuresRttAndLoss) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(25);
  Pair env{cfg};
  stack::IcmpLayer icmp_a{*env.a};
  stack::IcmpLayer icmp_b{*env.b};

  apps::PingSession ping{icmp_a, env.b->primary_address()};
  ping.start();
  env.sim.run_for(seconds(10));
  ping.stop();

  const auto rtts = ping.rtt_ms();
  EXPECT_GE(rtts.count(), 9u);
  EXPECT_NEAR(rtts.mean(), 50.0, 1.0);
  EXPECT_DOUBLE_EQ(ping.loss_rate(), 0.0);
}

TEST(Ping, DetectsLossOnLossyLink) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(5);
  cfg.loss_probability = 0.3;
  Pair env{cfg};
  stack::IcmpLayer icmp_a{*env.a};
  stack::IcmpLayer icmp_b{*env.b};

  apps::PingSession::Config pc;
  pc.interval = milliseconds(100);
  apps::PingSession ping{icmp_a, env.b->primary_address(), pc};
  ping.start();
  env.sim.run_for(seconds(30));
  ping.stop();
  env.sim.run_for(seconds(3));  // let timeouts resolve

  // P(loss) per probe = 1 - 0.7^2 = 0.51.
  EXPECT_GT(ping.loss_rate(), 0.3);
  EXPECT_LT(ping.loss_rate(), 0.7);
}

TEST(Netperf, MeasuresLinkRate) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(10);
  cfg.rate = megabits_per_sec(50);
  Pair env{cfg};
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  apps::NetperfStream::Config nc;
  nc.duration = seconds(20);
  apps::NetperfStream stream{tcp_a, tcp_b, env.b->primary_address(), nc};
  std::optional<apps::NetperfStream::Report> report;
  stream.start([&](const apps::NetperfStream::Report& r) { report = r; });
  env.sim.run_for(seconds(25));

  ASSERT_TRUE(report.has_value());
  const double mbps = report->throughput.megabits_per_sec();
  EXPECT_GT(mbps, 35.0);
  EXPECT_LT(mbps, 50.5);
  // 500 ms polls: ~40 points, later ones near link rate.
  ASSERT_GE(report->poll_mbps.size(), 30u);
  EXPECT_GT(report->poll_mbps[20].value, 35.0);
}

TEST(Ttcp, ReportsTransferRate) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(20);
  cfg.rate = megabits_per_sec(20);
  Pair env{cfg};
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  apps::TtcpTransfer::Config tc;
  tc.total_bytes = 8ull * 1024 * 1024;
  apps::TtcpTransfer ttcp{tcp_a, tcp_b, env.b->primary_address(), tc};
  std::optional<apps::TtcpTransfer::Report> report;
  ttcp.start([&](const apps::TtcpTransfer::Report& r) { report = r; });
  env.sim.run_for(seconds(60));

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->bytes.bytes, tc.total_bytes);
  // 20 Mbit/s = 2441 KB/s ceiling.
  EXPECT_GT(report->rate_kbps, 1700.0);
  EXPECT_LT(report->rate_kbps, 2500.0);
}

TEST(Http, ServerServesAndCounts) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(10);
  Pair env{cfg};
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  apps::HttpServer server{tcp_b, 80};
  server.add_resource("/index.html", kibibytes(8));

  apps::ApacheBench::Config ac;
  ac.concurrency = 4;
  ac.total_requests = 40;
  apps::ApacheBench ab{tcp_a, env.b->primary_address(), ac};
  std::optional<apps::ApacheBench::Report> report;
  ab.start([&](const apps::ApacheBench::Report& r) { report = r; });
  env.sim.run_for(seconds(60));

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->completed, 40u);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(server.stats().requests_served, 40u);
  // Connect time ~ 1 RTT (20 ms).
  EXPECT_NEAR(report->connect_ms.mean(), 20.0, 4.0);
  EXPECT_GT(report->request_ms.mean(), report->connect_ms.mean());
}

TEST(Http, NotFoundCounted) {
  Pair env;
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};
  apps::HttpServer server{tcp_b, 80};
  server.add_resource("/exists", bytes(10));

  apps::ApacheBench::Config ac;
  ac.concurrency = 1;
  ac.total_requests = 3;
  ac.path = "/missing";
  apps::ApacheBench ab{tcp_a, env.b->primary_address(), ac};
  std::optional<apps::ApacheBench::Report> report;
  ab.start([&](const apps::ApacheBench::Report& r) { report = r; });
  env.sim.run_for(seconds(20));
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(server.stats().not_found, 3u);
  // 404 responses still complete the HTTP exchange.
  EXPECT_EQ(report->completed, 3u);
}

TEST(Fft, MatchesReferenceDft) {
  Rng rng{5};
  std::vector<apps::Complex> data(64);
  for (auto& x : data) x = apps::Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto expected = apps::dft_reference(data);
  auto actual = data;
  apps::fft(actual);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(actual[i].real(), expected[i].real(), 1e-9);
    EXPECT_NEAR(actual[i].imag(), expected[i].imag(), 1e-9);
  }
}

TEST(Fft, InverseRoundTrips) {
  Rng rng{6};
  std::vector<apps::Complex> data(256);
  for (auto& x : data) x = apps::Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto copy = data;
  apps::fft(copy, false);
  apps::fft(copy, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(copy[i].real(), data[i].real(), 1e-9);
  }
}

/// N hosts on one fast LAN segment (star through host 0's links).
struct MpiLan {
  sim::Simulation sim;
  fabric::Network network{sim};
  std::vector<fabric::HostNode*> hosts;

  explicit MpiLan(std::size_t n, BitRate rate = gigabits_per_sec(1)) {
    // Star topology: every host hangs off one LAN router.
    auto& router = network.add_node<fabric::Node>("lan-router");
    const net::Ipv4Subnet subnet{net::Ipv4Address::from_octets(10, 1, 0, 0), 24};
    for (std::size_t i = 0; i < n; ++i) {
      auto& host = network.add_node<fabric::HostNode>(
          std::string("h").append(std::to_string(i)));
      fabric::LinkConfig cfg;
      cfg.delay = microseconds(100);
      cfg.rate = rate;
      const auto host_ip = net::Ipv4Address::from_octets(
          10, 1, 0, static_cast<std::uint8_t>(i + 10));
      network.connect(host, {host_ip, subnet},
                      router, {net::Ipv4Address::from_octets(10, 1, 0, 1), subnet}, cfg);
      host.set_default_route(0);
      router.add_route({host_ip, 32}, router.interfaces().size() - 1);
      hosts.push_back(&host);
    }
  }

  std::vector<apps::MpiCluster::RankEnv> envs(double gflops = 4.0) {
    std::vector<apps::MpiCluster::RankEnv> out;
    for (auto* h : hosts) {
      out.push_back({h, [gflops] { return gflops; }});
    }
    return out;
  }
};

TEST(Mpi, SendRecvAndBarrier) {
  MpiLan lan{3};
  apps::MpiCluster mpi{lan.envs()};

  std::string received;
  mpi.recv(2, 0, 5, [&](std::vector<net::Chunk> payload) {
    received = bytes_to_string(apps::payload_bytes(payload));
  });
  mpi.send(0, 2, 5, net::Chunk::from_string("rank0->rank2"));

  bool barrier_done = false;
  mpi.barrier([&] { barrier_done = true; });
  lan.sim.run_for(seconds(10));
  EXPECT_EQ(received, "rank0->rank2");
  EXPECT_TRUE(barrier_done);
}

TEST(Mpi, AllreduceSums) {
  MpiLan lan{4};
  apps::MpiCluster mpi{lan.envs()};
  std::optional<double> total;
  mpi.allreduce_sum({1.5, 2.5, 3.0, 3.0}, [&](double t) { total = t; });
  lan.sim.run_for(seconds(10));
  ASSERT_TRUE(total.has_value());
  EXPECT_DOUBLE_EQ(*total, 10.0);
}

TEST(Mpi, ComputeTimeScalesWithGflops) {
  MpiLan lan{2};
  auto envs = lan.envs();
  envs[0].gflops = [] { return 1.0; };
  envs[1].gflops = [] { return 4.0; };
  apps::MpiCluster mpi{std::move(envs)};

  TimePoint t0_done{}, t1_done{};
  mpi.compute(0, 2e9, [&] { t0_done = lan.sim.now(); });
  mpi.compute(1, 2e9, [&] { t1_done = lan.sim.now(); });
  lan.sim.run_for(seconds(10));
  EXPECT_NEAR(to_seconds(t0_done), 2.0, 0.01);
  EXPECT_NEAR(to_seconds(t1_done), 0.5, 0.01);
}

TEST(MpiHeat, MatchesSerialReference) {
  MpiLan lan{4};
  apps::MpiCluster mpi{lan.envs()};
  apps::HeatSolver solver{mpi, 32, 50};
  std::optional<apps::HeatSolver::Result> result;
  solver.run([&](const apps::HeatSolver::Result& r) { result = r; });
  lan.sim.run_for(seconds(600));

  ASSERT_TRUE(result.has_value());
  const double expected = apps::HeatSolver::serial_checksum(32, 50);
  EXPECT_NEAR(result->checksum, expected, 1e-9);
  EXPECT_GT(to_seconds(result->elapsed), 0.0);
}

TEST(MpiHeat, BitExactUnderPacketLoss) {
  // Regression: a synchronously-matched halo receive used to double-
  // advance the iteration counter (re-entrancy in exchange_halos),
  // which only manifested when loss perturbed message timing.
  MpiLan lan{4, megabits_per_sec(50)};
  // Lossy access links: retransmissions reshuffle message timing, which
  // is what exposed the original bug.
  for (auto* h : lan.hosts) h->interfaces()[0].link->set_loss(0.02);
  apps::MpiCluster mpi{lan.envs()};
  apps::HeatSolver solver{mpi, 32, 100};
  std::optional<apps::HeatSolver::Result> result;
  solver.run([&](const apps::HeatSolver::Result& r) { result = r; });
  lan.sim.run_for(seconds(4000));
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->checksum, apps::HeatSolver::serial_checksum(32, 100), 1e-9);
}

TEST(MpiHeat, SingleRankRuns) {
  MpiLan lan{1};
  apps::MpiCluster mpi{lan.envs()};
  apps::HeatSolver solver{mpi, 16, 30};
  std::optional<apps::HeatSolver::Result> result;
  solver.run([&](const apps::HeatSolver::Result& r) { result = r; });
  lan.sim.run_for(seconds(600));
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->checksum, apps::HeatSolver::serial_checksum(16, 30), 1e-9);
}

TEST(MpiHeat, SlowLinkSlowsItDown) {
  std::array<double, 2> elapsed{};
  const std::array<BitRate, 2> rates{gigabits_per_sec(1), megabits_per_sec(5)};
  for (std::size_t i = 0; i < 2; ++i) {
    MpiLan lan{4, rates[i]};
    apps::MpiCluster mpi{lan.envs()};
    apps::HeatSolver solver{mpi, 64, 50};
    std::optional<apps::HeatSolver::Result> result;
    solver.run([&](const apps::HeatSolver::Result& r) { result = r; });
    lan.sim.run_for(seconds(3600));
    ASSERT_TRUE(result.has_value());
    elapsed[i] = to_seconds(result->elapsed);
  }
  EXPECT_GT(elapsed[1], elapsed[0] * 1.5);
}

TEST(MpiKernels, EpIsComputeBoundFtIsCommBound) {
  // On a slow network, FT (all-to-all every iteration) suffers far more
  // than EP (one reduce at the end) — the Figure 14 contrast.
  double ep_fast = 0, ep_slow = 0, ft_fast = 0, ft_slow = 0;
  const std::array<BitRate, 2> rates{gigabits_per_sec(1), megabits_per_sec(4)};
  for (std::size_t i = 0; i < 2; ++i) {
    {
      MpiLan lan{4, rates[i]};
      apps::MpiCluster mpi{lan.envs()};
      apps::EpKernel ep{mpi, {.total_samples = 1 << 22, .flops_per_sample = 40}};
      std::optional<apps::EpKernel::Result> r;
      ep.run([&](const apps::EpKernel::Result& res) { r = res; });
      lan.sim.run_for(seconds(3600));
      ASSERT_TRUE(r.has_value());
      (i == 0 ? ep_fast : ep_slow) = to_seconds(r->elapsed);
    }
    {
      MpiLan lan{4, rates[i]};
      apps::MpiCluster mpi{lan.envs()};
      apps::FtKernel ft{mpi, {.grid_points = 1 << 22, .iterations = 4}};
      std::optional<apps::FtKernel::Result> r;
      ft.run([&](const apps::FtKernel::Result& res) { r = res; });
      lan.sim.run_for(seconds(3600));
      ASSERT_TRUE(r.has_value());
      EXPECT_TRUE(r->self_check_ok);
      (i == 0 ? ft_fast : ft_slow) = to_seconds(r->elapsed);
    }
  }
  const double ep_ratio = ep_slow / ep_fast;
  const double ft_ratio = ft_slow / ft_fast;
  EXPECT_LT(ep_ratio, 1.5);       // EP barely notices
  EXPECT_GT(ft_ratio, 2.0);       // FT hurts
  EXPECT_GT(ft_ratio, ep_ratio);  // the Figure 14 ordering
}

}  // namespace
}  // namespace wav
