// VM model and live-migration tests: dirty-page dynamics, pre-copy
// convergence, seamless TCP session survival across a WAN migration
// (the paper's core §II.C claim), downtime bounds, and the IPOP
// migration-unawareness failure mode (Figure 9's stall).
#include <gtest/gtest.h>

#include "fabric/wan.hpp"
#include "ipop/ipop.hpp"
#include "overlay/rendezvous.hpp"
#include "stack/icmp.hpp"
#include "vm/migration.hpp"
#include "wavnet/host.hpp"

namespace wav {
namespace {

using overlay::HostInfo;

TEST(VmModel, DirtySetSaturatesAtWorkingSet) {
  sim::Simulation sim;
  vm::VmConfig cfg;
  cfg.memory = mebibytes(128);
  cfg.hot_fraction = 0.02;
  cfg.dirty_pages_per_sec = 500;
  cfg.virtual_ip = net::Ipv4Address::parse("10.10.0.50").value();
  vm::VirtualMachine vm{sim, cfg};

  EXPECT_EQ(vm.total_pages(), 128ull * 1024 * 1024 / 4096);
  EXPECT_EQ(vm.dirty_pages(), 0u);

  sim.run_for(seconds(60));
  // After a minute the hot set is saturated (plus a little cold spill).
  EXPECT_GE(vm.dirty_pages(), vm.hot_pages());
  EXPECT_LE(vm.dirty_pages(), vm.hot_pages() + 700);

  const std::uint64_t snap = vm.take_dirty_snapshot();
  EXPECT_GT(snap, 0u);
  EXPECT_EQ(vm.dirty_pages(), 0u);
}

TEST(VmModel, PauseStopsDirtyingAndNic) {
  sim::Simulation sim;
  vm::VmConfig cfg;
  cfg.virtual_ip = net::Ipv4Address::parse("10.10.0.50").value();
  vm::VirtualMachine vm{sim, cfg};
  sim.run_for(seconds(5));
  vm.pause();
  const std::uint64_t at_pause = vm.dirty_pages();
  sim.run_for(seconds(30));
  EXPECT_EQ(vm.dirty_pages(), at_pause);
  EXPECT_FALSE(vm.nic().enabled());
  vm.resume();
  sim.run_for(seconds(5));
  EXPECT_GT(vm.dirty_pages(), at_pause);
}

struct MigrationFixture {
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::Wan::Site* site_a{};
  fabric::Wan::Site* site_b{};
  std::unique_ptr<overlay::RendezvousServer> rendezvous;
  std::unique_ptr<wavnet::WavnetHost> a1;
  std::unique_ptr<wavnet::WavnetHost> b1;
  std::unique_ptr<tcp::TcpLayer> tcp_a;
  std::unique_ptr<tcp::TcpLayer> tcp_b;

  explicit MigrationFixture(double site_mbps = 50.0, double rtt_ms = 40.0) {
    fabric::SiteConfig sa;
    sa.name = "A";
    sa.access_rate = megabits_per_sec(site_mbps);
    fabric::SiteConfig sb;
    sb.name = "B";
    sb.access_rate = megabits_per_sec(site_mbps);
    site_a = &wan.add_site(sa);
    site_b = &wan.add_site(sb);
    auto& rv = wan.add_public_host("rendezvous");
    fabric::PairPath path;
    path.one_way = milliseconds_f(rtt_ms / 2);
    wan.set_default_paths(path);
    rendezvous = std::make_unique<overlay::RendezvousServer>(rv);
    rendezvous->bootstrap();

    a1 = make_host(*site_a->hosts[0], "a1", "10.10.0.1");
    b1 = make_host(*site_b->hosts[0], "b1", "10.10.0.2");
    a1->start();
    b1->start();
    sim.run_for(seconds(5));

    std::vector<HostInfo> results;
    a1->agent().query({0.5, 0.5}, 4, [&](std::vector<HostInfo> h) { results = h; });
    sim.run_for(seconds(3));
    a1->connect(results.at(0));
    sim.run_for(seconds(10));

    tcp_a = std::make_unique<tcp::TcpLayer>(a1->stack());
    tcp_b = std::make_unique<tcp::TcpLayer>(b1->stack());
  }

  std::unique_ptr<wavnet::WavnetHost> make_host(fabric::HostNode& host,
                                                const std::string& name,
                                                const std::string& vip) {
    wavnet::WavnetHost::Config cfg;
    cfg.agent.name = name;
    cfg.agent.rendezvous = rendezvous->host_endpoint();
    cfg.virtual_ip = net::Ipv4Address::parse(vip).value();
    return std::make_unique<wavnet::WavnetHost>(host, cfg);
  }

  std::unique_ptr<vm::VirtualMachine> make_vm(ByteSize memory) {
    vm::VmConfig cfg;
    cfg.name = "vm1";
    cfg.memory = memory;
    cfg.virtual_ip = net::Ipv4Address::parse("10.10.0.50").value();
    cfg.hot_fraction = 0.02;
    cfg.dirty_pages_per_sec = 300;
    auto vm = std::make_unique<vm::VirtualMachine>(sim, cfg);
    a1->bridge().attach(vm->nic());
    vm->stack().announce_gratuitous_arp();
    return vm;
  }
};

TEST(Migration, CompletesAndReportsSaneTimes) {
  MigrationFixture env;
  auto vm1 = env.make_vm(mebibytes(64));
  env.sim.run_for(seconds(2));

  std::optional<vm::MigrationResult> result;
  vm::MigrationTask task{*vm1,          env.a1->bridge(), env.b1->bridge(),
                         *env.tcp_a,    *env.tcp_b,       env.b1->virtual_ip(),
                         8.0,           {},               [&](const vm::MigrationResult& r) {
                           result = r;
                         }};
  task.start();
  env.sim.run_for(seconds(300));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  // 64 MiB over a ~40-50 Mbit/s virtual path: ideal ~12 s; allow rounds.
  EXPECT_GT(to_seconds(result->total_time), 8.0);
  EXPECT_LT(to_seconds(result->total_time), 60.0);
  EXPECT_GT(result->rounds, 1u);
  EXPECT_GE(result->bytes_transferred.bytes, mebibytes(64).bytes);
  // Downtime: activation delay + final copy, well under 3 s.
  EXPECT_GT(to_milliseconds(result->downtime), 200.0);
  EXPECT_LT(to_seconds(result->downtime), 3.0);
  // The VM now runs at the destination with its new CPU speed.
  EXPECT_TRUE(vm1->running());
  EXPECT_DOUBLE_EQ(vm1->cpu_gflops(), 8.0);
}

TEST(Migration, BiggerMemoryTakesLonger) {
  std::array<double, 2> times{};
  const std::array<ByteSize, 2> sizes{mebibytes(32), mebibytes(128)};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    MigrationFixture env;
    auto vm1 = env.make_vm(sizes[i]);
    env.sim.run_for(seconds(2));
    std::optional<vm::MigrationResult> result;
    vm::MigrationTask task{*vm1,       env.a1->bridge(), env.b1->bridge(),
                           *env.tcp_a, *env.tcp_b,       env.b1->virtual_ip(),
                           4.0,        {},               [&](const vm::MigrationResult& r) {
                             result = r;
                           }};
    task.start();
    env.sim.run_for(seconds(600));
    ASSERT_TRUE(result.has_value() && result->ok);
    times[i] = to_seconds(result->total_time);
  }
  EXPECT_GT(times[1], times[0] * 2.0);
}

TEST(Migration, TcpSessionToVmSurvives) {
  MigrationFixture env;
  auto vm1 = env.make_vm(mebibytes(64));
  env.sim.run_for(seconds(2));

  // A long-lived TCP stream from b1 to the VM, started before migration.
  tcp::TcpLayer vm_tcp{vm1->stack()};
  std::uint64_t received = 0;
  vm_tcp.listen(5001, [&](tcp::TcpConnection::Ptr conn) {
    conn->on_data([&received](const std::vector<net::Chunk>& chunks) {
      received += net::total_size(chunks);
    });
  });
  auto stream = env.tcp_b->connect({vm1->ip(), 5001});
  bool closed = false;
  stream->on_closed([&](tcp::CloseReason) { closed = true; });
  stream->on_established([&] { stream->send_virtual(512ull * 1024 * 1024); });
  env.sim.run_for(seconds(5));
  const std::uint64_t before_migration = received;
  ASSERT_GT(before_migration, 0u);

  std::optional<vm::MigrationResult> result;
  vm::MigrationTask task{*vm1,       env.a1->bridge(), env.b1->bridge(),
                         *env.tcp_a, *env.tcp_b,       env.b1->virtual_ip(),
                         4.0,        {},               [&](const vm::MigrationResult& r) {
                           result = r;
                         }};
  task.start();
  env.sim.run_for(seconds(300));
  ASSERT_TRUE(result.has_value() && result->ok);

  // The stream survived the relocation and — now local to the sender's
  // site — completed the full transfer without a reset.
  env.sim.run_for(seconds(30));
  EXPECT_FALSE(closed);
  EXPECT_EQ(received, 512ull * 1024 * 1024);
  EXPECT_EQ(stream->state(), tcp::TcpState::kEstablished);
}

TEST(Migration, PingLatencyDropsAfterMigratingCloser) {
  MigrationFixture env{50.0, 80.0};
  auto vm1 = env.make_vm(mebibytes(32));
  env.sim.run_for(seconds(2));

  stack::IcmpLayer icmp_b{env.b1->stack()};
  std::vector<double> rtts;
  const std::uint16_t id = icmp_b.allocate_id();
  TimePoint sent{};
  icmp_b.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) {
    rtts.push_back(to_milliseconds(env.sim.now() - sent));
  });
  auto ping_once = [&](std::uint16_t seq) {
    sent = env.sim.now();
    icmp_b.send_echo_request(vm1->ip(), id, seq, 56);
    env.sim.run_for(seconds(2));
  };
  ping_once(1);
  ping_once(2);
  ASSERT_EQ(rtts.size(), 2u);
  EXPECT_GT(rtts[1], 75.0);  // cross-WAN

  std::optional<vm::MigrationResult> result;
  vm::MigrationTask task{*vm1,       env.a1->bridge(), env.b1->bridge(),
                         *env.tcp_a, *env.tcp_b,       env.b1->virtual_ip(),
                         4.0,        {},               [&](const vm::MigrationResult& r) {
                           result = r;
                         }};
  task.start();
  env.sim.run_for(seconds(300));
  ASSERT_TRUE(result.has_value() && result->ok);

  ping_once(3);
  ASSERT_EQ(rtts.size(), 3u);
  EXPECT_LT(rtts[2], 5.0);  // now local to site B
}

TEST(IpopBaseline, PacketsRouteThroughOverlayAndStallAfterMove) {
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::SiteConfig sc;
  sc.name = "S1";
  auto* s1 = &wan.add_site(sc);
  sc.name = "S2";
  auto* s2 = &wan.add_site(sc);
  sc.name = "S3";
  auto* s3 = &wan.add_site(sc);
  auto& rv = wan.add_public_host("rendezvous");
  fabric::PairPath path;
  path.one_way = milliseconds(10);
  wan.set_default_paths(path);
  overlay::RendezvousServer rendezvous{rv};
  rendezvous.bootstrap();

  ipop::BindingTable bindings;
  auto make_ipop = [&](fabric::HostNode& host, const std::string& name,
                       const std::string& vip) {
    ipop::IpopHost::Config cfg;
    cfg.agent.name = name;
    cfg.agent.rendezvous = rendezvous.host_endpoint();
    cfg.virtual_ip = net::Ipv4Address::parse(vip).value();
    return std::make_unique<ipop::IpopHost>(host, bindings, cfg);
  };
  auto n1 = make_ipop(*s1->hosts[0], "n1", "10.10.0.1");
  auto n2 = make_ipop(*s2->hosts[0], "n2", "10.10.0.2");
  auto n3 = make_ipop(*s3->hosts[0], "n3", "10.10.0.3");
  n1->start();
  n2->start();
  n3->start();
  sim.run_for(seconds(5));

  ipop::IpopOverlay ring{bindings};
  ring.add(*n1);
  ring.add(*n2);
  ring.add(*n3);
  std::size_t links = 0;
  ring.connect_ring([&](std::size_t n) { links = n; });
  sim.run_for(seconds(15));
  ASSERT_GT(links, 0u);

  // Ping n3 from n1: ARP answered locally (no broadcast over the WAN),
  // packets routed via the overlay.
  stack::IcmpLayer icmp1{n1->stack()};
  stack::IcmpLayer icmp3{n3->stack()};
  int replies = 0;
  const std::uint16_t id = icmp1.allocate_id();
  icmp1.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
  icmp1.send_echo_request(n3->virtual_ip(), id, 1, 56);
  sim.run_for(seconds(5));
  EXPECT_EQ(replies, 1);
  EXPECT_GT(n1->stats().packets_originated, 0u);

  // A VM on n1 is reachable; after "migrating" it to n3's bridge without
  // rebinding, traffic to it stalls (IPOP is unaware of the move).
  vm::VmConfig vm_cfg;
  vm_cfg.virtual_ip = net::Ipv4Address::parse("10.10.0.60").value();
  vm::VirtualMachine vm1{sim, vm_cfg};
  n1->bridge().attach(vm1.nic());
  n1->bind_local_ip(vm1.ip());

  stack::IcmpLayer icmp2{n2->stack()};
  int vm_replies = 0;
  const std::uint16_t id2 = icmp2.allocate_id();
  icmp2.on_reply(id2, [&](net::Ipv4Address, const net::IcmpMessage&) { ++vm_replies; });
  icmp2.send_echo_request(vm1.ip(), id2, 1, 56);
  sim.run_for(seconds(5));
  ASSERT_EQ(vm_replies, 1);

  // Move the VM without updating the binding: stall.
  n1->bridge().detach(vm1.nic());
  n3->bridge().attach(vm1.nic());
  vm1.stack().announce_gratuitous_arp();  // IPOP ignores L2 broadcasts
  sim.run_for(seconds(2));
  icmp2.send_echo_request(vm1.ip(), id2, 2, 56);
  sim.run_for(seconds(5));
  EXPECT_EQ(vm_replies, 1);  // no reply: packets still go to n1

  // After the binding refresh (IPOP restart), traffic resumes.
  bindings.rebind(vm1.ip(), n3->overlay_id());
  icmp2.send_echo_request(vm1.ip(), id2, 3, 56);
  sim.run_for(seconds(5));
  EXPECT_EQ(vm_replies, 2);
}

}  // namespace
}  // namespace wav
