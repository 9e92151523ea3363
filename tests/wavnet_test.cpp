// Data-plane tests of the WAVNet core: bridging, ARP over the WAN
// tunnels, ICMP/TCP on the virtual plane across NATs, MAC mobility via
// gratuitous ARP (the VM-migration redirect), and the tcpdump-style
// promiscuous capture the paper uses to verify frame tunneling.
#include <gtest/gtest.h>

#include "fabric/wan.hpp"
#include "overlay/rendezvous.hpp"
#include "stack/icmp.hpp"
#include "tcp/tcp.hpp"
#include "wavnet/host.hpp"

namespace wav {
namespace {

using overlay::HostInfo;
using wavnet::WavnetHost;

struct VpcFixture {
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::Wan::Site* site_a{};
  fabric::Wan::Site* site_b{};
  std::unique_ptr<overlay::RendezvousServer> rendezvous;
  std::unique_ptr<WavnetHost> a1;
  std::unique_ptr<WavnetHost> b1;

  VpcFixture() {
    fabric::SiteConfig sa;
    sa.name = "A";
    sa.host_count = 2;
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

  /// Queries + connects a1 -> b1 and waits for the tunnel.
  void link_hosts() {
    std::vector<HostInfo> results;
    a1->agent().query({0.5, 0.5}, 8, [&](std::vector<HostInfo> h) { results = h; });
    sim.run_for(seconds(3));
    ASSERT_FALSE(results.empty());
    a1->connect(results[0]);
    sim.run_for(seconds(10));
    ASSERT_TRUE(a1->agent().link_established(b1->agent().id()));
  }
};

TEST(Wavnet, ArpResolvesAcrossWanTunnel) {
  VpcFixture env;
  env.link_hosts();

  // Ping b1's virtual IP from a1: requires ARP over the tunnel first.
  stack::IcmpLayer icmp_a{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};

  int replies = 0;
  const std::uint16_t id = icmp_a.allocate_id();
  icmp_a.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 1, 56);
  env.sim.run_for(seconds(5));

  EXPECT_EQ(replies, 1);
  EXPECT_EQ(env.a1->stack().arp_lookup(env.b1->virtual_ip()),
            env.b1->host_nic().mac());
  EXPECT_GT(env.a1->stack().stats().arp_requests_sent, 0u);
  EXPECT_GT(env.b1->stack().stats().arp_replies_sent, 0u);
  // Data followed the learned unicast path, not flooding.
  EXPECT_GT(env.a1->wav_switch().stats().frames_tunneled, 0u);
}

TEST(Wavnet, VirtualPlanePingRttMatchesPhysical) {
  VpcFixture env;
  env.link_hosts();
  stack::IcmpLayer icmp_a{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};

  std::vector<double> rtts;
  const std::uint16_t id = icmp_a.allocate_id();
  TimePoint sent{};
  int seq = 0;
  std::function<void()> send_next = [&] {
    sent = env.sim.now();
    icmp_a.send_echo_request(env.b1->virtual_ip(), id, static_cast<std::uint16_t>(++seq),
                             56);
  };
  icmp_a.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) {
    rtts.push_back(to_milliseconds(env.sim.now() - sent));
    if (seq < 10) send_next();
  });
  send_next();
  env.sim.run_for(seconds(30));

  ASSERT_EQ(rtts.size(), 10u);
  // The first ping pays one extra RTT for ARP resolution; every later
  // ping sees the physical RTT (~50 ms = 2 x 25 ms one-way) plus well
  // under 2 ms of processing (paper Table II behaviour).
  EXPECT_GT(rtts.front(), 99.0);
  for (std::size_t i = 1; i < rtts.size(); ++i) {
    EXPECT_GT(rtts[i], 49.0);
    EXPECT_LT(rtts[i], 56.0);
  }
}

TEST(Wavnet, TcpOverVirtualPlaneAcrossNats) {
  VpcFixture env;
  env.link_hosts();

  tcp::TcpLayer tcp_a{env.a1->stack()};
  tcp::TcpLayer tcp_b{env.b1->stack()};

  const std::uint64_t kTransfer = 4ull * 1024 * 1024;
  std::uint64_t received = 0;
  tcp_b.listen(5001, [&](tcp::TcpConnection::Ptr conn) {
    conn->on_data([&received](const std::vector<net::Chunk>& chunks) {
      received += net::total_size(chunks);
    });
  });
  auto conn = tcp_a.connect({env.b1->virtual_ip(), 5001});
  conn->on_established([&] { conn->send_virtual(kTransfer); });
  env.sim.run_for(seconds(60));
  EXPECT_EQ(received, kTransfer);
}

TEST(Wavnet, GratuitousArpRelocatesMacAcrossWan) {
  VpcFixture env;
  env.link_hosts();

  // A "VM": NIC + stack, initially bridged on a1's host.
  wavnet::VirtualNic vm_nic{wavnet::make_mac(0x99)};
  wavnet::VirtualIpStack vm_stack{env.sim, vm_nic,
                                  net::Ipv4Address::parse("10.10.0.50").value(),
                                  {net::Ipv4Address::parse("10.10.0.0").value(), 16}};
  env.a1->bridge().attach(vm_nic);
  vm_stack.announce_gratuitous_arp();
  env.sim.run_for(seconds(2));

  // b1 pings the VM while it lives on a1.
  stack::IcmpLayer icmp_b{env.b1->stack()};
  stack::IcmpLayer icmp_vm{vm_stack};
  int replies = 0;
  const std::uint16_t id = icmp_b.allocate_id();
  icmp_b.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
  icmp_b.send_echo_request(vm_stack.ip_address(), id, 1, 56);
  env.sim.run_for(seconds(3));
  ASSERT_EQ(replies, 1);

  // "Migrate": detach from a1's bridge, attach to b1's, announce.
  env.a1->bridge().detach(vm_nic);
  env.b1->bridge().attach(vm_nic);
  vm_stack.announce_gratuitous_arp();
  env.sim.run_for(seconds(2));

  // Pings keep working and now stay local to site B (sub-millisecond).
  const TimePoint before = env.sim.now();
  icmp_b.send_echo_request(vm_stack.ip_address(), id, 2, 56);
  TimePoint reply_at{};
  icmp_b.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) {
    ++replies;
    reply_at = env.sim.now();
  });
  env.sim.run_for(seconds(3));
  ASSERT_EQ(replies, 2);
  EXPECT_LT(to_milliseconds(reply_at - before), 10.0);
}

TEST(Wavnet, PromiscuousCaptureSeesTunneledGratuitousArp) {
  // The paper's tcpdump experiment: listening on the tap device at the
  // remote end captures the ARP frame dispatched after live migration.
  VpcFixture env;
  env.link_hosts();

  wavnet::VirtualNic sniffer{wavnet::make_mac(0xFE)};
  sniffer.set_promiscuous(true);
  int arp_captured = 0;
  sniffer.set_receive_handler([&](const net::EthernetFrame& frame) {
    if (const auto* arp = frame.arp(); arp != nullptr && arp->is_gratuitous()) {
      ++arp_captured;
    }
  });
  env.b1->bridge().attach(sniffer);

  env.a1->stack().announce_gratuitous_arp();
  env.sim.run_for(seconds(2));
  EXPECT_EQ(arp_captured, 1);
}

TEST(Wavnet, FdbTtlExpiryErasesStaleEntryAndRelearnsAfterLinkDown) {
  VpcFixture env;
  env.link_hosts();
  env.a1->wav_switch().set_mac_ttl(seconds(2));

  stack::IcmpLayer icmp_a{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};
  int replies = 0;
  const std::uint16_t id = icmp_a.allocate_id();
  icmp_a.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 1, 56);
  env.sim.run_for(seconds(5));
  ASSERT_EQ(replies, 1);
  ASSERT_EQ(env.a1->wav_switch().learned_macs(), 1u);

  // Idle past the TTL, then present the stale MAC on the WAN port: the
  // lazy-expiry path must erase the entry on the spot (it used to linger
  // forever, inflating learned_macs) and fall back to flooding.
  env.sim.run_for(seconds(10));
  const auto flooded_before = env.a1->wav_switch().stats().frames_flooded;
  net::EthernetFrame probe;
  probe.src = env.a1->host_nic().mac();
  probe.dst = env.b1->host_nic().mac();
  env.a1->wav_switch().deliver(probe);
  EXPECT_EQ(env.a1->wav_switch().learned_macs(), 0u);
  EXPECT_EQ(env.a1->wav_switch().stats().frames_flooded, flooded_before + 1);
  env.sim.run_for(seconds(2));

  // Traffic re-teaches the entry (the echo reply's source MAC).
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 2, 56);
  env.sim.run_for(seconds(5));
  ASSERT_EQ(replies, 2);
  ASSERT_EQ(env.a1->wav_switch().learned_macs(), 1u);

  // Losing the tunnel purges the peer's MACs immediately...
  env.a1->agent().drop_link(env.b1->agent().id());
  EXPECT_EQ(env.a1->wav_switch().learned_macs(), 0u);

  // ...and once the tunnel is re-punched, traffic re-learns them.
  std::vector<HostInfo> results;
  env.a1->agent().query({0.5, 0.5}, 8, [&](std::vector<HostInfo> h) { results = h; });
  env.sim.run_for(seconds(3));
  ASSERT_FALSE(results.empty());
  env.a1->connect(results[0]);
  env.sim.run_for(seconds(10));
  ASSERT_TRUE(env.a1->agent().link_established(env.b1->agent().id()));
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 3, 56);
  env.sim.run_for(seconds(5));
  EXPECT_EQ(replies, 3);
  EXPECT_EQ(env.a1->wav_switch().learned_macs(), 1u);
}

TEST(Wavnet, ByteAccountingMatchesAcrossTunnel) {
  VpcFixture env;
  env.link_hosts();

  stack::IcmpLayer icmp_a{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};
  int replies = 0;
  const std::uint16_t id = icmp_a.allocate_id();
  icmp_a.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) {
    ++replies;
    if (replies < 8) {
      icmp_a.send_echo_request(env.b1->virtual_ip(), id,
                               static_cast<std::uint16_t>(replies + 1), 256);
    }
  });
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 1, 256);
  env.sim.run_for(seconds(30));
  ASSERT_EQ(replies, 8);

  // With zero drops, every on-wire byte egress accounted must appear in
  // the receiver's ingress accounting — in both directions. (Ingress
  // used to omit the encapsulation header it was billed for.)
  const auto sa = env.a1->wav_switch().stats();
  const auto sb = env.b1->wav_switch().stats();
  ASSERT_EQ(sa.frames_dropped_backlog, 0u);
  ASSERT_EQ(sb.frames_dropped_backlog, 0u);
  ASSERT_EQ(sa.frames_dropped_no_peer, 0u);
  ASSERT_EQ(sb.frames_dropped_no_peer, 0u);
  EXPECT_GT(sa.bytes_tunneled, 0u);
  EXPECT_GT(sb.bytes_tunneled, 0u);
  EXPECT_EQ(sa.bytes_tunneled, sb.bytes_received);
  EXPECT_EQ(sb.bytes_tunneled, sa.bytes_received);
  EXPECT_EQ(sa.frames_tunneled, sb.frames_received);
  EXPECT_EQ(sb.frames_tunneled, sa.frames_received);
}

TEST(Wavnet, FloodReachesAllConnectedPeers) {
  VpcFixture env;
  // Third host at site A.
  auto a2 = env.make_host(*env.site_a->hosts[1], "a2", "10.10.0.3");
  a2->start();
  env.sim.run_for(seconds(5));

  // a1 connects to both b1 and a2.
  std::vector<HostInfo> results;
  env.a1->agent().query({0.5, 0.5}, 8, [&](std::vector<HostInfo> h) { results = h; });
  env.sim.run_for(seconds(3));
  ASSERT_EQ(results.size(), 2u);
  for (const auto& peer : results) env.a1->connect(peer);
  env.sim.run_for(seconds(10));
  ASSERT_EQ(env.a1->agent().connected_peers().size(), 2u);

  // A broadcast from a1 must reach both peers' stacks.
  env.a1->stack().announce_gratuitous_arp();
  env.sim.run_for(seconds(2));
  EXPECT_EQ(env.b1->stack().stats().gratuitous_seen, 1u);
  EXPECT_EQ(a2->stack().stats().gratuitous_seen, 1u);
}

}  // namespace
}  // namespace wav
