// Relay fallback subsystem tests: the TURN-style relayed-tunnel rung of
// the traversal ladder. Covers the punch-timeout fallback, the immediate
// fallback for STUN-detected incompatible NAT pairs (with L2 ping + TCP
// over the relayed link), failover to a surviving relay after a relay
// crash, the opportunistic relayed->direct upgrade with lossless in-order
// frame drain, and hard failure when the relay tier has no capacity.
#include <gtest/gtest.h>

#include "chaos/chaos_controller.hpp"
#include "chaos/invariants.hpp"
#include "fabric/wan.hpp"
#include "overlay/rendezvous.hpp"
#include "relay/relay_server.hpp"
#include "stack/icmp.hpp"
#include "stun/stun.hpp"
#include "tcp/tcp.hpp"
#include "wavnet/host.hpp"

namespace wav {
namespace {

using nat::NatType;
using overlay::HostAgent;
using wavnet::WavnetHost;

struct RelayFixture {
  struct Options {
    NatType type_a{NatType::kSymmetric};
    NatType type_b{NatType::kSymmetric};
    bool use_stun{false};
    std::size_t relay_count{1};
    std::size_t max_channels{64};
  };

  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::Wan::Site* site_a{};
  fabric::Wan::Site* site_b{};
  std::unique_ptr<stun::StunServer> stun_server;
  std::unique_ptr<overlay::RendezvousServer> rendezvous;
  std::vector<std::unique_ptr<relay::RelayServer>> relays;
  std::unique_ptr<WavnetHost> a1;
  std::unique_ptr<WavnetHost> b1;

  explicit RelayFixture(Options opt) : opt_(opt) {
    fabric::SiteConfig sa;
    sa.name = "A";
    sa.nat.type = opt.type_a;
    fabric::SiteConfig sb;
    sb.name = "B";
    sb.nat.type = opt.type_b;
    site_a = &wan.add_site(sa);
    site_b = &wan.add_site(sb);
    auto& rv_host = wan.add_public_host("rendezvous");
    fabric::HostNode* stun1 = nullptr;
    fabric::HostNode* stun2 = nullptr;
    if (opt.use_stun) {
      stun1 = &wan.add_public_host("stun1");
      stun2 = &wan.add_public_host("stun2");
    }
    fabric::PairPath path;
    path.one_way = milliseconds(25);
    wan.set_default_paths(path);

    overlay::RendezvousServer::Config rv_cfg;
    for (std::size_t i = 0; i < opt.relay_count; ++i) {
      rv_cfg.relays.push_back(
          {rv_host.primary_address(), static_cast<std::uint16_t>(5300 + i)});
    }
    rendezvous = std::make_unique<overlay::RendezvousServer>(rv_host, rv_cfg);
    // Relays co-host on the rendezvous node, sharing its UdpLayer.
    for (std::size_t i = 0; i < opt.relay_count; ++i) {
      relay::RelayServer::Config rc;
      rc.port = static_cast<std::uint16_t>(5300 + i);
      rc.max_channels = opt.max_channels;
      relays.push_back(std::make_unique<relay::RelayServer>(rendezvous->udp(), rc));
    }
    rendezvous->bootstrap();
    if (opt.use_stun) {
      stun_server = std::make_unique<stun::StunServer>(*stun1, *stun2);
    }

    a1 = make_host(*site_a->hosts[0], "a1", "10.10.0.1");
    b1 = make_host(*site_b->hosts[0], "b1", "10.10.0.2");
    a1->start();
    b1->start();
    // Symmetric-NAT classification walks the full RFC 3489 tree with
    // retransmit timeouts; give registration room when STUN is on.
    sim.run_for(opt.use_stun ? seconds(20) : seconds(5));
  }

  std::unique_ptr<WavnetHost> make_host(fabric::HostNode& host,
                                        const std::string& name,
                                        const std::string& vip) {
    WavnetHost::Config cfg;
    cfg.agent.name = name;
    cfg.agent.rendezvous = rendezvous->host_endpoint();
    if (opt_.use_stun) {
      cfg.agent.stun = {{stun_server->primary_endpoint(),
                         stun_server->alternate_endpoint()}};
    }
    cfg.virtual_ip = net::Ipv4Address::parse(vip).value();
    return std::make_unique<WavnetHost>(host, cfg);
  }

 private:
  Options opt_;
};

TEST(Relay, SymmetricPairFallsBackAfterPunchTimeout) {
  // No STUN: both agents self-report port-restricted cone, so the ladder
  // tries direct punching first, burns the punch deadline against the
  // actually-symmetric NATs, and only then enters the relay rung.
  RelayFixture env{{}};
  bool ok = false;
  env.a1->connect(env.b1->agent().self_info(),
                  [&](bool success, overlay::HostId) { ok = success; });
  env.sim.run_for(seconds(20));

  ASSERT_TRUE(ok);
  ASSERT_TRUE(env.a1->agent().link_established(env.b1->agent().id()));
  ASSERT_TRUE(env.b1->agent().link_established(env.a1->agent().id()));
  EXPECT_EQ(env.a1->agent().link_kind(env.b1->agent().id()),
            HostAgent::LinkKind::kRelayed);
  EXPECT_EQ(env.b1->agent().link_kind(env.a1->agent().id()),
            HostAgent::LinkKind::kRelayed);
  EXPECT_GT(env.a1->agent().stats().punches_sent, 0u);
  EXPECT_EQ(env.a1->agent().stats().relay_fallbacks, 1u);
  EXPECT_EQ(env.relays[0]->active_channels(), 1u);

  // The relayed tunnel is a real L2 segment: ARP + ICMP cross it.
  stack::IcmpLayer icmp_a{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};
  int replies = 0;
  const std::uint16_t id = icmp_a.allocate_id();
  icmp_a.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 1, 56);
  env.sim.run_for(seconds(5));
  EXPECT_EQ(replies, 1);
  const auto rs = env.relays[0]->stats();
  EXPECT_GT(rs.frames_relayed, 0u);
  // The snapshot and the registry must agree (same source).
  auto& reg = env.sim.metrics();
  const std::string inst = env.relays[0]->endpoint().to_string();
  EXPECT_EQ(rs.allocations, reg.counter("relay.allocations", inst).value());
  EXPECT_EQ(rs.frames_relayed, reg.counter("relay.frames_relayed", inst).value());
  EXPECT_EQ(rs.bytes_relayed, reg.counter("relay.bytes_relayed", inst).value());
}

TEST(Relay, KnownIncompatiblePairRelaysImmediately) {
  // STUN classifies both sides as symmetric, so the policy engine skips
  // the doomed punch round entirely and allocates a relay channel at
  // connect time — no punches, established well inside the 8 s punch
  // deadline.
  RelayFixture env{{.use_stun = true}};
  const TimePoint before = env.sim.now();
  bool ok = false;
  TimePoint established_at{};
  env.a1->connect(env.b1->agent().self_info(),
                  [&](bool success, overlay::HostId) {
                    ok = success;
                    established_at = env.sim.now();
                  });
  env.sim.run_for(seconds(6));

  ASSERT_TRUE(ok);
  ASSERT_TRUE(env.a1->agent().link_established(env.b1->agent().id()));
  EXPECT_EQ(env.a1->agent().link_kind(env.b1->agent().id()),
            HostAgent::LinkKind::kRelayed);
  EXPECT_EQ(env.a1->agent().stats().punches_sent, 0u);
  EXPECT_LT(to_seconds(established_at - before),
            to_seconds(env.a1->agent().config().punch_timeout));

  // Paper-style end-to-end check on the virtual plane: ping, then a TCP
  // transfer riding the relayed tunnel.
  stack::IcmpLayer icmp_a{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};
  int replies = 0;
  const std::uint16_t id = icmp_a.allocate_id();
  icmp_a.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 1, 56);
  env.sim.run_for(seconds(5));
  EXPECT_EQ(replies, 1);

  tcp::TcpLayer tcp_a{env.a1->stack()};
  tcp::TcpLayer tcp_b{env.b1->stack()};
  const std::uint64_t kTransfer = 2ull * 1024 * 1024;
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

TEST(Relay, RelayCrashFailsOverToSurvivor) {
  RelayFixture env{{.use_stun = true, .relay_count = 2}};
  env.a1->connect(env.b1->agent().self_info());
  env.sim.run_for(seconds(6));
  const overlay::HostId peer_b = env.b1->agent().id();
  ASSERT_EQ(env.a1->agent().link_kind(peer_b), HostAgent::LinkKind::kRelayed);

  // Both sides pick relays_[(a_id + b_id) % n], so the active relay is
  // deterministic; crash exactly that one.
  const auto active_ep = env.a1->agent().link_relay(peer_b);
  ASSERT_TRUE(active_ep.has_value());
  const std::size_t active = active_ep->port == 5300 ? 0 : 1;
  const std::size_t survivor = 1 - active;

  chaos::ChaosController controller{env.sim};
  controller.add_relay("relay0", *env.relays[0]);
  controller.add_relay("relay1", *env.relays[1]);
  chaos::InvariantChecker checker;
  checker.add_agent(env.a1->agent());
  checker.add_agent(env.b1->agent());
  checker.add_relay(*env.relays[0]);
  checker.add_relay(*env.relays[1]);
  checker.expect_full_mesh();

  chaos::FaultPlan plan;
  plan.relay_crash(env.sim.now() + seconds(2),
                   "relay" + std::to_string(active));
  controller.schedule(plan);
  env.sim.run_for(seconds(3));
  ASSERT_TRUE(env.relays[active]->down());
  ASSERT_FALSE(checker.converged()) << "dead-relay invariant did not trip";

  // Detection is 3 missed refresh acks on the 5 s cadence; both sides
  // advance their synchronized cursor to the survivor and re-bind.
  bool converged = false;
  for (int i = 0; i < 45 && !converged; ++i) {
    env.sim.run_for(seconds(1));
    converged = checker.converged();
  }
  EXPECT_TRUE(converged) << [&] {
    std::string all;
    for (const auto& v : checker.violations()) all += v + "; ";
    return all;
  }();
  ASSERT_TRUE(env.a1->agent().link_established(peer_b));
  EXPECT_EQ(env.a1->agent().link_relay(peer_b), env.relays[survivor]->endpoint());
  EXPECT_GE(env.a1->agent().stats().relay_failovers, 1u);
  EXPECT_EQ(env.relays[survivor]->active_channels(), 1u);
}

TEST(Relay, RelayedLinkUpgradesToDirectWithoutFrameLoss) {
  // Cone-cone pair (punch-compatible), but a WAN partition between the
  // sites blackholes the direct path at connect time: punching times
  // out, the pair falls back to the relay (a public host outside both
  // partition groups). After the heal, the periodic upgrade probe
  // re-punches, proves the direct path, and the flush handshake drains
  // every in-flight relayed frame before the switch — the continuous
  // sequence-numbered stream below must arrive complete and in order.
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::SiteConfig sa;
  sa.name = "A";
  fabric::SiteConfig sb;
  sb.name = "B";
  auto* site_a = &wan.add_site(sa);
  auto* site_b = &wan.add_site(sb);
  auto& rv_host = wan.add_public_host("rendezvous");
  fabric::PairPath path;
  path.one_way = milliseconds(25);
  wan.set_default_paths(path);

  overlay::RendezvousServer::Config rv_cfg;
  rv_cfg.relays.push_back({rv_host.primary_address(), 5300});
  overlay::RendezvousServer rendezvous{rv_host, rv_cfg};
  relay::RelayServer::Config rc;
  rc.port = 5300;
  relay::RelayServer relay_srv{rendezvous.udp(), rc};
  rendezvous.bootstrap();

  HostAgent::Config cfg_a;
  cfg_a.name = "a1";
  cfg_a.rendezvous = rendezvous.host_endpoint();
  HostAgent agent_a{*site_a->hosts[0], cfg_a};
  HostAgent::Config cfg_b;
  cfg_b.name = "b1";
  cfg_b.rendezvous = rendezvous.host_endpoint();
  HostAgent agent_b{*site_b->hosts[0], cfg_b};
  agent_a.start();
  agent_b.start();
  sim.run_for(seconds(5));

  wan.set_partition({"A"}, {"B"}, true);
  agent_a.connect_to(agent_b.self_info());
  sim.run_for(seconds(12));
  ASSERT_TRUE(agent_a.link_established(agent_b.id()));
  ASSERT_EQ(agent_a.link_kind(agent_b.id()), HostAgent::LinkKind::kRelayed);

  // Continuous stream: one sequence-numbered frame every 100 ms, the
  // counter riding in an ARP sender_ip.
  std::vector<std::uint32_t> received;
  agent_b.on_frame([&](overlay::HostId, const net::EncapFrame& encap) {
    if (const auto* arp = encap.frame->arp()) {
      received.push_back(arp->sender_ip.value);
    }
  });
  std::uint32_t next_seq = 0;
  sim::PeriodicTimer sender{sim, milliseconds(100), [&] {
    net::ArpMessage arp;
    arp.sender_ip = net::Ipv4Address{next_seq++};
    net::EncapFrame encap;
    encap.frame = std::make_shared<const net::EthernetFrame>(
        net::EthernetFrame::make_arp({}, {}, arp));
    agent_a.send_frame(agent_b.id(), std::move(encap));
  }};
  sender.start();
  sim.run_for(seconds(5));

  // Heal; the next upgrade probe window re-punches and switches over.
  wan.set_partition({"A"}, {"B"}, false);
  sim.run_for(seconds(25));
  sender.stop();
  sim.run_for(seconds(5));

  EXPECT_EQ(agent_a.link_kind(agent_b.id()), HostAgent::LinkKind::kDirect);
  EXPECT_GE(agent_a.stats().relay_upgrades, 1u);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(next_seq));
  for (std::uint32_t i = 0; i < next_seq; ++i) {
    ASSERT_EQ(received[i], i) << "frame stream reordered or lossy at " << i;
  }
  // Both sides released their binding; the channel is reclaimed.
  EXPECT_EQ(relay_srv.active_channels(), 0u);
}

TEST(Relay, CapacityExhaustedFailsConnect) {
  // A relay with zero channel capacity nacks every allocate; with no
  // other relay to rotate to, the ladder is out of rungs and the
  // connect fails hard with the per-reason counter attributing it.
  RelayFixture env{{.use_stun = true, .max_channels = 0}};
  bool called = false;
  bool ok = true;
  env.a1->connect(env.b1->agent().self_info(),
                  [&](bool success, overlay::HostId) {
                    called = true;
                    ok = success;
                  });
  env.sim.run_for(seconds(15));

  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(env.a1->agent().link_established(env.b1->agent().id()));
  // The backoff repunch keeps retrying (and re-failing) by design, so
  // the counter grows past 1; every failure must be attributed to the
  // relay rung, none to punch timeouts or the broker.
  EXPECT_GE(env.a1->agent().stats().connects_failed, 1u);
  EXPECT_EQ(env.sim.metrics().counter("overlay.connects_failed.relay", "a1").value(),
            env.a1->agent().stats().connects_failed);
  EXPECT_GE(env.relays[0]->stats().alloc_failures, 1u);
}

}  // namespace
}  // namespace wav
