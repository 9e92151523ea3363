// Property-based sweeps over the core invariants:
//   * TCP: byte-exact in-order delivery and eventual completion across a
//     grid of (loss, RTT, rate) conditions and seeds, with goodput never
//     exceeding the physical rate.
//   * CAN: zone partition / neighbor-symmetry invariants under randomized
//     join-leave churn.
//   * Simulation: deterministic replay — identical seeds give identical
//     event counts and outcomes.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "can/node.hpp"
#include "fabric/host.hpp"
#include "fabric/network.hpp"
#include "tcp/tcp.hpp"

namespace wav {
namespace {

struct TcpCase {
  double loss;
  double rtt_ms;
  double rate_mbps;
  std::uint64_t seed;
};

class TcpConditionSweep : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpConditionSweep, ByteExactDeliveryAndCompletion) {
  const TcpCase param = GetParam();
  sim::Simulation sim{param.seed};
  fabric::Network network{sim};
  auto& a = network.add_node<fabric::HostNode>("a");
  auto& b = network.add_node<fabric::HostNode>("b");
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds_f(param.rtt_ms / 2.0);
  cfg.rate = megabits_per_sec(param.rate_mbps);
  cfg.loss_probability = param.loss;
  const net::Ipv4Subnet subnet{net::Ipv4Address::parse("10.0.0.0").value(), 24};
  network.connect(a, {net::Ipv4Address::parse("10.0.0.1").value(), subnet}, b,
                  {net::Ipv4Address::parse("10.0.0.2").value(), subnet}, cfg);
  a.set_default_route(0);
  b.set_default_route(0);
  tcp::TcpLayer ta{a};
  tcp::TcpLayer tb{b};

  // Interleave real patterned chunks with virtual bulk.
  const std::size_t kMessages = 400;
  std::string expected;
  std::string got;
  std::uint64_t virtual_expected = 0;
  std::uint64_t virtual_got = 0;
  tb.listen(5001, [&](tcp::TcpConnection::Ptr conn) {
    conn->on_data([&](const std::vector<net::Chunk>& chunks) {
      for (const auto& c : chunks) {
        if (c.is_virtual()) {
          virtual_got += c.virtual_size;
        } else {
          got += bytes_to_string(c.real);
        }
      }
    });
  });
  auto conn = ta.connect({b.primary_address(), 5001});
  conn->on_established([&] {
    Rng pattern{param.seed ^ 0xABCD};
    for (std::size_t i = 0; i < kMessages; ++i) {
      std::string s;
      const auto len = 16 + pattern.uniform_u64(0, 200);
      for (std::uint64_t j = 0; j < len; ++j) {
        s += static_cast<char>('a' + (i * 31 + j * 7) % 26);
      }
      expected += s;
      conn->send_bytes(s);
      const auto bulk = pattern.uniform_u64(0, 4000);
      virtual_expected += bulk;
      if (bulk > 0) conn->send_virtual(bulk);
    }
  });

  const TimePoint start = sim.now();
  sim.run_for(seconds(600));

  EXPECT_EQ(got, expected);
  EXPECT_EQ(virtual_got, virtual_expected);

  // Goodput can never exceed the physical rate.
  const double elapsed = to_seconds(sim.now() - start);
  const double goodput_mbps =
      static_cast<double>(got.size() + virtual_got) * 8.0 / elapsed / 1e6;
  EXPECT_LE(goodput_mbps, param.rate_mbps * 1.01);
}

std::vector<TcpCase> tcp_cases() {
  std::vector<TcpCase> cases;
  for (const double loss : {0.0, 0.01, 0.05}) {
    for (const double rtt : {2.0, 40.0, 200.0}) {
      for (const double rate : {5.0, 50.0}) {
        cases.push_back({loss, rtt, rate, 1000 + cases.size()});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, TcpConditionSweep, ::testing::ValuesIn(tcp_cases()),
                         [](const auto& param_info) {
                           const auto& c = param_info.param;
                           return "loss" + std::to_string(static_cast<int>(c.loss * 100)) +
                                  "_rtt" + std::to_string(static_cast<int>(c.rtt_ms)) +
                                  "_rate" + std::to_string(static_cast<int>(c.rate_mbps));
                         });

/// CAN churn harness: loopback transport, random joins and leaves.
class CanChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CanChurn, InvariantsHoldUnderChurn) {
  sim::Simulation sim{GetParam()};
  std::vector<std::unique_ptr<can::CanNode>> nodes;
  std::set<can::NodeId> departed;
  auto find = [&](const net::Endpoint& ep) -> can::CanNode* {
    for (auto& n : nodes) {
      if (n->endpoint() == ep && !departed.contains(n->id())) return n.get();
    }
    return nullptr;
  };
  auto make_node = [&](std::size_t id) {
    const net::Endpoint ep{net::Ipv4Address{static_cast<std::uint32_t>(id)}, 9000};
    return std::make_unique<can::CanNode>(
        sim, id, ep, [&, ep](const net::Endpoint& to, net::Chunk msg) {
          sim.schedule_after(milliseconds(3), [&, to, msg = std::move(msg)] {
            if (auto* node = find(to)) node->on_message(net::Endpoint{}, msg);
          });
        });
  };

  nodes.push_back(make_node(1));
  nodes.front()->bootstrap();
  std::size_t next_id = 2;
  Rng rng{GetParam() * 7 + 1};

  auto check_invariants = [&] {
    double volume = 0;
    std::vector<can::CanNode*> live;
    for (auto& n : nodes) {
      if (n->joined() && !departed.contains(n->id())) {
        live.push_back(n.get());
        volume += n->zone().volume();
      }
    }
    EXPECT_NEAR(volume, 1.0, 1e-9);
    // A random point is owned exactly once.
    for (int probes = 0; probes < 20; ++probes) {
      const auto p = can::Point::random(rng, 2);
      int owners = 0;
      for (auto* n : live) {
        if (n->zone().contains(p)) ++owners;
      }
      EXPECT_EQ(owners, 1);
    }
    // Neighbor tables are symmetric and complete.
    for (auto* x : live) {
      for (auto* y : live) {
        if (x == y) continue;
        EXPECT_EQ(x->zone().is_neighbor(y->zone()), x->neighbors().contains(y->id()));
      }
    }
  };

  for (int step = 0; step < 24; ++step) {
    const bool grow = nodes.size() < 3 || rng.chance(0.65);
    if (grow) {
      nodes.push_back(make_node(next_id++));
      nodes.back()->join(nodes.front()->endpoint());
      sim.run_for(seconds(2));
    } else {
      // Leave a random non-bootstrap node whose zone is mergeable.
      auto idx = 1 + rng.uniform_u64(0, nodes.size() - 2);
      if (nodes[idx]->joined() && nodes[idx]->leave()) {
        departed.insert(nodes[idx]->id());
        sim.run_for(seconds(2));
      }
    }
    sim.run_for(seconds(35));  // hello rounds settle neighbor tables
    check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanChurn, ::testing::Values(3, 11, 29));

TEST(Determinism, IdenticalSeedsReplayIdentically) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulation sim{seed};
    fabric::Network network{sim};
    auto& a = network.add_node<fabric::HostNode>("a");
    auto& b = network.add_node<fabric::HostNode>("b");
    fabric::LinkConfig cfg;
    cfg.delay = milliseconds(10);
    cfg.rate = megabits_per_sec(10);
    cfg.loss_probability = 0.02;
    const net::Ipv4Subnet subnet{net::Ipv4Address::parse("10.0.0.0").value(), 24};
    network.connect(a, {net::Ipv4Address::parse("10.0.0.1").value(), subnet}, b,
                    {net::Ipv4Address::parse("10.0.0.2").value(), subnet}, cfg);
    a.set_default_route(0);
    b.set_default_route(0);
    tcp::TcpLayer ta{a};
    tcp::TcpLayer tb{b};
    std::uint64_t received = 0;
    tb.listen(5001, [&](tcp::TcpConnection::Ptr conn) {
      conn->on_data([&received](const std::vector<net::Chunk>& chunks) {
        received += net::total_size(chunks);
      });
    });
    auto conn = ta.connect({b.primary_address(), 5001});
    conn->on_established([&] { conn->send_virtual(2 << 20); });
    sim.run_for(seconds(30));
    return std::tuple{received, sim.events_executed(), conn->stats().retransmits};
  };

  const auto first = run_once(77);
  const auto second = run_once(77);
  const auto different = run_once(78);
  EXPECT_EQ(first, second);
  EXPECT_NE(std::get<1>(first), std::get<1>(different));
}

}  // namespace
}  // namespace wav
