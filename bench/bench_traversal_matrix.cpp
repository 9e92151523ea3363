// Traversal matrix: the full NAT-type × NAT-type grid for the relay
// fallback ladder. Every cell builds an isolated two-endpoint world
// (public host for open-internet endpoints, otherwise a NATed site),
// deploys the rendezvous + one co-hosted TURN-style relay + a STUN pair,
// and drives one connect through the traversal policy engine: direct
// hole punch where the STUN-classified pair is compatible, immediate
// relayed tunnel where it is not. Per cell we record the traversal
// outcome (direct/relayed/fail), connect latency, virtual-plane ICMP
// RTT, and TCP goodput over the established tunnel — the goodput gap
// between direct and relayed cells is the relay's triangle-routing +
// encap-overhead penalty.
//
// Cells are seeded seed+index and draw only from their own simulation's
// RNG, so a fixed --seed reproduces a byte-identical --metrics-out
// export (asserted with cmp in CI and gated against the committed
// baseline by metrics_diff).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "fabric/wan.hpp"
#include "harness.hpp"
#include "overlay/rendezvous.hpp"
#include "relay/relay_server.hpp"
#include "stack/icmp.hpp"
#include "stun/stun.hpp"
#include "tcp/tcp.hpp"
#include "wavnet/host.hpp"

namespace {

using namespace wav;
using nat::NatType;
using overlay::HostAgent;
using wavnet::WavnetHost;

constexpr NatType kTypes[] = {NatType::kOpenInternet, NatType::kFullCone,
                              NatType::kRestrictedCone, NatType::kPortRestrictedCone,
                              NatType::kSymmetric};

const char* short_name(NatType type) {
  switch (type) {
    case NatType::kOpenInternet: return "open";
    case NatType::kFullCone: return "full";
    case NatType::kRestrictedCone: return "rcone";
    case NatType::kPortRestrictedCone: return "prcone";
    case NatType::kSymmetric: return "sym";
    default: return "?";
  }
}

struct CellResult {
  std::string label;     // "<a>-<b>", e.g. "sym-prcone"
  bool success{false};
  bool relayed{false};
  double connect_ms{-1.0};
  double ping_rtt_ms{-1.0};
  double goodput_mbps{-1.0};
};

/// One endpoint of a cell: a bare public host for kOpenInternet,
/// otherwise the single host of a site whose gateway runs `type`.
fabric::HostNode& make_endpoint(fabric::Wan& wan, NatType type,
                                const std::string& name) {
  if (type == NatType::kOpenInternet) return wan.add_public_host(name);
  fabric::SiteConfig cfg;
  cfg.name = name;
  cfg.nat.type = type;
  return *wan.add_site(cfg).hosts[0];
}

CellResult run_cell(NatType type_a, NatType type_b, std::uint64_t seed) {
  CellResult result;
  result.label = std::string(short_name(type_a)) + "-" + short_name(type_b);

  sim::Simulation sim{seed};
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::HostNode& node_a = make_endpoint(wan, type_a, "A");
  fabric::HostNode& node_b = make_endpoint(wan, type_b, "B");
  auto& rv_host = wan.add_public_host("rendezvous");
  auto& stun1 = wan.add_public_host("stun1");
  auto& stun2 = wan.add_public_host("stun2");
  fabric::PairPath path;
  path.one_way = milliseconds(25);
  wan.set_default_paths(path);

  overlay::RendezvousServer::Config rv_cfg;
  rv_cfg.relays.push_back({rv_host.primary_address(), 5300});
  overlay::RendezvousServer rendezvous{rv_host, rv_cfg};
  // The relay co-hosts on the rendezvous node, sharing its UdpLayer.
  relay::RelayServer::Config relay_cfg;
  relay_cfg.port = 5300;
  relay::RelayServer relay_srv{rendezvous.udp(), relay_cfg};
  rendezvous.bootstrap();
  stun::StunServer stun_server{stun1, stun2};

  const auto make_host = [&](fabric::HostNode& node, const std::string& name,
                             const char* vip) {
    WavnetHost::Config cfg;
    cfg.agent.name = name;
    cfg.agent.rendezvous = rendezvous.host_endpoint();
    cfg.agent.stun = {
        {stun_server.primary_endpoint(), stun_server.alternate_endpoint()}};
    cfg.virtual_ip = net::Ipv4Address::parse(vip).value();
    return std::make_unique<WavnetHost>(node, cfg);
  };
  const auto a1 = make_host(node_a, "a1", "10.10.0.1");
  const auto b1 = make_host(node_b, "b1", "10.10.0.2");
  a1->start();
  b1->start();
  // Symmetric classification walks the full RFC 3489 tree with
  // retransmit timeouts; give registration room before connecting.
  sim.run_for(seconds(20));

  const TimePoint connect_start = sim.now();
  bool called = false;
  bool ok = false;
  TimePoint established_at{};
  a1->connect(b1->agent().self_info(), [&](bool success, overlay::HostId) {
    called = true;
    ok = success;
    established_at = sim.now();
  });
  while (!called && sim.now() - connect_start < seconds(30)) {
    sim.run_for(milliseconds(100));
  }
  result.success = called && ok && a1->agent().link_established(b1->agent().id());

  if (result.success) {
    result.connect_ms = to_seconds(established_at - connect_start) * 1e3;
    result.relayed =
        a1->agent().link_kind(b1->agent().id()) == HostAgent::LinkKind::kRelayed;

    // Virtual-plane RTT: ICMP echo across the established tunnel.
    stack::IcmpLayer icmp_a{a1->stack()};
    stack::IcmpLayer icmp_b{b1->stack()};
    const TimePoint ping_start = sim.now();
    bool got_reply = false;
    const std::uint16_t id = icmp_a.allocate_id();
    icmp_a.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) {
      if (!got_reply) {
        got_reply = true;
        result.ping_rtt_ms = to_seconds(sim.now() - ping_start) * 1e3;
      }
    });
    icmp_a.send_echo_request(b1->virtual_ip(), id, 1, 56);
    while (!got_reply && sim.now() - ping_start < seconds(5)) {
      sim.run_for(milliseconds(50));
    }

    // Goodput over the tunnel: one 2 MiB TCP transfer, timed from the
    // handshake completing to the last byte landing.
    tcp::TcpLayer tcp_a{a1->stack()};
    tcp::TcpLayer tcp_b{b1->stack()};
    const std::uint64_t kTransfer = 2ull * 1024 * 1024;
    std::uint64_t received = 0;
    tcp_b.listen(5001, [&](tcp::TcpConnection::Ptr conn) {
      conn->on_data([&received](const std::vector<net::Chunk>& chunks) {
        received += net::total_size(chunks);
      });
    });
    TimePoint transfer_start{};
    auto conn = tcp_a.connect({b1->virtual_ip(), 5001});
    conn->on_established([&] {
      transfer_start = sim.now();
      conn->send_virtual(kTransfer);
    });
    const TimePoint tcp_deadline = sim.now() + seconds(120);
    while (received < kTransfer && sim.now() < tcp_deadline) {
      sim.run_for(milliseconds(200));
    }
    if (received >= kTransfer && transfer_start != TimePoint{}) {
      result.goodput_mbps = static_cast<double>(kTransfer) * 8.0 /
                            to_seconds(sim.now() - transfer_start) / 1e6;
    }
  }

  obs::MetricsRegistry& reg = sim.metrics();
  reg.gauge("traversal.success", result.label).set(result.success ? 1.0 : 0.0);
  reg.gauge("traversal.relayed", result.label).set(result.relayed ? 1.0 : 0.0);
  reg.gauge("traversal.connect_ms", result.label).set(result.connect_ms);
  reg.gauge("traversal.ping_rtt_ms", result.label).set(result.ping_rtt_ms);
  reg.gauge("traversal.goodput_mbps", result.label).set(result.goodput_mbps);
  benchx::append_metrics_line(sim, "traversal", seed);
  return result;
}

std::uint64_t parse_seed(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) return std::strtoull(argv[i + 1], nullptr, 10);
    if (arg.rfind("--seed=", 0) == 0) return std::strtoull(arg.c_str() + 7, nullptr, 10);
  }
  return 2026;
}

}  // namespace

int main(int argc, char** argv) {
  wav::benchx::obs_init(argc, argv);
  const std::uint64_t seed = parse_seed(argc, argv);
  benchx::banner("Traversal matrix — NAT×NAT ladder outcomes",
                 "5x5 NAT-type grid, one isolated world per cell (seed " +
                     std::to_string(seed) + "+index); D = direct punch, "
                     "R = relayed tunnel.");

  std::vector<CellResult> cells;
  std::uint64_t index = 0;
  for (const NatType a : kTypes) {
    for (const NatType b : kTypes) {
      cells.push_back(run_cell(a, b, seed + index));
      ++index;
    }
  }

  TextTable grid{"Traversal outcome by initiator (rows) vs responder (cols)"};
  {
    std::vector<std::string> header{"init \\ resp"};
    for (const NatType b : kTypes) header.emplace_back(short_name(b));
    grid.header(std::move(header));
  }
  std::size_t cell_idx = 0;
  std::size_t failures = 0;
  std::size_t relayed_count = 0;
  for (const NatType a : kTypes) {
    std::vector<std::string> row{short_name(a)};
    for (std::size_t j = 0; j < std::size(kTypes); ++j) {
      (void)j;
      const CellResult& c = cells[cell_idx++];
      if (!c.success) {
        ++failures;
        row.emplace_back("FAIL");
      } else {
        relayed_count += c.relayed ? 1 : 0;
        row.push_back(std::string(c.relayed ? "R " : "D ") +
                      fmt_f(c.connect_ms, 0) + "ms");
      }
    }
    grid.row(std::move(row));
  }
  grid.print();

  TextTable detail{"Per-cell measurements on the virtual plane"};
  detail.header({"Cell", "Outcome", "Connect (ms)", "Ping RTT (ms)",
                 "TCP goodput (Mbps)"});
  for (const CellResult& c : cells) {
    detail.row({c.label, c.success ? (c.relayed ? "relayed" : "direct") : "FAIL",
                c.success ? fmt_f(c.connect_ms, 0) : "-",
                c.ping_rtt_ms >= 0 ? fmt_f(c.ping_rtt_ms, 1) : "-",
                c.goodput_mbps >= 0 ? fmt_f(c.goodput_mbps, 1) : "-"});
  }
  detail.print();

  std::printf(
      "\nShape check: every cell connects; only pairs where a symmetric NAT\n"
      "meets another strict NAT (symmetric or port-restricted cone) take the\n"
      "relay rung — %zu/%zu relayed, %zu failed. Relayed cells pay the\n"
      "triangle route (higher RTT) and the per-frame relay encap overhead\n"
      "(lower goodput).\n",
      relayed_count, cells.size(), failures);
  return failures > 125 ? 125 : static_cast<int>(failures);
}
