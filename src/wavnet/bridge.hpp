// The link layer of the virtual private cloud on one physical host:
// a learning software bridge (the paper's Figure 5 "virtual network
// bridge") and the virtual NICs that plug VMs and the host's own stack
// into it. The WAV-Switch (switch.hpp) attaches as just another port,
// which is exactly how the tap device joins the Xen bridge in the paper.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "wavnet/mac_table.hpp"

namespace wav::wavnet {

class SoftwareBridge;

/// A port on the software bridge. Implementations: VirtualNic (VMs, host
/// stack), WavSwitch (the WAN tunnel side).
class BridgePort {
 public:
  virtual ~BridgePort();

  /// Bridge -> port delivery.
  virtual void deliver(const net::EthernetFrame& frame) = 0;

  [[nodiscard]] SoftwareBridge* bridge() const noexcept { return bridge_; }

 protected:
  /// Port -> bridge injection (used by subclasses).
  void inject_to_bridge(const net::EthernetFrame& frame);

 private:
  friend class SoftwareBridge;
  SoftwareBridge* bridge_{nullptr};
};

/// MAC-learning Ethernet bridge. Frames from one port are forwarded to
/// the learned port for the destination MAC, or flooded to every other
/// port for broadcast/multicast/unknown destinations.
class SoftwareBridge {
 public:
  explicit SoftwareBridge(sim::Simulation& sim, Duration fdb_ttl = seconds(300),
                          Duration latency = microseconds(2));
  /// Clears its ports' back-pointers: a port may outlive the bridge (an
  /// IpopHost is a port that owns its bridge as a member).
  ~SoftwareBridge();

  SoftwareBridge(const SoftwareBridge&) = delete;
  SoftwareBridge& operator=(const SoftwareBridge&) = delete;

  void attach(BridgePort& port);
  void detach(BridgePort& port);

  /// Attaches a monitor port: it receives a copy of *every* frame the
  /// bridge processes (like tcpdump on the bridge) but is never a
  /// forwarding target and never sources traffic.
  void attach_monitor(BridgePort& port);
  void detach_monitor(BridgePort& port);

  /// Forwards a frame that entered through `from` (nullptr = injected by
  /// the hypervisor itself, e.g. a gratuitous ARP on behalf of a VM).
  void inject(BridgePort* from, const net::EthernetFrame& frame);

  [[nodiscard]] std::size_t port_count() const noexcept { return ports_.size(); }
  [[nodiscard]] std::size_t fdb_size() const noexcept { return fdb_.size(); }

  struct Stats {
    std::uint64_t forwarded{0};
    std::uint64_t flooded{0};
  };
  /// Snapshot view over the registry-owned counters.
  [[nodiscard]] Stats stats() const noexcept {
    return Stats{c_forwarded_->value(), c_flooded_->value()};
  }

 private:
  void forward_now(BridgePort* from, const net::EthernetFrame& frame);

  sim::Simulation& sim_;
  Duration fdb_ttl_;
  Duration latency_;
  std::string instance_;  // "bridge#N", also the flow-trace hop instance
  std::vector<BridgePort*> ports_;
  std::vector<BridgePort*> monitors_;
  MacTable<BridgePort*> fdb_;
  obs::Counter* c_forwarded_{nullptr};
  obs::Counter* c_flooded_{nullptr};
};

/// A virtual NIC: the NetDevice a protocol stack binds to, implemented as
/// a bridge port. Delivers frames addressed to its MAC (or broadcast);
/// promiscuous mode receives everything (the tcpdump experiment).
class VirtualNic : public BridgePort {
 public:
  using FrameHandler = std::function<void(const net::EthernetFrame&)>;

  explicit VirtualNic(net::MacAddress mac) : mac_(mac) {}

  [[nodiscard]] net::MacAddress mac() const noexcept { return mac_; }
  void set_mac(net::MacAddress mac) noexcept { mac_ = mac; }

  /// Stack -> network.
  bool transmit(const net::EthernetFrame& frame);

  /// Network -> stack.
  void set_receive_handler(FrameHandler handler) { on_frame_ = std::move(handler); }
  void set_promiscuous(bool on) noexcept { promiscuous_ = on; }

  /// A disabled NIC (paused VM) neither sends nor receives.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void deliver(const net::EthernetFrame& frame) override;

 private:
  net::MacAddress mac_;
  bool promiscuous_{false};
  bool enabled_{true};
  FrameHandler on_frame_;
};

/// Deterministic locally-administered MAC from a small integer.
[[nodiscard]] inline net::MacAddress make_mac(std::uint64_t n) {
  return net::MacAddress::from_u64(0x020000000000ULL | (n & 0xFFFFFFFFFFULL));
}

}  // namespace wav::wavnet
