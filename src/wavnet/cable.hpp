// A direct layer-2 cable between two software bridges: models native
// Ethernet adjacency (the paper's "LAN" baseline in Figure 9, where VMs
// migrate inside one switched LAN without any overlay). Each direction
// serializes frames at the configured rate and delivers after the
// propagation delay, FIFO.
#pragma once

#include "wavnet/bridge.hpp"

namespace wav::wavnet {

class BridgeCable {
 public:
  struct Config {
    BitRate rate{megabits_per_sec(100)};  // fast Ethernet, like the testbed
    Duration delay{microseconds(100)};
    Duration max_backlog{milliseconds(50)};
  };

  BridgeCable(sim::Simulation& sim, SoftwareBridge& a, SoftwareBridge& b, Config config);
  BridgeCable(sim::Simulation& sim, SoftwareBridge& a, SoftwareBridge& b);

 private:
  class Port : public BridgePort {
   public:
    Port(BridgeCable& cable, bool toward_b) : cable_(cable), toward_b_(toward_b) {}
    void deliver(const net::EthernetFrame& frame) override {
      cable_.transmit(toward_b_, frame);
    }

   private:
    BridgeCable& cable_;
    bool toward_b_;
  };

  void transmit(bool toward_b, const net::EthernetFrame& frame);

  sim::Simulation& sim_;
  Config config_;
  Port port_a_;  // attached to bridge a; forwards toward b
  Port port_b_;
  TimePoint busy_toward_a_{};
  TimePoint busy_toward_b_{};
};

}  // namespace wav::wavnet
