// Point-to-point link with propagation delay, serialization at a finite
// bit rate, a drop-tail queue, optional jitter and random loss.
//
// The queue is modeled analytically: each direction tracks the time its
// transmitter becomes free; a packet whose queueing delay would exceed
// the configured backlog bound is dropped. This yields the bandwidth
// sharing and loss behavior TCP congestion control needs, at O(1) state.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace wav::fabric {

class Node;

struct LinkConfig {
  Duration delay{milliseconds(1)};     // one-way propagation
  BitRate rate{kUnlimitedRate};        // serialization rate (0 = infinite)
  Duration max_backlog{milliseconds(100)};  // drop-tail bound on queueing delay
  double loss_probability{0.0};        // independent per-packet wire loss
  Duration jitter_stddev{kZeroDuration};    // Gaussian delay jitter (>= 0 clamp)
};

struct LinkStats {
  std::uint64_t delivered_packets{0};
  std::uint64_t delivered_bytes{0};
  std::uint64_t dropped_queue{0};
  std::uint64_t dropped_loss{0};
  std::uint64_t dropped_down{0};  // transmit attempts while administratively down
};

class Link {
 public:
  Link(sim::Simulation& sim, Node& a, Node& b, LinkConfig config);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Transmits `pkt` from endpoint `from` to the other endpoint; delivery
  /// happens via Node::receive_from_link after queueing + delay.
  void transmit(const Node& from, net::IpPacket pkt);

  [[nodiscard]] Node& peer(const Node& n) const;
  [[nodiscard]] bool has_endpoint(const Node& n) const noexcept {
    return &n == a_ || &n == b_;
  }

  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }
  /// Live reconfiguration (e.g. the Figure 7 bandwidth sweep uses one
  /// topology and re-shapes the WAN rate).
  void set_rate(BitRate rate) noexcept { config_.rate = rate; }
  void set_delay(Duration delay) noexcept { config_.delay = delay; }
  void set_loss(double p) noexcept { config_.loss_probability = p; }
  void set_jitter(Duration stddev) noexcept { config_.jitter_stddev = stddev; }

  /// Administrative fault injection (cable cut / port down). A down link
  /// drops every transmit attempt; packets already in flight still arrive
  /// (they were on the wire when it was cut).
  void set_down() noexcept { down_ = true; }
  void set_up() noexcept;
  [[nodiscard]] bool down() const noexcept { return down_; }

  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }

 private:
  struct DirectionState {
    TimePoint busy_until{};
    TimePoint last_arrival{};  // FIFO clamp: jitter must not reorder a flow
  };

  sim::Simulation& sim_;
  Node* a_;
  Node* b_;
  LinkConfig config_;
  DirectionState toward_a_;
  DirectionState toward_b_;
  LinkStats stats_;
  bool down_{false};
};

}  // namespace wav::fabric
