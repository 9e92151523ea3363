// The Internet core of the simulated WAN.
//
// Site gateways attach to the core via short access links that carry each
// site's bandwidth cap; the core itself adds per-site-pair propagation
// delay, jitter and loss. This decomposition lets us reproduce the
// paper's testbed, where pairwise RTTs are *not* additive (HKU-SIAT
// 74.2 ms + HKU-PU 30.2 ms, yet SIAT-PU is 219.4 ms — Table II).
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "fabric/node.hpp"
#include "sim/delay_line.hpp"

namespace wav::fabric {

struct PathSpec {
  Duration one_way{kZeroDuration};  // extra core delay per direction
  Duration jitter_stddev{kZeroDuration};
  double loss_probability{0.0};
};

class InternetNode : public Node {
 public:
  InternetNode(Network& network, std::string name);

  /// Declares the path characteristics between the sites reachable via
  /// two of this node's interfaces (symmetric).
  void set_path(std::size_t iface_a, std::size_t iface_b, PathSpec spec);

  [[nodiscard]] PathSpec path(std::size_t iface_a, std::size_t iface_b) const;

  /// WAN partition mask (fault injection): while a pair is blocked, every
  /// packet between the two attachments is dropped in the core (symmetric,
  /// like a BGP blackhole between two regions).
  void set_blocked(std::size_t iface_a, std::size_t iface_b, bool blocked);
  [[nodiscard]] bool blocked(std::size_t iface_a, std::size_t iface_b) const {
    return blocked_pairs_.contains(key(iface_a, iface_b));
  }
  [[nodiscard]] std::uint64_t partition_drops() const noexcept {
    return partition_drops_;
  }

 protected:
  void forward(net::IpPacket pkt, Link& from) override;

 private:
  [[nodiscard]] std::size_t iface_index_of(const Link& link);

  static constexpr std::uint64_t key(std::size_t a, std::size_t b) noexcept {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  std::unordered_map<std::uint64_t, PathSpec> paths_;
  std::unordered_set<std::uint64_t> blocked_pairs_;
  // One interface per attachment: at 10k hosts a per-packet linear scan
  // over interfaces() turns the core O(N²). Attachments are append-only,
  // so the map is rebuilt lazily when the interface count grows.
  std::unordered_map<const Link*, std::size_t> iface_by_link_;
  std::uint64_t partition_drops_{0};
  obs::Counter* c_partition_drops_{nullptr};

  /// A packet held in the core for its path delay.
  struct Departure {
    const Interface* out{nullptr};
    net::IpPacket pkt;
  };
  /// Per directed (in,out) interface pair: the FIFO clamp (core jitter
  /// must not reorder packets of one flow) and the packets held for their
  /// path delay, in departure order. Only each line's head is an event.
  struct Direction {
    TimePoint last_depart{};
    sim::DelayLines<Departure>::Line held;
  };
  std::unordered_map<std::uint64_t, Direction> directions_;
  sim::DelayLines<Departure> departures_;
};

}  // namespace wav::fabric
