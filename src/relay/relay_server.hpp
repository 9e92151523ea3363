// TURN-style relay server (Ford et al., "Peer-to-Peer Communication
// Across Network Address Translators" §4): the universal fallback
// behind hole punching. Co-hosted on a rendezvous node's public IP, it
// allocates one bidirectional channel per host pair, forwards tunneled
// EncapFrames between the two bound sides, and applies capacity and
// per-interval byte-credit accounting plus idle expiry so a dead pair
// cannot pin relay resources forever.
//
// Channel addressing rides the EncapFrame overlay ids: a relayed data
// frame carries (overlay_src, overlay_dst) host ids, which the relay
// maps to the channel keyed by the unordered pair. Both sides must have
// bound (sent a RelayAllocate from their NAT mapping) before frames
// flow — the allocate from each side is also what opens that side's NAT
// pinhole toward the relay.
#pragma once

#include <map>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "overlay/messages.hpp"
#include "sim/simulation.hpp"
#include "stack/udp.hpp"

namespace wav::relay {

using overlay::HostId;

class RelayServer {
 public:
  struct Config {
    std::uint16_t port{5300};
    // Hard cap on concurrently allocated channels; allocations beyond it
    // are nacked with reason "capacity" and the pair's traversal fails.
    std::size_t max_channels{64};
    // Token-bucket byte credit per channel: refilled every interval,
    // capped at two intervals' worth. Frames beyond the credit drop.
    std::uint64_t credit_bytes_per_interval{16ull * 1024 * 1024};
    Duration credit_interval{seconds(1)};
    // A channel with no data/keepalive in this window is reclaimed.
    Duration channel_idle_timeout{seconds(60)};
    // A *side* not heard from in this window no longer counts as bound,
    // even while the other side keeps the channel busy. Without per-side
    // liveness a survivor's one-sided refreshes and pulses keep a dead
    // peer's binding immortal, and every re-allocate sees peer_bound=true
    // — the relay then vouches forever for a host that crashed (zombie
    // relayed links under churn). Must exceed the agents' refresh and
    // pulse cadences with margin.
    Duration side_liveness_timeout{seconds(20)};
  };

  explicit RelayServer(stack::IpLayer& ip);
  RelayServer(stack::IpLayer& ip, Config config);
  /// Co-hosted form: binds on an existing UDP layer. An IpLayer carries
  /// at most one UdpLayer, so a relay sharing the rendezvous node must
  /// share its UdpLayer (distinct port) instead of creating a second one.
  RelayServer(stack::UdpLayer& udp, Config config);

  [[nodiscard]] net::Endpoint endpoint() const {
    return {ip_.ip_address(), config_.port};
  }

  [[nodiscard]] std::size_t active_channels() const noexcept {
    return channels_.size();
  }
  [[nodiscard]] bool down() const noexcept { return down_; }

  /// Ungraceful process death: every channel is lost and the port goes
  /// deaf until restart(). Agents notice via missed refresh acks and
  /// fail over to a surviving relay.
  void crash();
  void restart();

  struct Stats {
    std::uint64_t allocations{0};   // new channels created
    std::uint64_t refreshes{0};     // re-binds of an existing channel
    std::uint64_t alloc_failures{0};
    std::uint64_t frames_relayed{0};
    std::uint64_t bytes_relayed{0};
    std::uint64_t frames_dropped_no_credit{0};
    std::uint64_t frames_dropped_unbound{0};
    std::uint64_t channels_expired{0};
  };
  /// Snapshot of this relay's registry counters.
  [[nodiscard]] Stats stats() const noexcept;

 private:
  struct Side {
    net::Endpoint endpoint{};
    bool bound{false};
    TimePoint last_seen{};  // last allocate/pulse/frame from this side
  };
  struct Channel {
    Side lo_side;  // side of the smaller host id in the pair key
    Side hi_side;
    TimePoint last_active{};
    std::uint64_t credit{0};
  };
  using PairKey = std::pair<HostId, HostId>;

  void on_datagram(const net::Endpoint& from, const net::UdpDatagram& dgram);
  void handle_allocate(const net::Endpoint& from, const overlay::RelayAllocateMsg& msg);
  void handle_release(const net::Endpoint& from, const overlay::RelayReleaseMsg& msg);
  void forward_encap(const net::EncapFrame& encap);
  /// Control messages (pulse/flush) forwarded verbatim to the other side.
  void forward_control(HostId from_host, HostId to_host, const net::Chunk& chunk);
  void refill_credits();
  void expire_idle_channels();
  void sync_channel_gauge();

  [[nodiscard]] static PairKey key_of(HostId a, HostId b) {
    return a < b ? PairKey{a, b} : PairKey{b, a};
  }
  /// The side of `id` in the channel for key_of(id, peer).
  [[nodiscard]] static Side& side_of(Channel& ch, HostId id, HostId peer) {
    return id < peer ? ch.lo_side : ch.hi_side;
  }
  [[nodiscard]] static Side& other_side(Channel& ch, HostId id, HostId peer) {
    return id < peer ? ch.hi_side : ch.lo_side;
  }
  /// Bound AND recently heard from — what peer_bound reports and what
  /// forwarding requires.
  [[nodiscard]] bool side_alive(const Side& side) const;

  void init();

  stack::IpLayer& ip_;
  Config config_;
  std::unique_ptr<stack::UdpLayer> owned_udp_;  // standalone form only
  stack::UdpSocket socket_;

  // Ordered map: the idle-expiry sweep iterates it, and deterministic
  // iteration order is part of the byte-identical-exports contract.
  std::map<PairKey, Channel> channels_;
  sim::PeriodicTimer credit_timer_;
  sim::PeriodicTimer idle_timer_;
  bool down_{false};

  obs::Counter* c_allocations_{nullptr};
  obs::Counter* c_refreshes_{nullptr};
  obs::Counter* c_alloc_failures_{nullptr};
  obs::Counter* c_frames_relayed_{nullptr};
  obs::Counter* c_bytes_relayed_{nullptr};
  obs::Counter* c_dropped_no_credit_{nullptr};
  obs::Counter* c_dropped_unbound_{nullptr};
  obs::Counter* c_channels_expired_{nullptr};
  obs::Gauge* g_active_channels_{nullptr};
};

}  // namespace wav::relay
