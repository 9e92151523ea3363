// The rendezvous server (paper §II, Figure 1): a public-IP node that
//   * maintains registrations of NATed desktop hosts (their observed
//     public endpoints double as the hole-punching coordinates),
//   * participates in the CAN overlay that indexes host resource state,
//   * answers multi-attribute resource queries, and
//   * brokers direct host-to-host connection setup (Figure 3 steps 1-3).
#pragma once

#include <map>
#include <unordered_map>

#include "can/node.hpp"
#include "obs/metrics.hpp"
#include "overlay/messages.hpp"
#include "stack/udp.hpp"

namespace wav::overlay {

class RendezvousServer {
 public:
  struct Config {
    std::uint16_t host_port{4000};
    std::uint16_t can_port{4001};
    std::size_t can_dims{2};
    Duration host_expiry{seconds(90)};
    // A brokered connect that hasn't completed by then is reported back
    // to the requester as a ConnectFail instead of being GC'd silently.
    Duration connect_timeout{seconds(30)};
    // Relay servers advertised to every registering host (RegisterAck).
    // Usually co-hosted on this or sibling rendezvous nodes.
    std::vector<net::Endpoint> relays{};
    // Sibling shards of the registration fleet (host-facing endpoints,
    // excluding this server). When non-empty the server pings each peer
    // on this cadence and exports a shards-alive gauge.
    std::vector<net::Endpoint> shard_peers{};
    Duration shard_ping_interval{seconds(10)};
  };

  explicit RendezvousServer(stack::IpLayer& ip);
  RendezvousServer(stack::IpLayer& ip, Config config);

  /// First rendezvous server: owns the whole CAN space.
  void bootstrap();
  /// Joins an existing rendezvous overlay via another server's CAN port.
  void join(const net::Endpoint& seed_can_endpoint);

  [[nodiscard]] net::Endpoint host_endpoint() const {
    return {ip_.ip_address(), config_.host_port};
  }
  [[nodiscard]] net::Endpoint can_endpoint() const {
    return {ip_.ip_address(), config_.can_port};
  }

  [[nodiscard]] const can::CanNode& can_node() const noexcept { return can_; }
  /// Mutable CAN access for co-hosted services that store their own
  /// resources in the overlay (the group authority's epoch records).
  [[nodiscard]] can::CanNode& can_node() noexcept { return can_; }
  /// The server's UDP layer. An IpLayer carries at most one UdpLayer, so
  /// services co-hosted on this node (the TURN-style relay tier) must
  /// bind their ports on this layer rather than creating their own.
  [[nodiscard]] stack::UdpLayer& udp() noexcept { return udp_; }
  [[nodiscard]] std::size_t registered_hosts() const noexcept { return hosts_.size(); }
  [[nodiscard]] bool knows_host(HostId id) const noexcept { return hosts_.contains(id); }
  [[nodiscard]] std::size_t pending_connect_count() const noexcept {
    return pending_connects_.size();
  }

  /// Installs (or replaces) the sibling-shard list after construction —
  /// the fleet's endpoints are only known once every shard exists. Starts
  /// the liveness ping loop.
  void set_shard_peers(std::vector<net::Endpoint> peers);

  /// Piggyback channel on the shard liveness pings: `provider` supplies
  /// an opaque payload attached to every outgoing ping/pong (empty =
  /// attach nothing, keeping the wire unchanged) and `handler` receives
  /// every non-empty payload arriving from a sibling. The co-hosted
  /// group authority replicates its records through this channel.
  using ShardPayloadProvider = std::function<ByteBuffer()>;
  using ShardPayloadHandler = std::function<void(const ByteBuffer&)>;
  void set_shard_payload(ShardPayloadProvider provider, ShardPayloadHandler handler) {
    shard_payload_provider_ = std::move(provider);
    shard_payload_handler_ = std::move(handler);
  }
  /// Shards this server believes are up: itself plus every peer whose
  /// pong arrived within three ping intervals. 1 when unsharded.
  [[nodiscard]] std::size_t alive_shards() const;
  /// Registered hosts across the fleet as last reported by alive peers
  /// (plus this server's own table).
  [[nodiscard]] std::size_t fleet_registered_hosts() const;

  /// Ungraceful process death: every registration, pending connect and
  /// the server's CAN state are lost, and both UDP ports go deaf until
  /// restart(). Agents re-discover the loss via unanswered or rejected
  /// heartbeats and re-register from scratch.
  void crash();
  /// The process is back with empty tables; re-bootstraps/re-joins the
  /// CAN overlay (bootstrap when no seed is given).
  void restart();
  void restart(const net::Endpoint& seed_can_endpoint);
  [[nodiscard]] bool down() const noexcept { return down_; }

  struct Stats {
    std::uint64_t registrations{0};
    std::uint64_t heartbeats{0};
    std::uint64_t queries{0};
    std::uint64_t connects_brokered{0};
    std::uint64_t connects_failed{0};
  };
  /// Snapshot of this server's registry counters.
  [[nodiscard]] Stats stats() const noexcept;

 private:
  struct Registered {
    HostInfo info;
    net::Endpoint observed{};
    TimePoint last_seen{};
  };
  struct PendingConnect {
    net::Endpoint requester_observed{};
    TimePoint created{};
  };

  void on_host_datagram(const net::Endpoint& from, const net::UdpDatagram& dgram);
  void handle_register(const net::Endpoint& from, const RegisterMsg& msg);
  void handle_query(const net::Endpoint& from, const QueryMsg& msg);
  void handle_connect_request(const net::Endpoint& from, const ConnectRequestMsg& msg);
  void handle_rv_forward(const net::Endpoint& from, const RvForwardNotifyMsg& msg);
  void expire_stale_hosts();
  /// Appends the host to the expiry bucket matching `last_seen +
  /// host_expiry`. Buckets use lazy deletion: refreshes just append to a
  /// later bucket, and the expiry sweep skips entries whose host turned
  /// out to be fresher (or gone) — so a sweep touches only hosts whose
  /// deadline actually elapsed, not the whole table.
  void note_alive(HostId id, TimePoint last_seen);
  void shard_ping_tick();
  void sync_shard_gauge();
  /// Mirrors hosts_.size() into the rendezvous.registered_hosts gauge
  /// after every table mutation (the SLO liveness floor reads it).
  void sync_host_gauge();

  [[nodiscard]] can::Point attrs_to_point(const std::vector<double>& attrs) const;

  stack::IpLayer& ip_;
  Config config_;
  stack::UdpLayer udp_;
  stack::UdpSocket host_socket_;
  stack::UdpSocket can_socket_;
  can::CanNode can_;

  std::unordered_map<HostId, Registered> hosts_;
  std::unordered_map<std::uint64_t, PendingConnect> pending_connects_;
  // Expiry wheel: bucket index = deadline / bucket width. std::map keeps
  // the sweep order (and thus CAN-erase order) deterministic.
  std::map<std::uint64_t, std::vector<HostId>> expiry_buckets_;
  sim::PeriodicTimer expiry_timer_;
  // Shard fleet liveness (empty peer list = unsharded, timer idle).
  struct ShardPeer {
    TimePoint last_seen{};
    std::uint32_t reported_hosts{0};
    bool ever_seen{false};
  };
  std::map<net::Endpoint, ShardPeer> shard_state_;
  sim::PeriodicTimer shard_ping_timer_;
  ShardPayloadProvider shard_payload_provider_;
  ShardPayloadHandler shard_payload_handler_;
  bool down_{false};

  obs::Counter* c_registrations_{nullptr};
  obs::Counter* c_heartbeats_{nullptr};
  obs::Counter* c_queries_{nullptr};
  obs::Counter* c_connects_brokered_{nullptr};
  obs::Counter* c_connects_failed_{nullptr};
  obs::Counter* c_hosts_expired_{nullptr};
  obs::Counter* c_shard_pings_{nullptr};
  obs::Gauge* g_registered_hosts_{nullptr};  // live registration table size
  obs::Gauge* g_shards_alive_{nullptr};      // self + responsive peers
};

}  // namespace wav::overlay
