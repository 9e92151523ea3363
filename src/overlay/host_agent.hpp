// The WAVNet driver's control half on a desktop host (paper §II.B):
//   * STUN-probes its NAT, registers with a rendezvous server, heartbeats,
//   * issues resource queries,
//   * establishes direct host-to-host connections via UDP hole punching
//     (Figure 3 step 4),
//   * keeps every punched NAT binding alive with the 2-byte CONNECT_PULSE,
//   * and runs the traversal ladder (Ford et al. §4): when hole punching
//     cannot succeed — the STUN-detected NAT pair is known-incompatible,
//     or the punch deadline passes — it falls back to a TURN-style
//     relayed tunnel through a relay server advertised by the rendezvous
//     layer, and later upgrades the relayed link back to direct when an
//     opportunistic re-punch proves the path, draining in-flight relayed
//     frames without loss or reordering (flush handshake).
//
// The same hole-punched socket carries the data plane: the WAV-Switch
// (wavnet module) registers a frame handler here and sends Ethernet
// frames to peers through send_frame(), so tunneled traffic flows over
// exactly the NAT bindings the punching created.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "overlay/messages.hpp"
#include "stack/udp.hpp"
#include "stun/stun.hpp"

namespace wav::overlay {

class HostAgent {
 public:
  struct Config {
    HostId host_id{0};  // 0 = derive from the host's IP
    std::string name;
    std::vector<double> attributes{0.5, 0.5};
    net::Endpoint rendezvous{};
    /// Backup rendezvous servers: when the active one stops acking
    /// heartbeats, the agent re-registers with the next (paper §II:
    /// a host "could join ... at least one rendezvous server").
    std::vector<net::Endpoint> rendezvous_backups{};
    /// Sharded registration fleet: when non-empty this supersedes
    /// `rendezvous`/`rendezvous_backups`. The agent hash-homes to
    /// shards[h(host_id) % N] and fails over around the ring (successor
    /// order), so a dead shard's population spreads across the survivors
    /// deterministically.
    std::vector<net::Endpoint> rendezvous_shards{};
    std::uint32_t rendezvous_probe_failures{3};  // unanswered heartbeats before failover
    /// STUN primary/alternate endpoints; unset skips type detection and
    /// assumes a port-restricted cone (the common case).
    std::optional<std::pair<net::Endpoint, net::Endpoint>> stun{};
    /// Declared NAT type: skips the STUN probe and asserts the type
    /// directly. Churn populations sample measured NAT mixes and declare
    /// them; the traversal policy (punch-vs-relay) still applies.
    std::optional<nat::NatType> nat_type{};
    /// Metric instance label override. Large fleets set one shared label
    /// so 10k agents aggregate into a handful of counters instead of
    /// exploding the registry (and the export) per host.
    std::string metrics_instance{};
    std::uint16_t port{7777};
    Duration heartbeat_interval{seconds(15)};
    Duration pulse_interval{seconds(5)};   // paper §III.B uses 5 s
    Duration punch_interval{milliseconds(300)};
    Duration punch_timeout{seconds(8)};
    Duration link_idle_timeout{seconds(30)};
    /// When an established link idles out (peer crash, NAT reboot), try
    /// to re-broker and re-punch it through the rendezvous layer.
    bool auto_repunch{true};
    Duration repunch_delay{seconds(2)};
    /// Repeated repunch attempts back off exponentially up to this cap,
    /// so links lost to long partitions keep retrying until the WAN heals.
    Duration repunch_backoff_max{seconds(30)};
    /// After this many consecutive terminal connect failures to one peer
    /// the agent presumes it permanently departed and prunes its per-peer
    /// state (backoff map, pending request ids) instead of retrying
    /// forever. 0 = never give up (the pre-churn behavior).
    std::uint32_t repunch_give_up{0};
    /// Registration retries back off exponentially from this base up to
    /// the cap (jittered), so a crashed shard's whole population doesn't
    /// hammer the survivor in lockstep.
    Duration register_retry{seconds(2)};
    Duration register_retry_max{seconds(30)};
    /// A query unanswered past the timeout is retried with backoff; after
    /// the retries run out its handler fires with an empty result.
    Duration query_timeout{seconds(2)};
    std::uint32_t query_retries{2};
    /// Statically configured relay servers; the set advertised by the
    /// rendezvous layer in RegisterAck is merged in at registration.
    /// Empty = no relay tier: incompatible pairs fail as before.
    std::vector<net::Endpoint> relays{};
    /// An unanswered RelayAllocate is resent this many times before the
    /// agent rotates to the next relay in the list.
    Duration relay_alloc_timeout{seconds(2)};
    std::uint32_t relay_alloc_retries{2};
    /// Established relayed links re-allocate (refresh) on this cadence;
    /// missing this many refresh acks in a row means the relay died and
    /// the link fails over to the next relay (both sides advance their
    /// cursor in sync, so they meet on the same survivor).
    Duration relay_refresh_interval{seconds(5)};
    std::uint32_t relay_max_missed_refreshes{3};
    /// Relayed links between punch-compatible NAT pairs periodically
    /// re-punch for this window, upgrading to direct on success.
    Duration upgrade_probe_interval{seconds(15)};
    Duration upgrade_punch_window{seconds(3)};
    /// The upgrade flush handshake aborts (stays relayed) when the peer
    /// doesn't confirm the relay pipe drained within this timeout.
    Duration upgrade_flush_timeout{seconds(5)};
  };

  /// How an established link currently carries frames.
  enum class LinkKind : std::uint8_t { kDirect, kRelayed };

  using RegisteredHandler = std::function<void(bool ok)>;
  using QueryHandler = std::function<void(std::vector<HostInfo>)>;
  using ConnectHandler = std::function<void(bool ok, HostId peer)>;
  using FrameHandler = std::function<void(HostId from, const net::EncapFrame&)>;
  using LinkHandler = std::function<void(HostId peer)>;
  using GroupCtrlHandler = std::function<void(HostId from, const net::Chunk&)>;

  HostAgent(stack::IpLayer& ip, Config config);
  ~HostAgent();

  HostAgent(const HostAgent&) = delete;
  HostAgent& operator=(const HostAgent&) = delete;

  /// Runs STUN (if configured) then registers with the rendezvous server.
  void start(RegisteredHandler on_registered = {});

  /// Churn lifecycle: takes the host offline. Graceful departure sends a
  /// Deregister first; a crash just goes silent (peers idle the links
  /// out, the server expires the registration). Either way every link,
  /// pending query and per-peer retry record is torn down, all timers
  /// stop, and the agent ignores traffic until go_online().
  void go_offline(bool graceful);
  /// Returns after a departure: re-homes to the original (hash-home)
  /// rendezvous and registers from scratch.
  void go_online(RegisteredHandler on_registered = {});
  [[nodiscard]] bool offline() const noexcept { return down_; }

  [[nodiscard]] bool registered() const noexcept { return registered_; }
  [[nodiscard]] const HostInfo& self_info() const noexcept { return self_; }
  [[nodiscard]] HostId id() const noexcept { return self_.host_id; }

  /// Resource discovery through the rendezvous layer.
  void query(const std::vector<double>& target, std::size_t k, QueryHandler handler);

  /// Establishes a direct connection to `peer` (from a query result).
  /// Punching starts immediately and the rendezvous layer is asked to
  /// notify the peer so it punches back.
  void connect_to(const HostInfo& peer, ConnectHandler handler = {});

  [[nodiscard]] bool link_established(HostId peer) const;
  [[nodiscard]] std::vector<HostId> connected_peers() const;
  [[nodiscard]] std::optional<net::Endpoint> link_remote(HostId peer) const;
  /// kDirect or kRelayed for an established link, nullopt otherwise.
  [[nodiscard]] std::optional<LinkKind> link_kind(HostId peer) const;
  /// The relay endpoint an established relayed link rides through.
  [[nodiscard]] std::optional<net::Endpoint> link_relay(HostId peer) const;
  [[nodiscard]] std::vector<HostId> relayed_peers() const;
  /// Extra encap bytes the current egress path to `peer` adds (the relay
  /// header for relayed links, 0 for direct) — the WAV-Switch folds this
  /// into its per-frame billing so both ends account consistently.
  [[nodiscard]] std::uint32_t relay_overhead(HostId peer) const;
  /// The relay set currently known (config + rendezvous-advertised).
  [[nodiscard]] const std::vector<net::Endpoint>& relays() const noexcept {
    return relays_;
  }

  /// Sends a tunneled Ethernet frame to an established peer. Returns
  /// false when no live link exists.
  bool send_frame(HostId peer, net::EncapFrame frame);

  void on_frame(FrameHandler handler) { on_frame_ = std::move(handler); }
  void on_link_up(LinkHandler handler) { on_link_up_ = std::move(handler); }
  void on_link_down(LinkHandler handler) { on_link_down_ = std::move(handler); }

  /// Second observer pair for the group membership layer (the WavSwitch
  /// owns the primary on_link_up/down slots). Fired right after them.
  void on_link_up_group(LinkHandler handler) { on_link_up_group_ = std::move(handler); }
  void on_link_down_group(LinkHandler handler) {
    on_link_down_group_ = std::move(handler);
  }

  /// Sends a group control chunk (kGroupHandshake) over the established
  /// tunnel to `peer` — direct links to the punched endpoint, relayed
  /// links via the relay's pair channel. Returns false without a link.
  bool send_group_ctrl(HostId peer, net::Chunk chunk);
  /// Receives kGroupHandshake chunks arriving on the tunnel socket.
  void on_group_datagram(GroupCtrlHandler handler) {
    on_group_ctrl_ = std::move(handler);
  }

  /// Closes a link locally (peer will idle it out).
  void drop_link(HostId peer);

  struct Stats {
    std::uint64_t punches_sent{0};
    std::uint64_t pulses_sent{0};
    std::uint64_t frames_received{0};
    std::uint64_t links_lost{0};
    std::uint64_t queries_timed_out{0};
    std::uint64_t reregistrations{0};  // server lost our record; registered anew
    std::uint64_t connects_failed{0};  // every traversal rung exhausted
    std::uint64_t peers_forgotten{0};  // per-peer state pruned after give-up
    std::uint64_t relay_fallbacks{0};  // punching gave up; relay tier entered
    std::uint64_t relay_failovers{0};  // live relayed link moved to a new relay
    std::uint64_t relay_upgrades{0};   // relayed link switched to direct
  };
  /// Snapshot of the agent's registry counters. Agents sharing a
  /// Config::metrics_instance share those counters, so under a shared
  /// instance (the churn and private-group fleets use "fleet") these are
  /// the whole fleet's counts, not this agent's.
  [[nodiscard]] Stats stats() const noexcept;
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// The raw socket (tests use it to inspect the local port).
  [[nodiscard]] const stack::UdpSocket& socket() const noexcept { return socket_; }
  /// The agent's UDP layer: co-resident services (the group membership
  /// agent) bind their own control ports here, sharing the host's stack.
  [[nodiscard]] stack::UdpLayer& udp() noexcept { return udp_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return ip_.sim(); }
  /// The rendezvous server currently in use (changes on failover).
  [[nodiscard]] net::Endpoint active_rendezvous() const noexcept {
    return active_rendezvous_;
  }
  [[nodiscard]] std::uint32_t rendezvous_failovers() const noexcept {
    return rendezvous_failovers_;
  }
  /// Queries still awaiting a reply or their deadline — must drain to
  /// zero once the overlay quiesces (leak detector).
  [[nodiscard]] std::size_t pending_query_count() const noexcept {
    return pending_queries_.size();
  }
  /// Pending queries older than `age` — the retry ladder bounds
  /// a legitimate entry's lifetime to ~(query_retries+1) x query_timeout,
  /// so anything past that is a leaked handler rather than in-flight work.
  [[nodiscard]] std::size_t stale_query_count(Duration age) const;
  /// Per-peer retry records currently held (backoff + failure counts).
  /// Under churn this must stay bounded — a growing value is the leak the
  /// peers_forgotten pruning exists to prevent.
  [[nodiscard]] std::size_t repunch_state_size() const noexcept {
    return repunch_backoff_.size() + repunch_failures_.size();
  }

 private:
  struct Link {
    HostId peer{0};
    HostInfo info;
    net::Endpoint remote{};  // proven working endpoint once established
    bool established{false};
    TimePoint last_rx{};
    TimePoint punch_started{};  // span anchor for punch success/timeout
    std::uint64_t nonce{0};
    std::vector<net::Endpoint> candidates;
    std::unique_ptr<sim::PeriodicTimer> punch_timer;
    TimePoint punch_deadline{};
    ConnectHandler on_result;
    std::uint64_t request_id{0};  // brokered connect id (ConnectFail lookup)

    // --- relay-ladder state ---
    LinkKind kind{LinkKind::kDirect};
    bool relay_tried{false};   // ladder reached the relay rung
    bool relay_bound{false};   // our side currently bound at link.relay
    bool relay_acked{false};   // the current relay answered our last allocate
    bool probing{false};       // upgrade re-punch window open
    bool upgrading{false};     // flush handshake in flight
    net::Endpoint relay{};     // relay the channel lives on (relays_[cursor])
    net::Endpoint direct_candidate{};  // punch-proven endpoint for upgrade
    std::size_t relay_cursor{0};
    std::uint32_t relay_attempts{0};   // allocates sent to the current relay
    std::size_t relays_cycled{0};      // relays tried this ladder round
    std::uint32_t missed_refreshes{0};
    std::uint32_t peer_wait_rounds{0};  // relay alive but peer not bound yet
    std::uint64_t alloc_epoch{0};       // retires stale allocate deadlines
    std::uint64_t flush_nonce{0};
    TimePoint relay_started{};  // span anchor for relay allocation latency
    // Frames held back while the flush handshake runs; drained in order
    // on the direct path (upgrade) or back through the relay (abort).
    std::vector<net::EncapFrame> upgrade_buffer;
  };

  struct PendingQuery {
    QueryHandler handler;
    std::vector<double> target;
    std::uint16_t k{0};
    std::uint32_t attempts{0};
    sim::EventId deadline{};
    TimePoint issued{};
  };

  void on_datagram(const net::Endpoint& from, const net::UdpDatagram& dgram);
  void expire_query(std::uint64_t query_id);
  /// Applies a ±10% seeded jitter so periodic timers across many agents
  /// don't stay phase-locked (thundering herds of pulses/punches).
  [[nodiscard]] Duration jittered(Duration d);
  void schedule_repunch(const HostInfo& info);
  void do_register();
  void fail_over_rendezvous();
  void begin_punching(const HostInfo& peer, ConnectHandler handler);
  void punch_round(HostId peer);
  void establish(Link& link, const net::Endpoint& proven);
  void pulse_links();
  void reap_idle_links();
  Link* link_by_endpoint(const net::Endpoint& ep);
  /// Terminal traversal failure: every rung exhausted. Erases the link,
  /// fires the handler(false), counts per-reason, schedules a repunch.
  void fail_link(HostId peer, const std::string& reason);
  // --- relay ladder ---
  void begin_relay(Link& link, const char* reason);
  void send_relay_allocate(Link& link);
  void relay_alloc_expired(HostId peer, std::uint64_t epoch);
  /// Retries the current relay up to relay_alloc_retries, then rotates
  /// the cursor; a full cycle without success ends the ladder.
  void advance_relay(Link& link);
  void establish_relayed(Link& link);
  void relay_failover(Link& link);
  void refresh_relayed_links();
  // --- relayed -> direct upgrade ---
  void probe_upgrades();
  void start_upgrade_probe(Link& link);
  void start_switchover(Link& link, const net::Endpoint& proven);
  void complete_upgrade(Link& link);
  void flush_expired(HostId peer, std::uint64_t nonce);

  stack::IpLayer& ip_;
  Config config_;
  stack::UdpLayer udp_;
  stack::UdpSocket socket_;
  std::optional<stun::StunClient> stun_client_;

  HostInfo self_;
  bool registered_{false};
  bool down_{false};  // offline between churn sessions; ignores all I/O
  RegisteredHandler on_registered_;
  net::Endpoint active_rendezvous_{};
  net::Endpoint home_rendezvous_{};  // hash-home shard; go_online resets here
  Duration register_backoff_{};      // 0 = next retry uses register_retry
  std::size_t next_backup_{0};
  std::uint32_t silent_probes_{0};
  std::uint32_t rendezvous_failovers_{0};
  // Re-home latency bookkeeping: the clock runs from the last ack off the
  // old shard to the RegisterAck on the new one, so the measured window
  // includes the unanswered heartbeats, the ring walk, and the
  // registration backoff.
  TimePoint last_rendezvous_ok_{};
  bool rehoming_{false};

  std::uint64_t next_query_id_{1};
  std::unordered_map<std::uint64_t, PendingQuery> pending_queries_;
  std::uint64_t next_request_id_;
  std::unordered_map<HostId, Duration> repunch_backoff_;
  std::unordered_map<HostId, std::uint32_t> repunch_failures_;
  std::unordered_map<std::uint64_t, HostId> request_to_peer_;

  std::unordered_map<HostId, Link> links_;
  // Direct remotes only: a relay endpoint fans out to many peers, so
  // relayed links are attributed by EncapFrame.overlay_src instead.
  std::unordered_map<net::Endpoint, HostId> endpoint_to_peer_;
  std::vector<net::Endpoint> relays_;

  sim::PeriodicTimer heartbeat_timer_;
  sim::PeriodicTimer pulse_timer_;
  sim::PeriodicTimer idle_check_timer_;
  sim::PeriodicTimer relay_refresh_timer_;
  sim::PeriodicTimer upgrade_probe_timer_;

  FrameHandler on_frame_;
  LinkHandler on_link_up_;
  LinkHandler on_link_down_;
  LinkHandler on_link_up_group_;
  LinkHandler on_link_down_group_;
  GroupCtrlHandler on_group_ctrl_;

  // Cached registry handles (resolved once in the constructor; the frame
  // and pulse paths only pay a pointer dereference).
  obs::Counter* c_punches_sent_{nullptr};
  obs::Counter* c_punch_acks_sent_{nullptr};
  obs::Counter* c_pulses_sent_{nullptr};
  obs::Counter* c_pulses_received_{nullptr};
  obs::Counter* c_frames_sent_{nullptr};
  obs::Counter* c_frames_received_{nullptr};
  obs::Counter* c_links_established_{nullptr};
  obs::Counter* c_links_lost_{nullptr};
  obs::Counter* c_punch_timeouts_{nullptr};
  obs::Counter* c_heartbeats_sent_{nullptr};
  obs::Counter* c_queries_timed_out_{nullptr};
  obs::Counter* c_reregistrations_{nullptr};
  obs::Counter* c_connects_failed_{nullptr};
  obs::Counter* c_failed_timeout_{nullptr};
  obs::Counter* c_failed_incompatible_{nullptr};
  obs::Counter* c_failed_relay_{nullptr};
  obs::Counter* c_failed_broker_{nullptr};
  obs::Counter* c_peers_forgotten_{nullptr};
  obs::Counter* c_traversal_direct_{nullptr};   // links that came up direct
  obs::Counter* c_traversal_relayed_{nullptr};  // links that came up relayed
  obs::Counter* c_relay_fallbacks_{nullptr};
  obs::Counter* c_relay_failovers_{nullptr};
  obs::Counter* c_relay_upgrades_{nullptr};
  obs::Counter* c_relay_upgrade_aborts_{nullptr};
  obs::Gauge* g_links_active_{nullptr};   // established links right now
  obs::Gauge* g_links_relayed_{nullptr};  // subset currently riding a relay
  obs::Histogram* h_punch_latency_ms_{nullptr};
  obs::Histogram* h_relay_alloc_ms_{nullptr};
  obs::Histogram* h_rehome_ms_{nullptr};
};

}  // namespace wav::overlay
