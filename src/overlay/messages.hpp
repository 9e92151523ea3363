// Wire formats of WAVNet's control plane:
//   host <-> rendezvous : register / heartbeat / resource query / connect
//   rendezvous <-> rendezvous : connect-notify forwarding (Fig. 3 step 2)
//   host <-> host : hole-punch probes, punch acks, and the 2-byte
//                   CONNECT_PULSE keepalive (§II.B)
// plus the data-plane type tag that lets tunneled Ethernet frames share
// the hole-punched UDP socket with control traffic.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "nat/nat_gateway.hpp"
#include "net/address.hpp"
#include "net/packet.hpp"

namespace wav::overlay {

using HostId = std::uint64_t;

/// Everything a peer needs to reach a host: identity, endpoints learned
/// via the rendezvous layer, NAT class, resource attributes, and which
/// rendezvous server maintains the host (for connect brokering).
struct HostInfo {
  HostId host_id{0};
  std::string name;
  net::Endpoint public_endpoint{};   // NAT mapping observed by the rendezvous
  net::Endpoint private_endpoint{};  // host's own address (for same-NAT peers)
  nat::NatType nat_type{nat::NatType::kPortRestrictedCone};
  std::vector<double> attributes;    // normalized resource vector in [0,1]^d
  net::Endpoint rendezvous{};        // the server that maintains this host
};

enum class MsgType : std::uint8_t {
  // host <-> rendezvous
  kRegister = 1,
  kRegisterAck,
  kDeregister,
  kHeartbeat,
  kQuery,
  kQueryReply,
  kConnectRequest,
  kConnectNotify,
  kConnectFail,
  // rendezvous <-> rendezvous
  kRvForwardNotify,
  // host <-> host (direct)
  kPunch,
  kPunchAck,
  kPulse,
  kData,  // tunneled Ethernet frame (EncapFrame payload, not a byte chunk)
  // host <-> relay (TURN-style fallback when punching cannot succeed)
  kRelayAllocate,
  kRelayAllocateAck,
  kRelayRelease,
  kRelayPulse,  // keepalive forwarded through the relay channel
  kRelayFlush,  // upgrade barrier: last message on the relayed path
  kRelayFlushAck,
  // rendezvous <-> rendezvous shard liveness (sharded registration fleet)
  kShardPing,
  kShardPong,
  // private groups (vpg/): bodies are encoded in vpg/group.hpp — the
  // overlay layer only ever inspects the type byte, plus the (from, to)
  // routing pair of a relayed kGroupHandshake (parse_group_route).
  kGroupOp,         // member -> authority membership operation
  kGroupOpAck,      // authority -> member op outcome + epoch
  kGroupSync,       // member -> authority anti-entropy (held versions)
  kGroupEpoch,      // authority -> member epoch push / sync reply
  kGroupReplicate,  // authority <-> authority eager record replication
  kGroupHandshake,  // host <-> host modeled pair handshake (may be relayed)
};

/// Extra wire bytes a relayed data frame carries compared to a direct
/// tunnel: the relay must see (src, dst) host ids to pick the channel.
/// Lives here (not in relay/) so the switch can bill the overhead
/// without depending on the relay module.
inline constexpr std::uint32_t kRelayEncapHeaderBytes = 12;

/// Reads the leading type byte of any overlay message.
[[nodiscard]] std::optional<MsgType> peek_type(const net::UdpDatagram& dgram);

void encode_host_info(ByteWriter& w, const HostInfo& info);
[[nodiscard]] std::optional<HostInfo> parse_host_info(ByteReader& r);

struct RegisterMsg {
  HostInfo info;
};
/// Answers both Register and Heartbeat; ok=false means the server holds
/// no record of the host.
struct RegisterAckMsg {
  bool ok{false};
  net::Endpoint observed{};  // server-reflexive endpoint of the host
  std::vector<net::Endpoint> relays;  // relay servers this rendezvous advertises
};
struct DeregisterMsg {
  HostId host_id{0};
};
struct HeartbeatMsg {
  HostId host_id{0};
};
struct QueryMsg {
  std::uint64_t query_id{0};
  std::vector<double> target;  // desired attribute point
  std::uint16_t k{1};
};
struct QueryReplyMsg {
  std::uint64_t query_id{0};
  std::vector<HostInfo> hosts;
};
struct ConnectRequestMsg {
  std::uint64_t request_id{0};
  HostInfo requester;  // full info so the peer can punch back
  HostId target{0};
  net::Endpoint target_rendezvous{};
};
struct ConnectNotifyMsg {
  std::uint64_t request_id{0};
  HostInfo peer;
};
struct ConnectFailMsg {
  std::uint64_t request_id{0};
  std::string reason;
};
struct RvForwardNotifyMsg {
  std::uint64_t request_id{0};
  HostInfo requester;
  HostId target{0};
};
struct PunchMsg {
  HostId from_host{0};
  std::uint64_t nonce{0};
};
struct PunchAckMsg {
  HostId from_host{0};
  std::uint64_t nonce{0};
};
/// Also doubles as the channel refresh keepalive (re-binds the sender's
/// side; the relay treats an allocate for an existing pair as a refresh).
struct RelayAllocateMsg {
  HostId from_host{0};
  HostId to_host{0};
};
struct RelayAllocateAckMsg {
  HostId peer{0};  // the to_host of the allocate this acks
  bool ok{false};
  bool peer_bound{false};  // true once the other side has bound too
  std::string reason;      // non-empty on ok=false (e.g. "capacity")
};
struct RelayReleaseMsg {
  HostId from_host{0};
  HostId to_host{0};
};
/// End-to-end keepalive forwarded through the relay (the 2-byte pulse
/// cannot ride a relay: the channel needs the pair addressing).
struct RelayPulseMsg {
  HostId from_host{0};
  HostId to_host{0};
};
/// Upgrade barrier. Sent via the relay as the last relayed message, so
/// FIFO delivery guarantees every in-flight relayed frame precedes it.
struct RelayFlushMsg {
  HostId from_host{0};
  HostId to_host{0};
  std::uint64_t nonce{0};
};
struct RelayFlushAckMsg {
  HostId from_host{0};
  std::uint64_t nonce{0};
};
/// Shard liveness probe between rendezvous peers. Carries the sender's
/// registered-host count so peers can export a fleet-wide gauge without a
/// second exchange.
struct ShardPingMsg {
  net::Endpoint from{};  // sender's host-facing endpoint (fleet identity)
  std::uint32_t registered_hosts{0};
  // Opaque piggyback for co-hosted services (the group authority
  // replicates its records here). Encoded only when non-empty so the
  // wire stays byte-identical for fleets without such services.
  ByteBuffer payload;
};
struct ShardPongMsg {
  net::Endpoint from{};
  std::uint32_t registered_hosts{0};
  ByteBuffer payload;
};

[[nodiscard]] net::Chunk encode(const RegisterMsg&);
[[nodiscard]] net::Chunk encode(const RegisterAckMsg&);
[[nodiscard]] net::Chunk encode(const DeregisterMsg&);
[[nodiscard]] net::Chunk encode(const HeartbeatMsg&);
[[nodiscard]] net::Chunk encode(const QueryMsg&);
[[nodiscard]] net::Chunk encode(const QueryReplyMsg&);
[[nodiscard]] net::Chunk encode(const ConnectRequestMsg&);
[[nodiscard]] net::Chunk encode(const ConnectNotifyMsg&);
[[nodiscard]] net::Chunk encode(const ConnectFailMsg&);
[[nodiscard]] net::Chunk encode(const RvForwardNotifyMsg&);
[[nodiscard]] net::Chunk encode(const PunchMsg&);
[[nodiscard]] net::Chunk encode(const PunchAckMsg&);
[[nodiscard]] net::Chunk encode(const RelayAllocateMsg&);
[[nodiscard]] net::Chunk encode(const RelayAllocateAckMsg&);
[[nodiscard]] net::Chunk encode(const RelayReleaseMsg&);
[[nodiscard]] net::Chunk encode(const RelayPulseMsg&);
[[nodiscard]] net::Chunk encode(const RelayFlushMsg&);
[[nodiscard]] net::Chunk encode(const RelayFlushAckMsg&);
[[nodiscard]] net::Chunk encode(const ShardPingMsg&);
[[nodiscard]] net::Chunk encode(const ShardPongMsg&);

/// The lightweight keepalive: exactly two bytes on the wire (type tag +
/// version byte), as the paper describes.
[[nodiscard]] net::Chunk encode_pulse();

[[nodiscard]] std::optional<RegisterMsg> parse_register(const net::Chunk&);
[[nodiscard]] std::optional<RegisterAckMsg> parse_register_ack(const net::Chunk&);
[[nodiscard]] std::optional<DeregisterMsg> parse_deregister(const net::Chunk&);
[[nodiscard]] std::optional<HeartbeatMsg> parse_heartbeat(const net::Chunk&);
[[nodiscard]] std::optional<QueryMsg> parse_query(const net::Chunk&);
[[nodiscard]] std::optional<QueryReplyMsg> parse_query_reply(const net::Chunk&);
[[nodiscard]] std::optional<ConnectRequestMsg> parse_connect_request(const net::Chunk&);
[[nodiscard]] std::optional<ConnectNotifyMsg> parse_connect_notify(const net::Chunk&);
[[nodiscard]] std::optional<ConnectFailMsg> parse_connect_fail(const net::Chunk&);
[[nodiscard]] std::optional<RvForwardNotifyMsg> parse_rv_forward(const net::Chunk&);
[[nodiscard]] std::optional<PunchMsg> parse_punch(const net::Chunk&);
[[nodiscard]] std::optional<PunchAckMsg> parse_punch_ack(const net::Chunk&);
[[nodiscard]] std::optional<RelayAllocateMsg> parse_relay_allocate(const net::Chunk&);
[[nodiscard]] std::optional<RelayAllocateAckMsg> parse_relay_allocate_ack(
    const net::Chunk&);
[[nodiscard]] std::optional<RelayReleaseMsg> parse_relay_release(const net::Chunk&);
[[nodiscard]] std::optional<RelayPulseMsg> parse_relay_pulse(const net::Chunk&);
[[nodiscard]] std::optional<RelayFlushMsg> parse_relay_flush(const net::Chunk&);
[[nodiscard]] std::optional<RelayFlushAckMsg> parse_relay_flush_ack(const net::Chunk&);
[[nodiscard]] std::optional<ShardPingMsg> parse_shard_ping(const net::Chunk&);
[[nodiscard]] std::optional<ShardPongMsg> parse_shard_pong(const net::Chunk&);

/// The (from, to) host pair leading every kGroupHandshake body, exposed
/// so a relay can forward the message over the right channel without
/// understanding the rest (which is vpg's business).
struct GroupRoute {
  HostId from_host{0};
  HostId to_host{0};
};
[[nodiscard]] std::optional<GroupRoute> parse_group_route(const net::Chunk&);

}  // namespace wav::overlay
