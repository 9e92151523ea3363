// ICMP echo over the IpLayer seam: automatic echo responder plus a
// client API keyed by echo identifier. The ping workload (Table II,
// Figure 10) is built on this.
#pragma once

#include <functional>
#include <unordered_map>

#include "stack/ip_layer.hpp"

namespace wav::stack {

class IcmpLayer {
 public:
  using ReplyHandler =
      std::function<void(net::Ipv4Address from, const net::IcmpMessage& reply)>;

  explicit IcmpLayer(IpLayer& ip);
  ~IcmpLayer();

  IcmpLayer(const IcmpLayer&) = delete;
  IcmpLayer& operator=(const IcmpLayer&) = delete;

  /// Allocates a fresh echo identifier for a ping session.
  [[nodiscard]] std::uint16_t allocate_id() { return next_id_++; }

  /// Registers the handler receiving echo replies carrying `id`.
  void on_reply(std::uint16_t id, ReplyHandler handler);
  void remove_handler(std::uint16_t id);

  /// Sends an echo request with `payload_size` virtual payload bytes
  /// (56 by default elsewhere, like the ping utility).
  bool send_echo_request(net::Ipv4Address dst, std::uint16_t id, std::uint16_t seq,
                         std::uint64_t payload_size);

  struct Stats {
    std::uint64_t requests_answered{0};
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return ip_.sim(); }

 private:
  void handle_packet(const net::IpPacket& pkt);

  IpLayer& ip_;
  std::unordered_map<std::uint16_t, ReplyHandler> handlers_;
  std::uint16_t next_id_{1};
  Stats stats_;
};

}  // namespace wav::stack
