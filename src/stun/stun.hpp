// STUN-style NAT discovery (RFC 3489 classification, as used by WAVNet
// §II.B to decide whether a host is suitable for UDP hole punching).
//
// The server owns two public IP addresses; binding requests can ask it to
// reply from the alternate address and/or an alternate port, which is
// what distinguishes the four NAT behaviours:
//   Test I   — plain binding request: learn the mapped public endpoint.
//   Test II  — reply from alternate IP *and* port: succeeds only behind a
//              full-cone NAT (or no NAT).
//   Test I'  — plain request to the alternate IP: a different mapped port
//              reveals a symmetric NAT.
//   Test III — reply from alternate port, same IP: distinguishes
//              (address-)restricted cone from port-restricted cone.
#pragma once

#include <functional>
#include <optional>

#include "nat/nat_gateway.hpp"
#include "stack/udp.hpp"

namespace wav::stun {

inline constexpr std::uint16_t kStunPort = 3478;
inline constexpr std::uint16_t kStunAltPort = 3479;

struct BindingRequest {
  std::uint32_t transaction_id{0};
  bool change_ip{false};
  bool change_port{false};
};

struct BindingResponse {
  std::uint32_t transaction_id{0};
  net::Endpoint mapped{};  // the source endpoint the server observed
};

[[nodiscard]] net::Chunk encode_request(const BindingRequest& req);
[[nodiscard]] std::optional<BindingRequest> parse_request(const net::Chunk& chunk);
[[nodiscard]] net::Chunk encode_response(const BindingResponse& resp);
[[nodiscard]] std::optional<BindingResponse> parse_response(const net::Chunk& chunk);

/// STUN server bound to a host with two public addresses. The host node
/// must have (at least) two interfaces, each with its own public IP; the
/// server opens primary/alternate sockets on both STUN ports.
///
/// Design note: our fabric routes by destination, and a reply's source
/// address is the egress interface address, so "reply from the alternate
/// IP" is realized by a second single-homed helper stack. The public API
/// hides this: construct one StunServer per deployment site.
class StunServer {
 public:
  StunServer(stack::IpLayer& primary, stack::IpLayer& alternate);

  [[nodiscard]] net::Endpoint primary_endpoint() const {
    return {primary_ip_.ip_address(), kStunPort};
  }
  [[nodiscard]] net::Endpoint alternate_endpoint() const {
    return {alternate_ip_.ip_address(), kStunPort};
  }

 private:
  void serve(stack::UdpSocket& in_socket, bool on_alternate_ip,
             const net::Endpoint& from, const net::UdpDatagram& dgram);
  stack::UdpSocket& reply_socket(bool alt_ip, bool alt_port);

  stack::IpLayer& primary_ip_;
  stack::IpLayer& alternate_ip_;
  stack::UdpLayer udp_primary_;
  stack::UdpLayer udp_alternate_;
  stack::UdpSocket primary_main_;    // primary IP, main port
  stack::UdpSocket primary_alt_;     // primary IP, alternate port
  stack::UdpSocket alternate_main_;  // alternate IP, main port
  stack::UdpSocket alternate_alt_;   // alternate IP, alternate port
  // Registered on the first request, so an idle server exports nothing.
  obs::Counter* c_requests_{nullptr};
};

/// Result of the classification probe.
struct ProbeResult {
  bool reachable{false};             // got any response at all
  nat::NatType nat_type{nat::NatType::kOpenInternet};
  net::Endpoint mapped{};            // public endpoint observed by Test I
};

/// Asynchronous STUN client running the RFC 3489 decision tree.
class StunClient {
 public:
  using Callback = std::function<void(const ProbeResult&)>;

  struct Config {
    Duration retry_interval{milliseconds(500)};
    std::uint32_t max_retries{3};
  };

  StunClient(stack::UdpLayer& udp, net::Endpoint server_primary,
             net::Endpoint server_alternate, Config config);
  StunClient(stack::UdpLayer& udp, net::Endpoint server_primary,
             net::Endpoint server_alternate);

  /// Starts the probe; the callback fires exactly once. The probe uses a
  /// dedicated socket so the discovered mapping reflects this socket's
  /// NAT binding.
  void probe(Callback callback);

  /// The local socket used for probing (its mapping is what `mapped`
  /// refers to).
  [[nodiscard]] std::uint16_t local_port() const noexcept { return socket_.local_port(); }

 private:
  enum class Phase { kIdle, kTest1, kTest2, kTest1Alt, kTest3, kDone };

  void send_current();
  void on_datagram(const net::Endpoint& from, const net::UdpDatagram& dgram);
  void on_timeout();
  void advance(bool got_response, const BindingResponse& resp);
  void finish(ProbeResult result);

  stack::UdpLayer& udp_;
  net::Endpoint server_primary_;
  net::Endpoint server_alternate_;
  Config config_;
  stack::UdpSocket socket_;
  sim::OneShotTimer retry_timer_;

  Phase phase_{Phase::kIdle};
  std::uint32_t retries_left_{0};
  std::uint32_t txid_{1};
  Callback callback_;
  net::Endpoint mapped_primary_{};
  bool test2_passed_{false};
  TimePoint probe_started_{};
  obs::Counter* c_probes_finished_{nullptr};  // registered on first finish
};

}  // namespace wav::stun
