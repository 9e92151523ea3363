// Mini message-passing runtime over the virtual network: ranks bound to
// (VM or host) IP stacks, communicating through real simulated TCP
// connections with framed, tag-matched messages, plus a compute-time
// model driven by each rank's current host CPU speed. This is the
// substrate for the paper's MPI workloads: the heat-distribution program
// (Figure 11) and the NAS EP/FT kernels (Figure 14).
#pragma once

#include <deque>
#include <map>

#include "net/framing.hpp"
#include "stack/ip_layer.hpp"
#include "tcp/tcp.hpp"

namespace wav::apps {

class MpiCluster {
 public:
  struct RankEnv {
    stack::IpLayer* ip{nullptr};
    /// Current compute speed; a VM-backed rank reads the VM's
    /// cpu_gflops(), which changes when the VM migrates.
    std::function<double()> gflops;
  };

  using MessageHandler = std::function<void(std::vector<net::Chunk> payload)>;

  explicit MpiCluster(std::vector<RankEnv> ranks, std::uint16_t port = 9100,
                      tcp::TcpConfig transport = {});

  [[nodiscard]] std::size_t size() const noexcept { return ranks_.size(); }
  [[nodiscard]] sim::Simulation& sim() noexcept;

  /// Asynchronous tagged send (payload may be real or virtual bytes).
  void send(std::size_t from, std::size_t to, std::uint32_t tag, net::Chunk payload);

  /// Posts a receive: `handler` fires when a matching message (from,
  /// tag) is available at rank `at` (immediately if already arrived).
  void recv(std::size_t at, std::size_t from, std::uint32_t tag, MessageHandler handler);

  /// Models `flops` of computation at the rank's current speed.
  void compute(std::size_t rank, double flops, std::function<void()> done);

  /// Full barrier over real messages (gather to rank 0 + release).
  void barrier(std::function<void()> done);

  /// Sum-allreduce of one double per rank; `done(total)` fires after the
  /// result has been broadcast back (timing includes both phases).
  void allreduce_sum(const std::vector<double>& contributions,
                     std::function<void(double)> done);

 private:
  struct MatchKey {
    std::size_t from;
    std::uint32_t tag;
    auto operator<=>(const MatchKey&) const = default;
  };
  struct Rank {
    RankEnv env;
    std::unique_ptr<tcp::TcpLayer> tcp;
    std::map<std::size_t, tcp::TcpConnection::Ptr> outgoing;
    std::map<MatchKey, std::deque<std::vector<net::Chunk>>> arrived;
    std::map<MatchKey, std::deque<MessageHandler>> waiting;
    std::vector<std::shared_ptr<net::MessageFramer>> framers;  // one per inbound conn
  };

  tcp::TcpConnection::Ptr& connection(std::size_t from, std::size_t to);
  void deliver(std::size_t at, std::size_t from, std::uint32_t tag,
               std::vector<net::Chunk> payload);

  std::vector<Rank> ranks_;
  std::uint16_t port_;
  tcp::TcpConfig transport_;

  static constexpr std::uint32_t kBarrierTag = 0xFFFF0001;
  static constexpr std::uint32_t kReleaseTag = 0xFFFF0002;
  static constexpr std::uint32_t kReduceTag = 0xFFFF0003;
  static constexpr std::uint32_t kResultTag = 0xFFFF0004;
};

/// Concatenates the real bytes of a payload (for small control data).
[[nodiscard]] ByteBuffer payload_bytes(const std::vector<net::Chunk>& chunks);

}  // namespace wav::apps
