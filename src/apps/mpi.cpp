#include "apps/mpi.hpp"

#include <cassert>
#include <stdexcept>

namespace wav::apps {

ByteBuffer payload_bytes(const std::vector<net::Chunk>& chunks) {
  ByteBuffer out;
  for (const auto& c : chunks) out.insert(out.end(), c.real.begin(), c.real.end());
  return out;
}

MpiCluster::MpiCluster(std::vector<RankEnv> ranks, std::uint16_t port,
                       tcp::TcpConfig transport)
    : port_(port), transport_(transport) {
  if (ranks.size() > 255) {
    throw std::invalid_argument("MpiCluster supports at most 255 ranks");
  }
  ranks_.resize(ranks.size());
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    ranks_[r].env = std::move(ranks[r]);
    ranks_[r].tcp = std::make_unique<tcp::TcpLayer>(*ranks_[r].env.ip, transport_);
    // Accept inbound rank connections; sender rank rides in the frame
    // header, so the listener does not need to know who connected.
    ranks_[r].tcp->listen(port_, [this, r](tcp::TcpConnection::Ptr conn) {
      auto framer = std::make_shared<net::MessageFramer>(
          [this, r](const net::FrameHeader& header, std::vector<net::Chunk> payload) {
            deliver(r, header.type, header.tag, std::move(payload));
          });
      ranks_[r].framers.push_back(framer);
      conn->on_data([framer](const std::vector<net::Chunk>& chunks) {
        framer->push(chunks);
      });
    });
  }
}

sim::Simulation& MpiCluster::sim() noexcept { return ranks_.at(0).env.ip->sim(); }

tcp::TcpConnection::Ptr& MpiCluster::connection(std::size_t from, std::size_t to) {
  Rank& src = ranks_.at(from);
  auto it = src.outgoing.find(to);
  if (it == src.outgoing.end()) {
    auto conn = src.tcp->connect({ranks_.at(to).env.ip->ip_address(), port_});
    it = src.outgoing.emplace(to, std::move(conn)).first;
  }
  return it->second;
}

void MpiCluster::send(std::size_t from, std::size_t to, std::uint32_t tag,
                      net::Chunk payload) {
  if (from == to) {
    // Local delivery still goes through the event queue for causality.
    std::vector<net::Chunk> chunks;
    chunks.push_back(std::move(payload));
    sim().schedule_after(microseconds(1),
                         [this, to, from, tag, chunks = std::move(chunks)]() mutable {
                           deliver(to, from, tag, std::move(chunks));
                         });
    return;
  }
  auto& conn = connection(from, to);
  for (auto& chunk : net::frame_message(
           {static_cast<std::uint8_t>(from), tag, 0}, std::move(payload))) {
    conn->send(std::move(chunk));
  }
}

void MpiCluster::recv(std::size_t at, std::size_t from, std::uint32_t tag,
                      MessageHandler handler) {
  Rank& rank = ranks_.at(at);
  const MatchKey key{from, tag};
  auto& queue = rank.arrived[key];
  if (!queue.empty()) {
    auto payload = std::move(queue.front());
    queue.pop_front();
    handler(std::move(payload));
    return;
  }
  rank.waiting[key].push_back(std::move(handler));
}

void MpiCluster::deliver(std::size_t at, std::size_t from, std::uint32_t tag,
                         std::vector<net::Chunk> payload) {
  Rank& rank = ranks_.at(at);
  const MatchKey key{from, tag};
  auto& waiters = rank.waiting[key];
  if (!waiters.empty()) {
    auto handler = std::move(waiters.front());
    waiters.pop_front();
    handler(std::move(payload));
    return;
  }
  rank.arrived[key].push_back(std::move(payload));
}

void MpiCluster::compute(std::size_t rank, double flops, std::function<void()> done) {
  const double gflops = ranks_.at(rank).env.gflops ? ranks_.at(rank).env.gflops() : 1.0;
  const double secs = flops / (gflops * 1e9);
  sim().schedule_after(seconds_f(secs), std::move(done));
}

void MpiCluster::barrier(std::function<void()> done) {
  const std::size_t p = size();
  if (p <= 1) {
    sim().schedule_after(kZeroDuration, std::move(done));
    return;
  }
  auto released = std::make_shared<std::size_t>(0);
  auto shared_done = std::make_shared<std::function<void()>>(std::move(done));

  // Every non-root rank reports in; root waits for all, then releases.
  auto arrivals = std::make_shared<std::size_t>(0);
  for (std::size_t r = 1; r < p; ++r) {
    send(r, 0, kBarrierTag, net::Chunk::from_string("B"));
  }
  for (std::size_t r = 1; r < p; ++r) {
    recv(0, r, kBarrierTag, [this, arrivals, p](std::vector<net::Chunk>) {
      if (++*arrivals == p - 1) {
        for (std::size_t peer = 1; peer < p; ++peer) {
          send(0, peer, kReleaseTag, net::Chunk::from_string("R"));
        }
      }
    });
  }
  auto count_release = [released, shared_done, p]() {
    if (++*released == p && *shared_done) (*shared_done)();
  };
  // Root releases itself once it has sent the releases; model by a local
  // recv from itself.
  send(0, 0, kReleaseTag, net::Chunk::from_string("R"));
  recv(0, 0, kReleaseTag, [count_release](std::vector<net::Chunk>) { count_release(); });
  for (std::size_t r = 1; r < p; ++r) {
    recv(r, 0, kReleaseTag, [count_release](std::vector<net::Chunk>) { count_release(); });
  }
}

void MpiCluster::allreduce_sum(const std::vector<double>& contributions,
                               std::function<void(double)> done) {
  assert(contributions.size() == size());
  const std::size_t p = size();
  auto total = std::make_shared<double>(contributions[0]);
  auto got = std::make_shared<std::size_t>(0);
  auto acked = std::make_shared<std::size_t>(0);
  auto shared_done = std::make_shared<std::function<void(double)>>(std::move(done));

  if (p == 1) {
    sim().schedule_after(kZeroDuration, [shared_done, total] { (*shared_done)(*total); });
    return;
  }

  for (std::size_t r = 1; r < p; ++r) {
    ByteBuffer buf;
    ByteWriter w{buf};
    w.f64(contributions[r]);
    send(r, 0, kReduceTag, net::Chunk::from_bytes(std::move(buf)));
  }
  auto finish_one = [acked, shared_done, total, p]() {
    if (++*acked == p - 1) (*shared_done)(*total);
  };
  for (std::size_t r = 1; r < p; ++r) {
    recv(0, r, kReduceTag, [this, r, total, got, p, finish_one](std::vector<net::Chunk> payload) {
      ByteBuffer bytes = payload_bytes(payload);
      ByteReader reader{bytes};
      *total += reader.f64().value_or(0.0);
      if (++*got == p - 1) {
        // Broadcast the result back.
        for (std::size_t peer = 1; peer < p; ++peer) {
          ByteBuffer out;
          ByteWriter w{out};
          w.f64(*total);
          send(0, peer, kResultTag, net::Chunk::from_bytes(std::move(out)));
        }
      }
      (void)r;
    });
  }
  for (std::size_t r = 1; r < p; ++r) {
    recv(r, 0, kResultTag,
         [finish_one](std::vector<net::Chunk>) { finish_one(); });
  }
}

}  // namespace wav::apps
