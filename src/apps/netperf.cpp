#include "apps/netperf.hpp"

namespace wav::apps {

NetperfStream::NetperfStream(tcp::TcpLayer& sender, tcp::TcpLayer& receiver,
                             net::Ipv4Address receiver_ip, Config config)
    : sender_(sender),
      receiver_(receiver),
      receiver_ip_(receiver_ip),
      config_(config),
      deadline_(sender.sim(), [this] { finish(); }) {}

NetperfStream::~NetperfStream() {
  if (started_flag_) receiver_.close_listener(config_.port);
}

void NetperfStream::start(DoneHandler done) {
  done_ = std::move(done);
  started_flag_ = true;
  started_ = sender_.sim().now();
  series_ = std::make_unique<IntervalSeries>(started_, config_.poll_interval);

  receiver_.listen(config_.port, [this](tcp::TcpConnection::Ptr conn) {
    conn->on_data([this](const std::vector<net::Chunk>& chunks) {
      const std::uint64_t n = net::total_size(chunks);
      received_ += n;
      series_->add(sender_.sim().now(), static_cast<double>(n));
    });
  });

  conn_ = sender_.connect({receiver_ip_, config_.port});
  conn_->on_established([this] { pump(); });
  conn_->on_send_ready([this] { pump(); });
  conn_->on_closed([this](tcp::CloseReason) {
    if (!finished_) finish();
  });
  deadline_.arm(config_.duration);
}

void NetperfStream::pump() {
  if (finished_ || !conn_ || !conn_->is_open()) return;
  // Keep roughly two write chunks queued beyond what is in flight, like
  // an application blocking on a full socket buffer.
  while (conn_->bytes_unsent() < config_.write_chunk &&
         conn_->send_buffer_space() >= config_.write_chunk) {
    conn_->send_virtual(config_.write_chunk);
  }
}

void NetperfStream::stop() {
  if (!finished_) finish();
}

void NetperfStream::finish() {
  if (finished_) return;
  finished_ = true;
  finished_at_ = sender_.sim().now();
  deadline_.cancel();
  if (conn_) conn_->abort();  // netperf tears the stream down immediately
  receiver_.close_listener(config_.port);
  if (done_) done_(report());
}

NetperfStream::Report NetperfStream::report() const {
  Report r;
  r.bytes_received = ByteSize{received_};
  const TimePoint end = finished_ ? finished_at_ : sender_.sim().now();
  r.elapsed = end - started_;
  r.throughput = rate_of(r.bytes_received, r.elapsed);
  if (series_) {
    for (const auto& point : series_->rate_series(end)) {
      r.poll_mbps.push_back({point.at, point.value * 8.0 / 1e6});
    }
  }
  return r;
}

TtcpTransfer::TtcpTransfer(tcp::TcpLayer& sender, tcp::TcpLayer& receiver,
                           net::Ipv4Address receiver_ip, Config config)
    : sender_(sender), receiver_(receiver), receiver_ip_(receiver_ip), config_(config) {}

TtcpTransfer::~TtcpTransfer() { receiver_.close_listener(config_.port); }

void TtcpTransfer::start(DoneHandler done) {
  done_ = std::move(done);
  started_ = sender_.sim().now();

  receiver_.listen(config_.port, [this](tcp::TcpConnection::Ptr conn) {
    conn->on_data([this, c = conn.get()](const std::vector<net::Chunk>& chunks) {
      received_ += net::total_size(chunks);
      if (received_ >= config_.total_bytes && !finished_) {
        finished_ = true;
        Report r;
        r.bytes = ByteSize{received_};
        r.elapsed = sender_.sim().now() - started_;
        r.rate_kbps = static_cast<double>(received_) / 1024.0 / to_seconds(r.elapsed);
        c->close();
        if (done_) done_(r);
      }
    });
  });

  conn_ = sender_.connect({receiver_ip_, config_.port});
  auto pump = [this] {
    while (queued_ < config_.total_bytes &&
           conn_->send_buffer_space() >= config_.buffer_bytes) {
      const std::uint64_t n =
          std::min(config_.buffer_bytes, config_.total_bytes - queued_);
      conn_->send_virtual(n);
      queued_ += n;
    }
    if (queued_ >= config_.total_bytes) conn_->close();
  };
  conn_->on_established(pump);
  conn_->on_send_ready(pump);
}

}  // namespace wav::apps
