#include "apps/http.hpp"

#include <charconv>

#include "common/log.hpp"

namespace wav::apps {
namespace {

constexpr std::string_view kHeaderEnd = "\r\n\r\n";

/// Extracts real text from chunks (virtual chunks yield no text; HTTP
/// headers are always real in this codebase).
void append_text(std::string& out, const std::vector<net::Chunk>& chunks) {
  for (const auto& c : chunks) {
    if (!c.real.empty()) out += bytes_to_string(c.real);
  }
}

std::optional<std::uint64_t> parse_content_length(const std::string& headers) {
  const std::string key = "Content-Length:";
  const auto pos = headers.find(key);
  if (pos == std::string::npos) return std::nullopt;
  std::size_t start = pos + key.size();
  while (start < headers.size() && headers[start] == ' ') ++start;
  std::uint64_t value = 0;
  const auto* begin = headers.data() + start;
  const auto* end = headers.data() + headers.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin) return std::nullopt;
  return value;
}

}  // namespace

HttpServer::HttpServer(tcp::TcpLayer& tcp, std::uint16_t port)
    : HttpServer(tcp, port, Config{}) {}

HttpServer::HttpServer(tcp::TcpLayer& tcp, std::uint16_t port, Config config)
    : tcp_(tcp),
      port_(port),
      service_(tcp.sim(), wavnet::ProcessingQueue::Config{
                              config.service_per_request, config.service_per_byte,
                              seconds(5)}) {
  tcp_.listen(port, [this](tcp::TcpConnection::Ptr conn) { on_connection(conn); });
}

HttpServer::~HttpServer() { tcp_.close_listener(port_); }

void HttpServer::add_resource(const std::string& path, ByteSize size) {
  resources_[path] = size;
}

void HttpServer::on_connection(const tcp::TcpConnection::Ptr& conn) {
  auto state = std::make_shared<ClientState>();
  // A raw pointer: a handler holding its own connection's Ptr would keep
  // the connection alive after it closes.
  conn->on_data([this, c = conn.get(), state](const std::vector<net::Chunk>& chunks) {
    append_text(state->buffer, chunks);
    const auto end = state->buffer.find(kHeaderEnd);
    if (end == std::string::npos) return;
    handle_request(c->shared_from_this(), state->buffer.substr(0, end));
    state->buffer.clear();
  });
}

void HttpServer::handle_request(const tcp::TcpConnection::Ptr& conn,
                                const std::string& request) {
  // Request line: "GET /path HTTP/1.0"
  const auto line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const auto first_space = line.find(' ');
  const auto second_space =
      first_space == std::string::npos ? std::string::npos : line.find(' ', first_space + 1);
  if (first_space == std::string::npos || second_space == std::string::npos ||
      line.substr(0, first_space) != "GET") {
    conn->send_bytes("HTTP/1.0 400 Bad Request\r\nContent-Length: 0\r\n\r\n");
    conn->close();
    return;
  }
  const std::string path = line.substr(first_space + 1, second_space - first_space - 1);

  const auto it = resources_.find(path);
  if (it == resources_.end()) {
    ++stats_.not_found;
    conn->send_bytes("HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n");
    conn->close();
    return;
  }
  // The single-threaded server works through requests in order; the
  // response leaves once this request's service completes.
  const ByteSize size = it->second;
  service_.submit(size.bytes, [this, conn, size] {
    ++stats_.requests_served;
    conn->send_bytes("HTTP/1.0 200 OK\r\nContent-Type: application/octet-stream\r\n"
                     "Content-Length: " +
                     std::to_string(size.bytes) + "\r\n\r\n");
    if (size.bytes > 0) conn->send_virtual(size.bytes);
    conn->close();  // HTTP/1.0: one request per connection, like ab's default
  });
}

ApacheBench::ApacheBench(tcp::TcpLayer& client, net::Ipv4Address server, Config config)
    : client_(client), server_(server), config_(config) {}

void ApacheBench::start(DoneHandler done) {
  done_ = std::move(done);
  started_flag_ = true;
  started_ = client_.sim().now();
  completions_ = std::make_unique<IntervalSeries>(started_, config_.poll_interval);
  workers_.resize(config_.concurrency);
  for (std::size_t w = 0; w < config_.concurrency; ++w) launch_worker(w);
}

void ApacheBench::stop() {
  if (!finished_) finish();
}

void ApacheBench::launch_worker(std::size_t w) {
  if (finished_) return;
  const bool budget_hit =
      config_.total_requests > 0 && issued_ >= config_.total_requests;
  const bool deadline_hit = config_.total_requests == 0 && config_.duration > kZeroDuration &&
                            client_.sim().now() - started_ >= config_.duration;
  if (budget_hit || deadline_hit) {
    // Finished issuing; completion is detected in worker_done.
    return;
  }
  ++issued_;

  Worker& worker = workers_[w];
  worker = Worker{};
  worker.connect_started = client_.sim().now();
  worker.conn = client_.connect({server_, config_.port});
  worker.conn->on_established([this, w] {
    Worker& wk = workers_[w];
    connect_ms_.add(to_milliseconds(client_.sim().now() - wk.connect_started));
    wk.request_started = client_.sim().now();
    wk.conn->send_bytes("GET " + config_.path + " HTTP/1.0\r\nHost: vpc\r\n\r\n");
  });
  worker.conn->on_data([this, w](const std::vector<net::Chunk>& chunks) {
    on_worker_data(w, chunks);
  });
  worker.conn->on_closed([this, w](tcp::CloseReason reason) {
    Worker& wk = workers_[w];
    const bool complete =
        wk.headers_done && wk.body_received >= wk.body_expected;
    if (!complete) {
      worker_done(w, reason == tcp::CloseReason::kNormal && wk.headers_done &&
                         wk.body_received >= wk.body_expected);
    }
  });
  worker.conn->on_peer_closed([this, w] {
    Worker& wk = workers_[w];
    if (wk.headers_done && wk.body_received >= wk.body_expected) {
      // Completion already counted in on_worker_data.
      return;
    }
    worker_done(w, false);
  });
}

void ApacheBench::on_worker_data(std::size_t w, const std::vector<net::Chunk>& chunks) {
  Worker& wk = workers_[w];
  std::uint64_t body_bytes = 0;
  if (!wk.headers_done) {
    std::string text;
    append_text(text, chunks);
    wk.header_buffer += text;
    const auto end = wk.header_buffer.find(kHeaderEnd);
    if (end == std::string::npos) return;
    const std::string headers = wk.header_buffer.substr(0, end);
    wk.headers_done = true;
    wk.body_expected = parse_content_length(headers).value_or(0);
    // Bytes past the header terminator in this delivery are body. With
    // our server the body is virtual, so real text never overlaps it;
    // count the virtual portion of this delivery.
    for (const auto& c : chunks) body_bytes += c.virtual_size;
  } else {
    body_bytes = net::total_size(chunks);
  }
  wk.body_received += body_bytes;
  if (wk.headers_done && wk.body_received >= wk.body_expected) {
    worker_done(w, true);
  }
}

void ApacheBench::worker_done(std::size_t w, bool ok) {
  if (finished_) return;
  Worker& wk = workers_[w];
  if (!wk.conn) return;  // already accounted
  if (ok) {
    ++completed_;
    request_ms_.add(to_milliseconds(client_.sim().now() - wk.request_started));
    completions_->add(client_.sim().now(), 1.0);
  } else {
    ++failed_;
  }
  auto conn = wk.conn;
  wk.conn = nullptr;
  conn->on_data(nullptr);
  conn->on_closed(nullptr);
  conn->on_peer_closed(nullptr);
  conn->close();

  const bool budget_done =
      config_.total_requests > 0 && completed_ + failed_ >= config_.total_requests;
  const bool deadline_done = config_.total_requests == 0 &&
                             config_.duration > kZeroDuration &&
                             client_.sim().now() - started_ >= config_.duration;
  if (budget_done || deadline_done) {
    finish();
    return;
  }
  launch_worker(w);
}

void ApacheBench::finish() {
  if (finished_) return;
  finished_ = true;
  finished_at_ = client_.sim().now();
  for (auto& wk : workers_) {
    if (wk.conn) {
      wk.conn->on_closed(nullptr);
      wk.conn->abort();
      wk.conn = nullptr;
    }
  }
  if (done_) done_(report());
}

ApacheBench::Report ApacheBench::report() const {
  Report r;
  r.completed = completed_;
  r.failed = failed_;
  r.connect_ms = connect_ms_;
  r.request_ms = request_ms_;
  const TimePoint end = finished_ ? finished_at_ : client_.sim().now();
  r.elapsed = end - started_;
  r.requests_per_sec = to_seconds(r.elapsed) > 0
                           ? static_cast<double>(completed_) / to_seconds(r.elapsed)
                           : 0.0;
  if (completions_) r.completion_rate = completions_->rate_series(end);
  return r;
}

}  // namespace wav::apps
