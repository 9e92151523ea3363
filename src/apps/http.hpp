// Minimal HTTP/1.0 server and an ApacheBench-style load generator —
// the tools behind Tables III/IV and Figure 10: connection time
// (min/mean/max), request throughput vs file size, and the request-rate
// time series during live migration.
//
// Requests and response headers are real parsed text over the simulated
// TCP byte stream; response bodies are virtual bytes of the configured
// resource size.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "common/stats.hpp"
#include "tcp/tcp.hpp"
#include "wavnet/processing.hpp"

namespace wav::apps {

class HttpServer {
 public:
  struct Config {
    /// Single-threaded request service model (a 2011-era httpd inside a
    /// VM): fixed parse/dispatch cost plus a per-byte content cost.
    Duration service_per_request{microseconds(1200)};
    Duration service_per_byte{nanoseconds(100)};
  };

  HttpServer(tcp::TcpLayer& tcp, std::uint16_t port);
  HttpServer(tcp::TcpLayer& tcp, std::uint16_t port, Config config);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a resource served with a virtual body of `size` bytes.
  void add_resource(const std::string& path, ByteSize size);

  struct Stats {
    std::uint64_t requests_served{0};
    std::uint64_t not_found{0};
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  struct ClientState {
    std::string buffer;
  };

  void on_connection(const tcp::TcpConnection::Ptr& conn);
  void handle_request(const tcp::TcpConnection::Ptr& conn, const std::string& request);

  tcp::TcpLayer& tcp_;
  std::uint16_t port_;
  wavnet::ProcessingQueue service_;
  std::map<std::string, ByteSize> resources_;
  Stats stats_;
};

/// ApacheBench-style client: `concurrency` workers each running
/// connect -> GET -> full response -> close, repeatedly, until a request
/// budget or deadline is exhausted.
class ApacheBench {
 public:
  struct Config {
    std::size_t concurrency{10};
    std::size_t total_requests{100};  // 0 = run until `duration`
    Duration duration{};              // used when total_requests == 0
    std::string path{"/index.html"};
    std::uint16_t port{80};
    Duration poll_interval{milliseconds(500)};  // completion-rate series
  };

  struct Report {
    std::size_t completed{0};
    std::size_t failed{0};
    SampleSet connect_ms;   // TCP connect times (Table III)
    SampleSet request_ms;   // full request latency
    Duration elapsed{};
    double requests_per_sec{0};
    std::vector<TimeSeriesPoint> completion_rate;  // req/s per poll (Fig 10)
  };

  using DoneHandler = std::function<void(const Report&)>;

  ApacheBench(tcp::TcpLayer& client, net::Ipv4Address server, Config config);

  void start(DoneHandler done = {});
  void stop();

  [[nodiscard]] Report report() const;
  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  struct Worker {
    tcp::TcpConnection::Ptr conn;
    TimePoint connect_started{};
    TimePoint request_started{};
    std::string header_buffer;
    std::uint64_t body_expected{0};
    std::uint64_t body_received{0};
    bool headers_done{false};
  };

  void launch_worker(std::size_t w);
  void on_worker_data(std::size_t w, const std::vector<net::Chunk>& chunks);
  void worker_done(std::size_t w, bool ok);
  void finish();

  tcp::TcpLayer& client_;
  net::Ipv4Address server_;
  Config config_;
  DoneHandler done_;

  std::vector<Worker> workers_;
  std::size_t issued_{0};
  std::size_t completed_{0};
  std::size_t failed_{0};
  SampleSet connect_ms_;
  SampleSet request_ms_;
  std::unique_ptr<IntervalSeries> completions_;
  TimePoint started_{};
  TimePoint finished_at_{};
  bool started_flag_{false};
  bool finished_{false};
};

}  // namespace wav::apps
