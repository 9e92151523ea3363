#include "vm/migration.hpp"

#include "common/log.hpp"

namespace wav::vm {

MigrationTask::MigrationTask(VirtualMachine& vm, wavnet::SoftwareBridge& source_bridge,
                             wavnet::SoftwareBridge& destination_bridge,
                             tcp::TcpLayer& source_tcp, tcp::TcpLayer& destination_tcp,
                             net::Ipv4Address destination_ip, double destination_gflops,
                             MigrationConfig config, DoneHandler done)
    : vm_(vm),
      source_bridge_(source_bridge),
      destination_bridge_(destination_bridge),
      source_tcp_(source_tcp),
      destination_tcp_(destination_tcp),
      destination_ip_(destination_ip),
      destination_gflops_(destination_gflops),
      config_(config),
      done_(std::move(done)),
      sim_(source_tcp.sim()),
      ack_poll_(sim_, milliseconds(50), [this] {
        if (ack_continuation_ && conn_ && conn_->stats().bytes_acked >= ack_target_) {
          ack_poll_.stop();
          auto continuation = std::move(ack_continuation_);
          ack_continuation_ = nullptr;
          continuation();
        }
      }) {}

MigrationTask::~MigrationTask() {
  destination_tcp_.close_listener(config_.port);
}

void MigrationTask::start() {
  started_ = true;
  start_time_ = sim_.now();

  // Destination side: accept the page stream, parse framed rounds, and
  // perform the activation handshake when the final copy lands.
  destination_tcp_.listen(
      config_.port,
      [this](tcp::TcpConnection::Ptr conn) {
    receiver_conn_ = conn;
    receiver_framer_ = std::make_unique<net::MessageFramer>(
        [this](const net::FrameHeader& header, std::vector<net::Chunk>) {
          on_receiver_message(header);
        });
        conn->on_data([this](const std::vector<net::Chunk>& chunks) {
          receiver_framer_->push(chunks);
        });
      },
      config_.transport);

  conn_ = source_tcp_.connect({destination_ip_, config_.port}, config_.transport);
  conn_->on_closed([this](tcp::CloseReason reason) {
    if (!finished_ && reason != tcp::CloseReason::kNormal) finish(false);
  });
  conn_->on_established([this] {
    if (!config_.precopy) {
      // Naive stop-and-copy: the guest is down for the entire transfer.
      vm_.pause();
      pause_time_ = sim_.now();
      const std::uint64_t bytes =
          vm_.total_pages() * vm_.config().page_size + config_.cpu_state.bytes;
      for (auto& chunk : net::frame_message(
               {static_cast<std::uint8_t>(FrameType::kFinal), 0, 0},
               net::Chunk::virtual_bytes(bytes))) {
        conn_->send(std::move(chunk));
      }
      bytes_queued_ += net::kFrameHeaderBytes + bytes;
      return;
    }
    // Round 0: the whole address space.
    round_ = 0;
    vm_.take_dirty_snapshot();  // reset the dirty set; round 0 covers everything
    send_round(vm_.total_pages());
  });
}

void MigrationTask::send_round(std::uint64_t pages) {
  const std::uint64_t bytes = pages * vm_.config().page_size;
  round_start_ = sim_.now();
  log::debug("migration", "{}: round {} pushes {} pages", vm_.name(), round_, pages);
  for (auto& chunk : net::frame_message(
           {static_cast<std::uint8_t>(FrameType::kRound), round_, 0},
           net::Chunk::virtual_bytes(bytes))) {
    conn_->send(std::move(chunk));
  }
  bytes_queued_ += net::kFrameHeaderBytes + bytes;
  previous_round_bytes_ = bytes;
  wait_for_ack(bytes_queued_, [this] { next_round(); });
}

void MigrationTask::wait_for_ack(std::uint64_t target_acked, std::function<void()> then) {
  ack_target_ = target_acked;
  ack_continuation_ = std::move(then);
  ack_poll_.start_after(kZeroDuration);
}

void MigrationTask::next_round() {
  // The round that just drained its ack target is complete.
  sim_.tracer().complete(obs::Category::kMigration, "migration.round", round_start_,
                         vm_.name(), "\"round\":" + std::to_string(round_));
  ++round_;
  const std::uint64_t dirty = vm_.take_dirty_snapshot();
  const std::uint64_t dirty_bytes = dirty * vm_.config().page_size;

  const bool small_enough = dirty_bytes <= config_.stop_threshold.bytes;
  const bool no_progress =
      previous_round_bytes_ > 0 &&
      static_cast<double>(dirty_bytes) >=
          config_.min_progress * static_cast<double>(previous_round_bytes_);
  const bool budget_exhausted = round_ >= config_.max_rounds;

  if (small_enough || no_progress || budget_exhausted) {
    // Stop-and-copy: the guest pauses; everything still dirty (the
    // snapshot we just took) plus CPU state goes over in one burst.
    vm_.pause();
    pause_time_ = sim_.now();
    sim_.tracer().instant(obs::Category::kMigration, "migration.pause", vm_.name(),
                          "\"round\":" + std::to_string(round_));
    const std::uint64_t final_bytes =
        dirty_bytes + config_.cpu_state.bytes;
    log::debug("migration", "{}: stop-and-copy, {} final bytes after {} rounds",
               vm_.name(), final_bytes, round_);
    for (auto& chunk : net::frame_message(
             {static_cast<std::uint8_t>(FrameType::kFinal), round_, 0},
             net::Chunk::virtual_bytes(final_bytes))) {
      conn_->send(std::move(chunk));
    }
    bytes_queued_ += net::kFrameHeaderBytes + final_bytes;
    // Completion is driven by the receiver's kDone message.
    return;
  }
  send_round(dirty);
}

void MigrationTask::on_receiver_message(const net::FrameHeader& header) {
  switch (static_cast<FrameType>(header.type)) {
    case FrameType::kRound:
      return;  // intermediate round landed; nothing to do on the receiver
    case FrameType::kFinal: {
      // All state present: activate the guest at the destination after
      // the fixed activation cost.
      sim_.schedule_after(config_.activation_delay, [this] {
        vm_.nic().bridge()->detach(vm_.nic());
        destination_bridge_.attach(vm_.nic());
        vm_.set_cpu_gflops(destination_gflops_);
        vm_.resume();
        result_.downtime = sim_.now() - pause_time_;
        sim_.tracer().complete(obs::Category::kMigration, "migration.downtime",
                               pause_time_, vm_.name());
        sim_.metrics()
            .histogram("migration.downtime_ms",
                       {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000})
            .observe(to_milliseconds(result_.downtime));
        // The unsolicited ARP broadcast that repoints the whole LAN.
        vm_.stack().announce_gratuitous_arp();
        // Tell the source the handover is complete.
        if (receiver_conn_) {
          for (auto& chunk : net::frame_message(
                   {static_cast<std::uint8_t>(FrameType::kDone), 0, 0},
                   net::Chunk::virtual_bytes(0))) {
            receiver_conn_->send(std::move(chunk));
          }
        }
        finish(true);
      });
      return;
    }
    case FrameType::kDone:
      return;
  }
}

void MigrationTask::finish(bool ok) {
  if (finished_) return;
  finished_ = true;
  ack_poll_.stop();
  result_.ok = ok;
  result_.total_time = sim_.now() - start_time_;
  result_.rounds = round_ + 1;
  result_.bytes_transferred = ByteSize{bytes_queued_};
  sim_.metrics().counter(ok ? "migration.completed" : "migration.failed").inc();
  sim_.tracer().complete(obs::Category::kMigration, "migration.total", start_time_,
                         vm_.name(),
                         "\"ok\":" + std::string(ok ? "true" : "false") +
                             ",\"rounds\":" + std::to_string(result_.rounds));
  if (conn_) conn_->close();
  destination_tcp_.close_listener(config_.port);
  if (done_) done_(result_);
}

}  // namespace wav::vm
