// Models the user-space packet processing cost of a tunnel endpoint or
// overlay router as a single-server queue: each job occupies the "CPU"
// for (fixed + per_byte * size) and completes in FIFO order. This is the
// knob behind the paper's central performance comparison — WAVNet's thin
// encapsulation versus IPOP's per-hop P2P routing stack.
#pragma once

#include <utility>

#include "sim/simulation.hpp"
#include "obs/profiler.hpp"

namespace wav::wavnet {

class ProcessingQueue {
 public:
  struct Config {
    Duration per_packet{microseconds(20)};
    Duration per_byte{nanoseconds(8)};  // ~1 Gbit/s memory path
    Duration max_backlog{milliseconds(200)};  // beyond this, drop (CPU saturated)
  };

  ProcessingQueue(sim::Simulation& sim, Config config) : sim_(sim), config_(config) {}

  /// Schedules `done` after the job's service time, honoring FIFO
  /// occupancy. Returns false (dropping the job) when the backlog bound
  /// is exceeded. Any void() callable that fits EventCallback's inline
  /// buffer (checked at compile time): it is constructed straight into
  /// the event slab, so a queued job costs no allocation.
  template <class F>
  bool submit(std::uint64_t bytes, F&& done) {
    static_assert(sim::EventCallback::fits_inline<F>,
                  "completion capture must fit EventCallback's inline buffer");
    const TimePoint now = sim_.now();
    if (busy_until_ < now) busy_until_ = now;
    if (busy_until_ - now > config_.max_backlog) {
      ++dropped_;
      return false;
    }
    const Duration service =
        config_.per_packet + config_.per_byte * static_cast<std::int64_t>(bytes);
    busy_until_ += service;
    ++processed_;
    sim_.schedule_at(busy_until_, WAV_PROF_CATEGORY("switch", "processing_done"),
                     std::forward<F>(done));
    return true;
  }

  [[nodiscard]] Duration current_backlog() const {
    const TimePoint now = sim_.now();
    return busy_until_ > now ? busy_until_ - now : kZeroDuration;
  }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  sim::Simulation& sim_;
  Config config_;
  TimePoint busy_until_{};
  std::uint64_t processed_{0};
  std::uint64_t dropped_{0};
};

}  // namespace wav::wavnet
