// Deterministic discrete-event simulation engine.
//
// Everything in this repository — links, NAT boxes, protocol stacks, VM
// migration, workloads — runs as callbacks scheduled on one Simulation.
// Events fire in (time, insertion-sequence) order, which makes a run a
// pure function of (program, seed): the foundation for reproducible
// experiments and property tests.
//
// The event store is a slab of reusable slots indexed by three
// structures, all ordered by the same EventKey (sim/event_key.hpp):
//  - a 4-ary heap of (key, slot) entries for absolute-time `schedule_at`
//    events; the key lives in the heap entry, so sifting never reads the
//    slab;
//  - a hashed hierarchical timer wheel (sim/timer_wheel.hpp) for the much
//    larger rotating population of relative-delay `schedule_after` events
//    — keepalives, RTOs, punch retries — which are overwhelmingly
//    cancelled or re-armed before firing;
//  - delay lines (sim/delay_line.hpp): FIFOs whose entries fire in key
//    order but of which only the head is on the heap.
// Scheduling is allocation-free in the steady state (slots recycle;
// callbacks live inline in the slot, see event_callback.hpp),
// cancellation is a true removal in either store (O(log n) heap /
// O(1) wheel), and pending_events() is exact — there are no tombstones
// to drift. EventIds carry a per-slot generation so a stale id (event
// already fired or cancelled, slot since reused) is always rejected.
// The executor merges the stores by global (time, seq) order, so a run
// is byte-identical whether the wheel is enabled or not.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/event_callback.hpp"
#include "sim/event_key.hpp"
#include "sim/timer_wheel.hpp"

namespace wav::sim {

template <class T>
class DelayLines;

/// Handle for cancelling a scheduled event. Id 0 is "invalid". The value
/// packs (slot generation << 32 | slot index) and is opaque to callers.
struct EventId {
  std::uint64_t value{0};
  [[nodiscard]] constexpr bool valid() const noexcept { return value != 0; }
  constexpr auto operator<=>(const EventId&) const = default;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] TimePoint now() const noexcept { return now_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Schedules `fn` at absolute time `at` (>= now; earlier times are
  /// clamped to now, i.e. "immediately after current event"). Accepts any
  /// void() callable; small captures are stored inline in the event slab.
  template <class F>
  EventId schedule_at(TimePoint at, F&& fn) {
    return schedule_impl(at, obs::kProfCategoryNone, std::forward<F>(fn),
                         /*relative=*/false);
  }

  /// Schedules `fn` after a relative delay (negative clamps to zero).
  /// Relative events are stored on the timer wheel (O(1) schedule/cancel)
  /// unless disabled; firing order is identical either way.
  template <class F>
  EventId schedule_after(Duration delay, F&& fn) {
    if (delay < kZeroDuration) delay = kZeroDuration;
    return schedule_impl(now_ + delay, obs::kProfCategoryNone, std::forward<F>(fn),
                         /*relative=*/true);
  }

  /// Tagged variants: the category (from WAV_PROF_CATEGORY) rides in the
  /// event slot and roots the profiler's flamegraph for that event, so
  /// per-event-type cost attribution needs no per-callsite bookkeeping.
  /// Tags are profiler-only — scheduling order, ids and execution are
  /// identical to the untagged overloads.
  template <class F>
  EventId schedule_at(TimePoint at, obs::ProfCategoryId category, F&& fn) {
    return schedule_impl(at, category, std::forward<F>(fn), /*relative=*/false);
  }

  template <class F>
  EventId schedule_after(Duration delay, obs::ProfCategoryId category, F&& fn) {
    if (delay < kZeroDuration) delay = kZeroDuration;
    return schedule_impl(now_ + delay, category, std::forward<F>(fn), /*relative=*/true);
  }

  /// Cancels a pending event; returns false if it already ran, was
  /// cancelled, or the id is invalid. Ids of executed events are rejected
  /// by the slot generation check, so a cancel never leaks state.
  bool cancel(EventId id);

  /// Runs until the queue drains or stop() is called.
  void run();

  /// Runs all events with time <= deadline, then advances the clock to
  /// exactly `deadline`. Returns false if stop() ended the run early.
  bool run_until(TimePoint deadline);

  /// Convenience: run_until(now + d).
  bool run_for(Duration d);

  /// Requests the current run()/run_until() loop to return after the
  /// in-flight event completes.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Number of events executed since construction (for tests/diagnostics).
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }
  /// Exact count of scheduled-but-not-yet-fired events (every store,
  /// including delay-line entries queued behind their line's head).
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return heap_.size() + wheel_.size() + parked_;
  }

  /// Routes future `schedule_after` events through the timer wheel (on by
  /// default; the WAVNET_DISABLE_TIMER_WHEEL env var forces it off).
  /// Toggling only affects events scheduled afterwards — both stores stay
  /// live and merge in global (time, seq) order, so A/B equivalence tests
  /// can flip this per-Simulation and compare exports byte-for-byte.
  void set_use_timer_wheel(bool on) noexcept { timer_wheel_enabled_ = on; }
  [[nodiscard]] bool timer_wheel_enabled() const noexcept {
    return timer_wheel_enabled_;
  }
  /// Events currently stored on the wheel (tests/diagnostics).
  [[nodiscard]] std::size_t wheel_events() const noexcept { return wheel_.size(); }

  /// Per-simulation observability: every component instrumenting itself
  /// reaches its registry/tracer through the Simulation it runs on, so
  /// concurrent simulations (thread-pool benches) never share state.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return *metrics_; }
  [[nodiscard]] obs::Tracer& tracer() noexcept { return *tracer_; }
  /// Flow-level causal tracing (sampled flight recorder; obs/flow.hpp).
  [[nodiscard]] obs::FlowTracer& flows() noexcept { return *flows_; }

 private:
  template <class T>
  friend class DelayLines;

  static constexpr std::uint32_t kNotInHeap = 0xFFFFFFFFu;
  /// heap_pos sentinel: the slot lives on the timer wheel, not the heap.
  static constexpr std::uint32_t kInWheel = 0xFFFFFFFEu;

  /// One slab slot. Reused across events; `generation` distinguishes the
  /// incarnations so stale EventIds never alias a newer event. The firing
  /// key is kept by the store that holds the slot, not here.
  struct Slot {
    std::uint32_t generation{1};
    std::uint32_t heap_pos{kNotInHeap};
    obs::ProfCategoryId category{obs::kProfCategoryNone};  // profiler tag
    EventCallback fn;
  };

  struct HeapEntry {
    EventKey key;
    std::uint32_t idx;  // slab slot
  };

  template <class F>
  EventId schedule_impl(TimePoint at, obs::ProfCategoryId category, F&& fn,
                        bool relative) {
    if (at < now_) at = now_;
    const std::uint32_t idx = acquire_slot(category);
    slots_[idx].fn.emplace(std::forward<F>(fn));
    return enqueue(idx, EventKey{at, next_seq_++}, relative);
  }

  /// Delay-line support: an entry queued behind its line's head takes its
  /// sequence number when it is queued — when a plain schedule_at would
  /// have taken it — and enters the heap under that key once it becomes
  /// the head. pending_events() counts it all along.
  std::uint64_t park() noexcept {
    ++parked_;
    return next_seq_++;
  }
  void unpark() noexcept { --parked_; }
  template <class F>
  EventId schedule_parked(EventKey key, obs::ProfCategoryId category, F&& fn) {
    --parked_;
    const std::uint32_t idx = acquire_slot(category);
    slots_[idx].fn.emplace(std::forward<F>(fn));
    return enqueue(idx, key, /*relative=*/false);
  }

  std::uint32_t acquire_slot(obs::ProfCategoryId category);
  EventId enqueue(std::uint32_t idx, EventKey key, bool relative);
  void release_slot(std::uint32_t idx);
  void heap_place(std::size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slots_[e.idx].heap_pos = static_cast<std::uint32_t>(pos);
  }
  /// Index of `pos`'s earliest child, or heap_.size() if it has none.
  [[nodiscard]] std::size_t min_child(std::size_t pos) const;
  void sift_up(std::size_t pos, HeapEntry e);
  void sift_down(std::size_t pos, HeapEntry e);
  void heap_pop();
  void heap_remove(std::size_t pos);
  bool pop_and_run_next(TimePoint deadline);

  TimePoint now_{};
  Rng rng_;
  std::vector<Slot> slots_;               // slab; grows, never shrinks
  std::vector<std::uint32_t> free_slots_; // recycled slot indices
  std::vector<HeapEntry> heap_;           // 4-ary min-heap on EventKey
  TimerWheel wheel_;                      // relative-delay (timer) events
  bool timer_wheel_enabled_{true};
  std::uint64_t next_seq_{1};
  std::size_t parked_{0};                 // delay-line entries behind a head
  std::uint64_t executed_{0};
  bool stopped_{false};

  // unique_ptr keeps handle addresses stable if Simulation ever moves.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::FlowTracer> flows_;
  obs::Counter* events_counter_{nullptr};
  obs::Gauge* queue_depth_gauge_{nullptr};
};

/// RAII periodic timer. Starts firing `period` after start() and keeps
/// rescheduling itself until stop() or destruction. Used for keepalive
/// pulses, measurement polls, dirty-page sampling, etc.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulation& sim, Duration period, std::function<void()> on_fire,
                obs::ProfCategoryId category = obs::kProfCategoryNone);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  /// Starts with the first firing after `initial_delay` instead of period.
  void start_after(Duration initial_delay);
  void stop();
  [[nodiscard]] bool running() const noexcept { return pending_.valid(); }

  void set_period(Duration period) noexcept { period_ = period; }
  [[nodiscard]] Duration period() const noexcept { return period_; }

 private:
  void fire();

  Simulation& sim_;
  Duration period_;
  std::function<void()> on_fire_;
  obs::ProfCategoryId category_{obs::kProfCategoryNone};
  EventId pending_{};
  /// Deadline of the pending firing. The next firing is anchored to
  /// `next_at_ + period` (the period grid), never `now() + period`, so
  /// cadence cannot skew even if a fire path perturbs the clock.
  TimePoint next_at_{};
};

/// RAII one-shot timer that can be re-armed; used for protocol timeouts
/// (TCP RTO, NAT binding expiry, hole-punch retries).
class OneShotTimer {
 public:
  OneShotTimer(Simulation& sim, std::function<void()> on_fire,
               obs::ProfCategoryId category = obs::kProfCategoryNone);
  ~OneShotTimer();

  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  /// (Re)arms the timer `delay` from now; cancels any pending firing.
  void arm(Duration delay);
  void cancel();
  [[nodiscard]] bool armed() const noexcept { return pending_.valid(); }
  [[nodiscard]] TimePoint deadline() const noexcept { return deadline_; }

 private:
  Simulation& sim_;
  std::function<void()> on_fire_;
  obs::ProfCategoryId category_{obs::kProfCategoryNone};
  EventId pending_{};
  TimePoint deadline_{};
  /// Bumped by every arm(); the firing lambda captures its epoch and
  /// refuses to run if a re-arm (possibly from inside on_fire itself — the
  /// TCP RTO pattern) superseded it. Belt-and-braces on top of the
  /// generation-tagged cancel.
  std::uint64_t arm_epoch_{0};
};

}  // namespace wav::sim
