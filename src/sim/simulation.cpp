#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>

namespace wav::sim {

Simulation::Simulation(std::uint64_t seed)
    : rng_(seed),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      tracer_(std::make_unique<obs::Tracer>([this] { return now_; })),
      flows_(std::make_unique<obs::FlowTracer>(*metrics_, tracer_.get(),
                                               [this] { return now_; })) {
  events_counter_ = &metrics_->counter("sim.events_executed");
  queue_depth_gauge_ = &metrics_->gauge("sim.queue_depth");
  if (const char* env = std::getenv("WAVNET_DISABLE_TIMER_WHEEL");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    timer_wheel_enabled_ = false;
  }
}

std::uint32_t Simulation::acquire_slot(obs::ProfCategoryId category) {
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[idx].category = category;
  return idx;
}

EventId Simulation::enqueue(std::uint32_t idx, EventKey key, bool relative) {
  Slot& slot = slots_[idx];
  if (relative && timer_wheel_enabled_) {
    slot.heap_pos = kInWheel;
    wheel_.insert(idx, key.at, key.seq);
  } else {
    heap_.push_back(HeapEntry{key, idx});
    sift_up(heap_.size() - 1, heap_.back());
  }
  return EventId{(static_cast<std::uint64_t>(slot.generation) << 32) | idx};
}

void Simulation::release_slot(std::uint32_t idx) {
  Slot& slot = slots_[idx];
  // Bumping the generation invalidates every outstanding id for this
  // incarnation; 0 is skipped so a packed id can never equal the
  // "invalid" sentinel.
  if (++slot.generation == 0) slot.generation = 1;
  slot.heap_pos = kNotInHeap;
  slot.fn.reset();
  free_slots_.push_back(idx);
}

bool Simulation::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id.value & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (gen == 0 || idx >= slots_.size()) return false;
  Slot& slot = slots_[idx];
  if (slot.generation != gen || slot.heap_pos == kNotInHeap) return false;
  if (slot.heap_pos == kInWheel) {
    wheel_.remove(idx);
  } else {
    heap_remove(slot.heap_pos);
  }
  release_slot(idx);
  return true;
}

// The heap helpers move entry `e` into the hole at `pos` and shift the
// entries it passes into the hole's old place; only the final position
// of each moved entry is written back to its slot's heap_pos.

void Simulation::sift_up(std::size_t pos, HeapEntry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!(e.key < heap_[parent].key)) break;
    heap_place(pos, heap_[parent]);
    pos = parent;
  }
  heap_place(pos, e);
}

std::size_t Simulation::min_child(std::size_t pos) const {
  const std::size_t first_child = pos * 4 + 1;
  const std::size_t n = heap_.size();
  if (first_child >= n) return n;
  std::size_t best = first_child;
  const std::size_t end = std::min(first_child + 4, n);
  for (std::size_t c = first_child + 1; c < end; ++c) {
    if (heap_[c].key < heap_[best].key) best = c;
  }
  return best;
}

void Simulation::sift_down(std::size_t pos, HeapEntry e) {
  for (;;) {
    const std::size_t best = min_child(pos);
    if (best == heap_.size() || !(heap_[best].key < e.key)) break;
    heap_place(pos, heap_[best]);
    pos = best;
  }
  heap_place(pos, e);
}

void Simulation::heap_pop() {
  // Bottom-up removal of the root: the hole follows the smallest child
  // down to a leaf without comparing against the displaced last entry,
  // which then sifts up from there. The last entry almost always belongs
  // near the bottom, so this saves the top-down sift's extra comparison
  // at every level.
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  std::size_t pos = 0;
  for (std::size_t best; (best = min_child(pos)) != heap_.size(); pos = best) {
    heap_place(pos, heap_[best]);
  }
  sift_up(pos, last);
}

void Simulation::heap_remove(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  // The relocated entry may belong either direction from `pos`.
  if (pos > 0 && last.key < heap_[(pos - 1) / 4].key) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

bool Simulation::pop_and_run_next(TimePoint deadline) {
  // Merge the stores by global (time, seq) order: the next event is the
  // earlier of the heap root and the wheel minimum (cached by the wheel,
  // so a heap-root win costs one key comparison). `seq` values are unique
  // across stores, so the merge is a strict total order and a run is
  // byte-identical however events are distributed between them.
  const std::uint32_t widx = wheel_.peek_min();
  const bool from_wheel =
      widx != TimerWheel::kNil && (heap_.empty() || wheel_.key(widx) < heap_[0].key);
  if (!from_wheel && heap_.empty()) return false;
  const EventKey key = from_wheel ? wheel_.key(widx) : heap_[0].key;
  if (key.at > deadline) return false;
  assert(key.at >= now_ && "event queue must be monotonic");
  now_ = key.at;
  const std::uint32_t idx = from_wheel ? widx : heap_[0].idx;
  Slot& slot = slots_[idx];
  // Move the callback out and retire the slot before invoking, so the
  // callback can freely schedule (reusing this slot) or cancel; a cancel
  // of the in-flight event's own id correctly reports false.
  EventCallback fn = std::move(slot.fn);
  const obs::ProfCategoryId category = slot.category;
  if (from_wheel) {
    wheel_.extract(idx);
  } else {
    heap_pop();
  }
  release_slot(idx);
  ++executed_;
  events_counter_->inc();
  queue_depth_gauge_->set(static_cast<double>(pending_events()));
  if (obs::Profiler::enabled()) {
    // Sampled wall-clock attribution rooted at the event's schedule-time
    // category. Purely observational: identical event order with the
    // profiler on or off (determinism contract, obs/profiler.hpp).
    const obs::ProfEventScope prof(category);
    fn();
  } else {
    fn();
  }
  return true;
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(kTimeInfinity)) {
  }
}

bool Simulation::run_until(TimePoint deadline) {
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(deadline)) {
  }
  if (!stopped_ && deadline > now_ && deadline < kTimeInfinity) now_ = deadline;
  return !stopped_;
}

bool Simulation::run_for(Duration d) { return run_until(now_ + d); }

PeriodicTimer::PeriodicTimer(Simulation& sim, Duration period,
                             std::function<void()> on_fire, obs::ProfCategoryId category)
    : sim_(sim), period_(period), on_fire_(std::move(on_fire)), category_(category) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() { start_after(period_); }

void PeriodicTimer::start_after(Duration initial_delay) {
  stop();
  if (initial_delay < kZeroDuration) initial_delay = kZeroDuration;
  next_at_ = sim_.now() + initial_delay;
  pending_ = sim_.schedule_after(initial_delay, category_, [this] { fire(); });
}

void PeriodicTimer::stop() {
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = EventId{};
  }
}

void PeriodicTimer::fire() {
  pending_ = EventId{};
  // Reschedule before invoking so the callback may stop() the timer. The
  // next deadline is the previous one plus the period — the period grid —
  // not now() + period: the two only differ if the clock ever drifts past
  // the intended deadline, and anchoring to the grid keeps keepalive
  // cadence exact under load instead of compounding the skew.
  next_at_ = next_at_ + period_;
  Duration delay = next_at_ - sim_.now();
  if (delay < kZeroDuration) delay = kZeroDuration;
  pending_ = sim_.schedule_after(delay, category_, [this] { fire(); });
  on_fire_();
}

OneShotTimer::OneShotTimer(Simulation& sim, std::function<void()> on_fire,
                           obs::ProfCategoryId category)
    : sim_(sim), on_fire_(std::move(on_fire)), category_(category) {}

OneShotTimer::~OneShotTimer() { cancel(); }

void OneShotTimer::arm(Duration delay) {
  cancel();
  const std::uint64_t epoch = ++arm_epoch_;
  deadline_ = sim_.now() + delay;
  // The epoch guard makes reentrant re-arms (on_fire calling arm(), the
  // TCP RTO pattern) structurally safe: if this firing was superseded by
  // a newer arm() in any path the generation check doesn't cover, the
  // stale lambda refuses to clear `pending_` or fire.
  pending_ = sim_.schedule_after(delay, category_, [this, epoch] {
    if (epoch != arm_epoch_) return;
    pending_ = EventId{};
    on_fire_();
  });
}

void OneShotTimer::cancel() {
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = EventId{};
  }
}

}  // namespace wav::sim
