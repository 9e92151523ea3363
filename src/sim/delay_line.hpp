// FIFO delay lines whose entries fire as ordinary events while only each
// line's head sits on the event heap.
//
// A component that holds items for a delay and releases them in FIFO
// order per flow (the Internet core's per-pair path delay is the one
// user) would otherwise put every in-flight item on the heap as its own
// event, and every heap operation would pay for all of them. A line
// instead keeps its items in departure order and schedules only the
// head; when the head fires, the next item becomes the head.
//
// Determinism is unchanged: each entry takes its global sequence number
// when it is pushed — exactly when a plain schedule_at would have — and
// the head enters the heap under that (time, seq) key. Because a line's
// keys only grow, the head is always the line's minimum, so the global
// firing order, events_executed() and pending_events() (which counts the
// queued entries behind each head) are the same as scheduling each entry
// on its own.
//
// All lines of one DelayLines object share its entry pool, so an idle
// line costs two indices and memory tracks the items in flight, not the
// number of lines.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace wav::sim {

template <class T>
class DelayLines {
 public:
  /// One FIFO. The owner keeps it (for example next to the flow's other
  /// per-direction state); it must not move or die while non-empty.
  class Line {
   public:
    Line() = default;
    Line(const Line&) = delete;
    Line& operator=(const Line&) = delete;

    [[nodiscard]] bool empty() const noexcept { return head_ == kNil; }

   private:
    friend class DelayLines;
    std::uint32_t head_{kNil};
    std::uint32_t tail_{kNil};
  };

  /// `on_fire` receives each entry's value when the entry fires.
  DelayLines(Simulation& sim, std::function<void(T&&)> on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}

  DelayLines(const DelayLines&) = delete;
  DelayLines& operator=(const DelayLines&) = delete;

  /// Cancels the scheduled heads and drops every queued entry.
  ~DelayLines() {
    for (const Entry& e : entries_) {
      if (e.key.seq == 0) continue;  // free
      if (e.event.valid()) {
        sim_.cancel(e.event);
      } else {
        sim_.unpark();
      }
    }
  }

  /// Queues `value` on `line` to fire at `at`, tagged with `category`
  /// like a schedule_at event. `at` must not precede the line's last
  /// entry (callers FIFO-clamp it).
  void push(Line& line, TimePoint at, obs::ProfCategoryId category, T value) {
    const std::uint32_t i = acquire();
    Entry& e = entries_[i];
    e.key = EventKey{at, sim_.park()};
    e.category = category;
    e.value = std::move(value);
    if (line.empty()) {
      line.head_ = line.tail_ = i;
      schedule_head(line);
    } else {
      assert(!(at < entries_[line.tail_].key.at) && "delay line must stay FIFO");
      entries_[line.tail_].next = i;
      line.tail_ = i;
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Entry {
    EventKey key;        // seq 0: free
    EventId event{};     // valid while this entry is a scheduled head
    std::uint32_t next{kNil};
    obs::ProfCategoryId category{obs::kProfCategoryNone};
    T value{};
  };

  std::uint32_t acquire() {
    if (free_ != kNil) {
      const std::uint32_t i = free_;
      free_ = entries_[i].next;
      entries_[i].next = kNil;
      return i;
    }
    entries_.emplace_back();
    return static_cast<std::uint32_t>(entries_.size() - 1);
  }

  void release(std::uint32_t i) {
    Entry& e = entries_[i];
    e.key = EventKey{};
    e.event = EventId{};
    e.next = free_;
    free_ = i;
  }

  void schedule_head(Line& line) {
    Entry& head = entries_[line.head_];
    auto fire_head = [this, &line] { fire(line); };
    static_assert(EventCallback::fits_inline<decltype(fire_head)>);
    head.event = sim_.schedule_parked(head.key, head.category, fire_head);
  }

  void fire(Line& line) {
    const std::uint32_t i = line.head_;
    T value = std::move(entries_[i].value);
    line.head_ = entries_[i].next;
    release(i);
    // The next head is on the heap before the handler runs, so the
    // handler may push onto this line again.
    if (line.head_ == kNil) {
      line.tail_ = kNil;
    } else {
      schedule_head(line);
    }
    on_fire_(std::move(value));
  }

  Simulation& sim_;
  std::function<void(T&&)> on_fire_;
  std::vector<Entry> entries_;  // pool shared by every line
  std::uint32_t free_{kNil};    // free list threaded through Entry::next
};

}  // namespace wav::sim
