#include "sim/timer_wheel.hpp"

#include <bit>
#include <cassert>

namespace wav::sim {

namespace {

constexpr std::uint64_t kSlotMask = TimerWheel::kSlotsPerLevel - 1;

/// Cursor/tick slot index at `level`.
[[nodiscard]] constexpr unsigned slot_at(std::uint64_t tick, unsigned level) noexcept {
  return static_cast<unsigned>((tick >> (TimerWheel::kSlotBits * level)) & kSlotMask);
}

/// Block id at `level`: ticks sharing it map to the same 256-slot frame.
[[nodiscard]] constexpr std::uint64_t block_at(std::uint64_t tick,
                                               unsigned level) noexcept {
  return tick >> (TimerWheel::kSlotBits * (level + 1));
}

}  // namespace

void TimerWheel::insert(std::uint32_t idx, TimePoint at, std::uint64_t seq) {
  if (idx >= nodes_.size()) nodes_.resize(static_cast<std::size_t>(idx) + 1);
  Node& n = nodes_[idx];
  assert(n.bucket == kUnqueued && "slot already queued in the wheel");
  n.key = EventKey{at, seq};
  n.prev = n.next = kNil;
  place(idx);
  // An empty wheel's minimum is the newcomer; otherwise the newcomer can
  // only displace a known minimum (an unknown one is rescanned on demand).
  if (count_ == 0) {
    min_ = idx;
    min_known_ = true;
  } else if (min_known_ && n.key < nodes_[min_].key) {
    min_ = idx;
  }
  ++count_;
}

void TimerWheel::remove(std::uint32_t idx) {
  assert(idx < nodes_.size() && nodes_[idx].bucket != kUnqueued);
  unlink(idx);
  --count_;
  if (idx == min_) min_known_ = false;
}

void TimerWheel::extract(std::uint32_t idx) {
  assert(idx < nodes_.size() && nodes_[idx].bucket != kUnqueued);
  assert(idx == peek_min() && "extract must take the wheel minimum");
  const std::uint64_t t = tick_of(nodes_[idx].key.at);
  assert(t >= cursor_ && "extract must move forward in time");
  unlink(idx);
  --count_;
  min_known_ = false;
  advance_to(t);
}

void TimerWheel::place(std::uint32_t idx) {
  Node& n = nodes_[idx];
  const std::uint64_t t = tick_of(n.key.at);
  assert(t >= cursor_ && "wheel deadlines are never in the past");
  for (unsigned level = 0; level < kLevels; ++level) {
    if (block_at(t, level) == block_at(cursor_, level)) {
      link(static_cast<std::uint16_t>(level * kSlotsPerLevel + slot_at(t, level)),
           idx);
      return;
    }
  }
  link(kOverflowBucket, idx);
}

void TimerWheel::link(std::uint16_t bucket, std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.bucket = bucket;
  n.next = kNil;
  BucketList& list = bucket_list(bucket);
  n.prev = list.tail;
  if (list.tail != kNil) {
    nodes_[list.tail].next = idx;
  } else {
    list.head = idx;
  }
  list.tail = idx;
  if (bucket == kOverflowBucket) {
    ++overflow_count_;
  } else {
    const unsigned level = bucket / kSlotsPerLevel;
    const unsigned slot = bucket % kSlotsPerLevel;
    bitmap_[level][slot / 64] |= std::uint64_t{1} << (slot % 64);
  }
}

void TimerWheel::unlink(std::uint32_t idx) {
  Node& n = nodes_[idx];
  BucketList& list = bucket_list(n.bucket);
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    list.head = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    list.tail = n.prev;
  }
  if (n.bucket == kOverflowBucket) {
    --overflow_count_;
  } else if (list.head == kNil) {
    const unsigned level = n.bucket / kSlotsPerLevel;
    const unsigned slot = n.bucket % kSlotsPerLevel;
    bitmap_[level][slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  }
  n.bucket = kUnqueued;
  n.prev = n.next = kNil;
}

int TimerWheel::next_occupied(unsigned level, unsigned from) const {
  if (from >= kSlotsPerLevel) return -1;
  const auto& words = bitmap_[level];
  unsigned word = from / 64;
  std::uint64_t bits = words[word] & (~std::uint64_t{0} << (from % 64));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>(word * 64 +
                              static_cast<unsigned>(std::countr_zero(bits)));
    }
    if (++word >= words.size()) return -1;
    bits = words[word];
  }
}

std::uint32_t TimerWheel::list_min(const BucketList& list) const {
  std::uint32_t best = kNil;
  for (std::uint32_t i = list.head; i != kNil; i = nodes_[i].next) {
    if (best == kNil || nodes_[i].key < nodes_[best].key) best = i;
  }
  return best;
}

std::uint32_t TimerWheel::peek_min() {
  if (!min_known_) {
    min_ = scan_min();
    min_known_ = true;
  }
  return min_;
}

std::uint32_t TimerWheel::scan_min() const {
  if (count_ == 0) return kNil;
  // Levels hold disjoint, strictly increasing tick ranges relative to the
  // cursor: level 0's remaining block precedes every remaining level-1
  // slot, which precede every remaining level-2 slot, and so on, with the
  // overflow list last. The first occupied bucket in that order contains
  // the global minimum; ns-exact ordering inside the bucket is resolved
  // by a linear (deadline, seq) scan.
  for (unsigned level = 0; level < kLevels; ++level) {
    const unsigned cur = slot_at(cursor_, level);
    const unsigned from = level == 0 ? cur : cur + 1;
    const int slot = next_occupied(level, from);
    if (slot >= 0) {
      return list_min(
          buckets_[level * kSlotsPerLevel + static_cast<unsigned>(slot)]);
    }
  }
  return list_min(overflow_);
}

void TimerWheel::cascade(unsigned level, unsigned slot) {
  BucketList& list = buckets_[level * kSlotsPerLevel + slot];
  std::uint32_t i = list.head;
  list.head = list.tail = kNil;
  bitmap_[level][slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  // Re-file in original order so intra-bucket FIFO survives the descent.
  while (i != kNil) {
    const std::uint32_t next = nodes_[i].next;
    nodes_[i].prev = nodes_[i].next = kNil;
    nodes_[i].bucket = kUnqueued;
    place(i);
    i = next;
  }
}

void TimerWheel::refill_overflow() {
  BucketList pending = overflow_;
  overflow_ = BucketList{};
  overflow_count_ = 0;
  std::uint32_t i = pending.head;
  while (i != kNil) {
    const std::uint32_t next = nodes_[i].next;
    nodes_[i].prev = nodes_[i].next = kNil;
    nodes_[i].bucket = kUnqueued;
    place(i);  // still-distant nodes re-park in the fresh overflow list
    i = next;
  }
}

void TimerWheel::advance_to(std::uint64_t tick) {
  if (tick <= cursor_) return;
  const std::uint64_t old = cursor_;
  cursor_ = tick;
  if (count_ == 0) return;
  // The caller just extracted the wheel minimum at `tick`, so every slot
  // strictly between the old cursor and `tick` is empty — only the slots
  // covering `tick` itself can hold work, and they cascade here, top
  // level first so each descent lands in already-settled lower frames.
  if (block_at(old, kLevels - 1) != block_at(tick, kLevels - 1)) refill_overflow();
  for (unsigned level = kLevels - 1; level >= 1; --level) {
    if (block_at(old, level - 1) != block_at(tick, level - 1)) {
      cascade(level, slot_at(tick, level));
    }
  }
}

}  // namespace wav::sim
