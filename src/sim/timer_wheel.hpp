// Hashed hierarchical timer wheel (Varghese & Lauck) for the huge
// rotating population of relative-delay events: keepalive pulses,
// retransmit timeouts, punch retries.
//
// The 4-ary event heap (simulation.hpp) is exact but pays O(log n) per
// schedule/cancel/pop; at the 10k-host churn tier the heap is dominated
// by tens of thousands of live PeriodicTimer/OneShotTimer events, almost
// all of which are cancelled or re-armed before they fire. The wheel
// makes schedule and cancel O(1) and pop O(occupancy of one ~16 us
// bucket), while preserving the simulator's determinism contract to the
// byte: events still fire in strict global (deadline, sequence) order,
// with FIFO insertion order inside every bucket.
//
// Layout: 4 levels x 256 slots over 2^14 ns (~16.4 us) ticks. A timer
// whose tick shares the cursor's level-0 block (256 ticks) hangs off
// level 0 at slot `tick & 0xFF`; one sharing the level-1 block (2^16
// ticks) hangs off level 1 at slot `(tick >> 8) & 0xFF`; and so on. The
// four levels cover 2^32 ticks (~19.5 simulated hours); anything beyond
// parks in an overflow list. The cursor only moves when a wheel event is
// popped — and it jumps straight to the popped deadline's tick, cascading
// exactly the slots that cover it, because the popped event is the wheel
// minimum so every slot in between is provably empty. Per-level occupancy
// bitmaps make the min scan a handful of word scans, and the result is
// cached: an insert only compares against the cached minimum, so the scan
// runs once per departure of the minimum (extract, or remove of that
// node), not on every executor pop.
//
// Nodes are addressed by the owning Simulation's slab-slot index, so an
// EventId cancels identically whether its event lives here or on the
// heap. The wheel never allocates per event in steady state: its node
// array grows with the slab and buckets are intrusive doubly-linked
// lists.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/event_key.hpp"

namespace wav::sim {

class TimerWheel {
 public:
  /// Sentinel "no node" index (matches no valid slab slot).
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// One tick = 2^14 ns (~16.4 us): fine enough that a 10k-timer
  /// steady state leaves only a handful of nodes per bucket (the per-pop
  /// min scan is linear in bucket occupancy), with shift-only index
  /// arithmetic. Deadlines keep full ns precision — the tick only
  /// chooses the bucket, never the firing time.
  static constexpr unsigned kTickShift = 14;
  static constexpr unsigned kLevels = 4;
  static constexpr unsigned kSlotBits = 8;
  static constexpr unsigned kSlotsPerLevel = 1u << kSlotBits;  // 256

  /// Files `idx` (a slab-slot index) under its deadline's bucket.
  /// Requires `at` >= the last extracted deadline (the simulation clock
  /// is monotonic and schedule clamps to now, so this always holds).
  void insert(std::uint32_t idx, TimePoint at, std::uint64_t seq);

  /// O(1) unlink for cancel. `idx` must be queued here.
  void remove(std::uint32_t idx);

  /// Index of the earliest (deadline, seq) timer, or kNil when empty.
  /// Never advances the cursor or cascades; rescans only when the cached
  /// minimum has left the wheel.
  [[nodiscard]] std::uint32_t peek_min();

  /// Firing key of queued node `idx`.
  [[nodiscard]] const EventKey& key(std::uint32_t idx) const { return nodes_[idx].key; }

  /// Removes `idx` — which must be the current peek_min() — and advances
  /// the cursor to its tick, cascading the covering higher-level slots.
  void extract(std::uint32_t idx);

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Introspection for tests.
  [[nodiscard]] std::uint64_t cursor_tick() const noexcept { return cursor_; }
  [[nodiscard]] std::size_t overflow_size() const noexcept { return overflow_count_; }
  [[nodiscard]] static std::uint64_t tick_of(TimePoint at) noexcept {
    return static_cast<std::uint64_t>(at.since_start.count()) >> kTickShift;
  }

 private:
  /// Bucket id: level * 256 + slot; two sentinels for "overflow list" and
  /// "not queued".
  static constexpr std::uint16_t kOverflowBucket = 0xFFFE;
  static constexpr std::uint16_t kUnqueued = 0xFFFF;

  struct Node {
    EventKey key;
    std::uint32_t prev{kNil};
    std::uint32_t next{kNil};
    std::uint16_t bucket{kUnqueued};
  };

  struct BucketList {
    std::uint32_t head{kNil};
    std::uint32_t tail{kNil};
  };

  void place(std::uint32_t idx);
  void link(std::uint16_t bucket, std::uint32_t idx);
  void unlink(std::uint32_t idx);
  /// Re-files every node of `buckets_[level][slot]` relative to the
  /// (already advanced) cursor, preserving FIFO order.
  void cascade(unsigned level, unsigned slot);
  /// Re-files overflow nodes after the cursor entered a new level-3 block.
  void refill_overflow();
  void advance_to(std::uint64_t tick);

  [[nodiscard]] int next_occupied(unsigned level, unsigned from) const;
  [[nodiscard]] std::uint32_t list_min(const BucketList& list) const;
  [[nodiscard]] std::uint32_t scan_min() const;

  [[nodiscard]] BucketList& bucket_list(std::uint16_t bucket) {
    return bucket == kOverflowBucket
               ? overflow_
               : buckets_[static_cast<std::size_t>(bucket)];
  }

  std::vector<Node> nodes_;  // parallel to the Simulation slab; grows with it
  std::array<BucketList, kLevels * kSlotsPerLevel> buckets_{};
  BucketList overflow_{};
  /// Per-level slot occupancy, 256 bits each.
  std::array<std::array<std::uint64_t, kSlotsPerLevel / 64>, kLevels> bitmap_{};
  std::uint64_t cursor_{0};
  std::size_t count_{0};
  std::size_t overflow_count_{0};
  /// Cached peek_min() result; valid only while min_known_.
  std::uint32_t min_{kNil};
  bool min_known_{true};
};

}  // namespace wav::sim
