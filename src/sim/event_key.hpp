// The firing-order key of a scheduled event: its deadline, then the
// global sequence number it took when it was scheduled. Sequence numbers
// are unique, so the order is strict and total. Every event store — the
// heap, the timer wheel and the delay lines — orders by this key, and the
// executor merges the stores by it.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace wav::sim {

struct EventKey {
  TimePoint at{};
  std::uint64_t seq{0};

  [[nodiscard]] friend bool operator<(const EventKey& a, const EventKey& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
};

}  // namespace wav::sim
