#include "fabric/link.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "fabric/node.hpp"
#include "obs/flow.hpp"
#include "obs/profiler.hpp"

namespace wav::fabric {

namespace {

/// Wire-level drop attribution: links never add hops for forwarded
/// packets (they are pure delay), but a sampled flow must learn where a
/// packet died.
void note_flow_drop(sim::Simulation& sim, const net::IpPacket& pkt,
                    const Node& from, const Node& dest, obs::DropReason reason) {
  if (const net::FlowContext* fc = obs::flow_of(pkt)) {
    sim.flows().dropped(*fc, obs::HopComponent::kLink,
                        from.name() + ">" + dest.name(), reason);
  }
}

}  // namespace

Link::Link(sim::Simulation& sim, Node& a, Node& b, LinkConfig config)
    : sim_(sim), a_(&a), b_(&b), config_(config) {}

Link::~Link() {
  // Pending burst flushes capture `this`; they must not outlive the link.
  if (toward_a_.flush_event.valid()) sim_.cancel(toward_a_.flush_event);
  if (toward_b_.flush_event.valid()) sim_.cancel(toward_b_.flush_event);
}

Node& Link::peer(const Node& n) const {
  assert(has_endpoint(n));
  return &n == a_ ? *b_ : *a_;
}

void Link::set_up() noexcept {
  if (!down_) return;
  down_ = false;
  // A revived port starts with an empty transmit queue: the analytic
  // backlog accumulated before the cut must not delay post-heal traffic.
  const TimePoint now = sim_.now();
  toward_a_.busy_until = std::min(toward_a_.busy_until, now);
  toward_b_.busy_until = std::min(toward_b_.busy_until, now);
}

void Link::transmit(const Node& from, net::IpPacket pkt) {
  assert(has_endpoint(from));
  if (down_) {
    ++stats_.dropped_down;
    note_flow_drop(sim_, pkt, from, peer(from), obs::DropReason::kLinkDown);
    return;
  }
  DirectionState& dir = (&from == a_) ? toward_b_ : toward_a_;
  Node& dest = peer(from);

  const TimePoint now = sim_.now();
  const std::uint64_t size = pkt.wire_size();

  // Drop-tail queue: refuse packets whose queueing delay would exceed the
  // backlog bound.
  const TimePoint start = std::max(now, dir.busy_until);
  if (start - now > config_.max_backlog) {
    ++stats_.dropped_queue;
    note_flow_drop(sim_, pkt, from, dest, obs::DropReason::kLinkQueue);
    log::trace("link", "queue drop {} -> {} ({} B)", from.name(), dest.name(), size);
    return;
  }
  const Duration tx_time = config_.rate.transmit_time(size);
  dir.busy_until = start + tx_time;

  // Random wire loss (applied after consuming serialization time, like a
  // corrupted frame on a real wire).
  if (config_.loss_probability > 0.0 && sim_.rng().chance(config_.loss_probability)) {
    ++stats_.dropped_loss;
    note_flow_drop(sim_, pkt, from, dest, obs::DropReason::kWireLoss);
    return;
  }

  Duration delay = config_.delay;
  if (config_.jitter_stddev > kZeroDuration) {
    const double jitter_s =
        sim_.rng().normal(0.0, to_seconds(config_.jitter_stddev));
    delay += seconds_f(std::max(0.0, to_seconds(delay) + jitter_s)) - delay;
  }

  // Jitter varies delay but a link is a FIFO pipe: clamp arrivals to be
  // monotonic so jitter never reorders packets within the direction.
  const TimePoint arrival = std::max(dir.busy_until + delay, dir.last_arrival);
  dir.last_arrival = arrival;
  ++stats_.delivered_packets;
  stats_.delivered_bytes += size;

  if (config_.batch_window > kZeroDuration) {
    enqueue_burst(dir, dest, arrival, std::move(pkt));
    return;
  }
  auto deliver = [this, &dest, pkt = std::move(pkt)]() mutable {
    dest.receive_from_link(std::move(pkt), *this);
  };
  static_assert(sim::EventCallback::fits_inline<decltype(deliver)>);
  sim_.schedule_at(arrival, WAV_PROF_CATEGORY("link", "deliver"), std::move(deliver));
}

void Link::enqueue_burst(DirectionState& dir, Node& dest, TimePoint arrival,
                         net::IpPacket pkt) {
  if (dir.burst.empty()) {
    // One timer per burst, opened by the first packet: the flush fires a
    // batch window after that packet's arrival and hands over every
    // packet whose arrival falls inside the window.
    dir.flush_event =
        sim_.schedule_at(arrival + config_.batch_window,
                         WAV_PROF_CATEGORY("link", "deliver_burst"),
                         [this, &dir, &dest] { flush_burst(dir, dest); });
  }
  dir.burst.push_back(DirectionState::Pending{arrival, std::move(pkt)});
}

void Link::flush_burst(DirectionState& dir, Node& dest) {
  dir.flush_event = sim::EventId{};
  // Deliver the FIFO prefix that has arrived by now; later packets (the
  // analytic queue can stretch arrivals well past the window) stay and
  // re-open a burst anchored to the first of them. The prefix moves out
  // before any receive runs, so receivers may transmit back into this
  // link reentrantly.
  const TimePoint now = sim_.now();
  std::size_t ready = 0;
  while (ready < dir.burst.size() && dir.burst[ready].arrival <= now) ++ready;
  std::vector<DirectionState::Pending> prefix;
  prefix.reserve(ready);
  std::move(dir.burst.begin(), dir.burst.begin() + static_cast<std::ptrdiff_t>(ready),
            std::back_inserter(prefix));
  dir.burst.erase(dir.burst.begin(),
                  dir.burst.begin() + static_cast<std::ptrdiff_t>(ready));
  if (!dir.burst.empty()) {
    dir.flush_event =
        sim_.schedule_at(dir.burst.front().arrival + config_.batch_window,
                         WAV_PROF_CATEGORY("link", "deliver_burst"),
                         [this, &dir, &dest] { flush_burst(dir, dest); });
  }
  ++stats_.bursts_delivered;
  stats_.max_burst_packets = std::max(stats_.max_burst_packets,
                                      static_cast<std::uint64_t>(prefix.size()));
  for (DirectionState::Pending& p : prefix) {
    dest.receive_from_link(std::move(p.pkt), *this);
  }
}

}  // namespace wav::fabric
