#include "fabric/link.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

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

  auto deliver = [this, &dest, pkt = std::move(pkt)]() mutable {
    dest.receive_from_link(std::move(pkt), *this);
  };
  static_assert(sim::EventCallback::fits_inline<decltype(deliver)>);
  sim_.schedule_at(arrival, WAV_PROF_CATEGORY("link", "deliver"), std::move(deliver));
}

}  // namespace wav::fabric
