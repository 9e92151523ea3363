#include "fabric/internet.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"
#include "fabric/network.hpp"
#include "obs/flow.hpp"
#include "obs/profiler.hpp"

namespace wav::fabric {

namespace {

void note_flow_drop(sim::Simulation& sim, const net::IpPacket& pkt,
                    const std::string& instance, obs::DropReason reason) {
  if (const net::FlowContext* fc = obs::flow_of(pkt)) {
    sim.flows().dropped(*fc, obs::HopComponent::kInternet, instance, reason);
  }
}

}  // namespace

InternetNode::InternetNode(Network& network, std::string name)
    : Node(network, std::move(name)),
      departures_(sim(), [this](Departure&& d) { transmit(*d.out, std::move(d.pkt)); }) {
  c_partition_drops_ = &sim().metrics().counter("internet.partition_drops", this->name());
}

void InternetNode::set_path(std::size_t iface_a, std::size_t iface_b, PathSpec spec) {
  paths_[key(iface_a, iface_b)] = spec;
}

void InternetNode::set_blocked(std::size_t iface_a, std::size_t iface_b, bool blocked) {
  if (blocked) {
    blocked_pairs_.insert(key(iface_a, iface_b));
  } else {
    blocked_pairs_.erase(key(iface_a, iface_b));
  }
}

PathSpec InternetNode::path(std::size_t iface_a, std::size_t iface_b) const {
  const auto it = paths_.find(key(iface_a, iface_b));
  return it == paths_.end() ? PathSpec{} : it->second;
}

std::size_t InternetNode::iface_index_of(const Link& link) {
  const auto& ifaces = interfaces();
  if (iface_by_link_.size() != ifaces.size()) {
    iface_by_link_.clear();
    iface_by_link_.reserve(ifaces.size());
    for (std::size_t i = 0; i < ifaces.size(); ++i) {
      iface_by_link_.emplace(ifaces[i].link, i);
    }
  }
  const auto it = iface_by_link_.find(&link);
  assert(it != iface_by_link_.end() && "packet arrived over an unattached link");
  return it == iface_by_link_.end() ? 0 : it->second;
}

void InternetNode::forward(net::IpPacket pkt, Link& from) {
  if (pkt.ttl <= 1) {
    ++stats_.dropped_ttl;
    note_flow_drop(sim(), pkt, name(), obs::DropReason::kTtlExpired);
    return;
  }
  pkt.ttl = static_cast<std::uint8_t>(pkt.ttl - 1);

  const Interface* out = route_lookup(pkt.dst);
  if (out == nullptr) {
    ++stats_.dropped_no_route;
    note_flow_drop(sim(), pkt, name(), obs::DropReason::kNoRoute);
    log::trace("internet", "unroutable dst {}", pkt.dst.to_string());
    return;
  }
  const std::size_t in_idx = iface_index_of(from);
  // route_lookup returns a pointer into the contiguous interface table,
  // so the index is pointer arithmetic, not a scan.
  const std::size_t out_idx =
      static_cast<std::size_t>(out - interfaces().data());

  if (blocked_pairs_.contains(key(in_idx, out_idx))) {
    ++partition_drops_;
    c_partition_drops_->inc();
    note_flow_drop(sim(), pkt, name(), obs::DropReason::kPartition);
    return;
  }

  const PathSpec spec = path(in_idx, out_idx);
  if (spec.loss_probability > 0.0 && sim().rng().chance(spec.loss_probability)) {
    note_flow_drop(sim(), pkt, name(), obs::DropReason::kWireLoss);
    return;
  }

  Duration extra = spec.one_way;
  if (spec.jitter_stddev > kZeroDuration) {
    const double jitter_s = sim().rng().normal(0.0, to_seconds(spec.jitter_stddev));
    extra = seconds_f(std::max(0.0, to_seconds(extra) + jitter_s));
  }

  ++stats_.forwarded;
  if (extra <= kZeroDuration) {
    transmit(*out, std::move(pkt));
    return;
  }
  // FIFO clamp: jittered core delay must not reorder a directed flow.
  const std::uint64_t dir_key = (static_cast<std::uint64_t>(in_idx) << 32) | out_idx;
  Direction& dir = directions_[dir_key];
  const TimePoint depart = std::max(sim().now() + extra, dir.last_depart);
  dir.last_depart = depart;
  departures_.push(dir.held, depart, WAV_PROF_CATEGORY("internet", "forward"),
                   Departure{out, std::move(pkt)});
}

}  // namespace wav::fabric
