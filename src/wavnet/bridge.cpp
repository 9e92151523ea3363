#include "wavnet/bridge.hpp"

#include <algorithm>

#include "obs/profiler.hpp"

namespace wav::wavnet {

BridgePort::~BridgePort() {
  if (bridge_ != nullptr) bridge_->detach(*this);
}

void BridgePort::inject_to_bridge(const net::EthernetFrame& frame) {
  if (bridge_ != nullptr) bridge_->inject(this, frame);
}

SoftwareBridge::SoftwareBridge(sim::Simulation& sim, Duration fdb_ttl, Duration latency)
    : sim_(sim), fdb_ttl_(fdb_ttl), latency_(latency) {
  obs::MetricsRegistry& reg = sim_.metrics();
  instance_ = "bridge#" + std::to_string(reg.next_instance_id("bridge"));
  c_forwarded_ = &reg.counter("bridge.frames_forwarded", instance_);
  c_flooded_ = &reg.counter("bridge.frames_flooded", instance_);
}

SoftwareBridge::~SoftwareBridge() {
  for (BridgePort* port : ports_) port->bridge_ = nullptr;
  for (BridgePort* port : monitors_) port->bridge_ = nullptr;
}

void SoftwareBridge::attach(BridgePort& port) {
  if (port.bridge_ == this) return;
  if (port.bridge_ != nullptr) port.bridge_->detach(port);
  port.bridge_ = this;
  ports_.push_back(&port);
}

void SoftwareBridge::attach_monitor(BridgePort& port) {
  if (port.bridge_ != nullptr) port.bridge_->detach(port);
  port.bridge_ = this;
  monitors_.push_back(&port);
}

void SoftwareBridge::detach_monitor(BridgePort& port) { detach(port); }

void SoftwareBridge::detach(BridgePort& port) {
  if (port.bridge_ != this) return;
  port.bridge_ = nullptr;
  std::erase(ports_, &port);
  std::erase(monitors_, &port);
  fdb_.erase_if(
      [&port](const MacTable<BridgePort*>::Entry& e) { return e.value == &port; });
}

void SoftwareBridge::inject(BridgePort* from, const net::EthernetFrame& frame) {
  // Forwarding is decoupled from the caller's stack via the event queue:
  // two stacks on one bridge would otherwise recurse synchronously
  // (segment -> ACK -> segment -> ...) without bound.
  // Capture a non-const copy: a const member would make the closure
  // copy (not move) the frame on every relocation, and throwing copies
  // keep it out of EventCallback's inline buffer.
  auto forward = [this, from, frame = net::EthernetFrame(frame)] {
    forward_now(from, frame);
  };
  static_assert(sim::EventCallback::fits_inline<decltype(forward)>);
  sim_.schedule_after(latency_, WAV_PROF_CATEGORY("bridge", "forward_event"),
                      std::move(forward));
}

void SoftwareBridge::forward_now(BridgePort* from, const net::EthernetFrame& frame) {
  WAV_PROF_SCOPE("bridge", "forward");
  const TimePoint now = sim_.now();
  // The source port may have been detached while the frame was in flight.
  if (from != nullptr && std::find(ports_.begin(), ports_.end(), from) == ports_.end()) {
    from = nullptr;
  }
  for (BridgePort* monitor : monitors_) monitor->deliver(frame);

  // Learn (and keep refreshed) the source MAC's port. A frame arriving
  // from a *different* port moves the entry — this is what makes the
  // gratuitous ARP after VM migration redirect traffic instantly.
  if (from != nullptr && !frame.src.is_multicast() && !frame.src.is_zero()) {
    fdb_.learn(frame.src, from, now);
  }

  // Flow-trace hop: the inject->forward_now gap is the bridge's queue delay.
  if (frame.flow.id != 0) {
    sim_.flows().forwarded(frame.flow, obs::HopComponent::kBridge, instance_,
                           latency_);
  }

  auto deliver_to = [&](BridgePort* port) {
    if (port != from) port->deliver(frame);
  };

  if (!frame.dst.is_broadcast() && !frame.dst.is_multicast()) {
    if (const auto* e = fdb_.find(frame.dst); e != nullptr) {
      if (now - e->learned <= fdb_ttl_) {
        c_forwarded_->inc();
        deliver_to(e->value);
        return;
      }
      // Lazy TTL expiry: stale entries are erased on lookup so the table
      // never accumulates dead MACs (same policy as the WAV-Switch FDB).
      fdb_.erase(frame.dst);
    }
  }
  c_flooded_->inc();
  // Iterate over a copy: delivery may re-enter and mutate the port list.
  const std::vector<BridgePort*> snapshot = ports_;
  for (BridgePort* port : snapshot) deliver_to(port);
}

bool VirtualNic::transmit(const net::EthernetFrame& frame) {
  if (bridge() == nullptr || !enabled_) return false;
  inject_to_bridge(frame);
  return true;
}

void VirtualNic::deliver(const net::EthernetFrame& frame) {
  if (!enabled_) return;
  const bool for_me =
      promiscuous_ || frame.dst == mac_ || frame.dst.is_broadcast() || frame.dst.is_multicast();
  if (for_me && on_frame_) on_frame_(frame);
}

}  // namespace wav::wavnet
