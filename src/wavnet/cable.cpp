#include "wavnet/cable.hpp"

namespace wav::wavnet {

BridgeCable::BridgeCable(sim::Simulation& sim, SoftwareBridge& a, SoftwareBridge& b)
    : BridgeCable(sim, a, b, Config{}) {}

BridgeCable::BridgeCable(sim::Simulation& sim, SoftwareBridge& a, SoftwareBridge& b,
                         Config config)
    : sim_(sim), config_(config), port_a_(*this, true), port_b_(*this, false) {
  a.attach(port_a_);
  b.attach(port_b_);
}

void BridgeCable::transmit(bool toward_b, const net::EthernetFrame& frame) {
  TimePoint& busy = toward_b ? busy_toward_b_ : busy_toward_a_;
  const TimePoint now = sim_.now();
  const TimePoint start = std::max(now, busy);
  if (start - now > config_.max_backlog) return;
  busy = start + config_.rate.transmit_time(frame.wire_size());

  Port& out = toward_b ? port_b_ : port_a_;
  auto deliver = [&out, frame = net::EthernetFrame(frame)] {
    // Inject into the far bridge as traffic entering through this port.
    if (out.bridge() != nullptr) out.bridge()->inject(&out, frame);
  };
  static_assert(sim::EventCallback::fits_inline<decltype(deliver)>);
  sim_.schedule_at(busy + config_.delay, std::move(deliver));
}

}  // namespace wav::wavnet
