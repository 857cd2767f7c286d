#include "net/traffic.hpp"

#include <utility>

#include "net/network.hpp"

namespace softqos::net {

TrafficSink::TrafficSink(Network& network, std::string name)
    : NetNode(network, std::move(name)) {}

void TrafficSink::onPacket(Packet&& packet) {
  bytes_ += packet.bytes;
  ++packets_;
}

TrafficSource::TrafficSource(Network& network, std::string name,
                             TrafficConfig config)
    : NetNode(network, std::move(name)),
      config_(config),
      rng_(network.sim().stream("traffic:" + this->name())) {}

TrafficSource::~TrafficSource() { stop(); }

void TrafficSource::start(NodeId destination) {
  stop();
  dest_ = destination;
  inBurst_ = true;
  phaseEndsAt_ =
      network_.sim().now() +
      (config_.onOff ? rng_.expGap(config_.onMean) : sim::sec(1) * 1000000);
  emitNext();  // emits immediately; arms the recurring pacing timer
}

void TrafficSource::stop() {
  if (event_ == sim::kInvalidEvent) return;
  network_.sim().cancel(event_);
  event_ = sim::kInvalidEvent;
}

sim::SimDuration TrafficSource::meanGap() const {
  const double gapSec =
      static_cast<double>(config_.packetBytes) / config_.bytesPerSecond;
  return std::max<sim::SimDuration>(1, sim::fromSeconds(gapSec));
}

void TrafficSource::emitNext() {
  sim::Simulation& s = network_.sim();
  if (config_.onOff && s.now() >= phaseEndsAt_) {
    inBurst_ = !inBurst_;
    phaseEndsAt_ =
        s.now() + rng_.expGap(inBurst_ ? config_.onMean : config_.offMean);
  }
  if (inBurst_) {
    Packet p;
    p.src = id();
    p.dst = dest_;
    p.bytes = config_.packetBytes;
    p.messageBytes = config_.packetBytes;
    p.messageId = 0;  // cross traffic is never reassembled
    network_.forward(id(), std::move(p));
    ++sent_;
  }
  // One recurring event paces the whole stream: each emission re-times the
  // next occurrence by a fresh exponential gap instead of allocating a new
  // closure per packet.
  const sim::SimDuration gap = rng_.expGap(meanGap());
  if (event_ == sim::kInvalidEvent) {
    event_ = s.every(gap, [this] { emitNext(); });
  } else {
    s.reschedule(event_, gap);
  }
}

}  // namespace softqos::net
