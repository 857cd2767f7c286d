#include "net/channel.hpp"

#include <algorithm>
#include <utility>

#include "net/node.hpp"

namespace softqos::net {

Channel::Channel(sim::Simulation& simulation, NetNode& to, ChannelConfig config)
    : sim_(simulation), to_(to), config_(config) {}

void Channel::setFaultProfile(LinkFaultProfile profile,
                              sim::RandomStream* random) {
  fault_ = profile;
  faultRandom_ = random;
}

void Channel::enqueue(Packet&& packet) {
  if (fault_.down) {
    ++faultDrops_;
    return;
  }
  if (fault_.lossRate > 0.0 && faultRandom_ != nullptr &&
      faultRandom_->chance(fault_.lossRate)) {
    ++faultDrops_;
    return;
  }
  if (fault_.corruptRate > 0.0 && faultRandom_ != nullptr &&
      faultRandom_->chance(fault_.corruptRate)) {
    ++faultCorruptions_;
    packet.corrupted = true;
  }
  if (queuedBytes_ + packet.bytes > config_.queueCapacityBytes) {
    ++drops_;
    return;
  }
  if (transmitting_) {
    queuedBytes_ += packet.bytes;
    queue_.push_back(std::move(packet));
    return;
  }
  inFlight_ = std::move(packet);
  transmit();
}

void Channel::transmit() {
  transmitting_ = true;
  const double serializeSec =
      static_cast<double>(inFlight_.bytes) / config_.bytesPerSecond;
  const sim::SimDuration serialize =
      std::max<sim::SimDuration>(1, sim::fromSeconds(serializeSec));
  busyTime_ += serialize;
  bytesSent_ += inFlight_.bytes;
  ++packetsSent_;
  sim_.after(serialize, [this] { onSerialized(); });
}

void Channel::onSerialized() {
  // The wire is free for the next packet while this one propagates.
  // Delivery lands on the destination node's shard: the flight time is >=
  // the configured lookahead for any cross-shard link, so the post always
  // respects the conservative window. A channel's own state (queue,
  // transmitter, in-flight packet) stays on the sender's shard.
  transmitting_ = false;
  const sim::SimDuration flight = config_.propagationDelay + fault_.extraDelay;
  NetNode* dst = &to_;
  sim_.postToShard(to_.shard(), sim_.now() + flight,
                   [dst, p = std::move(inFlight_)]() mutable {
                     dst->onPacket(std::move(p));
                   });
  if (queue_.empty()) return;
  inFlight_ = std::move(queue_.front());
  queue_.pop_front();
  queuedBytes_ -= inFlight_.bytes;
  transmit();
}

double Channel::utilization() const {
  const sim::SimTime elapsed = sim_.now();
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busyTime_) / static_cast<double>(elapsed);
}

double Channel::utilizationSinceLastPoll() {
  const sim::SimTime now = sim_.now();
  const sim::SimDuration window = now - lastPollAt_;
  const sim::SimDuration busy = busyTime_ - busyAtLastPoll_;
  lastPollAt_ = now;
  busyAtLastPoll_ = busyTime_;
  if (window <= 0) return 0.0;
  return std::min(1.0, static_cast<double>(busy) / static_cast<double>(window));
}

}  // namespace softqos::net
