// A unidirectional channel: drop-tail output queue + serialization at link
// bandwidth + propagation delay. Two channels back-to-back form a duplex link.
#pragma once

#include <cstdint>
#include <deque>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace softqos::net {

class NetNode;

struct ChannelConfig {
  double bytesPerSecond = 12.5e6;                 // 100 Mbit/s
  sim::SimDuration propagationDelay = sim::usec(100);
  std::int64_t queueCapacityBytes = 512 * 1024;   // drop-tail
};

/// Injected link impairment (see faults/FaultInjector). `down` models a cable
/// cut / partition: every enqueued packet is dropped while routing still
/// points at the link, exactly like a real partition before protocols react.
/// Loss and corruption draw from the injector's seeded random stream, so the
/// same seed produces the same packet fates.
struct LinkFaultProfile {
  bool down = false;
  double lossRate = 0.0;                   // [0,1] per-packet drop probability
  double corruptRate = 0.0;                // [0,1] per-packet corruption
  sim::SimDuration extraDelay = 0;         // added propagation latency
  [[nodiscard]] bool degraded() const {
    return down || lossRate > 0.0 || corruptRate > 0.0 || extraDelay > 0;
  }
};

class Channel {
 public:
  Channel(sim::Simulation& simulation, NetNode& to, ChannelConfig config);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueue for transmission; drops (and counts) when the queue is full.
  /// An idle transmitter takes the packet straight off the caller.
  void enqueue(Packet&& packet);

  /// Install/replace the fault profile. `random` supplies the loss and
  /// corruption draws; it must outlive the profile (the FaultInjector owns
  /// it) and is only consulted while lossRate/corruptRate are non-zero, so
  /// an un-faulted channel never draws randomness. Pass a default profile
  /// (and nullptr) to clear.
  void setFaultProfile(LinkFaultProfile profile, sim::RandomStream* random);
  [[nodiscard]] const LinkFaultProfile& faultProfile() const { return fault_; }

  // ---- Observables the QoS Domain Manager inspects for congestion ----
  [[nodiscard]] std::int64_t queuedBytes() const { return queuedBytes_; }
  [[nodiscard]] std::size_t queuedPackets() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::int64_t bytesSent() const { return bytesSent_; }
  [[nodiscard]] std::uint64_t packetsSent() const { return packetsSent_; }

  // ---- Fault-injection accounting (monotone) ----
  [[nodiscard]] std::uint64_t faultDrops() const { return faultDrops_; }
  [[nodiscard]] std::uint64_t faultCorruptions() const { return faultCorruptions_; }

  /// Fraction of wall time the transmitter has been busy since start.
  [[nodiscard]] double utilization() const;

  /// Utilization over a recent window: (busy in window)/(window length).
  /// The window restarts whenever this is called (manager polling cadence).
  double utilizationSinceLastPoll();

  [[nodiscard]] const ChannelConfig& config() const { return config_; }

 private:
  /// Start serializing inFlight_: the event that ends it captures only
  /// `this`, never the packet.
  void transmit();
  /// Serialization finished: hand inFlight_ to the wire, start the next.
  void onSerialized();

  sim::Simulation& sim_;
  NetNode& to_;
  ChannelConfig config_;
  std::deque<Packet> queue_;
  std::int64_t queuedBytes_ = 0;
  bool transmitting_ = false;
  Packet inFlight_;  // the packet being serialized while transmitting_
  LinkFaultProfile fault_;
  sim::RandomStream* faultRandom_ = nullptr;
  std::uint64_t faultDrops_ = 0;
  std::uint64_t faultCorruptions_ = 0;
  std::uint64_t drops_ = 0;
  std::int64_t bytesSent_ = 0;
  std::uint64_t packetsSent_ = 0;
  sim::SimDuration busyTime_ = 0;
  sim::SimDuration busyAtLastPoll_ = 0;
  sim::SimTime lastPollAt_ = 0;
};

}  // namespace softqos::net
