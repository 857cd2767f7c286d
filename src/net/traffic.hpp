// Background cross-traffic: a source pumping packets at a target rate toward
// a sink, optionally on/off bursty. Used to congest switches in experiments.
#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace softqos::net {

struct TrafficConfig {
  double bytesPerSecond = 10e6;
  std::int64_t packetBytes = 1500;
  bool onOff = false;                          // bursty on/off pattern
  sim::SimDuration onMean = sim::msec(500);    // mean burst length
  sim::SimDuration offMean = sim::msec(500);   // mean silence length
};

/// Absorbs every packet addressed to it.
class TrafficSink : public NetNode {
 public:
  TrafficSink(Network& network, std::string name);

  void onPacket(Packet&& packet) override;

  [[nodiscard]] std::int64_t bytesReceived() const { return bytes_; }
  [[nodiscard]] std::uint64_t packetsReceived() const { return packets_; }

 private:
  std::int64_t bytes_ = 0;
  std::uint64_t packets_ = 0;
};

/// Generates packets with exponential inter-departure gaps averaging the
/// configured rate. start()/stop() let experiments inject congestion steps.
class TrafficSource : public NetNode {
 public:
  TrafficSource(Network& network, std::string name, TrafficConfig config);
  ~TrafficSource() override;

  void onPacket(Packet&& /*packet*/) override {}  // sources don't sink traffic

  void start(NodeId destination);
  void stop();
  [[nodiscard]] bool running() const { return event_ != sim::kInvalidEvent; }

  /// Change the average rate (takes effect on the next departure, or on the
  /// next start() when stopped).
  void setRate(double bytesPerSecond) { config_.bytesPerSecond = bytesPerSecond; }
  [[nodiscard]] double rate() const { return config_.bytesPerSecond; }

  [[nodiscard]] std::uint64_t packetsSent() const { return sent_; }

 private:
  void emitNext();
  [[nodiscard]] sim::SimDuration meanGap() const;

  TrafficConfig config_;
  sim::RandomStream rng_;
  NodeId dest_ = kNoNode;
  sim::EventId event_ = sim::kInvalidEvent;
  bool inBurst_ = true;
  sim::SimTime phaseEndsAt_ = 0;
  std::uint64_t sent_ = 0;
};

}  // namespace softqos::net
