// Shard-safe channel utilization monitoring.
//
// The legacy Domain Manager samples every channel's utilization inline while
// diagnosing an escalation. That read is only safe when the whole fabric
// lives on one shard: Channel::utilizationSinceLastPoll() mutates per-channel
// poll state owned by the sender node's shard, so a fabric-wide sweep from a
// multi-worker run is a data race. ChannelMonitor replaces the sweep with the
// windowed engine's own discipline: each shard probes the channels it owns on
// a fixed period (from a Simulation::every event placed on that shard) and
// posts its shard-local maximum to the monitor's consumer shard with a delay
// of at least the lookahead — an ordinary cross-shard message, so the
// conservative window protocol orders it deterministically. The consumer
// combines per-shard maxima with an earliest-key tie-break, reproducing
// exactly the argmax the legacy key-ordered sweep would have found one
// publish delay earlier.
//
// Determinism: probe times, publish delays, and merge order are functions of
// the topology and the shard layout only — never of worker count — so runs
// with 1, 2, or 4 workers over the same shard layout see identical samples.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace softqos::net {

class ChannelMonitor {
 public:
  explicit ChannelMonitor(Network& network) : network_(network) {}

  ChannelMonitor(const ChannelMonitor&) = delete;
  ChannelMonitor& operator=(const ChannelMonitor&) = delete;

  /// Start probing every `interval`. Must be called after every link exists,
  /// from the shard that will consume the samples (the domain manager's
  /// seat); the monitor must then outlive the run — probe events capture it.
  void arm(sim::SimDuration interval);

  /// Latest combined view (one publish delay behind the probes, the price of
  /// shard safety). Zero / kNoNode before the first samples arrive.
  [[nodiscard]] double maxUtilization() const { return maxUtil_; }
  [[nodiscard]] std::pair<NodeId, NodeId> hottest() const { return hottest_; }

  /// Per-shard sample fragments delivered to the consumer shard.
  [[nodiscard]] std::uint64_t samplesPublished() const { return published_; }
  [[nodiscard]] sim::SimDuration publishDelay() const { return publishDelay_; }

 private:
  /// A monitored channel, resolved once by arm().
  struct Probed {
    std::pair<NodeId, NodeId> key;
    Channel* channel;
  };

  /// One probe round on the calling shard: sample the owned channels in key
  /// order, keep the strict maximum, post it to the consumer shard.
  void probe(const std::vector<Probed>& channels);
  void receive(sim::SimTime sampleTime, double util,
               std::pair<NodeId, NodeId> key);

  Network& network_;
  sim::ShardId consumerShard_ = 0;
  sim::SimDuration publishDelay_ = 0;
  double maxUtil_ = 0.0;
  std::pair<NodeId, NodeId> hottest_{kNoNode, kNoNode};
  sim::SimTime lastSampleTime_ = -1;
  std::uint64_t published_ = 0;
};

}  // namespace softqos::net
