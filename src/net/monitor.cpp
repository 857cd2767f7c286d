#include "net/monitor.hpp"

#include <algorithm>

#include "net/node.hpp"

namespace softqos::net {

void ChannelMonitor::arm(sim::SimDuration interval) {
  sim::Simulation& sim = network_.sim();
  consumerShard_ = sim.currentShard();

  // Samples must survive a cross-shard hop, so they are published at least
  // one lookahead into the future; the channel's own propagation delay is
  // the natural floor when the run is serial (lookahead 0). The delay is a
  // function of topology + shard layout only — identical across worker
  // counts, which keeps sharded runs byte-identical to one-worker runs.
  publishDelay_ = std::max(network_.minPropagation(), sim.lookahead());
  if (publishDelay_ == 0) publishDelay_ = interval;

  // Channel poll state belongs to the sender node's shard: group the
  // channels by owner and plant one periodic probe per owning shard.
  std::map<sim::ShardId, std::vector<Probed>> byShard;
  for (const auto& [key, channel] : network_.channels()) {
    NetNode* owner = network_.node(key.first);
    byShard[owner == nullptr ? 0 : owner->shard()].push_back(
        Probed{key, channel.get()});
  }
  for (auto& [shard, channels] : byShard) {
    sim::ShardScope scope(sim, shard);
    sim.every(interval,
              [this, channels = std::move(channels)] { probe(channels); });
  }
}

void ChannelMonitor::probe(const std::vector<Probed>& channels) {
  // Key-ordered sweep with a strict max: the shard-local fragment of the
  // legacy fabric-wide argmax.
  double maxUtil = 0.0;
  std::pair<NodeId, NodeId> hottest{kNoNode, kNoNode};
  for (const Probed& probed : channels) {
    const double util = probed.channel->utilizationSinceLastPoll();
    if (util > maxUtil) {
      maxUtil = util;
      hottest = probed.key;
    }
  }
  sim::Simulation& sim = network_.sim();
  const sim::SimTime sampled = sim.now();
  sim.postToShard(consumerShard_, sampled + publishDelay_,
                  [this, sampled, maxUtil, hottest] {
                    receive(sampled, maxUtil, hottest);
                  });
}

void ChannelMonitor::receive(sim::SimTime sampleTime, double util,
                             std::pair<NodeId, NodeId> key) {
  ++published_;  // counted on the consumer shard: probes run concurrently
  if (sampleTime > lastSampleTime_) {
    // First fragment of a new probe round: previous round's view is replaced
    // wholesale (utilization is a since-last-poll quantity, not cumulative).
    lastSampleTime_ = sampleTime;
    maxUtil_ = util;
    hottest_ = key;
    return;
  }
  // Same round, another shard's fragment. The earliest-key tie-break makes
  // the combination order-independent and equal to a key-ordered full sweep.
  if (util > maxUtil_ || (util == maxUtil_ && key < hottest_)) {
    maxUtil_ = util;
    hottest_ = key;
  }
}

}  // namespace softqos::net
