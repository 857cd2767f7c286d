// Base class for anything attached to the network graph.
#pragma once

#include <string>

#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace softqos::net {

class Network;

class NetNode {
 public:
  NetNode(Network& network, std::string name);
  virtual ~NetNode() = default;

  NetNode(const NetNode&) = delete;
  NetNode& operator=(const NetNode&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Network& network() { return network_; }

  /// A packet arrived over an attached channel. The packet stays owned by
  /// the delivering event; a node that keeps or forwards it moves from it.
  virtual void onPacket(Packet&& packet) = 0;

  /// True for nodes that transit other nodes' traffic (switches). Routing
  /// never sends a path *through* a non-forwarding node (hosts, sources,
  /// sinks terminate traffic, they do not route it).
  [[nodiscard]] virtual bool forwards() const { return false; }

  /// Shard this node's events execute on. Captured from the simulation's
  /// current shard at construction (so components built under a ShardScope
  /// land there); may be reassigned with setShard() before the first run.
  /// Channels deliver packets onto the destination node's shard.
  [[nodiscard]] sim::ShardId shard() const { return shard_; }
  void setShard(sim::ShardId shard) { shard_ = shard; }

 protected:
  Network& network_;

 private:
  std::string name_;
  NodeId id_;
  sim::ShardId shard_ = 0;
};

}  // namespace softqos::net
