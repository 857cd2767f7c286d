// Topology container: nodes, duplex links, static shortest-path routing, and
// message-level transport (fragmentation to MTU-sized packets).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/channel.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "osim/host.hpp"
#include "sim/simulation.hpp"

namespace softqos::net {

class Nic;

class Network {
 public:
  explicit Network(sim::Simulation& simulation, std::int64_t mtuBytes = 1500);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] std::int64_t mtu() const { return mtu_; }

  /// Node registration (called from the NetNode constructor).
  NodeId registerNode(NetNode* node, const std::string& name);

  [[nodiscard]] NetNode* node(NodeId id);
  [[nodiscard]] NetNode* nodeByName(const std::string& name);

  /// Create a duplex link between two nodes (one Channel per direction).
  void link(NetNode& a, NetNode& b, ChannelConfig config = {});

  /// The directed channel from -> to, or nullptr if not directly linked.
  [[nodiscard]] Channel* channel(NodeId from, NodeId to);

  /// Administratively disable/enable a duplex link (both directions).
  /// Disabled links are excluded from routing (packets already queued on the
  /// channel still drain). Returns false when no such link exists.
  bool setLinkEnabled(NodeId a, NodeId b, bool enabled);
  [[nodiscard]] bool linkEnabled(NodeId a, NodeId b) const;

  /// Attach a host to the network by creating its NIC. One NIC per host.
  Nic& attachHost(osim::Host& host);
  [[nodiscard]] Nic* nicForHost(const std::string& hostName);

  /// Next hop from `from` toward `dst` (kNoNode when unreachable). Routes are
  /// recomputed lazily after topology changes (BFS shortest path) into a
  /// flat next-port table: for each (destination, node), the index of the
  /// node's outgoing channel on a shortest path.
  NodeId nextHop(NodeId from, NodeId dst);

  /// Force route computation now. Sharded runs require this before the first
  /// window (the lazy recompute is not shard-safe); topology changes while
  /// worker threads are running are unsupported.
  void primeRoutes();

  /// Minimum propagation delay over channels whose endpoints live on
  /// different shards — the conservative lookahead for windowed runs.
  /// Returns 0 when no link crosses a shard boundary (all nodes co-located).
  [[nodiscard]] sim::SimDuration minCrossShardPropagation() const;

  /// Minimum propagation delay over all channels (0 with no links): a lower
  /// bound on how stale any cross-shard observation of channel state can be,
  /// used by ChannelMonitor to schedule its sample publications.
  [[nodiscard]] sim::SimDuration minPropagation() const;

  /// Forward a packet out of node `from` toward its destination. Delivers
  /// locally when from == dst; silently drops unreachable packets (counted).
  void forward(NodeId from, Packet&& packet);

  /// Send an application message from one NIC to a port on another, splitting
  /// it into MTU-sized fragments.
  void sendMessage(NodeId srcNic, NodeId dstNic, int dstPort, osim::Message m);

  /// Convenience: send host-to-host by name (used by the RPC layer).
  /// Returns false if either host is not attached.
  bool sendToHost(const std::string& srcHost, const std::string& dstHost,
                  int dstPort, osim::Message m);

  /// Plumb two host sockets as a connected pair across the network.
  void connect(const std::shared_ptr<osim::Socket>& a, osim::Host& hostA,
               int portA, const std::shared_ptr<osim::Socket>& b,
               osim::Host& hostB, int portB);

  [[nodiscard]] std::uint64_t unreachableDrops() const {
    return unreachable_.load(std::memory_order_relaxed);
  }

  /// All directed channels (diagnostics; domain managers poll these).
  [[nodiscard]] const std::map<std::pair<NodeId, NodeId>,
                               std::unique_ptr<Channel>>&
  channels() const {
    return channels_;
  }

 private:
  /// One outgoing channel of a node; a node's ports are numbered in the
  /// order its links were made.
  struct Port {
    NodeId peer;
    Channel* channel;
  };
  static constexpr std::uint16_t kNoPort = 0xffff;

  void recomputeRoutes();
  /// Port of `from` on a shortest path to `dst`, or kNoPort.
  [[nodiscard]] std::uint16_t nextPort(NodeId from, NodeId dst);

  sim::Simulation& sim_;
  std::int64_t mtu_;
  std::vector<NetNode*> nodes_;
  std::map<std::string, NodeId> byName_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<Channel>> channels_;
  std::vector<std::vector<Port>> ports_;  // per node
  std::vector<std::uint16_t> nextPort_;   // [dst * nodes + from]
  std::set<std::pair<NodeId, NodeId>> disabledLinks_;  // directed pairs
  bool routesDirty_ = true;
  std::unordered_map<std::string, std::unique_ptr<Nic>> nics_;
  /// Per-source message sequence numbers: message ids embed the source node,
  /// so concurrent senders on different shards never contend on a shared
  /// counter (ids are reassembly keys only; their values are unobservable).
  std::vector<std::uint64_t> msgSeq_;
  std::atomic<std::uint64_t> unreachable_{0};
};

}  // namespace softqos::net
