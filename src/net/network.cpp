#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/nic.hpp"

namespace softqos::net {

NetNode::NetNode(Network& network, std::string name)
    : network_(network), name_(std::move(name)) {
  id_ = network_.registerNode(this, name_);
  shard_ = network_.sim().currentShard();
}

Network::Network(sim::Simulation& simulation, std::int64_t mtuBytes)
    : sim_(simulation), mtu_(mtuBytes) {
  if (mtu_ <= 0) throw std::invalid_argument("Network: MTU must be positive");
}

Network::~Network() = default;

NodeId Network::registerNode(NetNode* node, const std::string& name) {
  if (byName_.contains(name)) {
    throw std::invalid_argument("Network: duplicate node name: " + name);
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  ports_.emplace_back();
  msgSeq_.push_back(0);
  byName_.emplace(name, id);
  routesDirty_ = true;
  return id;
}

NetNode* Network::node(NodeId id) {
  if (id < 0 || id >= static_cast<NodeId>(nodes_.size())) return nullptr;
  return nodes_[static_cast<std::size_t>(id)];
}

NetNode* Network::nodeByName(const std::string& name) {
  const auto it = byName_.find(name);
  return it == byName_.end() ? nullptr : nodes_[static_cast<std::size_t>(it->second)];
}

void Network::link(NetNode& a, NetNode& b, ChannelConfig config) {
  auto& portsA = ports_[static_cast<std::size_t>(a.id())];
  auto& portsB = ports_[static_cast<std::size_t>(b.id())];
  if (portsA.size() >= kNoPort || portsB.size() >= kNoPort) {
    throw std::length_error("Network: a node has more than 65535 links");
  }
  Channel* ab = channels_
                    .emplace(std::make_pair(a.id(), b.id()),
                             std::make_unique<Channel>(sim_, b, config))
                    .first->second.get();
  Channel* ba = channels_
                    .emplace(std::make_pair(b.id(), a.id()),
                             std::make_unique<Channel>(sim_, a, config))
                    .first->second.get();
  portsA.push_back(Port{b.id(), ab});
  portsB.push_back(Port{a.id(), ba});
  routesDirty_ = true;
}

Channel* Network::channel(NodeId from, NodeId to) {
  const auto it = channels_.find(std::make_pair(from, to));
  return it == channels_.end() ? nullptr : it->second.get();
}

bool Network::setLinkEnabled(NodeId a, NodeId b, bool enabled) {
  if (channel(a, b) == nullptr || channel(b, a) == nullptr) return false;
  if (enabled) {
    disabledLinks_.erase({a, b});
    disabledLinks_.erase({b, a});
  } else {
    disabledLinks_.insert({a, b});
    disabledLinks_.insert({b, a});
  }
  routesDirty_ = true;
  return true;
}

bool Network::linkEnabled(NodeId a, NodeId b) const {
  return !disabledLinks_.contains({a, b});
}

Nic& Network::attachHost(osim::Host& host) {
  auto it = nics_.find(host.name());
  if (it != nics_.end()) return *it->second;
  auto nic = std::make_unique<Nic>(*this, host);
  Nic& ref = *nic;
  nics_.emplace(host.name(), std::move(nic));
  return ref;
}

Nic* Network::nicForHost(const std::string& hostName) {
  const auto it = nics_.find(hostName);
  return it == nics_.end() ? nullptr : it->second.get();
}

void Network::recomputeRoutes() {
  const std::size_t n = nodes_.size();
  // back[v][i]: the port at u = ports_[v][i].peer whose channel leads back
  // to v, or kNoPort when u -> v is administratively disabled. BFS runs
  // from the destination outward, so the edge a packet would take is
  // u -> v.
  std::vector<std::vector<std::uint16_t>> back(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (const Port& port : ports_[v]) {
      const auto u = static_cast<std::size_t>(port.peer);
      const auto it = std::find_if(
          ports_[u].begin(), ports_[u].end(),
          [v](const Port& p) { return p.peer == static_cast<NodeId>(v); });
      const bool disabled =
          disabledLinks_.contains({port.peer, static_cast<NodeId>(v)});
      back[v].push_back(disabled ? kNoPort
                                 : static_cast<std::uint16_t>(
                                       it - ports_[u].begin()));
    }
  }
  // Only switches transit traffic: a path may end at any node but may not
  // pass *through* a host NIC or a traffic source/sink.
  std::vector<char> transit(n);
  for (std::size_t v = 0; v < n; ++v) transit[v] = nodes_[v]->forwards();

  nextPort_.assign(n * n, kNoPort);
  std::vector<NodeId> frontier(n);  // each node is queued at most once
  std::vector<char> seen(n);
  for (std::size_t dst = 0; dst < n; ++dst) {
    std::uint16_t* toward = &nextPort_[dst * n];
    std::fill(seen.begin(), seen.end(), 0);
    seen[dst] = 1;
    std::size_t head = 0;
    std::size_t tail = 0;
    frontier[tail++] = static_cast<NodeId>(dst);
    while (head < tail) {
      const auto cur = static_cast<std::size_t>(frontier[head++]);
      if (cur != dst && !transit[cur]) continue;
      const std::vector<Port>& ports = ports_[cur];
      for (std::size_t i = 0; i < ports.size(); ++i) {
        const auto nb = static_cast<std::size_t>(ports[i].peer);
        if (back[cur][i] == kNoPort || seen[nb]) continue;
        seen[nb] = 1;
        toward[nb] = back[cur][i];
        frontier[tail++] = ports[i].peer;
      }
    }
  }
  routesDirty_ = false;
}

std::uint16_t Network::nextPort(NodeId from, NodeId dst) {
  if (routesDirty_) recomputeRoutes();
  const std::size_t n = nodes_.size();
  if (from < 0 || dst < 0 || static_cast<std::size_t>(from) >= n ||
      static_cast<std::size_t>(dst) >= n) {
    return kNoPort;
  }
  return nextPort_[static_cast<std::size_t>(dst) * n +
                   static_cast<std::size_t>(from)];
}

NodeId Network::nextHop(NodeId from, NodeId dst) {
  const std::uint16_t port = nextPort(from, dst);
  if (port == kNoPort) return kNoNode;
  return ports_[static_cast<std::size_t>(from)][port].peer;
}

void Network::forward(NodeId from, Packet&& packet) {
  if (from == packet.dst) {
    NetNode* self = node(from);
    if (self != nullptr) self->onPacket(std::move(packet));
    return;
  }
  const std::uint16_t port = nextPort(from, packet.dst);
  if (port == kNoPort) {
    ++unreachable_;
    return;
  }
  ports_[static_cast<std::size_t>(from)][port].channel->enqueue(
      std::move(packet));
}

void Network::primeRoutes() {
  if (routesDirty_) recomputeRoutes();
}

sim::SimDuration Network::minCrossShardPropagation() const {
  sim::SimDuration min = 0;
  for (const auto& [key, channel] : channels_) {
    const auto& [from, to] = key;
    if (nodes_[static_cast<std::size_t>(from)]->shard() ==
        nodes_[static_cast<std::size_t>(to)]->shard()) {
      continue;
    }
    const sim::SimDuration delay = channel->config().propagationDelay;
    if (min == 0 || delay < min) min = delay;
  }
  return min;
}

sim::SimDuration Network::minPropagation() const {
  sim::SimDuration min = 0;
  for (const auto& [key, channel] : channels_) {
    (void)key;
    const sim::SimDuration delay = channel->config().propagationDelay;
    if (min == 0 || delay < min) min = delay;
  }
  return min;
}

void Network::sendMessage(NodeId srcNic, NodeId dstNic, int dstPort,
                          osim::Message m) {
  // Message ids embed the source node so shard-parallel senders never share
  // a counter; the id is a reassembly key only.
  const std::uint64_t messageId =
      ((static_cast<std::uint64_t>(srcNic) + 1) << 40) |
      ++msgSeq_[static_cast<std::size_t>(srcNic)];
  const std::int64_t total = std::max<std::int64_t>(m.bytes, 1);
  auto box = std::make_unique<osim::Message>(std::move(m));
  std::int64_t remaining = total;
  while (remaining > 0) {
    const std::int64_t fragment = std::min(remaining, mtu_);
    remaining -= fragment;
    Packet p;
    p.src = srcNic;
    p.dst = dstNic;
    p.dstPort = dstPort;
    p.messageId = messageId;
    p.bytes = fragment;
    p.messageBytes = total;
    if (remaining == 0) p.message = std::move(box);
    forward(srcNic, std::move(p));
  }
}

bool Network::sendToHost(const std::string& srcHost, const std::string& dstHost,
                         int dstPort, osim::Message m) {
  Nic* src = nicForHost(srcHost);
  Nic* dst = nicForHost(dstHost);
  if (src == nullptr || dst == nullptr) return false;
  sendMessage(src->id(), dst->id(), dstPort, std::move(m));
  return true;
}

void Network::connect(const std::shared_ptr<osim::Socket>& a, osim::Host& hostA,
                      int portA, const std::shared_ptr<osim::Socket>& b,
                      osim::Host& hostB, int portB) {
  Nic& nicA = attachHost(hostA);
  Nic& nicB = attachHost(hostB);
  nicA.bind(portA, a);
  nicB.bind(portB, b);
  const NodeId idA = nicA.id();
  const NodeId idB = nicB.id();
  a->setTransmit([this, idA, idB, portB](osim::Message m) {
    sendMessage(idA, idB, portB, std::move(m));
  });
  b->setTransmit([this, idA, idB, portA](osim::Message m) {
    sendMessage(idB, idA, portA, std::move(m));
  });
}

}  // namespace softqos::net
