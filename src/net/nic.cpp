#include "net/nic.hpp"

#include <utility>

#include "net/network.hpp"

namespace softqos::net {

Nic::Nic(Network& network, osim::Host& host)
    : NetNode(network, "nic:" + host.name()), host_(host) {}

void Nic::bind(int port, std::shared_ptr<osim::Socket> socket) {
  bindings_[port] = std::move(socket);
}

void Nic::unbind(int port) { bindings_.erase(port); }

osim::Socket* Nic::boundSocket(int port) {
  const auto it = bindings_.find(port);
  return it == bindings_.end() ? nullptr : it->second.get();
}

void Nic::onPacket(Packet packet) {
  if (!host_.isUp()) {
    // A crashed host answers nothing: frames die on the wire until restart.
    ++hostDown_;
    return;
  }
  bool corrupted = packet.corrupted;
  // A message that fits in one fragment has nothing to reassemble.
  if (!packet.lastFragment || packet.bytes != packet.messageBytes) {
    auto it = partial_.try_emplace(packet.messageId).first;
    it->second.bytes += packet.bytes;
    it->second.corrupted = it->second.corrupted || packet.corrupted;

    if (!packet.lastFragment) return;

    const bool complete = (it->second.bytes == packet.messageBytes);
    corrupted = it->second.corrupted;
    partial_.erase(it);
    if (!complete) {
      // An earlier fragment was dropped in a congested queue: the message
      // is lost (datagram semantics; the video stream tolerates this).
      ++incomplete_;
      return;
    }
  }
  if (corrupted) {
    ++corrupt_;
    return;
  }
  const auto bound = bindings_.find(packet.dstPort);
  if (bound == bindings_.end()) {
    ++unbound_;
    return;
  }
  packet.message.bytes = packet.messageBytes;
  bound->second->deliver(std::move(packet.message));
}

}  // namespace softqos::net
