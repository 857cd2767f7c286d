// Host network interface: binds sockets to ports, reassembles fragments.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "net/node.hpp"
#include "osim/host.hpp"
#include "osim/socket.hpp"

namespace softqos::net {

class Nic : public NetNode {
 public:
  Nic(Network& network, osim::Host& host);

  [[nodiscard]] osim::Host& host() { return host_; }

  /// Bind a socket to a local port; inbound messages for the port are
  /// delivered into the socket's kernel buffer after reassembly.
  void bind(int port, std::shared_ptr<osim::Socket> socket);
  void unbind(int port);
  [[nodiscard]] osim::Socket* boundSocket(int port);

  void onPacket(Packet&& packet) override;

  /// Messages whose fragments were lost and never completed.
  [[nodiscard]] std::uint64_t incompleteMessages() const { return incomplete_; }
  /// Messages that arrived for an unbound port.
  [[nodiscard]] std::uint64_t unboundDrops() const { return unbound_; }
  /// Messages discarded because a fragment was corrupted in flight (the
  /// checksum catches the damage at reassembly, like a UDP checksum drop).
  [[nodiscard]] std::uint64_t corruptDrops() const { return corrupt_; }
  /// Packets discarded because the host was down (crashed) on arrival.
  [[nodiscard]] std::uint64_t hostDownDrops() const { return hostDown_; }

 private:
  struct Partial {
    std::int64_t bytes = 0;   // reassembled so far
    bool corrupted = false;   // any fragment damaged in flight
  };

  osim::Host& host_;
  std::map<int, std::shared_ptr<osim::Socket>> bindings_;
  std::map<std::uint64_t, Partial> partial_;  // keyed by messageId
  std::uint64_t incomplete_ = 0;
  std::uint64_t unbound_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t hostDown_ = 0;
};

}  // namespace softqos::net
