// A store-and-forward switch. Forwarding uses the network's static routes;
// congestion shows up in its outbound channels' queues and utilization —
// the "unexpected load on a network switch" the paper's domain manager must
// localize.
#pragma once

#include "net/node.hpp"

namespace softqos::net {

class Switch : public NetNode {
 public:
  Switch(Network& network, std::string name);

  void onPacket(Packet&& packet) override;
  [[nodiscard]] bool forwards() const override { return true; }

  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }

 private:
  std::uint64_t forwarded_ = 0;
};

}  // namespace softqos::net
