#include "net/switch.hpp"

#include <utility>

#include "net/network.hpp"

namespace softqos::net {

Switch::Switch(Network& network, std::string name)
    : NetNode(network, std::move(name)) {}

void Switch::onPacket(Packet&& packet) {
  if (packet.dst == id()) return;  // switches do not terminate traffic
  ++forwarded_;
  network_.forward(id(), std::move(packet));
}

}  // namespace softqos::net
