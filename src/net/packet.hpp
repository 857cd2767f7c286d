// Network packets: fragments of application messages routed hop by hop.
#pragma once

#include <cstdint>
#include <memory>

#include "osim/socket.hpp"

namespace softqos::net {

/// Node identifier within a Network's topology.
using NodeId = int;

inline constexpr NodeId kNoNode = -1;

/// One fragment's header. A message is boxed once, by Network::sendMessage,
/// and only its last fragment carries the box, so a hop moves 48 bytes
/// whatever the message holds.
struct Packet {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  int dstPort = 0;               // demux key at the destination NIC
  bool corrupted = false;        // flipped bits on a degraded link (fault injection)
  std::uint64_t messageId = 0;   // reassembly key
  std::int64_t bytes = 0;        // this fragment's wire size
  std::int64_t messageBytes = 0; // total size of the carried message
  /// The message, on its last fragment only; null on every other fragment
  /// and on cross traffic.
  std::unique_ptr<osim::Message> message;
};
static_assert(sizeof(Packet) <= 48, "a fragment header must stay small");

}  // namespace softqos::net
