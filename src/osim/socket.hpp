// Message-oriented sockets with finite kernel receive buffers.
//
// The receive buffer is the "communication buffer" of paper Example 5: its
// occupancy (bufferBytes) is what the buffer sensor reads to decide whether a
// QoS problem is local (buffer backed up: the client cannot drain it) or
// remote (buffer empty: frames are not arriving).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "osim/process.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace softqos::osim {

/// One application-level message (e.g. a video frame). `bytes` is the
/// simulated wire size; `payload` carries small structured metadata.
struct Message {
  std::string kind;          // e.g. "frame", "eof", "rpc"
  std::uint64_t seq = 0;
  std::int64_t bytes = 0;
  std::string payload;
};

class Socket {
 public:
  using Fd = int;
  using MessageCont = std::function<void(Message)>;
  using TransmitHook = std::function<void(Message)>;

  Socket(sim::Simulation& simulation, Fd fd, std::int64_t capacityBytes);

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] Fd fd() const { return fd_; }

  /// Send a message. Requires a transport hook (installed by the network
  /// layer or by Host::connectLocal); messages sent on an unplumbed or closed
  /// socket are dropped and counted.
  void send(Message m);

  /// Blocking receive for a simulated process: runs `cont` with the next
  /// message. On a closed socket with an empty buffer, delivers kind="eof".
  /// One outstanding reader per socket.
  void recv(Process& reader, MessageCont cont);

  /// Transport-side delivery into the kernel receive buffer. Messages that
  /// would overflow the buffer are dropped (and counted), like a full UDP
  /// socket buffer.
  void deliver(Message m);

  /// Close the socket: pending/future recv on an empty buffer yields EOF.
  void close();

  void setTransmit(TransmitHook hook) { transmit_ = std::move(hook); }

  /// Daemon-style receiver for management components that are event-driven
  /// objects rather than simulated processes: messages bypass the kernel
  /// buffer and are handed over immediately on delivery. Any buffered
  /// messages are flushed to the receiver when it is installed.
  void setDaemonReceiver(MessageCont receiver);

  // ---- Observables (the probe surface of Example 5) ----
  [[nodiscard]] std::int64_t bufferBytes() const { return bufferBytes_; }
  [[nodiscard]] std::int64_t capacityBytes() const { return capacity_; }
  [[nodiscard]] std::size_t queuedMessages() const { return buffer_.size(); }
  [[nodiscard]] std::uint64_t deliveredCount() const { return deliveredCount_; }
  [[nodiscard]] std::uint64_t dropCount() const { return drops_; }
  [[nodiscard]] std::uint64_t sendDropCount() const { return sendDrops_; }
  [[nodiscard]] bool closed() const { return closed_; }

 private:
  void wakeReader();

  sim::Simulation& sim_;
  Fd fd_;
  std::int64_t capacity_;
  std::int64_t bufferBytes_ = 0;
  std::deque<Message> buffer_;
  TransmitHook transmit_;
  MessageCont daemonReceiver_;
  Process* waitingReader_ = nullptr;
  bool closed_ = false;
  std::uint64_t deliveredCount_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t sendDrops_ = 0;
};

}  // namespace softqos::osim
