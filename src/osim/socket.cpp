#include "osim/socket.hpp"

#include <utility>

namespace softqos::osim {

Socket::Socket(sim::Simulation& simulation, Fd fd, std::int64_t capacityBytes)
    : sim_(simulation), fd_(fd), capacity_(capacityBytes) {}

void Socket::send(Message m) {
  if (closed_ || !transmit_) {
    ++sendDrops_;
    return;
  }
  transmit_(std::move(m));
}

void Socket::recv(Process& reader, MessageCont cont) {
  if (reader.terminated()) return;
  if (!buffer_.empty()) {
    Message m = std::move(buffer_.front());
    buffer_.pop_front();
    bufferBytes_ -= m.bytes;
    sim_.after(0, [&reader, cont = std::move(cont), m = std::move(m)]() mutable {
      if (!reader.terminated()) cont(std::move(m));
    });
    return;
  }
  if (closed_) {
    sim_.after(0, [&reader, cont = std::move(cont)]() mutable {
      Message eof;
      eof.kind = "eof";
      if (!reader.terminated()) cont(std::move(eof));
    });
    return;
  }
  waitingReader_ = &reader;
  reader.waitSignal([this, &reader, cont = std::move(cont)]() mutable {
    recv(reader, std::move(cont));
  });
}

void Socket::deliver(Message m) {
  if (closed_) {
    ++drops_;
    return;
  }
  if (daemonReceiver_) {
    ++deliveredCount_;
    daemonReceiver_(std::move(m));
    return;
  }
  if (bufferBytes_ + m.bytes > capacity_) {
    ++drops_;
    return;
  }
  bufferBytes_ += m.bytes;
  ++deliveredCount_;
  buffer_.push_back(std::move(m));
  wakeReader();
}

void Socket::setDaemonReceiver(MessageCont receiver) {
  daemonReceiver_ = std::move(receiver);
  if (!daemonReceiver_) return;
  while (!buffer_.empty()) {
    Message m = std::move(buffer_.front());
    buffer_.pop_front();
    bufferBytes_ -= m.bytes;
    ++deliveredCount_;
    daemonReceiver_(std::move(m));
  }
}

void Socket::close() {
  if (closed_) return;
  closed_ = true;
  wakeReader();  // a blocked reader must observe EOF
}

void Socket::wakeReader() {
  if (waitingReader_ == nullptr) return;
  Process* reader = waitingReader_;
  waitingReader_ = nullptr;
  reader->signal();
}

}  // namespace softqos::osim
