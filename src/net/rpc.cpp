#include "net/rpc.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "net/nic.hpp"
#include "sim/text.hpp"

namespace softqos::net {

RpcEndpoint::RpcEndpoint(Network& network, osim::Host& host, int port)
    : network_(network),
      hostName_(host.name()),
      port_(port),
      backoffRandom_(network.sim().stream("rpc:" + host.name() + ":" +
                                          std::to_string(port))),
      roundtrip_(network.sim().localMetrics().histogramHandle("rpc.roundtrip_us")),
      attempts_(network.sim().localMetrics().histogramHandle("rpc.attempts")) {
  socket_ = host.createSocket();
  Nic& nic = network_.attachHost(host);
  nic.bind(port_, socket_);
  socket_->setDaemonReceiver([this](osim::Message m) { onMessage(std::move(m)); });
}

void RpcEndpoint::setHandler(const std::string& method, Handler handler) {
  handlers_[method] = std::move(handler);
}

void RpcEndpoint::sendRaw(const std::string& destHost, int destPort,
                          std::string payload) {
  osim::Message m;
  m.kind = "rpc";
  m.bytes = 256 + static_cast<std::int64_t>(payload.size());
  m.payload = std::move(payload);
  network_.sendToHost(hostName_, destHost, destPort, std::move(m));
}

void RpcEndpoint::call(const std::string& destHost, int destPort,
                       const std::string& method, const std::string& body,
                       ReplyCont onReply, sim::SimDuration timeout) {
  CallOptions options;
  options.timeout = timeout;
  call(destHost, destPort, method, body, std::move(onReply), options);
}

void RpcEndpoint::call(const std::string& destHost, int destPort,
                       const std::string& method, const std::string& body,
                       ReplyCont onReply, const CallOptions& options) {
  if (!enabled_) {
    // A crashed daemon issues nothing; fail asynchronously to preserve the
    // "exactly once, never re-entrant" continuation contract.
    network_.sim().after(0, [cont = std::move(onReply)] {
      if (cont) cont(false, "");
    });
    return;
  }
  const std::uint64_t id = nextCallId_++;
  PendingCall pc;
  pc.cont = std::move(onReply);
  pc.destHost = destHost;
  pc.destPort = destPort;
  pc.startedAt = network_.sim().now();
  // Frame: Q|<id>|<replyHost>|<replyPort>|<method>|<body>, or with a trace
  // context riding along: QT|<traceId:spanId>|<id>|...
  const std::string tail = std::to_string(id) + "|" + hostName_ + "|" +
                           std::to_string(port_) + "|" + method + "|" + body;
  sim::SpanObserver* o = network_.sim().observer();
  if (o != nullptr && options.context.valid()) {
    pc.span = o->beginSpan(pc.startedAt, options.context, "rpc:" + method,
                           "rpc:" + hostName_);
    o->annotate(pc.span, "dest", destHost + ":" + std::to_string(destPort));
    pc.payload = "QT|" + pc.span.serialize() + "|" + tail;
  } else {
    pc.payload = "Q|" + tail;
  }
  pc.options = options;
  pc.options.maxAttempts = std::max(1, options.maxAttempts);
  pc.timeoutEvent = network_.sim().after(
      pc.options.timeout, [this, id] { onCallTimeout(id); });

  const std::string frame = pc.payload;
  pending_.emplace(id, std::move(pc));
  sendRaw(destHost, destPort, frame);
}

void RpcEndpoint::notify(const std::string& destHost, int destPort,
                         const std::string& method, const std::string& body) {
  if (!enabled_) return;  // a crashed daemon publishes nothing
  // Frame: N|<method>|<body> — no call id, so the receiver keeps no state.
  sendRaw(destHost, destPort, "N|" + method + "|" + body);
}

void RpcEndpoint::onCallTimeout(std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingCall& pc = it->second;

  if (pc.attempt >= pc.options.maxAttempts) {
    ReplyCont cont = std::move(pc.cont);
    attempts_.record(static_cast<double>(pc.attempt));
    const sim::TraceContext span = pc.span;
    pending_.erase(it);
    ++timeouts_;
    if (span.valid()) {
      if (sim::SpanObserver* o = network_.sim().observer()) {
        o->annotate(span, "result", "timeout");
        o->endSpan(network_.sim().now(), span);
      }
    }
    if (cont) cont(false, "");
    return;
  }

  // Exponential backoff with jitter before the next attempt. The random
  // draw happens only on this path, so retry-free runs consume no
  // randomness from the endpoint's stream.
  sim::SimDuration backoff = pc.options.backoffBase;
  for (int i = 1; i < pc.attempt && backoff < pc.options.backoffMax; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, pc.options.backoffMax);
  if (pc.options.jitter > 0.0) {
    const double j = pc.options.jitter;
    const double factor = backoffRandom_.uniform(1.0 - j, 1.0 + j);
    backoff = std::max<sim::SimDuration>(
        1, static_cast<sim::SimDuration>(static_cast<double>(backoff) * factor));
  }
  ++pc.attempt;
  ++retries_;
  pc.timeoutEvent = network_.sim().after(backoff, [this, id] {
    const auto pit = pending_.find(id);
    if (pit == pending_.end()) return;  // a late reply completed the call
    PendingCall& rpc = pit->second;
    rpc.timeoutEvent = network_.sim().after(
        rpc.options.timeout, [this, id] { onCallTimeout(id); });
    if (rpc.span.valid()) {
      // Retries are markers inside the one call span, not new spans: the
      // trace shows a single logical call that needed N sends.
      if (sim::SpanObserver* o = network_.sim().observer()) {
        o->instant(network_.sim().now(), rpc.span,
                   "retry:" + std::to_string(rpc.attempt), "rpc:" + hostName_);
      }
    }
    sendRaw(rpc.destHost, rpc.destPort, rpc.payload);
  });
}

void RpcEndpoint::onMessage(osim::Message m) {
  if (!enabled_) {
    ++droppedWhileDisabled_;
    return;
  }
  // Traced requests ("QT") carry one extra leading field: the caller's span
  // context. Untraced frames keep the seed layout byte-for-byte.
  const bool traced = m.payload.rfind("QT|", 0) == 0;
  const auto parts = sim::split(m.payload, '|', traced ? 7 : 6);
  if ((parts[0] == "Q" && parts.size() == 6) ||
      (parts[0] == "QT" && parts.size() == 7)) {
    const std::size_t off = traced ? 1 : 0;
    const auto replyPort = sim::parseNumber<int>(parts[3 + off]);
    if (!replyPort || *replyPort < 0) return;  // malformed frame
    sim::TraceContext callerCtx;
    if (traced) callerCtx = sim::TraceContext::parse(parts[1]);
    const std::string id(parts[1 + off]);
    const std::string replyHost(parts[2 + off]);
    const int port = *replyPort;
    const std::string method(parts[4 + off]);
    const std::string body(parts[5 + off]);

    // At-most-once execution under caller retries: a duplicate of a request
    // we already ran replays the cached response (or stays silent while the
    // original handler is still producing one) instead of re-executing a
    // possibly non-idempotent action like "boost".
    const std::string dedupKey =
        replyHost + "|" + std::to_string(port) + "|" + id;
    const auto seen = executed_.find(dedupKey);
    if (seen != executed_.end()) {
      ++duplicates_;
      if (callerCtx.valid()) {
        // Suppression is part of the caller's call span, not a new one.
        if (sim::SpanObserver* o = network_.sim().observer()) {
          o->instant(network_.sim().now(), callerCtx, "duplicate-suppressed",
                     "rpc:" + hostName_);
        }
      }
      if (seen->second.responded) {
        sendRaw(replyHost, port, "S|" + id + "|" + seen->second.response);
      }
      return;
    }
    executed_.emplace(dedupKey, ExecutedRequest{});
    executedOrder_.push_back(dedupKey);
    constexpr std::size_t kExecutedMemory = 256;
    while (executedOrder_.size() > kExecutedMemory) {
      executed_.erase(executedOrder_.front());
      executedOrder_.pop_front();
    }

    ++handled_;
    sim::TraceContext serveSpan;
    if (callerCtx.valid()) {
      if (sim::SpanObserver* o = network_.sim().observer()) {
        serveSpan = o->beginSpan(network_.sim().now(), callerCtx,
                                 "serve:" + method, "rpc:" + hostName_);
      }
    }
    Responder respond = [this, id, replyHost, port, dedupKey,
                         serveSpan](std::string respBody) {
      const auto entry = executed_.find(dedupKey);
      if (entry != executed_.end()) {
        entry->second.responded = true;
        entry->second.response = respBody;
      }
      if (serveSpan.valid()) {
        // Responders may fire asynchronously (fan-out queries); the serve
        // span covers handler start through response send.
        if (sim::SpanObserver* o = network_.sim().observer()) {
          o->endSpan(network_.sim().now(), serveSpan);
        }
      }
      sendRaw(replyHost, port, "S|" + id + "|" + std::move(respBody));
    };
    const auto it = handlers_.find(method);
    if (it == handlers_.end()) {
      respond("ERR:unknown-method");
      return;
    }
    it->second(body, std::move(respond));
    return;
  }
  if (parts[0] == "N") {
    // One-way notification: N|<method>|<body>. Run the handler with a
    // discarding responder; unknown methods are silently ignored (there is
    // nobody to tell).
    const auto note = sim::split(m.payload, '|', 3);
    if (note.size() < 3) return;
    const auto it = handlers_.find(note[1]);
    if (it == handlers_.end()) return;
    ++handled_;
    ++notifications_;
    it->second(std::string(note[2]), [](std::string) {});
    return;
  }
  if (parts[0] == "S") {
    // Frame: S|<id>|<body> — body may itself contain '|'.
    const auto resp = sim::split(m.payload, '|', 3);
    if (resp.size() < 3) return;
    const auto id = sim::parseNumber<std::uint64_t>(resp[1]);
    if (!id.has_value()) return;  // malformed frame
    const auto it = pending_.find(*id);
    if (it == pending_.end()) {
      // The call already completed or gave up (all attempts timed out):
      // suppress the stale response so the continuation cannot double-fire.
      ++lateReplies_;
      return;
    }
    ReplyCont cont = std::move(it->second.cont);
    network_.sim().cancel(it->second.timeoutEvent);
    roundtrip_.record(
        static_cast<double>(network_.sim().now() - it->second.startedAt));
    attempts_.record(static_cast<double>(it->second.attempt));
    const sim::TraceContext span = it->second.span;
    const int attempt = it->second.attempt;
    pending_.erase(it);
    if (span.valid()) {
      if (sim::SpanObserver* o = network_.sim().observer()) {
        o->annotate(span, "attempts", std::to_string(attempt));
        o->endSpan(network_.sim().now(), span);
      }
    }
    if (cont) cont(true, std::string(resp[2]));
  }
}

}  // namespace softqos::net
