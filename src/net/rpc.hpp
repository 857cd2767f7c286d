// Minimal request/response RPC between management daemons, carried over the
// simulated network (QoS Host Manager <-> QoS Domain Manager queries).
//
// Calls optionally retry with exponential backoff + jitter (CallOptions):
// the management plane must keep probing through partitions and host
// crashes, and a retry storm synchronized across endpoints would defeat the
// point — the jitter draws from a per-endpoint seeded stream so runs stay
// byte-reproducible. Replies that arrive after the final timeout already
// fired are discarded and counted (late-reply suppression); the ReplyCont
// fires exactly once either way.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/network.hpp"
#include "osim/host.hpp"
#include "osim/socket.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace softqos::net {

/// One RPC endpoint bound to (host, port). Handlers are registered by method
/// name; calls address a destination host name + port.
class RpcEndpoint {
 public:
  /// Invoked with the response body, or with ok=false on timeout.
  using ReplyCont = std::function<void(bool ok, std::string body)>;
  /// Sends the response; may be invoked asynchronously (fan-out queries).
  using Responder = std::function<void(std::string body)>;
  using Handler = std::function<void(const std::string& body, Responder respond)>;

  /// Per-call policy. The default (one attempt, 2 s timeout) matches the
  /// pre-retry behaviour exactly — no events and no random draws beyond the
  /// single timeout — so existing scenarios replay byte-identically.
  struct CallOptions {
    sim::SimDuration timeout = sim::sec(2);       // per attempt
    int maxAttempts = 1;                          // 1 = no retries
    sim::SimDuration backoffBase = sim::msec(200);// doubles per retry
    sim::SimDuration backoffMax = sim::sec(2);
    double jitter = 0.2;                          // ± fraction on the backoff
    /// Causal-trace parent for this call. When valid (and an observer is
    /// attached) the call gets its own span — retries and duplicate
    /// suppression stay inside it — and the request is framed as
    /// "QT|<ctx>|..." so the callee's serve span joins the same trace.
    /// Invalid (the default) keeps the seed "Q|..." frame byte-identical.
    sim::TraceContext context;
  };

  RpcEndpoint(Network& network, osim::Host& host, int port);

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  void setHandler(const std::string& method, Handler handler);

  /// Issue a request. `onReply` always fires exactly once (response or
  /// final timeout). Unknown methods at the callee produce an
  /// "ERR:unknown-method" response body.
  void call(const std::string& destHost, int destPort,
            const std::string& method, const std::string& body,
            ReplyCont onReply, sim::SimDuration timeout = sim::sec(2));

  /// Issue a request with an explicit retry policy.
  void call(const std::string& destHost, int destPort,
            const std::string& method, const std::string& body,
            ReplyCont onReply, const CallOptions& options);

  /// One-way notification: the handler runs at the destination but whatever
  /// it responds is discarded — no reply frame, no timeout event, no retry
  /// or duplicate-suppression state at either end. Streaming telemetry
  /// publishes through this: a lost window is just a gap in the rollup, not
  /// something worth a retransmission storm during the very overload the
  /// telemetry is reporting. Dropped silently while the daemon is disabled.
  void notify(const std::string& destHost, int destPort,
              const std::string& method, const std::string& body);

  /// Daemon liveness knob for fault injection: while disabled, every inbound
  /// frame is dropped (requests unanswered, responses unprocessed) and new
  /// outbound calls fail asynchronously — the daemon is "crashed" without
  /// tearing down its socket binding.
  void setEnabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] const std::string& hostName() const { return hostName_; }
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] std::uint64_t requestsHandled() const { return handled_; }
  /// Calls that exhausted every attempt without a response.
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  /// Re-sent attempts (beyond each call's first).
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Responses discarded because their call had already completed or timed
  /// out (suppressed — the continuation does NOT fire again).
  [[nodiscard]] std::uint64_t lateReplies() const { return lateReplies_; }
  /// Inbound frames dropped while the endpoint was disabled (daemon crash).
  [[nodiscard]] std::uint64_t droppedWhileDisabled() const {
    return droppedWhileDisabled_;
  }
  /// Retransmitted requests whose call id was already seen (the handler did
  /// NOT run again; the cached response was replayed when available).
  [[nodiscard]] std::uint64_t duplicateRequests() const { return duplicates_; }
  /// One-way notifications whose handler ran (subset of requestsHandled()).
  [[nodiscard]] std::uint64_t notificationsReceived() const {
    return notifications_;
  }

 private:
  struct PendingCall {
    ReplyCont cont;
    sim::EventId timeoutEvent = sim::kInvalidEvent;
    // Retry state: the original frame is re-sent verbatim under the same
    // call id, so a slow first-attempt reply can still complete the call.
    std::string destHost;
    int destPort = 0;
    std::string payload;
    int attempt = 1;
    CallOptions options;
    sim::SimTime startedAt = 0;
    sim::TraceContext span;  // the call span; invalid when untraced
  };

  /// Executed-request memory for at-most-once handler semantics under
  /// retries: maps "<replyHost>|<replyPort>|<id>" to the response once the
  /// handler produced one (empty optional while still executing). Bounded
  /// FIFO — old entries are forgotten, which is safe because retries of a
  /// call stop as soon as any response lands.
  struct ExecutedRequest {
    bool responded = false;
    std::string response;
  };

  void onMessage(osim::Message m);
  void onCallTimeout(std::uint64_t id);
  void sendRaw(const std::string& destHost, int destPort, std::string payload);

  Network& network_;
  std::string hostName_;
  int port_;
  std::shared_ptr<osim::Socket> socket_;
  std::map<std::string, Handler, std::less<>> handlers_;
  std::map<std::uint64_t, PendingCall> pending_;
  std::map<std::string, ExecutedRequest> executed_;
  std::deque<std::string> executedOrder_;  // FIFO eviction of executed_
  sim::RandomStream backoffRandom_;
  sim::HistogramHandle roundtrip_;  // rpc.roundtrip_us (successful calls)
  sim::HistogramHandle attempts_;   // rpc.attempts (per completed call)
  bool enabled_ = true;
  std::uint64_t nextCallId_ = 1;
  std::uint64_t handled_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t lateReplies_ = 0;
  std::uint64_t droppedWhileDisabled_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t notifications_ = 0;
};

}  // namespace softqos::net
