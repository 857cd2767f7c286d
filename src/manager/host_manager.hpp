// The QoS Host Manager (Section 5.3): receives violation notifications from
// coordinators over a message queue, asserts them as facts, forward-chains
// over its rule base, and drives the host's resource managers. It answers
// domain-manager queries (CPU load, memory, process liveness) and accepts
// remote corrective actions ("boost", "restart") and rule pushes
// ("set-rules") over RPC.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "instrument/control.hpp"
#include "instrument/report.hpp"
#include "manager/resource_manager.hpp"
#include "net/rpc.hpp"
#include "obs/slo.hpp"
#include "osim/host.hpp"
#include "rules/engine.hpp"
#include "sim/rollup.hpp"
#include "sim/simulation.hpp"

namespace softqos::manager {

struct HostManagerConfig {
  std::string msgQueueKey = "qos-host-manager";
  int rpcPort = 7001;            // where domain managers reach this manager
  std::string domainManagerHost; // empty: no escalation possible
  int domainManagerPort = 7100;
  /// Working-memory staleness bound: session facts (violation / metric /
  /// proc-stat / alloc-state) for a pid whose coordinator has gone silent
  /// for this long are retracted, so a crashed process's last sensor
  /// readings cannot drive adaptation forever. 0 disables expiry (default:
  /// byte-identical to the pre-fault-injection behaviour).
  sim::SimDuration factTtl = 0;
  /// Retry policy for escalation RPCs to the domain manager (attempts = 1
  /// reproduces the old fire-and-forget timeout behaviour).
  int escalationMaxAttempts = 1;
  /// Streaming self-telemetry: when > 0 the manager keeps a windowed rollup
  /// of its own behaviour (detect->recover latency, violation-episode rate,
  /// fact-repository depth, RPC retry pressure, rule-firing wall cost) in a
  /// private registry, evaluates its SLOs against it, and publishes each
  /// window to the domain manager over a one-way "telemetry" RPC. 0 (the
  /// default) disables everything: no events, no recording, byte-identical
  /// runs.
  sim::SimDuration telemetryInterval = 0;
  /// Objectives evaluated over the rollup each window. Breaches assert an
  /// `slo-breach` fact into working memory (retracted on recovery), so the
  /// rule base reacts to the manager missing its own objectives.
  std::vector<obs::SloObjective> slos;
  /// QoS contract plane: where the Policy Agent's "renegotiate" RPC lives.
  /// Empty (the default) disables the renegotiation engine function — rules
  /// calling it are counted but dropped, and no contract rules are loaded.
  std::string contractAgentHost;
  int contractAgentPort = 7200;
};

class QoSHostManager {
 public:
  /// `network` may be null for single-host deployments (no RPC endpoint is
  /// created and escalations are counted but dropped).
  QoSHostManager(sim::Simulation& simulation, osim::Host& host,
                 net::Network* network, HostManagerConfig config = {});

  QoSHostManager(const QoSHostManager&) = delete;
  QoSHostManager& operator=(const QoSHostManager&) = delete;

  [[nodiscard]] osim::Host& host() { return host_; }
  [[nodiscard]] rules::InferenceEngine& engine() { return engine_; }
  CpuResourceManager& cpuManager() { return cpuManager_; }
  MemoryResourceManager& memoryManager() { return memoryManager_; }

  /// Dynamic rule distribution: replace/extend the rule base from text.
  std::vector<std::string> loadRuleText(const std::string& text);
  void loadDefaultRules();
  bool removeRule(const std::string& name) { return engine_.removeRule(name); }

  /// Handle one coordinator report (also the message-queue entry point).
  void handleReport(const instrument::ViolationReport& report);

  /// Handle one contract-plane event from the Policy Agent (also the
  /// "contract-event" RPC entry point). `body` is the ContractEvent wire
  /// form "kind=...;pid=...;contract=...;detail=...". Asserts / retracts
  /// the contract facts (contract-degraded, liveliness-lost,
  /// contract-owner) and forward-chains. Returns false on a malformed body.
  bool handleContractEvent(const std::string& body);

  /// Send a control command to a process coordinator over its per-process
  /// control queue (application adaptation, run-time threshold changes).
  void sendControl(osim::Pid pid, const instrument::ControlCommand& command);

  /// Restart hook for process-failure adaptation: given the dead pid,
  /// respawn and return the new pid (0 = could not restart).
  using RestartHandler = std::function<osim::Pid(osim::Pid deadPid)>;
  void setRestartHandler(RestartHandler handler) {
    restartHandler_ = std::move(handler);
  }

  // ---- Fault injection: manager-daemon crash/restart ----

  /// Crash the manager daemon: the RPC endpoint stops answering (heartbeats
  /// included), coordinator reports pile up unread in the kernel message
  /// queue, and the daemon's working memory (facts, per-pid state) is lost.
  /// Returns false if already crashed.
  bool crash();

  /// Restart the daemon: RPC answers again and queued coordinator reports
  /// are drained. Rules survive (they live in the rule base, re-pushed by
  /// the domain manager on demand). Returns false if not crashed.
  bool restartDaemon();

  [[nodiscard]] bool isCrashed() const { return crashed_; }

  // ---- Statistics ----
  [[nodiscard]] std::uint64_t reportsReceived() const { return reports_; }
  [[nodiscard]] std::uint64_t boostsApplied() const { return boosts_; }
  [[nodiscard]] std::uint64_t decaysApplied() const { return decays_; }
  [[nodiscard]] std::uint64_t escalationsSent() const { return escalations_; }
  [[nodiscard]] std::uint64_t rtGrantsIssued() const { return rtGrants_; }
  [[nodiscard]] std::uint64_t memoryGrowths() const { return memGrowths_; }
  [[nodiscard]] std::uint64_t restartsPerformed() const { return restarts_; }
  [[nodiscard]] std::uint64_t rulePushesReceived() const { return rulePushes_; }
  /// Pids whose session facts were expired by the TTL sweep.
  [[nodiscard]] std::uint64_t staleExpiries() const { return staleExpiries_; }
  [[nodiscard]] std::uint64_t daemonCrashes() const { return daemonCrashes_; }
  /// Contract-plane events asserted into working memory.
  [[nodiscard]] std::uint64_t contractEventsSeen() const {
    return contractEvents_;
  }
  /// Tier renegotiations requested from the Policy Agent (rule-driven).
  [[nodiscard]] std::uint64_t renegotiationsRequested() const {
    return renegotiationsRequested_;
  }

  // ---- Streaming self-telemetry (config_.telemetryInterval > 0) ----
  [[nodiscard]] bool telemetryEnabled() const { return telemetry_ != nullptr; }
  /// The manager's private rollup (nullptr when telemetry is off).
  [[nodiscard]] const sim::RollupWindow* rollup() const;
  /// The SLO tracker over the rollup (nullptr when telemetry is off).
  [[nodiscard]] const obs::SloTracker* sloTracker() const;
  /// Windows published to the domain manager over the telemetry RPC.
  [[nodiscard]] std::uint64_t telemetryPublishes() const;
  /// Cumulative SLO breach edges (facts asserted into working memory).
  [[nodiscard]] std::uint64_t sloBreachesSeen() const;

 private:
  void registerEngineFunctions();
  void installFireHooks();
  void setupRpcHandlers();
  void installQueueReceiver();
  void sweepStaleFacts();
  void retractSessionFacts(std::uint32_t pid);
  void escalate(std::uint32_t pid);
  void requestRenegotiation(std::uint32_t pid, bool down);
  /// Causal tracing: mark an actuator/resource-knob invocation inside the
  /// active diagnosis span (no-op when untraced).
  void markActuation(std::string_view what);
  void setupTelemetry();
  /// One telemetry period: sample gauges, cut a rollup window, evaluate
  /// SLOs, publish the window to the domain manager.
  void telemetryTick();
  void onSloBreach(const obs::SloObjective& objective,
                   const obs::SloStatus& status);
  void onSloRecover(const obs::SloObjective& objective);

  sim::Simulation& sim_;
  osim::Host& host_;
  std::string traceName_;  // "qoshm:<host>", cached off the trace hot path
  HostManagerConfig config_;
  rules::InferenceEngine engine_;
  CpuResourceManager cpuManager_;
  MemoryResourceManager memoryManager_;
  std::unique_ptr<net::RpcEndpoint> rpc_;
  RestartHandler restartHandler_;
  std::map<std::uint32_t, instrument::ViolationReport> lastReport_;
  std::map<std::uint32_t, sim::SimTime> lastEscalationAt_;
  std::map<std::uint32_t, sim::SimTime> lastReportAt_;  // TTL bookkeeping
  std::map<std::uint32_t, sim::SimTime> lastRenegotiationAt_;
  sim::SimDuration escalationThrottle_ = sim::sec(2);
  sim::SimDuration renegotiationThrottle_ = sim::sec(2);
  bool crashed_ = false;

  // Causal tracing: the diagnosis span of the report currently being
  // handled (escalations and actuations nest under it) and the span of the
  // rule firing in flight. Both invalid when observability is off.
  sim::TraceContext activeCtx_;
  sim::TraceContext currentRuleSpan_;
  sim::HistogramHandle ruleFireNanos_;

  /// Self-telemetry state, allocated only when telemetryInterval > 0. The
  /// registry is PRIVATE to this manager and uses host-agnostic metric names
  /// ("qos.reaction_latency_us", not "qos.<host>.reaction..."): attribution
  /// travels in TelemetrySnapshot::source, so the domain manager can merge
  /// same-named histograms from every host into one distribution.
  struct Telemetry {
    sim::MetricRegistry registry;
    std::unique_ptr<sim::RollupWindow> rollup;
    obs::SloTracker slo;
    sim::Counter reports;        // hm.reports
    sim::Counter violations;     // hm.violations (new episodes)
    sim::Counter escalations;    // hm.escalations
    sim::Counter rpcRetries;     // rpc.retries (delta-fed from the endpoint)
    sim::Counter rpcTimeouts;    // rpc.timeouts
    sim::HistogramHandle reactionUs;    // qos.reaction_latency_us (closed)
    sim::HistogramHandle violationAge;  // hm.violation_age_us (open, per tick)
    sim::HistogramHandle factDepth;     // hm.fact_depth (per tick)
    sim::HistogramHandle ruleFireNs;    // rules.fire_wall_ns — LOCAL ONLY:
                                        // wall-clock values must never reach
                                        // a snapshot (payload size feeds the
                                        // simulated transmission time).
    std::map<std::uint32_t, sim::SimTime> violationSince;  // open episodes
    std::map<std::string, rules::FactId> breachFacts;  // objective -> fact
    std::uint64_t lastRetries = 0;   // endpoint counter baselines
    std::uint64_t lastTimeouts = 0;
    std::uint64_t lastEscalations = 0;
    std::uint64_t publishes = 0;
    std::uint64_t breachEdges = 0;
  };
  std::unique_ptr<Telemetry> telemetry_;

  std::uint64_t reports_ = 0;
  std::uint64_t boosts_ = 0;
  std::uint64_t decays_ = 0;
  std::uint64_t escalations_ = 0;
  std::uint64_t rtGrants_ = 0;
  std::uint64_t memGrowths_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t rulePushes_ = 0;
  std::uint64_t adaptationsRequested_ = 0;
  std::uint64_t staleExpiries_ = 0;
  std::uint64_t daemonCrashes_ = 0;
  std::uint64_t contractEvents_ = 0;
  std::uint64_t renegotiationsRequested_ = 0;

 public:
  [[nodiscard]] std::uint64_t adaptationsRequested() const {
    return adaptationsRequested_;
  }
};

}  // namespace softqos::manager
