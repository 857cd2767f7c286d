// The QoS Domain Manager (Section 5.3): locates the source of problems that
// span hosts. On an escalated alarm it queries the server-side QoS Host
// Manager (CPU load, liveness, memory), samples switch utilization, asserts
// the observations as facts and lets its rule base diagnose: process
// failure, server overload, network congestion, or unknown — then drives the
// corrective action (restart / remote boost). Escalations for hosts outside
// its domain are forwarded to peer domain managers (Section 9).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "instrument/report.hpp"
#include "net/monitor.hpp"
#include "net/rpc.hpp"
#include "osim/host.hpp"
#include "rules/engine.hpp"
#include "sim/rollup.hpp"
#include "sim/simulation.hpp"

namespace softqos::manager {

struct DomainManagerConfig {
  int rpcPort = 7100;
  int hostManagerPort = 7001;  // where host managers listen in this domain
  /// Heartbeat/liveness protocol over the managed Host Managers: every
  /// `heartbeatInterval` the domain manager probes each managed host's
  /// manager daemon ("hm-ping"); three consecutive unanswered probes on a
  /// host that has answered at least once assert a `host-failure`
  /// hypothesis fact for the rule base. 0 disables the protocol entirely
  /// (default: no new events, byte-identical runs).
  sim::SimDuration heartbeatInterval = 0;
  /// Retry policy for diagnosis/corrective RPCs (host-stats, boost,
  /// restart): attempts = 1 reproduces the old single-shot behaviour.
  int rpcMaxAttempts = 1;

  // ---- Domain-of-domains tree (rack -> cluster -> region) ----
  /// Seat of the parent domain manager (empty: this manager is a root, the
  /// two-tier configuration the paper describes). A mid-tier manager
  /// aggregates child telemetry locally and republishes only the merged
  /// delta upward (see aggregationInterval), and routes escalations it
  /// cannot place to its parent instead of flooding peers — so fabric
  /// traffic at the root grows with tier fan-out, not host count.
  std::string parentHost;
  int parentPort = 7100;
  /// Upward telemetry republish period: every interval the manager cuts a
  /// delta rollup of everything its children reported since the last cut
  /// and publishes one "telemetry" frame to the parent. 0 (default): never
  /// republish — root / legacy behaviour, byte-identical runs.
  sim::SimDuration aggregationInterval = 0;
  /// Escalation forwarding budget across the management tree. 1 reproduces
  /// the legacy single-hop peer protocol byte-for-byte (frames stay
  /// "FWD|..."); a depth-d tree needs d-1 hops for a leaf alarm to reach
  /// the root (frames carry the hop count as "FWD<n>|...").
  int maxEscalationHops = 1;
  /// Shard-safe channel utilization sampling: when > 0, a ChannelMonitor
  /// probes each shard's channels on this period and the diagnosis path
  /// reads the monitor's (slightly delayed) view instead of sweeping the
  /// whole fabric inline — the sweep mutates per-channel poll state and is
  /// only legal single-worker. Required for multi-worker runs; 0 (default)
  /// keeps the legacy inline sweep, byte-identical runs.
  sim::SimDuration channelPollInterval = 0;
};

class QoSDomainManager {
 public:
  QoSDomainManager(sim::Simulation& simulation, osim::Host& seat,
                   net::Network& network, std::string name,
                   DomainManagerConfig config = {});

  QoSDomainManager(const QoSDomainManager&) = delete;
  QoSDomainManager& operator=(const QoSDomainManager&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] rules::InferenceEngine& engine() { return engine_; }

  /// Domain membership: the hosts whose host managers this manager drives.
  void addManagedHost(const std::string& hostName);
  [[nodiscard]] bool manages(const std::string& hostName) const;

  /// Peer domain managers (for problems spanning domains).
  void addPeer(const std::string& seatHostName, int port);

  /// Service topology (from configuration management, cf. [14] in the
  /// paper): which host/pid serves a given client executable.
  void registerService(const std::string& clientExecutable,
                       const std::string& serverHost, osim::Pid serverPid);
  void unregisterService(const std::string& clientExecutable);

  std::vector<std::string> loadRuleText(const std::string& text);
  void loadDefaultRules();

  /// Push a host-manager rule set to every managed host (dynamic rule
  /// distribution, Section 9).
  void distributeHostRules(const std::string& ruleText);

  /// Direct entry point (also wired to the "escalate" RPC method). `hops`
  /// counts the forwards the report already took (0 for a host manager's
  /// own escalation).
  void handleEscalation(const instrument::ViolationReport& report, int hops);

  // ---- Heartbeat / liveness (Section 5-6 fault localization) ----

  /// True while the liveness protocol currently believes the host is dead.
  [[nodiscard]] bool hostMarkedDown(const std::string& hostName) const;

  // ---- Fault injection: manager-daemon crash/restart ----
  bool crash();
  bool restartDaemon();
  [[nodiscard]] bool isCrashed() const { return crashed_; }

  // ---- Statistics ----
  [[nodiscard]] std::uint64_t escalationsReceived() const { return received_; }
  [[nodiscard]] std::uint64_t forwardsSent() const { return forwards_; }
  [[nodiscard]] std::uint64_t serverBoostsSent() const { return serverBoosts_; }
  [[nodiscard]] std::uint64_t restartsRequested() const { return restarts_; }
  [[nodiscard]] std::uint64_t reroutesPerformed() const { return reroutes_; }
  [[nodiscard]] std::uint64_t rerouteRollbacks() const { return rerouteRollbacks_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& diagnosisCounts()
      const {
    return diagnoses_;
  }
  [[nodiscard]] const std::string& lastDiagnosis() const { return lastDiagnosis_; }
  [[nodiscard]] std::uint64_t heartbeatsSent() const { return heartbeatsSent_; }
  [[nodiscard]] std::uint64_t heartbeatMisses() const { return heartbeatMisses_; }
  [[nodiscard]] std::uint64_t hostFailuresDetected() const { return hostFailures_; }
  [[nodiscard]] std::uint64_t hostRecoveriesDetected() const {
    return hostRecoveries_;
  }
  /// Dead services restarted by post-recovery revalidation.
  [[nodiscard]] std::uint64_t recoveryRestarts() const { return recoveryRestarts_; }

  // ---- Streaming telemetry (host managers publish over "telemetry") ----
  /// Domain-wide aggregation of per-host rollup windows: histograms merged
  /// bucket-wise across hosts, counters summed, latest snapshot per source.
  /// In a tree, child domain managers publish here too (as "dm:<name>"), so
  /// an upper tier sees one source per child domain, not per host.
  [[nodiscard]] const sim::TelemetryAggregator& telemetry() const {
    return telemetry_;
  }
  /// Delta rollups published to the parent (tree mode only).
  [[nodiscard]] std::uint64_t aggregatePublishes() const {
    return aggregatePublishes_;
  }
  /// Telemetry frames received from children (hosts or child domains).
  [[nodiscard]] std::uint64_t telemetryFramesReceived() const {
    return telemetryFrames_;
  }

 private:
  struct ServiceBinding {
    std::string serverHost;
    osim::Pid serverPid = 0;
  };

  struct HostLiveness {
    int consecutiveMisses = 0;
    bool everAlive = false;   // a host that never answered is "unknown", not dead
    bool down = false;
    bool probePending = false;
    rules::FactId failureFact = rules::kNoFact;
  };

  void registerEngineFunctions();
  void installFireHooks();
  /// Causal tracing: mark a corrective action inside the active
  /// fault-localization span (no-op when untraced).
  void markAction(std::string_view what);
  [[nodiscard]] net::RpcEndpoint::CallOptions rpcOptions() const;
  void armHeartbeat();
  void pingManagedHosts();
  void onHeartbeatReply(const std::string& hostName, bool ok);
  void markHostDown(const std::string& hostName);
  void markHostRecovered(const std::string& hostName);
  void revalidateServicesOn(const std::string& hostName);
  void runDiagnosis(std::uint64_t escalationId,
                    const instrument::ViolationReport& report,
                    const ServiceBinding& binding, bool alive, double load,
                    double slowdown, const sim::TraceContext& locSpan);
  [[nodiscard]] double sampleMaxChannelUtilization();
  void retractEscalationFacts(std::uint64_t escalationId);
  void rerouteAroundCongestion();
  /// Route an escalation one tier up (parent when configured, else peers).
  void forwardEscalation(const instrument::ViolationReport& report, int hops);
  /// Cut and publish the child-telemetry delta rollup to the parent.
  void publishAggregate();

  sim::Simulation& sim_;
  net::Network& network_;
  std::string name_;
  std::string traceName_;  // "qosdm:<name>", cached off the trace hot path
  DomainManagerConfig config_;
  rules::InferenceEngine engine_;
  std::unique_ptr<net::RpcEndpoint> rpc_;
  std::unique_ptr<net::ChannelMonitor> monitor_;  // channelPollInterval > 0
  std::set<std::string> managedHosts_;
  std::vector<std::pair<std::string, int>> peers_;
  std::map<std::string, ServiceBinding> services_;
  std::map<std::string, HostLiveness> liveness_;
  sim::EventId heartbeatEvent_ = sim::kInvalidEvent;
  bool crashed_ = false;

  // Causal tracing: the fault-localization span of the escalation being
  // diagnosed (corrective RPCs nest under it) and the rule firing in
  // flight. Both invalid when observability is off. Heartbeat probes carry
  // no context by design — they are not part of any causal chain.
  sim::TraceContext activeCtx_;
  sim::TraceContext currentRuleSpan_;
  sim::HistogramHandle ruleFireNanos_;

  std::uint64_t nextEscalationId_ = 1;
  std::uint64_t received_ = 0;
  std::uint64_t reroutes_ = 0;
  std::uint64_t rerouteRollbacks_ = 0;
  std::pair<net::NodeId, net::NodeId> hottestChannel_{net::kNoNode,
                                                      net::kNoNode};
  std::string currentClientHost_;  // context of the escalation being diagnosed
  std::string currentServerHost_;
  std::uint64_t forwards_ = 0;
  std::uint64_t serverBoosts_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t heartbeatsSent_ = 0;
  std::uint64_t heartbeatMisses_ = 0;
  std::uint64_t hostFailures_ = 0;
  std::uint64_t hostRecoveries_ = 0;
  std::uint64_t recoveryRestarts_ = 0;
  std::map<std::string, std::uint64_t> diagnoses_;
  std::string lastDiagnosis_;
  sim::TelemetryAggregator telemetry_;
  sim::SimTime lastAggregateCut_ = 0;
  std::uint64_t aggregatePublishes_ = 0;
  std::uint64_t telemetryFrames_ = 0;
};

}  // namespace softqos::manager
