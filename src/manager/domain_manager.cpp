#include "manager/domain_manager.hpp"

#include <sstream>

#include "manager/default_rules.hpp"
#include "net/nic.hpp"
#include "rules/parser.hpp"
#include "sim/text.hpp"

namespace softqos::manager {

using rules::Value;

namespace {

/// Timeout of one diagnosis / corrective RPC attempt.
constexpr sim::SimDuration kRpcTimeout = sim::sec(2);
/// Timeout of one heartbeat probe.
constexpr sim::SimDuration kHeartbeatTimeout = sim::msec(500);
/// Consecutive missed probes before a host-failure hypothesis is asserted.
constexpr int kHeartbeatMissThreshold = 3;

}  // namespace

QoSDomainManager::QoSDomainManager(sim::Simulation& simulation,
                                   osim::Host& seat, net::Network& network,
                                   std::string name, DomainManagerConfig config)
    : sim_(simulation),
      network_(network),
      name_(std::move(name)),
      traceName_("qosdm:" + name_),
      config_(config),
      engine_("qosdm:" + name_),
      ruleFireNanos_(
          simulation.localMetrics().histogramHandle("rules.fire_wall_ns")) {
  registerEngineFunctions();
  installFireHooks();
  loadDefaultRules();

  rpc_ = std::make_unique<net::RpcEndpoint>(network_, seat, config_.rpcPort);
  rpc_->setHandler("escalate", [this](const std::string& body,
                                      net::RpcEndpoint::Responder respond) {
    // Frames: bare report (0 hops), "FWD|report" (1 hop, the legacy peer
    // protocol), "FWD<n>|report" (n hops across the management tree).
    int hops = 0;
    std::string payload = body;
    if (body.starts_with("FWD")) {
      const auto frame = sim::split(body, '|', 2);
      const std::string_view count = frame[0].substr(3);
      hops = count.empty() ? 1 : sim::parseNumber<int>(count).value_or(0);
      if (frame.size() != 2 || hops < 1) {
        respond("ERR:bad-report");
        return;
      }
      payload = frame[1];
    }
    const auto report = instrument::ViolationReport::parse(payload);
    if (!report.has_value()) {
      respond("ERR:bad-report");
      return;
    }
    handleEscalation(*report, hops);
    respond("OK");
  });

  // Streaming telemetry from host managers and child domain managers (one-
  // way publishes: the responder discards whatever we answer). Malformed
  // frames are dropped silently — telemetry is best-effort by design.
  rpc_->setHandler("telemetry", [this](const std::string& body,
                                       net::RpcEndpoint::Responder respond) {
    const auto snapshot = sim::TelemetrySnapshot::parse(body);
    if (snapshot.has_value()) {
      ++telemetryFrames_;
      telemetry_.ingest(*snapshot);
    }
    respond("OK");
  });

  if (config_.aggregationInterval > 0 && !config_.parentHost.empty()) {
    lastAggregateCut_ = sim_.now();
    sim_.every(config_.aggregationInterval, [this] { publishAggregate(); });
  }

  if (config_.channelPollInterval > 0) {
    // Shard-safe sampling: requires the topology (and shard placement) to be
    // final by the time this manager is constructed.
    monitor_ = std::make_unique<net::ChannelMonitor>(network_);
    monitor_->arm(config_.channelPollInterval);
  }
}

void QoSDomainManager::addManagedHost(const std::string& hostName) {
  managedHosts_.insert(hostName);
  if (config_.heartbeatInterval > 0) armHeartbeat();
}

net::RpcEndpoint::CallOptions QoSDomainManager::rpcOptions() const {
  net::RpcEndpoint::CallOptions options;
  options.timeout = kRpcTimeout;
  options.maxAttempts = config_.rpcMaxAttempts;
  return options;
}

void QoSDomainManager::armHeartbeat() {
  if (heartbeatEvent_ != sim::kInvalidEvent) return;
  heartbeatEvent_ = sim_.every(config_.heartbeatInterval,
                               [this] { pingManagedHosts(); });
}

void QoSDomainManager::pingManagedHosts() {
  if (crashed_) return;
  // std::set iteration: alphabetical host order, deterministic across runs.
  for (const std::string& hostName : managedHosts_) {
    HostLiveness& lv = liveness_[hostName];
    if (lv.probePending) continue;  // previous probe still in flight
    lv.probePending = true;
    ++heartbeatsSent_;
    net::RpcEndpoint::CallOptions probe;
    probe.timeout = kHeartbeatTimeout;
    probe.maxAttempts = 1;  // misses ARE the signal; retries would blunt it
    rpc_->call(hostName, config_.hostManagerPort, "hm-ping", "",
               [this, hostName](bool ok, const std::string&) {
                 onHeartbeatReply(hostName, ok);
               },
               probe);
  }
}

void QoSDomainManager::onHeartbeatReply(const std::string& hostName, bool ok) {
  HostLiveness& lv = liveness_[hostName];
  lv.probePending = false;
  if (ok) {
    lv.consecutiveMisses = 0;
    lv.everAlive = true;
    if (lv.down) markHostRecovered(hostName);
    return;
  }
  ++heartbeatMisses_;
  ++lv.consecutiveMisses;
  // A host that never answered is unknown, not failed: the testbed seats
  // this manager on a host with no Host Manager of its own, and a fresh
  // deployment must not diagnose half its fleet dead before daemons finish
  // starting.
  if (!lv.everAlive || lv.down) return;
  if (lv.consecutiveMisses >= kHeartbeatMissThreshold) {
    markHostDown(hostName);
  }
}

void QoSDomainManager::markHostDown(const std::string& hostName) {
  HostLiveness& lv = liveness_[hostName];
  lv.down = true;
  ++hostFailures_;
  sim_.warn(traceName_, [&] {
    return "heartbeats lapsed: asserting host-failure hypothesis for " +
           hostName;
  });
  rules::SlotMap slots;
  slots.emplace("host", Value::symbol(hostName));
  lv.failureFact = engine_.facts().assertFact("host-failure", std::move(slots));
  engine_.run();
}

void QoSDomainManager::markHostRecovered(const std::string& hostName) {
  HostLiveness& lv = liveness_[hostName];
  lv.down = false;
  ++hostRecoveries_;
  sim_.info(traceName_, [&] { return "host " + hostName + " recovered"; });
  if (lv.failureFact != rules::kNoFact) {
    engine_.facts().retract(lv.failureFact);
    lv.failureFact = rules::kNoFact;
  }
  engine_.run();
  revalidateServicesOn(hostName);
}

void QoSDomainManager::revalidateServicesOn(const std::string& hostName) {
  // A restarted host comes back with an empty process table: every service
  // bound to it must be probed and, when dead, restarted through the host
  // manager's restart hook.
  for (const auto& [exec, binding] : services_) {
    if (binding.serverHost != hostName) continue;
    const osim::Pid pid = binding.serverPid;
    rpc_->call(hostName, config_.hostManagerPort, "host-stats",
               "pid=" + std::to_string(pid),
               [this, hostName, pid](bool ok, const std::string& body) {
                 if (!ok) return;  // still unreachable; next recovery retries
                 const sim::FieldReader fields(body);
                 if (fields.number<int>("alive").value_or(0) != 0) return;
                 ++recoveryRestarts_;
                 ++restarts_;
                 sim_.info(traceName_, [&] {
                   return "revalidation: restarting dead service pid " +
                          std::to_string(pid) + " on " + hostName;
                 });
                 rpc_->call(hostName, config_.hostManagerPort, "restart",
                            "pid=" + std::to_string(pid),
                            [](bool, const std::string&) {}, rpcOptions());
               },
               rpcOptions());
  }
}

bool QoSDomainManager::hostMarkedDown(const std::string& hostName) const {
  const auto it = liveness_.find(hostName);
  return it != liveness_.end() && it->second.down;
}

bool QoSDomainManager::crash() {
  if (crashed_) return false;
  crashed_ = true;
  sim_.warn(traceName_, "domain manager daemon crashed");
  rpc_->setEnabled(false);
  // Working memory and liveness hypotheses are lost with the daemon.
  engine_.facts().clear();
  for (auto& [host, lv] : liveness_) {
    (void)host;
    lv = HostLiveness{};
  }
  return true;
}

bool QoSDomainManager::restartDaemon() {
  if (!crashed_) return false;
  crashed_ = false;
  sim_.info(traceName_, "domain manager daemon restarted");
  rpc_->setEnabled(true);
  return true;
}

bool QoSDomainManager::manages(const std::string& hostName) const {
  return managedHosts_.contains(hostName);
}

void QoSDomainManager::addPeer(const std::string& seatHostName, int port) {
  peers_.emplace_back(seatHostName, port);
}

void QoSDomainManager::registerService(const std::string& clientExecutable,
                                       const std::string& serverHost,
                                       osim::Pid serverPid) {
  services_[clientExecutable] = ServiceBinding{serverHost, serverPid};
}

void QoSDomainManager::unregisterService(const std::string& clientExecutable) {
  services_.erase(clientExecutable);
}

std::vector<std::string> QoSDomainManager::loadRuleText(const std::string& text) {
  return rules::loadRules(engine_, text);
}

void QoSDomainManager::loadDefaultRules() {
  loadRuleText(defaultDomainRules());
}

void QoSDomainManager::distributeHostRules(const std::string& ruleText) {
  for (const std::string& hostName : managedHosts_) {
    rpc_->call(hostName, config_.hostManagerPort, "set-rules", ruleText,
               [this, hostName](bool ok, const std::string& body) {
                 if (!ok || body.rfind("OK", 0) != 0) {
                   sim_.warn(traceName_, [&] {
                     return "rule push to " + hostName + " failed";
                   });
                 }
               });
  }
}

void QoSDomainManager::installFireHooks() {
  // Same shape as the host manager's hooks: per-rule spans under the active
  // fault-localization span plus a wall-clock firing-cost histogram.
  engine_.setFireHooks(
      [this](const rules::Rule& rule,
             const std::vector<rules::FactId>& matched) -> bool {
        sim::SpanObserver* o = sim_.observer();
        if (o == nullptr) return false;
        if (activeCtx_.valid()) {
          currentRuleSpan_ = o->beginSpan(sim_.now(), activeCtx_,
                                          "rule:" + rule.name, traceName_);
          std::string facts;
          for (const rules::FactId id : matched) {
            if (!facts.empty()) facts += ",";
            facts += id == rules::kNoFact ? "-" : std::to_string(id);
          }
          o->annotate(currentRuleSpan_, "facts", facts);
        }
        return true;
      },
      [this](const rules::Rule& /*rule*/,
             const std::vector<rules::FactId>& /*matched*/,
             std::uint64_t wallNanos) {
        ruleFireNanos_.record(static_cast<double>(wallNanos));
        if (currentRuleSpan_.valid()) {
          if (sim::SpanObserver* o = sim_.observer()) {
            o->endSpan(sim_.now(), currentRuleSpan_);
          }
          currentRuleSpan_ = sim::TraceContext{};
        }
      });
}

void QoSDomainManager::markAction(std::string_view what) {
  if (!activeCtx_.valid()) return;
  if (sim::SpanObserver* o = sim_.observer()) {
    o->instant(sim_.now(), activeCtx_, "corrective:" + std::string(what),
               traceName_);
  }
}

void QoSDomainManager::registerEngineFunctions() {
  engine_.registerFunction("diagnose", [this](const std::vector<Value>& args) {
    if (args.size() != 2) return;
    const std::string kind = args[1].asString();
    ++diagnoses_[kind];
    lastDiagnosis_ = kind;
    if (activeCtx_.valid()) {
      if (sim::SpanObserver* o = sim_.observer()) {
        o->annotate(activeCtx_, "diagnosis", kind);
      }
    }
    sim_.info(traceName_, [&] { return "diagnosis: " + kind; });
  });

  engine_.registerFunction("boost-server", [this](const std::vector<Value>& args) {
    if (args.size() != 3) return;
    const std::string serverHost = args[0].asString();
    const auto pid = static_cast<osim::Pid>(args[1].asInt());
    const int delta = static_cast<int>(args[2].asInt());
    std::ostringstream body;
    body << "pid=" << pid << ";delta=" << delta;
    ++serverBoosts_;
    markAction("boost-server");
    auto options = rpcOptions();
    options.context = activeCtx_;
    rpc_->call(serverHost, config_.hostManagerPort, "boost", body.str(),
               [](bool, const std::string&) {}, options);
  });

  engine_.registerFunction("restart-server",
                           [this](const std::vector<Value>& args) {
    if (args.size() != 2) return;
    const std::string serverHost = args[0].asString();
    const auto pid = static_cast<osim::Pid>(args[1].asInt());
    ++restarts_;
    markAction("restart-server");
    auto options = rpcOptions();
    options.context = activeCtx_;
    rpc_->call(serverHost, config_.hostManagerPort, "restart",
               "pid=" + std::to_string(pid), [](bool, const std::string&) {},
               options);
  });

  engine_.registerFunction("reroute-congested",
                           [this](const std::vector<Value>&) {
    markAction("reroute-congested");
    rerouteAroundCongestion();
  });

  engine_.registerFunction("log", [this](const std::vector<Value>& args) {
    sim_.info(traceName_, [&] {
      std::ostringstream out;
      for (const Value& v : args) out << v.toString() << " ";
      return out.str();
    });
  });
}

double QoSDomainManager::sampleMaxChannelUtilization() {
  if (monitor_ != nullptr) {
    // Shard-safe path: read the monitor's combined view (one publish delay
    // behind the probes) instead of sweeping — and mutating — every
    // channel's poll state from this shard.
    hottestChannel_ = monitor_->hottest();
    return monitor_->maxUtilization();
  }
  double maxUtil = 0.0;
  hottestChannel_ = {net::kNoNode, net::kNoNode};
  for (const auto& [key, channel] : network_.channels()) {
    const double util = channel->utilizationSinceLastPoll();
    if (util > maxUtil) {
      maxUtil = util;
      hottestChannel_ = key;
    }
  }
  return maxUtil;
}

void QoSDomainManager::rerouteAroundCongestion() {
  // Adaptation example from Section 3.1: "rerouting traffic around a
  // congested network switch". Disable the hottest link; keep the change
  // only if the diagnosed client/server pair remains connected.
  if (hottestChannel_.first == net::kNoNode) return;
  net::Nic* client = network_.nicForHost(currentClientHost_);
  net::Nic* server = network_.nicForHost(currentServerHost_);
  if (client == nullptr || server == nullptr) return;
  if (!network_.setLinkEnabled(hottestChannel_.first, hottestChannel_.second,
                               false)) {
    return;
  }
  if (network_.nextHop(server->id(), client->id()) == net::kNoNode) {
    network_.setLinkEnabled(hottestChannel_.first, hottestChannel_.second,
                            true);
    ++rerouteRollbacks_;
    sim_.info(traceName_, "reroute rolled back: no alternative path exists");
    return;
  }
  ++reroutes_;
  sim_.info(traceName_, "rerouted traffic around congested link");
}

void QoSDomainManager::forwardEscalation(
    const instrument::ViolationReport& report, int hops) {
  // Frame the next hop: hop 1 keeps the legacy "FWD|" wire form so a
  // two-tier deployment with maxEscalationHops = 1 is byte-identical.
  const int next = hops + 1;
  const std::string frame =
      (next <= 1 ? std::string("FWD|") : "FWD" + std::to_string(next) + "|") +
      report.serialize();
  if (!config_.parentHost.empty()) {
    // Tree routing: hand the alarm one tier up rather than flooding peers.
    ++forwards_;
    rpc_->call(config_.parentHost, config_.parentPort, "escalate", frame,
               [](bool, const std::string&) {});
    return;
  }
  for (const auto& [peerHost, peerPort] : peers_) {
    ++forwards_;
    rpc_->call(peerHost, peerPort, "escalate", frame,
               [](bool, const std::string&) {});
  }
}

void QoSDomainManager::handleEscalation(
    const instrument::ViolationReport& report, int hops) {
  if (crashed_) return;  // direct calls while the daemon is down go nowhere
  ++received_;

  const auto it = services_.find(report.executable);
  if (it == services_.end()) {
    // A mid-tier manager may simply not know the service: its parent holds
    // the wider registry, so spend a hop before declaring it unknown.
    if (!config_.parentHost.empty() && hops < config_.maxEscalationHops) {
      forwardEscalation(report, hops);
      return;
    }
    ++diagnoses_["unknown-service"];
    lastDiagnosis_ = "unknown-service";
    return;
  }
  const ServiceBinding binding = it->second;

  if (!manages(binding.serverHost)) {
    // The server lives in another domain: hand the alarm to the parent (or,
    // with no tree configured, to peers — hierarchical vs. arbitrary
    // interconnection, Section 9). The hop budget keeps loops out.
    if (hops >= config_.maxEscalationHops) return;
    forwardEscalation(report, hops);
    return;
  }

  // Sample the network first (cheap, local), then ask the server-side host
  // manager for CPU load and liveness (Section 5.3's domain rule).
  const std::uint64_t eid = nextEscalationId_++;

  // Causal tracing: fault localization covers the evidence gathering (the
  // host-stats query) and the rule-based diagnosis that follows it, as a
  // child of the episode context the escalated report carried.
  sim::TraceContext locSpan;
  if (report.context.valid()) {
    if (sim::SpanObserver* o = sim_.observer()) {
      locSpan = o->beginSpan(sim_.now(), report.context, "fault-localization",
                             traceName_);
      o->annotate(locSpan, "exec", report.executable);
      o->annotate(locSpan, "server", binding.serverHost);
    }
  }

  const double maxUtil = sampleMaxChannelUtilization();
  {
    rules::SlotMap slots;
    slots.emplace("id", Value::integer(static_cast<std::int64_t>(eid)));
    slots.emplace("max-util", Value::real(maxUtil));
    engine_.facts().assertFact("net-stats", std::move(slots));
  }

  auto options = rpcOptions();
  options.context = locSpan;
  rpc_->call(
      binding.serverHost, config_.hostManagerPort, "host-stats",
      "pid=" + std::to_string(binding.serverPid),
      [this, eid, report, binding, locSpan](bool ok, const std::string& body) {
        if (crashed_) return;  // daemon died while the query was in flight
        const sim::FieldReader fields(ok ? body : std::string_view{});
        const bool alive = fields.number<int>("alive").value_or(0) != 0;
        const double load = fields.number<double>("load").value_or(0.0);
        const double slowdown =
            fields.number<double>("slowdown").value_or(100.0);
        // An unreachable host manager is indistinguishable from a dead one;
        // treat it as a process/host failure.
        runDiagnosis(eid, report, binding, alive, load, slowdown, locSpan);
      },
      options);
}

void QoSDomainManager::runDiagnosis(std::uint64_t escalationId,
                                    const instrument::ViolationReport& report,
                                    const ServiceBinding& binding, bool alive,
                                    double load, double slowdown,
                                    const sim::TraceContext& locSpan) {
  currentClientHost_ = report.hostName;
  currentServerHost_ = binding.serverHost;
  activeCtx_ = locSpan;
  const auto eid = static_cast<std::int64_t>(escalationId);
  {
    rules::SlotMap slots;
    slots.emplace("id", Value::integer(eid));
    slots.emplace("client", Value::symbol(report.hostName));
    slots.emplace("cpid", Value::integer(report.pid));
    slots.emplace("exec", Value::symbol(report.executable));
    slots.emplace("server", Value::symbol(binding.serverHost));
    slots.emplace("spid", Value::integer(binding.serverPid));
    slots.emplace("fps", Value::real(report.metric("frame_rate").value_or(0)));
    slots.emplace("buffer", Value::real(report.metric("buffer_size").value_or(0)));
    engine_.facts().assertFact("escalation", std::move(slots));
  }
  {
    rules::SlotMap slots;
    slots.emplace("id", Value::integer(eid));
    slots.emplace("alive", Value::integer(alive ? 1 : 0));
    slots.emplace("load", Value::real(load));
    slots.emplace("slowdown", Value::real(slowdown));
    engine_.facts().assertFact("server-stats", std::move(slots));
  }

  engine_.run();
  retractEscalationFacts(escalationId);

  if (activeCtx_.valid()) {
    if (sim::SpanObserver* o = sim_.observer()) {
      o->endSpan(sim_.now(), activeCtx_);
    }
    activeCtx_ = sim::TraceContext{};
  }
}

void QoSDomainManager::publishAggregate() {
  const sim::SimTime now = sim_.now();
  if (crashed_) {
    // The window is lost with the daemon: advance the baselines so the
    // restart does not replay pre-crash data upward.
    (void)telemetry_.cutDelta("dm:" + name_, lastAggregateCut_, now);
    lastAggregateCut_ = now;
    return;
  }
  sim::TelemetrySnapshot snap =
      telemetry_.cutDelta("dm:" + name_, lastAggregateCut_, now);
  lastAggregateCut_ = now;
  // Quiet domains publish nothing: the root's fabric load tracks activity
  // and fan-out, never raw host count.
  if (snap.counters.empty() && snap.histograms.empty()) return;
  ++aggregatePublishes_;
  rpc_->notify(config_.parentHost, config_.parentPort, "telemetry",
               snap.serialize());
}

void QoSDomainManager::retractEscalationFacts(std::uint64_t escalationId) {
  const rules::SlotMap ofEscalation{
      {"id", Value::integer(static_cast<std::int64_t>(escalationId))}};
  for (const char* tmpl : {"escalation", "server-stats", "net-stats"}) {
    engine_.facts().retractWhere(tmpl, ofEscalation);
  }
}

}  // namespace softqos::manager
