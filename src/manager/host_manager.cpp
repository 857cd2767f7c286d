#include "manager/host_manager.hpp"

#include <algorithm>
#include <sstream>

#include "manager/default_rules.hpp"
#include "rules/parser.hpp"
#include "sim/text.hpp"

namespace softqos::manager {

using rules::Value;

namespace {

/// Timeout of one escalation / renegotiation RPC attempt.
constexpr sim::SimDuration kEscalationTimeout = sim::sec(2);
/// Retained self-telemetry rollup windows (must cover the longest SLO
/// window).
constexpr std::size_t kTelemetryMaxWindows = 64;

}  // namespace

QoSHostManager::QoSHostManager(sim::Simulation& simulation, osim::Host& host,
                               net::Network* network, HostManagerConfig config)
    : sim_(simulation),
      host_(host),
      traceName_("qoshm:" + host.name()),
      config_(std::move(config)),
      engine_("qoshm:" + host.name()),
      cpuManager_(host),
      memoryManager_(host),
      ruleFireNanos_(
          simulation.localMetrics().histogramHandle("rules.fire_wall_ns")) {
  registerEngineFunctions();
  installFireHooks();
  loadDefaultRules();

  // Coordinators reach the manager through the host message queue.
  installQueueReceiver();

  if (network != nullptr) {
    rpc_ = std::make_unique<net::RpcEndpoint>(*network, host_, config_.rpcPort);
    setupRpcHandlers();
  }

  if (config_.factTtl > 0) {
    // Sweep at half the TTL so a fact lives at most 1.5x the bound.
    const sim::SimDuration sweep = std::max<sim::SimDuration>(1, config_.factTtl / 2);
    sim_.every(sweep, [this] { sweepStaleFacts(); });
  }

  setupTelemetry();
}

void QoSHostManager::setupTelemetry() {
  if (config_.telemetryInterval <= 0) return;
  telemetry_ = std::make_unique<Telemetry>();
  Telemetry& t = *telemetry_;

  sim::RollupConfig rollupCfg;
  rollupCfg.window = config_.telemetryInterval;
  rollupCfg.maxWindows = kTelemetryMaxWindows;
  t.rollup = std::make_unique<sim::RollupWindow>(sim_, t.registry, rollupCfg);

  t.reports = t.registry.counterHandle("hm.reports");
  t.violations = t.registry.counterHandle("hm.violations");
  t.escalations = t.registry.counterHandle("hm.escalations");
  t.rpcRetries = t.registry.counterHandle("rpc.retries");
  t.rpcTimeouts = t.registry.counterHandle("rpc.timeouts");
  t.reactionUs = t.registry.histogramHandle("qos.reaction_latency_us");
  t.violationAge = t.registry.histogramHandle("hm.violation_age_us");
  t.factDepth = t.registry.histogramHandle("hm.fact_depth");
  t.ruleFireNs = t.registry.histogramHandle("rules.fire_wall_ns");
  for (const char* name : {"hm.reports", "hm.violations", "hm.escalations",
                           "rpc.retries", "rpc.timeouts"}) {
    t.rollup->trackCounter(name);
  }
  for (const char* name : {"qos.reaction_latency_us", "hm.violation_age_us",
                           "hm.fact_depth", "rules.fire_wall_ns"}) {
    t.rollup->trackHistogram(name);
  }

  for (const obs::SloObjective& objective : config_.slos) {
    t.slo.addObjective(objective);
  }
  t.slo.setHandlers(
      [this](const obs::SloObjective& o, const obs::SloStatus& s) {
        onSloBreach(o, s);
      },
      [this](const obs::SloObjective& o, const obs::SloStatus&) {
        onSloRecover(o);
      });

  sim_.every(config_.telemetryInterval, [this] { telemetryTick(); });
}

void QoSHostManager::telemetryTick() {
  Telemetry& t = *telemetry_;
  if (crashed_) {
    // The dead daemon samples nothing and publishes nothing, but the window
    // grid keeps ticking so the outage shows up as empty buckets (and the
    // post-restart deltas don't lump the downtime into one giant window).
    t.rollup->tick();
    return;
  }

  const sim::SimTime now = sim_.now();
  t.factDepth.record(static_cast<double>(engine_.facts().size()));
  // Open violation episodes burn reaction-latency budget while still live:
  // each tick samples the age of every in-flight violation, so a stuck
  // outage breaches the SLO before it ever resolves.
  for (const auto& [pid, since] : t.violationSince) {
    t.violationAge.record(static_cast<double>(now - since));
  }
  if (rpc_ != nullptr) {
    t.rpcRetries.add(static_cast<std::int64_t>(rpc_->retries() - t.lastRetries));
    t.rpcTimeouts.add(
        static_cast<std::int64_t>(rpc_->timeouts() - t.lastTimeouts));
    t.lastRetries = rpc_->retries();
    t.lastTimeouts = rpc_->timeouts();
  }
  t.escalations.add(
      static_cast<std::int64_t>(escalations_ - t.lastEscalations));
  t.lastEscalations = escalations_;

  t.rollup->tick();
  t.slo.evaluate(*t.rollup, now);

  if (rpc_ != nullptr && !config_.domainManagerHost.empty()) {
    const sim::RollupWindow::Window* window = t.rollup->latest();
    if (window != nullptr) {
      sim::TelemetrySnapshot snapshot =
          sim::TelemetrySnapshot::fromWindow(host_.name(), *window);
      // Wall-clock histograms stay local: the snapshot's byte length feeds
      // the simulated transmission time, so publishing host-machine timings
      // would break same-seed replay.
      std::erase_if(snapshot.histograms, [](const auto& entry) {
        return entry.first == "rules.fire_wall_ns";
      });
      rpc_->notify(config_.domainManagerHost, config_.domainManagerPort,
                   "telemetry", snapshot.serialize());
      ++t.publishes;
    }
  }
}

void QoSHostManager::onSloBreach(const obs::SloObjective& objective,
                                 const obs::SloStatus& status) {
  Telemetry& t = *telemetry_;
  ++t.breachEdges;
  sim_.warn(traceName_, [&] {
    std::ostringstream out;
    out << "SLO breach: " << objective.name << " short-burn "
        << status.shortBurn << " long-burn " << status.longBurn;
    return out.str();
  });
  // The management plane's own health enters working memory on the same
  // terms as application state, so ordinary rules can react to it.
  rules::SlotMap slots;
  slots.emplace("objective", Value::symbol(objective.name));
  slots.emplace("metric", Value::symbol(objective.metric));
  slots.emplace("burn", Value::real(status.shortBurn));
  t.breachFacts[objective.name] =
      engine_.facts().assertFact("slo-breach", std::move(slots));
  engine_.run();
}

void QoSHostManager::onSloRecover(const obs::SloObjective& objective) {
  Telemetry& t = *telemetry_;
  sim_.info(traceName_, [&] { return "SLO recovered: " + objective.name; });
  const auto it = t.breachFacts.find(objective.name);
  if (it == t.breachFacts.end()) return;
  engine_.facts().retract(it->second);
  t.breachFacts.erase(it);
  engine_.run();  // negated slo-breach patterns may newly activate
}

const sim::RollupWindow* QoSHostManager::rollup() const {
  return telemetry_ ? telemetry_->rollup.get() : nullptr;
}

const obs::SloTracker* QoSHostManager::sloTracker() const {
  return telemetry_ ? &telemetry_->slo : nullptr;
}

std::uint64_t QoSHostManager::telemetryPublishes() const {
  return telemetry_ ? telemetry_->publishes : 0;
}

std::uint64_t QoSHostManager::sloBreachesSeen() const {
  return telemetry_ ? telemetry_->breachEdges : 0;
}

void QoSHostManager::installQueueReceiver() {
  host_.msgQueue(config_.msgQueueKey)
      .setReceiver([this](const osim::MessageQueue::Datagram& d) {
        const auto report = instrument::ViolationReport::parse(d.payload);
        if (report.has_value()) handleReport(*report);
      });
}

bool QoSHostManager::crash() {
  if (crashed_) return false;
  crashed_ = true;
  ++daemonCrashes_;
  sim_.warn(traceName_, "manager daemon crashed");
  if (rpc_ != nullptr) rpc_->setEnabled(false);
  // No receiver: reports accumulate in the kernel queue (and overflow once
  // its depth is exceeded — that is what the coordinator's local buffer is
  // for). The daemon's in-memory state is gone.
  host_.msgQueue(config_.msgQueueKey).setReceiver(nullptr);
  engine_.facts().clear();
  lastReport_.clear();
  lastEscalationAt_.clear();
  lastReportAt_.clear();
  lastRenegotiationAt_.clear();
  if (telemetry_) {
    // The crash wiped working memory, slo-breach facts included; episode
    // tracking restarts from scratch when the daemon comes back.
    telemetry_->violationSince.clear();
    telemetry_->breachFacts.clear();
  }
  return true;
}

bool QoSHostManager::restartDaemon() {
  if (!crashed_) return false;
  crashed_ = false;
  sim_.info(traceName_, "manager daemon restarted");
  if (rpc_ != nullptr) rpc_->setEnabled(true);
  installQueueReceiver();  // drains the backlog that piled up while down
  if (telemetry_) {
    // Objectives still in breach re-enter the rebuilt working memory: the
    // crash retracted their facts but did not fix whatever was burning.
    for (const obs::SloTracker::Entry& entry : telemetry_->slo.entries()) {
      if (!entry.status.breached) continue;
      rules::SlotMap slots;
      slots.emplace("objective", Value::symbol(entry.objective.name));
      slots.emplace("metric", Value::symbol(entry.objective.metric));
      slots.emplace("burn", Value::real(entry.status.shortBurn));
      telemetry_->breachFacts[entry.objective.name] =
          engine_.facts().assertFact("slo-breach", std::move(slots));
    }
  }
  return true;
}

void QoSHostManager::sweepStaleFacts() {
  const sim::SimTime now = sim_.now();
  std::vector<std::uint32_t> stale;
  for (const auto& [pid, at] : lastReportAt_) {
    if (now - at >= config_.factTtl) stale.push_back(pid);
  }
  if (stale.empty()) return;
  for (const std::uint32_t pid : stale) {
    retractSessionFacts(pid);
    lastReportAt_.erase(pid);
    lastReport_.erase(pid);
    // A silent pid's open episode ends without a recovery sample: the
    // coordinator vanished, so there is no detect->recover latency to book.
    if (telemetry_) telemetry_->violationSince.erase(pid);
    ++staleExpiries_;
    sim_.info(traceName_, [&] {
      return "expired stale session facts for silent pid " + std::to_string(pid);
    });
  }
  engine_.run();  // negated patterns may newly activate
}

std::vector<std::string> QoSHostManager::loadRuleText(const std::string& text) {
  return rules::loadRules(engine_, text);
}

void QoSHostManager::loadDefaultRules() {
  loadRuleText(defaultHostRules());
}

void QoSHostManager::registerEngineFunctions() {
  engine_.registerFunction("boost-cpu", [this](const std::vector<Value>& args) {
    if (args.size() != 2) return;
    const auto pid = static_cast<osim::Pid>(args[0].asInt());
    const int delta = static_cast<int>(args[1].asInt());
    // Escalation path: when the TS priority knob is already saturated and the
    // policy is still violated, move to real-time cycle allocation.
    if (cpuManager_.tsSaturated(pid)) {
      if (cpuManager_.rtShare(pid) == 0 && cpuManager_.grantRtShare(pid, 85)) {
        ++rtGrants_;
        markActuation("grant-rt");
        sim_.info(traceName_, [&] {
          return "TS saturated; granting RT share to pid " + std::to_string(pid);
        });
      }
      return;
    }
    if (cpuManager_.adjustTsPriority(pid, delta)) {
      ++boosts_;
      markActuation("boost-cpu");
      sim_.debug(traceName_, [&] {
        return "boost pid " + std::to_string(pid) + " by " +
               std::to_string(delta);
      });
    }
  });

  engine_.registerFunction("decay-cpu", [this](const std::vector<Value>& args) {
    if (args.size() != 2) return;
    const auto pid = static_cast<osim::Pid>(args[0].asInt());
    const int delta = static_cast<int>(args[1].asInt());
    // Unwind RT grants before eroding TS priority.
    if (cpuManager_.rtShare(pid) > 0) {
      cpuManager_.grantRtShare(pid, 0);
      ++decays_;
      markActuation("revoke-rt");
      return;
    }
    if (cpuManager_.adjustTsPriority(pid, -delta)) {
      ++decays_;
      markActuation("decay-cpu");
    }
  });

  engine_.registerFunction("grow-memory", [this](const std::vector<Value>& args) {
    if (args.size() != 2) return;
    const auto pid = static_cast<osim::Pid>(args[0].asInt());
    if (memoryManager_.growResidentCap(pid, args[1].asInt())) {
      ++memGrowths_;
      markActuation("grow-memory");
    }
  });

  engine_.registerFunction("notify-domain-manager",
                           [this](const std::vector<Value>& args) {
                             if (args.size() != 1) return;
                             escalate(static_cast<std::uint32_t>(args[0].asInt()));
                           });

  // Overload handling (Section 10 iii): when resources alone cannot satisfy
  // the policy, ask the application to adapt its behaviour via an actuator.
  engine_.registerFunction("request-adaptation",
                           [this](const std::vector<Value>& args) {
    if (args.size() < 2) return;
    instrument::ControlCommand cmd;
    cmd.kind = instrument::ControlCommand::Kind::kAdapt;
    cmd.target = args[1].asString();
    for (std::size_t i = 2; i < args.size(); ++i) {
      cmd.args.push_back(args[i].toString());
    }
    markActuation("adapt:" + cmd.target);
    sendControl(static_cast<osim::Pid>(args[0].asInt()), cmd);
  });

  // QoS contract plane: rules ask the Policy Agent to renegotiate a
  // session's tier ("down" on sustained violation, "up" on recovery).
  engine_.registerFunction("renegotiate-contract",
                           [this](const std::vector<Value>& args) {
    if (args.size() != 2) return;
    const auto pid = static_cast<std::uint32_t>(args[0].asInt());
    const std::string dir = args[1].asString();
    if (dir != "down" && dir != "up") return;
    requestRenegotiation(pid, dir == "down");
  });

  engine_.registerFunction("clear-state", [this](const std::vector<Value>& args) {
    if (args.size() != 1) return;
    (void)args;
    // Placeholder for per-session bookkeeping resets; the knobs themselves
    // persist (the found allocation is the point of the search strategy).
  });

  engine_.registerFunction("log", [this](const std::vector<Value>& args) {
    sim_.info(traceName_, [&] {
      std::ostringstream out;
      for (const Value& v : args) out << v.toString() << " ";
      return out.str();
    });
  });
}

void QoSHostManager::installFireHooks() {
  // Per-rule spans with matched-fact attribution, plus a wall-clock cost
  // histogram per firing. Rule firings consume no simulated time, so the
  // spans are instants on the sim clock; host cost stays in the histogram.
  engine_.setFireHooks(
      [this](const rules::Rule& rule,
             const std::vector<rules::FactId>& matched) -> bool {
        sim::SpanObserver* o = sim_.observer();
        // Wall-clock the firing when anyone will consume it: a span
        // observer, or the self-telemetry rollup's rule-cost histogram.
        if (o == nullptr) return telemetry_ != nullptr;
        if (activeCtx_.valid()) {
          currentRuleSpan_ =
              o->beginSpan(sim_.now(), activeCtx_, "rule:" + rule.name,
                           traceName_);
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
        if (telemetry_) {
          telemetry_->ruleFireNs.record(static_cast<double>(wallNanos));
        }
        if (currentRuleSpan_.valid()) {
          if (sim::SpanObserver* o = sim_.observer()) {
            o->endSpan(sim_.now(), currentRuleSpan_);
          }
          currentRuleSpan_ = sim::TraceContext{};
        }
      });
}

void QoSHostManager::markActuation(std::string_view what) {
  if (!activeCtx_.valid()) return;
  if (sim::SpanObserver* o = sim_.observer()) {
    o->instant(sim_.now(), activeCtx_, "actuate:" + std::string(what),
               traceName_);
  }
}

void QoSHostManager::setupRpcHandlers() {
  // Domain-manager liveness probe (heartbeat protocol). A crashed daemon or
  // a dead host never reaches this handler — the probe times out instead.
  rpc_->setHandler("hm-ping", [this](const std::string&,
                                     net::RpcEndpoint::Responder respond) {
    respond("PONG|" + host_.name());
  });

  // Domain-manager query: CPU load, process liveness, memory slowdown.
  rpc_->setHandler("host-stats", [this](const std::string& body,
                                        net::RpcEndpoint::Responder respond) {
    const osim::Pid pid =
        sim::FieldReader(body).number<osim::Pid>("pid").value_or(0);
    const osim::Process* p = host_.find(pid);
    const bool alive = p != nullptr && !p->terminated();
    std::ostringstream out;
    out << "load=" << host_.loadAverage() << ";alive=" << (alive ? 1 : 0)
        << ";slowdown=" << memoryManager_.slowdownPercent(pid)
        << ";freepages=" << host_.memory().freePages();
    respond(out.str());
  });

  // Domain-manager corrective action: raise the server process priority.
  rpc_->setHandler("boost", [this](const std::string& body,
                                   net::RpcEndpoint::Responder respond) {
    const sim::FieldReader fields(body);
    const osim::Pid pid = fields.number<osim::Pid>("pid").value_or(0);
    const int delta = fields.number<int>("delta").value_or(0);
    const bool ok = cpuManager_.adjustTsPriority(pid, delta);
    if (ok) ++boosts_;
    respond(ok ? "OK" : "ERR:no-such-pid");
  });

  // Domain-manager corrective action: restart a failed process.
  rpc_->setHandler("restart", [this](const std::string& body,
                                     net::RpcEndpoint::Responder respond) {
    const osim::Pid pid =
        sim::FieldReader(body).number<osim::Pid>("pid").value_or(0);
    if (!restartHandler_) {
      respond("ERR:no-restart-handler");
      return;
    }
    const osim::Pid newPid = restartHandler_(pid);
    if (newPid != 0) {
      ++restarts_;
      respond("OK:newpid=" + std::to_string(newPid));
    } else {
      respond("ERR:restart-failed");
    }
  });

  // Dynamic rule distribution over the network (Section 9).
  rpc_->setHandler("set-rules", [this](const std::string& body,
                                       net::RpcEndpoint::Responder respond) {
    try {
      const auto names = loadRuleText(body);
      ++rulePushes_;
      respond("OK:" + std::to_string(names.size()));
    } catch (const rules::RuleParseError& e) {
      respond(std::string("ERR:") + e.what());
    }
  });

  // Rule removal by name.
  rpc_->setHandler("remove-rule", [this](const std::string& body,
                                         net::RpcEndpoint::Responder respond) {
    respond(engine_.removeRule(body) ? "OK" : "ERR:no-such-rule");
  });

  // Contract-plane events from the Policy Agent (one-way notifications).
  rpc_->setHandler("contract-event", [this](const std::string& body,
                                            net::RpcEndpoint::Responder respond) {
    respond(handleContractEvent(body) ? "OK" : "ERR:bad-event");
  });
}

bool QoSHostManager::handleContractEvent(const std::string& body) {
  if (crashed_) return false;
  // The detail is the body's last field: it carries an admission reason,
  // whose mismatches are joined with "; ".
  const sim::FieldReader fields(body, "detail");
  const std::string kind(fields.get("kind").value_or(""));
  const auto pidField = fields.number<std::uint32_t>("pid");
  const std::string contract(fields.get("contract").value_or(""));
  const std::string detail(fields.get("detail").value_or(""));
  if (kind.empty() || !pidField) return false;
  const std::uint32_t pid = *pidField;
  ++contractEvents_;
  sim_.info(traceName_, [&] {
    return "contract event " + kind + " pid " + std::to_string(pid) + " (" +
           contract + "): " + detail;
  });

  const Value pidValue = Value::integer(pid);
  const Value contractValue = Value::symbol(contract.empty() ? "none" : contract);
  if (kind == "degraded") {
    // Working memory holds one tier fact per pid.
    engine_.facts().retractWhere("contract-degraded", {{"pid", pidValue}});
    rules::SlotMap slots;
    slots.emplace("pid", pidValue);
    slots.emplace("contract", contractValue);
    engine_.facts().assertFact("contract-degraded", std::move(slots));
  } else if (kind == "restored") {
    engine_.facts().retractWhere("contract-degraded", {{"pid", pidValue}});
  } else if (kind == "liveliness-lost") {
    rules::SlotMap slots;
    slots.emplace("pid", pidValue);
    slots.emplace("contract", contractValue);
    engine_.facts().assertFact("liveliness-lost", std::move(slots));
  } else if (kind == "owner-changed") {
    // One owner fact per contract; pid 0 (no owner left) just retracts.
    engine_.facts().retractWhere("contract-owner",
                                 {{"contract", contractValue}});
    if (pid != 0) {
      rules::SlotMap slots;
      slots.emplace("contract", contractValue);
      slots.emplace("pid", pidValue);
      engine_.facts().assertFact("contract-owner", std::move(slots));
    }
  } else if (kind == "rejected") {
    // Rejections shed load before a session ever exists: nothing to track
    // in working memory, the count + log line is the record.
  } else {
    return false;
  }
  engine_.run();
  return true;
}

void QoSHostManager::requestRenegotiation(std::uint32_t pid, bool down) {
  ++renegotiationsRequested_;
  if (rpc_ == nullptr || config_.contractAgentHost.empty()) return;
  // Repeat-notifications re-fire the rule twice a second while the breach
  // persists; the agent-side recompile is expensive, so throttle per pid.
  const auto lastIt = lastRenegotiationAt_.find(pid);
  if (lastIt != lastRenegotiationAt_.end() &&
      sim_.now() - lastIt->second < renegotiationThrottle_) {
    return;
  }
  lastRenegotiationAt_[pid] = sim_.now();
  markActuation(down ? "renegotiate-down" : "renegotiate-up");
  net::RpcEndpoint::CallOptions options;
  options.timeout = kEscalationTimeout;
  options.maxAttempts = config_.escalationMaxAttempts;
  options.context = activeCtx_;
  rpc_->call(config_.contractAgentHost, config_.contractAgentPort,
             "renegotiate",
             "pid=" + std::to_string(pid) + ";dir=" + (down ? "down" : "up"),
             [this](bool ok, const std::string&) {
               if (!ok) {
                 sim_.warn(traceName_, "renegotiation RPC timed out");
               }
             },
             options);
}

void QoSHostManager::retractSessionFacts(std::uint32_t pid) {
  const rules::SlotMap ofPid{{"pid", Value::integer(pid)}};
  for (const char* tmpl :
       {"violation", "cleared", "metric", "proc-stat", "alloc-state"}) {
    engine_.facts().retractWhere(tmpl, ofPid);
  }
}

void QoSHostManager::handleReport(const instrument::ViolationReport& report) {
  if (crashed_) return;  // direct calls while the daemon is down go nowhere
  ++reports_;
  lastReport_[report.pid] = report;
  lastReportAt_[report.pid] = sim_.now();

  if (telemetry_) {
    Telemetry& t = *telemetry_;
    t.reports.add();
    if (report.violated) {
      // First violated report opens the episode; repeats extend it.
      if (t.violationSince.emplace(report.pid, sim_.now()).second) {
        t.violations.add();
      }
    } else {
      const auto open = t.violationSince.find(report.pid);
      if (open != t.violationSince.end()) {
        // Episode closed: detect -> recover latency, in microseconds. The
        // report's trace id rides along as the bucket's exemplar, so a
        // domain-level p99 bucket links back to a concrete retained trace.
        t.reactionUs.recordWithExemplar(
            static_cast<double>(sim_.now() - open->second),
            report.context.traceId, sim_.now());
        t.violationSince.erase(open);
      }
    }
  }

  // Causal tracing: diagnosis runs inside a span under the episode context
  // the report carried across the message queue. Everything the rules do
  // synchronously (actuations, escalation RPCs) nests under activeCtx_.
  if (report.context.valid()) {
    if (sim::SpanObserver* o = sim_.observer()) {
      activeCtx_ = o->beginSpan(sim_.now(), report.context,
                                report.violated ? "diagnose" : "decay",
                                traceName_);
      o->annotate(activeCtx_, "pid", std::to_string(report.pid));
      o->annotate(activeCtx_, "policy", report.policyId);
    }
  }

  // Working memory holds only the latest session state per pid.
  retractSessionFacts(report.pid);

  rules::SlotMap head;
  head.emplace("policy", Value::symbol(report.policyId));
  head.emplace("pid", Value::integer(report.pid));
  head.emplace("exec", Value::symbol(report.executable));
  head.emplace("role", Value::symbol(report.userRole.empty() ? "none"
                                                             : report.userRole));
  engine_.facts().assertFact(report.violated ? "violation" : "cleared",
                             std::move(head));

  for (const auto& [name, value] : report.metrics) {
    rules::SlotMap slots;
    slots.emplace("pid", Value::integer(report.pid));
    slots.emplace("name", Value::symbol(name));
    slots.emplace("value", Value::real(value));
    engine_.facts().assertFact("metric", std::move(slots));
  }

  // Host-side observations the rules may need.
  {
    rules::SlotMap slots;
    slots.emplace("pid", Value::integer(report.pid));
    slots.emplace("mem-slowdown",
                  Value::real(memoryManager_.slowdownPercent(report.pid)));
    engine_.facts().assertFact("proc-stat", std::move(slots));
  }
  {
    // Current allocation state: lets rules detect that the resource knobs
    // are exhausted (overload) and switch to application adaptation.
    rules::SlotMap slots;
    slots.emplace("pid", Value::integer(report.pid));
    slots.emplace("upri", Value::integer(cpuManager_.tsPriority(report.pid)));
    slots.emplace("rt", Value::integer(cpuManager_.rtShare(report.pid)));
    engine_.facts().assertFact("alloc-state", std::move(slots));
  }
  {
    // Refresh the host-stat fact in place: a modify publishes a retract +
    // assert delta pair (or nothing when the load is unchanged), instead of
    // the old retract-template + reassert churn that forced the engine to
    // re-derive every host-stat activation per report.
    const Value load = Value::real(host_.loadAverage());
    const rules::Fact* stat = engine_.facts().findWhere(
        "host-stat", {{"name", Value::symbol("cpu_load")}});
    if (stat != nullptr) {
      engine_.facts().modify(stat->id, {{"value", load}});
    } else {
      rules::SlotMap slots;
      slots.emplace("name", Value::symbol("cpu_load"));
      slots.emplace("value", load);
      engine_.facts().assertFact("host-stat", std::move(slots));
    }
  }

  engine_.run();

  if (activeCtx_.valid()) {
    if (sim::SpanObserver* o = sim_.observer()) {
      o->endSpan(sim_.now(), activeCtx_);
    }
    activeCtx_ = sim::TraceContext{};
  }
}

void QoSHostManager::sendControl(osim::Pid pid,
                                 const instrument::ControlCommand& command) {
  ++adaptationsRequested_;
  host_.msgQueue(instrument::controlQueueKey(pid)).send(command.serialize());
}

void QoSHostManager::escalate(std::uint32_t pid) {
  // Repeated notifications for a persisting violation arrive twice a second;
  // the domain-level diagnosis is expensive (cross-host RPC), so throttle.
  const auto lastIt = lastEscalationAt_.find(pid);
  if (lastIt != lastEscalationAt_.end() &&
      sim_.now() - lastIt->second < escalationThrottle_) {
    return;
  }
  lastEscalationAt_[pid] = sim_.now();
  ++escalations_;
  if (rpc_ == nullptr || config_.domainManagerHost.empty()) {
    sim_.warn(traceName_, [&] {
      return "escalation for pid " + std::to_string(pid) +
             " dropped (no domain manager configured)";
    });
    return;
  }
  const auto it = lastReport_.find(pid);
  if (it == lastReport_.end()) return;
  net::RpcEndpoint::CallOptions options;
  options.timeout = kEscalationTimeout;
  options.maxAttempts = config_.escalationMaxAttempts;
  // Escalation happens inside the diagnosis span (the engine function runs
  // synchronously under handleReport); the RPC layer opens the call span.
  options.context = activeCtx_;
  rpc_->call(config_.domainManagerHost, config_.domainManagerPort, "escalate",
             it->second.serialize(),
             [this](bool ok, const std::string&) {
               if (!ok) {
                 sim_.warn(traceName_, "escalation RPC timed out");
               }
             },
             options);
}

}  // namespace softqos::manager
