#include "instrument/coordinator.hpp"

#include <utility>

#include "sim/text.hpp"

namespace softqos::instrument {

Coordinator::Coordinator(sim::Simulation& simulation, std::string hostName,
                         std::uint32_t pid, std::string executable,
                         SensorRegistry& registry, NotifyFn notify)
    : sim_(simulation),
      hostName_(std::move(hostName)),
      pid_(pid),
      executable_(std::move(executable)),
      registry_(registry),
      notify_(std::move(notify)),
      reactionLatency_(
          simulation.localMetrics().histogramHandle("qos.reaction_latency_us")) {
  registry_.addListener(this);
}

Coordinator::~Coordinator() {
  registry_.removeListener(this);
  for (const auto& po : policies_) {
    if (po->repeatEvent != sim::kInvalidEvent) sim_.cancel(po->repeatEvent);
  }
  if (flushEvent_ != sim::kInvalidEvent) sim_.cancel(flushEvent_);
}

void Coordinator::installPolicies(
    const std::vector<policy::CompiledPolicy>& policies) {
  for (const policy::CompiledPolicy& compiled : policies) {
    removePolicy(compiled.policyId);  // replace on re-push
    auto po = std::make_unique<PolicyObject>();
    po->compiled = compiled;
    po->vars.assign(compiled.conditions.size(), true);  // optimistic start
    wirePolicy(*po);
    policies_.push_back(std::move(po));
  }
}

void Coordinator::wirePolicy(PolicyObject& po) {
  for (const policy::CompiledCondition& cond : po.compiled.conditions) {
    Sensor* sensor = registry_.sensor(cond.sensorId);
    if (sensor == nullptr) {
      throw InstrumentError("policy " + po.compiled.policyId +
                            " references missing sensor " + cond.sensorId);
    }
    sensor->installComparison(cond.op, cond.value, cond.comparisonId);
    sensor->setAlarmHandler([this](Sensor& s, int comparisonId, bool holds) {
      onAlarm(s, comparisonId, holds);
    });
    byComparison_[cond.comparisonId] = {&po, cond.varIndex};
  }
}

void Coordinator::unwirePolicy(PolicyObject& po) {
  for (const policy::CompiledCondition& cond : po.compiled.conditions) {
    if (Sensor* sensor = registry_.sensor(cond.sensorId)) {
      sensor->removeComparison(cond.comparisonId);
    }
    byComparison_.erase(cond.comparisonId);
  }
  if (po.repeatEvent != sim::kInvalidEvent) {
    sim_.cancel(po.repeatEvent);
    po.repeatEvent = sim::kInvalidEvent;
  }
}

bool Coordinator::removePolicy(const std::string& policyId) {
  for (auto it = policies_.begin(); it != policies_.end(); ++it) {
    if ((*it)->compiled.policyId == policyId) {
      unwirePolicy(**it);
      policies_.erase(it);
      return true;
    }
  }
  return false;
}

void Coordinator::clearPolicies() {
  for (const auto& po : policies_) unwirePolicy(*po);
  policies_.clear();
}

bool Coordinator::hasPolicy(const std::string& policyId) const {
  for (const auto& po : policies_) {
    if (po->compiled.policyId == policyId) return true;
  }
  return false;
}

bool Coordinator::isViolated(const std::string& policyId) const {
  for (const auto& po : policies_) {
    if (po->compiled.policyId == policyId) return po->violated;
  }
  return false;
}

void Coordinator::attachControlQueue(osim::MessageQueue& queue) {
  queue.setReceiver([this](const osim::MessageQueue::Datagram& d) {
    ControlCommand command;
    if (!ControlCommand::parse(d.payload, command)) {
      ++controlsRejected_;
      sim_.warn("coordinator",
                [&] { return "unparseable control command: " + d.payload; });
      return;
    }
    executeControl(command);
  });
}

bool Coordinator::executeControl(const ControlCommand& command) {
  const auto reject = [this](const std::string& why) {
    ++controlsRejected_;
    sim_.warn("coordinator",
              [&] { return "control command rejected: " + why; });
    return false;
  };
  switch (command.kind) {
    case ControlCommand::Kind::kAdapt: {
      Actuator* actuator = registry_.actuator(command.target);
      if (actuator == nullptr) {
        return reject("unknown actuator " + command.target);
      }
      actuator->invoke(command.args);
      break;
    }
    case ControlCommand::Kind::kSetThreshold: {
      // Locate the sensor holding this comparison through the policy set.
      const auto it = byComparison_.find(command.comparisonId);
      if (it == byComparison_.end()) {
        return reject("unknown comparison id " +
                      std::to_string(command.comparisonId));
      }
      Sensor* owner = nullptr;
      for (const policy::CompiledCondition& cond :
           it->second.first->compiled.conditions) {
        if (cond.comparisonId == command.comparisonId) {
          owner = registry_.sensor(cond.sensorId);
          break;
        }
      }
      if (owner == nullptr ||
          !owner->updateThreshold(command.comparisonId, command.value)) {
        return reject("comparison has no live sensor");
      }
      break;
    }
    case ControlCommand::Kind::kEnableSensor: {
      Sensor* sensor = registry_.sensor(command.target);
      if (sensor == nullptr) return reject("unknown sensor " + command.target);
      sensor->setEnabled(command.enable);
      break;
    }
    case ControlCommand::Kind::kSetTick: {
      Sensor* sensor = registry_.sensor(command.target);
      if (sensor == nullptr) return reject("unknown sensor " + command.target);
      sensor->setTickInterval(command.tickMicros);
      break;
    }
    case ControlCommand::Kind::kRemovePolicy:
      if (!removePolicy(command.target)) {
        return reject("unknown policy " + command.target);
      }
      break;
  }
  ++controlsExecuted_;
  return true;
}

void Coordinator::onAlarm(Sensor& sensor, int comparisonId, bool holds) {
  // Section 5.2: map the alarm report (via the internal comparison id) to the
  // boolean variable, set it, and re-evaluate the policy's expression.
  const auto it = byComparison_.find(comparisonId);
  if (it == byComparison_.end()) return;  // stale comparison of a removed policy
  PolicyObject* po = it->second.first;
  const int varIndex = it->second.second;
  if (varIndex < 0 || varIndex >= static_cast<int>(po->vars.size())) return;
  po->vars[static_cast<std::size_t>(varIndex)] = holds;
  // Claim the sensor's freshly-minted episode root (invalid unless this
  // alarm is a new violation under an attached observer). evaluate() adopts
  // it on a violation transition; otherwise we close it here — an alarm that
  // does not flip the policy expression is a dead-end episode.
  pendingAlarmCtx_ = sensor.claimAlarmContext();
  evaluate(*po);
  if (pendingAlarmCtx_.valid()) {
    if (sim::SpanObserver* o = sim_.observer()) {
      o->endSpan(sim_.now(), pendingAlarmCtx_);
    }
    pendingAlarmCtx_ = sim::TraceContext{};
  }
}

void Coordinator::onSensorAdded(Sensor& sensor) {
  // Re-arm every installed condition bound to the arriving id. byComparison_
  // still maps the comparison ids (removal keeps them: the policy object
  // never left), so alarms resume flowing into the same variables.
  bool any = false;
  for (const auto& po : policies_) {
    for (const policy::CompiledCondition& cond : po->compiled.conditions) {
      if (cond.sensorId != sensor.id()) continue;
      sensor.installComparison(cond.op, cond.value, cond.comparisonId);
      sensor.setAlarmHandler([this](Sensor& s, int comparisonId, bool holds) {
        onAlarm(s, comparisonId, holds);
      });
      byComparison_[cond.comparisonId] = {po.get(), cond.varIndex};
      any = true;
    }
  }
  if (any) {
    ++sensorsAttached_;
    sim_.info("coordinator",
              [&] { return "sensor " + sensor.id() + " attached (hotplug)"; });
  }
}

void Coordinator::onSensorRemoved(Sensor& sensor) {
  std::vector<PolicyObject*> affected;
  for (const auto& po : policies_) {
    bool touched = false;
    for (const policy::CompiledCondition& cond : po->compiled.conditions) {
      if (cond.sensorId != sensor.id()) continue;
      sensor.removeComparison(cond.comparisonId);
      if (cond.varIndex >= 0 &&
          cond.varIndex < static_cast<int>(po->vars.size())) {
        po->vars[static_cast<std::size_t>(cond.varIndex)] = true;  // optimistic
      }
      touched = true;
    }
    if (touched) affected.push_back(po.get());
  }
  if (affected.empty()) return;
  ++sensorsDetached_;
  sim_.info("coordinator",
            [&] { return "sensor " + sensor.id() + " detached (hotplug)"; });
  // A violation held open solely by the departed sensor clears here, which
  // sends the clear report the manager needs to retract the stale facts.
  for (PolicyObject* po : affected) evaluate(*po);
}

void Coordinator::evaluate(PolicyObject& po) {
  const bool satisfied = po.compiled.expression.evaluate(po.vars);
  const bool violated = !satisfied;
  if (violated == po.violated) return;  // no transition
  po.violated = violated;

  sim::SpanObserver* o = sim_.observer();
  if (violated) {
    po.episodeStart = sim_.now();
    if (o != nullptr) {
      // Adopt the sensor's root span so detection and reaction share one
      // trace; a violation raised without a sensor span (e.g. re-pushed
      // policies) roots a fresh trace here.
      po.episodeCtx = pendingAlarmCtx_.valid()
                          ? pendingAlarmCtx_
                          : o->beginTrace(sim_.now(),
                                          "episode:" + po.compiled.policyId,
                                          "coordinator:" + hostName_);
      pendingAlarmCtx_ = sim::TraceContext{};
      o->annotate(po.episodeCtx, "policy", po.compiled.policyId);
      o->instant(sim_.now(), po.episodeCtx, "violation", "coordinator");
    }
  }

  sendTransitionReport(po);

  if (violated) {
    ++violations_;
    if (repeatInterval_ > 0 && po.repeatEvent == sim::kInvalidEvent) {
      scheduleRepeat(po);
    }
  } else {
    ++clears_;
    if (po.repeatEvent != sim::kInvalidEvent) {
      sim_.cancel(po.repeatEvent);
      po.repeatEvent = sim::kInvalidEvent;
    }
    // Reaction latency: violation transition -> clear transition, on the
    // simulation clock. Recorded whether or not tracing is on (a histogram
    // add schedules nothing and draws no randomness).
    reactionLatency_.record(static_cast<double>(sim_.now() - po.episodeStart));
    if (po.episodeCtx.valid()) {
      if (o != nullptr) {
        o->instant(sim_.now(), po.episodeCtx, "recovered", "coordinator");
        o->endSpan(sim_.now(), po.episodeCtx);
      }
      po.episodeCtx = sim::TraceContext{};
    }
  }
}

void Coordinator::sendTransitionReport(PolicyObject& po) {
  ViolationReport report;
  report.policyId = po.compiled.policyId;
  report.pid = pid_;
  report.hostName = hostName_;
  report.executable = executable_;
  report.userRole = userRole_;
  report.violated = po.violated;
  report.context = po.episodeCtx;  // invalid (and unserialized) when untraced

  // The do-list runs on violation; on return to compliance we gather the
  // same sensor readings (so the manager can decay its corrective actions)
  // but do not re-run actuators.
  executeDoList(po, report, /*runActuators=*/po.violated);
}

void Coordinator::scheduleRepeat(PolicyObject& po) {
  po.repeatEvent = sim_.every(repeatInterval_, [this, &po] {
    if (!po.violated) {
      // Safety net: evaluate() cancels on the clear transition, but a policy
      // flipped without a transition report must not keep repeating.
      sim_.cancel(po.repeatEvent);
      po.repeatEvent = sim::kInvalidEvent;
      return;
    }
    // Still violated: re-run the do-list with fresh readings so the manager
    // can iterate toward a suitable allocation (Section 2).
    sendTransitionReport(po);
  });
}

void Coordinator::executeDoList(PolicyObject& po, ViolationReport& report,
                                bool runActuators) {
  bool notified = false;
  for (const policy::PolicyAction& action : po.compiled.actions) {
    switch (action.kind) {
      case policy::PolicyAction::Kind::kSensorRead: {
        Sensor* sensor = registry_.sensor(action.target);
        if (sensor == nullptr) {
          sim_.warn("coordinator", [&] {
            return "do-list reads unknown sensor " + action.target;
          });
          break;
        }
        // read() returns a character string (Section 5.2); the coordinator
        // converts it for the report payload.
        const std::string text = sensor->read();
        const std::string name =
            action.arguments.empty() ? sensor->attribute() : action.arguments[0];
        report.metrics.emplace_back(
            name, sim::parseNumber<double>(text).value_or(0.0));
        break;
      }
      case policy::PolicyAction::Kind::kNotifyHostManager:
        deliver(report);
        notified = true;
        break;
      case policy::PolicyAction::Kind::kActuatorInvoke: {
        if (!runActuators) break;
        Actuator* actuator = registry_.actuator(action.target);
        if (actuator == nullptr) {
          sim_.warn("coordinator", [&] {
            return "do-list invokes unknown actuator " + action.target;
          });
          break;
        }
        actuator->invoke(action.arguments);
        break;
      }
    }
  }
  // A clear transition is always worth reporting even if the policy's
  // do-list has no explicit notify (the manager needs it to decay boosts).
  if (!notified && !report.violated) deliver(report);
}

void Coordinator::deliver(const ViolationReport& report) {
  if (!notify_) return;
  if (buffer_.empty() && notify_(report)) return;

  // VOLATILE durability (contract plane): the process offers no persistence
  // across manager outages — drop rather than store.
  if (!storeAndForward_) {
    ++volatileDrops_;
    return;
  }

  // The manager is unreachable (or older reports are already queued and
  // must stay in order): store locally and retransmit on recovery.
  while (buffer_.size() >= bufferCap_ && !buffer_.empty()) {
    buffer_.pop_front();
    ++bufferOverflows_;
  }
  buffer_.push_back(report);
  if (flushEvent_ == sim::kInvalidEvent) {
    flushEvent_ = sim_.every(flushInterval_, [this] { flushBuffered(); });
  }
}

void Coordinator::flushBuffered() {
  while (!buffer_.empty()) {
    if (!notify_(buffer_.front())) return;  // still unreachable; keep waiting
    buffer_.pop_front();
    ++retransmitted_;
  }
  sim_.cancel(flushEvent_);
  flushEvent_ = sim::kInvalidEvent;
}

}  // namespace softqos::instrument
