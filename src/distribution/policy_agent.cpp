#include "distribution/policy_agent.hpp"

#include <algorithm>

#include "sim/text.hpp"

namespace softqos::distribution {

namespace {

/// Port of the QoS Host Manager on session hosts (probe + event target).
constexpr int kHostManagerPort = 7001;
/// Missed probes (timeout or alive=0) before liveliness is declared lost.
constexpr int kLivelinessMissThreshold = 3;
/// How often a renegotiated-down session retries the full tier.
constexpr sim::SimDuration kUpgradeRetryInterval = sim::sec(10);

}  // namespace

const char* ContractEvent::kindName() const {
  switch (kind) {
    case Kind::kDegraded: return "degraded";
    case Kind::kRestored: return "restored";
    case Kind::kRejected: return "rejected";
    case Kind::kLivelinessLost: return "liveliness-lost";
    case Kind::kOwnerChanged: return "owner-changed";
  }
  return "?";
}

std::string ContractEvent::serialize() const {
  return std::string("kind=") + kindName() + ";pid=" + std::to_string(pid) +
         ";contract=" + contract + ";detail=" + detail;
}

PolicyAgent::PolicyAgent(sim::Simulation& simulation,
                         RepositoryService& repository)
    : sim_(simulation), repository_(repository) {}

PolicyAgent::~PolicyAgent() {
  for (auto& [pid, session] : sessions_) {
    (void)pid;
    if (session.probeEvent != sim::kInvalidEvent) sim_.cancel(session.probeEvent);
    if (session.upgradeEvent != sim::kInvalidEvent) {
      sim_.cancel(session.upgradeEvent);
    }
  }
}

std::vector<policy::CompiledPolicy> PolicyAgent::compileFor(
    const Registration& reg) {
  const auto exec = repository_.findExecutable(reg.executable);
  if (!exec.has_value()) {
    throw PolicyAgentError("unknown executable: " + reg.executable);
  }

  // Resolve attribute -> sensor through the executable's sensor inventory.
  std::vector<policy::SensorInfo> sensors;
  for (const std::string& sensorId : exec->sensorIds) {
    const auto sensor = repository_.findSensor(sensorId);
    if (sensor.has_value()) sensors.push_back(*sensor);
  }
  const auto sensorForAttribute = [&](const std::string& attribute) {
    for (const policy::SensorInfo& s : sensors) {
      if (s.monitors(attribute)) return s.id;
    }
    return std::string{};
  };

  std::vector<policy::PolicySpec> specs;
  try {
    specs = repository_.policiesFor(reg.application, reg.executable, reg.role);
  } catch (const policy::MappingError& e) {
    throw PolicyAgentError(e.what());
  }
  std::vector<policy::CompiledPolicy> compiled;
  for (const policy::PolicySpec& spec : specs) {
    try {
      compiled.push_back(
          policy::compilePolicy(spec, sensorForAttribute, nextComparisonId_));
    } catch (const policy::CompileError& e) {
      throw PolicyAgentError(e.what());
    }
  }
  return compiled;
}

void PolicyAgent::applyDegradedDeadline(
    std::vector<policy::CompiledPolicy>& compiled, const std::string& attribute,
    double effectiveDeadlineMs) {
  if (attribute.empty() || effectiveDeadlineMs <= 0) return;
  // deadline <-> rate mapping: a period of D ms sustains 1000/D samples/s.
  const double relaxedFloor = 1000.0 / effectiveDeadlineMs;
  for (policy::CompiledPolicy& policy : compiled) {
    for (policy::CompiledCondition& cond : policy.conditions) {
      if (cond.attribute != attribute) continue;
      if (cond.op != policy::PolicyCmp::kGe && cond.op != policy::PolicyCmp::kGt)
        continue;  // only lower-bound (rate-floor) thresholds relax
      cond.value = std::min(cond.value, relaxedFloor);
    }
  }
}

void PolicyAgent::admitSession(Session& session,
                               std::vector<policy::CompiledPolicy>& compiled) {
  const Registration& reg = session.reg;
  if (const auto offered =
          repository_.offeredContractFor(reg.executable, reg.application)) {
    session.hasOffer = true;
    session.offer = offered->offer;
    session.offeredContract = offered->name;
    session.deadlineAttribute = offered->deadlineAttribute;
    session.strength = reg.ownershipStrength >= 0 ? reg.ownershipStrength
                                                  : offered->offer.ownershipStrength;
  }
  const auto requested =
      repository_.requestedContractFor(reg.application, reg.role);
  if (!requested.has_value()) return;  // nothing requested: no admission

  session.hasContract = true;
  session.request = requested->request;
  session.requestedContract = requested->name;
  if (!requested->deadlineAttribute.empty()) {
    session.deadlineAttribute = requested->deadlineAttribute;
  }

  // RxO: a session without an offered side is matched against the weakest
  // possible offer (session.offer stays default-constructed: no
  // commitments), so a strict request still rejects it.
  session.decision = policy::admit(session.offer, session.request);
  session.admittedTier = session.currentTier = session.decision.tier;

  switch (session.decision.tier) {
    case policy::AdmissionTier::kFull:
      ++admissionsFull_;
      if (flightRecorder_ != nullptr) {
        flightRecorder_->record("admit-full", reg.pid,
                                session.requestedContract, "");
      }
      sim_.debug("policy-agent", [&] {
        return "pid " + std::to_string(reg.pid) + " admitted (full) under " +
               session.requestedContract;
      });
      break;
    case policy::AdmissionTier::kDegraded:
      ++admissionsDegraded_;
      applyDegradedDeadline(compiled, session.deadlineAttribute,
                            session.decision.effectiveDeadlineMs);
      sim_.info("policy-agent", [&] {
        return "pid " + std::to_string(reg.pid) + " admitted DEGRADED under " +
               session.requestedContract + ": " + session.decision.reason();
      });
      emitEvent({ContractEvent::Kind::kDegraded, reg.pid, reg.hostName,
                 session.requestedContract, session.decision.reason()});
      break;
    case policy::AdmissionTier::kRejected: {
      ++rejections_;
      sim_.warn("policy-agent", [&] {
        return "pid " + std::to_string(reg.pid) + " REJECTED under " +
               session.requestedContract + ": " + session.decision.reason();
      });
      emitEvent({ContractEvent::Kind::kRejected, reg.pid, reg.hostName,
                 session.requestedContract, session.decision.reason()});
      throw AdmissionError("admission rejected for pid " +
                               std::to_string(reg.pid) + " under " +
                               session.requestedContract + ": " +
                               session.decision.reason(),
                           session.decision);
    }
  }
}

void PolicyAgent::applyTier(Session& session) {
  instrument::Coordinator* c = session.reg.coordinator;
  if (c == nullptr) return;
  // History depth bounds what the process may retain for an absent manager.
  const int depth = session.hasContract ? session.decision.effectiveHistoryDepth
                                        : session.offer.historyDepth;
  if (depth > 0) c->setReportBufferCap(static_cast<std::size_t>(depth));
  // A VOLATILE offer promises no persistence across manager outages.
  if (session.hasOffer) {
    c->setStoreAndForward(session.offer.durability !=
                          policy::DurabilityKind::kVolatile);
  }
}

std::size_t PolicyAgent::registerProcess(const Registration& registration) {
  if (registration.coordinator == nullptr) {
    throw PolicyAgentError("registration without a coordinator");
  }
  // Re-registration (restart under a recycled pid): replace the dead session
  // outright. The stale coordinator pointer is NOT dereferenced — the old
  // process (and its coordinator) may be long gone.
  const auto existing = sessions_.find(registration.pid);
  if (existing != sessions_.end()) {
    sim_.debug("policy-agent", [&] {
      return "pid " + std::to_string(registration.pid) +
             " re-registered; replacing stale session";
    });
    dropSession(existing);
  }

  Session session;
  session.reg = registration;
  std::vector<policy::CompiledPolicy> compiled = compileFor(registration);
  if (contractPlane_) admitSession(session, compiled);  // may throw

  registration.coordinator->setUserRole(registration.role);
  registration.coordinator->installPolicies(compiled);
  if (contractPlane_) applyTier(session);

  const std::string offeredContract = session.offeredContract;
  const std::string hostName = registration.hostName;
  auto [it, inserted] =
      sessions_.emplace(registration.pid, std::move(session));
  (void)inserted;
  if (contractPlane_) {
    recordTierEnter(it->second);
    startProbe(it->second);
    if (!offeredContract.empty()) recomputeOwner(offeredContract, hostName);
  }
  ++registrations_;
  sim_.debug("policy-agent", [&] {
    return "registered pid " + std::to_string(registration.pid) + " (" +
           registration.executable + "), " + std::to_string(compiled.size()) +
           " policies";
  });
  return compiled.size();
}

void PolicyAgent::deregisterProcess(std::uint32_t pid) {
  const auto it = sessions_.find(pid);
  if (it == sessions_.end()) return;
  // Uninstall the delivered policies: a deregistered (but still running)
  // process must stop monitoring and alarming. The Registration contract
  // guarantees the coordinator outlives the session.
  if (it->second.reg.coordinator != nullptr) {
    it->second.reg.coordinator->clearPolicies();
  }
  dropSession(it);
}

void PolicyAgent::dropSession(std::map<std::uint32_t, Session>::iterator it) {
  if (it->second.probeEvent != sim::kInvalidEvent) {
    sim_.cancel(it->second.probeEvent);
  }
  stopUpgradeRetry(it->second);
  if (flightRecorder_ != nullptr) flightRecorder_->sessionEnd(it->first);
  const std::string contract = it->second.offeredContract;
  const std::string host = it->second.reg.hostName;
  sessions_.erase(it);
  if (contractPlane_ && !contract.empty()) recomputeOwner(contract, host);
}

std::size_t PolicyAgent::refresh(std::uint32_t pid) {
  const auto it = sessions_.find(pid);
  if (it == sessions_.end()) return 0;
  Session& session = it->second;
  std::vector<policy::CompiledPolicy> compiled = compileFor(session.reg);
  // A degraded session keeps its relaxed thresholds through repository pushes.
  if (contractPlane_ &&
      session.currentTier == policy::AdmissionTier::kDegraded) {
    applyDegradedDeadline(compiled, session.deadlineAttribute,
                          session.decision.effectiveDeadlineMs);
  }
  // Replace the whole set: drop policies that no longer apply, then install.
  session.reg.coordinator->clearPolicies();
  session.reg.coordinator->installPolicies(compiled);
  if (contractPlane_) applyTier(session);
  ++pushes_;
  return compiled.size();
}

bool PolicyAgent::renegotiate(std::uint32_t pid, bool down) {
  if (!contractPlane_) return false;
  const auto it = sessions_.find(pid);
  if (it == sessions_.end() || !it->second.hasContract) return false;
  Session& session = it->second;

  if (down) {
    if (session.currentTier != policy::AdmissionTier::kFull) return false;
    if (!session.request.allowDegraded()) return false;
    session.decision.tier = policy::AdmissionTier::kDegraded;
    session.decision.effectiveDeadlineMs =
        session.request.degradedDeadlineMs > 0
            ? session.request.degradedDeadlineMs
            : session.request.maxDeadlineMs;
    session.decision.effectiveHistoryDepth =
        session.request.degradedHistoryDepth >= 0
            ? session.request.degradedHistoryDepth
            : session.request.minHistoryDepth;
    session.currentTier = policy::AdmissionTier::kDegraded;
    ++renegotiations_;
    refresh(pid);
    --pushes_;  // renegotiation is not a repository push
    sim_.info("policy-agent", [&] {
      return "pid " + std::to_string(pid) + " renegotiated DOWN under " +
             session.requestedContract;
    });
    emitEvent({ContractEvent::Kind::kDegraded, pid, session.reg.hostName,
               session.requestedContract, "renegotiated down"});
    recordTierEnter(session);
    // Once the relaxed floors are met the stream goes quiet, so recovery
    // has no violation edge to ride: probe the full tier periodically.
    startUpgradeRetry(session);
    return true;
  }

  if (session.currentTier != policy::AdmissionTier::kDegraded) return false;
  // Restoring full tier requires the offer to actually satisfy the full
  // request — a session degraded at admission time can never upgrade.
  const policy::QosOffer offer =
      session.hasOffer ? session.offer : policy::QosOffer{};
  policy::AdmissionDecision full = policy::admit(offer, session.request);
  if (full.tier != policy::AdmissionTier::kFull) return false;
  session.decision = full;
  session.currentTier = policy::AdmissionTier::kFull;
  stopUpgradeRetry(session);
  ++renegotiations_;
  refresh(pid);
  --pushes_;
  sim_.info("policy-agent", [&] {
    return "pid " + std::to_string(pid) + " renegotiated UP under " +
           session.requestedContract;
  });
  emitEvent({ContractEvent::Kind::kRestored, pid, session.reg.hostName,
             session.requestedContract, "renegotiated up"});
  recordTierEnter(session);
  return true;
}

void PolicyAgent::bindRpc(net::Network& network, osim::Host& seat, int port) {
  rpc_ = std::make_unique<net::RpcEndpoint>(network, seat, port);
  rpc_->setHandler("renegotiate", [this](const std::string& body,
                                         net::RpcEndpoint::Responder respond) {
    const sim::FieldReader fields(body);
    const std::uint32_t pid = fields.number<std::uint32_t>("pid").value_or(0);
    const auto dir = fields.get("dir");
    const bool down = dir == "down";
    const bool up = dir == "up";
    if (pid == 0 || (!down && !up)) {
      respond("ERR:bad-request");
      return;
    }
    if (renegotiate(pid, down)) {
      const auto it = sessions_.find(pid);
      respond(std::string("OK:") +
              (it != sessions_.end()
                   ? policy::admissionTierName(it->second.currentTier)
                   : "gone"));
    } else {
      respond("ERR:unchanged");
    }
  });
}

void PolicyAgent::startUpgradeRetry(Session& session) {
  if (session.upgradeEvent != sim::kInvalidEvent) return;
  const std::uint32_t pid = session.reg.pid;
  session.upgradeEvent = sim_.every(kUpgradeRetryInterval, [this, pid] {
    const auto it = sessions_.find(pid);
    if (it == sessions_.end()) return;
    if (it->second.currentTier != policy::AdmissionTier::kDegraded) {
      stopUpgradeRetry(it->second);
      return;
    }
    renegotiate(pid, /*down=*/false);
  });
}

void PolicyAgent::stopUpgradeRetry(Session& session) {
  if (session.upgradeEvent != sim::kInvalidEvent) {
    sim_.cancel(session.upgradeEvent);
    session.upgradeEvent = sim::kInvalidEvent;
  }
}

void PolicyAgent::startProbe(Session& session) {
  if (rpc_ == nullptr || !session.hasOffer || session.offer.leaseMs <= 0 ||
      session.reg.hostName.empty()) {
    return;
  }
  const sim::SimDuration period = std::max<sim::SimDuration>(
      sim::msec(1),
      static_cast<sim::SimDuration>(session.offer.leaseMs * 1000.0));
  const std::uint32_t pid = session.reg.pid;
  session.probeEvent = sim_.every(period, [this, pid,
                                           host = session.reg.hostName,
                                           period] {
    const auto it = sessions_.find(pid);
    if (it == sessions_.end() || !it->second.alive) return;
    ++probes_;
    net::RpcEndpoint::CallOptions options;
    // The reply must land (or time out) before the next lease period.
    options.timeout = std::max<sim::SimDuration>(sim::msec(1), period / 2);
    rpc_->call(host, kHostManagerPort, "host-stats",
               "pid=" + std::to_string(pid),
               [this, pid](bool ok, const std::string& body) {
                 handleProbeReply(pid, ok, body);
               },
               options);
  });
}

void PolicyAgent::handleProbeReply(std::uint32_t pid, bool ok,
                                   const std::string& body) {
  const auto it = sessions_.find(pid);
  if (it == sessions_.end() || !it->second.alive) return;
  const bool alive = ok && sim::FieldReader(body).get("alive") == "1";
  if (alive) {
    it->second.missedProbes = 0;
    return;
  }
  if (++it->second.missedProbes >= kLivelinessMissThreshold) {
    markLivelinessLost(pid);
  }
}

void PolicyAgent::markLivelinessLost(std::uint32_t pid) {
  const auto it = sessions_.find(pid);
  if (it == sessions_.end() || !it->second.alive) return;
  Session& session = it->second;
  session.alive = false;
  if (session.probeEvent != sim::kInvalidEvent) {
    sim_.cancel(session.probeEvent);
    session.probeEvent = sim::kInvalidEvent;
  }
  ++livelinessLosses_;
  sim_.warn("policy-agent", [&] {
    return "liveliness LOST for pid " + std::to_string(pid) + " (" +
           session.offeredContract + ")";
  });
  emitEvent({ContractEvent::Kind::kLivelinessLost, pid, session.reg.hostName,
             session.offeredContract, "missed " +
                 std::to_string(session.missedProbes) + " probes"});
  if (!session.offeredContract.empty()) {
    recomputeOwner(session.offeredContract, session.reg.hostName);
  }
}

void PolicyAgent::recomputeOwner(const std::string& contract,
                                 const std::string& fallbackHost) {
  // Exclusive ownership: the strongest ALIVE offerer owns the contract;
  // ties break to the lowest pid (deterministic across runs).
  std::uint32_t best = 0;
  int bestStrength = 0;
  std::string bestHost;
  for (const auto& [pid, session] : sessions_) {
    if (!session.alive || session.offeredContract != contract) continue;
    if (best == 0 || session.strength > bestStrength ||
        (session.strength == bestStrength && pid < best)) {
      best = pid;
      bestStrength = session.strength;
      bestHost = session.reg.hostName;
    }
  }
  const auto prev = owners_.find(contract);
  const std::uint32_t prevOwner = prev == owners_.end() ? 0 : prev->second;
  if (best == prevOwner) return;
  if (best == 0) {
    owners_.erase(contract);
  } else {
    owners_[contract] = best;
  }
  if (prevOwner != 0 && best != 0) ++failovers_;
  sim_.info("policy-agent", [&] {
    return "ownership of " + contract + " moved: pid " +
           std::to_string(prevOwner) + " -> pid " + std::to_string(best);
  });
  emitEvent({ContractEvent::Kind::kOwnerChanged, best,
             bestHost.empty() ? fallbackHost : bestHost, contract,
             "from pid " + std::to_string(prevOwner)});
}

std::uint32_t PolicyAgent::ownerOf(const std::string& offeredContract) const {
  const auto it = owners_.find(offeredContract);
  return it == owners_.end() ? 0 : it->second;
}

std::optional<PolicyAgent::SessionInfo> PolicyAgent::sessionInfo(
    std::uint32_t pid) const {
  const auto it = sessions_.find(pid);
  if (it == sessions_.end()) return std::nullopt;
  const Session& s = it->second;
  SessionInfo info;
  info.admittedTier = s.admittedTier;
  info.currentTier = s.currentTier;
  info.offeredContract = s.offeredContract;
  info.requestedContract = s.requestedContract;
  info.strength = s.strength;
  info.alive = s.alive;
  info.hasContract = s.hasContract;
  info.effectiveDeadlineMs = s.decision.effectiveDeadlineMs;
  return info;
}

std::vector<std::pair<std::uint32_t, PolicyAgent::SessionInfo>>
PolicyAgent::sessions() const {
  std::vector<std::pair<std::uint32_t, SessionInfo>> out;
  out.reserve(sessions_.size());
  for (const auto& [pid, session] : sessions_) {
    (void)session;
    out.emplace_back(pid, *sessionInfo(pid));
  }
  return out;
}

void PolicyAgent::recordTierEnter(const Session& session) {
  if (flightRecorder_ == nullptr || !session.hasContract) return;
  flightRecorder_->tierEnter(
      session.reg.pid, session.requestedContract,
      session.currentTier == policy::AdmissionTier::kDegraded ? "degraded"
                                                              : "full");
}

void PolicyAgent::emitEvent(ContractEvent event) {
  if (flightRecorder_ != nullptr) {
    flightRecorder_->record(event.kindName(), event.pid, event.contract,
                            event.detail);
  }
  if (sink_) {
    sink_(event);
    return;
  }
  if (rpc_ != nullptr && !event.hostName.empty()) {
    rpc_->notify(event.hostName, kHostManagerPort, "contract-event",
                 event.serialize());
  }
}

void PolicyAgent::enableAutoPush() {
  if (autoPush_) return;
  autoPush_ = true;
  repository_.directory().addChangeListener([this](const ldapdir::Dn& dn) {
    const bool policyChange = dn.isDescendantOf(policy::dit::policies()) ||
                              dn.isDescendantOf(policy::dit::conditions()) ||
                              dn.isDescendantOf(policy::dit::actions());
    if (!policyChange) return;
    // Refresh on the next event-loop turn so a multi-entry upload (policy +
    // inline conditions) is pushed once in a consistent state.
    if (refreshPending_) return;
    refreshPending_ = true;
    sim_.after(0, [this] {
      refreshPending_ = false;
      std::vector<std::uint32_t> pids;
      pids.reserve(sessions_.size());
      for (const auto& [pid, session] : sessions_) {
        (void)session;
        pids.push_back(pid);
      }
      for (const std::uint32_t pid : pids) {
        try {
          refresh(pid);
        } catch (const PolicyAgentError& e) {
          sim_.warn("policy-agent", [&] {
            return "auto-push to pid " + std::to_string(pid) +
                   " failed: " + e.what();
          });
        }
      }
    });
  });
}

}  // namespace softqos::distribution
