// The Policy Agent (Section 6.2): processes register at startup with their
// pid, application, executable and user-role identifiers; the agent maps the
// registration to the applicable policies, compiles them against the
// executable's sensor inventory, and delivers them to the process
// coordinator. With auto-push enabled, repository changes re-deliver the
// (new) policy set to every affected running session — policies change
// without recompilation.
//
// QoS contract plane (enableContractPlane, default off): registrations are
// additionally matched requested-vs-offered against the repository's
// contract entries (DDS-style Deadline / Liveliness / History / Durability /
// Ownership, see policy/qos_contract.hpp). Incompatible matches are rejected
// at registration time with a typed AdmissionError; requests carrying a
// degraded tier are admitted with relaxed deadline thresholds and capped
// history instead. Admitted offerer sessions are liveliness-probed over RPC,
// exclusive ownership follows the strongest *alive* offerer (failover on
// crash), and live sessions renegotiate tiers up/down through the agent's
// "renegotiate" RPC while they run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "distribution/repository.hpp"
#include "instrument/coordinator.hpp"
#include "net/rpc.hpp"
#include "obs/flight_recorder.hpp"
#include "policy/compile.hpp"
#include "policy/qos_contract.hpp"
#include "sim/simulation.hpp"

namespace softqos::distribution {

class PolicyAgentError : public std::runtime_error {
 public:
  explicit PolicyAgentError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Registration refused by RxO admission control: the offered QoS cannot
/// satisfy the requested QoS (and the request carries no degraded tier the
/// offer could meet). decision() holds the typed per-policy mismatches.
class AdmissionError : public PolicyAgentError {
 public:
  AdmissionError(const std::string& message, policy::AdmissionDecision decision)
      : PolicyAgentError(message), decision_(std::move(decision)) {}
  [[nodiscard]] const policy::AdmissionDecision& decision() const {
    return decision_;
  }

 private:
  policy::AdmissionDecision decision_;
};

/// Contract-plane state transition, delivered to the managing host's QoS
/// Host Manager (which asserts it into working memory so rules can react).
struct ContractEvent {
  enum class Kind {
    kDegraded,        // session admitted at / renegotiated down to degraded
    kRestored,        // session renegotiated back up to the full tier
    kRejected,        // registration refused by admission control
    kLivelinessLost,  // offerer missed its liveliness lease
    kOwnerChanged,    // exclusive ownership moved (pid = new owner, 0 = none)
  };
  Kind kind = Kind::kDegraded;
  std::uint32_t pid = 0;
  std::string hostName;  // host whose manager should hear about it
  std::string contract;
  std::string detail;

  [[nodiscard]] const char* kindName() const;
  /// "kind=degraded;pid=3;contract=video-gold;detail=..."
  [[nodiscard]] std::string serialize() const;
};

class PolicyAgent {
 public:
  PolicyAgent(sim::Simulation& simulation, RepositoryService& repository);
  ~PolicyAgent();

  PolicyAgent(const PolicyAgent&) = delete;
  PolicyAgent& operator=(const PolicyAgent&) = delete;

  struct Registration {
    std::uint32_t pid = 0;
    std::string application;
    std::string executable;
    std::string role;
    instrument::Coordinator* coordinator = nullptr;  // must outlive the session
    /// Host the process runs on: routes contract events to its manager and
    /// addresses liveliness probes. Empty disables both for this session.
    std::string hostName;
    /// Per-session ownership-strength override; -1 uses the offer's value.
    int ownershipStrength = -1;
  };

  /// Register a starting process; compiles and installs its policies.
  /// Returns the number of policies delivered. Throws PolicyAgentError if
  /// the executable is unknown, a policy it gets has a dangling condition or
  /// action reference, or references an attribute no sensor of the
  /// executable can monitor; throws AdmissionError when the
  /// contract plane rejects the requested-vs-offered match. Re-registering
  /// a live pid (restart with a recycled id) replaces the dead session —
  /// the stale coordinator pointer is dropped untouched, never duplicated.
  std::size_t registerProcess(const Registration& registration);

  /// Remove a session (process exit): its policies are uninstalled from the
  /// coordinator (which must still be alive) and, under the contract plane,
  /// its ownership is released (failover to the next-strongest offerer).
  void deregisterProcess(std::uint32_t pid);

  /// Re-deliver the applicable policy set to one session (run-time change).
  /// A degraded session keeps its relaxed thresholds.
  std::size_t refresh(std::uint32_t pid);

  /// Subscribe to repository changes: any change under ou=policies (or to
  /// reusable conditions/actions) refreshes every session.
  void enableAutoPush();

  // ---- QoS contract plane ----

  /// Master knob (default off: registrations behave exactly as before).
  void enableContractPlane() { contractPlane_ = true; }
  [[nodiscard]] bool contractPlaneEnabled() const { return contractPlane_; }

  using ContractEventSink = std::function<void(const ContractEvent&)>;
  /// Direct event delivery (single-shard deployments / tests). When unset
  /// and an RPC endpoint is bound, events ride a one-way "contract-event"
  /// notification to the session host's manager port instead.
  void setContractEventSink(ContractEventSink sink) { sink_ = std::move(sink); }

  /// Bind the agent's RPC endpoint on `seat`: serves "renegotiate"
  /// (body "pid=<n>;dir=down|up") and carries liveliness probes and
  /// contract-event notifications.
  void bindRpc(net::Network& network, osim::Host& seat, int port = 7200);

  /// Attach a contract-plane flight recorder (nullptr detaches): every
  /// admission decision, renegotiation, liveliness loss and ownership move
  /// is recorded (log + metrics + optional spans), and per-session tier
  /// residency is tracked through it. The recorder must outlive the
  /// attachment; default off.
  void setFlightRecorder(obs::FlightRecorder* recorder) {
    flightRecorder_ = recorder;
  }
  [[nodiscard]] obs::FlightRecorder* flightRecorder() const {
    return flightRecorder_;
  }

  /// Renegotiate a live session: down degrades a full-tier session to its
  /// request's degraded floors; up restores a degraded session to full
  /// (only when the offer actually satisfies the full request). Returns
  /// whether the tier changed.
  bool renegotiate(std::uint32_t pid, bool down);

  struct SessionInfo {
    policy::AdmissionTier admittedTier = policy::AdmissionTier::kFull;
    policy::AdmissionTier currentTier = policy::AdmissionTier::kFull;
    std::string offeredContract;
    std::string requestedContract;
    int strength = 0;
    bool alive = true;
    /// True once a requested side matched and admission ran; the deadline
    /// below is only meaningful then.
    bool hasContract = false;
    /// The deadline bound in force for the session (ms; 0 = unbounded).
    double effectiveDeadlineMs = 0;
  };
  [[nodiscard]] std::optional<SessionInfo> sessionInfo(std::uint32_t pid) const;

  /// Every live session's public info, sorted by pid (deterministic — the
  /// latency-budget exporter joins contract deadlines against attribution).
  [[nodiscard]] std::vector<std::pair<std::uint32_t, SessionInfo>> sessions()
      const;

  /// Current exclusive owner among the alive offerers of `offeredContract`
  /// (strongest strength, ties to the lowest pid). 0 = no owner.
  [[nodiscard]] std::uint32_t ownerOf(const std::string& offeredContract) const;

  [[nodiscard]] std::size_t sessionCount() const { return sessions_.size(); }
  [[nodiscard]] std::uint64_t registrations() const { return registrations_; }
  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }
  [[nodiscard]] std::uint64_t admissionsFull() const { return admissionsFull_; }
  [[nodiscard]] std::uint64_t admissionsDegraded() const {
    return admissionsDegraded_;
  }
  [[nodiscard]] std::uint64_t admissionsRejected() const { return rejections_; }
  [[nodiscard]] std::uint64_t livelinessLosses() const {
    return livelinessLosses_;
  }
  [[nodiscard]] std::uint64_t ownershipFailovers() const { return failovers_; }
  [[nodiscard]] std::uint64_t renegotiations() const { return renegotiations_; }
  [[nodiscard]] std::uint64_t livelinessProbesSent() const { return probes_; }

 private:
  struct Session {
    Registration reg;
    bool hasContract = false;  // a requested side matched: admission ran
    bool hasOffer = false;
    policy::QosOffer offer;
    policy::QosRequest request;
    std::string offeredContract;
    std::string requestedContract;
    std::string deadlineAttribute;
    policy::AdmissionTier admittedTier = policy::AdmissionTier::kFull;
    policy::AdmissionTier currentTier = policy::AdmissionTier::kFull;
    policy::AdmissionDecision decision;
    int strength = 0;
    bool alive = true;
    int missedProbes = 0;
    sim::EventId probeEvent = sim::kInvalidEvent;
    sim::EventId upgradeEvent = sim::kInvalidEvent;
  };

  std::vector<policy::CompiledPolicy> compileFor(const Registration& reg);
  /// Resolve contracts + run RxO admission for a new session. Relaxes
  /// `compiled` thresholds in place at the degraded tier. Throws
  /// AdmissionError on rejection.
  void admitSession(Session& session,
                    std::vector<policy::CompiledPolicy>& compiled);
  /// Lower the thresholds guarding `attribute` to the fps equivalent of the
  /// effective deadline (fps = 1000/deadlineMs); never tightens.
  static void applyDegradedDeadline(
      std::vector<policy::CompiledPolicy>& compiled,
      const std::string& attribute, double effectiveDeadlineMs);
  /// Push the tier's coordinator knobs: history depth caps the report
  /// buffer, VOLATILE durability disables store-and-forward.
  void applyTier(Session& session);
  void startProbe(Session& session);
  /// Arm / disarm the periodic full-tier retry for a renegotiated-down
  /// session. Downgrades are evidence-driven (the host manager's rules see
  /// the violation), but once the relaxed floors are satisfied the stream
  /// goes quiet — no violation, no cleared report — so recovery needs a
  /// probe: the agent retries "up", and if the upgrade was premature the
  /// next violation degrades the session again.
  void startUpgradeRetry(Session& session);
  void stopUpgradeRetry(Session& session);
  void handleProbeReply(std::uint32_t pid, bool ok, const std::string& body);
  void markLivelinessLost(std::uint32_t pid);
  void recomputeOwner(const std::string& contract,
                      const std::string& fallbackHost);
  void emitEvent(ContractEvent event);
  /// Drop a session's bookkeeping (probe event, ownership) without touching
  /// its coordinator. Returns the offered contract for owner recompute.
  void dropSession(std::map<std::uint32_t, Session>::iterator it);

  /// Tier residency bookkeeping through the attached flight recorder
  /// (no-op when none is attached).
  void recordTierEnter(const Session& session);

  sim::Simulation& sim_;
  RepositoryService& repository_;
  obs::FlightRecorder* flightRecorder_ = nullptr;
  std::map<std::uint32_t, Session> sessions_;
  std::map<std::string, std::uint32_t> owners_;  // offered contract -> owner
  std::unique_ptr<net::RpcEndpoint> rpc_;
  ContractEventSink sink_;
  int nextComparisonId_ = 1;
  std::uint64_t registrations_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t admissionsFull_ = 0;
  std::uint64_t admissionsDegraded_ = 0;
  std::uint64_t rejections_ = 0;
  std::uint64_t livelinessLosses_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t renegotiations_ = 0;
  std::uint64_t probes_ = 0;
  bool contractPlane_ = false;
  bool autoPush_ = false;
  bool refreshPending_ = false;  // coalesces bursts of repository changes
};

}  // namespace softqos::distribution
