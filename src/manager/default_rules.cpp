#include "manager/default_rules.hpp"

#include <sstream>

namespace softqos::manager {

namespace {

std::string num(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace

std::string defaultHostRules(const HostRuleThresholds& t) {
  const std::string bufLow = num(t.bufferLowBytes);
  const std::string fSevere = num(t.fpsSevere);
  const std::string fModerate = num(t.fpsModerate);
  const std::string fLow = num(t.fpsLow);
  const std::string fHigh = num(t.fpsHigh);
  const std::string jHigh = num(t.jitterHigh);
  const std::string memHigh = num(t.memSlowdownHigh);

  return std::string(R"(
; ---- Local CPU shortage: the communication buffer is backing up, so frames
; ---- arrive but the process cannot drain them. Boost sized by the deficit.
(defrule local-cpu-shortage-severe
  (declare (salience 20))
  (violation (pid ?pid))
  (metric (pid ?pid) (name buffer_size) (value ?b))
  (metric (pid ?pid) (name frame_rate) (value ?f))
  (test (>= ?b )") + bufLow + R"())
  (test (< ?f )" + fSevere + R"())
  =>
  (call boost-cpu ?pid 12))

(defrule local-cpu-shortage-moderate
  (declare (salience 20))
  (violation (pid ?pid))
  (metric (pid ?pid) (name buffer_size) (value ?b))
  (metric (pid ?pid) (name frame_rate) (value ?f))
  (test (>= ?b )" + bufLow + R"())
  (test (>= ?f )" + fSevere + R"())
  (test (< ?f )" + fModerate + R"())
  =>
  (call boost-cpu ?pid 6))

(defrule local-cpu-shortage-mild
  (declare (salience 20))
  (violation (pid ?pid))
  (metric (pid ?pid) (name buffer_size) (value ?b))
  (metric (pid ?pid) (name frame_rate) (value ?f))
  (test (>= ?b )" + bufLow + R"())
  (test (>= ?f )" + fModerate + R"())
  (test (< ?f )" + fLow + R"())
  =>
  (call boost-cpu ?pid 3))

; ---- Jitter-only violation with frame rate in band: gentle boost.
(defrule local-jitter
  (declare (salience 10))
  (violation (pid ?pid))
  (metric (pid ?pid) (name jitter_rate) (value ?j))
  (metric (pid ?pid) (name frame_rate) (value ?f))
  (metric (pid ?pid) (name buffer_size) (value ?b))
  (test (>= ?b )" + bufLow + R"())
  (test (>= ?j )" + jHigh + R"())
  (test (>= ?f )" + fLow + R"())
  =>
  (call boost-cpu ?pid 2))

; ---- Exceeding expectations: free CPU for other work (Section 2).
(defrule over-provisioned
  (declare (salience 15))
  (violation (pid ?pid))
  (metric (pid ?pid) (name frame_rate) (value ?f))
  (test (> ?f )" + fHigh + R"())
  =>
  (call decay-cpu ?pid 2))

; ---- Memory pressure: the process is paging; give it more resident pages.
(defrule memory-pressure
  (declare (salience 25))
  (violation (pid ?pid))
  (proc-stat (pid ?pid) (mem-slowdown ?s))
  (test (> ?s )" + memHigh + R"())
  =>
  (call grow-memory ?pid 1024))

; ---- Empty communication buffer while under-performing: the problem is not
; ---- local (Example 5); let the domain manager locate it.
(defrule remote-problem
  (declare (salience 20))
  (violation (pid ?pid))
  (metric (pid ?pid) (name buffer_size) (value ?b))
  (metric (pid ?pid) (name frame_rate) (value ?f))
  (test (< ?b )" + bufLow + R"())
  (test (< ?f )" + fLow + R"())
  =>
  (call notify-domain-manager ?pid))

; ---- Proactive QoS (Section 10): a predicted violation arrives while the
; ---- current value still complies -> head-start boost before users notice.
(defrule proactive-boost
  (declare (salience 18))
  (violation (pid ?pid))
  (metric (pid ?pid) (name predicted_frame_rate) (value ?pf))
  (test (< ?pf )" + fLow + R"())
  =>
  (call boost-cpu ?pid 4))

; ---- Overload (Section 10): the CPU knobs are exhausted (real-time cycles
; ---- already granted) and the policy is still under-performing -> ask the
; ---- application to adapt its behaviour (e.g. reduce decode quality).
(defrule overload-adapt
  (declare (salience 5))
  (violation (pid ?pid))
  (alloc-state (pid ?pid) (rt ?r))
  (metric (pid ?pid) (name frame_rate) (value ?f))
  (metric (pid ?pid) (name buffer_size) (value ?b))
  (test (> ?r 0))
  (test (< ?f )" + fLow + R"())
  (test (>= ?b )" + bufLow + R"())
  =>
  (call request-adaptation ?pid quality down))

; ---- Return to compliance: reset escalation bookkeeping.
(defrule compliance-restored
  (cleared (pid ?pid))
  =>
  (call clear-state ?pid))

; ---- The management plane is missing its own objectives (SLO burn-rate
; ---- breach asserted by the self-telemetry plane): local adaptation is not
; ---- keeping up, so escalate every still-violated session to the domain
; ---- manager regardless of where the evidence points.
(defrule slo-breach-escalate
  (declare (salience 30))
  (slo-breach (objective ?o))
  (violation (pid ?pid))
  =>
  (call notify-domain-manager ?pid))
)";
}

std::string contractHostRules(const HostRuleThresholds& t) {
  const std::string fLow = num(t.fpsLow);

  return std::string(R"(
; ---- Graceful degradation: a session still under its full-tier contract is
; ---- violating with the frame rate below the policy band -> ask the Policy
; ---- Agent to renegotiate down to the request's degraded floors. The agent
; ---- verifies the tier (and the request's willingness to degrade); the
; ---- per-pid throttle in the manager absorbs repeat notifications.
(defrule contract-downgrade-on-violation
  (declare (salience 8))
  (violation (pid ?pid))
  (metric (pid ?pid) (name frame_rate) (value ?f))
  (not (contract-degraded (pid ?pid)))
  (test (< ?f )") + fLow + R"())
  =>
  (call renegotiate-contract ?pid down))

; ---- Renegotiation back up: the degraded session returned to compliance,
; ---- so try to restore the full tier (the agent refuses when the offer
; ---- cannot satisfy the full request).
(defrule contract-upgrade-on-recovery
  (declare (salience 8))
  (cleared (pid ?pid))
  (contract-degraded (pid ?pid))
  =>
  (call renegotiate-contract ?pid up))

; ---- An offerer missed its liveliness lease: record the loss. The Policy
; ---- Agent has already moved exclusive ownership to the next-strongest
; ---- alive offerer; a contract-owner fact follows with the new owner.
(defrule contract-liveliness-lost
  (declare (salience 30))
  (liveliness-lost (pid ?pid) (contract ?c))
  =>
  (call log liveliness-lost pid ?pid contract ?c))

(defrule contract-owner-changed
  (declare (salience 30))
  (contract-owner (contract ?c) (pid ?pid))
  =>
  (call log contract ?c now owned by pid ?pid))
)";
}

std::string defaultDomainRules(const DomainRuleThresholds& t) {
  const std::string loadHigh = num(t.serverLoadHigh);
  const std::string utilHigh = num(t.netUtilHigh);

  return std::string(R"(
; ---- Heartbeat protocol hypothesis: the server's whole host stopped
; ---- answering liveness probes. Diagnose without waiting on host-stats
; ---- evidence; the restart is issued anyway (retries carry it across the
; ---- outage) and recovery revalidation backstops it.
(defrule diagnose-host-failure
  (declare (salience 40))
  (escalation (id ?e) (server ?s) (spid ?sp))
  (host-failure (host ?s))
  =>
  (call diagnose ?e host-failure)
  (call restart-server ?s ?sp))

; ---- Server process is gone (but its host still answers): restart it
; ---- (adaptation, Section 3.1).
(defrule diagnose-process-failure
  (declare (salience 30))
  (escalation (id ?e) (server ?s) (spid ?sp))
  (server-stats (id ?e) (alive 0))
  (not (host-failure (host ?s)))
  =>
  (call diagnose ?e process-failure)
  (call restart-server ?s ?sp))

; ---- Server starved of CPU: tell the server-side host manager to raise the
; ---- server process priority (Section 7).
(defrule diagnose-server-overload
  (declare (salience 20))
  (escalation (id ?e) (server ?s) (spid ?sp))
  (server-stats (id ?e) (alive 1) (load ?l))
  (test (>= ?l )") + loadHigh + R"())
  =>
  (call diagnose ?e server-overload)
  (call boost-server ?s ?sp 10))

; ---- Server healthy but a switch is saturated: network congestion.
(defrule diagnose-network-congestion
  (declare (salience 10))
  (escalation (id ?e))
  (server-stats (id ?e) (alive 1) (load ?l))
  (net-stats (id ?e) (max-util ?u))
  (test (< ?l )" + loadHigh + R"())
  (test (>= ?u )" + utilHigh + R"())
  =>
  (call diagnose ?e network-congestion)
  (call reroute-congested ?e))

; ---- Nothing conclusive.
(defrule diagnose-unknown
  (declare (salience 0))
  (escalation (id ?e))
  (server-stats (id ?e) (alive 1) (load ?l))
  (net-stats (id ?e) (max-util ?u))
  (test (< ?l )" + loadHigh + R"())
  (test (< ?u )" + utilHigh + R"())
  =>
  (call diagnose ?e unknown))
)";
}

}  // namespace softqos::manager
