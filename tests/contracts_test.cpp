// QoS contract plane: the DDS-style RxO compatibility matrix, contract
// parsing (wire strings, `contract` blocks, LDAP entries), repository
// matching, policy-agent admission control (full / degraded / rejected),
// session hygiene (re-registration, deregistration), sensor hotplug, tier
// renegotiation, and the host manager's contract-event fact plane.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/testbed.hpp"
#include "apps/video_model.hpp"
#include "distribution/policy_agent.hpp"
#include "instrument/sensors.hpp"
#include "policy/ldap_mapping.hpp"
#include "policy/parser.hpp"
#include "policy/qos_contract.hpp"
#include "rules/fact.hpp"

namespace softqos {
namespace {

using policy::AdmissionTier;
using policy::DurabilityKind;
using policy::LivelinessKind;
using policy::QosOffer;
using policy::QosPolicyKind;
using policy::QosRequest;

QosOffer strongOffer() {
  QosOffer offer;
  offer.deadlineMs = 33;
  offer.liveliness = LivelinessKind::kAutomatic;
  offer.leaseMs = 400;
  offer.historyDepth = 8;
  offer.durability = DurabilityKind::kTransientLocal;
  offer.ownershipStrength = 10;
  return offer;
}

QosRequest goldRequest() {
  QosRequest request;
  request.maxDeadlineMs = 36;
  request.maxLeaseMs = 500;
  request.minHistoryDepth = 4;
  request.minDurability = DurabilityKind::kTransientLocal;
  request.degradedDeadlineMs = 80;
  request.degradedHistoryDepth = 1;
  return request;
}

// ---- RxO compatibility matrix ----

TEST(RxoMatrix, CompatibleOfferHasNoMismatches) {
  EXPECT_TRUE(policy::rxoMismatches(strongOffer(), goldRequest()).empty());
}

TEST(RxoMatrix, EmptyRequestIsAlwaysCompatible) {
  EXPECT_TRUE(policy::rxoMismatches(QosOffer{}, QosRequest{}).empty());
  EXPECT_TRUE(policy::rxoMismatches(strongOffer(), QosRequest{}).empty());
}

TEST(RxoMatrix, DeadlineViolationsAreTyped) {
  QosOffer offer = strongOffer();
  offer.deadlineMs = 40;
  QosRequest request = goldRequest();
  const auto mismatches = policy::rxoMismatches(offer, request);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_EQ(mismatches[0].kind, QosPolicyKind::kDeadline);

  // A requested deadline with no offered deadline at all also fails.
  offer.deadlineMs = 0;
  const auto none = policy::rxoMismatches(offer, request);
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].kind, QosPolicyKind::kDeadline);
}

TEST(RxoMatrix, LivelinessRequiresAnOfferedLeaseWithinBound) {
  QosOffer offer = strongOffer();
  offer.leaseMs = 0;  // no liveliness promise
  QosRequest request = goldRequest();
  auto mismatches = policy::rxoMismatches(offer, request);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_EQ(mismatches[0].kind, QosPolicyKind::kLiveliness);

  offer.leaseMs = 600;  // promised, but slower than asked
  mismatches = policy::rxoMismatches(offer, request);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_EQ(mismatches[0].kind, QosPolicyKind::kLiveliness);
}

TEST(RxoMatrix, HistoryAndDurabilityAreOrdered) {
  QosOffer offer = strongOffer();
  offer.historyDepth = 2;
  offer.durability = DurabilityKind::kVolatile;
  const auto mismatches = policy::rxoMismatches(offer, goldRequest());
  ASSERT_EQ(mismatches.size(), 2u);
  EXPECT_EQ(mismatches[0].kind, QosPolicyKind::kHistory);
  EXPECT_EQ(mismatches[1].kind, QosPolicyKind::kDurability);
}

TEST(Admission, CompatibleMatchAdmitsFull) {
  const auto decision = policy::admit(strongOffer(), goldRequest());
  EXPECT_EQ(decision.tier, AdmissionTier::kFull);
  EXPECT_DOUBLE_EQ(decision.effectiveDeadlineMs, 36);
  EXPECT_EQ(decision.effectiveHistoryDepth, 8);
  EXPECT_TRUE(decision.mismatches.empty());
}

TEST(Admission, DegradedFloorsRescueAnIncompatibleMatch) {
  QosOffer offer = strongOffer();
  offer.deadlineMs = 60;   // misses the 36ms ask, inside the 80ms floor
  offer.historyDepth = 2;  // misses history>=4, inside degrade-history>=1
  const auto decision = policy::admit(offer, goldRequest());
  EXPECT_EQ(decision.tier, AdmissionTier::kDegraded);
  EXPECT_DOUBLE_EQ(decision.effectiveDeadlineMs, 80);
  EXPECT_EQ(decision.effectiveHistoryDepth, 1);
  // The mismatches that forced the degraded tier are preserved as the reason.
  EXPECT_FALSE(decision.mismatches.empty());
  EXPECT_FALSE(decision.reason().empty());
}

TEST(Admission, DegradedFloorsCannotWaiveLivelinessOrDurability) {
  // The degrade clause only relaxes deadline and history: an offer that
  // cannot meet the liveliness or durability ask stays rejected.
  QosOffer offer = strongOffer();
  offer.durability = DurabilityKind::kVolatile;
  const auto decision = policy::admit(offer, goldRequest());
  EXPECT_EQ(decision.tier, AdmissionTier::kRejected);
}

TEST(Admission, StrictRequestRejectsOutright) {
  QosRequest strict = goldRequest();
  strict.degradedDeadlineMs = 0;
  strict.degradedHistoryDepth = -1;
  ASSERT_FALSE(strict.allowDegraded());
  QosOffer offer = strongOffer();
  offer.deadlineMs = 60;
  const auto decision = policy::admit(offer, strict);
  EXPECT_EQ(decision.tier, AdmissionTier::kRejected);
  ASSERT_EQ(decision.mismatches.size(), 1u);
  EXPECT_EQ(decision.mismatches[0].kind, QosPolicyKind::kDeadline);
}

TEST(Admission, FloorsTooHighStillReject) {
  QosOffer offer = strongOffer();
  offer.deadlineMs = 200;  // beyond even the 80ms degraded floor
  const auto decision = policy::admit(offer, goldRequest());
  EXPECT_EQ(decision.tier, AdmissionTier::kRejected);
}

// ---- Wire serialization ----

TEST(ContractWire, OfferRoundTripsThroughToString) {
  const QosOffer offer = policy::parseQosOffer(
      "deadline=33ms liveliness=automatic:400ms history=8 "
      "durability=transient_local strength=10");
  EXPECT_DOUBLE_EQ(offer.deadlineMs, 33);
  EXPECT_EQ(offer.liveliness, LivelinessKind::kAutomatic);
  EXPECT_DOUBLE_EQ(offer.leaseMs, 400);
  EXPECT_EQ(offer.historyDepth, 8);
  EXPECT_EQ(offer.durability, DurabilityKind::kTransientLocal);
  EXPECT_EQ(offer.ownershipStrength, 10);

  const QosOffer again = policy::parseQosOffer(offer.toString());
  EXPECT_EQ(again.toString(), offer.toString());

  // toString -> parse gives back every field, for every shape of offer.
  for (const char* text :
       {"", "deadline=0.5s", "liveliness=manual:1.5s history=1",
        "strength=3 durability=volatile", "deadline=12.25 history=0",
        "deadline=33ms liveliness=automatic:400ms history=8 "
        "durability=transient_local strength=10"}) {
    const QosOffer parsed = policy::parseQosOffer(text);
    const QosOffer back = policy::parseQosOffer(parsed.toString());
    EXPECT_DOUBLE_EQ(back.deadlineMs, parsed.deadlineMs) << text;
    EXPECT_EQ(back.liveliness, parsed.liveliness) << text;
    EXPECT_DOUBLE_EQ(back.leaseMs, parsed.leaseMs) << text;
    EXPECT_EQ(back.historyDepth, parsed.historyDepth) << text;
    EXPECT_EQ(back.durability, parsed.durability) << text;
    EXPECT_EQ(back.ownershipStrength, parsed.ownershipStrength) << text;
    EXPECT_EQ(back.toString(), parsed.toString()) << text;
  }
}

TEST(ContractWire, RequestRoundTripsThroughToString) {
  const QosRequest request = policy::parseQosRequest(
      "deadline<=36ms lease<=500ms history>=4 durability>=transient_local "
      "degrade-deadline<=80ms degrade-history>=1");
  EXPECT_DOUBLE_EQ(request.maxDeadlineMs, 36);
  EXPECT_DOUBLE_EQ(request.maxLeaseMs, 500);
  EXPECT_EQ(request.minHistoryDepth, 4);
  EXPECT_EQ(request.minDurability, DurabilityKind::kTransientLocal);
  EXPECT_TRUE(request.allowDegraded());
  EXPECT_DOUBLE_EQ(request.degradedDeadlineMs, 80);
  EXPECT_EQ(request.degradedHistoryDepth, 1);

  const QosRequest again = policy::parseQosRequest(request.toString());
  EXPECT_EQ(again.toString(), request.toString());

  // toString -> parse gives back every field, the unset degraded history
  // (-1) and a degraded history of 0 included.
  for (const char* text :
       {"", "deadline<=40ms degrade-deadline<=100ms degrade-history>=1",
        "lease<=2s", "history>=3 degrade-history>=0",
        "durability>=volatile deadline<=0.25s",
        "deadline<=36ms lease<=500ms history>=4 durability>=transient_local "
        "degrade-deadline<=80ms degrade-history>=1"}) {
    const QosRequest parsed = policy::parseQosRequest(text);
    const QosRequest back = policy::parseQosRequest(parsed.toString());
    EXPECT_DOUBLE_EQ(back.maxDeadlineMs, parsed.maxDeadlineMs) << text;
    EXPECT_DOUBLE_EQ(back.maxLeaseMs, parsed.maxLeaseMs) << text;
    EXPECT_EQ(back.minHistoryDepth, parsed.minHistoryDepth) << text;
    EXPECT_EQ(back.minDurability, parsed.minDurability) << text;
    EXPECT_DOUBLE_EQ(back.degradedDeadlineMs, parsed.degradedDeadlineMs)
        << text;
    EXPECT_EQ(back.degradedHistoryDepth, parsed.degradedHistoryDepth) << text;
    EXPECT_EQ(back.toString(), parsed.toString()) << text;
  }
}

TEST(ContractWire, SecondsAndBareNumbersParseAsMs) {
  EXPECT_DOUBLE_EQ(policy::parseQosOffer("deadline=1s").deadlineMs, 1000);
  EXPECT_DOUBLE_EQ(policy::parseQosRequest("deadline<=40").maxDeadlineMs, 40);
}

TEST(ContractWire, MalformedInputThrows) {
  EXPECT_THROW((void)policy::parseQosOffer("deadline:33ms"),
               std::invalid_argument);
  EXPECT_THROW((void)policy::parseQosOffer("cadence=33ms"),
               std::invalid_argument);
  EXPECT_THROW((void)policy::parseQosOffer("liveliness=automatic"),
               std::invalid_argument);
  EXPECT_THROW((void)policy::parseQosOffer("durability=granite"),
               std::invalid_argument);
  EXPECT_THROW((void)policy::parseQosRequest("deadline=33ms"),
               std::invalid_argument);
  EXPECT_THROW((void)policy::parseQosRequest("mystery<=5"),
               std::invalid_argument);
  // Counts and durations are strict, non-negative numbers, checked when
  // the contract is parsed rather than at admission.
  for (const char* offer :
       {"history=abc", "strength=-5x", "strength=-5", "history=-1",
        "history=99999999999", "deadline=-5ms", "deadline=nanms",
        "deadline=1e400ms", "deadline=ms", "deadline=5xs",
        "liveliness=automatic:-1ms"}) {
    EXPECT_THROW((void)policy::parseQosOffer(offer), std::invalid_argument)
        << offer;
  }
  for (const char* request :
       {"history>=-3", "degrade-history>=-1", "deadline<=-36ms",
        "lease<=0x10ms", "degrade-deadline<=+-5ms",
        // Degraded floors relax the request; they may not tighten it.
        "deadline<=80ms degrade-deadline<=36ms",
        "history>=1 degrade-history>=4"}) {
    EXPECT_THROW((void)policy::parseQosRequest(request), std::invalid_argument)
        << request;
  }
  // The in-tree shapes still parse: gold's 36/80 ms and 4/1, silver's
  // 40/100 ms with history unset and a degraded history floor.
  EXPECT_NO_THROW((void)policy::parseQosRequest(
      "deadline<=36ms history>=4 degrade-deadline<=80ms degrade-history>=1"));
  EXPECT_NO_THROW((void)policy::parseQosRequest(
      "deadline<=40ms degrade-deadline<=100ms degrade-history>=1"));
}

// ---- `contract` block parsing ----

TEST(ContractParser, ParsesOfferAndRequestBlocks) {
  const auto contracts = policy::parseContracts(
      "contract VideoOffer {\n"
      "  executable VideoApplication\n"
      "  offers deadline=33ms liveliness=automatic:400ms history=8\n"
      "         durability=transient_local strength=10\n"
      "  deadline_attribute frame_rate\n"
      "}\n"
      "contract SilverAsk {\n"
      "  application VideoConference\n"
      "  role silver\n"
      "  requests deadline<=40ms degrade-deadline<=100ms\n"
      "}\n");
  ASSERT_EQ(contracts.size(), 2u);
  EXPECT_EQ(contracts[0].name, "VideoOffer");
  EXPECT_EQ(contracts[0].executable, "VideoApplication");
  ASSERT_TRUE(contracts[0].hasOffer);
  EXPECT_FALSE(contracts[0].hasRequest);
  EXPECT_DOUBLE_EQ(contracts[0].offer.deadlineMs, 33);
  EXPECT_EQ(contracts[0].offer.ownershipStrength, 10);
  EXPECT_EQ(contracts[0].deadlineAttribute, "frame_rate");

  EXPECT_EQ(contracts[1].userRole, "silver");
  EXPECT_EQ(contracts[1].application, "VideoConference");
  ASSERT_TRUE(contracts[1].hasRequest);
  EXPECT_DOUBLE_EQ(contracts[1].request.maxDeadlineMs, 40);
  EXPECT_TRUE(contracts[1].request.allowDegraded());
}

TEST(ContractParser, BadBlocksThrow) {
  EXPECT_THROW(policy::parseContract("contract X { wobble yes }"),
               policy::PolicyParseError);
  EXPECT_THROW(policy::parseContract("oblig X { }"), policy::PolicyParseError);
  EXPECT_THROW(policy::parseContract("contract X {"),
               policy::PolicyParseError);
  EXPECT_THROW(policy::parseContract("contract X { offers cadence=1 }"),
               policy::PolicyParseError);
}

// ---- LDAP mapping and repository matching ----

TEST(ContractLdap, EntryRoundTripPreservesEverySide) {
  policy::ContractSpec spec;
  spec.name = "both-sides";
  spec.executable = "VideoApplication";
  spec.application = "VideoConference";
  spec.userRole = "gold";
  spec.hasOffer = true;
  spec.offer = strongOffer();
  spec.hasRequest = true;
  spec.request = goldRequest();
  spec.deadlineAttribute = "frame_rate";
  spec.enabled = false;

  const policy::ContractSpec back =
      policy::contractFromEntry(policy::toEntry(spec));
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.executable, spec.executable);
  EXPECT_EQ(back.application, spec.application);
  EXPECT_EQ(back.userRole, spec.userRole);
  ASSERT_TRUE(back.hasOffer);
  EXPECT_EQ(back.offer.toString(), spec.offer.toString());
  ASSERT_TRUE(back.hasRequest);
  EXPECT_EQ(back.request.toString(), spec.request.toString());
  EXPECT_EQ(back.deadlineAttribute, "frame_rate");
  EXPECT_FALSE(back.enabled);
}

struct ContractRepoFixture : ::testing::Test {
  distribution::RepositoryService repo;
  void SetUp() override {
    apps::seedVideoModel(repo);
    apps::seedVideoContracts(repo);
  }
};

TEST_F(ContractRepoFixture, CrudAndReplaceSemantics) {
  EXPECT_EQ(repo.contractNames().size(), 3u);
  ASSERT_TRUE(repo.findContract("video-server-offer").has_value());
  EXPECT_TRUE(repo.findContract("video-server-offer")->hasOffer);

  // Re-adding a contract under the same name replaces it (run-time tuning).
  policy::ContractSpec tuned = *repo.findContract("video-server-offer");
  tuned.offer.deadlineMs = 50;
  EXPECT_EQ(repo.addContract(tuned), ldapdir::LdapResult::kSuccess);
  EXPECT_EQ(repo.contractNames().size(), 3u);
  EXPECT_DOUBLE_EQ(repo.findContract("video-server-offer")->offer.deadlineMs,
                   50);

  EXPECT_TRUE(repo.removeContract("video-server-offer"));
  EXPECT_FALSE(repo.removeContract("video-server-offer"));
  EXPECT_FALSE(repo.findContract("video-server-offer").has_value());
}

TEST_F(ContractRepoFixture, OfferLookupPrefersApplicationSpecificEntries) {
  const auto any = repo.offeredContractFor("VideoApplication", "VideoConference");
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->name, "video-server-offer");

  policy::ContractSpec specific = *any;
  specific.name = "conference-only-offer";
  specific.application = "VideoConference";
  repo.addContract(specific);
  EXPECT_EQ(
      repo.offeredContractFor("VideoApplication", "VideoConference")->name,
      "conference-only-offer");
  // Another application still matches the wildcard entry.
  EXPECT_EQ(repo.offeredContractFor("VideoApplication", "Surveillance")->name,
            "video-server-offer");
  EXPECT_FALSE(repo.offeredContractFor("OtherExe", "VideoConference")
                   .has_value());
}

TEST_F(ContractRepoFixture, RequestLookupPrefersRoleSpecificEntries) {
  ASSERT_TRUE(repo.requestedContractFor("VideoConference", "gold").has_value());
  EXPECT_EQ(repo.requestedContractFor("VideoConference", "gold")->name,
            "video-gold-request");
  EXPECT_EQ(repo.requestedContractFor("VideoConference", "silver")->name,
            "video-silver-request");

  // A role with no entry of its own falls back to a role-less request.
  EXPECT_FALSE(
      repo.requestedContractFor("VideoConference", "bronze").has_value());
  policy::ContractSpec anyRole = *repo.findContract("video-silver-request");
  anyRole.name = "any-role-request";
  anyRole.userRole = "";
  repo.addContract(anyRole);
  EXPECT_EQ(repo.requestedContractFor("VideoConference", "bronze")->name,
            "any-role-request");
  // The role-specific entry still wins for its own role.
  EXPECT_EQ(repo.requestedContractFor("VideoConference", "gold")->name,
            "video-gold-request");
}

TEST_F(ContractRepoFixture, DisabledContractsDoNotMatch) {
  policy::ContractSpec offer = *repo.findContract("video-server-offer");
  offer.enabled = false;
  repo.addContract(offer);
  EXPECT_FALSE(repo.offeredContractFor("VideoApplication", "VideoConference")
                   .has_value());
}

// ---- Policy-agent admission control ----

/// One registered session's plumbing: registry, sensors, coordinator, and
/// the violation reports it produced.
struct SessionRig {
  instrument::SensorRegistry registry;
  std::unique_ptr<instrument::Coordinator> coordinator;
  instrument::GaugeSensor* fps = nullptr;
  std::vector<instrument::ViolationReport> reports;

  SessionRig(sim::Simulation& s, std::uint32_t pid) {
    auto f = std::make_shared<instrument::GaugeSensor>(s, "fps_sensor",
                                                       "frame_rate");
    fps = f.get();
    registry.addSensor(std::move(f));
    registry.addSensor(std::make_shared<instrument::GaugeSensor>(
        s, "jitter_sensor", "jitter_rate"));
    registry.addSensor(std::make_shared<instrument::GaugeSensor>(
        s, "buffer_sensor", "buffer_size"));
    coordinator = std::make_unique<instrument::Coordinator>(
        s, "client-host", pid, "VideoApplication", registry,
        [this](const instrument::ViolationReport& r) {
          reports.push_back(r);
          return true;
        });
    coordinator->setRepeatInterval(0);
  }

  [[nodiscard]] std::size_t violations() const {
    std::size_t count = 0;
    for (const auto& r : reports) count += r.violated ? 1 : 0;
    return count;
  }
};

struct AdmissionFixture : ContractRepoFixture {
  sim::Simulation s{1};
  distribution::PolicyAgent agent{s, repo};
  std::vector<distribution::ContractEvent> events;

  void SetUp() override {
    ContractRepoFixture::SetUp();
    repo.addPolicy(videoPolicy());
    agent.enableContractPlane();
    agent.setContractEventSink(
        [this](const distribution::ContractEvent& e) { events.push_back(e); });
  }

  static policy::PolicySpec videoPolicy() {
    policy::PolicySpec spec = policy::parseObligation(
        apps::videoPolicyText("P1", 28.0, 4.0, 3.0, 1.25));
    spec.application = "VideoConference";
    return spec;
  }

  distribution::PolicyAgent::Registration registrationFor(
      SessionRig& rig, std::uint32_t pid, const std::string& role) {
    distribution::PolicyAgent::Registration reg;
    reg.pid = pid;
    reg.application = "VideoConference";
    reg.executable = "VideoApplication";
    reg.role = role;
    reg.coordinator = rig.coordinator.get();
    return reg;
  }

  /// Weaken the seeded offer so the gold ask (deadline<=36ms history>=4)
  /// only fits through its degraded floors (deadline<=80ms history>=1).
  void weakenOffer(double deadlineMs = 60, int history = 2) {
    policy::ContractSpec offer = *repo.findContract("video-server-offer");
    offer.offer.deadlineMs = deadlineMs;
    offer.offer.historyDepth = history;
    repo.addContract(offer);
  }
};

TEST_F(AdmissionFixture, GoldAdmitsAtFullTier) {
  SessionRig rig(s, 1);
  EXPECT_EQ(agent.registerProcess(registrationFor(rig, 1, "gold")), 1u);
  EXPECT_EQ(agent.admissionsFull(), 1u);
  EXPECT_EQ(agent.admissionsDegraded(), 0u);

  const auto info = agent.sessionInfo(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->admittedTier, AdmissionTier::kFull);
  EXPECT_EQ(info->currentTier, AdmissionTier::kFull);
  EXPECT_EQ(info->offeredContract, "video-server-offer");
  EXPECT_EQ(info->requestedContract, "video-gold-request");
  EXPECT_EQ(info->strength, 10);
  EXPECT_EQ(agent.ownerOf("video-server-offer"), 1u);

  // Full tier still enforces the policy band: 15 fps violates.
  rig.fps->set(26.0);
  rig.fps->set(15.0);
  EXPECT_EQ(rig.violations(), 1u);

  // Full-tier coordinator knobs follow the offer: history caps the report
  // buffer, TRANSIENT_LOCAL keeps store-and-forward on.
  EXPECT_EQ(rig.coordinator->reportBufferCap(), 8u);
  EXPECT_TRUE(rig.coordinator->storeAndForwardEnabled());
}

TEST_F(AdmissionFixture, PlaneOffChangesNothing) {
  distribution::PolicyAgent plain(s, repo);
  SessionRig rig(s, 1);
  distribution::PolicyAgent::Registration reg = registrationFor(rig, 1, "gold");
  EXPECT_EQ(plain.registerProcess(reg), 1u);
  EXPECT_EQ(plain.admissionsFull(), 0u);
  EXPECT_EQ(plain.admissionsDegraded(), 0u);
  EXPECT_EQ(plain.admissionsRejected(), 0u);
  EXPECT_EQ(plain.ownerOf("video-server-offer"), 0u);
}

TEST_F(AdmissionFixture, DegradedAdmissionRelaxesTheDeadlineThresholds) {
  weakenOffer();  // 60ms/history-2 offer vs the 36ms/history-4 gold ask
  SessionRig rig(s, 1);
  EXPECT_EQ(agent.registerProcess(registrationFor(rig, 1, "gold")), 1u);
  EXPECT_EQ(agent.admissionsDegraded(), 1u);

  const auto info = agent.sessionInfo(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->admittedTier, AdmissionTier::kDegraded);

  // The 80ms degraded deadline maps to a 12.5 fps floor: 15 fps no longer
  // violates, 10 fps still does.
  rig.fps->set(26.0);
  rig.fps->set(15.0);
  EXPECT_EQ(rig.violations(), 0u) << "threshold was not relaxed";
  rig.fps->set(10.0);
  EXPECT_EQ(rig.violations(), 1u);

  // Degraded knobs: report buffer capped at the degraded history floor.
  EXPECT_EQ(rig.coordinator->reportBufferCap(), 1u);

  // The degradation was announced to the managing host (followed by the
  // owner-changed event as the session became the contract's first owner).
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].kind, distribution::ContractEvent::Kind::kDegraded);
  EXPECT_EQ(events[0].pid, 1u);
  EXPECT_EQ(events.back().kind,
            distribution::ContractEvent::Kind::kOwnerChanged);
}

TEST_F(AdmissionFixture, IncompatibleStrictRequestIsRejectedTyped) {
  weakenOffer();
  policy::ContractSpec strict = *repo.findContract("video-gold-request");
  strict.request.degradedDeadlineMs = 0;
  strict.request.degradedHistoryDepth = -1;
  repo.addContract(strict);

  SessionRig rig(s, 1);
  try {
    agent.registerProcess(registrationFor(rig, 1, "gold"));
    FAIL() << "expected AdmissionError";
  } catch (const distribution::AdmissionError& e) {
    EXPECT_EQ(e.decision().tier, AdmissionTier::kRejected);
    ASSERT_EQ(e.decision().mismatches.size(), 2u);
    EXPECT_EQ(e.decision().mismatches[0].kind, QosPolicyKind::kDeadline);
    EXPECT_EQ(e.decision().mismatches[1].kind, QosPolicyKind::kHistory);
  }
  // Nothing was installed and no session exists.
  EXPECT_EQ(agent.sessionCount(), 0u);
  EXPECT_EQ(rig.coordinator->policyCount(), 0u);
  EXPECT_EQ(agent.admissionsRejected(), 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, distribution::ContractEvent::Kind::kRejected);
}

TEST_F(AdmissionFixture, VolatileOfferDisablesStoreAndForward) {
  policy::ContractSpec offer = *repo.findContract("video-server-offer");
  offer.offer.durability = DurabilityKind::kVolatile;
  repo.addContract(offer);
  // Silver asks nothing of durability, so the volatile offer still admits
  // at full tier — but its reports are fire-and-forget.
  SessionRig rig(s, 1);
  agent.registerProcess(registrationFor(rig, 1, "silver"));
  EXPECT_EQ(agent.admissionsFull(), 1u);
  EXPECT_FALSE(rig.coordinator->storeAndForwardEnabled());
}

TEST_F(AdmissionFixture, ReRegistrationReplacesTheStaleSession) {
  SessionRig first(s, 1);
  agent.registerProcess(registrationFor(first, 1, "gold"));
  ASSERT_EQ(agent.sessionCount(), 1u);

  // The process died and its pid was recycled; the old coordinator is gone
  // in spirit — re-registration must not touch it, and must not duplicate.
  SessionRig second(s, 1);
  EXPECT_EQ(agent.registerProcess(registrationFor(second, 1, "gold")), 1u);
  EXPECT_EQ(agent.sessionCount(), 1u);
  EXPECT_TRUE(second.coordinator->hasPolicy("P1"));
  EXPECT_EQ(agent.ownerOf("video-server-offer"), 1u);

  // Refresh reaches the new coordinator, not the stale one.
  const std::size_t before = second.coordinator->policyCount();
  EXPECT_EQ(agent.refresh(1), before);
}

TEST_F(AdmissionFixture, DeregisterUninstallsPoliciesAndReleasesOwnership) {
  SessionRig rig(s, 1);
  agent.registerProcess(registrationFor(rig, 1, "gold"));
  ASSERT_EQ(rig.coordinator->policyCount(), 1u);
  ASSERT_EQ(agent.ownerOf("video-server-offer"), 1u);

  agent.deregisterProcess(1);
  EXPECT_EQ(agent.sessionCount(), 0u);
  EXPECT_EQ(rig.coordinator->policyCount(), 0u)
      << "deregistration must uninstall the delivered policies";
  EXPECT_EQ(agent.ownerOf("video-server-offer"), 0u);
}

TEST_F(AdmissionFixture, OwnershipFollowsTheStrongestAliveOfferer) {
  SessionRig strong(s, 1);
  SessionRig weak(s, 2);
  distribution::PolicyAgent::Registration a = registrationFor(strong, 1, "gold");
  a.ownershipStrength = 30;
  distribution::PolicyAgent::Registration b = registrationFor(weak, 2, "gold");
  b.ownershipStrength = 20;
  agent.registerProcess(a);
  agent.registerProcess(b);
  EXPECT_EQ(agent.ownerOf("video-server-offer"), 1u);

  agent.deregisterProcess(1);
  EXPECT_EQ(agent.ownerOf("video-server-offer"), 2u);
  EXPECT_EQ(agent.ownershipFailovers(), 1u);
  bool sawFailover = false;
  for (const auto& e : events) {
    sawFailover = sawFailover ||
                  (e.kind == distribution::ContractEvent::Kind::kOwnerChanged &&
                   e.pid == 2);
  }
  EXPECT_TRUE(sawFailover);
}

TEST_F(AdmissionFixture, OwnershipTiesBreakToTheLowestPid) {
  SessionRig one(s, 7);
  SessionRig two(s, 3);
  distribution::PolicyAgent::Registration a = registrationFor(one, 7, "gold");
  distribution::PolicyAgent::Registration b = registrationFor(two, 3, "gold");
  agent.registerProcess(a);
  agent.registerProcess(b);
  EXPECT_EQ(agent.ownerOf("video-server-offer"), 3u);
}

TEST_F(AdmissionFixture, RenegotiateDownThenBackUp) {
  SessionRig rig(s, 1);
  agent.registerProcess(registrationFor(rig, 1, "gold"));
  rig.fps->set(26.0);

  // Down: the full-tier session falls to its degraded floors.
  EXPECT_TRUE(agent.renegotiate(1, /*down=*/true));
  EXPECT_EQ(agent.sessionInfo(1)->currentTier, AdmissionTier::kDegraded);
  EXPECT_EQ(agent.renegotiations(), 1u);
  rig.fps->set(15.0);
  EXPECT_EQ(rig.violations(), 0u) << "degraded tier should tolerate 15 fps";

  // Up: the offer satisfies the full gold ask, so restoration succeeds and
  // the strict thresholds return.
  EXPECT_TRUE(agent.renegotiate(1, /*down=*/false));
  EXPECT_EQ(agent.sessionInfo(1)->currentTier, AdmissionTier::kFull);
  rig.fps->set(26.0);
  rig.fps->set(15.0);
  EXPECT_EQ(rig.violations(), 1u);

  // No-ops: down from degraded-after-down is fine to refuse, unknown pids
  // change nothing.
  EXPECT_TRUE(agent.renegotiate(1, true));
  EXPECT_FALSE(agent.renegotiate(1, true)) << "already degraded";
  EXPECT_FALSE(agent.renegotiate(99, true));
}

TEST_F(AdmissionFixture, AdmissionDegradedSessionsCannotUpgrade) {
  weakenOffer();
  SessionRig rig(s, 1);
  agent.registerProcess(registrationFor(rig, 1, "gold"));
  ASSERT_EQ(agent.sessionInfo(1)->currentTier, AdmissionTier::kDegraded);
  // The offer still cannot satisfy the full ask: upgrade must refuse.
  EXPECT_FALSE(agent.renegotiate(1, /*down=*/false));
  EXPECT_EQ(agent.sessionInfo(1)->currentTier, AdmissionTier::kDegraded);
}

// ---- Incompatible-match storm: admission control sheds load ----

struct StormOutcome {
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t violations = 0;
};

/// Twenty processes whose offered QoS cannot satisfy a strict request all
/// try to register, then the metric their contract guards collapses. With
/// the contract plane off every one of them is admitted and violates; with
/// it on, admission control rejects them before they can.
StormOutcome runStorm(bool guarded) {
  StormOutcome outcome;
  sim::Simulation s{1};
  distribution::RepositoryService repo;
  apps::seedVideoModel(repo);
  apps::seedVideoContracts(repo);
  {  // Weak offer + strict silver ask: every match is incompatible.
    policy::ContractSpec offer = *repo.findContract("video-server-offer");
    offer.offer.deadlineMs = 60;
    repo.addContract(offer);
    policy::ContractSpec strict = *repo.findContract("video-silver-request");
    strict.request.degradedDeadlineMs = 0;
    strict.request.degradedHistoryDepth = -1;
    repo.addContract(strict);
  }
  policy::PolicySpec spec = policy::parseObligation(
      apps::videoPolicyText("P1", 28.0, 4.0, 3.0, 1.25));
  spec.application = "VideoConference";
  repo.addPolicy(spec);

  distribution::PolicyAgent agent(s, repo);
  if (guarded) agent.enableContractPlane();

  std::vector<std::unique_ptr<SessionRig>> rigs;
  for (std::uint32_t pid = 1; pid <= 20; ++pid) {
    rigs.push_back(std::make_unique<SessionRig>(s, pid));
    distribution::PolicyAgent::Registration reg;
    reg.pid = pid;
    reg.application = "VideoConference";
    reg.executable = "VideoApplication";
    reg.role = "silver";
    reg.coordinator = rigs.back()->coordinator.get();
    try {
      agent.registerProcess(reg);
      ++outcome.admitted;
    } catch (const distribution::AdmissionError&) {
      ++outcome.rejected;
    }
  }
  for (auto& rig : rigs) {
    rig->fps->set(26.0);
    rig->fps->set(10.0);  // the collapse the strict ask predicted
    outcome.violations += rig->violations();
  }
  return outcome;
}

TEST(AdmissionStorm, RxoRejectionPreventsTheViolationStorm) {
  const StormOutcome control = runStorm(/*guarded=*/false);
  const StormOutcome shielded = runStorm(/*guarded=*/true);

  // Unguarded, every doomed session is admitted and violates.
  EXPECT_EQ(control.admitted, 20u);
  ASSERT_GE(control.violations, 20u);

  // Guarded, admission control sheds the whole storm by typed rejection.
  EXPECT_EQ(shielded.rejected, 20u);
  EXPECT_EQ(shielded.admitted, 0u);
  const double prevented =
      static_cast<double>(control.violations - shielded.violations) /
      static_cast<double>(control.violations);
  EXPECT_GE(prevented, 0.9) << "admission control must prevent >=90% of the "
                               "violations the storm caused unguarded";
}

// ---- Sensor hotplug ----

TEST_F(AdmissionFixture, RemovingASensorClearsItsViolations) {
  SessionRig rig(s, 1);
  agent.registerProcess(registrationFor(rig, 1, "gold"));
  rig.fps->set(26.0);
  rig.fps->set(10.0);
  ASSERT_EQ(rig.violations(), 1u);

  // The fps sensor unplugs: its comparisons are optimistic-true again, so
  // the violation it was holding open clears...
  auto departed = rig.registry.removeSensor("fps_sensor");
  ASSERT_NE(departed, nullptr);
  EXPECT_EQ(rig.coordinator->sensorsDetached(), 1u);
  ASSERT_FALSE(rig.reports.empty());
  EXPECT_FALSE(rig.reports.back().violated)
      << "departed sensor must clear, not hold, its violation";

  // ...and a replacement sensor re-arms monitoring without re-registration.
  auto replacement = std::make_shared<instrument::GaugeSensor>(
      s, "fps_sensor", "frame_rate");
  instrument::GaugeSensor* fps2 = replacement.get();
  rig.registry.addSensor(std::move(replacement));
  EXPECT_GE(rig.coordinator->sensorsAttached(), 1u);
  const std::size_t before = rig.violations();
  fps2->set(26.0);
  fps2->set(10.0);
  EXPECT_EQ(rig.violations(), before + 1);
}

TEST(SensorHotplug, RegistryNotifiesListenersAndReplaces) {
  sim::Simulation s{1};
  instrument::SensorRegistry registry;
  struct Recorder : instrument::SensorRegistry::Listener {
    std::vector<std::string> log;
    void onSensorAdded(instrument::Sensor& sensor) override {
      log.push_back("+" + sensor.id());
    }
    void onSensorRemoved(instrument::Sensor& sensor) override {
      log.push_back("-" + sensor.id());
    }
  } recorder;
  registry.addListener(&recorder);

  registry.addSensor(
      std::make_shared<instrument::GaugeSensor>(s, "a", "attr_a"));
  // Replacing an id is remove(old) then add(new).
  registry.addSensor(
      std::make_shared<instrument::GaugeSensor>(s, "a", "attr_a"));
  registry.removeSensor("a");
  EXPECT_EQ(registry.removeSensor("a"), nullptr) << "already gone";
  registry.removeListener(&recorder);
  registry.addSensor(
      std::make_shared<instrument::GaugeSensor>(s, "b", "attr_b"));

  EXPECT_EQ(recorder.log,
            (std::vector<std::string>{"+a", "-a", "+a", "-a"}));
}

// ---- Host-manager contract facts and the testbed end to end ----

TEST(ContractFacts, EventsProjectIntoWorkingMemory) {
  apps::TestbedConfig cfg;
  cfg.contractPlane = true;
  apps::Testbed tb(cfg);
  manager::QoSHostManager& hm = *tb.clientHm;
  rules::FactRepository& facts = hm.engine().facts();
  const rules::Value pid5 = rules::Value::integer(5);

  EXPECT_TRUE(hm.handleContractEvent(
      "kind=degraded;pid=5;contract=video-gold-request;detail=weak offer"));
  ASSERT_NE(facts.findWhere("contract-degraded", {{"pid", pid5}}), nullptr);

  // One tier fact per pid: a repeat degrade replaces, restore retracts.
  EXPECT_TRUE(hm.handleContractEvent(
      "kind=degraded;pid=5;contract=other;detail=again"));
  EXPECT_EQ(facts.byTemplate("contract-degraded").size(), 1u);
  EXPECT_TRUE(hm.handleContractEvent("kind=restored;pid=5;contract=other"));
  EXPECT_EQ(facts.findWhere("contract-degraded", {{"pid", pid5}}), nullptr);

  EXPECT_TRUE(hm.handleContractEvent(
      "kind=liveliness-lost;pid=5;contract=cam;detail=3 misses"));
  EXPECT_NE(facts.findWhere("liveliness-lost", {{"pid", pid5}}), nullptr);

  // One owner fact per contract; pid 0 means nobody is left.
  const rules::Value cam = rules::Value::symbol("cam");
  EXPECT_TRUE(hm.handleContractEvent("kind=owner-changed;pid=5;contract=cam"));
  ASSERT_NE(facts.findWhere("contract-owner", {{"contract", cam}}), nullptr);
  EXPECT_TRUE(hm.handleContractEvent("kind=owner-changed;pid=9;contract=cam"));
  EXPECT_EQ(facts.byTemplate("contract-owner").size(), 1u);
  EXPECT_TRUE(hm.handleContractEvent("kind=owner-changed;pid=0;contract=cam"));
  EXPECT_EQ(facts.findWhere("contract-owner", {{"contract", cam}}), nullptr);

  EXPECT_TRUE(hm.handleContractEvent("kind=rejected;pid=6;contract=cam"));
  EXPECT_FALSE(hm.handleContractEvent("kind=mystery;pid=1"));
  EXPECT_FALSE(hm.handleContractEvent("detail=no kind at all"));
  // Every event carrying a kind counts as seen, even an unknown one; the
  // kind-less garbage does not.
  EXPECT_EQ(hm.contractEventsSeen(), 9u);
}

TEST(ContractFacts, MultiMismatchDetailSurvivesTheWire) {
  apps::TestbedConfig cfg;
  cfg.contractPlane = true;
  apps::Testbed tb(cfg);
  tb.sim.trace().setLevel(sim::TraceLevel::kInfo);

  // AdmissionDecision::reason joins its mismatches with "; ", the same
  // separator the event body uses between fields: the detail must be read
  // to the end of the body.
  QosOffer offer;
  offer.deadlineMs = 50;
  offer.historyDepth = 1;
  QosRequest request;
  request.maxDeadlineMs = 36;
  request.minHistoryDepth = 4;
  const std::string reason = policy::admit(offer, request).reason();
  ASSERT_NE(reason.find("; "), std::string::npos) << reason;

  distribution::ContractEvent event;
  event.kind = distribution::ContractEvent::Kind::kDegraded;
  event.pid = 5;
  event.contract = "cam";
  event.detail = reason;
  net::RpcEndpoint agent(tb.network, tb.mgmtHost, 7990);
  agent.notify(tb.clientHost.name(), 7001, "contract-event", event.serialize());
  tb.sim.runUntil(tb.sim.now() + sim::sec(1));

  EXPECT_EQ(tb.clientHm->contractEventsSeen(), 1u);
  EXPECT_NE(tb.clientHm->engine().facts().findWhere(
                "contract-degraded", {{"pid", rules::Value::integer(5)}}),
            nullptr);
  bool logged = false;
  for (const sim::TraceRecord& record : tb.sim.trace().records()) {
    if (record.message.ends_with("(cam): " + reason)) logged = true;
  }
  EXPECT_TRUE(logged) << "the host manager must log the whole detail";
}

TEST(ContractTestbed, GoldSessionAdmitsFullAndStaysAlive) {
  apps::TestbedConfig cfg;
  cfg.contractPlane = true;
  apps::Testbed tb(cfg);
  tb.startVideo("gold");
  distribution::PolicyAgent& agent = tb.qorms.agent();
  EXPECT_EQ(agent.admissionsFull(), 1u);
  EXPECT_EQ(agent.admissionsRejected(), 0u);
  EXPECT_EQ(agent.ownerOf("video-server-offer"),
            static_cast<std::uint32_t>(tb.video->clientPid()));

  // Liveliness probing runs against the client host's manager and the
  // healthy session stays alive.
  tb.sim.runUntil(sim::sec(3));
  EXPECT_GT(agent.livelinessProbesSent(), 3u);
  EXPECT_EQ(agent.livelinessLosses(), 0u);
  ASSERT_TRUE(agent.sessionInfo(tb.video->clientPid()).has_value());
  EXPECT_TRUE(agent.sessionInfo(tb.video->clientPid())->alive);
}

TEST(ContractTestbed, CongestionDrivesRuleBasedRenegotiation) {
  apps::TestbedConfig cfg;
  cfg.contractPlane = true;
  apps::Testbed tb(cfg);
  tb.startVideo("silver");
  distribution::PolicyAgent& agent = tb.qorms.agent();

  tb.sim.runUntil(sim::sec(5));  // healthy warm-up at full tier
  ASSERT_EQ(agent.admissionsFull(), 1u);

  // Saturate the bottleneck: the policy violates, the host manager's
  // contract rule renegotiates the session down to its degraded floors.
  tb.setCrossTraffic(9.5);
  tb.sim.runUntil(sim::sec(25));
  EXPECT_GE(tb.clientHm->renegotiationsRequested(), 1u);
  EXPECT_GE(agent.renegotiations(), 1u);
  EXPECT_GE(tb.clientHm->contractEventsSeen(), 1u);
  const auto degraded = agent.sessionInfo(tb.video->clientPid());
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(degraded->currentTier, AdmissionTier::kDegraded);

  // Congestion clears; recovery upgrades the session back to full tier.
  tb.setCrossTraffic(0);
  tb.sim.runUntil(sim::sec(45));
  const auto restored = agent.sessionInfo(tb.video->clientPid());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->currentTier, AdmissionTier::kFull)
      << "renegReq=" << tb.clientHm->renegotiationsRequested()
      << " reneg=" << agent.renegotiations()
      << " events=" << tb.clientHm->contractEventsSeen()
      << " fps=" << tb.measureFps(sim::sec(5));
}

TEST(ContractTestbed, KnobOffRunsCarryNoContractState) {
  apps::Testbed tb;  // defaults: contractPlane off
  tb.startVideo();
  tb.sim.runUntil(sim::sec(5));
  distribution::PolicyAgent& agent = tb.qorms.agent();
  EXPECT_FALSE(agent.contractPlaneEnabled());
  EXPECT_EQ(agent.admissionsFull() + agent.admissionsDegraded() +
                agent.admissionsRejected(),
            0u);
  EXPECT_EQ(agent.livelinessProbesSent(), 0u);
  EXPECT_EQ(tb.clientHm->contractEventsSeen(), 0u);
  EXPECT_TRUE(
      tb.clientHm->engine().facts().byTemplate("contract-degraded").empty());
}

}  // namespace
}  // namespace softqos
