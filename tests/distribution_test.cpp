// Policy distribution: the Repository Service, the Policy Agent (process
// registration, policy delivery, run-time re-push) and the management/admin
// application with its integrity checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "apps/video_model.hpp"
#include "distribution/admin.hpp"
#include "distribution/policy_agent.hpp"
#include "distribution/qorms.hpp"
#include "instrument/sensors.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"

namespace softqos::distribution {
namespace {

policy::PolicySpec parseVideoPolicy(const std::string& name, double target) {
  policy::PolicySpec spec = policy::parseObligation(
      apps::videoPolicyText(name, target, 2.0, 2.0, 1.25));
  spec.application = "VideoConference";
  return spec;
}

struct RepoFixture : ::testing::Test {
  RepositoryService repo;

  void SetUp() override { apps::seedVideoModel(repo); }
};

// ---- Repository ----

TEST_F(RepoFixture, SeededModelIsQueryable) {
  ASSERT_TRUE(repo.findExecutable("VideoApplication").has_value());
  EXPECT_EQ(repo.findExecutable("VideoApplication")->sensorIds.size(), 3u);
  ASSERT_TRUE(repo.findSensor("fps_sensor").has_value());
  EXPECT_TRUE(repo.findSensor("fps_sensor")->monitors("frame_rate"));
  ASSERT_TRUE(repo.findApplication("VideoConference").has_value());
  ASSERT_TRUE(repo.findRole("gold").has_value());
  EXPECT_EQ(repo.findRole("gold")->priorityWeight, 3);
  EXPECT_FALSE(repo.findExecutable("Nope").has_value());
}

TEST_F(RepoFixture, AddAndFindPolicy) {
  EXPECT_EQ(repo.addPolicy(parseVideoPolicy("P1", 25)),
            ldapdir::LdapResult::kSuccess);
  const auto back = repo.findPolicy("P1");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->conditions.size(), 2u);
  EXPECT_EQ(repo.policyNames(), (std::vector<std::string>{"P1"}));
}

TEST_F(RepoFixture, DuplicatePolicyRejected) {
  repo.addPolicy(parseVideoPolicy("P1", 25));
  EXPECT_EQ(repo.addPolicy(parseVideoPolicy("P1", 30)),
            ldapdir::LdapResult::kEntryAlreadyExists);
}

TEST_F(RepoFixture, RemovePolicyDropsInlineConditions) {
  repo.addPolicy(parseVideoPolicy("P1", 25));
  const std::size_t before = repo.directory().size();
  EXPECT_TRUE(repo.removePolicy("P1"));
  EXPECT_FALSE(repo.removePolicy("P1"));
  // Policy + 2 inline conditions + 4 inline actions are gone.
  EXPECT_EQ(repo.directory().size(), before - 7);
}

TEST_F(RepoFixture, PoliciesForMatchesExecutableAppAndRole) {
  policy::PolicySpec anyRole = parseVideoPolicy("anyrole", 25);
  policy::PolicySpec goldOnly = parseVideoPolicy("goldonly", 30);
  goldOnly.userRole = "gold";
  repo.addPolicy(anyRole);
  repo.addPolicy(goldOnly);

  const auto forSilver = repo.policiesFor("VideoConference",
                                          "VideoApplication", "silver");
  ASSERT_EQ(forSilver.size(), 1u);
  EXPECT_EQ(forSilver[0].name, "anyrole");

  const auto forGold =
      repo.policiesFor("VideoConference", "VideoApplication", "gold");
  EXPECT_EQ(forGold.size(), 2u);

  EXPECT_TRUE(repo.policiesFor("VideoConference", "OtherExe", "gold").empty());
}

TEST_F(RepoFixture, DisabledPoliciesAreNotDelivered) {
  policy::PolicySpec p = parseVideoPolicy("P1", 25);
  p.enabled = false;
  repo.addPolicy(p);
  EXPECT_TRUE(
      repo.policiesFor("VideoConference", "VideoApplication", "").empty());
}

TEST_F(RepoFixture, PoliciesForComparesTheExecutableNameLiterally) {
  repo.addPolicy(parseVideoPolicy("video", 25));
  policy::PolicySpec starred = parseVideoPolicy("starred", 25);
  starred.executable = "Video*";
  repo.addPolicy(starred);
  const auto names = [&](const std::string& executable) {
    std::vector<std::string> out;
    for (const policy::PolicySpec& spec :
         repo.policiesFor("VideoConference", executable, "")) {
      out.push_back(spec.name);
    }
    return out;
  };
  // The name is not filter syntax: no wildcard, no parse error.
  EXPECT_EQ(names("Video*"), (std::vector<std::string>{"starred"}));
  EXPECT_TRUE(names("*").empty());
  EXPECT_TRUE(names("a)b").empty());
  // Executable names compare case-insensitively, as LDAP values do.
  EXPECT_EQ(names("videoapplication"), (std::vector<std::string>{"video"}));
}

TEST_F(RepoFixture, RepeatedLookupsDecodeNothing) {
  AdminTool admin(repo);
  for (int i = 0; i < 4; ++i) {
    repo.addPolicy(parseVideoPolicy("P" + std::to_string(i), 25));
  }
  const auto lookup = [&] {
    return repo.policiesFor("VideoConference", "VideoApplication", "gold");
  };
  EXPECT_EQ(lookup().size(), 4u);
  EXPECT_EQ(repo.decodes(), 4u);
  EXPECT_EQ(lookup().size(), 4u);
  EXPECT_EQ(repo.decodes(), 4u) << "a repeated lookup decodes nothing";

  ASSERT_TRUE(admin.disablePolicy("P2"));
  EXPECT_EQ(lookup().size(), 3u);
  ASSERT_TRUE(admin.enablePolicy("P2"));
  EXPECT_EQ(lookup().size(), 4u);
  EXPECT_EQ(repo.decodes(), 5u) << "disabling one policy re-decodes only it";
}

/// A policy as text, with the applicability fields toString() leaves out.
std::string asText(const policy::PolicySpec& spec) {
  return spec.application + "|" + spec.userRole + "|" + spec.toString();
}

std::vector<std::string> asText(const std::vector<policy::PolicySpec>& specs) {
  std::vector<std::string> out;
  for (const policy::PolicySpec& spec : specs) out.push_back(asText(spec));
  return out;
}

/// policiesFor without the cache, over every policy entry of a full scan,
/// each decoded by policyFromEntry: the selected policies, in directory
/// order.
std::vector<std::string> uncachedPoliciesFor(
    const std::vector<policy::PolicySpec>& decoded,
    const std::string& application, const std::string& role) {
  std::vector<std::string> out;
  for (const policy::PolicySpec& spec : decoded) {
    if (!spec.enabled || spec.executable != "VideoApplication") continue;
    if (!spec.application.empty() && spec.application != application) continue;
    if (!spec.userRole.empty() && spec.userRole != role) continue;
    out.push_back(asText(spec));
  }
  return out;
}

// Seeded random writes of every kind that can change a lookup's answer:
// through the repository, the directory and LDIF uploads, to policy entries
// alone and to the condition entries they reference. After each, every
// (application, role) lookup must equal the uncached reference, and
// repeating it must decode nothing.
TEST_F(RepoFixture, CachedLookupsMatchAnUncachedReference) {
  std::mt19937 rng(18);
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::vector<std::string> apps = {"AppA", "AppB", "AppC"};
  const std::vector<std::string> roles = {"", "gold", "silver"};
  const auto randomPolicy = [&](const std::string& name) {
    policy::PolicySpec spec = parseVideoPolicy(name, 20.0 + pick(10));
    spec.application = pick(4) == 0 ? "" : apps[pick(apps.size())];
    spec.userRole = roles[pick(roles.size())];
    return spec;
  };
  std::vector<std::string> live;
  int nextName = 0;
  std::size_t kinds[6] = {};

  for (int op = 0; op < 600; ++op) {
    // Adds outweigh removes until 16 policies are live.
    const std::size_t kind =
        live.empty() || (live.size() < 16 && pick(2) == 0) ? 0 : pick(6);
    ++kinds[kind];
    const std::string name = live.empty() ? "" : live[pick(live.size())];
    const ldapdir::Dn policyDn = policy::dit::policies().child("cn", name);
    switch (kind) {
      case 0: {  // add
        const std::string fresh = "p" + std::to_string(nextName++);
        ASSERT_EQ(repo.addPolicy(randomPolicy(fresh)),
                  ldapdir::LdapResult::kSuccess);
        live.push_back(fresh);
        break;
      }
      case 1:  // remove
        ASSERT_TRUE(repo.removePolicy(name));
        live.erase(std::find(live.begin(), live.end(), name));
        break;
      case 2: {  // disable or enable
        const bool enabled =
            repo.directory().lookup(policyDn)->firstValue("enabled") ==
            "TRUE";
        ASSERT_EQ(repo.directory().modify(
                      policyDn, {ldapdir::Modification{
                                    ldapdir::Modification::Op::kReplace,
                                    "enabled",
                                    {enabled ? "FALSE" : "TRUE"}}}),
                  ldapdir::LdapResult::kSuccess);
        break;
      }
      case 3:  // retune an inline condition's threshold
        ASSERT_EQ(repo.directory().modify(
                      policy::dit::conditions().child("cn", name + "-c1"),
                      {ldapdir::Modification{
                          ldapdir::Modification::Op::kReplace,
                          "threshold",
                          {std::to_string(10 + pick(30))}}}),
                  ldapdir::LdapResult::kSuccess);
        break;
      case 4: {  // replace the policy through an LDIF upload
        const auto deletion = [](const ldapdir::Dn& dn) {
          return "dn: " + dn.toString() + "\nchangetype: delete\n\n";
        };
        const ldapdir::Entry& entry = *repo.directory().lookup(policyDn);
        std::string ldif = deletion(policyDn);
        for (const std::string& ref : *entry.values("conditionRef")) {
          ldif += deletion(policy::dit::conditions().child("cn", ref));
        }
        for (const std::string& ref : *entry.values("actionRef")) {
          ldif += deletion(policy::dit::actions().child("cn", ref));
        }
        for (const ldapdir::Entry& e :
             policy::policyToEntries(randomPolicy(name))) {
          ldif += ldapdir::toLdif(e) + "\n";
        }
        const ldapdir::LdifApplyStats stats = repo.uploadLdif(ldif);
        ASSERT_TRUE(stats.failures.empty()) << stats.failures.front();
        break;
      }
      case 5: {  // re-target the policy entry alone through an LDIF modify
        const std::string app = pick(4) == 0 ? "*" : apps[pick(apps.size())];
        const std::string role = roles[pick(roles.size())];
        std::string ldif = "dn: " + policyDn.toString() +
                           "\nchangetype: modify\nreplace: applicationRef\n"
                           "applicationRef: " +
                           app + "\n-\n";
        ldif += role.empty() ? "delete: userRole\n-\n"
                             : "replace: userRole\nuserRole: " + role + "\n-\n";
        const ldapdir::LdifApplyStats stats = repo.uploadLdif(ldif);
        ASSERT_TRUE(stats.failures.empty()) << stats.failures.front();
        break;
      }
    }

    std::vector<policy::PolicySpec> decoded;
    for (const ldapdir::Entry* e :
         repo.directory().search(ldapdir::Dn(), ldapdir::SearchScope::kSubtree,
                                 ldapdir::Filter::matchAll())) {
      if (e->dn().parent() == policy::dit::policies()) {
        decoded.push_back(policy::policyFromEntry(*e, repo.directory()));
      }
    }
    for (const std::string& app : apps) {
      for (const std::string& role : roles) {
        ASSERT_EQ(asText(repo.policiesFor(app, "VideoApplication", role)),
                  uncachedPoliciesFor(decoded, app, role))
            << "op " << op << " (kind " << kind << ") " << app << "/" << role;
      }
    }
    const std::uint64_t decodes = repo.decodes();
    for (const std::string& app : apps) {
      for (const std::string& role : roles) {
        (void)repo.policiesFor(app, "VideoApplication", role);
      }
    }
    ASSERT_EQ(repo.decodes(), decodes) << "op " << op;
  }
  for (const std::size_t n : kinds) EXPECT_GT(n, 50u);
}

TEST_F(RepoFixture, LdifExportImportRoundTrip) {
  repo.addPolicy(parseVideoPolicy("P1", 25));
  const std::string ldif = repo.exportLdif();
  RepositoryService repo2;
  // The fresh repository already holds the containers; top-level dup adds
  // fail harmlessly, the rest must apply.
  const auto stats = repo2.uploadLdif(ldif);
  EXPECT_GT(stats.added, 0u);
  EXPECT_TRUE(repo2.findPolicy("P1").has_value());
}

// ---- Policy agent ----

struct AgentFixture : RepoFixture {
  sim::Simulation s{1};
  osim::Host host{s, "client-host"};
  PolicyAgent agent{s, repo};
  instrument::SensorRegistry registry;
  std::vector<instrument::ViolationReport> reports;
  std::unique_ptr<instrument::Coordinator> coord;
  instrument::GaugeSensor* fps = nullptr;

  void SetUp() override {
    RepoFixture::SetUp();
    auto f = std::make_shared<instrument::GaugeSensor>(s, "fps_sensor",
                                                       "frame_rate");
    fps = f.get();
    registry.addSensor(std::move(f));
    registry.addSensor(std::make_shared<instrument::GaugeSensor>(
        s, "jitter_sensor", "jitter_rate"));
    registry.addSensor(std::make_shared<instrument::GaugeSensor>(
        s, "buffer_sensor", "buffer_size"));
    coord = std::make_unique<instrument::Coordinator>(
        s, "client-host", 1, "VideoApplication", registry,
        [this](const instrument::ViolationReport& r) {
          reports.push_back(r);
          return true;
        });
    coord->setRepeatInterval(0);
  }

  PolicyAgent::Registration registration() {
    PolicyAgent::Registration reg;
    reg.pid = 1;
    reg.application = "VideoConference";
    reg.executable = "VideoApplication";
    reg.role = "silver";
    reg.coordinator = coord.get();
    return reg;
  }
};

TEST_F(AgentFixture, RegistrationDeliversCompiledPolicies) {
  repo.addPolicy(parseVideoPolicy("P1", 25));
  EXPECT_EQ(agent.registerProcess(registration()), 1u);
  EXPECT_TRUE(coord->hasPolicy("P1"));
  EXPECT_EQ(coord->userRole(), "silver");
  EXPECT_EQ(agent.sessionCount(), 1u);
  // End to end: a violation now produces a report.
  fps->set(26.0);
  fps->set(10.0);
  EXPECT_EQ(reports.size(), 1u);
}

TEST_F(AgentFixture, UnknownExecutableIsAnError) {
  PolicyAgent::Registration reg = registration();
  reg.executable = "Mystery";
  EXPECT_THROW(agent.registerProcess(reg), PolicyAgentError);
}

TEST_F(AgentFixture, PolicyOnUnmonitoredAttributeIsAnError) {
  policy::PolicySpec bad = parseVideoPolicy("bad", 25);
  bad.conditions.push_back(
      policy::PolicyCondition{"", "phase_of_moon", policy::PolicyCmp::kLt, 1, {}});
  // Bypass the admin checks by writing directly to the repository.
  ASSERT_EQ(repo.addPolicy(bad), ldapdir::LdapResult::kSuccess);
  EXPECT_THROW(agent.registerProcess(registration()), PolicyAgentError);
}

TEST_F(AgentFixture, RefreshReplacesPolicySet) {
  repo.addPolicy(parseVideoPolicy("P1", 25));
  agent.registerProcess(registration());
  repo.removePolicy("P1");
  repo.addPolicy(parseVideoPolicy("P2", 30));
  EXPECT_EQ(agent.refresh(1), 1u);
  EXPECT_FALSE(coord->hasPolicy("P1"));
  EXPECT_TRUE(coord->hasPolicy("P2"));
  EXPECT_EQ(agent.refresh(999), 0u) << "unknown pid refreshes nothing";
}

TEST_F(AgentFixture, AutoPushReactsToRepositoryChanges) {
  repo.addPolicy(parseVideoPolicy("P1", 25));
  agent.registerProcess(registration());
  agent.enableAutoPush();
  repo.addPolicy(parseVideoPolicy("P2", 30));
  s.runUntil(sim::msec(1));  // the push is coalesced onto the event loop
  EXPECT_TRUE(coord->hasPolicy("P2"));
  EXPECT_GE(agent.pushes(), 1u);
}

TEST_F(AgentFixture, AutoPushRemovalRetractsPolicies) {
  repo.addPolicy(parseVideoPolicy("P1", 25));
  agent.registerProcess(registration());
  agent.enableAutoPush();
  repo.removePolicy("P1");
  s.runUntil(sim::msec(1));
  EXPECT_FALSE(coord->hasPolicy("P1"));
  EXPECT_EQ(coord->policyCount(), 0u);
}

TEST_F(AgentFixture, DeregisteredSessionsGetNoPushes) {
  repo.addPolicy(parseVideoPolicy("P1", 25));
  agent.registerProcess(registration());
  agent.deregisterProcess(1);
  agent.enableAutoPush();
  repo.addPolicy(parseVideoPolicy("P2", 30));
  s.runUntil(sim::msec(1));
  EXPECT_FALSE(coord->hasPolicy("P2"));
}

TEST_F(AgentFixture, BrokenPolicyFailsOnlyTheLookupsItMatches) {
  // Application B's policy references a condition that was never stored.
  policy::PolicySpec broken = parseVideoPolicy("broken", 25);
  broken.application = "OtherConference";
  broken.conditions[0].id = "no-such-condition";
  ASSERT_EQ(repo.addPolicy(broken), ldapdir::LdapResult::kSuccess);
  repo.addPolicy(parseVideoPolicy("P1", 25));

  EXPECT_EQ(agent.registerProcess(registration()), 1u);
  EXPECT_TRUE(coord->hasPolicy("P1"));

  PolicyAgent::Registration other = registration();
  other.pid = 2;
  other.application = "OtherConference";
  EXPECT_THROW(agent.registerProcess(other), PolicyAgentError);
  // A failed decode is not cached: the next lookup tries again.
  const std::uint64_t decodes = repo.decodes();
  EXPECT_THROW((void)repo.policiesFor("OtherConference", "VideoApplication",
                                      "silver"),
               policy::MappingError);
  EXPECT_EQ(repo.decodes(), decodes + 1);
}

TEST_F(AgentFixture, SessionPoliciesDifferByRole) {
  // "Different sessions of the same application will have different QoS
  // requirements" (Section 3.2).
  policy::PolicySpec gold = parseVideoPolicy("gold-policy", 30);
  gold.userRole = "gold";
  policy::PolicySpec silver = parseVideoPolicy("silver-policy", 20);
  silver.userRole = "silver";
  repo.addPolicy(gold);
  repo.addPolicy(silver);

  agent.registerProcess(registration());  // silver
  EXPECT_TRUE(coord->hasPolicy("silver-policy"));
  EXPECT_FALSE(coord->hasPolicy("gold-policy"));
}

// ---- Admin tool ----

struct AdminFixture : RepoFixture {
  AdminTool admin{repo};
};

TEST_F(AdminFixture, ValidPolicyPassesChecksAndIsStored) {
  const auto result =
      admin.addPolicyText(apps::defaultVideoPolicyText(), "VideoConference", "");
  EXPECT_TRUE(result.ok) << (result.problems.empty() ? "" : result.problems[0]);
  EXPECT_EQ(admin.listPolicies(),
            (std::vector<std::string>{"NotifyQoSViolation"}));
}

TEST_F(AdminFixture, UnknownExecutableFailsCheck) {
  policy::PolicySpec spec = parseVideoPolicy("p", 25);
  spec.executable = "Mystery";
  const auto result = admin.checkPolicy(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.problems[0].find("unknown executable"), std::string::npos);
}

TEST_F(AdminFixture, UnmonitoredAttributeFailsCheck) {
  policy::PolicySpec spec = parseVideoPolicy("p", 25);
  spec.conditions.push_back(
      policy::PolicyCondition{"", "phase_of_moon", policy::PolicyCmp::kLt, 1, {}});
  const auto result = admin.checkPolicy(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.problems[0].find("phase_of_moon"), std::string::npos);
}

TEST_F(AdminFixture, ActionOnUnknownSensorFailsCheck) {
  policy::PolicySpec spec = parseVideoPolicy("p", 25);
  spec.actions[0].target = "bogus_sensor";
  const auto result = admin.checkPolicy(spec);
  EXPECT_FALSE(result.ok);
}

TEST_F(AdminFixture, EmptyNotificationFailsCheck) {
  // "the notification is based on data returned by sensors (must be
  // non-empty)" — Section 7.
  policy::PolicySpec spec = parseVideoPolicy("p", 25);
  for (auto& action : spec.actions) {
    if (action.kind == policy::PolicyAction::Kind::kNotifyHostManager) {
      action.arguments.clear();
    }
  }
  const auto result = admin.checkPolicy(spec);
  EXPECT_FALSE(result.ok);
}

TEST_F(AdminFixture, NotificationArgumentsMustComeFromSensorReads) {
  policy::PolicySpec spec = parseVideoPolicy("p", 25);
  for (auto& action : spec.actions) {
    if (action.kind == policy::PolicyAction::Kind::kNotifyHostManager) {
      action.arguments.push_back("made_up_value");
    }
  }
  const auto result = admin.checkPolicy(spec);
  EXPECT_FALSE(result.ok);
}

TEST_F(AdminFixture, PolicyWithoutConditionsFailsCheck) {
  policy::PolicySpec spec = parseVideoPolicy("p", 25);
  spec.conditions.clear();
  EXPECT_FALSE(admin.checkPolicy(spec).ok);
}

TEST_F(AdminFixture, ParseErrorIsReportedNotThrown) {
  const auto result = admin.addPolicyText("oblig broken {", "app", "");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.problems[0].find("parse error"), std::string::npos);
}

TEST_F(AdminFixture, FailedCheckWritesNothing) {
  policy::PolicySpec spec = parseVideoPolicy("p", 25);
  spec.executable = "Mystery";
  admin.addPolicy(spec);
  EXPECT_TRUE(admin.listPolicies().empty());
}

TEST_F(AdminFixture, DisableAndEnablePolicy) {
  admin.addPolicy(parseVideoPolicy("p", 25));
  EXPECT_TRUE(admin.disablePolicy("p"));
  EXPECT_TRUE(repo.policiesFor("VideoConference", "VideoApplication", "").empty());
  EXPECT_TRUE(admin.enablePolicy("p"));
  EXPECT_EQ(repo.policiesFor("VideoConference", "VideoApplication", "").size(),
            1u);
  EXPECT_FALSE(admin.disablePolicy("no-such"));
}

TEST_F(AdminFixture, PolicyLdifIsUploadable) {
  const policy::PolicySpec spec = parseVideoPolicy("p", 25);
  const std::string ldif = admin.policyLdif(spec);
  EXPECT_NE(ldif.find("dn: cn=p,ou=policies,o=uwo"), std::string::npos);
  EXPECT_NE(ldif.find("objectClass: qosPolicy"), std::string::npos);
  const auto stats = repo.uploadLdif(ldif);
  EXPECT_TRUE(stats.failures.empty());
  EXPECT_TRUE(repo.findPolicy("p").has_value());
}

TEST_F(AdminFixture, RemovePolicyViaAdmin) {
  admin.addPolicy(parseVideoPolicy("p", 25));
  EXPECT_TRUE(admin.removePolicy("p"));
  EXPECT_TRUE(admin.listPolicies().empty());
}

// ---- QoRMS ----

TEST(Qorms, RuleDistributionReachesAllManagers) {
  sim::Simulation s;
  net::Network net(s);
  osim::Host a(s, "a");
  osim::Host b(s, "b");
  net::Switch sw(net, "sw");
  net::Nic& na = net.attachHost(a);
  net::Nic& nb = net.attachHost(b);
  net.link(na, sw);
  net.link(nb, sw);
  Qorms qorms(s, net);
  auto& hmA = qorms.createHostManager(a);
  auto& hmB = qorms.createHostManager(b);
  qorms.createDomainManager(a, "dom", {"a", "b"});

  qorms.distributeHostRules("(defrule pushed (t) => (call log))");
  EXPECT_TRUE(hmA.engine().hasRule("pushed"));
  EXPECT_TRUE(hmB.engine().hasRule("pushed"));

  qorms.distributeDomainRules("(defrule dpushed (t) => (call log))");
  EXPECT_TRUE(qorms.domainManagers()[0]->engine().hasRule("dpushed"));

  EXPECT_EQ(qorms.hostManagerFor("a"), &hmA);
  EXPECT_EQ(qorms.hostManagerFor("zz"), nullptr);
  a.shutdown();
  b.shutdown();
}

}  // namespace
}  // namespace softqos::distribution
