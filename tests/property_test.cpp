// Property-style tests: parameterized sweeps over invariants that must hold
// across whole input ranges, not just hand-picked cases.
#include <gtest/gtest.h>

#include <bitset>

#include "instrument/control.hpp"
#include "instrument/report.hpp"
#include "ldapdir/ldif.hpp"
#include "osim/host.hpp"
#include "policy/compile.hpp"
#include "policy/parser.hpp"
#include "rules/engine.hpp"
#include "rules/parser.hpp"

namespace softqos {
namespace {

// ---- Tolerance conditions: holds() must agree with expand() everywhere ----

struct ToleranceCase {
  double target;
  double above;
  double below;
};

class ToleranceProperty : public ::testing::TestWithParam<ToleranceCase> {};

TEST_P(ToleranceProperty, HoldsAgreesWithExpandedComparisons) {
  const ToleranceCase& c = GetParam();
  policy::PolicyCondition cond{"", "attr", policy::PolicyCmp::kEq, c.target,
                               {c.above, c.below}};
  const auto prims = cond.expand();
  // Sample a dense grid around the band including the exact edges.
  for (double x = c.target - c.below - 2.0; x <= c.target + c.above + 2.0;
       x += 0.125) {
    bool allPrimsHold = true;
    for (const auto& prim : prims) allPrimsHold &= prim.holds(x);
    EXPECT_EQ(cond.holds(x), allPrimsHold) << "x=" << x;
  }
  // Edges are exclusive (paper Example 3 uses strict comparisons).
  EXPECT_FALSE(cond.holds(c.target - c.below));
  EXPECT_FALSE(cond.holds(c.target + c.above));
  EXPECT_TRUE(cond.holds(c.target));
}

INSTANTIATE_TEST_SUITE_P(Bands, ToleranceProperty,
                         ::testing::Values(ToleranceCase{25, 2, 2},
                                           ToleranceCase{28, 4, 3},
                                           ToleranceCase{30, 0.5, 0.25},
                                           ToleranceCase{100, 10, 1},
                                           ToleranceCase{1, 0.125, 0.125}));

// ---- Boolean expressions: flat combinators equal all_of / any_of ----

class BoolExprWidth : public ::testing::TestWithParam<int> {};

TEST_P(BoolExprWidth, FlatConjunctionEqualsAllOf) {
  const int n = GetParam();
  std::vector<policy::BoolExpr> vars;
  for (int i = 0; i < n; ++i) vars.push_back(policy::BoolExpr::var(i));
  const policy::BoolExpr conj = policy::BoolExpr::andOf(vars);
  const policy::BoolExpr disj = policy::BoolExpr::orOf(vars);
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    std::vector<bool> assignment(static_cast<std::size_t>(n));
    bool all = true;
    bool any = false;
    for (int i = 0; i < n; ++i) {
      const bool v = (mask >> i) & 1u;
      assignment[static_cast<std::size_t>(i)] = v;
      all &= v;
      any |= v;
    }
    EXPECT_EQ(conj.evaluate(assignment), all) << "mask=" << mask;
    EXPECT_EQ(disj.evaluate(assignment), any) << "mask=" << mask;
    EXPECT_EQ(policy::BoolExpr::notOf(conj).evaluate(assignment), !all);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BoolExprWidth, ::testing::Range(1, 7));

// ---- Compiler: for any parsed policy, the compiled expression under
// ---- "everything holds" is satisfied and under "one comparison fails per
// ---- conjunction" it is violated ----

class CompiledPolicyProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(CompiledPolicyProperty, OptimisticStateSatisfiedSingleFailureViolates) {
  policy::PolicySpec spec = policy::parseObligation(GetParam());
  int nextId = 1;
  const policy::CompiledPolicy cp = policy::compilePolicy(
      spec, [](const std::string&) { return std::string("s"); }, nextId);
  std::vector<bool> vars(cp.conditions.size(), true);
  EXPECT_TRUE(cp.expression.evaluate(vars));
  if (spec.combinator == policy::PolicySpec::Combinator::kConjunction &&
      !spec.customExpr.has_value()) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      std::vector<bool> oneFail(vars);
      oneFail[i] = false;
      EXPECT_FALSE(cp.expression.evaluate(oneFail)) << "comparison " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CompiledPolicyProperty,
    ::testing::Values(
        "oblig A {\n subject x\n on not (a = 25(+2)(-2))\n do s->read(out a)\n}",
        "oblig B {\n subject x\n on not (a > 1 AND b < 9)\n do s->read(out a)\n}",
        "oblig C {\n subject x\n on not (a = 10(+1)(-1) AND b < 2 AND c >= 0)\n"
        " do s->read(out a)\n}",
        "oblig D {\n subject x\n on not (a != 5)\n do s->read(out a)\n}"));

// ---- Memory model: rebalance invariants under arbitrary demand mixes ----

class MemoryProperty : public ::testing::TestWithParam<int> {};

TEST_P(MemoryProperty, RebalanceNeverOverCommitsAndRespectsCaps) {
  sim::Simulation s{static_cast<std::uint64_t>(GetParam())};
  osim::Host host(s, "h", osim::HostConfig{.memoryPages = 1000,
                                           .socketCapacityBytes = 1 << 16,
                                           .msgQueueLatency = sim::usec(10)});
  sim::RandomStream rng = s.stream("mem");
  std::vector<std::shared_ptr<osim::Process>> procs;
  for (int i = 0; i < 6; ++i) {
    auto p = host.spawn("p" + std::to_string(i), [](osim::Process&) {});
    p->setWorkingSetPages(rng.uniformInt(0, 600));
    if (rng.chance(0.5)) p->setMemoryCapPages(rng.uniformInt(0, 400));
    procs.push_back(std::move(p));
  }
  std::int64_t totalResident = 0;
  for (const auto& p : procs) {
    std::int64_t demand = p->workingSetPages();
    if (p->memoryCapPages() >= 0) {
      demand = std::min(demand, p->memoryCapPages());
    }
    EXPECT_LE(p->residentPages(), demand);
    EXPECT_GE(p->residentPages(), demand > 0 ? 1 : 0);
    totalResident += p->residentPages();
  }
  EXPECT_LE(totalResident, 1000);
  EXPECT_EQ(host.memory().freePages(), 1000 - totalResident);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryProperty, ::testing::Range(1, 13));

// ---- Event queue: any interleaving of schedules/cancels pops in order ----

class EventOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(EventOrderProperty, PopsAreMonotoneAndCancelledNeverFire) {
  sim::Simulation s{static_cast<std::uint64_t>(GetParam())};
  sim::RandomStream rng = s.stream("events");
  std::vector<sim::EventId> cancelled;
  std::vector<sim::SimTime> fired;
  for (int i = 0; i < 200; ++i) {
    const sim::SimTime when = rng.uniformInt(0, 5000);
    const sim::EventId id = s.at(when, [&fired, &s] { fired.push_back(s.now()); });
    if (rng.chance(0.3)) {
      s.cancel(id);
      cancelled.push_back(id);
    }
  }
  s.runAll();
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(fired.size(), 200 - cancelled.size());
  for (const sim::EventId id : cancelled) EXPECT_FALSE(s.cancel(id));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderProperty, ::testing::Range(1, 9));

// ---- Refraction: a rule over k independent facts fires exactly k times ----

class RefractionProperty : public ::testing::TestWithParam<int> {};

TEST_P(RefractionProperty, FiresOncePerFactTuple) {
  const int k = GetParam();
  rules::InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<rules::Value>&) { ++fired; });
  rules::loadRules(e, "(defrule r (t (i ?i)) => (call f))");
  for (int i = 0; i < k; ++i) {
    e.facts().assertFact("t", {{"i", rules::Value::integer(i)}});
  }
  e.run();
  e.run();  // idempotent
  EXPECT_EQ(fired, k);
}

INSTANTIATE_TEST_SUITE_P(Counts, RefractionProperty,
                         ::testing::Values(0, 1, 2, 5, 17, 64));

// ---- Report wire format: structured sweep ----

struct ReportCase {
  std::uint32_t pid;
  bool violated;
  int metricCount;
  const char* role;
};

// Names the case by its fields; gtest's default would dump the raw bytes,
// pointer and padding included, so the ctest name would change per build.
void PrintTo(const ReportCase& c, std::ostream* os) {
  *os << "pid " << c.pid << (c.violated ? " violated " : " satisfied ")
      << c.metricCount << " metrics role " << (*c.role ? c.role : "(none)");
}

class ReportProperty : public ::testing::TestWithParam<ReportCase> {};

TEST_P(ReportProperty, SerializeParseIsIdentity) {
  const ReportCase& c = GetParam();
  instrument::ViolationReport r;
  r.policyId = "P";
  r.pid = c.pid;
  r.hostName = "h";
  r.executable = "E";
  r.userRole = c.role;
  r.violated = c.violated;
  for (int i = 0; i < c.metricCount; ++i) {
    r.metrics.emplace_back("m" + std::to_string(i), 0.5 * i - 3.25);
  }
  const auto back = instrument::ViolationReport::parse(r.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pid, r.pid);
  EXPECT_EQ(back->violated, r.violated);
  EXPECT_EQ(back->userRole, r.userRole);
  ASSERT_EQ(back->metrics.size(), r.metrics.size());
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    EXPECT_EQ(back->metrics[i].first, r.metrics[i].first);
    EXPECT_DOUBLE_EQ(back->metrics[i].second, r.metrics[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ReportProperty,
    ::testing::Values(ReportCase{0, true, 0, ""}, ReportCase{1, false, 1, "gold"},
                      ReportCase{4294967295u, true, 7, "silver"},
                      ReportCase{42, false, 16, "x"}));

// ---- Control commands: every verb parses back to its own frame ----

struct ControlCase {
  const char* verb;
  const char* frame;
};

void PrintTo(const ControlCase& c, std::ostream* os) { *os << c.verb; }

class ControlProperty : public ::testing::TestWithParam<ControlCase> {};

TEST_P(ControlProperty, ParseSerializeIsIdentity) {
  instrument::ControlCommand command;
  ASSERT_TRUE(instrument::ControlCommand::parse(GetParam().frame, command));
  EXPECT_EQ(command.serialize(), GetParam().frame);
  instrument::ControlCommand again;
  ASSERT_TRUE(instrument::ControlCommand::parse(command.serialize(), again));
  EXPECT_EQ(again.kind, command.kind);
  EXPECT_EQ(again.target, command.target);
  EXPECT_EQ(again.args, command.args);
  EXPECT_EQ(again.comparisonId, command.comparisonId);
  EXPECT_EQ(again.value, command.value);
  EXPECT_EQ(again.enable, command.enable);
  EXPECT_EQ(again.tickMicros, command.tickMicros);
}

INSTANTIATE_TEST_SUITE_P(
    Verbs, ControlProperty,
    ::testing::Values(ControlCase{"adapt", "CTL|adapt|quality|down|fast"},
                      ControlCase{"set-threshold", "CTL|set-threshold|-7|23.5"},
                      ControlCase{"enable-sensor", "CTL|enable-sensor|fps|0"},
                      ControlCase{"set-tick", "CTL|set-tick|fps|125000"},
                      ControlCase{"remove-policy", "CTL|remove-policy|P1"}));

// ---- DN canonicalization is idempotent ----

class DnProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(DnProperty, ParseToStringParseIsStable) {
  const ldapdir::Dn once = ldapdir::Dn::parse(GetParam());
  const ldapdir::Dn twice = ldapdir::Dn::parse(once.toString());
  EXPECT_EQ(once, twice);
  EXPECT_EQ(once.normalized(), twice.normalized());
  EXPECT_EQ(once.depth(), twice.depth());
}

INSTANTIATE_TEST_SUITE_P(
    Dns, DnProperty,
    ::testing::Values("o=uwo", "CN=Mixed Case, O=UWO",
                      "cn=fps-policy,ou=policies,o=uwo",
                      "cn=has\\,comma,ou=x,o=y",
                      "cn=a,cn=b,cn=c,cn=d,cn=e,o=deep"));

// ---- Primitive comparisons: exhaustive operator semantics ----

struct CmpCase {
  policy::PolicyCmp op;
  double threshold;
  double below;   // a value strictly below the threshold
  double equal;
  double above;
  bool holdsBelow;
  bool holdsEqual;
  bool holdsAbove;
};

// As for ReportCase: the padding after `op` must not reach the test name.
void PrintTo(const CmpCase& c, std::ostream* os) {
  *os << "x " << policy::policyCmpName(c.op) << ' ' << c.threshold << " at "
      << c.below << (c.holdsBelow ? " holds, " : " fails, ") << c.equal
      << (c.holdsEqual ? " holds, " : " fails, ") << c.above
      << (c.holdsAbove ? " holds" : " fails");
}

class CmpProperty : public ::testing::TestWithParam<CmpCase> {};

TEST_P(CmpProperty, Semantics) {
  const CmpCase& c = GetParam();
  const policy::PrimitiveComparison prim{"a", c.op, c.threshold};
  EXPECT_EQ(prim.holds(c.below), c.holdsBelow);
  EXPECT_EQ(prim.holds(c.equal), c.holdsEqual);
  EXPECT_EQ(prim.holds(c.above), c.holdsAbove);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, CmpProperty,
    ::testing::Values(
        CmpCase{policy::PolicyCmp::kLt, 5, 4, 5, 6, true, false, false},
        CmpCase{policy::PolicyCmp::kLe, 5, 4, 5, 6, true, true, false},
        CmpCase{policy::PolicyCmp::kGt, 5, 4, 5, 6, false, false, true},
        CmpCase{policy::PolicyCmp::kGe, 5, 4, 5, 6, false, true, true},
        CmpCase{policy::PolicyCmp::kEq, 5, 4, 5, 6, false, true, false},
        CmpCase{policy::PolicyCmp::kNe, 5, 4, 5, 6, true, false, true}));

// ---- Scheduler: effective priority is monotone in the user priority ----

class UpriProperty : public ::testing::TestWithParam<int> {};

TEST_P(UpriProperty, GlobalPriorityIsMonotoneAndClamped) {
  sim::Simulation s{1};
  osim::Host host(s, "h");
  auto p = host.spawn("p", [](osim::Process&) {});
  const osim::Scheduler& sched = host.cpu().scheduler();
  p->setTsLevel(GetParam());
  int previous = -1;
  for (int upri = -60; upri <= 60; upri += 10) {
    p->setTsUserPriority(upri);
    const int pri = sched.globalPriority(*p);
    EXPECT_GE(pri, 0);
    EXPECT_LT(pri, osim::TsDispatchTable::kTsLevels);
    EXPECT_GE(pri, previous) << "upri=" << upri;
    previous = pri;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, UpriProperty,
                         ::testing::Values(0, 15, 29, 45, 59));

// ---- LDIF: any directory content survives an export/import round trip ----

class LdifRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(LdifRoundTripProperty, ExportImportPreservesEverything) {
  sim::Simulation s{static_cast<std::uint64_t>(GetParam())};
  sim::RandomStream rng = s.stream("ldif");
  ldapdir::Directory dir;
  ldapdir::Entry root(ldapdir::Dn::parse("o=uwo"));
  root.addValue("objectClass", "organization");
  root.addValue("o", "uwo");
  dir.add(root);
  for (int i = 0; i < 20; ++i) {
    ldapdir::Entry e(
        ldapdir::Dn::parse("cn=e" + std::to_string(i) + ",o=uwo"));
    e.addValue("objectClass", "top");
    const int attrs = static_cast<int>(rng.uniformInt(0, 4));
    for (int a = 0; a < attrs; ++a) {
      e.addValue("attr" + std::to_string(a),
                 "value-" + std::to_string(rng.uniformInt(0, 9)));
    }
    dir.add(e);
  }
  ldapdir::Directory back;
  const auto stats = ldapdir::applyLdif(back, ldapdir::toLdif(dir));
  EXPECT_TRUE(stats.failures.empty());
  EXPECT_EQ(back.size(), dir.size());
  for (const ldapdir::Entry* e :
       dir.search(ldapdir::Dn::parse("o=uwo"), ldapdir::SearchScope::kSubtree,
                  ldapdir::Filter::matchAll())) {
    const ldapdir::Entry* other = back.lookup(e->dn());
    ASSERT_NE(other, nullptr) << e->dn().toString();
    EXPECT_EQ(other->attributes(), e->attributes());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LdifRoundTripProperty, ::testing::Range(1, 7));

}  // namespace
}  // namespace softqos
