// The policy formalism: tolerance conditions, boolean expressions, the
// obligation-policy parser (Example 1), the Section 5.2 compiler, and the
// LDAP information-model mapping.
#include <gtest/gtest.h>

#include "ldapdir/directory.hpp"
#include "policy/compile.hpp"
#include "policy/ldap_mapping.hpp"
#include "policy/parser.hpp"

namespace softqos::policy {
namespace {

// ---- Conditions & tolerance ----

TEST(Condition, ToleranceBandIsExclusive) {
  PolicyCondition c{"", "frame_rate", PolicyCmp::kEq, 25.0, {2.0, 2.0}};
  EXPECT_TRUE(c.holds(25.0));
  EXPECT_TRUE(c.holds(23.5));
  EXPECT_TRUE(c.holds(26.9));
  EXPECT_FALSE(c.holds(23.0)) << "paper Example 3 uses strict > 23";
  EXPECT_FALSE(c.holds(27.0)) << "paper Example 3 uses strict < 27";
  EXPECT_FALSE(c.holds(10.0));
  EXPECT_FALSE(c.holds(40.0));
}

TEST(Condition, ToleranceExpandsToTwoComparisons) {
  PolicyCondition c{"", "frame_rate", PolicyCmp::kEq, 25.0, {2.0, 2.0}};
  const auto prims = c.expand();
  ASSERT_EQ(prims.size(), 2u);
  EXPECT_EQ(prims[0].op, PolicyCmp::kGt);
  EXPECT_DOUBLE_EQ(prims[0].value, 23.0);
  EXPECT_EQ(prims[1].op, PolicyCmp::kLt);
  EXPECT_DOUBLE_EQ(prims[1].value, 27.0);
}

TEST(Condition, AsymmetricTolerance) {
  PolicyCondition c{"", "fps", PolicyCmp::kEq, 28.0, {4.0, 3.0}};
  EXPECT_TRUE(c.holds(31.9));
  EXPECT_FALSE(c.holds(32.0));
  EXPECT_TRUE(c.holds(25.1));
  EXPECT_FALSE(c.holds(25.0));
}

TEST(Condition, PlainComparatorsExpandToOne) {
  PolicyCondition c{"", "jitter_rate", PolicyCmp::kLt, 1.25, {}};
  const auto prims = c.expand();
  ASSERT_EQ(prims.size(), 1u);
  EXPECT_TRUE(c.holds(1.0));
  EXPECT_FALSE(c.holds(1.25));
  EXPECT_FALSE(c.holds(2.0));
}

TEST(Condition, EqualityWithoutToleranceIsExact) {
  PolicyCondition c{"", "x", PolicyCmp::kEq, 5.0, {}};
  EXPECT_TRUE(c.holds(5.0));
  EXPECT_FALSE(c.holds(5.0001));
}

TEST(Condition, ToStringUsesPaperNotation) {
  PolicyCondition c{"", "frame_rate", PolicyCmp::kEq, 25.0, {2.0, 2.0}};
  EXPECT_EQ(c.toString(), "frame_rate = 25(+2)(-2)");
  PolicyCondition j{"", "jitter_rate", PolicyCmp::kLt, 1.25, {}};
  EXPECT_EQ(j.toString(), "jitter_rate < 1.25");
}

TEST(Condition, CmpParseRejectsGarbage) {
  EXPECT_THROW(parsePolicyCmp("~"), std::invalid_argument);
  EXPECT_EQ(parsePolicyCmp("<="), PolicyCmp::kLe);
}

// ---- BoolExpr ----

TEST(BoolExprTest, AndOrNotEvaluate) {
  const BoolExpr e = BoolExpr::andOf(
      {BoolExpr::var(0),
       BoolExpr::orOf({BoolExpr::var(1), BoolExpr::notOf(BoolExpr::var(2))})});
  EXPECT_TRUE(e.evaluate({true, true, true}));
  EXPECT_TRUE(e.evaluate({true, false, false}));
  EXPECT_FALSE(e.evaluate({true, false, true}));
  EXPECT_FALSE(e.evaluate({false, true, true}));
}

TEST(BoolExprTest, OutOfRangeVariablesAreOptimisticallyTrue) {
  const BoolExpr e = BoolExpr::var(5);
  EXPECT_TRUE(e.evaluate({false}));
}

TEST(BoolExprTest, DefaultIsConstantTrue) {
  EXPECT_TRUE(BoolExpr{}.evaluate({}));
  EXPECT_EQ(BoolExpr{}.maxVarIndex(), -1);
}

TEST(BoolExprTest, FlatnessDetection) {
  EXPECT_TRUE(BoolExpr::andOf({BoolExpr::var(0), BoolExpr::var(1)})
                  .isFlatConjunction());
  EXPECT_FALSE(BoolExpr::andOf({BoolExpr::var(0), BoolExpr::var(1)})
                   .isFlatDisjunction());
  EXPECT_TRUE(BoolExpr::orOf({BoolExpr::var(0), BoolExpr::var(1)})
                  .isFlatDisjunction());
  const BoolExpr nested = BoolExpr::andOf(
      {BoolExpr::var(0), BoolExpr::orOf({BoolExpr::var(1), BoolExpr::var(2)})});
  EXPECT_FALSE(nested.isFlatConjunction());
}

TEST(BoolExprTest, ToStringFollowsExample3) {
  const BoolExpr e =
      BoolExpr::andOf({BoolExpr::var(0), BoolExpr::var(1), BoolExpr::var(2)});
  EXPECT_EQ(e.toString(), "(x1 AND x2 AND x3)");
}

TEST(BoolExprTest, SubstituteRewritesVariables) {
  const BoolExpr e = BoolExpr::andOf({BoolExpr::var(0), BoolExpr::var(1)});
  const BoolExpr sub = e.substitute([](int v) {
    return v == 0 ? BoolExpr::andOf({BoolExpr::var(10), BoolExpr::var(11)})
                  : BoolExpr::var(12);
  });
  EXPECT_EQ(sub.maxVarIndex(), 12);
  EXPECT_TRUE(sub.evaluate({/*0..9*/ false, false, false, false, false, false,
                            false, false, false, false, true, true, true}));
  std::vector<bool> vars(13, true);
  vars[11] = false;
  EXPECT_FALSE(sub.evaluate(vars));
}

// ---- Obligation parser (Example 1 verbatim) ----

const char* kExample1 = R"(
oblig NotifyQoSViolation {
  subject (...)/VideoApplication/qosl_coordinator
  target fps_sensor,jitter_sensor,buffer_sensor,(...)QoSHostManager
  on not (frame_rate = 25(+2)(-2) AND jitter_rate < 1.25)
  do fps_sensor->read(out frame_rate);
     jitter_sensor->read(out jitter_rate);
     buffer_sensor->read(out buffer_size);
     (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size)
}
)";

TEST(ObligParser, ParsesExample1) {
  const PolicySpec spec = parseObligation(kExample1);
  EXPECT_EQ(spec.name, "NotifyQoSViolation");
  EXPECT_EQ(spec.subjectPath, "(...)/VideoApplication/qosl_coordinator");
  EXPECT_EQ(spec.executable, "VideoApplication");
  ASSERT_EQ(spec.targets.size(), 4u);
  EXPECT_EQ(spec.targets[3], "(...)QoSHostManager");

  ASSERT_EQ(spec.conditions.size(), 2u);
  EXPECT_EQ(spec.conditions[0].attribute, "frame_rate");
  EXPECT_EQ(spec.conditions[0].op, PolicyCmp::kEq);
  EXPECT_DOUBLE_EQ(spec.conditions[0].threshold, 25.0);
  EXPECT_DOUBLE_EQ(spec.conditions[0].tolerance.above, 2.0);
  EXPECT_DOUBLE_EQ(spec.conditions[0].tolerance.below, 2.0);
  EXPECT_EQ(spec.conditions[1].attribute, "jitter_rate");
  EXPECT_EQ(spec.conditions[1].op, PolicyCmp::kLt);
  EXPECT_EQ(spec.combinator, PolicySpec::Combinator::kConjunction);
  EXPECT_FALSE(spec.customExpr.has_value());

  ASSERT_EQ(spec.actions.size(), 4u);
  EXPECT_EQ(spec.actions[0].kind, PolicyAction::Kind::kSensorRead);
  EXPECT_EQ(spec.actions[0].target, "fps_sensor");
  EXPECT_EQ(spec.actions[0].arguments, (std::vector<std::string>{"frame_rate"}));
  EXPECT_EQ(spec.actions[3].kind, PolicyAction::Kind::kNotifyHostManager);
  EXPECT_EQ(spec.actions[3].arguments.size(), 3u);
}

TEST(ObligParser, DisjunctionSetsCombinator) {
  const PolicySpec spec = parseObligation(
      "oblig P {\n subject x/E/qosl_coordinator\n"
      " on not (a > 1 OR b > 2)\n do s->read(out a)\n}");
  EXPECT_EQ(spec.combinator, PolicySpec::Combinator::kDisjunction);
}

TEST(ObligParser, NestedExpressionBecomesCustomExpr) {
  const PolicySpec spec = parseObligation(
      "oblig P {\n subject x\n"
      " on not (a > 1 AND (b > 2 OR c > 3))\n do s->read(out a)\n}");
  ASSERT_TRUE(spec.customExpr.has_value());
  EXPECT_EQ(spec.conditions.size(), 3u);
  // requirement false iff a<=1 or (b<=2 and c<=3)
  EXPECT_TRUE(spec.customExpr->evaluate({true, false, true}));
  EXPECT_FALSE(spec.customExpr->evaluate({true, false, false}));
}

TEST(ObligParser, MultipleObligBlocks) {
  const std::string two = std::string(kExample1) +
                          "oblig Other {\n subject a/B/qosl_coordinator\n"
                          " on not (x > 1)\n do s->read(out x)\n}";
  EXPECT_EQ(parseObligations(two).size(), 2u);
}

TEST(ObligParser, ErrorsAreDiagnosed) {
  EXPECT_THROW(parseObligation("oblig X subject y"), PolicyParseError);
  EXPECT_THROW(parseObligation("oblig { on not (a>1) }"), PolicyParseError);
  EXPECT_THROW(parseObligation("oblig X {\n subject s\n do a->b(c)\n}"),
               PolicyParseError);  // missing on
  EXPECT_THROW(parseObligation("oblig X {\n on (a > 1)\n}"), PolicyParseError)
      << "on must negate the requirement";
  EXPECT_THROW(parseObligation("oblig X {\n on not (a >)\n}"), PolicyParseError);
  EXPECT_THROW(parseObligation("oblig X {\n on not (a > 1)\n do broken\n}"),
               PolicyParseError);
  EXPECT_THROW(parseObligation("no policies here"), PolicyParseError);
  // Thresholds and tolerances are strict numbers.
  for (const char* expr :
       {"frame_rate > 1.2.3", "frame_rate > -", "frame_rate > +",
        "frame_rate = 25(+)(-2)", "frame_rate = 25(+2)(-)",
        "frame_rate > .", "frame_rate => 5"}) {
    PolicySpec spec;
    EXPECT_THROW(parseConditionExpr(expr, spec), PolicyParseError) << expr;
    EXPECT_THROW(parseObligation(std::string("oblig X {\n on not (") + expr +
                                 ")\n}"),
                 PolicyParseError)
        << expr;
  }
  // Example 1's signed tolerances still parse.
  PolicySpec example;
  parseConditionExpr("frame_rate = 28(+4)(-3)", example);
  ASSERT_EQ(example.conditions.size(), 1u);
  EXPECT_DOUBLE_EQ(example.conditions[0].threshold, 28.0);
  EXPECT_DOUBLE_EQ(example.conditions[0].tolerance.above, 4.0);
  EXPECT_DOUBLE_EQ(example.conditions[0].tolerance.below, 3.0);
}

TEST(ObligParser, RoundTripThroughToString) {
  // Example 1 is a flat conjunction; the second policy nests OR and NOT;
  // the third has an action that starts with a clause keyword, which must
  // not come back as a target clause.
  const std::string nested =
      "oblig Nested {\n subject x\n"
      " on not ((a > 1 AND b < 2) OR c > 3)\n do s->read(out a)\n}";
  const std::string clauseLike =
      "oblig ClauseLike {\n subject x\n target t\n on not (a > 1)\n"
      " do s->read(out a); target t->adjust(b)\n}";
  for (const std::string& text :
       {std::string(kExample1), nested, clauseLike}) {
    SCOPED_TRACE(text);
    const PolicySpec spec = parseObligation(text);
    const PolicySpec again = parseObligation(spec.toString());
    EXPECT_EQ(again.name, spec.name);
    EXPECT_EQ(again.targets, spec.targets);
    ASSERT_EQ(again.actions.size(), spec.actions.size());
    for (std::size_t i = 0; i < spec.actions.size(); ++i) {
      EXPECT_EQ(again.actions[i].toString(), spec.actions[i].toString());
    }
    EXPECT_EQ(again.combinator, spec.combinator);
    ASSERT_EQ(again.conditions.size(), spec.conditions.size());
    for (std::size_t i = 0; i < spec.conditions.size(); ++i) {
      EXPECT_EQ(again.conditions[i].toString(), spec.conditions[i].toString());
    }
    EXPECT_EQ(again.conditionExpr().toString(),
              spec.conditionExpr().toString());
  }
}

TEST(ObligParser, ReferencedAttributesDeduplicated) {
  const PolicySpec spec = parseObligation(
      "oblig P {\n subject x\n on not (a > 1 AND a < 9 AND b > 0)\n"
      " do s->read(out a)\n}");
  EXPECT_EQ(spec.referencedAttributes(),
            (std::vector<std::string>{"a", "b"}));
}

// ---- Compiler (Section 5.2 / Example 3) ----

std::string videoSensorFor(const std::string& attribute) {
  if (attribute == "frame_rate") return "fps_sensor";
  if (attribute == "jitter_rate") return "jitter_sensor";
  if (attribute == "buffer_size") return "buffer_sensor";
  return "";
}

TEST(Compiler, Example1CompilesToThreeComparisons) {
  const PolicySpec spec = parseObligation(kExample1);
  int nextId = 1;
  const CompiledPolicy cp = compilePolicy(spec, videoSensorFor, nextId);
  // frame_rate > 23, frame_rate < 27, jitter_rate < 1.25 (Example 3).
  ASSERT_EQ(cp.conditions.size(), 3u);
  EXPECT_EQ(cp.conditions[0].op, PolicyCmp::kGt);
  EXPECT_DOUBLE_EQ(cp.conditions[0].value, 23.0);
  EXPECT_EQ(cp.conditions[0].sensorId, "fps_sensor");
  EXPECT_EQ(cp.conditions[1].op, PolicyCmp::kLt);
  EXPECT_DOUBLE_EQ(cp.conditions[1].value, 27.0);
  EXPECT_EQ(cp.conditions[2].sensorId, "jitter_sensor");
  EXPECT_EQ(nextId, 4) << "three comparison ids consumed";

  // x1 AND x2 AND x3 semantics.
  EXPECT_TRUE(cp.expression.evaluate({true, true, true}));
  EXPECT_FALSE(cp.expression.evaluate({false, true, true}));
  EXPECT_FALSE(cp.expression.evaluate({true, true, false}));
}

TEST(Compiler, ComparisonIdsAreUniqueAcrossPolicies) {
  const PolicySpec spec = parseObligation(kExample1);
  int nextId = 1;
  const CompiledPolicy a = compilePolicy(spec, videoSensorFor, nextId);
  const CompiledPolicy b = compilePolicy(spec, videoSensorFor, nextId);
  EXPECT_NE(a.conditions[0].comparisonId, b.conditions[0].comparisonId);
}

TEST(Compiler, MissingSensorIsAnError) {
  const PolicySpec spec = parseObligation(
      "oblig P {\n subject x\n on not (martian_attr > 1)\n"
      " do s->read(out martian_attr)\n}");
  int nextId = 1;
  EXPECT_THROW(compilePolicy(spec, videoSensorFor, nextId), CompileError);
}

TEST(Compiler, DisjunctionCompilesToOrOfConditionGroups) {
  PolicySpec spec;
  spec.name = "p";
  spec.combinator = PolicySpec::Combinator::kDisjunction;
  spec.conditions.push_back(
      PolicyCondition{"", "frame_rate", PolicyCmp::kEq, 25.0, {2.0, 2.0}});
  spec.conditions.push_back(
      PolicyCondition{"", "jitter_rate", PolicyCmp::kLt, 1.25, {}});
  int nextId = 1;
  const CompiledPolicy cp = compilePolicy(spec, videoSensorFor, nextId);
  ASSERT_EQ(cp.conditions.size(), 3u);
  // (x0 AND x1) OR x2
  EXPECT_TRUE(cp.expression.evaluate({true, true, false}));
  EXPECT_TRUE(cp.expression.evaluate({false, false, true}));
  EXPECT_FALSE(cp.expression.evaluate({true, false, false}));
}

TEST(Compiler, CompiledConditionHoldsMatchesSemantics) {
  CompiledCondition c;
  c.op = PolicyCmp::kGt;
  c.value = 23.0;
  EXPECT_TRUE(c.holds(24.0));
  EXPECT_FALSE(c.holds(23.0));
}

// ---- LDAP mapping ----

struct MappingFixture : ::testing::Test {
  ldapdir::Directory dir{ldapdir::Dn::parse("o=uwo"),
                         ldapdir::informationModelSchema(), true};

  void SetUp() override {
    for (const ldapdir::Entry& e : dit::containerEntries()) {
      ASSERT_EQ(dir.add(e), ldapdir::LdapResult::kSuccess);
    }
  }

  void storePolicy(const PolicySpec& spec) {
    for (const ldapdir::Entry& e : policyToEntries(spec)) {
      ASSERT_EQ(dir.add(e), ldapdir::LdapResult::kSuccess)
          << e.dn().toString();
    }
  }
};

TEST_F(MappingFixture, ModelObjectsRoundTrip) {
  const ApplicationInfo app{"VideoConference", {"VideoApplication"}};
  const ExecutableInfo exec{"VideoApplication", "/bin/v", {"fps_sensor"}};
  const SensorInfo sensor{"fps_sensor", {"frame_rate"}, "probe"};
  const UserRole role{"gold", 3};

  EXPECT_EQ(applicationFromEntry(toEntry(app)).name, app.name);
  EXPECT_EQ(applicationFromEntry(toEntry(app)).executables, app.executables);
  EXPECT_EQ(executableFromEntry(toEntry(exec)).sensorIds, exec.sensorIds);
  EXPECT_EQ(executableFromEntry(toEntry(exec)).path, exec.path);
  EXPECT_EQ(sensorFromEntry(toEntry(sensor)).attributes, sensor.attributes);
  EXPECT_EQ(roleFromEntry(toEntry(role)).priorityWeight, 3);
}

TEST_F(MappingFixture, ModelEntriesValidateAgainstSchema) {
  EXPECT_EQ(dir.add(toEntry(SensorInfo{"s", {"a"}, "p"})),
            ldapdir::LdapResult::kSuccess);
  EXPECT_EQ(dir.add(toEntry(UserRole{"gold", 3})),
            ldapdir::LdapResult::kSuccess);
}

TEST_F(MappingFixture, PolicyRoundTripsThroughDirectory) {
  const PolicySpec spec = parseObligation(R"(
oblig P1 {
  subject (...)/VideoApplication/qosl_coordinator
  target fps_sensor,(...)QoSHostManager
  on not (frame_rate = 25(+2)(-2) AND jitter_rate < 1.25)
  do fps_sensor->read(out frame_rate);
     (...)/QoSHostManager->notify(frame_rate)
})");
  storePolicy(spec);

  const ldapdir::Entry* entry =
      dir.lookup(dit::policies().child("cn", "P1"));
  ASSERT_NE(entry, nullptr);
  const PolicySpec back = policyFromEntry(*entry, dir);
  EXPECT_EQ(back.name, "P1");
  ASSERT_EQ(back.conditions.size(), 2u);
  EXPECT_DOUBLE_EQ(back.conditions[0].threshold, 25.0);
  EXPECT_DOUBLE_EQ(back.conditions[0].tolerance.above, 2.0);
  EXPECT_EQ(back.combinator, PolicySpec::Combinator::kConjunction);
  ASSERT_EQ(back.actions.size(), 2u);
  EXPECT_EQ(back.actions[1].kind, PolicyAction::Kind::kNotifyHostManager);
  EXPECT_EQ(back.subjectPath, spec.subjectPath);
  EXPECT_EQ(back.targets, spec.targets);
}

TEST_F(MappingFixture, CustomExprPoliciesCannotBeStored) {
  PolicySpec spec = parseObligation(
      "oblig P {\n subject x\n on not (a > 1 AND (b > 2 OR c > 3))\n"
      " do s->read(out a)\n}");
  EXPECT_THROW(policyToEntries(spec), MappingError);
}

TEST_F(MappingFixture, DanglingConditionRefIsAnError) {
  ldapdir::Entry policy(dit::policies().child("cn", "broken"));
  policy.addValue("objectClass", "qosPolicy");
  policy.addValue("cn", "broken");
  policy.addValue("applicationRef", "*");
  policy.addValue("executableRef", "X");
  policy.addValue("combinator", "AND");
  policy.addValue("conditionRef", "no-such-condition");
  ASSERT_EQ(dir.add(policy), ldapdir::LdapResult::kSuccess);
  EXPECT_THROW(policyFromEntry(*dir.lookup(policy.dn()), dir), MappingError);
}

TEST_F(MappingFixture, ReusableConditionsAreReferencedNotDuplicated) {
  // Pre-create a shared condition, then a policy whose condition has that id.
  PolicyCondition shared{"low-jitter", "jitter_rate", PolicyCmp::kLt, 1.25, {}};
  ASSERT_EQ(dir.add(conditionToEntry(shared, shared.id)),
            ldapdir::LdapResult::kSuccess);
  PolicySpec spec;
  spec.name = "P2";
  spec.executable = "VideoApplication";
  spec.conditions.push_back(shared);
  PolicyAction act;
  act.kind = PolicyAction::Kind::kSensorRead;
  act.target = "jitter_sensor";
  act.arguments = {"jitter_rate"};
  spec.actions.push_back(act);
  const auto entries = policyToEntries(spec);
  // Only the action entry + the policy entry: the condition is referenced.
  EXPECT_EQ(entries.size(), 2u);
  storePolicy(spec);
  const PolicySpec back =
      policyFromEntry(*dir.lookup(dit::policies().child("cn", "P2")), dir);
  ASSERT_EQ(back.conditions.size(), 1u);
  EXPECT_EQ(back.conditions[0].id, "low-jitter");
}

}  // namespace
}  // namespace softqos::policy
