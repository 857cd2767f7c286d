// The CLIPS-like inference engine: values, working memory, pattern matching,
// forward chaining with conflict resolution and refraction, RHS actions,
// run-time rule add/remove, and the textual rule parser.
#include <gtest/gtest.h>

#include "rules/engine.hpp"
#include "rules/parser.hpp"

namespace softqos::rules {
namespace {

// ---- Value ----

TEST(Value, ParseLiteralTypes) {
  EXPECT_EQ(Value::parseLiteral("42").type(), Value::Type::kInt);
  EXPECT_EQ(Value::parseLiteral("-7").asInt(), -7);
  EXPECT_EQ(Value::parseLiteral("4.5").type(), Value::Type::kFloat);
  EXPECT_EQ(Value::parseLiteral("\"hi\"").type(), Value::Type::kString);
  EXPECT_EQ(Value::parseLiteral("\"hi\"").asString(), "hi");
  EXPECT_EQ(Value::parseLiteral("TRUE").type(), Value::Type::kBool);
  EXPECT_EQ(Value::parseLiteral("frame_rate").type(), Value::Type::kSymbol);
}

TEST(Value, NumericEqualityCrossesIntFloat) {
  EXPECT_EQ(Value::integer(5), Value::real(5.0));
  EXPECT_NE(Value::integer(5), Value::real(5.5));
}

TEST(Value, StringAndSymbolAreDistinctTypes) {
  EXPECT_NE(Value::str("a"), Value::symbol("a"));
  EXPECT_EQ(Value::symbol("a"), Value::symbol("a"));
}

TEST(Value, CompareNumericAndText) {
  EXPECT_EQ(Value::compare(Value::integer(1), Value::real(2.0)), -1);
  EXPECT_EQ(Value::compare(Value::symbol("b"), Value::symbol("a")), 1);
  EXPECT_EQ(Value::compare(Value::str("x"), Value::str("x")), 0);
  EXPECT_EQ(Value::compare(Value::integer(1), Value::symbol("a")), std::nullopt);
}

TEST(Value, ToStringRoundTrips) {
  EXPECT_EQ(Value::integer(3).toString(), "3");
  EXPECT_EQ(Value::symbol("sym").toString(), "sym");
  EXPECT_EQ(Value::str("s").toString(), "\"s\"");
  EXPECT_EQ(Value::boolean(true).toString(), "TRUE");
}

TEST(Value, AccessorsThrowOnWrongType) {
  EXPECT_THROW((void)Value::symbol("x").asInt(), std::logic_error);
  EXPECT_THROW((void)Value::integer(1).asString(), std::logic_error);
  EXPECT_THROW((void)Value::integer(1).asBool(), std::logic_error);
}

// ---- FactRepository ----

TEST(FactRepository, AssertAndFind) {
  FactRepository repo;
  const FactId id = repo.assertFact("metric", {{"name", Value::symbol("fps")},
                                               {"value", Value::real(30)}});
  ASSERT_NE(repo.find(id), nullptr);
  EXPECT_EQ(repo.find(id)->templateName, "metric");
  EXPECT_EQ(repo.size(), 1u);
}

TEST(FactRepository, DuplicateAssertionIsSuppressed) {
  FactRepository repo;
  const FactId a = repo.assertFact("f", {{"x", Value::integer(1)}});
  const FactId b = repo.assertFact("f", {{"x", Value::integer(1)}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(repo.size(), 1u);
}

TEST(FactRepository, RetractRemoves) {
  FactRepository repo;
  const FactId id = repo.assertFact("f", {});
  EXPECT_TRUE(repo.retract(id));
  EXPECT_FALSE(repo.retract(id));
  EXPECT_EQ(repo.find(id), nullptr);
}

TEST(FactRepository, ModifyReassertsWithNewId) {
  FactRepository repo;
  const FactId id = repo.assertFact("f", {{"x", Value::integer(1)}});
  const FactId id2 = repo.modify(id, {{"x", Value::integer(2)}});
  EXPECT_NE(id2, kNoFact);
  EXPECT_NE(id2, id);
  EXPECT_EQ(repo.find(id), nullptr);
  EXPECT_EQ(*repo.find(id2)->slot("x"), Value::integer(2));
}

TEST(FactRepository, ByTemplateFilters) {
  FactRepository repo;
  repo.assertFact("a", {{"i", Value::integer(1)}});
  repo.assertFact("a", {{"i", Value::integer(2)}});
  repo.assertFact("b", {});
  EXPECT_EQ(repo.byTemplate("a").size(), 2u);
  EXPECT_EQ(repo.byTemplate("b").size(), 1u);
  EXPECT_TRUE(repo.byTemplate("zzz").empty());
}

TEST(FactRepository, RetractTemplateRemovesAll) {
  FactRepository repo;
  repo.assertFact("a", {{"i", Value::integer(1)}});
  repo.assertFact("a", {{"i", Value::integer(2)}});
  repo.assertFact("b", {});
  EXPECT_EQ(repo.retractWhere("a", {}), 2u);
  EXPECT_EQ(repo.size(), 1u);
}

TEST(FactRepository, FindWhereMatchesSubset) {
  FactRepository repo;
  repo.assertFact("m", {{"pid", Value::integer(1)}, {"v", Value::real(2)}});
  repo.assertFact("m", {{"pid", Value::integer(2)}, {"v", Value::real(3)}});
  const Fact* f = repo.findWhere("m", {{"pid", Value::integer(2)}});
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(*f->slot("v"), Value::real(3));
  EXPECT_EQ(repo.findWhere("m", {{"pid", Value::integer(9)}}), nullptr);
  // retractWhere shares the match: only the pid-2 fact goes.
  EXPECT_EQ(repo.retractWhere("m", {{"pid", Value::integer(2)}}), 1u);
  EXPECT_EQ(repo.findWhere("m", {{"pid", Value::integer(2)}}), nullptr);
  EXPECT_NE(repo.findWhere("m", {{"pid", Value::integer(1)}}), nullptr);
}

// ---- Pattern matching ----

TEST(Pattern, LiteralSlotMustMatch) {
  Fact f;
  f.templateName = "m";
  f.slots = {{"name", Value::symbol("fps")}};
  Pattern p;
  p.templateName = "m";
  p.tests = {{SlotTest::Kind::kLiteral, "name", Value::symbol("fps"), ""}};
  Bindings b;
  EXPECT_TRUE(matchPattern(p, f, b));
  p.tests[0].literal = Value::symbol("other");
  EXPECT_FALSE(matchPattern(p, f, b));
}

TEST(Pattern, VariableBindsAndChecksConsistency) {
  Fact f;
  f.templateName = "m";
  f.slots = {{"a", Value::integer(1)}, {"b", Value::integer(1)}};
  Pattern p;
  p.templateName = "m";
  p.tests = {{SlotTest::Kind::kVariable, "a", Value{}, "?x"},
             {SlotTest::Kind::kVariable, "b", Value{}, "?x"}};
  Bindings b;
  EXPECT_TRUE(matchPattern(p, f, b));
  EXPECT_EQ(b.at("?x"), Value::integer(1));

  Fact g = f;
  g.slots["b"] = Value::integer(2);
  Bindings b2;
  EXPECT_FALSE(matchPattern(p, g, b2));
  EXPECT_TRUE(b2.empty()) << "failed match must not leak bindings";
}

TEST(Pattern, MissingSlotFailsMatch) {
  Fact f;
  f.templateName = "m";
  Pattern p;
  p.templateName = "m";
  p.tests = {{SlotTest::Kind::kVariable, "nope", Value{}, "?x"}};
  Bindings b;
  EXPECT_FALSE(matchPattern(p, f, b));
}

TEST(Pattern, ExtraFactSlotsAreIgnored) {
  Fact f;
  f.templateName = "m";
  f.slots = {{"a", Value::integer(1)}, {"extra", Value::integer(9)}};
  Pattern p;
  p.templateName = "m";
  p.tests = {{SlotTest::Kind::kLiteral, "a", Value::integer(1), ""}};
  Bindings b;
  EXPECT_TRUE(matchPattern(p, f, b));
}

TEST(ConditionTest, EvaluatesComparators) {
  Bindings b{{"?v", Value::real(5)}};
  ConditionTest t;
  t.op = CmpOp::kGt;
  t.lhs = Operand::var("?v");
  t.rhs = Operand::lit(Value::integer(3));
  EXPECT_TRUE(t.eval(b));
  t.op = CmpOp::kLe;
  EXPECT_FALSE(t.eval(b));
}

TEST(ConditionTest, UnboundVariableIsFalse) {
  Bindings b;
  ConditionTest t;
  t.lhs = Operand::var("?missing");
  t.rhs = Operand::lit(Value::integer(1));
  EXPECT_FALSE(t.eval(b));
}

TEST(CmpOps, ParseAndEval) {
  EXPECT_TRUE(evalCmp(parseCmpOp(">="), Value::integer(2), Value::integer(2)));
  EXPECT_TRUE(evalCmp(parseCmpOp("!="), Value::integer(2), Value::integer(3)));
  EXPECT_FALSE(evalCmp(CmpOp::kLt, Value::symbol("x"), Value::integer(1)))
      << "incomparable types are false";
  EXPECT_THROW(parseCmpOp("~="), std::invalid_argument);
}

// ---- Engine: firing and conflict resolution ----

Rule makeRule(std::string name, int salience, std::string tmpl,
              std::string fn) {
  Rule r;
  r.name = std::move(name);
  r.salience = salience;
  Pattern p;
  p.templateName = std::move(tmpl);
  r.lhs.push_back(std::move(p));
  RuleAction a;
  a.kind = RuleAction::Kind::kCall;
  a.function = std::move(fn);
  r.rhs.push_back(std::move(a));
  return r;
}

TEST(Engine, FiresWhenFactMatches) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.addRule(makeRule("r", 0, "t", "f"));
  e.facts().assertFact("t", {});
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Engine, RefractionPreventsRefire) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.addRule(makeRule("r", 0, "t", "f"));
  e.facts().assertFact("t", {});
  e.run();
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, NewFactReactivatesRule) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.addRule(makeRule("r", 0, "t", "f"));
  e.facts().assertFact("t", {{"i", Value::integer(1)}});
  e.run();
  e.facts().assertFact("t", {{"i", Value::integer(2)}});
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, SalienceOrdersFiring) {
  InferenceEngine e;
  std::vector<std::string> order;
  e.registerFunction("lo", [&](const std::vector<Value>&) { order.push_back("lo"); });
  e.registerFunction("hi", [&](const std::vector<Value>&) { order.push_back("hi"); });
  e.addRule(makeRule("a-low", -5, "t", "lo"));
  e.addRule(makeRule("z-high", 10, "t", "hi"));
  e.facts().assertFact("t", {});
  e.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "hi");
  EXPECT_EQ(order[1], "lo");
}

TEST(Engine, RecencyBreaksSalienceTies) {
  InferenceEngine e;
  std::vector<std::int64_t> seen;
  e.registerFunction("f", [&](const std::vector<Value>& args) {
    seen.push_back(args[0].asInt());
  });
  Rule r;
  r.name = "r";
  Pattern p;
  p.templateName = "t";
  p.tests = {{SlotTest::Kind::kVariable, "i", Value{}, "?i"}};
  r.lhs.push_back(p);
  RuleAction a;
  a.kind = RuleAction::Kind::kCall;
  a.function = "f";
  a.args = {Operand::var("?i")};
  r.rhs.push_back(a);
  e.addRule(r);
  e.facts().assertFact("t", {{"i", Value::integer(1)}});
  e.facts().assertFact("t", {{"i", Value::integer(2)}});
  e.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 2) << "most recent fact fires first";
}

TEST(Engine, JoinBindsAcrossPatterns) {
  InferenceEngine e;
  std::vector<double> values;
  e.registerFunction("f", [&](const std::vector<Value>& args) {
    values.push_back(args[0].asFloat());
  });
  const std::string text = R"(
    (defrule join
      (violation (pid ?p))
      (metric (pid ?p) (value ?v))
      =>
      (call f ?v)))";
  loadRules(e, text);
  e.facts().assertFact("violation", {{"pid", Value::integer(1)}});
  e.facts().assertFact("metric", {{"pid", Value::integer(1)},
                                  {"value", Value::real(7.5)}});
  e.facts().assertFact("metric", {{"pid", Value::integer(2)},
                                  {"value", Value::real(9.9)}});
  e.run();
  ASSERT_EQ(values.size(), 1u) << "pid must join across patterns";
  EXPECT_DOUBLE_EQ(values[0], 7.5);
}

TEST(Engine, NegatedPatternBlocksWhenFactExists) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  loadRules(e, R"(
    (defrule r
      (alarm)
      (not (suppressed))
      =>
      (call f)))");
  e.facts().assertFact("alarm", {});
  e.facts().assertFact("suppressed", {});
  e.run();
  EXPECT_EQ(fired, 0);
  e.facts().retractWhere("suppressed", {});
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, TestClauseGatesActivation) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  loadRules(e, R"(
    (defrule r
      (m (v ?v))
      (test (> ?v 10))
      =>
      (call f)))");
  e.facts().assertFact("m", {{"v", Value::real(5)}});
  e.run();
  EXPECT_EQ(fired, 0);
  e.facts().assertFact("m", {{"v", Value::real(15)}});
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, AssertActionChainsForwardInference) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  loadRules(e, R"(
    (defrule first
      (a (x ?x))
      =>
      (assert (b (y ?x))))
    (defrule second
      (b (y 3))
      =>
      (call f)))");
  e.facts().assertFact("a", {{"x", Value::integer(3)}});
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_NE(e.facts().findWhere("b", {{"y", Value::integer(3)}}), nullptr);
}

TEST(Engine, RetractActionRemovesMatchedFact) {
  InferenceEngine e;
  loadRules(e, R"(
    (defrule consume
      (event (id ?i))
      =>
      (retract 1)))");
  e.facts().assertFact("event", {{"id", Value::integer(1)}});
  e.facts().assertFact("event", {{"id", Value::integer(2)}});
  e.run();
  EXPECT_TRUE(e.facts().byTemplate("event").empty());
}

TEST(Engine, ModifyActionUpdatesSlots) {
  InferenceEngine e;
  loadRules(e, R"(
    (defrule escalate
      (ticket (status open))
      =>
      (modify 1 (status escalated))))");
  e.facts().assertFact("ticket", {{"status", Value::symbol("open")}});
  e.run();
  EXPECT_NE(e.facts().findWhere("ticket",
                                {{"status", Value::symbol("escalated")}}),
            nullptr);
  EXPECT_EQ(e.facts().findWhere("ticket", {{"status", Value::symbol("open")}}),
            nullptr);
}

TEST(Engine, UnknownFunctionIsLoggedNotFatal) {
  InferenceEngine e;
  loadRules(e, "(defrule r (t) => (call no-such-fn))");
  e.facts().assertFact("t", {});
  e.run();
  EXPECT_EQ(e.actionErrors(), 1u);
  ASSERT_FALSE(e.errorLog().empty());
  EXPECT_NE(e.errorLog()[0].find("no-such-fn"), std::string::npos);
}

TEST(Engine, MaxFiringsBoundsRunawayRules) {
  InferenceEngine e;
  // Each firing asserts a fresh fact that reactivates the rule.
  e.registerFunction("noop", [](const std::vector<Value>&) {});
  Rule r;
  r.name = "runaway";
  Pattern p;
  p.templateName = "t";
  p.tests = {{SlotTest::Kind::kVariable, "i", Value{}, "?i"}};
  r.lhs.push_back(p);
  RuleAction a;
  a.kind = RuleAction::Kind::kAssert;
  a.templateName = "t";
  // Assert a constant-slot fact; dedup stops growth, refraction stops loops.
  a.slots = {{"i", Operand::lit(Value::integer(999))}};
  r.rhs.push_back(a);
  e.addRule(r);
  e.facts().assertFact("t", {{"i", Value::integer(1)}});
  const std::size_t fired = e.run(10);
  EXPECT_LE(fired, 10u);
}

TEST(Engine, RemoveRuleStopsFiring) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.addRule(makeRule("r", 0, "t", "f"));
  EXPECT_TRUE(e.removeRule("r"));
  EXPECT_FALSE(e.removeRule("r"));
  e.facts().assertFact("t", {});
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, ReplacingRuleClearsItsRefraction) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.addRule(makeRule("r", 0, "t", "f"));
  e.facts().assertFact("t", {});
  e.run();
  EXPECT_EQ(fired, 1);
  e.addRule(makeRule("r", 0, "t", "f"));  // hot-replace
  e.run();
  EXPECT_EQ(fired, 2) << "replaced rule must re-fire on existing facts";
}

TEST(Engine, RuleNamesEnumerates) {
  InferenceEngine e;
  e.addRule(makeRule("b", 0, "t", "f"));
  e.addRule(makeRule("a", 0, "t", "f"));
  EXPECT_EQ(e.ruleNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(e.hasRule("a"));
  EXPECT_FALSE(e.hasRule("zzz"));
}

// ---- Backward chaining (query / provable) ----

TEST(BackwardChaining, DirectFactIsProvable) {
  InferenceEngine e;
  e.facts().assertFact("alarm", {{"pid", Value::integer(3)}});
  EXPECT_TRUE(e.provable("alarm", {{"pid", Value::integer(3)}}));
  EXPECT_FALSE(e.provable("alarm", {{"pid", Value::integer(4)}}));
  EXPECT_FALSE(e.provable("other", {}));
}

TEST(BackwardChaining, RuleDerivedFactIsProvableWithoutRunning) {
  InferenceEngine e;
  loadRules(e, R"(
    (defrule derive
      (symptom (pid ?p))
      =>
      (assert (diagnosed (pid ?p)))))");
  e.facts().assertFact("symptom", {{"pid", Value::integer(9)}});
  // No forward run: the conclusion exists only through backward inference.
  EXPECT_TRUE(e.provable("diagnosed", {{"pid", Value::integer(9)}}));
  EXPECT_FALSE(e.provable("diagnosed", {{"pid", Value::integer(8)}}));
  EXPECT_TRUE(e.facts().byTemplate("diagnosed").empty())
      << "query must not assert anything";
}

TEST(BackwardChaining, ChainsThroughMultipleRules) {
  InferenceEngine e;
  loadRules(e, R"(
    (defrule step1 (a (x ?v)) => (assert (b (x ?v))))
    (defrule step2 (b (x ?v)) => (assert (c (x ?v)))))");
  e.facts().assertFact("a", {{"x", Value::integer(1)}});
  EXPECT_TRUE(e.provable("c", {{"x", Value::integer(1)}}));
  e.facts().retractWhere("a", {});
  EXPECT_FALSE(e.provable("c", {{"x", Value::integer(1)}}));
}

TEST(BackwardChaining, QueryBindsGoalVariables) {
  InferenceEngine e;
  loadRules(e, R"(
    (defrule gp
      (parent (p ?a) (c ?b))
      (parent (p ?b) (c ?d))
      =>
      (assert (grandparent (p ?a) (c ?d)))))");
  e.facts().assertFact("parent", {{"p", Value::symbol("tom")},
                                  {"c", Value::symbol("bob")}});
  e.facts().assertFact("parent", {{"p", Value::symbol("bob")},
                                  {"c", Value::symbol("ann")}});
  Pattern goal;
  goal.templateName = "grandparent";
  goal.tests = {{SlotTest::Kind::kLiteral, "p", Value::symbol("tom"), ""},
                {SlotTest::Kind::kVariable, "c", Value{}, "?who"}};
  const auto proof = e.query(goal);
  ASSERT_TRUE(proof.has_value());
  EXPECT_EQ(proof->at("?who"), Value::symbol("ann"));
}

TEST(BackwardChaining, BodyTestsAreRespected) {
  InferenceEngine e;
  loadRules(e, R"(
    (defrule hot
      (metric (v ?x))
      (test (> ?x 100))
      =>
      (assert (overheated))))");
  e.facts().assertFact("metric", {{"v", Value::real(50)}});
  EXPECT_FALSE(e.provable("overheated", {}));
  e.facts().assertFact("metric", {{"v", Value::real(150)}});
  EXPECT_TRUE(e.provable("overheated", {}));
}

TEST(BackwardChaining, NegationAsFailureInBody) {
  InferenceEngine e;
  loadRules(e, R"(
    (defrule quiet
      (alarm)
      (not (suppressed))
      =>
      (assert (page-operator))))");
  e.facts().assertFact("alarm", {});
  EXPECT_TRUE(e.provable("page-operator", {}));
  e.facts().assertFact("suppressed", {});
  EXPECT_FALSE(e.provable("page-operator", {}));
}

TEST(BackwardChaining, DepthLimitStopsSelfRecursion) {
  InferenceEngine e;
  loadRules(e, R"(
    (defrule loop (ghost (x ?v)) => (assert (ghost (x ?v)))))");
  // No base fact: the self-recursive rule must not loop forever.
  EXPECT_FALSE(e.provable("ghost", {{"x", Value::integer(1)}}, 16));
}

TEST(BackwardChaining, BacktracksAcrossCandidateFacts) {
  InferenceEngine e;
  loadRules(e, R"(
    (defrule pair
      (left (x ?v))
      (right (x ?v))
      =>
      (assert (matched (x ?v)))))");
  // Several left candidates; only one pairs with a right fact.
  for (int i = 0; i < 5; ++i) {
    e.facts().assertFact("left", {{"x", Value::integer(i)}});
  }
  e.facts().assertFact("right", {{"x", Value::integer(3)}});
  EXPECT_TRUE(e.provable("matched", {{"x", Value::integer(3)}}));
  Pattern any;
  any.templateName = "matched";
  any.tests = {{SlotTest::Kind::kVariable, "x", Value{}, "?v"}};
  const auto proof = e.query(any);
  ASSERT_TRUE(proof.has_value());
  EXPECT_EQ(proof->at("?v"), Value::integer(3));
}

// ---- Parser ----

TEST(Parser, ParsesSalienceAndStructure) {
  const auto rules = parseRules(R"(
    (defrule my-rule
      (declare (salience 25))
      (violation (pid ?p))
      (not (done (pid ?p)))
      (test (> ?p 0))
      =>
      (call act ?p 5)
      (assert (done (pid ?p)))
      (retract 1)))");
  ASSERT_EQ(rules.size(), 1u);
  const Rule& r = rules[0];
  EXPECT_EQ(r.name, "my-rule");
  EXPECT_EQ(r.salience, 25);
  ASSERT_EQ(r.lhs.size(), 2u);
  EXPECT_FALSE(r.lhs[0].negated);
  EXPECT_TRUE(r.lhs[1].negated);
  ASSERT_EQ(r.tests.size(), 1u);
  ASSERT_EQ(r.rhs.size(), 3u);
  EXPECT_EQ(r.rhs[0].kind, RuleAction::Kind::kCall);
  EXPECT_EQ(r.rhs[1].kind, RuleAction::Kind::kAssert);
  EXPECT_EQ(r.rhs[2].kind, RuleAction::Kind::kRetract);
  EXPECT_EQ(r.rhs[2].patternIndex, 1);
}

TEST(Parser, CommentsAreIgnored) {
  const auto rules = parseRules(R"(
    ; a comment
    (defrule r ; trailing comment
      (t)
      =>
      (call f)))");
  EXPECT_EQ(rules.size(), 1u);
}

TEST(Parser, StringLiteralsSurvive) {
  const auto rules = parseRules(R"(
    (defrule r (t (msg "hello world")) => (call f "a b")))");
  ASSERT_EQ(rules[0].lhs[0].tests.size(), 1u);
  EXPECT_EQ(rules[0].lhs[0].tests[0].literal, Value::str("hello world"));
  EXPECT_EQ(rules[0].rhs[0].args[0].literal, Value::str("a b"));
}

TEST(Parser, MultipleRulesInOneText) {
  EXPECT_EQ(parseRules("(defrule a (t) => (call f)) (defrule b (t) => (call g))")
                .size(),
            2u);
}

TEST(Parser, ErrorsAreReported) {
  EXPECT_THROW(parseRules("(defrule)"), RuleParseError);
  EXPECT_THROW(parseRules("(defrule r (t) (call f))"), RuleParseError);  // no =>
  EXPECT_THROW(parseRules("(defrule r (t) => (frobnicate x))"), RuleParseError);
  EXPECT_THROW(parseRules("(defrule r (t) =>"), RuleParseError);  // missing )
  EXPECT_THROW(parseRules("(defrule r (t) => (retract))"), RuleParseError);
  EXPECT_THROW(parseRules(R"((defrule r (t (msg "unterminated)) => (call f)))"),
               RuleParseError);
  // Indexes and salience are strict ints: a typed error names the token.
  for (const char* text :
       {"(defrule r (t) => (retract x))",
        "(defrule r (t) => (retract 99999999999))",
        "(defrule r (t) => (modify 1x (a 1)))",
        "(defrule r (declare (salience abc)) (t) => (retract 1))",
        "(defrule r (t (a ?x)) (test (~ ?x 1)) => (retract 1))"}) {
    EXPECT_THROW(parseRules(text), RuleParseError) << text;
  }
  try {
    parseRules("(defrule r (t) => (retract x))");
  } catch (const RuleParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'x'"), std::string::npos) << e.what();
  }
}

TEST(Parser, FactListParses) {
  const auto facts = parseFactList(
      "(metric (pid 1) (value 2.5)) (violation (pid 1))");
  ASSERT_EQ(facts.size(), 2u);
  EXPECT_EQ(facts[0].first, "metric");
  EXPECT_EQ(facts[0].second.at("value"), Value::real(2.5));
}

TEST(Parser, FactListRejectsVariables) {
  EXPECT_THROW(parseFactList("(metric (pid ?p))"), RuleParseError);
}

TEST(Parser, LoadRulesReturnsNames) {
  InferenceEngine e;
  const auto names =
      loadRules(e, "(defrule x (t) => (call f)) (defrule y (t) => (call f))");
  EXPECT_EQ(names, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(e.ruleCount(), 2u);
}

}  // namespace
}  // namespace softqos::rules
