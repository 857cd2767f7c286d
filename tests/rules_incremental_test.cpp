// Incremental agenda maintenance: conflict resolution and refraction under
// assert/retract/modify deltas, negated-pattern invalidation, rule
// removal/hot-reload purging the persistent agenda, and the working-memory
// delta stream + index-backed query APIs these build on.
#include <gtest/gtest.h>

#include <algorithm>

#include "rules/engine.hpp"
#include "rules/parser.hpp"

namespace softqos::rules {
namespace {

Rule callRule(std::string name, int salience, std::string tmpl,
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

// ---- Working-memory delta stream ----

TEST(FactDeltas, AssertAndRetractPublishPerFactDeltas) {
  FactRepository repo;
  std::vector<std::pair<FactDelta::Kind, std::string>> seen;
  repo.setDeltaListener([&](const FactDelta& d) {
    seen.emplace_back(d.kind, d.fact->templateName);
  });
  const FactId id = repo.assertFact("m", {{"x", Value::integer(1)}});
  repo.assertFact("m", {{"x", Value::integer(1)}});  // duplicate: no delta
  repo.retract(id);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, FactDelta::Kind::kAssert);
  EXPECT_EQ(seen[1].first, FactDelta::Kind::kRetract);
  EXPECT_EQ(seen[1].second, "m");
}

TEST(FactDeltas, ModifyPublishesRetractThenAssert) {
  FactRepository repo;
  const FactId id = repo.assertFact("m", {{"x", Value::integer(1)}});
  std::vector<FactDelta::Kind> kinds;
  repo.setDeltaListener([&](const FactDelta& d) { kinds.push_back(d.kind); });
  repo.modify(id, {{"x", Value::integer(2)}});
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], FactDelta::Kind::kRetract);
  EXPECT_EQ(kinds[1], FactDelta::Kind::kAssert);
}

TEST(FactDeltas, NoOpModifyKeepsIdAndPublishesNothing) {
  FactRepository repo;
  const FactId id = repo.assertFact("m", {{"x", Value::integer(1)}});
  int deltas = 0;
  repo.setDeltaListener([&](const FactDelta&) { ++deltas; });
  EXPECT_EQ(repo.modify(id, {{"x", Value::integer(1)}}), id);
  EXPECT_EQ(deltas, 0);
  ASSERT_NE(repo.find(id), nullptr);
}

TEST(FactDeltas, RetractDeltaSeesTheDeadFactContents) {
  FactRepository repo;
  const FactId id = repo.assertFact("m", {{"x", Value::integer(7)}});
  Value seen;
  repo.setDeltaListener([&](const FactDelta& d) {
    if (d.kind == FactDelta::Kind::kRetract) seen = *d.fact->slot("x");
  });
  repo.retract(id);
  EXPECT_EQ(seen, Value::integer(7));
}

// ---- Indexed repository APIs ----

TEST(FactIndex, ForEachVisitsInRecencyOrderAndStopsEarly) {
  FactRepository repo;
  for (int i = 0; i < 5; ++i) {
    repo.assertFact("m", {{"x", Value::integer(i)}});
  }
  std::vector<std::int64_t> visited;
  repo.forEach("m", [&](const Fact& f) {
    visited.push_back(f.slot("x")->asInt());
    return visited.size() < 3;
  });
  EXPECT_EQ(visited, (std::vector<std::int64_t>{0, 1, 2}));
}

TEST(FactIndex, FindWhereUsesAlphaIndexAcrossNumericTypes) {
  FactRepository repo;
  repo.assertFact("m", {{"pid", Value::integer(5)}, {"v", Value::real(1.5)}});
  // Equality (and hashing) treat int 5 and real 5.0 as the same value.
  const Fact* f = repo.findWhere("m", {{"pid", Value::real(5.0)}});
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(*f->slot("v"), Value::real(1.5));
}

TEST(FactIndex, FindWhereEmptySlotsReturnsAnyOfTemplate) {
  FactRepository repo;
  EXPECT_EQ(repo.findWhere("m", {}), nullptr);
  repo.assertFact("m", {{"x", Value::integer(1)}});
  EXPECT_NE(repo.findWhere("m", {}), nullptr);
}

TEST(FactIndex, IndexesSurviveChurn) {
  FactRepository repo;
  std::vector<FactId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(repo.assertFact("m", {{"x", Value::integer(i)}}));
  }
  for (int i = 0; i < 32; i += 2) repo.retract(ids[static_cast<size_t>(i)]);
  EXPECT_EQ(repo.byTemplate("m").size(), 16u);
  EXPECT_EQ(repo.findWhere("m", {{"x", Value::integer(2)}}), nullptr);
  EXPECT_NE(repo.findWhere("m", {{"x", Value::integer(3)}}), nullptr);
  // Retracted content can be re-asserted and found again.
  repo.assertFact("m", {{"x", Value::integer(2)}});
  EXPECT_NE(repo.findWhere("m", {{"x", Value::integer(2)}}), nullptr);
}

// ---- Conflict resolution under incremental updates ----

TEST(IncrementalAgenda, SalienceThenRecencyThenNameAcrossDeltas) {
  InferenceEngine e;
  std::vector<std::string> order;
  for (const char* fn : {"hi", "a", "b"}) {
    e.registerFunction(fn, [&order, fn](const std::vector<Value>&) {
      order.emplace_back(fn);
    });
  }
  // Same fact feeds all three rules; salience dominates, then the two
  // salience-tied rules break the tie on rule name (recency is equal).
  e.addRule(callRule("z-but-salient", 10, "t", "hi"));
  e.addRule(callRule("b-rule", 0, "t", "b"));
  e.addRule(callRule("a-rule", 0, "t", "a"));
  e.facts().assertFact("t", {});
  e.run();
  EXPECT_EQ(order, (std::vector<std::string>{"hi", "a", "b"}));
}

TEST(IncrementalAgenda, RecencyPrefersFactsAssertedMidRun) {
  InferenceEngine e;
  std::vector<std::int64_t> seen;
  e.registerFunction("see", [&](const std::vector<Value>& args) {
    seen.push_back(args[0].asInt());
  });
  loadRules(e, R"(
    (defrule spawn
      (declare (salience 5))
      (seed)
      =>
      (assert (t (i 99))))
    (defrule watch
      (t (i ?i))
      =>
      (call see ?i)))");
  e.facts().assertFact("t", {{"i", Value::integer(1)}});
  e.facts().assertFact("seed", {});
  e.run();
  // The fact asserted by `spawn` mid-run is newer, so `watch` sees it first.
  EXPECT_EQ(seen, (std::vector<std::int64_t>{99, 1}));
}

TEST(IncrementalAgenda, AgendaSizeTracksPendingActivations) {
  InferenceEngine e;
  e.registerFunction("f", [](const std::vector<Value>&) {});
  e.addRule(callRule("r", 0, "t", "f"));
  EXPECT_EQ(e.agendaSize(), 0u);
  const FactId a = e.facts().assertFact("t", {{"i", Value::integer(1)}});
  e.facts().assertFact("t", {{"i", Value::integer(2)}});
  EXPECT_EQ(e.agendaSize(), 2u);
  e.facts().retract(a);
  EXPECT_EQ(e.agendaSize(), 1u);
  e.run();
  EXPECT_EQ(e.agendaSize(), 0u);
}

// ---- Refraction under incremental updates ----

TEST(IncrementalRefraction, NoRefireAfterNoOpModify) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.addRule(callRule("r", 0, "t", "f"));
  const FactId id = e.facts().assertFact("t", {{"x", Value::integer(1)}});
  e.run();
  EXPECT_EQ(fired, 1);
  // Modifying a fact back to its identical contents is a no-op: same id, no
  // delta, no fresh activation.
  EXPECT_EQ(e.facts().modify(id, {{"x", Value::integer(1)}}), id);
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(IncrementalRefraction, RealModifyReactivates) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.addRule(callRule("r", 0, "t", "f"));
  const FactId id = e.facts().assertFact("t", {{"x", Value::integer(1)}});
  e.run();
  e.facts().modify(id, {{"x", Value::integer(2)}});
  e.run();
  EXPECT_EQ(fired, 2) << "a changed fact is a new tuple and must re-fire";
}

TEST(IncrementalRefraction, RetractThenReassertIsANewTuple) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.addRule(callRule("r", 0, "t", "f"));
  const FactId id = e.facts().assertFact("t", {{"x", Value::integer(1)}});
  e.run();
  e.facts().retract(id);
  e.facts().assertFact("t", {{"x", Value::integer(1)}});
  e.run();
  EXPECT_EQ(fired, 2) << "the re-asserted fact has a fresh id";
}

TEST(IncrementalRefraction, PendingActivationDiesWithItsFact) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.addRule(callRule("r", 0, "t", "f"));
  const FactId id = e.facts().assertFact("t", {});
  e.facts().retract(id);  // before any run
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(IncrementalRefraction, JoinActivationDiesWhenEitherFactDies) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  loadRules(e, R"(
    (defrule join
      (violation (pid ?p))
      (metric (pid ?p))
      =>
      (call f)))");
  e.facts().assertFact("violation", {{"pid", Value::integer(1)}});
  const FactId m = e.facts().assertFact("metric", {{"pid", Value::integer(1)}});
  EXPECT_EQ(e.agendaSize(), 1u);
  e.facts().retract(m);
  EXPECT_EQ(e.agendaSize(), 0u);
  e.run();
  EXPECT_EQ(fired, 0);
}

// ---- Negation under incremental updates ----

TEST(IncrementalNegation, LaterAssertInvalidatesPendingActivation) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  loadRules(e, R"(
    (defrule quiet
      (alarm)
      (not (suppressed))
      =>
      (call f)))");
  e.facts().assertFact("alarm", {});
  EXPECT_EQ(e.agendaSize(), 1u);
  // The blocker arrives before the pending activation fires: it must be
  // invalidated, exactly as a full re-match would conclude.
  e.facts().assertFact("suppressed", {});
  EXPECT_EQ(e.agendaSize(), 0u);
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(IncrementalNegation, RetractOfBlockerReactivatesOnceOnly) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  loadRules(e, R"(
    (defrule quiet
      (alarm)
      (not (suppressed))
      =>
      (call f)))");
  e.facts().assertFact("alarm", {});
  e.run();
  EXPECT_EQ(fired, 1);
  // Assert + retract the blocker: the re-derived activation carries the same
  // (rule, tuple) refraction key, so it must not fire a second time.
  const FactId s = e.facts().assertFact("suppressed", {});
  e.facts().retract(s);
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(IncrementalNegation, BoundNegationRespectsJoinVariable) {
  InferenceEngine e;
  std::vector<std::int64_t> fired;
  e.registerFunction("f", [&](const std::vector<Value>& args) {
    fired.push_back(args[0].asInt());
  });
  loadRules(e, R"(
    (defrule unhandled
      (violation (pid ?p))
      (not (handled (pid ?p)))
      =>
      (call f ?p)))");
  e.facts().assertFact("violation", {{"pid", Value::integer(1)}});
  e.facts().assertFact("violation", {{"pid", Value::integer(2)}});
  e.facts().assertFact("handled", {{"pid", Value::integer(1)}});
  e.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2) << "only the unhandled pid may fire";
}

// ---- Rule removal / hot reload ----

TEST(RuleLifecycle, RemoveRulePurgesPendingAgendaEntries) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.addRule(callRule("r", 0, "t", "f"));
  e.facts().assertFact("t", {});
  EXPECT_EQ(e.agendaSize(), 1u);
  EXPECT_TRUE(e.removeRule("r"));
  EXPECT_EQ(e.agendaSize(), 0u);
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(RuleLifecycle, HotReloadReplacesPendingActivations) {
  InferenceEngine e;
  int oldFired = 0;
  int newFired = 0;
  e.registerFunction("old", [&](const std::vector<Value>&) { ++oldFired; });
  e.registerFunction("new", [&](const std::vector<Value>&) { ++newFired; });
  e.addRule(callRule("r", 0, "t", "old"));
  e.facts().assertFact("t", {});
  EXPECT_EQ(e.agendaSize(), 1u);
  e.addRule(callRule("r", 0, "t", "new"));  // replace before firing
  EXPECT_EQ(e.agendaSize(), 1u);
  e.run();
  EXPECT_EQ(oldFired, 0) << "stale activation of the old definition must go";
  EXPECT_EQ(newFired, 1);
}

TEST(RuleLifecycle, ReplacementClearsRefractionPerRuleOnly) {
  InferenceEngine e;
  int a = 0;
  int b = 0;
  e.registerFunction("fa", [&](const std::vector<Value>&) { ++a; });
  e.registerFunction("fb", [&](const std::vector<Value>&) { ++b; });
  e.addRule(callRule("ra", 0, "t", "fa"));
  e.addRule(callRule("rb", 0, "t", "fb"));
  e.facts().assertFact("t", {});
  e.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  e.addRule(callRule("ra", 0, "t", "fa"));  // hot-replace only ra
  e.run();
  EXPECT_EQ(a, 2) << "replaced rule re-fires on existing facts";
  EXPECT_EQ(b, 1) << "untouched rule keeps its refraction marks";
}

TEST(RuleLifecycle, RuleAddedAfterFactsSeesExistingWorkingMemory) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.facts().assertFact("t", {{"i", Value::integer(1)}});
  e.facts().assertFact("t", {{"i", Value::integer(2)}});
  e.addRule(callRule("late", 0, "t", "f"));
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(RuleLifecycle, ClearDrainsAgendaAndRefraction) {
  InferenceEngine e;
  int fired = 0;
  e.registerFunction("f", [&](const std::vector<Value>&) { ++fired; });
  e.addRule(callRule("r", 0, "t", "f"));
  e.facts().assertFact("t", {{"i", Value::integer(1)}});
  e.facts().clear();
  e.run();
  EXPECT_EQ(fired, 0);
  // After a wipe, the same content is a fresh fact and fires again.
  e.facts().assertFact("t", {{"i", Value::integer(1)}});
  e.run();
  EXPECT_EQ(fired, 1);
}

// ---- Parity spot-check: incremental agenda vs full re-derivation ----

TEST(IncrementalParity, ChurnedEngineMatchesFreshEngine) {
  // Drive one engine through assert/retract/modify churn, then build a
  // second engine directly in the final working-memory state; both must
  // agree on what fires next.
  const std::string rules = R"(
    (defrule hot
      (metric (pid ?p) (v ?v))
      (not (quiet (pid ?p)))
      (test (> ?v 10))
      =>
      (call f ?p)))";

  InferenceEngine churned;
  std::vector<std::int64_t> churnedFired;
  churned.registerFunction("f", [&](const std::vector<Value>& args) {
    churnedFired.push_back(args[0].asInt());
  });
  loadRules(churned, rules);
  std::vector<FactId> ids;
  for (int p = 0; p < 6; ++p) {
    ids.push_back(churned.facts().assertFact(
        "metric", {{"pid", Value::integer(p)}, {"v", Value::integer(5)}}));
  }
  for (int p = 0; p < 6; p += 2) {
    churned.facts().modify(ids[static_cast<size_t>(p)],
                           {{"v", Value::integer(20)}});
  }
  churned.facts().assertFact("quiet", {{"pid", Value::integer(2)}});
  const FactId q4 = churned.facts().assertFact(
      "quiet", {{"pid", Value::integer(4)}});
  churned.facts().retract(q4);
  churned.run();

  InferenceEngine fresh;
  std::vector<std::int64_t> freshFired;
  fresh.registerFunction("f", [&](const std::vector<Value>& args) {
    freshFired.push_back(args[0].asInt());
  });
  loadRules(fresh, rules);
  for (int p = 0; p < 6; ++p) {
    const int v = (p % 2 == 0) ? 20 : 5;
    fresh.facts().assertFact(
        "metric", {{"pid", Value::integer(p)}, {"v", Value::integer(v)}});
  }
  fresh.facts().assertFact("quiet", {{"pid", Value::integer(2)}});
  fresh.run();

  std::sort(churnedFired.begin(), churnedFired.end());
  std::sort(freshFired.begin(), freshFired.end());
  EXPECT_EQ(churnedFired, freshFired);
  EXPECT_EQ(churnedFired, (std::vector<std::int64_t>{0, 4}));
}

// ---- Many applications in one working memory ----

// Working memory once had an optional per-pid partition index; the suite
// keeps its name. These tests pin what the one template-scan path must do
// when facts of many pids (and pid-less ones) share working memory.

// Negation, modify and retract mid-stream. The expected sequence is the one
// the partitioned and the unpartitioned engine both printed before the
// partition index was deleted.
TEST(PartitionedMemory, FiringOrderIdenticalToUnpartitioned) {
  const std::string rules = R"(
    (defrule hot
      (metric (pid ?p) (v ?v))
      (not (quiet (pid ?p)))
      (test (> ?v 10))
      =>
      (call f ?p ?v))
    (defrule paired
      (metric (pid ?p) (v ?v))
      (session (pid ?p) (s ?s))
      =>
      (call g ?p ?s)))";

  InferenceEngine e;
  std::vector<std::string> fired;
  e.registerFunction("f", [&](const std::vector<Value>& args) {
    fired.push_back("f:" + std::to_string(args[0].asInt()) + "," +
                    std::to_string(args[1].asInt()));
  });
  e.registerFunction("g", [&](const std::vector<Value>& args) {
    fired.push_back("g:" + std::to_string(args[0].asInt()) + "," +
                    std::to_string(args[1].asInt()));
  });
  loadRules(e, rules);
  std::vector<FactId> ids;
  for (int p = 0; p < 8; ++p) {
    ids.push_back(e.facts().assertFact(
        "metric", {{"pid", Value::integer(p)}, {"v", Value::integer(20)}}));
    e.facts().assertFact(
        "session", {{"pid", Value::integer(p)}, {"s", Value::integer(p * 7)}});
  }
  e.facts().assertFact("quiet", {{"pid", Value::integer(3)}});
  e.run();
  // Churn mid-stream: retract a blocker, modify values, kill one pid.
  e.facts().assertFact("quiet", {{"pid", Value::integer(5)}});
  const Fact* q3 = e.facts().findWhere("quiet", {{"pid", Value::integer(3)}});
  ASSERT_NE(q3, nullptr);
  e.facts().retract(q3->id);
  e.facts().modify(ids[1], {{"v", Value::integer(25)}});
  e.facts().retract(ids[6]);
  e.run();

  // Exact order, not just the same set.
  EXPECT_EQ(fired, (std::vector<std::string>{
                       "g:7,49", "f:7,20", "g:6,42", "f:6,20", "g:5,35",
                       "f:5,20", "g:4,28", "f:4,20", "g:3,21", "g:2,14",
                       "f:2,20", "g:1,7", "f:1,20", "g:0,0", "f:0,20",
                       "f:1,25", "g:1,7", "f:3,20"}));
}

// A rule joining a pid-less (global) fact against every pid's facts sees
// all of them.
TEST(PartitionedMemory, GlobalFactsJoinPartitionedOnes) {
  const std::string rules = R"(
    (defrule breach-touches-all
      (slo-breach (name ?n))
      (metric (pid ?p) (v ?v))
      (test (> ?v 10))
      =>
      (call hit ?p)))";
  InferenceEngine e;
  std::vector<std::int64_t> hits;
  e.registerFunction("hit", [&](const std::vector<Value>& args) {
    hits.push_back(args[0].asInt());
  });
  loadRules(e, rules);
  for (int p = 0; p < 4; ++p) {
    e.facts().assertFact(
        "metric", {{"pid", Value::integer(p)}, {"v", Value::integer(20)}});
  }
  // The breach fact has no pid slot at all: it is global.
  e.facts().assertFact("slo-breach", {{"name", Value::symbol("lat")}});
  e.run();
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<std::int64_t>{0, 1, 2, 3}));
}

// A join across two different pids (two pid variables) sees every pair.
TEST(PartitionedMemory, CrossPartitionJoinsStillSeeEveryPair) {
  InferenceEngine e;
  std::vector<std::string> pairs;
  e.registerFunction("pair", [&](const std::vector<Value>& args) {
    pairs.push_back(std::to_string(args[0].asInt()) + "<" +
                    std::to_string(args[1].asInt()));
  });
  loadRules(e, R"(
    (defrule pairs
      (metric (pid ?a) (v ?va))
      (metric (pid ?b) (v ?vb))
      (test (< ?a ?b))
      =>
      (call pair ?a ?b)))");
  for (int p = 0; p < 3; ++p) {
    e.facts().assertFact(
        "metric", {{"pid", Value::integer(p)}, {"v", Value::integer(p)}});
  }
  e.run();
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs, (std::vector<std::string>{"0<1", "0<2", "1<2"}));
}

TEST(PartitionedMemory, MalformedDeclareRejected) {
  InferenceEngine e;
  EXPECT_THROW(loadRules(e, R"(
    (defrule bad
      (declare (sideways 3))
      (a (k ?k))
      =>
      (call noop)))"),
               std::runtime_error);
  // The opt-out declare of the deleted partition index is malformed now.
  EXPECT_THROW(loadRules(e, R"(
    (defrule spanning
      (declare (salience 30) (cross-partition))
      (a (k ?k))
      =>
      (call noop)))"),
               RuleParseError);
  EXPECT_FALSE(e.hasRule("spanning"));
}

}  // namespace
}  // namespace softqos::rules
