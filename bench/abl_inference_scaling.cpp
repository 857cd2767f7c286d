// Ablation E6: inference-engine scaling. The managers' rule/fact
// populations are small; this bench quantifies how far the incremental
// matcher carries (rule count, working-memory size, fact churn, and dynamic
// rule add/remove cost — the paper's dynamic rule distribution path).
#include <benchmark/benchmark.h>

#include "rules/engine.hpp"
#include "rules/parser.hpp"

using namespace softqos::rules;

namespace {

Rule numberedRule(int i) {
  Rule r;
  r.name = "rule-" + std::to_string(i);
  Pattern p;
  p.templateName = "metric";
  p.tests.push_back(SlotTest{SlotTest::Kind::kVariable, "pid", Value{}, "?p"});
  p.tests.push_back(
      SlotTest{SlotTest::Kind::kLiteral, "kind", Value::integer(i), ""});
  r.lhs.push_back(std::move(p));
  RuleAction a;
  a.kind = RuleAction::Kind::kCall;
  a.function = "noop";
  a.args = {Operand::var("?p")};
  r.rhs.push_back(std::move(a));
  return r;
}

void populate(InferenceEngine& e, int rules, int facts) {
  e.registerFunction("noop", [](const std::vector<Value>&) {});
  for (int i = 0; i < rules; ++i) e.addRule(numberedRule(i));
  for (int i = 0; i < facts; ++i) {
    e.facts().assertFact("metric", {{"pid", Value::integer(i)},
                                    {"kind", Value::integer(i % 97)}});
  }
}

/// Quiescent run: everything already fired, so run() finds an empty
/// agenda — the steady-state cost a manager pays per report.
void BM_QuiescentRun(benchmark::State& state) {
  InferenceEngine e;
  populate(e, static_cast<int>(state.range(0)),
           static_cast<int>(state.range(1)));
  e.run();  // drain
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.run());
  }
  state.SetLabel(std::to_string(state.range(0)) + " rules, " +
                 std::to_string(state.range(1)) + " facts");
}
BENCHMARK(BM_QuiescentRun)
    ->Args({4, 16})
    ->Args({16, 64})
    ->Args({64, 256})
    ->Args({128, 1024});

/// Fire latency: one fresh fact arrives and triggers exactly one rule.
void BM_FireOnNewFact(benchmark::State& state) {
  InferenceEngine e;
  populate(e, static_cast<int>(state.range(0)), 64);
  e.run();
  std::int64_t next = 100000;
  for (auto _ : state) {
    e.facts().assertFact("metric", {{"pid", Value::integer(next++)},
                                    {"kind", Value::integer(3)}});
    benchmark::DoNotOptimize(e.run());
  }
}
BENCHMARK(BM_FireOnNewFact)->Arg(4)->Arg(16)->Arg(64);

/// Dynamic rule distribution: parse + hot-install a rule set.
void BM_RuleSetHotLoad(benchmark::State& state) {
  std::string text;
  for (int i = 0; i < state.range(0); ++i) {
    text += "(defrule hot-" + std::to_string(i) +
            " (violation (pid ?p)) (metric (pid ?p) (value ?v)) "
            "(test (> ?v " + std::to_string(i) + ")) => (call noop ?p))\n";
  }
  InferenceEngine e;
  e.registerFunction("noop", [](const std::vector<Value>&) {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(loadRules(e, text));
  }
  state.SetLabel(std::to_string(state.range(0)) + " rules");
}
BENCHMARK(BM_RuleSetHotLoad)->Arg(1)->Arg(8)->Arg(32);

/// Join selectivity: a two-pattern rule joining over pid across a growing
/// working memory (the shape of every manager diagnosis rule).
void BM_TwoPatternJoin(benchmark::State& state) {
  InferenceEngine e;
  e.registerFunction("noop", [](const std::vector<Value>&) {});
  loadRules(e, R"(
    (defrule join
      (violation (pid ?p))
      (metric (pid ?p) (value ?v))
      (test (> ?v 0.5))
      =>
      (call noop ?p)))");
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    e.facts().assertFact("metric", {{"pid", Value::integer(i)},
                                    {"value", Value::real(0.75)}});
  }
  e.facts().assertFact("violation", {{"pid", Value::integer(n / 2)}});
  e.run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.run());
  }
  state.SetLabel(std::to_string(n) + " metric facts");
}
BENCHMARK(BM_TwoPatternJoin)->Arg(16)->Arg(128)->Arg(1024);

/// Agenda-maintenance cost under churn: K facts asserted then retracted
/// against N rules. With incremental matching the per-delta cost is the
/// alpha filter over affected rules plus touched activations — independent
/// of working-memory size (the 1024 resident facts are never re-scanned).
void BM_IncrementalChurn(benchmark::State& state) {
  InferenceEngine e;
  populate(e, static_cast<int>(state.range(0)), 1024);
  e.run();  // drain
  const int kBatch = 16;
  std::int64_t next = 1 << 20;
  for (auto _ : state) {
    FactId ids[kBatch];
    for (int i = 0; i < kBatch; ++i) {
      ids[i] = e.facts().assertFact(
          "metric", {{"pid", Value::integer(next++)},
                     {"kind", Value::integer(i % 97)}});
    }
    benchmark::DoNotOptimize(e.run());
    for (int i = 0; i < kBatch; ++i) e.facts().retract(ids[i]);
  }
  state.SetLabel(std::to_string(state.range(0)) + " rules, batch " +
                 std::to_string(kBatch));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
BENCHMARK(BM_IncrementalChurn)->Arg(16)->Arg(64)->Arg(256);

/// Worst case for the incremental design: churn on a template that appears
/// NEGATED in every rule. Each such delta forces a full re-derivation of
/// every affected rule (alpha granularity is per rule, not per activation),
/// so this is where the old full re-match cost resurfaces — on record here.
void BM_NegatedChurn(benchmark::State& state) {
  InferenceEngine e;
  e.registerFunction("noop", [](const std::vector<Value>&) {});
  const int rules = static_cast<int>(state.range(0));
  std::string text;
  for (int i = 0; i < rules; ++i) {
    text += "(defrule neg-" + std::to_string(i) +
            " (metric (kind " + std::to_string(i % 97) + ") (pid ?p))"
            " (not (mute (pid ?p))) => (call noop ?p))\n";
  }
  loadRules(e, text);
  for (int i = 0; i < 256; ++i) {
    e.facts().assertFact("metric", {{"pid", Value::integer(i)},
                                    {"kind", Value::integer(i % 97)}});
  }
  e.run();  // drain
  std::int64_t next = 1 << 20;
  for (auto _ : state) {
    const FactId id = e.facts().assertFact(
        "mute", {{"pid", Value::integer(next++)}});
    e.facts().retract(id);
  }
  state.SetLabel(std::to_string(rules) + " negated rules, 256 facts");
}
BENCHMARK(BM_NegatedChurn)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
