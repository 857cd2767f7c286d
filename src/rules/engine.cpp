#include "rules/engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace softqos::rules {

InferenceEngine::InferenceEngine(std::string name) : name_(std::move(name)) {
  // The agenda is maintained incrementally off the working-memory delta
  // stream; all mutation paths (manager code, RHS actions) flow through it.
  facts_.setDeltaListener([this](const FactDelta& delta) { onDelta(delta); });
}

void InferenceEngine::indexRule(const Rule& rule) {
  std::set<std::string> positive;
  std::set<std::string> negated;
  for (const Pattern& pattern : rule.lhs) {
    (pattern.negated ? negated : positive).insert(pattern.templateName);
  }
  for (const std::string& tmpl : positive) {
    positiveByTemplate_[tmpl].push_back(&rule);
  }
  for (const std::string& tmpl : negated) {
    negatedByTemplate_[tmpl].push_back(&rule);
  }
}

void InferenceEngine::unindexRule(const Rule& rule) {
  for (const Pattern& pattern : rule.lhs) {
    auto& index = pattern.negated ? negatedByTemplate_ : positiveByTemplate_;
    const auto it = index.find(pattern.templateName);
    if (it == index.end()) continue;
    auto& entries = it->second;
    entries.erase(std::remove(entries.begin(), entries.end(), &rule),
                  entries.end());
    if (entries.empty()) index.erase(it);
  }
}

void InferenceEngine::addRule(Rule rule) {
  const std::string ruleName = rule.name;
  const auto existing = rules_.find(ruleName);
  if (existing != rules_.end()) {
    // Replacing a rule clears its refraction marks — a single O(1) erase,
    // fired tuples are keyed per rule — so the fresh definition can re-fire
    // on facts the old one already consumed.
    removeAgendaForRule(&existing->second);
    firedByRule_.erase(ruleName);
    unindexRule(existing->second);
  }
  Rule& stored = rules_[ruleName];
  stored = std::move(rule);
  indexRule(stored);
  recomputeRule(stored);
}

bool InferenceEngine::removeRule(const std::string& name) {
  const auto it = rules_.find(name);
  if (it == rules_.end()) return false;
  removeAgendaForRule(&it->second);
  firedByRule_.erase(name);
  unindexRule(it->second);
  rules_.erase(it);
  return true;
}

bool InferenceEngine::hasRule(const std::string& name) const {
  return rules_.contains(name);
}

std::vector<std::string> InferenceEngine::ruleNames() const {
  std::vector<std::string> out;
  out.reserve(rules_.size());
  for (const auto& [name, rule] : rules_) {
    (void)rule;
    out.push_back(name);
  }
  return out;
}

void InferenceEngine::registerFunction(const std::string& name,
                                       EngineFunction fn) {
  functions_[name] = std::move(fn);
}

void InferenceEngine::matchScan(const Rule& rule, std::size_t position,
                                Bindings bindings, FactTuple factIds,
                                const Fact* pinned, std::size_t pinnedPos,
                                std::vector<Activation>& out) const {
  if (position == rule.lhs.size()) {
    for (const ConditionTest& test : rule.tests) {
      if (!test.eval(bindings)) return;
    }
    Activation act;
    act.rule = &rule;
    for (const FactId id : factIds) act.recency = std::max(act.recency, id);
    act.factIds = std::move(factIds);
    act.bindings = std::move(bindings);
    out.push_back(std::move(act));
    return;
  }

  const Pattern& pattern = rule.lhs[position];
  if (pattern.negated) {
    // (not ...): succeeds only if no live fact matches under these bindings.
    bool blocked = false;
    facts_.forEach(pattern.templateName, [&](const Fact& fact) {
      Bindings scratch = bindings;
      if (matchPattern(pattern, fact, scratch)) {
        blocked = true;
        return false;
      }
      return true;
    });
    if (blocked) return;
    factIds.push_back(kNoFact);
    matchScan(rule, position + 1, std::move(bindings), std::move(factIds),
              pinned, pinnedPos, out);
    return;
  }

  if (pinned != nullptr && position == pinnedPos) {
    Bindings scratch = bindings;
    if (!matchPattern(pattern, *pinned, scratch)) return;
    factIds.push_back(pinned->id);
    matchScan(rule, position + 1, std::move(scratch), std::move(factIds),
              pinned, pinnedPos, out);
    return;
  }

  facts_.forEach(pattern.templateName, [&](const Fact& fact) {
    Bindings scratch = bindings;
    if (!matchPattern(pattern, fact, scratch)) return true;
    FactTuple ids = factIds;
    ids.push_back(fact.id);
    matchScan(rule, position + 1, std::move(scratch), std::move(ids), pinned,
              pinnedPos, out);
    return true;
  });
}

void InferenceEngine::seedMatch(const Rule& rule, const Fact& fact) {
  // Any activation created by this delta must hold the new fact at one of
  // the rule's positive positions; pin each candidate position in turn.
  for (std::size_t i = 0; i < rule.lhs.size(); ++i) {
    const Pattern& pattern = rule.lhs[i];
    if (pattern.negated || pattern.templateName != fact.templateName) continue;
    Bindings alpha;
    if (!matchPattern(pattern, fact, alpha)) continue;  // cheap alpha reject
    std::vector<Activation> found;
    matchScan(rule, 0, Bindings{}, FactTuple{}, &fact, i, found);
    for (Activation& act : found) insertActivation(std::move(act));
  }
}

void InferenceEngine::recomputeRule(const Rule& rule) {
  removeAgendaForRule(&rule);
  std::vector<Activation> found;
  matchScan(rule, 0, Bindings{}, FactTuple{}, nullptr, 0, found);
  for (Activation& act : found) insertActivation(std::move(act));
}

void InferenceEngine::insertActivation(Activation act) {
  const auto firedIt = firedByRule_.find(act.rule->name);
  if (firedIt != firedByRule_.end() &&
      firedIt->second.contains(act.factIds)) {
    return;  // refraction: this tuple already fired
  }
  TupleSet& tuples = agendaTuples_[act.rule];
  if (!tuples.insert(act.factIds).second) return;  // already pending
  for (const FactId id : act.factIds) {
    if (id != kNoFact) agendaByFact_[id].push_back({act.rule, act.factIds});
  }
  agenda_.insert(std::move(act));
}

void InferenceEngine::eraseAgendaEntry(const Rule* rule,
                                       const FactTuple& tuple) {
  // agendaTuples_ is consulted before touching *rule: stale back references
  // (fired activations, replaced rules) drop out here without a deref.
  const auto it = agendaTuples_.find(rule);
  if (it == agendaTuples_.end() || it->second.erase(tuple) == 0) return;
  if (it->second.empty()) agendaTuples_.erase(it);
  Activation key;
  key.rule = rule;
  for (const FactId id : tuple) key.recency = std::max(key.recency, id);
  key.factIds = tuple;
  agenda_.erase(key);
}

void InferenceEngine::removeAgendaForRule(const Rule* rule) {
  const auto it = agendaTuples_.find(rule);
  if (it == agendaTuples_.end()) return;
  const TupleSet tuples = std::move(it->second);
  agendaTuples_.erase(it);
  for (const FactTuple& tuple : tuples) {
    Activation key;
    key.rule = rule;
    for (const FactId id : tuple) key.recency = std::max(key.recency, id);
    key.factIds = tuple;
    agenda_.erase(key);
  }
}

void InferenceEngine::recordFired(const Activation& act) {
  firedByRule_[act.rule->name].insert(act.factIds);
  for (const FactId id : act.factIds) {
    if (id != kNoFact) {
      firedByFact_[id].push_back({act.rule->name, act.factIds});
    }
  }
}

void InferenceEngine::onDelta(const FactDelta& delta) {
  const Fact& fact = *delta.fact;

  if (delta.kind == FactDelta::Kind::kAssert) {
    // A fact matching a rule's negated pattern can invalidate existing
    // activations; re-derive those rules wholesale. Rules that see the
    // template only positively get the cheap seeded join.
    const auto negIt = negatedByTemplate_.find(fact.templateName);
    if (negIt != negatedByTemplate_.end()) {
      for (const Rule* rule : negIt->second) recomputeRule(*rule);
    }
    const auto posIt = positiveByTemplate_.find(fact.templateName);
    if (posIt != positiveByTemplate_.end()) {
      for (const Rule* rule : posIt->second) {
        bool alsoNegated = false;
        for (const Pattern& pattern : rule->lhs) {
          if (pattern.negated && pattern.templateName == fact.templateName) {
            alsoNegated = true;
            break;
          }
        }
        if (!alsoNegated) seedMatch(*rule, fact);
      }
    }
    return;
  }

  // Retract: drop pending activations that reference the dead fact.
  const auto byFactIt = agendaByFact_.find(fact.id);
  if (byFactIt != agendaByFact_.end()) {
    const auto entries = std::move(byFactIt->second);
    agendaByFact_.erase(byFactIt);
    for (const auto& [rule, tuple] : entries) eraseAgendaEntry(rule, tuple);
  }
  // Refraction GC: fact ids are never reused, so fired tuples holding the
  // dead fact can never be re-derived — drop their marks.
  const auto firedIt = firedByFact_.find(fact.id);
  if (firedIt != firedByFact_.end()) {
    for (const auto& [ruleName, tuple] : firedIt->second) {
      const auto ruleIt = firedByRule_.find(ruleName);
      if (ruleIt != firedByRule_.end()) {
        ruleIt->second.erase(tuple);
        if (ruleIt->second.empty()) firedByRule_.erase(ruleIt);
      }
    }
    firedByFact_.erase(firedIt);
  }
  // A retract can satisfy negated patterns; re-derive those rules.
  const auto negIt = negatedByTemplate_.find(fact.templateName);
  if (negIt != negatedByTemplate_.end()) {
    for (const Rule* rule : negIt->second) recomputeRule(*rule);
  }
}

std::size_t InferenceEngine::run(std::size_t maxFirings) {
  std::size_t fired = 0;
  while (fired < maxFirings && !agenda_.empty()) {
    // The ordered agenda keeps the best activation (salience, recency, rule
    // name) at begin(); firing may assert/retract facts, whose deltas update
    // the agenda in place before the next pop.
    const auto best = agenda_.begin();
    Activation act = *best;
    agenda_.erase(best);
    const auto tuplesIt = agendaTuples_.find(act.rule);
    if (tuplesIt != agendaTuples_.end()) {
      tuplesIt->second.erase(act.factIds);
      if (tuplesIt->second.empty()) agendaTuples_.erase(tuplesIt);
    }
    recordFired(act);
    if (!preFire_) {
      fire(act);
    } else if (preFire_(*act.rule, act.factIds) && postFire_) {
      const auto start = std::chrono::steady_clock::now();
      fire(act);
      const auto elapsed = std::chrono::steady_clock::now() - start;
      postFire_(*act.rule, act.factIds,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        elapsed)
                        .count()));
    } else {
      fire(act);
      if (postFire_) postFire_(*act.rule, act.factIds, 0);
    }
    ++fired;
    ++totalFirings_;
  }
  return fired;
}

void InferenceEngine::fire(const Activation& activation) {
  for (const RuleAction& action : activation.rule->rhs) {
    switch (action.kind) {
      case RuleAction::Kind::kAssert: {
        SlotMap slots;
        bool ok = true;
        for (const auto& [slot, operand] : action.slots) {
          const Value* v = operand.resolve(activation.bindings);
          if (v == nullptr) {
            reportError("rule " + activation.rule->name +
                        ": unbound variable in assert slot " + slot);
            ok = false;
            break;
          }
          slots.emplace(slot, *v);
        }
        if (ok) facts_.assertFact(action.templateName, std::move(slots));
        break;
      }
      case RuleAction::Kind::kRetract: {
        const int idx = action.patternIndex - 1;
        if (idx < 0 || idx >= static_cast<int>(activation.factIds.size()) ||
            activation.factIds[static_cast<std::size_t>(idx)] == kNoFact) {
          reportError("rule " + activation.rule->name +
                      ": bad retract index " + std::to_string(action.patternIndex));
          break;
        }
        facts_.retract(activation.factIds[static_cast<std::size_t>(idx)]);
        break;
      }
      case RuleAction::Kind::kModify: {
        const int idx = action.patternIndex - 1;
        if (idx < 0 || idx >= static_cast<int>(activation.factIds.size()) ||
            activation.factIds[static_cast<std::size_t>(idx)] == kNoFact) {
          reportError("rule " + activation.rule->name +
                      ": bad modify index " + std::to_string(action.patternIndex));
          break;
        }
        SlotMap changes;
        bool ok = true;
        for (const auto& [slot, operand] : action.slots) {
          const Value* v = operand.resolve(activation.bindings);
          if (v == nullptr) {
            reportError("rule " + activation.rule->name +
                        ": unbound variable in modify slot " + slot);
            ok = false;
            break;
          }
          changes.emplace(slot, *v);
        }
        if (ok) {
          facts_.modify(activation.factIds[static_cast<std::size_t>(idx)],
                        changes);
        }
        break;
      }
      case RuleAction::Kind::kCall: {
        const auto it = functions_.find(action.function);
        if (it == functions_.end()) {
          reportError("rule " + activation.rule->name +
                      ": unknown function " + action.function);
          break;
        }
        std::vector<Value> args;
        bool ok = true;
        for (const Operand& operand : action.args) {
          const Value* v = operand.resolve(activation.bindings);
          if (v == nullptr) {
            reportError("rule " + activation.rule->name +
                        ": unbound variable argument to " + action.function);
            ok = false;
            break;
          }
          args.push_back(*v);
        }
        if (ok) it->second(args);
        break;
      }
    }
  }
}

namespace {

/// Rename a rule-scoped variable so recursive proofs at different depths do
/// not capture each other's bindings.
std::string scopedVar(const std::string& name, int depth) {
  return name + "#d" + std::to_string(depth);
}

Pattern scopePattern(const Pattern& pattern, int depth) {
  Pattern out = pattern;
  for (SlotTest& test : out.tests) {
    if (test.kind == SlotTest::Kind::kVariable) {
      test.variable = scopedVar(test.variable, depth);
    }
  }
  return out;
}

ConditionTest scopeTest(const ConditionTest& test, int depth) {
  ConditionTest out = test;
  if (out.lhs.isVariable) out.lhs.variable = scopedVar(out.lhs.variable, depth);
  if (out.rhs.isVariable) out.rhs.variable = scopedVar(out.rhs.variable, depth);
  return out;
}

}  // namespace

std::optional<Bindings> InferenceEngine::prove(const Pattern& goal,
                                               const Bindings& bindings,
                                               int depth) const {
  if (depth <= 0) return std::nullopt;

  // Base case: a live fact satisfies the goal directly.
  std::optional<Bindings> direct;
  facts_.forEach(goal.templateName, [&](const Fact& fact) {
    Bindings scratch = bindings;
    if (matchPattern(goal, fact, scratch)) {
      direct = std::move(scratch);
      return false;
    }
    return true;
  });
  if (direct.has_value()) return direct;

  // Recursive case: a rule whose RHS asserts a matching fact, provided its
  // body can be proven. Rule variables are renamed per depth level.
  for (const auto& [name, rule] : rules_) {
    (void)name;
    for (const RuleAction& action : rule.rhs) {
      if (action.kind != RuleAction::Kind::kAssert ||
          action.templateName != goal.templateName) {
        continue;
      }
      // Unify the goal's slot tests with the head (the assert's slots).
      Bindings unified = bindings;
      bool ok = true;
      for (const SlotTest& test : goal.tests) {
        const Operand* headOperand = nullptr;
        for (const auto& [slot, operand] : action.slots) {
          if (slot == test.slot) {
            headOperand = &operand;
            break;
          }
        }
        if (headOperand == nullptr) {
          ok = false;  // the head does not provide this slot
          break;
        }
        const std::string headVar =
            headOperand->isVariable ? scopedVar(headOperand->variable, depth)
                                    : std::string{};
        if (test.kind == SlotTest::Kind::kLiteral) {
          if (headOperand->isVariable) {
            const auto it = unified.find(headVar);
            if (it == unified.end()) {
              unified.emplace(headVar, test.literal);
            } else if (!(it->second == test.literal)) {
              ok = false;
            }
          } else if (!(headOperand->literal == test.literal)) {
            ok = false;
          }
        } else {  // goal variable
          const auto goalIt = unified.find(test.variable);
          if (headOperand->isVariable) {
            const auto headIt = unified.find(headVar);
            if (goalIt != unified.end() && headIt != unified.end()) {
              if (!(goalIt->second == headIt->second)) ok = false;
            } else if (goalIt != unified.end()) {
              unified.emplace(headVar, goalIt->second);
            } else if (headIt != unified.end()) {
              unified.emplace(test.variable, headIt->second);
            }
            // Both unbound: linked through the body proof below; the goal
            // variable is resolved after the body binds the head variable.
          } else if (goalIt != unified.end()) {
            if (!(goalIt->second == headOperand->literal)) ok = false;
          } else {
            unified.emplace(test.variable, headOperand->literal);
          }
        }
        if (!ok) break;
      }
      if (!ok) continue;

      // Prove the rule body under the unified bindings.
      std::vector<Pattern> body;
      body.reserve(rule.lhs.size());
      for (const Pattern& pattern : rule.lhs) {
        body.push_back(scopePattern(pattern, depth));
      }
      std::vector<ConditionTest> tests;
      tests.reserve(rule.tests.size());
      for (const ConditionTest& test : rule.tests) {
        tests.push_back(scopeTest(test, depth));
      }
      auto proof = proveAll(body, tests, 0, unified, depth - 1);
      if (!proof.has_value()) continue;

      // Resolve goal variables that were linked to head variables.
      Bindings result = *proof;
      bool resolved = true;
      for (const SlotTest& test : goal.tests) {
        if (test.kind != SlotTest::Kind::kVariable) continue;
        if (result.contains(test.variable)) continue;
        const Operand* headOperand = nullptr;
        for (const auto& [slot, operand] : action.slots) {
          if (slot == test.slot) {
            headOperand = &operand;
            break;
          }
        }
        if (headOperand == nullptr) continue;
        if (headOperand->isVariable) {
          const auto it = result.find(scopedVar(headOperand->variable, depth));
          if (it != result.end()) {
            result.emplace(test.variable, it->second);
          } else {
            resolved = false;
          }
        } else {
          result.emplace(test.variable, headOperand->literal);
        }
      }
      if (resolved) return result;
    }
  }
  return std::nullopt;
}

std::optional<Bindings> InferenceEngine::proveAll(
    const std::vector<Pattern>& goals, const std::vector<ConditionTest>& tests,
    std::size_t index, Bindings bindings, int depth) const {
  if (index == goals.size()) {
    for (const ConditionTest& test : tests) {
      if (!test.eval(bindings)) return std::nullopt;
    }
    return bindings;
  }
  const Pattern& goal = goals[index];
  if (goal.negated) {
    // Negation as failure against working memory (non-recursive, as in the
    // forward engine).
    bool blocked = false;
    facts_.forEach(goal.templateName, [&](const Fact& fact) {
      Bindings scratch = bindings;
      if (matchPattern(goal, fact, scratch)) {
        blocked = true;
        return false;
      }
      return true;
    });
    if (blocked) return std::nullopt;
    return proveAll(goals, tests, index + 1, std::move(bindings), depth);
  }

  // Backtrack over direct fact matches first, then rule-derived proofs.
  std::optional<Bindings> result;
  facts_.forEach(goal.templateName, [&](const Fact& fact) {
    Bindings scratch = bindings;
    if (!matchPattern(goal, fact, scratch)) return true;
    auto rest = proveAll(goals, tests, index + 1, std::move(scratch), depth);
    if (rest.has_value()) {
      result = std::move(rest);
      return false;
    }
    return true;
  });
  if (result.has_value()) return result;
  if (depth > 0) {
    auto derived = prove(goal, bindings, depth);
    if (derived.has_value()) {
      return proveAll(goals, tests, index + 1, std::move(*derived), depth);
    }
  }
  return std::nullopt;
}

std::optional<Bindings> InferenceEngine::query(const Pattern& goal,
                                               int maxDepth) const {
  return prove(goal, Bindings{}, maxDepth);
}

bool InferenceEngine::provable(const std::string& templateName,
                               const SlotMap& slots, int maxDepth) const {
  Pattern goal;
  goal.templateName = templateName;
  for (const auto& [slot, value] : slots) {
    goal.tests.push_back(SlotTest{SlotTest::Kind::kLiteral, slot, value, ""});
  }
  return prove(goal, Bindings{}, maxDepth).has_value();
}

void InferenceEngine::reportError(std::string message) {
  ++actionErrors_;
  if (errorLog_.size() < 256) errorLog_.push_back(std::move(message));
}

}  // namespace softqos::rules
