// Forward-chaining inference engine (a from-scratch CLIPS workalike).
//
// The QoS Host Manager and QoS Domain Manager each embed one engine; their
// diagnosis logic is data (rules added/removed at run time — the paper's
// "dynamic rule distribution"), and their effects on the system happen
// through registered C++ functions invoked by rule RHS (call ...) actions.
//
// Matching is incremental (Rete-inspired): the engine subscribes to the
// working-memory delta stream and maintains a persistent agenda. An
// assert/retract re-matches only rules whose alpha profile (the set of
// template names in their LHS) intersects the delta — and for positive
// patterns only the delta fact is joined against working memory, instead of
// rebuilding every activation from scratch. Refraction is tracked per rule
// as hashed fact tuples, and the agenda is an ordered set (salience,
// recency, rule name) so run() pops the best activation in O(log n).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rules/fact.hpp"
#include "rules/pattern.hpp"

namespace softqos::rules {

/// One RHS action of a rule.
struct RuleAction {
  enum class Kind { kAssert, kRetract, kModify, kCall };
  Kind kind = Kind::kCall;

  // kAssert: template + slots; kModify: slots to change.
  std::string templateName;
  std::vector<std::pair<std::string, Operand>> slots;

  // kRetract / kModify: 1-based index of the LHS pattern whose matched fact
  // is targeted (negated patterns cannot be targeted).
  int patternIndex = -1;

  // kCall: registered function + arguments.
  std::string function;
  std::vector<Operand> args;
};

struct Rule {
  std::string name;
  int salience = 0;
  std::vector<Pattern> lhs;
  std::vector<ConditionTest> tests;
  std::vector<RuleAction> rhs;
};

class InferenceEngine {
 public:
  using EngineFunction = std::function<void(const std::vector<Value>& args)>;

  explicit InferenceEngine(std::string name = "engine");

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  FactRepository& facts() { return facts_; }
  const FactRepository& facts() const { return facts_; }

  /// Add (or replace, by name) a rule. Replacing clears its refraction marks
  /// so the new definition can fire on existing facts.
  void addRule(Rule rule);
  bool removeRule(const std::string& name);
  [[nodiscard]] bool hasRule(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> ruleNames() const;
  [[nodiscard]] std::size_t ruleCount() const { return rules_.size(); }

  void registerFunction(const std::string& name, EngineFunction fn);

  /// Observability hooks around every rule firing. The pre-hook sees the
  /// rule and its matched fact tuple (kNoFact at negated positions) and
  /// returns whether this firing should be wall-clock timed; the post-hook
  /// receives the elapsed host nanoseconds (0 when untimed). With no hooks
  /// installed (the default) a firing costs one extra branch and no clock
  /// reads.
  using PreFireHook =
      std::function<bool(const Rule& rule, const std::vector<FactId>& matched)>;
  using PostFireHook = std::function<void(
      const Rule& rule, const std::vector<FactId>& matched,
      std::uint64_t wallNanos)>;
  void setFireHooks(PreFireHook pre, PostFireHook post) {
    preFire_ = std::move(pre);
    postFire_ = std::move(post);
  }

  /// Forward-chain until quiescent or `maxFirings` reached; returns firings.
  /// Refraction: an activation (rule x fact tuple) fires at most once for
  /// the lifetime of that fact tuple. The agenda is maintained incrementally
  /// as facts change, so a quiescent run is O(1).
  std::size_t run(std::size_t maxFirings = 10000);

  /// Activations currently eligible to fire (pending, non-refracted).
  [[nodiscard]] std::size_t agendaSize() const { return agenda_.size(); }

  /// Backward-chaining query (the paper's Section 5.3 names backward
  /// chaining as an inferencing alternative; the prototype used forward
  /// chaining). A goal is proven if a live fact matches it, or if some rule
  /// ASSERTS a matching fact and all of that rule's positive patterns and
  /// tests can be proven recursively under the accumulated bindings.
  /// Negated patterns use negation-as-failure against working memory only.
  /// Nothing is asserted; returns the bindings of the first proof found.
  [[nodiscard]] std::optional<Bindings> query(const Pattern& goal,
                                              int maxDepth = 8) const;

  /// Convenience: is a ground fact derivable?
  [[nodiscard]] bool provable(const std::string& templateName,
                              const SlotMap& slots, int maxDepth = 8) const;

  [[nodiscard]] std::uint64_t totalFirings() const { return totalFirings_; }

  /// RHS errors (unknown function, unbound variable, bad retract index).
  [[nodiscard]] std::uint64_t actionErrors() const { return actionErrors_; }
  [[nodiscard]] const std::vector<std::string>& errorLog() const {
    return errorLog_;
  }

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  /// The fact ids an activation matched, one per LHS position (kNoFact for
  /// negated positions). Together with the rule this is the refraction key.
  using FactTuple = std::vector<FactId>;

  struct TupleHash {
    std::size_t operator()(const FactTuple& tuple) const {
      std::size_t h = 0xcbf29ce484222325ULL;
      for (const FactId id : tuple) {
        h ^= id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return h;
    }
  };
  using TupleSet = std::unordered_set<FactTuple, TupleHash>;

  struct Activation {
    const Rule* rule = nullptr;
    FactTuple factIds;   // per LHS position (kNoFact for negated)
    Bindings bindings;
    FactId recency = 0;  // newest positive fact involved
  };

  /// Conflict resolution: salience desc, recency desc, rule name asc; the
  /// fact tuple makes the order total (and the set agenda duplicate-free,
  /// since salience/recency/bindings are functions of rule + tuple).
  struct AgendaOrder {
    bool operator()(const Activation& a, const Activation& b) const {
      if (a.rule->salience != b.rule->salience) {
        return a.rule->salience > b.rule->salience;
      }
      if (a.recency != b.recency) return a.recency > b.recency;
      if (a.rule->name != b.rule->name) return a.rule->name < b.rule->name;
      return a.factIds < b.factIds;
    }
  };

  /// Enumerate matches of `rule` from `position` on. When `pinned` is given,
  /// the positive pattern at `pinnedPos` matches only that fact (delta
  /// seeding); otherwise every position ranges over its template's facts.
  void matchScan(const Rule& rule, std::size_t position, Bindings bindings,
                 FactTuple factIds, const Fact* pinned, std::size_t pinnedPos,
                 std::vector<Activation>& out) const;

  void onDelta(const FactDelta& delta);
  void seedMatch(const Rule& rule, const Fact& fact);
  void recomputeRule(const Rule& rule);
  void insertActivation(Activation act);
  void eraseAgendaEntry(const Rule* rule, const FactTuple& tuple);
  void removeAgendaForRule(const Rule* rule);
  void recordFired(const Activation& act);
  void indexRule(const Rule& rule);
  void unindexRule(const Rule& rule);

  std::optional<Bindings> prove(const Pattern& goal, const Bindings& bindings,
                                int depth) const;
  std::optional<Bindings> proveAll(const std::vector<Pattern>& goals,
                                   const std::vector<ConditionTest>& tests,
                                   std::size_t index, Bindings bindings,
                                   int depth) const;
  void fire(const Activation& activation);
  void reportError(std::string message);

  std::string name_;
  FactRepository facts_;
  PreFireHook preFire_;
  PostFireHook postFire_;
  std::map<std::string, Rule> rules_;  // node-stable: agenda holds Rule*
  std::map<std::string, EngineFunction> functions_;

  // Alpha profile: template name -> rules with a positive / negated pattern
  // on it. A delta touches only the rules these indexes name.
  std::unordered_map<std::string, std::vector<const Rule*>> positiveByTemplate_;
  std::unordered_map<std::string, std::vector<const Rule*>> negatedByTemplate_;

  // The persistent agenda plus lookup mirrors: per-rule live tuples (dedup +
  // rule removal) and per-fact back references (retract invalidation; may
  // hold stale entries, validated against agendaTuples_ before use).
  std::set<Activation, AgendaOrder> agenda_;
  std::unordered_map<const Rule*, TupleSet> agendaTuples_;
  std::unordered_map<FactId, std::vector<std::pair<const Rule*, FactTuple>>>
      agendaByFact_;

  // Refraction: fired tuples per rule (O(1) wipe on rule replacement) with
  // per-fact back references so dead facts' marks are garbage collected.
  std::unordered_map<std::string, TupleSet> firedByRule_;
  std::unordered_map<FactId, std::vector<std::pair<std::string, FactTuple>>>
      firedByFact_;

  std::uint64_t totalFirings_ = 0;
  std::uint64_t actionErrors_ = 0;
  std::vector<std::string> errorLog_;
};

}  // namespace softqos::rules
