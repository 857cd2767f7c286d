// Template facts and the fact repository (the engine's working memory).
//
// Working memory has three indexes: facts are reachable by id, by template
// name (ordered by id, i.e. by recency), and by content hash (duplicate
// suppression). Every search walks one template's facts. Mutations publish
// per-fact deltas so the inference engine can maintain its agenda
// incrementally instead of re-matching the whole rule base.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "rules/value.hpp"

namespace softqos::rules {

using FactId = std::uint64_t;
inline constexpr FactId kNoFact = 0;

/// Named slots of a fact, e.g. {pid: 12, attr: frame_rate}.
using SlotMap = std::map<std::string, Value>;

struct Fact {
  FactId id = kNoFact;  // also the recency stamp (monotonically increasing)
  std::string templateName;
  SlotMap slots;

  [[nodiscard]] const Value* slot(const std::string& name) const {
    const auto it = slots.find(name);
    return it == slots.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::string toString() const;
};

/// One working-memory change. `fact` is valid only for the duration of the
/// listener callback (for retracts it refers to the already-removed fact).
struct FactDelta {
  enum class Kind { kAssert, kRetract };
  Kind kind = Kind::kAssert;
  const Fact* fact = nullptr;
};

/// Working memory: assert/retract/modify with duplicate suppression, lookup
/// by template, and a delta stream (the engine subscribes to it to maintain
/// its agenda incrementally).
class FactRepository {
 public:
  using DeltaListener = std::function<void(const FactDelta&)>;

  FactRepository() = default;
  // The indexes hold pointers into live_; copying would alias another
  // repository's storage.
  FactRepository(const FactRepository&) = delete;
  FactRepository& operator=(const FactRepository&) = delete;

  /// Assert a fact. Duplicate of a live fact (same template + slots) is
  /// suppressed, returning the existing id (CLIPS semantics).
  FactId assertFact(const std::string& templateName, SlotMap slots);

  /// Retract by id. Returns false when the id is unknown or already gone.
  bool retract(FactId id);

  /// Retract + re-assert with changed slots; returns the new fact id, or
  /// kNoFact if `id` is unknown. A modify that leaves every slot unchanged
  /// is a no-op: the fact keeps its id and no delta is published (so rules
  /// that already fired on it do not re-activate).
  FactId modify(FactId id, const SlotMap& changes);

  /// Retract every fact of a template that carries all the given slot
  /// values (the findWhere match; empty `slots` matches every fact), in id
  /// order. Returns how many went.
  std::size_t retractWhere(const std::string& templateName,
                           const SlotMap& slots);

  [[nodiscard]] const Fact* find(FactId id) const;
  [[nodiscard]] std::vector<const Fact*> byTemplate(
      const std::string& templateName) const;
  [[nodiscard]] std::size_t size() const { return live_.size(); }

  /// Visit every live fact of a template in recency (id) order, without
  /// building a temporary vector. The visitor returns false to stop early.
  void forEach(const std::string& templateName,
               const std::function<bool(const Fact&)>& visit) const;

  /// Oldest live fact of a template carrying all the given slot values
  /// (queries from manager code); nullptr if none.
  [[nodiscard]] const Fact* findWhere(const std::string& templateName,
                                      const SlotMap& slots) const;

  /// Per-fact delta stream; fires once per asserted/retracted fact, after
  /// all indexes reflect the change (a modify publishes retract + assert).
  void setDeltaListener(DeltaListener listener) {
    deltaListener_ = std::move(listener);
  }

  void clear();

 private:
  void publish(FactDelta::Kind kind, const Fact& fact);

  static std::size_t contentHash(const std::string& templateName,
                                 const SlotMap& slots);

  std::unordered_map<FactId, Fact> live_;
  // Template index: id-ordered so iteration preserves assertion order.
  std::unordered_map<std::string, std::map<FactId, const Fact*>> byTemplate_;
  // Duplicate-suppression index: content hash -> candidate ids.
  std::unordered_map<std::size_t, std::vector<FactId>> byContent_;
  FactId nextId_ = 1;
  DeltaListener deltaListener_;
};

}  // namespace softqos::rules
