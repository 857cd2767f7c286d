#include "rules/fact.hpp"

#include <algorithm>
#include <utility>

namespace softqos::rules {

namespace {

inline std::size_t hashCombine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// True when `fact` carries every slot of `slots` with an equal value.
bool hasSlots(const Fact& fact, const SlotMap& slots) {
  for (const auto& [name, value] : slots) {
    const Value* actual = fact.slot(name);
    if (actual == nullptr || !(*actual == value)) return false;
  }
  return true;
}

}  // namespace

std::string Fact::toString() const {
  std::string out = "(" + templateName;
  for (const auto& [name, value] : slots) {
    out += " (" + name + " " + value.toString() + ")";
  }
  out += ")";
  return out;
}

std::size_t FactRepository::contentHash(const std::string& templateName,
                                        const SlotMap& slots) {
  std::size_t h = std::hash<std::string>{}(templateName);
  for (const auto& [name, value] : slots) {  // SlotMap is ordered: stable hash
    h = hashCombine(h, std::hash<std::string>{}(name));
    h = hashCombine(h, value.hash());
  }
  return h;
}

FactId FactRepository::assertFact(const std::string& templateName,
                                  SlotMap slots) {
  const std::size_t hash = contentHash(templateName, slots);
  const auto bucket = byContent_.find(hash);
  if (bucket != byContent_.end()) {
    for (const FactId id : bucket->second) {
      const Fact& fact = live_.at(id);
      if (fact.templateName == templateName && fact.slots == slots) return id;
    }
  }
  const FactId id = nextId_++;
  Fact f;
  f.id = id;
  f.templateName = templateName;
  f.slots = std::move(slots);
  const Fact& stored = live_.emplace(id, std::move(f)).first->second;
  byTemplate_[templateName].emplace(id, &stored);
  byContent_[hash].push_back(id);
  publish(FactDelta::Kind::kAssert, stored);
  return id;
}

bool FactRepository::retract(FactId id) {
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  // Move the fact out so the retract delta can refer to it after the indexes
  // have dropped it.
  Fact gone = std::move(it->second);
  live_.erase(it);

  const auto tmplIt = byTemplate_.find(gone.templateName);
  if (tmplIt != byTemplate_.end()) {
    tmplIt->second.erase(id);
    if (tmplIt->second.empty()) byTemplate_.erase(tmplIt);
  }
  const auto contentIt = byContent_.find(contentHash(gone.templateName, gone.slots));
  if (contentIt != byContent_.end()) {
    auto& ids = contentIt->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) byContent_.erase(contentIt);
  }
  publish(FactDelta::Kind::kRetract, gone);
  return true;
}

FactId FactRepository::modify(FactId id, const SlotMap& changes) {
  const auto it = live_.find(id);
  if (it == live_.end()) return kNoFact;
  SlotMap updated = it->second.slots;
  for (const auto& [slot, value] : changes) updated[slot] = value;
  if (updated == it->second.slots) return id;  // no-op: keep id, no deltas
  const std::string templateName = it->second.templateName;
  retract(id);
  return assertFact(templateName, std::move(updated));
}

std::size_t FactRepository::retractWhere(const std::string& templateName,
                                         const SlotMap& slots) {
  // Collect first: each retract edits the template index being walked.
  std::vector<FactId> ids;
  forEach(templateName, [&](const Fact& fact) {
    if (hasSlots(fact, slots)) ids.push_back(fact.id);
    return true;
  });
  for (const FactId id : ids) retract(id);
  return ids.size();
}

const Fact* FactRepository::find(FactId id) const {
  const auto it = live_.find(id);
  return it == live_.end() ? nullptr : &it->second;
}

std::vector<const Fact*> FactRepository::byTemplate(
    const std::string& templateName) const {
  std::vector<const Fact*> out;
  const auto it = byTemplate_.find(templateName);
  if (it == byTemplate_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [id, fact] : it->second) {
    (void)id;
    out.push_back(fact);
  }
  return out;
}

void FactRepository::forEach(
    const std::string& templateName,
    const std::function<bool(const Fact&)>& visit) const {
  const auto it = byTemplate_.find(templateName);
  if (it == byTemplate_.end()) return;
  for (const auto& [id, fact] : it->second) {
    (void)id;
    if (!visit(*fact)) return;
  }
}

const Fact* FactRepository::findWhere(const std::string& templateName,
                                      const SlotMap& slots) const {
  const Fact* found = nullptr;
  forEach(templateName, [&](const Fact& fact) {
    if (!hasSlots(fact, slots)) return true;
    found = &fact;
    return false;
  });
  return found;
}

void FactRepository::clear() {
  std::vector<FactId> ids;
  ids.reserve(live_.size());
  for (const auto& [id, fact] : live_) {
    (void)fact;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const FactId id : ids) retract(id);
}

void FactRepository::publish(FactDelta::Kind kind, const Fact& fact) {
  if (!deltaListener_) return;
  FactDelta delta;
  delta.kind = kind;
  delta.fact = &fact;
  deltaListener_(delta);
}

}  // namespace softqos::rules
