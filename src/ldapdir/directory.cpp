#include "ldapdir/directory.hpp"

#include <utility>

namespace softqos::ldapdir {

std::string ldapResultName(LdapResult r) {
  switch (r) {
    case LdapResult::kSuccess: return "success";
    case LdapResult::kNoSuchObject: return "noSuchObject";
    case LdapResult::kEntryAlreadyExists: return "entryAlreadyExists";
    case LdapResult::kNoSuchParent: return "noSuchParent";
    case LdapResult::kSchemaViolation: return "schemaViolation";
    case LdapResult::kNotAllowedOnNonLeaf: return "notAllowedOnNonLeaf";
  }
  return "?";
}

Directory::Directory(Dn suffix, Schema schema, bool enforceSchema)
    : suffix_(std::move(suffix)),
      schema_(std::move(schema)),
      enforceSchema_(enforceSchema) {}

bool Directory::parentExists(const Dn& dn) const {
  const Dn parent = dn.parent();
  if (parent.empty()) return true;  // top-level entry
  return entries_.contains(parent.normalized());
}

bool Directory::hasChildren(const Dn& dn) const {
  // Every entry but the suffix and top-level ones has its parent present, so
  // a descendant implies a child, except for a suffix added parentless.
  return children_.contains(dn.normalized()) ||
         (suffix_.isDescendantOf(dn) && lookup(suffix_) != nullptr);
}

LdapResult Directory::add(Entry entry) {
  const std::string key = entry.dn().normalized();
  if (entry.dn().empty()) return LdapResult::kNoSuchObject;
  if (entries_.contains(key)) return LdapResult::kEntryAlreadyExists;
  if (!(entry.dn() == suffix_) && !parentExists(entry.dn())) {
    return LdapResult::kNoSuchParent;
  }
  if (enforceSchema_) {
    lastProblems_ = schema_.validate(entry);
    if (!lastProblems_.empty()) return LdapResult::kSchemaViolation;
  }
  const Dn dn = entry.dn();
  const auto it = entries_.emplace(key, std::move(entry)).first;
  children_[dn.parent().normalized()].emplace(it->first, &it->second);
  notify(dn);
  return LdapResult::kSuccess;
}

LdapResult Directory::remove(const Dn& dn) {
  const auto it = entries_.find(dn.normalized());
  if (it == entries_.end()) return LdapResult::kNoSuchObject;
  if (hasChildren(dn)) return LdapResult::kNotAllowedOnNonLeaf;
  const auto siblings = children_.find(it->second.dn().parent().normalized());
  siblings->second.erase(it->first);
  if (siblings->second.empty()) children_.erase(siblings);
  entries_.erase(it);
  notify(dn);
  return LdapResult::kSuccess;
}

LdapResult Directory::modify(const Dn& dn,
                             const std::vector<Modification>& mods) {
  const auto it = entries_.find(dn.normalized());
  if (it == entries_.end()) return LdapResult::kNoSuchObject;
  Entry updated = it->second;
  for (const Modification& mod : mods) {
    switch (mod.op) {
      case Modification::Op::kAdd:
        for (const std::string& v : mod.values) updated.addValue(mod.attr, v);
        break;
      case Modification::Op::kReplace:
        updated.setValues(mod.attr, mod.values);
        break;
      case Modification::Op::kDelete:
        if (mod.values.empty()) {
          updated.removeAttribute(mod.attr);
        } else {
          for (const std::string& v : mod.values) {
            updated.removeValue(mod.attr, v);
          }
        }
        break;
    }
  }
  if (enforceSchema_) {
    lastProblems_ = schema_.validate(updated);
    if (!lastProblems_.empty()) return LdapResult::kSchemaViolation;
  }
  it->second = std::move(updated);
  notify(dn);
  return LdapResult::kSuccess;
}

const Entry* Directory::lookup(const Dn& dn) const {
  const auto it = entries_.find(dn.normalized());
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<const Entry*> Directory::search(const Dn& base, SearchScope scope,
                                            const Filter& filter) const {
  std::vector<const Entry*> out;
  const auto keep = [&](const Entry& entry) {
    if (filter.matches(entry)) out.push_back(&entry);
  };
  switch (scope) {
    case SearchScope::kBase:
      if (const Entry* entry = lookup(base)) keep(*entry);
      break;
    case SearchScope::kOneLevel:
      if (const auto it = children_.find(base.normalized());
          it != children_.end()) {
        for (const auto& [key, entry] : it->second) {
          (void)key;
          keep(*entry);
        }
      }
      break;
    case SearchScope::kSubtree:
      for (const auto& [key, entry] : entries_) {
        (void)key;
        if (entry.dn() == base || entry.dn().isDescendantOf(base)) keep(entry);
      }
      break;
  }
  return out;
}

void Directory::addChangeListener(ChangeListener listener) {
  listeners_.push_back(std::move(listener));
}

void Directory::notify(const Dn& dn) {
  for (const auto& listener : listeners_) listener(dn);
}

}  // namespace softqos::ldapdir
