// The directory information tree: add/delete/modify/search with scopes and
// filters — the Repository Service's storage engine.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ldapdir/entry.hpp"
#include "ldapdir/filter.hpp"
#include "ldapdir/schema.hpp"

namespace softqos::ldapdir {

enum class LdapResult {
  kSuccess,
  kNoSuchObject,
  kEntryAlreadyExists,
  kNoSuchParent,
  kSchemaViolation,
  kNotAllowedOnNonLeaf,
};

std::string ldapResultName(LdapResult r);

enum class SearchScope { kBase, kOneLevel, kSubtree };

struct Modification {
  enum class Op { kAdd, kReplace, kDelete };
  Op op = Op::kReplace;
  std::string attr;
  std::vector<std::string> values;  // empty for delete-whole-attribute
};

class Directory {
 public:
  /// `suffix` is the naming context root entries may be created under
  /// without a parent (e.g. "o=uwo"). When `enforceSchema` is set, adds and
  /// modifies must validate against `schema`.
  explicit Directory(Dn suffix = Dn::parse("o=uwo"), Schema schema = Schema{},
                     bool enforceSchema = false);

  // The child index points into entries_.
  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  LdapResult add(Entry entry);
  LdapResult remove(const Dn& dn);  // leaf entries only
  LdapResult modify(const Dn& dn, const std::vector<Modification>& mods);

  [[nodiscard]] const Entry* lookup(const Dn& dn) const;

  [[nodiscard]] std::vector<const Entry*> search(const Dn& base,
                                                 SearchScope scope,
                                                 const Filter& filter) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const Dn& suffix() const { return suffix_; }
  [[nodiscard]] const Schema& schema() const { return schema_; }

  /// Last schema problems from a kSchemaViolation result (diagnostics).
  [[nodiscard]] const std::vector<std::string>& lastProblems() const {
    return lastProblems_;
  }

  /// Change notification (the Policy Agent subscribes to re-push policies).
  using ChangeListener = std::function<void(const Dn& dn)>;
  void addChangeListener(ChangeListener listener);

 private:
  [[nodiscard]] bool parentExists(const Dn& dn) const;
  [[nodiscard]] bool hasChildren(const Dn& dn) const;
  void notify(const Dn& dn);

  Dn suffix_;
  Schema schema_;
  bool enforceSchema_;
  std::map<std::string, Entry> entries_;  // keyed by normalized DN
  /// Each entry under its parent's normalized DN (the parent need not
  /// exist), keyed by the entry's own key in entries_, so one-level results
  /// keep entries_ order.
  std::map<std::string, std::map<std::string_view, const Entry*>> children_;
  std::vector<ChangeListener> listeners_;
  std::vector<std::string> lastProblems_;
};

}  // namespace softqos::ldapdir
