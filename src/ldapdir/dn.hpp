// Distinguished names: "cn=fps-policy,ou=policies,o=uwo".
//
// Attribute types are case-insensitive (normalized to lower case); values
// keep their case but compare case-insensitively, as LDAP DNs do.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace softqos::ldapdir {

/// One relative distinguished name component (attr=value).
struct Rdn {
  std::string attr;   // normalized lower-case
  std::string value;  // original case preserved

  bool operator==(const Rdn& other) const;
};

class Dn {
 public:
  Dn() = default;

  /// Parse "cn=foo, ou=bar, o=baz" (whitespace around components tolerated;
  /// `\,` escapes a comma inside a value). Throws std::invalid_argument on
  /// malformed input. An empty string parses to the empty DN.
  static Dn parse(const std::string& text);

  /// Construct from components, leftmost = leaf.
  static Dn fromRdns(std::vector<Rdn> rdns);

  [[nodiscard]] bool empty() const { return rdns_.empty(); }
  [[nodiscard]] std::size_t depth() const { return rdns_.size(); }
  [[nodiscard]] const std::vector<Rdn>& rdns() const { return rdns_; }

  /// The leaf component. Precondition: !empty().
  [[nodiscard]] const Rdn& leaf() const { return rdns_.front(); }

  [[nodiscard]] Dn parent() const;
  [[nodiscard]] Dn child(const std::string& attr, const std::string& value) const;

  /// True when this DN is strictly below `ancestor`.
  [[nodiscard]] bool isDescendantOf(const Dn& ancestor) const;

  [[nodiscard]] std::string toString() const;

  /// Canonical lower-cased form (map key / comparisons).
  [[nodiscard]] std::string normalized() const;

  bool operator==(const Dn& other) const;
  bool operator!=(const Dn& other) const { return !(*this == other); }
  bool operator<(const Dn& other) const;

 private:
  std::vector<Rdn> rdns_;  // leftmost = leaf
};

/// Lower-case ASCII helpers shared by the directory modules.
std::string toLowerAscii(std::string s);
/// toLowerAscii(a) == toLowerAscii(b), without building either.
bool equalsIgnoreCaseAscii(std::string_view a, std::string_view b);

}  // namespace softqos::ldapdir
