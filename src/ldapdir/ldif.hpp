// LDIF: the interchange format the admin tool emits ("This gets translated
// into an LDIF file which can be easily uploaded into LDAP", Section 7).
//
// Supported records: plain add records, and changetype add / delete / modify
// (with add:/replace:/delete: blocks separated by "-").
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "ldapdir/directory.hpp"
#include "ldapdir/entry.hpp"

namespace softqos::ldapdir {

class LdifParseError : public std::runtime_error {
 public:
  explicit LdifParseError(const std::string& message)
      : std::runtime_error(message) {}
};

struct LdifRecord {
  enum class Change { kAdd, kDelete, kModify };
  Change change = Change::kAdd;
  Entry entry;                      // kAdd: full entry; others: dn only
  std::vector<Modification> mods;   // kModify
};

/// Parse LDIF text into records. Throws LdifParseError on malformed input.
std::vector<LdifRecord> parseLdif(const std::string& text);

/// Serialize one entry as an LDIF add record (with an explicit
/// "changetype: add" line only when the entry has a changetype attribute).
std::string toLdif(const Entry& entry);

/// Serialize a whole directory subtree (suffix first, parents before
/// children) as LDIF add records.
std::string toLdif(const Directory& directory);

struct LdifApplyStats {
  std::size_t added = 0;
  std::size_t deleted = 0;
  std::size_t modified = 0;
  std::vector<std::string> failures;  // "dn: resultName"
};

/// Apply LDIF records to a directory; failures are collected, not thrown.
LdifApplyStats applyLdif(Directory& directory, const std::string& text);

}  // namespace softqos::ldapdir
