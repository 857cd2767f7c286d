#include "ldapdir/ldif.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/text.hpp"

namespace softqos::ldapdir {

namespace {

/// Split LDIF into records (blank-line separated), folding continuation
/// lines (leading space) and dropping '#' comments. Trailing whitespace,
/// a CRLF file's '\r' included, is not part of a line.
std::vector<std::vector<std::string>> recordLines(const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> current;
  for (const std::string_view raw : sim::split(text, '\n')) {
    const std::string_view line = sim::trimEnd(raw);
    if (!line.empty() && line[0] == '#') continue;
    if (line.empty()) {
      if (!current.empty()) {
        records.push_back(std::move(current));
        current.clear();
      }
      continue;
    }
    if (line[0] == ' ' && !current.empty()) {
      current.back() += line.substr(1);  // folded continuation
      continue;
    }
    current.emplace_back(line);
  }
  if (!current.empty()) records.push_back(std::move(current));
  return records;
}

std::pair<std::string, std::string> splitAttrLine(const std::string& line) {
  const std::size_t colon = line.find(':');
  if (colon == std::string::npos) {
    throw LdifParseError("malformed LDIF line: " + line);
  }
  return {line.substr(0, colon),
          std::string(sim::trim(std::string_view(line).substr(colon + 1)))};
}

LdifRecord parseRecord(const std::vector<std::string>& lines) {
  auto [dnAttr, dnValue] = splitAttrLine(lines.at(0));
  if (toLowerAscii(dnAttr) != "dn") {
    throw LdifParseError("record must start with dn:, got: " + lines.at(0));
  }
  LdifRecord record;
  try {
    record.entry.setDn(Dn::parse(dnValue));
  } catch (const std::invalid_argument& e) {
    throw LdifParseError(std::string("bad dn: ") + e.what());
  }

  std::size_t i = 1;
  LdifRecord::Change change = LdifRecord::Change::kAdd;
  if (i < lines.size()) {
    auto [attr, value] = splitAttrLine(lines[i]);
    if (toLowerAscii(attr) == "changetype") {
      const std::string kind = toLowerAscii(value);
      if (kind == "add") {
        change = LdifRecord::Change::kAdd;
      } else if (kind == "delete") {
        change = LdifRecord::Change::kDelete;
      } else if (kind == "modify") {
        change = LdifRecord::Change::kModify;
      } else {
        throw LdifParseError("unsupported changetype: " + value);
      }
      ++i;
    }
  }
  record.change = change;

  if (change == LdifRecord::Change::kAdd) {
    for (; i < lines.size(); ++i) {
      auto [attr, value] = splitAttrLine(lines[i]);
      record.entry.addValue(attr, value);
    }
    return record;
  }
  if (change == LdifRecord::Change::kDelete) {
    if (i != lines.size()) {
      throw LdifParseError("unexpected content after changetype: delete");
    }
    return record;
  }

  // changetype: modify — blocks of "op: attr" then value lines, "-" separated.
  while (i < lines.size()) {
    auto [opName, attrName] = splitAttrLine(lines[i]);
    Modification mod;
    const std::string op = toLowerAscii(opName);
    if (op == "add") {
      mod.op = Modification::Op::kAdd;
    } else if (op == "replace") {
      mod.op = Modification::Op::kReplace;
    } else if (op == "delete") {
      mod.op = Modification::Op::kDelete;
    } else {
      throw LdifParseError("unsupported modify op: " + opName);
    }
    mod.attr = attrName;
    ++i;
    while (i < lines.size() && lines[i] != "-") {
      auto [attr, value] = splitAttrLine(lines[i]);
      if (toLowerAscii(attr) != toLowerAscii(attrName)) {
        throw LdifParseError("modify value for wrong attribute: " + lines[i]);
      }
      mod.values.push_back(value);
      ++i;
    }
    if (i < lines.size()) ++i;  // skip "-"
    record.mods.push_back(std::move(mod));
  }
  return record;
}

}  // namespace

std::vector<LdifRecord> parseLdif(const std::string& text) {
  std::vector<LdifRecord> out;
  for (const auto& lines : recordLines(text)) {
    out.push_back(parseRecord(lines));
  }
  return out;
}

std::string toLdif(const Entry& entry) {
  std::string out = "dn: " + entry.dn().toString() + "\n";
  // A changetype attribute must not open the record, where it would read
  // as the record's change type: RFC 2849's explicit add comes first.
  if (entry.hasAttribute("changetype")) out += "changetype: add\n";
  // objectClass conventionally leads.
  if (const auto* ocs = entry.values("objectclass")) {
    for (const std::string& oc : *ocs) out += "objectClass: " + oc + "\n";
  }
  for (const auto& [attr, values] : entry.attributes()) {
    if (attr == "objectclass") continue;
    for (const std::string& v : values) out += attr + ": " + v + "\n";
  }
  return out;
}

std::string toLdif(const Directory& directory) {
  std::vector<const Entry*> entries =
      directory.search(directory.suffix(), SearchScope::kSubtree,
                       Filter::matchAll());
  std::sort(entries.begin(), entries.end(),
            [](const Entry* a, const Entry* b) {
              if (a->dn().depth() != b->dn().depth()) {
                return a->dn().depth() < b->dn().depth();
              }
              return a->dn() < b->dn();
            });
  std::string out;
  for (const Entry* e : entries) {
    out += toLdif(*e);
    out += "\n";
  }
  return out;
}

LdifApplyStats applyLdif(Directory& directory, const std::string& text) {
  LdifApplyStats stats;
  for (const LdifRecord& record : parseLdif(text)) {
    LdapResult result = LdapResult::kSuccess;
    switch (record.change) {
      case LdifRecord::Change::kAdd:
        result = directory.add(record.entry);
        if (result == LdapResult::kSuccess) ++stats.added;
        break;
      case LdifRecord::Change::kDelete:
        result = directory.remove(record.entry.dn());
        if (result == LdapResult::kSuccess) ++stats.deleted;
        break;
      case LdifRecord::Change::kModify:
        result = directory.modify(record.entry.dn(), record.mods);
        if (result == LdapResult::kSuccess) ++stats.modified;
        break;
    }
    if (result != LdapResult::kSuccess) {
      stats.failures.push_back(record.entry.dn().toString() + ": " +
                               ldapResultName(result));
    }
  }
  return stats;
}

}  // namespace softqos::ldapdir
