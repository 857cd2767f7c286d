#include "ldapdir/dn.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "sim/text.hpp"

namespace softqos::ldapdir {

std::string toLowerAscii(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

bool equalsIgnoreCaseAscii(std::string_view a, std::string_view b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](unsigned char x, unsigned char y) {
                      return std::tolower(x) == std::tolower(y);
                    });
}

namespace {

std::string escapeValue(const std::string& v) {
  std::string out;
  for (const char c : v) {
    if (c == ',' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool Rdn::operator==(const Rdn& other) const {
  return attr == other.attr && equalsIgnoreCaseAscii(value, other.value);
}

Dn Dn::parse(const std::string& text) {
  Dn dn;
  if (sim::trim(text).empty()) return dn;

  // Split on unescaped commas.
  std::vector<std::string> parts;
  std::string current;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\\' && i + 1 < text.size()) {
      current.push_back(text[++i]);
      continue;
    }
    if (c == ',') {
      parts.push_back(current);
      current.clear();
      continue;
    }
    current.push_back(c);
  }
  parts.push_back(current);

  for (const std::string& raw : parts) {
    const std::string_view component = sim::trim(raw);
    const std::size_t eq = component.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("malformed DN component: '" +
                                  std::string(component) + "'");
    }
    Rdn rdn;
    rdn.attr = toLowerAscii(std::string(sim::trim(component.substr(0, eq))));
    rdn.value = sim::trim(component.substr(eq + 1));
    if (rdn.value.empty()) {
      throw std::invalid_argument("empty RDN value in: '" +
                                  std::string(component) + "'");
    }
    dn.rdns_.push_back(std::move(rdn));
  }
  return dn;
}

Dn Dn::fromRdns(std::vector<Rdn> rdns) {
  Dn dn;
  dn.rdns_ = std::move(rdns);
  for (Rdn& r : dn.rdns_) r.attr = toLowerAscii(r.attr);
  return dn;
}

Dn Dn::parent() const {
  Dn p;
  if (rdns_.size() <= 1) return p;
  p.rdns_.assign(rdns_.begin() + 1, rdns_.end());
  return p;
}

Dn Dn::child(const std::string& attr, const std::string& value) const {
  Dn c;
  c.rdns_.reserve(rdns_.size() + 1);
  c.rdns_.push_back(Rdn{toLowerAscii(attr), value});
  c.rdns_.insert(c.rdns_.end(), rdns_.begin(), rdns_.end());
  return c;
}

bool Dn::isDescendantOf(const Dn& ancestor) const {
  if (ancestor.rdns_.size() >= rdns_.size()) return false;
  const std::size_t offset = rdns_.size() - ancestor.rdns_.size();
  for (std::size_t i = 0; i < ancestor.rdns_.size(); ++i) {
    if (!(rdns_[offset + i] == ancestor.rdns_[i])) return false;
  }
  return true;
}

std::string Dn::toString() const {
  std::string out;
  for (std::size_t i = 0; i < rdns_.size(); ++i) {
    if (i != 0) out += ",";
    out += escapeValue(rdns_[i].attr) + "=" + escapeValue(rdns_[i].value);
  }
  return out;
}

std::string Dn::normalized() const { return toLowerAscii(toString()); }

bool Dn::operator==(const Dn& other) const {
  if (rdns_.size() != other.rdns_.size()) return false;
  for (std::size_t i = 0; i < rdns_.size(); ++i) {
    if (!(rdns_[i] == other.rdns_[i])) return false;
  }
  return true;
}

bool Dn::operator<(const Dn& other) const {
  return normalized() < other.normalized();
}

}  // namespace softqos::ldapdir
