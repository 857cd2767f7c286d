#include "policy/model.hpp"

#include <algorithm>
#include <cctype>
#include <string_view>

#include "sim/text.hpp"

namespace softqos::policy {

namespace {

/// True when `text` would open an oblig clause if it began a line: the
/// parser reads a trimmed line that starts with one of these words and
/// whitespace as a new clause, not as a continuation.
bool opensClause(std::string_view text) {
  const std::string_view line = sim::trim(text);
  for (const std::string_view keyword : {"subject", "target", "on", "do"}) {
    if (line.size() > keyword.size() && line.starts_with(keyword) &&
        std::isspace(static_cast<unsigned char>(line[keyword.size()])) != 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool SensorInfo::monitors(const std::string& attribute) const {
  return std::find(attributes.begin(), attributes.end(), attribute) !=
         attributes.end();
}

std::string PolicyAction::toString() const {
  std::string out = target + "->" + method + "(";
  for (std::size_t i = 0; i < arguments.size(); ++i) {
    if (i != 0) out += ", ";
    if (kind == Kind::kSensorRead) out += "out ";
    out += arguments[i];
  }
  return out + ")";
}

BoolExpr PolicySpec::conditionExpr() const {
  if (customExpr.has_value()) return *customExpr;
  std::vector<BoolExpr> vars;
  vars.reserve(conditions.size());
  for (std::size_t i = 0; i < conditions.size(); ++i) {
    vars.push_back(BoolExpr::var(static_cast<int>(i)));
  }
  if (vars.empty()) return BoolExpr{};
  return combinator == Combinator::kConjunction ? BoolExpr::andOf(std::move(vars))
                                                : BoolExpr::orOf(std::move(vars));
}

std::vector<std::string> PolicySpec::referencedAttributes() const {
  std::vector<std::string> out;
  for (const PolicyCondition& c : conditions) {
    if (std::find(out.begin(), out.end(), c.attribute) == out.end()) {
      out.push_back(c.attribute);
    }
  }
  return out;
}

std::string PolicySpec::toString() const {
  std::string out = "oblig " + name + " {\n";
  out += "  subject " + subjectPath + "\n";
  out += "  target ";
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (i != 0) out += ",";
    out += targets[i];
  }
  // AND/OR groups bring their own parentheses; a lone condition or NOT gets
  // them here, and a policy without conditions prints "()".
  std::string requirement;
  if (!conditions.empty()) {
    requirement = conditionExpr().toString([&](int var) {
      return conditions.at(static_cast<std::size_t>(var)).toString();
    });
  }
  if (!requirement.starts_with('(')) requirement = "(" + requirement + ")";
  out += "\n  on not " + requirement + "\n  do ";
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const std::string action = actions[i].toString();
    // An action that reads like a clause stays on the previous line.
    if (i != 0) out += opensClause(action) ? "; " : ";\n     ";
    out += action;
  }
  out += "\n}\n";
  return out;
}

}  // namespace softqos::policy
