#include "policy/condition.hpp"

#include <sstream>
#include <stdexcept>

namespace softqos::policy {

std::string policyCmpName(PolicyCmp op) {
  switch (op) {
    case PolicyCmp::kEq: return "=";
    case PolicyCmp::kNe: return "!=";
    case PolicyCmp::kLt: return "<";
    case PolicyCmp::kLe: return "<=";
    case PolicyCmp::kGt: return ">";
    case PolicyCmp::kGe: return ">=";
  }
  return "?";
}

PolicyCmp parsePolicyCmp(const std::string& token) {
  if (token == "=" || token == "==") return PolicyCmp::kEq;
  if (token == "!=" || token == "<>") return PolicyCmp::kNe;
  if (token == "<") return PolicyCmp::kLt;
  if (token == "<=") return PolicyCmp::kLe;
  if (token == ">") return PolicyCmp::kGt;
  if (token == ">=") return PolicyCmp::kGe;
  throw std::invalid_argument("unknown policy comparator: " + token);
}

std::string formatNumber(double v) {
  std::ostringstream out;
  out << v;  // default precision trims trailing zeros
  return out.str();
}

bool PrimitiveComparison::holds(double observed) const {
  switch (op) {
    case PolicyCmp::kEq: return observed == value;
    case PolicyCmp::kNe: return observed != value;
    case PolicyCmp::kLt: return observed < value;
    case PolicyCmp::kLe: return observed <= value;
    case PolicyCmp::kGt: return observed > value;
    case PolicyCmp::kGe: return observed >= value;
  }
  return false;
}

std::string PrimitiveComparison::toString() const {
  return attribute + " " + policyCmpName(op) + " " + formatNumber(value);
}

bool PolicyCondition::holds(double observed) const {
  if (op == PolicyCmp::kEq && tolerance.active()) {
    return observed > threshold - tolerance.below &&
           observed < threshold + tolerance.above;
  }
  return PrimitiveComparison{attribute, op, threshold}.holds(observed);
}

std::vector<PrimitiveComparison> PolicyCondition::expand() const {
  if (op == PolicyCmp::kEq && tolerance.active()) {
    return {PrimitiveComparison{attribute, PolicyCmp::kGt,
                                threshold - tolerance.below},
            PrimitiveComparison{attribute, PolicyCmp::kLt,
                                threshold + tolerance.above}};
  }
  return {PrimitiveComparison{attribute, op, threshold}};
}

std::string PolicyCondition::toString() const {
  std::string out =
      attribute + " " + policyCmpName(op) + " " + formatNumber(threshold);
  if (op == PolicyCmp::kEq && tolerance.active()) {
    out += "(+" + formatNumber(tolerance.above) + ")(-" +
           formatNumber(tolerance.below) + ")";
  }
  return out;
}

}  // namespace softqos::policy
