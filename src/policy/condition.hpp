// Policy conditions: constraints on application attributes, including the
// paper's tolerance notation "frame_rate = 25(+2)(-2)".
#pragma once

#include <string>
#include <vector>

namespace softqos::policy {

enum class PolicyCmp { kEq, kNe, kLt, kLe, kGt, kGe };

std::string policyCmpName(PolicyCmp op);
PolicyCmp parsePolicyCmp(const std::string& token);

/// A number as policy text writes it: ostream's default precision, so
/// trailing zeros go ("25", "2.5", "1e+06").
std::string formatNumber(double v);

/// Tolerance band around an equality target: 25(+2)(-2) accepts (23, 27).
struct Tolerance {
  double above = 0.0;
  double below = 0.0;

  [[nodiscard]] bool active() const { return above > 0.0 || below > 0.0; }
};

/// One primitive comparison after tolerance expansion (paper Example 3:
/// "frame_rate = 25(+2)(-2)" becomes frame_rate > 23 AND frame_rate < 27).
struct PrimitiveComparison {
  std::string attribute;
  PolicyCmp op = PolicyCmp::kEq;
  double value = 0.0;

  [[nodiscard]] bool holds(double observed) const;
  [[nodiscard]] std::string toString() const;
};

/// A reusable policy condition (Section 6.1: conditions have their own class
/// so they can be shared between policies).
struct PolicyCondition {
  std::string id;         // empty for inline (non-reusable) conditions
  std::string attribute;  // e.g. "frame_rate"
  PolicyCmp op = PolicyCmp::kEq;
  double threshold = 0.0;
  Tolerance tolerance;    // only meaningful with kEq

  /// True when the observed value satisfies the condition.
  [[nodiscard]] bool holds(double observed) const;

  /// Expand to primitive comparisons (1 normally, 2 for a tolerance band).
  [[nodiscard]] std::vector<PrimitiveComparison> expand() const;

  /// Render in the policy notation, e.g. "frame_rate = 25(+2)(-2)".
  [[nodiscard]] std::string toString() const;
};

}  // namespace softqos::policy
