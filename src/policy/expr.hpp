// Boolean expressions over condition variables (paper Example 3: boolean
// variables x1..xn generated per comparison, combined with AND/OR).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace softqos::policy {

class BoolExpr {
 public:
  /// Default: constant true (empty policy never considered violated).
  BoolExpr();

  static BoolExpr var(int index);
  static BoolExpr andOf(std::vector<BoolExpr> children);
  static BoolExpr orOf(std::vector<BoolExpr> children);
  static BoolExpr notOf(BoolExpr child);

  /// Evaluate with `vars[i]` the truth of variable i. Out-of-range variable
  /// indices evaluate to true ("no alarm seen"), matching the coordinator's
  /// optimistic initial state.
  [[nodiscard]] bool evaluate(const std::vector<bool>& vars) const;

  /// Highest variable index used, or -1 when the expression is constant.
  [[nodiscard]] int maxVarIndex() const;

  /// Render like "(x1 AND (x2 OR NOT x3))", naming variable i "x<i+1>"
  /// (coordinator trace format).
  [[nodiscard]] std::string toString() const;
  /// The same rendering with variable i written as name(i).
  [[nodiscard]] std::string toString(
      const std::function<std::string(int)>& name) const;

  /// Replace each variable i with map(i) (used by the compiler to expand a
  /// condition variable into the AND of its primitive comparisons).
  [[nodiscard]] BoolExpr substitute(
      const std::function<BoolExpr(int)>& map) const;

  /// True if the expression is a flat conjunction (resp. disjunction) of
  /// variables — the only shapes the paper's LDAP combinator attribute can
  /// describe.
  [[nodiscard]] bool isFlatConjunction() const;
  [[nodiscard]] bool isFlatDisjunction() const;

 private:
  struct Node;
  std::shared_ptr<const Node> root_;
};

}  // namespace softqos::policy
