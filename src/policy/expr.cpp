#include "policy/expr.hpp"

#include <algorithm>

namespace softqos::policy {

struct BoolExpr::Node {
  enum class Kind { kTrue, kVar, kAnd, kOr, kNot } kind = Kind::kTrue;
  int var = -1;
  std::vector<std::shared_ptr<const Node>> children;

  [[nodiscard]] bool eval(const std::vector<bool>& vars) const {
    switch (kind) {
      case Kind::kTrue:
        return true;
      case Kind::kVar:
        if (var < 0 || var >= static_cast<int>(vars.size())) return true;
        return vars[static_cast<std::size_t>(var)];
      case Kind::kAnd:
        return std::all_of(children.begin(), children.end(),
                           [&](const auto& c) { return c->eval(vars); });
      case Kind::kOr:
        return std::any_of(children.begin(), children.end(),
                           [&](const auto& c) { return c->eval(vars); });
      case Kind::kNot:
        return !children.front()->eval(vars);
    }
    return true;
  }

  [[nodiscard]] int maxVar() const {
    int best = kind == Kind::kVar ? var : -1;
    for (const auto& c : children) best = std::max(best, c->maxVar());
    return best;
  }

  [[nodiscard]] std::string text(
      const std::function<std::string(int)>& name) const {
    switch (kind) {
      case Kind::kTrue:
        return "TRUE";
      case Kind::kVar:
        return name(var);
      case Kind::kAnd:
      case Kind::kOr: {
        const std::string sep = kind == Kind::kAnd ? " AND " : " OR ";
        std::string out = "(";
        for (std::size_t i = 0; i < children.size(); ++i) {
          if (i != 0) out += sep;
          out += children[i]->text(name);
        }
        return out + ")";
      }
      case Kind::kNot:
        return "NOT " + children.front()->text(name);
    }
    return "?";
  }
};

BoolExpr::BoolExpr() : root_(std::make_shared<Node>()) {}

BoolExpr BoolExpr::var(int index) {
  BoolExpr e;
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kVar;
  node->var = index;
  e.root_ = std::move(node);
  return e;
}

BoolExpr BoolExpr::andOf(std::vector<BoolExpr> children) {
  if (children.size() == 1) return children.front();
  BoolExpr e;
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kAnd;
  for (BoolExpr& c : children) node->children.push_back(c.root_);
  e.root_ = std::move(node);
  return e;
}

BoolExpr BoolExpr::orOf(std::vector<BoolExpr> children) {
  if (children.size() == 1) return children.front();
  BoolExpr e;
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kOr;
  for (BoolExpr& c : children) node->children.push_back(c.root_);
  e.root_ = std::move(node);
  return e;
}

BoolExpr BoolExpr::notOf(BoolExpr child) {
  BoolExpr e;
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kNot;
  node->children.push_back(child.root_);
  e.root_ = std::move(node);
  return e;
}

bool BoolExpr::evaluate(const std::vector<bool>& vars) const {
  return root_->eval(vars);
}

int BoolExpr::maxVarIndex() const { return root_->maxVar(); }

std::string BoolExpr::toString() const {
  return toString([](int var) {
    std::string out = "x";  // not "x" + ...: GCC 12 warns -Wrestrict on it
    out += std::to_string(var + 1);
    return out;
  });
}

std::string BoolExpr::toString(
    const std::function<std::string(int)>& name) const {
  return root_->text(name);
}

BoolExpr BoolExpr::substitute(const std::function<BoolExpr(int)>& map) const {
  switch (root_->kind) {
    case Node::Kind::kTrue:
      return BoolExpr{};
    case Node::Kind::kVar:
      return map(root_->var);
    case Node::Kind::kNot: {
      BoolExpr child;
      child.root_ = root_->children.front();
      return notOf(child.substitute(map));
    }
    case Node::Kind::kAnd:
    case Node::Kind::kOr: {
      std::vector<BoolExpr> parts;
      parts.reserve(root_->children.size());
      for (const auto& c : root_->children) {
        BoolExpr child;
        child.root_ = c;
        parts.push_back(child.substitute(map));
      }
      return root_->kind == Node::Kind::kAnd ? andOf(std::move(parts))
                                             : orOf(std::move(parts));
    }
  }
  return BoolExpr{};
}

bool BoolExpr::isFlatConjunction() const {
  if (root_->kind == Node::Kind::kVar || root_->kind == Node::Kind::kTrue) {
    return true;
  }
  if (root_->kind != Node::Kind::kAnd) return false;
  return std::all_of(root_->children.begin(), root_->children.end(),
                     [](const auto& c) { return c->kind == Node::Kind::kVar; });
}

bool BoolExpr::isFlatDisjunction() const {
  if (root_->kind == Node::Kind::kVar || root_->kind == Node::Kind::kTrue) {
    return true;
  }
  if (root_->kind != Node::Kind::kOr) return false;
  return std::all_of(root_->children.begin(), root_->children.end(),
                     [](const auto& c) { return c->kind == Node::Kind::kVar; });
}

}  // namespace softqos::policy
