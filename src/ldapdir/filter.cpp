#include "ldapdir/filter.hpp"

#include <cctype>
#include <optional>

#include "sim/text.hpp"

namespace softqos::ldapdir {

namespace {

enum class CmpKind { kEquals, kGreaterEq, kLessEq, kPresent, kSubstring };

bool substringMatch(const std::string& value,
                    const std::vector<std::string>& parts, bool anchoredStart,
                    bool anchoredEnd) {
  // `parts` are the literal chunks between '*'s, lower-cased.
  const std::string hay = toLowerAscii(value);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string& needle = parts[i];
    if (needle.empty()) continue;
    if (i == 0 && anchoredStart) {
      if (hay.compare(0, needle.size(), needle) != 0) return false;
      pos = needle.size();
      continue;
    }
    const std::size_t found = hay.find(needle, pos);
    if (found == std::string::npos) return false;
    pos = found + needle.size();
  }
  if (anchoredEnd && !parts.empty() && !parts.back().empty()) {
    const std::string& tail = parts.back();
    if (hay.size() < tail.size()) return false;
    if (hay.compare(hay.size() - tail.size(), tail.size(), tail) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

struct Filter::Node {
  enum class Kind { kAnd, kOr, kNot, kCmp, kTrue } kind = Kind::kTrue;
  std::vector<std::shared_ptr<const Node>> children;  // and/or/not
  std::string attr;
  CmpKind cmp = CmpKind::kEquals;
  std::string value;                    // raw (original case)
  std::optional<double> number;         // value as a number (=, >=, <=)
  std::vector<std::string> subParts;    // substring chunks, lower-cased
  bool subAnchoredStart = false;
  bool subAnchoredEnd = false;

  [[nodiscard]] bool eval(const Entry& entry) const {
    switch (kind) {
      case Kind::kTrue:
        return true;
      case Kind::kAnd:
        for (const auto& c : children) {
          if (!c->eval(entry)) return false;
        }
        return true;
      case Kind::kOr:
        for (const auto& c : children) {
          if (c->eval(entry)) return true;
        }
        return false;
      case Kind::kNot:
        return !children.front()->eval(entry);
      case Kind::kCmp:
        break;
    }
    const std::vector<std::string>* vals = entry.values(attr);
    if (vals == nullptr) return false;
    if (cmp == CmpKind::kPresent) return true;
    for (const std::string& v : *vals) {
      // Numeric comparison when both sides are strict numbers; otherwise
      // case-insensitive string comparison.
      const auto a = number ? sim::parseNumber<double>(v) : std::nullopt;
      switch (cmp) {
        case CmpKind::kEquals: {
          if (a) {
            if (*a == *number) return true;
          } else if (equalsIgnoreCaseAscii(v, value)) {
            return true;
          }
          break;
        }
        case CmpKind::kGreaterEq:
        case CmpKind::kLessEq: {
          bool ok = false;
          if (a) {
            ok = cmp == CmpKind::kGreaterEq ? *a >= *number : *a <= *number;
          } else {
            const int c = toLowerAscii(v).compare(toLowerAscii(value));
            ok = cmp == CmpKind::kGreaterEq ? c >= 0 : c <= 0;
          }
          if (ok) return true;
          break;
        }
        case CmpKind::kSubstring:
          if (substringMatch(v, subParts, subAnchoredStart, subAnchoredEnd)) {
            return true;
          }
          break;
        case CmpKind::kPresent:
          return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::string text() const {
    switch (kind) {
      case Kind::kTrue:
        return "(objectClass=*)";
      case Kind::kAnd:
      case Kind::kOr: {
        std::string out = kind == Kind::kAnd ? "(&" : "(|";
        for (const auto& c : children) out += c->text();
        return out + ")";
      }
      case Kind::kNot:
        return "(!" + children.front()->text() + ")";
      case Kind::kCmp:
        break;
    }
    switch (cmp) {
      case CmpKind::kPresent: return "(" + attr + "=*)";
      case CmpKind::kGreaterEq: return "(" + attr + ">=" + value + ")";
      case CmpKind::kLessEq: return "(" + attr + "<=" + value + ")";
      default: return "(" + attr + "=" + value + ")";
    }
  }
};

namespace {

class FilterParser {
 public:
  explicit FilterParser(const std::string& text) : text_(text) {}

  std::shared_ptr<const Filter::Node> parse() {
    auto node = parseFilter();
    skipSpace();
    if (pos_ != text_.size()) {
      throw FilterParseError("trailing characters after filter");
    }
    return node;
  }

 private:
  void skipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) throw FilterParseError("unexpected end of filter");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      throw FilterParseError(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  std::shared_ptr<const Filter::Node> parseFilter() {
    skipSpace();
    expect('(');
    auto node = std::make_shared<Filter::Node>();
    const char c = peek();
    if (c == '&' || c == '|') {
      ++pos_;
      node->kind = c == '&' ? Filter::Node::Kind::kAnd
                            : Filter::Node::Kind::kOr;
      skipSpace();
      while (peek() == '(') {
        node->children.push_back(parseFilter());
        skipSpace();
      }
      if (node->children.empty()) {
        throw FilterParseError("empty and/or filter");
      }
      expect(')');
      return node;
    }
    if (c == '!') {
      ++pos_;
      node->kind = Filter::Node::Kind::kNot;
      node->children.push_back(parseFilter());
      skipSpace();
      expect(')');
      return node;
    }
    // Comparison: attr { = | >= | <= } value
    node->kind = Filter::Node::Kind::kCmp;
    std::string attr;
    while (pos_ < text_.size() && text_[pos_] != '=' && text_[pos_] != '>' &&
           text_[pos_] != '<' && text_[pos_] != ')') {
      attr.push_back(text_[pos_++]);
    }
    if (attr.empty()) throw FilterParseError("missing attribute name");
    node->attr = toLowerAscii(attr);
    const char op = peek();
    if (op == '>' || op == '<') {
      ++pos_;
      expect('=');
      node->cmp = op == '>' ? CmpKind::kGreaterEq : CmpKind::kLessEq;
    } else {
      expect('=');
      node->cmp = CmpKind::kEquals;
    }
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != ')') {
      value.push_back(text_[pos_++]);
    }
    expect(')');
    node->value = value;
    node->number = sim::parseNumber<double>(value);
    if (node->cmp == CmpKind::kEquals) {
      if (value == "*") {
        node->cmp = CmpKind::kPresent;
      } else if (value.find('*') != std::string::npos) {
        node->cmp = CmpKind::kSubstring;
        node->subAnchoredStart = !value.empty() && value.front() != '*';
        node->subAnchoredEnd = !value.empty() && value.back() != '*';
        for (const std::string_view chunk : sim::split(value, '*')) {
          node->subParts.push_back(toLowerAscii(std::string(chunk)));
        }
      }
    }
    return node;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Filter Filter::parse(const std::string& text) {
  Filter f;
  f.root_ = FilterParser(text).parse();
  return f;
}

Filter Filter::matchAll() {
  Filter f;
  f.root_ = std::make_shared<Node>();  // Kind::kTrue
  return f;
}

bool Filter::matches(const Entry& entry) const {
  return root_ == nullptr || root_->eval(entry);
}

std::string Filter::toString() const {
  return root_ == nullptr ? "(objectClass=*)" : root_->text();
}

}  // namespace softqos::ldapdir
