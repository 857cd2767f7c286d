#include "policy/parser.hpp"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <string_view>

#include "ldapdir/dn.hpp"
#include "sim/text.hpp"

namespace softqos::policy {

namespace {

using ldapdir::equalsIgnoreCaseAscii;
using sim::trim;

// ---- Condition-expression lexer ----

struct Token {
  enum class Kind { kIdent, kNumber, kOp, kLParen, kRParen, kAnd, kOr, kNot, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
  double number = 0.0;
};

class ExprLexer {
 public:
  explicit ExprLexer(const std::string& text) : text_(text) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

 private:
  void advance() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    current_ = Token{};
    if (pos_ >= text_.size()) return;

    const char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      current_.kind = Token::Kind::kLParen;
      return;
    }
    if (c == ')') {
      ++pos_;
      current_.kind = Token::Kind::kRParen;
      return;
    }
    if (c == '<' || c == '>' || c == '=' || c == '!') {
      std::string op(1, c);
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '=' || text_[pos_] == '>')) {
        op.push_back(text_[pos_++]);
      }
      current_.kind = Token::Kind::kOp;
      current_.text = op;
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' || c == '+' ||
        c == '-') {
      const std::size_t start = pos_;
      if (c == '+' || c == '-') ++pos_;
      const auto digitAt = [&](std::size_t at) {
        return at < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[at]));
      };
      while (digitAt(pos_) || (pos_ < text_.size() && text_[pos_] == '.')) {
        ++pos_;
      }
      // An exponent, as formatNumber writes very large and small numbers.
      if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
        std::size_t at = pos_ + 1;
        if (at < text_.size() && (text_[at] == '+' || text_[at] == '-')) ++at;
        if (digitAt(at)) {
          pos_ = at;
          while (digitAt(pos_)) ++pos_;
        }
      }
      current_.kind = Token::Kind::kNumber;
      current_.text = text_.substr(start, pos_ - start);
      const auto number = sim::parseNumber<double>(current_.text);
      if (!number) {
        throw PolicyParseError("bad number '" + current_.text +
                               "' in condition expression");
      }
      current_.number = *number;
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      const std::string word = text_.substr(start, pos_ - start);
      if (equalsIgnoreCaseAscii(word, "and")) {
        current_.kind = Token::Kind::kAnd;
      } else if (equalsIgnoreCaseAscii(word, "or")) {
        current_.kind = Token::Kind::kOr;
      } else if (equalsIgnoreCaseAscii(word, "not")) {
        current_.kind = Token::Kind::kNot;
      } else {
        current_.kind = Token::Kind::kIdent;
        current_.text = word;
      }
      return;
    }
    throw PolicyParseError(std::string("unexpected character '") + c +
                           "' in condition expression");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  Token current_;
};

// ---- Condition-expression parser (builds conditions + index expression) ----

class ConditionParser {
 public:
  ConditionParser(ExprLexer& lexer, PolicySpec& spec)
      : lexer_(lexer), spec_(spec) {}

  BoolExpr parseOr() {
    std::vector<BoolExpr> terms;
    terms.push_back(parseAnd());
    while (lexer_.peek().kind == Token::Kind::kOr) {
      lexer_.take();
      terms.push_back(parseAnd());
    }
    return BoolExpr::orOf(std::move(terms));
  }

 private:
  BoolExpr parseAnd() {
    std::vector<BoolExpr> terms;
    terms.push_back(parseUnary());
    while (lexer_.peek().kind == Token::Kind::kAnd) {
      lexer_.take();
      terms.push_back(parseUnary());
    }
    return BoolExpr::andOf(std::move(terms));
  }

  BoolExpr parseUnary() {
    if (lexer_.peek().kind == Token::Kind::kNot) {
      lexer_.take();
      return BoolExpr::notOf(parseUnary());
    }
    if (lexer_.peek().kind == Token::Kind::kLParen) {
      lexer_.take();
      BoolExpr inner = parseOr();
      if (lexer_.peek().kind != Token::Kind::kRParen) {
        throw PolicyParseError("missing ')' in condition expression");
      }
      lexer_.take();
      return inner;
    }
    return parseComparison();
  }

  BoolExpr parseComparison() {
    if (lexer_.peek().kind != Token::Kind::kIdent) {
      throw PolicyParseError("expected attribute name in condition");
    }
    PolicyCondition cond;
    cond.attribute = lexer_.take().text;
    if (lexer_.peek().kind != Token::Kind::kOp) {
      throw PolicyParseError("expected comparator after attribute " +
                             cond.attribute);
    }
    try {
      cond.op = parsePolicyCmp(lexer_.take().text);
    } catch (const std::invalid_argument& e) {
      throw PolicyParseError(e.what());
    }
    if (lexer_.peek().kind != Token::Kind::kNumber) {
      throw PolicyParseError("expected numeric threshold for attribute " +
                             cond.attribute);
    }
    cond.threshold = lexer_.take().number;

    // Optional tolerance: (+2)(-2) in either order.
    while (lexer_.peek().kind == Token::Kind::kLParen) {
      // Only consume if the parenthesis encloses a signed number (tolerance);
      // otherwise it belongs to the surrounding expression — but a '(' right
      // after a threshold can only be a tolerance in this grammar.
      lexer_.take();
      if (lexer_.peek().kind != Token::Kind::kNumber) {
        throw PolicyParseError("expected signed tolerance after '('");
      }
      const Token tol = lexer_.take();
      if (tol.text.empty() || (tol.text[0] != '+' && tol.text[0] != '-')) {
        throw PolicyParseError("tolerance must be signed: " + tol.text);
      }
      if (tol.text[0] == '+') {
        cond.tolerance.above = tol.number;
      } else {
        cond.tolerance.below = -tol.number;
      }
      if (lexer_.peek().kind != Token::Kind::kRParen) {
        throw PolicyParseError("missing ')' after tolerance");
      }
      lexer_.take();
    }

    const int index = static_cast<int>(spec_.conditions.size());
    spec_.conditions.push_back(std::move(cond));
    return BoolExpr::var(index);
  }

  ExprLexer& lexer_;
  PolicySpec& spec_;
};

std::vector<std::string> splitTopLevel(const std::string& text, char delim) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  for (const char c : text) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == delim && depth == 0) {
      out.push_back(current);
      current.clear();
      continue;
    }
    current.push_back(c);
  }
  out.push_back(current);
  return out;
}

PolicyAction parseAction(std::string_view text) {
  const std::size_t arrow = text.find("->");
  if (arrow == std::string_view::npos) {
    throw PolicyParseError("action missing '->': " + std::string(text));
  }
  PolicyAction action;
  action.target = trim(text.substr(0, arrow));
  const std::size_t open = text.find('(', arrow + 2);
  if (open == std::string_view::npos || text.back() != ')') {
    throw PolicyParseError("action missing argument list: " +
                           std::string(text));
  }
  action.method = trim(text.substr(arrow + 2, open - arrow - 2));
  const std::string argsText(text.substr(open + 1, text.size() - open - 2));
  for (const std::string& part : splitTopLevel(argsText, ',')) {
    std::string_view arg = trim(part);
    if (arg.empty()) continue;
    if (equalsIgnoreCaseAscii(arg.substr(0, 4), "out ")) {
      arg = trim(arg.substr(4));
    }
    action.arguments.emplace_back(arg);
  }
  if (action.method == "notify" ||
      action.target.find("QoSHostManager") != std::string::npos) {
    action.kind = PolicyAction::Kind::kNotifyHostManager;
  } else if (action.method == "read") {
    action.kind = PolicyAction::Kind::kSensorRead;
  } else {
    action.kind = PolicyAction::Kind::kActuatorInvoke;
  }
  return action;
}

/// Executable name from a subject path ".../VideoApplication/qosl_coordinator".
std::string executableFromSubject(std::string_view subject) {
  const auto parts = sim::split(subject, '/');
  if (parts.size() >= 2 && parts.back() == "qosl_coordinator") {
    return std::string(parts[parts.size() - 2]);
  }
  return "";
}

/// One `<keyword> <name> { ... }` block of policy text. A clause opens
/// with one of the block's clause keywords at the start of a line; any
/// other line continues the clause before it.
struct Block {
  std::string name;
  std::vector<std::pair<std::string_view, std::string>> clauses;
};

/// Every `<keyword>` block in `text`, in order, for oblig and contract
/// alike. Throws PolicyParseError on a block without a name or braces, on
/// body text before the first clause, and when there is no block at all.
std::vector<Block> scanBlocks(
    const std::string& text, const std::string& keyword,
    std::initializer_list<std::string_view> clauseKeywords) {
  const auto isSpace = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  std::vector<Block> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t kw = text.find(keyword, pos);
    if (kw == std::string::npos) break;
    const std::size_t after = kw + keyword.size();
    // Must be a standalone word.
    if ((kw > 0 && !isSpace(text[kw - 1])) || after >= text.size() ||
        !isSpace(text[after])) {
      pos = after;
      continue;
    }
    const std::size_t open = text.find('{', kw);
    if (open == std::string::npos) {
      throw PolicyParseError(keyword + " missing '{'");
    }
    const std::size_t close = text.find('}', open);
    if (close == std::string::npos) {
      throw PolicyParseError(keyword + " missing '}'");
    }
    const std::string_view all(text);
    Block block;
    block.name = trim(all.substr(after, open - after));
    if (block.name.empty()) throw PolicyParseError(keyword + " missing a name");
    for (const std::string_view line :
         sim::split(all.substr(open + 1, close - open - 1), '\n')) {
      const std::string_view t = trim(line);
      if (t.empty()) continue;
      const auto clause =
          std::find_if(clauseKeywords.begin(), clauseKeywords.end(),
                       [&](std::string_view k) {
                         return t.substr(0, k.size()) == k &&
                                (t.size() == k.size() || isSpace(t[k.size()]));
                       });
      if (clause != clauseKeywords.end()) {
        block.clauses.emplace_back(*clause, trim(t.substr(clause->size())));
      } else if (!block.clauses.empty()) {
        block.clauses.back().second += ' ';  // continuation line
        block.clauses.back().second += t;
      } else {
        throw PolicyParseError("unexpected text in " + keyword +
                               " body: " + std::string(t));
      }
    }
    out.push_back(std::move(block));
    pos = close + 1;
  }
  if (out.empty()) throw PolicyParseError("no " + keyword + " block found");
  return out;
}

}  // namespace

void parseConditionExpr(const std::string& text, PolicySpec& spec) {
  ExprLexer lexer(text);
  ConditionParser parser(lexer, spec);
  BoolExpr expr = parser.parseOr();
  if (lexer.peek().kind != Token::Kind::kEnd) {
    throw PolicyParseError("trailing content in condition expression");
  }
  if (expr.isFlatConjunction()) {
    spec.combinator = PolicySpec::Combinator::kConjunction;
  } else if (expr.isFlatDisjunction()) {
    spec.combinator = PolicySpec::Combinator::kDisjunction;
  } else {
    spec.customExpr = expr;
  }
}

PolicySpec parseObligation(const std::string& text) {
  const std::vector<PolicySpec> all = parseObligations(text);
  if (all.size() != 1) {
    throw PolicyParseError("expected exactly one oblig block, found " +
                           std::to_string(all.size()));
  }
  return all.front();
}

std::vector<PolicySpec> parseObligations(const std::string& text) {
  std::vector<PolicySpec> out;
  for (Block& block :
       scanBlocks(text, "oblig", {"subject", "target", "on", "do"})) {
    PolicySpec spec;
    spec.name = std::move(block.name);
    bool sawOn = false;
    for (const auto& [keyword, value] : block.clauses) {
      if (keyword == "subject") {
        spec.subjectPath = value;
        spec.executable = executableFromSubject(value);
      } else if (keyword == "target") {
        for (const std::string& t : splitTopLevel(value, ',')) {
          const std::string_view target = trim(t);
          if (!target.empty()) spec.targets.emplace_back(target);
        }
      } else if (keyword == "on") {
        sawOn = true;
        // The clause is the negation of the requirement; strip the leading
        // "not" so `conditions` store the requirement itself.
        const std::string_view expr = value;
        if (!equalsIgnoreCaseAscii(expr.substr(0, 3), "not") ||
            (expr.size() > 3 &&
             std::isalnum(static_cast<unsigned char>(expr[3])))) {
          throw PolicyParseError(
              "on clause must negate the requirement: expected 'on not (...)'");
        }
        parseConditionExpr(std::string(trim(expr.substr(3))), spec);
      } else if (keyword == "do") {
        for (const std::string& part : splitTopLevel(value, ';')) {
          const std::string_view actionText = trim(part);
          if (actionText.empty()) continue;
          spec.actions.push_back(parseAction(actionText));
        }
      }
    }
    if (!sawOn) {
      throw PolicyParseError("oblig " + spec.name + " missing 'on' clause");
    }
    out.push_back(std::move(spec));
  }
  return out;
}

ContractSpec parseContract(const std::string& text) {
  const std::vector<ContractSpec> all = parseContracts(text);
  if (all.size() != 1) {
    throw PolicyParseError("expected exactly one contract block, found " +
                           std::to_string(all.size()));
  }
  return all.front();
}

std::vector<ContractSpec> parseContracts(const std::string& text) {
  std::vector<ContractSpec> out;
  for (Block& block :
       scanBlocks(text, "contract",
                  {"executable", "application", "role", "offers", "requests",
                   "deadline_attribute", "enabled"})) {
    ContractSpec spec;
    spec.name = std::move(block.name);
    for (const auto& [keyword, value] : block.clauses) {
      try {
        if (keyword == "executable") {
          spec.executable = value;
        } else if (keyword == "application") {
          spec.application = value;
        } else if (keyword == "role") {
          spec.userRole = value;
        } else if (keyword == "offers") {
          spec.offer = parseQosOffer(value);
          spec.hasOffer = true;
        } else if (keyword == "requests") {
          spec.request = parseQosRequest(value);
          spec.hasRequest = true;
        } else if (keyword == "deadline_attribute") {
          spec.deadlineAttribute = value;
        } else if (keyword == "enabled") {
          spec.enabled = !equalsIgnoreCaseAscii(value, "false");
        }
      } catch (const std::invalid_argument& e) {
        throw PolicyParseError("contract " + spec.name + ": " + e.what());
      }
    }
    if (!spec.hasOffer && !spec.hasRequest) {
      throw PolicyParseError("contract " + spec.name +
                             " declares neither offers nor requests");
    }
    out.push_back(std::move(spec));
  }
  return out;
}

}  // namespace softqos::policy
