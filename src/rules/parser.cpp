#include "rules/parser.hpp"

#include <cctype>
#include <utility>

#include "sim/text.hpp"

namespace softqos::rules {
namespace {

/// A parsed s-expression: an atom or a list.
struct Sexp {
  bool isAtom = false;
  std::string atom;
  std::vector<Sexp> items;
};

class Tokenizer {
 public:
  explicit Tokenizer(const std::string& text) : text_(text) {}

  /// Next token: "(", ")", or an atom (quoted strings keep their quotes).
  /// Empty string at end of input.
  std::string next() {
    skipSpaceAndComments();
    if (pos_ >= text_.size()) return "";
    const char c = text_[pos_];
    if (c == '(' || c == ')') {
      ++pos_;
      return std::string(1, c);
    }
    if (c == '"') {
      const std::size_t start = pos_++;
      while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
      if (pos_ >= text_.size()) {
        throw RuleParseError("unterminated string literal");
      }
      ++pos_;  // consume closing quote
      return text_.substr(start, pos_ - start);
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(text_[pos_])) &&
           text_[pos_] != '(' && text_[pos_] != ')' && text_[pos_] != ';') {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

 private:
  void skipSpaceAndComments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == ';') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        return;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Sexp readSexp(Tokenizer& tok, const std::string& first) {
  if (first.empty()) throw RuleParseError("unexpected end of input");
  if (first == ")") throw RuleParseError("unexpected ')'");
  if (first != "(") {
    Sexp s;
    s.isAtom = true;
    s.atom = first;
    return s;
  }
  Sexp list;
  while (true) {
    const std::string t = tok.next();
    if (t.empty()) throw RuleParseError("missing ')'");
    if (t == ")") return list;
    list.items.push_back(readSexp(tok, t));
  }
}

std::vector<Sexp> readAll(const std::string& text) {
  Tokenizer tok(text);
  std::vector<Sexp> out;
  while (true) {
    const std::string t = tok.next();
    if (t.empty()) return out;
    out.push_back(readSexp(tok, t));
  }
}

const std::string& atomOf(const Sexp& s, const char* what) {
  if (!s.isAtom) throw RuleParseError(std::string("expected ") + what);
  return s.atom;
}

int intOf(const Sexp& s, const char* what) {
  const std::string& atom = atomOf(s, what);
  if (const auto value = sim::parseNumber<int>(atom)) return *value;
  throw RuleParseError(std::string("expected integer ") + what + ", got '" +
                       atom + "'");
}

/// Parse (SLOT operand) pairs from items[from..].
std::vector<std::pair<std::string, Operand>> parseSlotOperands(
    const Sexp& list, std::size_t from) {
  std::vector<std::pair<std::string, Operand>> out;
  for (std::size_t i = from; i < list.items.size(); ++i) {
    const Sexp& pair = list.items[i];
    if (pair.isAtom || pair.items.size() != 2) {
      throw RuleParseError("expected (slot value) pair");
    }
    out.emplace_back(atomOf(pair.items[0], "slot name"),
                     Operand::parse(atomOf(pair.items[1], "slot value")));
  }
  return out;
}

Pattern parsePattern(const Sexp& s, bool negated) {
  if (s.isAtom || s.items.empty()) throw RuleParseError("expected a pattern");
  Pattern p;
  p.negated = negated;
  p.templateName = atomOf(s.items[0], "template name");
  for (const auto& [slot, operand] : parseSlotOperands(s, 1)) {
    SlotTest test;
    test.slot = slot;
    if (operand.isVariable) {
      test.kind = SlotTest::Kind::kVariable;
      test.variable = operand.variable;
    } else {
      test.kind = SlotTest::Kind::kLiteral;
      test.literal = operand.literal;
    }
    p.tests.push_back(std::move(test));
  }
  return p;
}

ConditionTest parseTest(const Sexp& s) {
  // s is the inner (OP a b).
  if (s.isAtom || s.items.size() != 3) {
    throw RuleParseError("test expects (op lhs rhs)");
  }
  ConditionTest t;
  try {
    t.op = parseCmpOp(atomOf(s.items[0], "comparison operator"));
  } catch (const std::invalid_argument& e) {
    throw RuleParseError(e.what());
  }
  t.lhs = Operand::parse(atomOf(s.items[1], "test operand"));
  t.rhs = Operand::parse(atomOf(s.items[2], "test operand"));
  return t;
}

RuleAction parseAction(const Sexp& s) {
  if (s.isAtom || s.items.empty() || !s.items[0].isAtom) {
    throw RuleParseError("expected an action list");
  }
  const std::string& head = s.items[0].atom;
  RuleAction a;
  if (head == "assert") {
    if (s.items.size() != 2 || s.items[1].isAtom || s.items[1].items.empty()) {
      throw RuleParseError("assert expects one fact form");
    }
    a.kind = RuleAction::Kind::kAssert;
    const Sexp& fact = s.items[1];
    a.templateName = atomOf(fact.items[0], "template name");
    a.slots = parseSlotOperands(fact, 1);
    return a;
  }
  if (head == "retract") {
    if (s.items.size() != 2) throw RuleParseError("retract expects an index");
    a.kind = RuleAction::Kind::kRetract;
    a.patternIndex = intOf(s.items[1], "pattern index");
    return a;
  }
  if (head == "modify") {
    if (s.items.size() < 3) {
      throw RuleParseError("modify expects an index and slot pairs");
    }
    a.kind = RuleAction::Kind::kModify;
    a.patternIndex = intOf(s.items[1], "pattern index");
    a.slots = parseSlotOperands(s, 2);
    return a;
  }
  if (head == "call") {
    if (s.items.size() < 2) throw RuleParseError("call expects a function name");
    a.kind = RuleAction::Kind::kCall;
    a.function = atomOf(s.items[1], "function name");
    for (std::size_t i = 2; i < s.items.size(); ++i) {
      a.args.push_back(Operand::parse(atomOf(s.items[i], "call argument")));
    }
    return a;
  }
  throw RuleParseError("unknown action: " + head);
}

Rule parseDefrule(const Sexp& s) {
  if (s.items.size() < 2 || !s.items[0].isAtom || s.items[0].atom != "defrule") {
    throw RuleParseError("expected (defrule ...)");
  }
  Rule rule;
  rule.name = atomOf(s.items[1], "rule name");

  std::size_t i = 2;
  bool seenArrow = false;
  for (; i < s.items.size(); ++i) {
    const Sexp& item = s.items[i];
    if (item.isAtom) {
      if (item.atom == "=>") {
        seenArrow = true;
        ++i;
        break;
      }
      throw RuleParseError("unexpected atom in rule body: " + item.atom);
    }
    if (!item.items.empty() && item.items[0].isAtom) {
      const std::string& head = item.items[0].atom;
      if (head == "declare") {
        if (item.items.size() < 2) {
          throw RuleParseError("malformed declare in rule " + rule.name);
        }
        for (std::size_t d = 1; d < item.items.size(); ++d) {
          const Sexp& decl = item.items[d];
          if (decl.isAtom || decl.items.size() != 2 || !decl.items[0].isAtom ||
              decl.items[0].atom != "salience") {
            throw RuleParseError("malformed declare in rule " + rule.name);
          }
          rule.salience = intOf(decl.items[1], "salience");
        }
        continue;
      }
      if (head == "not") {
        if (item.items.size() != 2) {
          throw RuleParseError("not expects one pattern");
        }
        rule.lhs.push_back(parsePattern(item.items[1], /*negated=*/true));
        continue;
      }
      if (head == "test") {
        if (item.items.size() != 2) {
          throw RuleParseError("test expects one expression");
        }
        rule.tests.push_back(parseTest(item.items[1]));
        continue;
      }
    }
    rule.lhs.push_back(parsePattern(item, /*negated=*/false));
  }
  if (!seenArrow) {
    throw RuleParseError("rule " + rule.name + " is missing '=>'");
  }
  for (; i < s.items.size(); ++i) {
    rule.rhs.push_back(parseAction(s.items[i]));
  }
  return rule;
}

}  // namespace

std::vector<Rule> parseRules(const std::string& text) {
  std::vector<Rule> out;
  for (const Sexp& s : readAll(text)) {
    out.push_back(parseDefrule(s));
  }
  return out;
}

std::vector<std::pair<std::string, SlotMap>> parseFactList(
    const std::string& text) {
  std::vector<std::pair<std::string, SlotMap>> out;
  for (const Sexp& s : readAll(text)) {
    if (s.isAtom || s.items.empty()) {
      throw RuleParseError("expected a fact form");
    }
    std::pair<std::string, SlotMap> fact;
    fact.first = atomOf(s.items[0], "template name");
    for (const auto& [slot, operand] : parseSlotOperands(s, 1)) {
      if (operand.isVariable) {
        throw RuleParseError("facts cannot contain variables");
      }
      fact.second.emplace(slot, operand.literal);
    }
    out.push_back(std::move(fact));
  }
  return out;
}

std::vector<std::string> loadRules(InferenceEngine& engine,
                                   const std::string& text) {
  std::vector<std::string> names;
  for (Rule& rule : parseRules(text)) {
    names.push_back(rule.name);
    engine.addRule(std::move(rule));
  }
  return names;
}

}  // namespace softqos::rules
