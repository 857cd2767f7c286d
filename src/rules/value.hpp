// Dynamically typed values flowing through the inference engine
// (fact slots, rule-test operands, action arguments).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>

namespace softqos::rules {

class Value {
 public:
  enum class Type { kInt, kFloat, kString, kSymbol, kBool };

  Value() : type_(Type::kSymbol), data_(std::string("nil")) {}

  static Value integer(std::int64_t v);
  static Value real(double v);
  static Value str(std::string v);
  static Value symbol(std::string v);
  static Value boolean(bool v);

  /// Parse a CLIPS-style literal: 42 -> int, 4.2 -> float, "x" -> string,
  /// TRUE/FALSE -> bool, anything else -> symbol. Numbers follow
  /// sim::parseNumber: an integer past int64 reads as a float, and `0x10`
  /// or `1e400` read as symbols.
  static Value parseLiteral(const std::string& token);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool isNumeric() const {
    return type_ == Type::kInt || type_ == Type::kFloat;
  }

  [[nodiscard]] std::int64_t asInt() const;
  [[nodiscard]] double asFloat() const;
  [[nodiscard]] const std::string& asString() const;  // string or symbol text
  [[nodiscard]] bool asBool() const;

  /// Numeric view (int widened to double). Precondition: isNumeric().
  [[nodiscard]] double numeric() const;

  /// Equality: numerics compare by value across int/float; strings and
  /// symbols compare by text within their own type.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Three-way ordering (-1/0/1); nullopt when the types are not comparable
  /// (e.g. string vs int). Numerics order numerically; strings/symbols
  /// lexicographically.
  static std::optional<int> compare(const Value& a, const Value& b);

  /// Render for traces and reports (strings are quoted).
  [[nodiscard]] std::string toString() const;

  /// Hash consistent with operator==: numerics that compare equal across
  /// int/float hash identically (both hash their double view).
  [[nodiscard]] std::size_t hash() const;

 private:
  Type type_;
  std::variant<std::int64_t, double, std::string, bool> data_;
};

}  // namespace softqos::rules
