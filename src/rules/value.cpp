#include "rules/value.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

#include "sim/text.hpp"

namespace softqos::rules {

Value Value::integer(std::int64_t v) {
  Value out;
  out.type_ = Type::kInt;
  out.data_ = v;
  return out;
}

Value Value::real(double v) {
  Value out;
  out.type_ = Type::kFloat;
  out.data_ = v;
  return out;
}

Value Value::str(std::string v) {
  Value out;
  out.type_ = Type::kString;
  out.data_ = std::move(v);
  return out;
}

Value Value::symbol(std::string v) {
  Value out;
  out.type_ = Type::kSymbol;
  out.data_ = std::move(v);
  return out;
}

Value Value::boolean(bool v) {
  Value out;
  out.type_ = Type::kBool;
  out.data_ = v;
  return out;
}

Value Value::parseLiteral(const std::string& token) {
  if (token.size() >= 2 && token.front() == '"' && token.back() == '"') {
    return str(token.substr(1, token.size() - 2));
  }
  if (token == "TRUE") return boolean(true);
  if (token == "FALSE") return boolean(false);
  if (const auto asInt = sim::parseNumber<std::int64_t>(token)) {
    return integer(*asInt);
  }
  if (const auto asReal = sim::parseNumber<double>(token)) return real(*asReal);
  return symbol(token);
}

std::int64_t Value::asInt() const {
  if (type_ == Type::kInt) return std::get<std::int64_t>(data_);
  if (type_ == Type::kFloat) {
    return static_cast<std::int64_t>(std::llround(std::get<double>(data_)));
  }
  throw std::logic_error("Value::asInt on non-numeric value");
}

double Value::asFloat() const {
  if (type_ == Type::kFloat) return std::get<double>(data_);
  if (type_ == Type::kInt) {
    return static_cast<double>(std::get<std::int64_t>(data_));
  }
  throw std::logic_error("Value::asFloat on non-numeric value");
}

const std::string& Value::asString() const {
  if (type_ == Type::kString || type_ == Type::kSymbol) {
    return std::get<std::string>(data_);
  }
  throw std::logic_error("Value::asString on non-text value");
}

bool Value::asBool() const {
  if (type_ == Type::kBool) return std::get<bool>(data_);
  throw std::logic_error("Value::asBool on non-boolean value");
}

double Value::numeric() const { return asFloat(); }

bool Value::operator==(const Value& other) const {
  if (isNumeric() && other.isNumeric()) return numeric() == other.numeric();
  if (type_ != other.type_) return false;
  return data_ == other.data_;
}

std::optional<int> Value::compare(const Value& a, const Value& b) {
  if (a.isNumeric() && b.isNumeric()) {
    const double x = a.numeric();
    const double y = b.numeric();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  const bool aText = a.type_ == Type::kString || a.type_ == Type::kSymbol;
  const bool bText = b.type_ == Type::kString || b.type_ == Type::kSymbol;
  if (aText && bText) {
    const int c = a.asString().compare(b.asString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a.type_ == Type::kBool && b.type_ == Type::kBool) {
    const int x = a.asBool() ? 1 : 0;
    const int y = b.asBool() ? 1 : 0;
    return x - y;
  }
  return std::nullopt;
}

std::size_t Value::hash() const {
  // Numerics hash their double view so Value::integer(5) and Value::real(5.0),
  // which compare equal, land in the same bucket.
  if (isNumeric()) return std::hash<double>{}(numeric());
  switch (type_) {
    case Type::kString:
      return std::hash<std::string>{}(std::get<std::string>(data_)) ^ 0x9e3779b9u;
    case Type::kSymbol:
      return std::hash<std::string>{}(std::get<std::string>(data_));
    case Type::kBool:
      return std::get<bool>(data_) ? 0x85ebca6bu : 0xc2b2ae35u;
    default:
      return 0;
  }
}

std::string Value::toString() const {
  switch (type_) {
    case Type::kInt: return std::to_string(std::get<std::int64_t>(data_));
    case Type::kFloat: {
      std::string s = std::to_string(std::get<double>(data_));
      return s;
    }
    case Type::kString: return "\"" + std::get<std::string>(data_) + "\"";
    case Type::kSymbol: return std::get<std::string>(data_);
    case Type::kBool: return std::get<bool>(data_) ? "TRUE" : "FALSE";
  }
  return "?";
}

}  // namespace softqos::rules
