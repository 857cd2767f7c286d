// The one text toolkit for softqos's wire frames and policy languages:
// field splitting, trimming, strict numbers and the `key=value;...` reader
// for RPC bodies. Every parser in src/ builds on these; none of them uses
// the lenient C library conversions (atoi, strtod, sscanf, stoi).
#pragma once

#include <charconv>
#include <cstddef>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace softqos::sim {

/// Split `s` on `delim` into at most `maxParts` views into `s` (the last
/// keeps the remainder, delimiters included; 0 means no limit).
std::vector<std::string_view> split(std::string_view s, char delim,
                                    std::size_t maxParts = 0);

/// `s` without leading and trailing whitespace (std::isspace).
std::string_view trim(std::string_view s);

/// `s` without trailing whitespace.
std::string_view trimEnd(std::string_view s);

/// Strict number parse: all of `s` must be one decimal number that fits T.
/// Signed and floating types take one optional sign (`+` or `-`, as strtod
/// did); unsigned types (ids, counts, pids) take none. Then digits; floating
/// types also take a fraction, an exponent, `inf` and `nan`. Whitespace,
/// hex, a lone or doubled sign, trailing bytes and out-of-range values
/// (`1e400`, a 25-digit integer) all yield nullopt.
template <typename T>
std::optional<T> parseNumber(std::string_view s) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  if constexpr (std::is_signed_v<T>) {
    // std::from_chars takes '-' but not '+'.
    if (!s.empty() && s.front() == '+') {
      s.remove_prefix(1);
      if (!s.empty() && s.front() == '-') return std::nullopt;
    }
  }
  if (s.empty()) return std::nullopt;
  T value{};
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// The `key=value` fields of a `;`-separated RPC body ("pid=4;dir=down").
/// A field named `lastKey` is the body's last: its value runs to the end,
/// `;` included, so free text can ride there. A field without `=` or with an
/// empty key, or a trailing `;`, makes the whole body malformed, and then
/// every lookup misses. An empty body has no fields. Views point into
/// `body`, which must outlive the reader.
class FieldReader {
 public:
  explicit FieldReader(std::string_view body, std::string_view lastKey = {});

  /// The value of the first field named `key`.
  [[nodiscard]] std::optional<std::string_view> get(std::string_view key) const;

  /// That value as a strict number (see parseNumber).
  template <typename T>
  [[nodiscard]] std::optional<T> number(std::string_view key) const {
    const auto value = get(key);
    return value ? parseNumber<T>(*value) : std::nullopt;
  }

 private:
  std::vector<std::pair<std::string_view, std::string_view>> fields_;
};

}  // namespace softqos::sim
