#include "sim/text.hpp"

namespace softqos::sim {

std::vector<std::string> splitString(std::string_view s, char delim,
                                     std::size_t maxParts) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    if (maxParts != 0 && out.size() + 1 == maxParts) {
      out.emplace_back(s.substr(start));
      return out;
    }
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::optional<std::uint64_t> parseU64(std::string_view s) {
  if (s.empty() || s.size() > 19) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace softqos::sim
