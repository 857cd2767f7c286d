#include "sim/text.hpp"

#include <cctype>

namespace softqos::sim {

std::vector<std::string_view> split(std::string_view s, char delim,
                                    std::size_t maxParts) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    if (maxParts != 0 && out.size() + 1 == maxParts) {
      out.push_back(s.substr(start));
      return out;
    }
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trimEnd(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  return trimEnd(s);
}

FieldReader::FieldReader(std::string_view body, std::string_view lastKey) {
  if (body.empty()) return;
  while (true) {
    const std::size_t eq = body.find('=');
    const std::size_t semi = body.find(';');
    // Every field needs a non-empty key and its '=' before the next ';' (a
    // trailing ';' leaves an empty field, which fails the same way).
    if (eq == 0 || eq == std::string_view::npos || eq > semi) {
      fields_.clear();
      return;
    }
    const std::string_view key = body.substr(0, eq);
    if (semi == std::string_view::npos || key == lastKey) {
      fields_.emplace_back(key, body.substr(eq + 1));
      return;
    }
    fields_.emplace_back(key, body.substr(eq + 1, semi - eq - 1));
    body.remove_prefix(semi + 1);
  }
}

std::optional<std::string_view> FieldReader::get(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

}  // namespace softqos::sim
