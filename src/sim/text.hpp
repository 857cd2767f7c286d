// Field splitting and strict integer parsing for the text wire formats: RPC
// framing, violation reports, control commands, host-manager replies and
// telemetry snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace softqos::sim {

/// Split `s` on `delim` into at most `maxParts` pieces (the last keeps the
/// remainder; 0 means no limit).
std::vector<std::string> splitString(std::string_view s, char delim,
                                     std::size_t maxParts = 0);

/// Strict unsigned parse: the whole string must be 1-19 decimal digits.
/// Corrupted or malformed fields yield nullopt instead of UB/throws.
std::optional<std::uint64_t> parseU64(std::string_view s);

}  // namespace softqos::sim
