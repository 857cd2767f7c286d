#!/usr/bin/env bash
# Tree hygiene: fail if any tracked file lives under a build directory, or
# if src/ parses numbers with the lenient C library conversions.
# Build trees (build/, build-sanitize/, build-review/, ...) are generated;
# tracking them bloats the repository and breaks clean checkouts.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

tracked="$(git ls-files | grep -E '^build[^/]*/' || true)"
if [[ -n "$tracked" ]]; then
  echo "error: build artifacts are tracked in git:" >&2
  echo "$tracked" | head -20 >&2
  count="$(echo "$tracked" | wc -l)"
  echo "($count file(s); run: git rm -r --cached <dir>)" >&2
  exit 1
fi

# atoi/strtod/sscanf/std::stoi read "4x2" as 4 and "abc" as 0, or throw an
# untyped std::invalid_argument; every parser uses sim::parseNumber instead.
lenient="$(git grep -nE \
  'std::(ato(i|l|ll|f)|strto[a-z]+|sto(i|l|ll|ul|ull|f|d|ld)|sscanf)\b' \
  -- src || true)"
if [[ -n "$lenient" ]]; then
  echo "error: lenient number parsing in src/ (use sim::parseNumber):" >&2
  echo "$lenient" >&2
  exit 1
fi

echo "tree hygiene OK: no tracked build artifacts, no lenient parsing" >&2
