#!/usr/bin/env bash
# Observability smoke: build the obs_export driver, run the traced testbed
# (fig3-style and chaos modes) plus the sampled chaos city, and validate the
# exports — well-formed JSON, spans properly nested inside their parents'
# envelopes, complete detection -> diagnosis -> actuation -> recovery chains,
# per-retained-trace causal completeness in the city run, and histogram
# exemplars that resolve to occupied buckets and retained traces.
#
# Validation is mandatory: a missing python3 fails the smoke (exit 1) rather
# than silently skipping the checks.
#
#   scripts/obs.sh [build-dir] [out-dir]   (default: build/, build/obs/)
#
# ctest runs it as the `obs` label case (ctest -L obs).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="${2:-$build_dir/obs}"

driver="$build_dir/bench/obs_export"
if [[ ! -x "$driver" ]]; then
  echo "building obs_export in $build_dir ..." >&2
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" --target obs_export -j >/dev/null
fi

if ! command -v python3 >/dev/null 2>&1; then
  echo "obs smoke: FAIL — python3 is required to validate the exports" >&2
  exit 1
fi

mkdir -p "$out_dir"
echo "=== fig3-style traced run ===" >&2
"$driver" "$out_dir/trace.json" "$out_dir/metrics.json"
echo "=== chaos traced run ===" >&2
"$driver" --chaos "$out_dir/trace_chaos.json" "$out_dir/metrics_chaos.json"
echo "=== sampled chaos city run ===" >&2
"$driver" --city "$out_dir/trace_city.json" "$out_dir/metrics_city.json" \
    "$out_dir/domain_city.json" "$out_dir/flight_city.json" \
    "$out_dir/attribution_city.json" "$out_dir/budget_city.json" \
    "$out_dir/flame_city.txt" "$out_dir/speedscope_city.json" \
    | tee "$out_dir/city.log" >&2
victim="$(sed -n 's/^victim host: \([^ ]*\) .*/\1/p' "$out_dir/city.log")"

python3 - "$out_dir/trace.json" "$out_dir/trace_chaos.json" <<'EOF'
import json, sys

for path in sys.argv[1:]:
    with open(path) as f:
        data = json.load(f)  # throws on malformed JSON
    events = data["traceEvents"]
    assert events, f"{path}: no trace events"

    by_id = {}
    for e in events:
        assert e["ph"] == "X", f"{path}: unexpected phase {e['ph']}"
        assert e["dur"] >= 0, f"{path}: negative duration in {e['name']}"
        by_id[e["args"]["span_id"]] = e

    # Envelope nesting: every child must lie inside its parent.
    nested = 0
    for e in events:
        parent = by_id.get(e["args"].get("parent_span_id"))
        if parent is None:
            continue
        nested += 1
        cs, ce = e["ts"], e["ts"] + e["dur"]
        ps, pe = parent["ts"], parent["ts"] + parent["dur"]
        assert ps <= cs and ce <= pe, (
            f"{path}: span {e['name']} [{cs},{ce}] escapes parent "
            f"{parent['name']} [{ps},{pe}]")
    assert nested > 0, f"{path}: no nested spans at all"

    # At least one complete causal chain.
    chains = {}
    for e in events:
        chains.setdefault(e["tid"], set()).add(e["name"].split(":")[0])
    complete = sum(
        1 for names in chains.values()
        if "episode" in names and "diagnose" in names
        and ("actuate" in names or "corrective" in names)
        and "recovered" in names)
    assert complete >= 1, f"{path}: no complete detection->recovery chain"
    print(f"{path}: {len(events)} events, {nested} nested, "
          f"{complete} complete chain(s) -- OK")

for path in sys.argv[1:]:
    json.load(open(path.replace("trace", "metrics")))
print("metrics snapshots well-formed -- OK")
EOF

# City validation: every retained trace must be causally complete — an
# episode that detected a violation must carry its diagnosis (the only
# exemption is the crashed victim host, whose manager is down: detection
# without diagnosis is exactly the signal tail sampling must retain), every
# injected fault must appear as a complete retained "contract:" trace, and
# the domain rollup's exemplars must reference occupied buckets and resolve
# to retained traces.
python3 - "$out_dir" "$victim" <<'EOF'
import json, sys

out_dir, victim = sys.argv[1], sys.argv[2]
assert victim, "city run printed no victim host"

data = json.load(open(f"{out_dir}/trace_city.json"))
events = data["traceEvents"]
assert events, "city: no retained trace events"

traces = {}
for e in events:
    traces.setdefault(e["tid"], []).append(e)

full_chains = 0
contract_roots = set()
for tid, es in sorted(traces.items()):
    roots = [e for e in es if "retain_reason" in e["args"]]
    assert len(roots) == 1, f"city trace {tid}: expected 1 root, got {len(roots)}"
    root = roots[0]
    assert root["args"]["complete"] in ("0", "1"), f"city trace {tid}: bad complete flag"
    complete = root["args"]["complete"] == "1"
    names = {e["name"].split(":")[0] for e in es}
    if root["name"].startswith("contract:"):
        assert complete, f"city trace {tid}: incomplete contract trace {root['name']}"
        contract_roots.add(root["name"])
        continue
    assert root["name"].startswith("episode"), \
        f"city trace {tid}: unexpected root {root['name']}"
    assert "violation" in names, f"city trace {tid}: episode without a violation"
    if complete:
        assert "recovered" in names, f"city trace {tid}: complete episode never recovered"
    # The detect -> diagnose chain: mandatory everywhere a manager was alive.
    if "diagnose" not in names:
        assert root["cat"] == victim, (
            f"city trace {tid}: episode on {root['cat']} detected a violation "
            f"but was never diagnosed (manager was alive)")
        continue
    if "actuate" in names or "corrective" in names:
        full_chains += 1

assert full_chains >= 1, "city: no complete detect->diagnose->actuate chain"
for kind in ("contract:liveliness-lost", "contract:owner-changed"):
    assert kind in contract_roots, f"city: injected fault left no retained {kind} trace"

# Exemplars: every one must sit on an occupied bucket of its histogram,
# carry a nonzero trace id, and resolve (via sampled_trace) either to a
# retained trace present in the export or to 0 (dropped by retention).
domain = json.load(open(f"{out_dir}/domain_city.json"))
retained_tids = {str(tid) for tid in traces}
checked = 0

def check_histograms(obj):
    global checked
    if not isinstance(obj, dict):
        return
    if "buckets" in obj and "exemplars" in obj:
        occupied = {b[0] for b in obj["buckets"]}
        for ex in obj["exemplars"]:
            assert ex["bucket"] in occupied, f"exemplar on empty bucket {ex}"
            assert int(ex["trace"]) != 0, f"exemplar without a trace id {ex}"
            assert ex["when"] >= 0 and ex["value"] >= 0, f"malformed exemplar {ex}"
            sampled = ex.get("sampled_trace", "0")
            assert sampled == "0" or sampled in retained_tids, (
                f"exemplar links to unretained trace {sampled}")
            checked += 1
    for v in obj.values():
        check_histograms(v)

check_histograms(domain)
assert checked >= 1, "city: domain rollup carried no exemplars to validate"

metrics = json.load(open(f"{out_dir}/metrics_city.json"))
obs = metrics["observability"]
assert obs["sampler"]["retained_traces"] == len(traces), \
    "sampler counters disagree with the exported trace count"
flight = json.load(open(f"{out_dir}/flight_city.json"))
kinds = {r["kind"] for r in flight["log"]}
assert {"liveliness-lost", "owner-changed"} <= kinds, \
    "flight recorder missed the injected fault"

print(f"city: {len(traces)} retained traces ({len(contract_roots)} contract kinds), "
      f"{full_chains} full chain(s), {checked} exemplar(s) validated -- OK")
EOF

# Analysis-plane validation: critical-path attribution must be complete
# (every analyzed episode's segments tile [root start, root end] exactly),
# the latency-budget join must carry both SLO and contract-deadline targets,
# and the flame exports must agree with the attribution on total weight.
python3 - "$out_dir" <<'EOF'
import json, sys

out_dir = sys.argv[1]

attr = json.load(open(f"{out_dir}/attribution_city.json"))
assert attr["episodes_analyzed"] >= 1, "attribution: no episodes analyzed"
assert len(attr["episodes"]) == attr["episodes_analyzed"], \
    "attribution: episode list disagrees with the counter"
attributed = 0
for ep in attr["episodes"]:
    segs = ep["segments"]
    assert segs, f"attribution: episode {ep['trace']} has no segments"
    total = sum(s["end"] - s["start"] for s in segs)
    assert total == ep["duration_us"], (
        f"attribution: episode {ep['trace']} segments sum to {total}, "
        f"root duration is {ep['duration_us']}")
    cursor = ep["start"]
    for s in segs:
        assert s["start"] == cursor, \
            f"attribution: episode {ep['trace']} segments do not tile"
        cursor = s["end"]
    assert cursor == ep["start"] + ep["duration_us"], \
        f"attribution: episode {ep['trace']} segments stop short of the root end"
    attributed += ep["duration_us"]
assert attr["components"], "attribution: empty component blame table"

budget = json.load(open(f"{out_dir}/budget_city.json"))
assert budget["episodes"] == attr["episodes_analyzed"], \
    "budget: episode count disagrees with the attribution export"
tiers = {t["tier"] for t in budget["targets"]}
assert "slo" in tiers, "budget: no SLO-derived target"
assert len(tiers) > 1, "budget: no contract-deadline target joined in"
for t in budget["targets"]:
    assert t["budget_us"] > 0, f"budget: non-positive budget in {t['name']}"
    assert 0.0 <= t["over_budget_fraction"] <= 1.0, \
        f"budget: over_budget_fraction out of range in {t['name']}"

flame_total = 0
with open(f"{out_dir}/flame_city.txt") as f:
    for line in f:
        stack, weight = line.rsplit(" ", 1)
        assert stack, "flame: empty stack line"
        flame_total += int(weight)
assert flame_total == attributed, (
    f"flame: collapsed self-weights sum to {flame_total}, "
    f"attribution says {attributed}")

speedscope = json.load(open(f"{out_dir}/speedscope_city.json"))
assert speedscope["shared"]["frames"], "speedscope: no frames"
prof = speedscope["profiles"][0]
assert len(prof["samples"]) == len(prof["weights"]), \
    "speedscope: samples/weights length mismatch"
assert sum(prof["weights"]) == flame_total, \
    "speedscope: weights disagree with the collapsed export"

print(f"city analysis: {attr['episodes_analyzed']} episodes attributed "
      f"({attributed} us on the critical path), {len(budget['targets'])} "
      f"budget targets, flame weight {flame_total} us consistent -- OK")
EOF

echo "obs smoke: traces valid (open them in https://ui.perfetto.dev)" >&2
