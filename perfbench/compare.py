#!/usr/bin/env python3
"""Compare two sets of benchmark results by their end-to-end medians.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records as run.py appends them to
<build dir>/results.jsonl. Only untraced runs are compared, per workload.
Two sets are compared only when their machine fingerprints agree:
compiler, build type and nproc. Otherwise the script refuses (exit 2).
The spin probe's effective parallelism is printed for both sets but not
compared: on a shared machine it varies from run to run (0.8 to 3.0 on one
4-vCPU container). A metric whose median got worse by more than its
BENCHMARK.json bound is reported as a regression (exit 1).
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def machine(records):
    keys = {(r["fingerprint"]["compiler"], r["fingerprint"]["build_type"],
             r["fingerprint"]["nproc"]) for r in records}
    return keys.pop() if len(keys) == 1 else None


def parallelism(records):
    return statistics.median(r["fingerprint"]["effective_parallelism"]
                             for r in records)


def medians(records):
    by = {}
    for r in records:
        if r["trace"] != 0:
            continue
        for name, m in r["result"]["metrics"].items():
            by.setdefault((r["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in by.items()}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    mb, mn = machine(base), machine(new)
    if mb is None or mn is None or mb != mn:
        print("refusing to compare: machine fingerprints differ: %s vs %s"
              % (mb, mn), file=sys.stderr)
        return 2
    print("effective parallelism (median): %.2f -> %.2f"
          % (parallelism(base), parallelism(new)))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    before, after = medians(base), medians(new)
    regressed = False
    for key in sorted(set(before) & set(after)):
        workload, name = key
        m = spec.get(name)
        if m is None:
            continue
        change = (after[key] - before[key]) / before[key] if before[key] else 0.0
        worse = change if m["better"] == "lower" else -change
        verdict = "REGRESSED" if worse > m["bound"] else "ok"
        regressed |= verdict != "ok"
        print("%-6s %-12s %14.6g -> %-14.6g %+7.1f%%  bound %4.0f%%  %s"
              % (workload, name, before[key], after[key], 100 * change,
                 100 * m["bound"], verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
