#!/usr/bin/env python3
"""Run one softqos benchmark workload and print its result.

    python3 perfbench/run.py --workload fig3|city|chaos|churn --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt, Release) under
$CARGO_TARGET_DIR or .bench_build; later runs only re-check the build.
The workload runs for about S seconds of host time, checks its own outputs,
and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set; with
--trace 1 they are its per_layer set. Lines before it carry the build and
machine fingerprint and every check. Each result is also appended, with its
fingerprint, to <build dir>/results.jsonl.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIG3_SEED = 1234
FIG3_CSV_MD5 = "e7edb3aaccc976ea40a09fa01b024beb"
# Beyond --seconds, a run may overrun by one episode (a few seconds, one
# traced episode on a slow machine) and then runs the spin probe.
RUN_MARGIN_S = 120


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out_dir, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(min(2, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out_dir, "--target", "softqos_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise RuntimeError("build failed")
    return os.path.join(out_dir, "softqos_perfbench")


def source_hash():
    """sha256 over every file of src/ and perfbench/: the code identity when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def evaluate(args, spec, raw):
    """Turn the binary's report into the result object plus its checks."""
    report = raw["report"]
    checks = list(report["checks"])
    if args.workload == "fig3" and args.seed == FIG3_SEED:
        md5 = hashlib.md5(report["artifacts"]["fig3_csv"].encode()).hexdigest()
        checks.append({"name": "fig3.csv_md5", "ok": md5 == FIG3_CSV_MD5,
                       "detail": md5})
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    emitted = report["metrics"]
    checks.append({"name": "metrics_match_benchmark_json",
                   "ok": set(emitted) == set(names) and
                   all(emitted[n]["unit"] == u for n, u in names.items()),
                   "detail": " ".join(sorted(set(emitted) ^ set(names)))})
    checks.append({"name": "no_failed_operations",
                   "ok": report["ops_failed"] == 0,
                   "detail": "%d of %d" % (report["ops_failed"], report["ops"])})
    failed_checks = sum(1 for c in checks if not c["ok"])
    result = {
        "correct": failed_checks == 0,
        "attempted": report["ops"] + len(checks),
        "failed": report["ops_failed"] + failed_checks,
        "metrics": {n: {"value": emitted[n]["value"], "unit": u}
                    for n, u in names.items() if n in emitted},
    }
    return result, checks


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except RuntimeError as e:
        log("perfbench:", e)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % args.workload)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: %s exited %d" % (args.workload, proc.returncode))
        return 4
    raw = json.loads(lines[-1])
    result, checks = evaluate(args, spec, raw)

    fingerprint = dict(raw["fingerprint"])
    fingerprint["git_sha"] = git_sha()
    fingerprint["source_sha256"] = source_hash()
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for c in checks:
        print("check %-40s %s %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                     c["detail"]))
    for key, value in sorted(raw["report"]["info"].items()):
        print("info %s=%s" % (key, value))
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"fingerprint": fingerprint,
                            "workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
