"""Tests of the benchmark itself (not of softqos).

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. Every workload runs once untraced and once
traced with a short budget (one episode each), through perfbench/run.py,
which builds the binary on first use.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("fig3", "city", "chaos", "churn")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

_cache = {}


def run(workload, seed, trace, seconds=0.1):
    """Returns (result, stdout lines) of one run, cached per arguments."""
    key = (workload, seed, trace, seconds)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise AssertionError("run.py failed: " + proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        _cache[key] = (json.loads(lines[-1]), lines[:-1])
    return _cache[key]


def info(lines, key):
    for line in lines:
        if line.startswith("info %s=" % key):
            return line.split("=", 1)[1]
    return None


def value(result, name):
    return result["metrics"][name]["value"]


class ContractTest(unittest.TestCase):
    def test_result_line_and_metric_names_match_benchmark_json(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = run(workload, 7, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            result, _ = run(workload, 7, 0)
            for name, m in result["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(m["value"], 0)

    def test_default_seed_checks_pass(self):
        for workload, seed in (("fig3", 1234), ("city", 20260808),
                               ("chaos", 20260808)):
            with self.subTest(workload=workload):
                result, lines = run(workload, seed, 0)
                self.assertTrue(result["correct"], "\n".join(lines))
                recorded = [l for l in lines if "csv_md5" in l or "recorded" in l]
                self.assertTrue(recorded)
                self.assertTrue(all(" ok " in l for l in recorded), recorded)

    def test_missing_sources_fail_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fig3",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, env=env, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class TraceTest(unittest.TestCase):
    def test_callbacks_fit_inside_traced_wall(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run(workload, 7, 1)
                self.assertLessEqual(value(result, "sim.callback_ms"),
                                     value(result, "sim.traced_wall_ms"))
                self.assertGreaterEqual(value(result, "sim.dispatch_self_ms"), 0)

    def test_traced_outputs_match_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, lines = run(workload, 7, 1)
                same = [l for l in lines if l.startswith("check trace.")]
                self.assertTrue(same)
                self.assertTrue(all(" ok " in l for l in same), same)

    def test_every_ratio_comes_with_its_base_counts(self):
        # ratio metric -> (numerator, denominator, scale) as printed
        ratios = {
            "sim.events_per_wall_s": ("sim.events", "sim.traced_wall_ms", 1e3),
            "manager.escalation_delivery": ("manager.escalations_received",
                                            "manager.escalations_sent", 1.0),
            "obs.retention": ("obs.spans_retained", "obs.spans_total", 1.0),
        }
        names = {m["name"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            result, _ = run(workload, 7, 1)
            for ratio, (num, den, scale) in ratios.items():
                with self.subTest(workload=workload, ratio=ratio):
                    self.assertTrue({ratio, num, den} <= names)
                    d = value(result, den)
                    want = scale * value(result, num) / d if d else 0.0
                    self.assertAlmostEqual(value(result, ratio), want,
                                           delta=1e-6 * max(1.0, abs(want)))
            with self.subTest(workload=workload, ratio="trace.overhead_pct"):
                u = value(result, "trace.untraced_step_us")
                t = value(result, "trace.traced_step_us")
                self.assertGreater(u, 0)
                self.assertAlmostEqual(value(result, "trace.overhead_pct"),
                                       100 * (t - u) / u, delta=1e-6)


class DeterminismTest(unittest.TestCase):
    COUNT_UNITS = ("count", "sim_ms", "fps")

    def counts(self, result):
        return {n: m["value"] for n, m in result["metrics"].items()
                if m["unit"] in self.COUNT_UNITS}

    def test_same_seed_same_counts(self):
        for workload in ("fig3", "churn"):
            with self.subTest(workload=workload):
                a, _ = run(workload, 7, 1)
                b, _ = run(workload, 7, 1, seconds=0.2)
                self.assertEqual(self.counts(a), self.counts(b))

    def test_different_seed_different_inputs(self):
        for workload, key in (("fig3", "csv_fnv1a"), ("churn", "digest"),
                              ("city", "digest_fnv1a")):
            with self.subTest(workload=workload):
                _, a = run(workload, 7, 0)
                _, b = run(workload, 8, 0)
                self.assertIsNotNone(info(a, key))
                self.assertNotEqual(info(a, key), info(b, key))


if __name__ == "__main__":
    unittest.main()
