#!/usr/bin/env python3
"""Tests for the benchmark itself.

  python3 perfbench/test_bench.py

Checks that BENCHMARK.json is well formed, that every metric each workload
prints matches BENCHMARK.json by name and unit, that a short run of each
workload passes its correctness gate, that the held-out seed produces work of
the same shape as the sizing seed, and that the benchmark fails cleanly
without the simulator sources. Builds through run.py, so the first run
compiles the simulator (a few minutes).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SIZING_SEED = 1
HELD_OUT_SEED = 7

# Operation-mix ratios that must stay close between the sizing seed and the
# held-out seed, with their relative tolerance. The marketplace's borrowing
# share depends on which VM sizes a trace draws (60-82 aggregate placements
# over seeds 1-15), so it gets a wider band than the engine ratios.
SHAPE = {
    "storm": {"net.msgs_per_op": 0.05, "sim.events_per_barrier": 0.05,
              "sim.horizon_ns_mean": 0.05, "storm.cache_hit_ratio": 0.15},
    "cluster-borrow": {"sim.events_per_barrier": 0.1, "sim.horizon_ns_mean": 0.1,
                       "cluster.consolidation_mean": 0.05, "cluster.remote_frac": 0.35},
    "dsm-paper": {"mem.hit_ratio": 0.05, "net.msgs_per_op": 0.05, "mem.fault_sim_us_p50": 0.05},
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

_cache = {}


def run(workload, trace, seed=SIZING_SEED, min_reps=0):
    """Runs one short benchmark (cached); returns (exit code, stdout lines, summary)."""
    key = (workload, trace, seed, min_reps)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "0",
             "--trace", str(trace), "--min-reps", str(min_reps)], cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        _cache[key] = (proc.returncode, lines, json.loads(lines[-1]))
    return _cache[key]


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                      "per_layer"})
        self.assertEqual([w["name"] for w in BENCH["workloads"]], ["storm", "cluster-borrow", "dsm-paper"])
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in BENCH["end_to_end"])}])


class WorkloadTest(unittest.TestCase):
    def check_metrics(self, workload, trace, expected):
        code, lines, summary = run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertEqual(set(summary), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(summary["correct"])
        self.assertEqual(summary["failed"], 0)
        self.assertGreaterEqual(summary["attempted"], 1)
        want = {m["name"]: m["unit"] for m in expected}
        got = {k: v["unit"] for k, v in summary["metrics"].items()}
        self.assertEqual(got, want)
        printed = {}
        for line in lines:
            parts = line.split()
            if parts and parts[0] == "metric":
                printed[parts[1]] = parts[3]
        self.assertEqual(printed, want)

    def test_end_to_end_metrics(self):
        for w in SHAPE:
            with self.subTest(workload=w):
                self.check_metrics(w, 0, BENCH["end_to_end"])
                for name in ("ops_per_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(run(w, 0)[2]["metrics"][name]["value"], 0)

    def test_per_layer_metrics(self):
        for w in SHAPE:
            with self.subTest(workload=w):
                self.check_metrics(w, 1, BENCH["per_layer"])

    def test_traced_figures_survive_an_untraced_last_repetition(self):
        # Repetitions alternate untraced and traced; three end on an untraced
        # one, whose Access calls are not timed.
        code, lines, summary = run("dsm-paper", 1, min_reps=3)
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertIn("2 untraced + 1 traced repetitions", "\n".join(lines))
        for name in ("mem.access_hit_ns", "mem.access_miss_ns", "sim.queue_ns"):
            self.assertGreater(summary["metrics"][name]["value"], 0, name)

    def test_held_out_seed_has_the_same_shape(self):
        for w, keys in SHAPE.items():
            with self.subTest(workload=w):
                code, lines, held = run(w, 1, HELD_OUT_SEED)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertTrue(held["correct"])
                sized = run(w, 1)[2]
                for k, tolerance in keys.items():
                    a = sized["metrics"][k]["value"]
                    b = held["metrics"][k]["value"]
                    self.assertLessEqual(abs(a - b), tolerance * abs(a), "%s %s" % (w, k))
        self.assertGreater(run("cluster-borrow", 1, HELD_OUT_SEED)[2]["metrics"]
                           ["cluster.placed_aggregate"]["value"], 0)


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "storm", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
