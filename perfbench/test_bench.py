#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/test_bench.py

Checks that BENCHMARK.json is well formed, that a run emits every metric
it names with the stated unit, that a planted wrong expected digest makes
a run fail, and that a directory holding only the benchmark fails
without printing a result. Uses the cheapest workload (fuzz) with a
one-second budget; scratch files go under .bench_build/.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(trace, extra=(), root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", "fuzz", "--seed", "1", "--seconds", "1",
         "--trace", str(trace)] + list(extra),
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


class BenchmarkSpec(unittest.TestCase):
    def test_keys_names_units_bounds(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"]]
        names += [m["name"] for m in SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class BenchmarkRun(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_untraced_run_emits_end_to_end_metrics(self):
        code, lines = run_bench(0)
        self.assertEqual(code, 0)
        result = result_of(lines)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.check_metrics(result, SPEC["end_to_end"])
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_traced_run_emits_per_layer_metrics(self):
        code, lines = run_bench(1)
        self.assertEqual(code, 0)
        result = result_of(lines)
        self.assertTrue(result["correct"])
        self.check_metrics(result, SPEC["per_layer"])
        self.assertGreater(
            result["metrics"]["obs.trace_overhead_ratio"]["value"], 0)

    def test_planted_wrong_digest_fails(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)
        digest = expected["digests"]["fuzz"]
        expected["digests"]["fuzz"] = digest[:-1] + (
            "0" if digest[-1] != "0" else "1")
        planted = os.path.join(SCRATCH, "expected.json")
        with open(planted, "w") as f:
            json.dump(expected, f)
        code, lines = run_bench(0, ["--expected", planted])
        self.assertNotEqual(code, 0)
        self.assertFalse(result_of(lines)["correct"])

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run_bench(0, root=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
