#!/usr/bin/env python3
"""Tests of the plan-request benchmark. Run from the repository root:

    python3 perfbench/test_run.py

Builds the benchmark, runs its self-check (every workload and every output
check, on tiny datasets), checks that the metrics it prints are the ones
BENCHMARK.json declares, and that it refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def test_self_check_passes(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--self-check"],
            stdout=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(done.returncode, 0, done.stdout)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), run.RESULT_KEYS)
        self.assertTrue(result["correct"])

    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        listed = subprocess.run([run.BINARY, "--list-metrics"],
                                stdout=subprocess.PIPE, text=True,
                                check=True).stdout.split("\n")
        printed = {"end_to_end": [], "per_layer": []}
        for line in filter(None, listed):
            kind, name, unit, better = line.split()
            printed[kind].append((name, unit, better))
        for kind in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"], m["better"])
                        for m in spec[kind]]
            self.assertEqual(declared, printed[kind], kind)
        names = [w["name"] for w in spec["workloads"]]
        usage = subprocess.run([run.BINARY], stderr=subprocess.PIPE,
                               text=True).stderr
        self.assertEqual(usage.split("workloads:")[1].split(), names)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "catalog-mc", "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
