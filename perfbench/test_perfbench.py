#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/test_perfbench.py

Covers the C++ arithmetic (percentile selection, span self time, host
normalization, the tracer; src/selftest.cpp), the metric and unit schema
of BENCHMARK.json, that every metric a run measures is listed there, and
determinism: two short runs at one seed must give identical
deterministic metrics, untraced and traced. Builds what it needs with
run.py's build step; the short runs take about a minute.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark entry point: build step, paths)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer metrics that depend on the host rather than on the inputs:
# times, and the scheduler and tracing ratios.
HOST_UNITS = ("ms", "us")
HOST_LAYERS = re.compile(r"^(util|trace)\.")


def perfbench(*args):
    """Run the built perfbench; return (exit code, stdout lines)."""
    proc = subprocess.run([str(run.BUILD / "perfbench"), *args],
                          stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def short_run(workload, trace, trace_out=None):
    """A one-second run at seed 7; returns (exit code, result, problems)."""
    args = ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace)]
    if trace_out:
        args += ["--trace-out", trace_out]
    code, lines = perfbench(*args)
    result, problems = run.to_result(lines[-1], trace, run.load_spec())
    return code, result, problems


class SelfTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(["perfbench", "perfbench_selftest"]):
            raise RuntimeError("perfbench build failed")

    def test_arithmetic(self):
        proc = subprocess.run([str(run.BUILD / "perfbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_schema(self):
        s = run.load_spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in s[k]] + [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)), "names are unique")
        for n in names:
            self.assertRegex(n, NAME)
        for k in ("end_to_end", "per_layer"):
            for m in s[k]:
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]),
                         "setup_s has the largest bound")
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_untraced_runs_repeat(self):
        for w in [w["name"] for w in run.load_spec()["workloads"]]:
            with self.subTest(workload=w):
                code_a, a, problems = short_run(w, 0)
                code_b, b, _ = short_run(w, 0)
                self.assertEqual(problems, [])
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertTrue(a["correct"] and b["correct"])
                self.assertEqual(a["failed"], 0)
                self.assertEqual(a["attempted"], b["attempted"])
                for m in ("modeled_speedup", "train_loss"):
                    self.assertEqual(a["metrics"][m], b["metrics"][m], m)

    def test_traced_runs_repeat(self):
        for w in [w["name"] for w in run.load_spec()["workloads"]]:
            with self.subTest(workload=w):
                tmp = run.ROOT / ".bench_build" / "selftest"
                tmp.mkdir(parents=True, exist_ok=True)
                out = str(tmp / (w + "-a.json"))
                code_a, a, problems = short_run(w, 1, out)
                code_b, b, _ = short_run(w, 1, str(tmp / (w + "-b.json")))
                self.assertEqual(problems, [])
                self.assertEqual((code_a, code_b), (0, 0))
                for name, v in a["metrics"].items():
                    if not (v["unit"] in HOST_UNITS or
                            HOST_LAYERS.match(name)):
                        self.assertEqual(v, b["metrics"][name], name)
                trace = json.loads(Path(out).read_text())
                events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
                self.assertTrue(events)
                for e in events:
                    self.assertGreaterEqual(e["dur"], 0)
                    self.assertLessEqual(e["args"]["self_us"],
                                         e["dur"] + 1e-3)

if __name__ == "__main__":
    unittest.main()
