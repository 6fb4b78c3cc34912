#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload vgg13_train --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. The first run configures and builds
the perfbench program (and the library, from the checkout's own
sources) into .bench_build/perfbench; later runs only check that build
is current. Build output goes to standard error. Standard output is
perfbench's report, whose last line is one JSON object with the keys correct,
attempted, failed and metrics. A traced run (--trace 1) also writes a
Chrome trace-event file under .bench_build/traces/.

BENCHMARK.json is the only list of workloads and metrics: perfbench
prints every metric it measured, and this script keeps the ones listed
for the run's mode and gives them their units. The exit code is 0 only
when the build succeeded, every output check of the run passed and
every measured metric is listed there.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def run_step(cmd):
    """Run one build command with its output on stderr; True on success."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        print("perfbench: build step failed: " + " ".join(cmd),
              file=sys.stderr)
        return False
    return True


def build(targets):
    """Configure once, then bring `targets` up to date; False on failure."""
    configured = BUILD / "configured.stamp"
    if not configured.exists():
        if not run_step(["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"]):
            return False
        configured.touch()
    return run_step(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS,
                     "--target", *targets])


def load_spec():
    """BENCHMARK.json: the only list of workloads, metrics and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def to_result(line, trace, spec):
    """The result line for perfbench's last line, and its problems.

    perfbench prints every metric it measured, by name. The result has
    the metrics BENCHMARK.json lists for the run's mode, with their
    units. An end-to-end metric the run did not measure is a problem; a
    per-layer one reads 0, as the layer did no work on this workload. A
    measured name BENCHMARK.json does not list is a problem too.
    """
    try:
        raw = json.loads(line)
    except json.JSONDecodeError:
        return None, ["the last line is not a JSON object"]
    if set(raw) != {"correct", "attempted", "failed", "metrics"}:
        return None, ["unexpected result keys %s" % sorted(raw)]
    problems = []
    if not isinstance(raw["attempted"], int) or raw["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    measured = raw["metrics"]
    listed = {m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]}
    extra = sorted(set(measured) - listed)
    if extra:
        problems.append("measured metrics BENCHMARK.json does not list: %s"
                        % extra)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in measured and not trace:
            problems.append("end-to-end metric %s was not measured"
                            % m["name"])
        metrics[m["name"]] = {"value": measured.get(m["name"], 0),
                              "unit": m["unit"]}
    return dict(raw, metrics=metrics), problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    if not build(["perfbench"]):
        return 2

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 2

    lines = proc.stdout.rstrip("\n").split("\n")
    result, problems = to_result(lines[-1], args.trace, spec)
    for line in (lines[:-1] if result else lines):
        print(line)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if result is None or problems:
        print("perfbench: exited %d without a valid result" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 2
    print(json.dumps(result))
    return proc.returncode

if __name__ == "__main__":
    sys.exit(main())
