#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload vgg13_train --seeds 32-41

For every seed, runs `python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0` once in each checkout, one after the other, N
being BENCHMARK.json's run_seconds. The side that runs first alternates
from pair to pair, so a slow drift of the host lands on both sides
alike. Each checkout builds its own perfbench from its own sources (the
first run of a side builds it).

Prints, per side, the median, quartiles and range of every end-to-end
metric BENCHMARK.json lists and failed out of attempted; then the pairs
the change won on each of those metrics (by its `better` direction)
except the deterministic ones (train_loss, modeled_speedup), and
whether those are equal seed by seed. Quartiles are the inclusive
linear-interpolation quartiles of the per-seed values.

Run nothing else at the same time: the pairs are only comparable when
the host is otherwise idle. The exit code is 0 when every run produced
a result, whatever the numbers say.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

DETERMINISTIC = ("train_loss", "modeled_speedup")


def parse_seeds(text):
    """'32-41' or '1,2,5' (or a mix, '1-3,7') -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_side(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`: its result object, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def value(result, name):
    return result["metrics"][name]["value"]


def summary(values):
    """(median, q1, q3, min, max) of a list of numbers."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return (statistics.median(values), q1, q3, min(values), max(values))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="seeds, e.g. 32-41 or 1,2,5")
    args = parser.parse_args()

    sides = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    runs = {"parent": [], "change": []}  # (seed, result or None)
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_side(sides[side], args.workload, seed, seconds)
            runs[side].append((seed, result))
            shown = "no result"
            if result:
                shown = "  ".join("%s %.4f" % (n, value(result, n))
                                  for n in e2e if n in result["metrics"])
            print("seed %d %s: %s" % (seed, side, shown), flush=True)

    ok = all(r for side in runs.values() for _, r in side)
    print("\n%s, %d pairs, %d s runs" % (args.workload, len(runs["parent"]),
                                         seconds))
    for side in ("parent", "change"):
        done = [r for _, r in runs[side] if r]
        print("%s:" % side)
        for name, m in e2e.items():
            vals = [value(r, name) for r in done if name in r["metrics"]]
            if not vals:
                continue
            med, q1, q3, lo, hi = summary(vals)
            print("  %-16s median %.4f  quartiles %.4f-%.4f  range "
                  "%.4f-%.4f %s" % (name, med, q1, q3, lo, hi, m["unit"]))
        print("  failed %d of %d attempted" % (
            sum(r["failed"] for r in done), sum(r["attempted"] for r in done)))

    pairs = [(seed, p, c) for (seed, p), (_, c)
             in zip(runs["parent"], runs["change"]) if p and c]
    for name, m in e2e.items():
        both = [(p, c) for _, p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        if name in DETERMINISTIC or not both:
            continue
        lower = m["better"] == "lower"
        wins = sum((value(c, name) < value(p, name)) if lower
                   else (value(c, name) > value(p, name)) for p, c in both)
        print("change won %d of %d pairs on %s" % (wins, len(both), name))
    equal = True
    for seed, p, c in pairs:
        for name in DETERMINISTIC:
            if name in p["metrics"] and value(p, name) != value(c, name):
                equal = False
                print("seed %d: %s differs: parent %r change %r"
                      % (seed, name, value(p, name), value(c, name)))
    print("deterministic metrics (%s) equal on every seed: %s"
          % (", ".join(DETERMINISTIC), "yes" if equal else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
