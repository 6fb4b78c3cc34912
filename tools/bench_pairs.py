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

Last, one verdict per measured (not deterministic) metric, the first of
these that holds:

  won         the change wins at least 9 of every 10 pairs (a tie
              counts for neither side) and its median beats the
              parent's by more than the parent's quartile spread;
  worse       the change's median is worse than the parent's by more
              than the metric's BENCHMARK.json bound (a fraction);
  unresolved  the parent's range exceeds the bound relative to its
              median, and not every change run beats every parent run;
  unchanged   otherwise.

    python3 tools/bench_pairs.py --self-test

checks the verdict rule on synthetic pairs and exits non-zero if it
misjudges one.

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


def verdict(pairs, lower, bound):
    """Verdict on (parent, change) value pairs; see the module doc.

    Returns (verdict, wins). `lower` is True when lower is better and
    `bound` is the BENCHMARK.json bound as a fraction of the parent's
    median.
    """
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(better(c, p) for p, c in pairs)
    p_med, p_q1, p_q3, p_lo, p_hi = summary(parent)
    c_med = statistics.median(change)
    if (wins * 10 >= 9 * len(pairs) and better(c_med, p_med)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "won", wins
    if better(p_med, c_med) and abs(c_med - p_med) > bound * abs(p_med):
        return "worse", wins
    every_beats = (max(change) < p_lo) if lower else (min(change) > p_hi)
    if p_hi - p_lo > bound * abs(p_med) and not every_beats:
        return "unresolved", wins
    return "unchanged", wins


def self_test():
    """Check verdict() on synthetic pairs that reach every outcome."""
    flat = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    cases = [
        # 10/10 wins, medians 20% apart against a 0.2 quartile spread.
        ("won", [(p, p * 0.8) for p in flat], True, 0.24),
        # The same on a higher-is-better metric.
        ("won", [(p, p * 1.2) for p in flat], False, 0.24),
        # 9 wins and one loss still win.
        ("won", [(p, p * 0.8) for p in flat[:9]] + [(10.0, 10.5)],
         True, 0.24),
        # 8 wins of 10 do not: the medians move less than the bound.
        ("unchanged", [(p, p * 0.9) for p in flat[:8]] +
         [(10.0, 10.5), (10.0, 10.6)], True, 0.24),
        # Ties count for neither side.
        ("unchanged", [(p, p) for p in flat], True, 0.24),
        # Every pair won, but by less than the parent's quartile spread.
        ("unchanged", [(p, p - 0.01) for p in flat], True, 0.24),
        # 30% slower against a 24% bound.
        ("worse", [(p, p * 1.3) for p in flat], True, 0.24),
        # 30% lower on a higher-is-better metric.
        ("worse", [(p, p * 0.7) for p in flat], False, 0.24),
        # The parent spans 50%-150% of its median: too wide to tell.
        ("unresolved", [(5.0, 10.0), (15.0, 10.2)] +
         [(p, p + 0.1) for p in flat[:8]], True, 0.24),
        # A bimodal parent whose quartile spread hides a win in every
        # pair: every change run beats every parent run, so the wide
        # range does not make it unresolved.
        ("unchanged", [(1.0, 0.9)] * 5 + [(20.0, 0.9)] * 5, True, 0.24),
    ]
    failed = 0
    for i, (want, pairs, lower, bound) in enumerate(cases):
        got, wins = verdict(pairs, lower, bound)
        ok = got == want
        failed += not ok
        print("case %d: want %s, got %s (%d/%d wins)%s"
              % (i, want, got, wins, len(pairs), "" if ok else "  FAIL"))
    print("self-test: %s" % ("ok" if not failed else "%d FAILED" % failed))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", help="seeds, e.g. 32-41 or 1,2,5")
    parser.add_argument("--self-test", action="store_true",
                        help="check the verdict rule and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload and args.seeds):
        parser.error("--parent, --change, --workload and --seeds are "
                     "required")

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
    for name, m in e2e.items():
        both = [(value(p, name), value(c, name)) for _, p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        if name in DETERMINISTIC or not both:
            continue
        got, wins = verdict(both, m["better"] == "lower", m["bound"])
        print("verdict %s: %s (change won %d of %d pairs, bound %g)"
              % (name, got, wins, len(both), m["bound"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
