#!/usr/bin/env python3
"""Bench-regression gate for the BENCH_*.json result lines.

Every microbench prints one ``ARTIFACT {json}`` line (see
bench/bench_common.hpp, bench::ResultLine). CI captures the bench
stdout, and this script compares the fresh lines against the committed
baselines at the repository root:

 - The committed ``BENCH_*.json`` files are JSON-lines: one entry per
   recorded configuration, distinguished by ``bench`` and
   ``config.smoke``. CI's smoke runs are compared against committed
   smoke entries; full runs against full entries. A fresh line with no
   committed counterpart of the same mode is reported but not gated
   (there is nothing meaningful to compare across modes).
 - Deterministic keys are always gated: ``modeled_speedup``, every
   ``model_*_speedup`` key, the event-backend ``event_*_speedup``
   keys, and the ``*_agreement_dev`` ceilings (analytic-vs-event
   deviation, bench/sweep_eventsim.cpp) present in both lines.
   Wall-clock keys vary by host and are never gated; ``wall*`` keys
   present in both lines still print an info-only delta line so the
   CI log shows wall drift without failing on it.
 - Kernel-performance keys (``*_gbps``, ``*_cycles_per_row``, and the
   remaining non-``wall*`` ``*_speedup`` keys, from
   bench/micro_kernels.cpp) are gated at 3x the tolerance (TSC and
   bandwidth measurements on shared hosts carry run-to-run noise the
   deterministic modeled keys do not), only on non-smoke entries
   (smoke-mode perf numbers are documented as meaningless in
   bench_common.hpp), and only when both lines carry the same
   ``config.cpu`` (an AVX2 baseline says nothing about a scalar-only
   host). ``*_cycles_per_row`` gates in the opposite
   direction — fewer cycles is better, so the fresh value fails when
   it rises more than the tolerance above the committed one. Every
   perf comparison prints a one-line delta for the CI log, gated or
   not.
 - Modeled speedups are deterministic *given the measured hit mix*,
   and the mix derives from signs of float dot products — a different
   compiler's FMA/reassociation choices can flip a borderline
   signature bit and shift it. When both lines carry ``hit_frac`` and
   they disagree by more than 0.005, the entry is reported and
   skipped instead of gated (re-record the baseline from CI's fresh
   JSON artifact to re-arm it); when the mixes match, a speedup drop
   is a real model/code regression.
 - A gated key fails the run when the fresh value drops more than
   ``--tolerance`` (default 5%) below the committed one. Improvements
   and small noise pass.

Usage:
    check_bench.py [--repo DIR] [--tolerance FRAC]
                   [--write-fresh DIR] OUTPUT_FILE...

OUTPUT_FILE arguments are captured bench stdout (any text; only the
``BENCH_*.json {...}`` lines are read). With ``--write-fresh`` the
fresh lines are also written one file per artifact, for upload as a
workflow artifact.
"""

import argparse
import json
import os
import re
import sys

LINE_RE = re.compile(r"^(BENCH_[A-Za-z0-9_.-]+\.json)\s+(\{.*\})\s*$")


def parse_lines(paths):
    """All ``artifact -> [entry, ...]`` result lines in the files."""
    fresh = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                m = LINE_RE.match(line.strip())
                if not m:
                    continue
                artifact, payload = m.group(1), m.group(2)
                try:
                    entry = json.loads(payload)
                except json.JSONDecodeError as e:
                    print(f"ERROR: unparseable result line in {path}: {e}")
                    sys.exit(2)
                fresh.setdefault(artifact, []).append(entry)
    return fresh


def load_baselines(path):
    """Committed JSON-lines entries of one BENCH_*.json file."""
    entries = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def entry_mode(entry):
    """(bench, smoke-flag) identity of a result line."""
    smoke = entry.get("config", {}).get("smoke", 0)
    return entry.get("bench", "?"), int(smoke)


def key_class(key):
    """Gate class of one result key.

    Returns ``("model", "floor")`` for the deterministic modeled
    speedups, ``("perf", "floor")`` / ``("perf", "ceiling")`` for the
    host-dependent kernel-performance keys, or ``None`` for keys that
    are never gated (wall clocks, raw counts, configs).
    """
    if key == "modeled_speedup" or (
        key.startswith("model_") and key.endswith("_speedup")
    ):
        return ("model", "floor")
    if key.startswith("event_") and key.endswith("_speedup"):
        # Event-backend speedups (bench/sweep_eventsim.cpp) come from
        # the deterministic discrete-event replay — integer cycle
        # arithmetic, no wall clock — so they gate tight like the
        # closed-form modeled keys.
        return ("model", "floor")
    if key.endswith("_agreement_dev"):
        # Analytic-vs-event deviation on the pinned validation points:
        # smaller is better, and a rise past tolerance above the
        # committed value means the two backends drifted apart.
        return ("model", "ceiling")
    if key.startswith("wall"):
        return None
    if key.endswith("_gbps") or key.endswith("_speedup"):
        return ("perf", "floor")
    if key.endswith("_cycles_per_row"):
        return ("perf", "ceiling")
    if key.endswith("_setup_ms"):
        # Setup cost (event_step_setup_ms, bench/sweep_eventsim.cpp):
        # smaller is better, so the fresh value must stay under the
        # committed ceiling.
        return ("perf", "ceiling")
    return None


def gated_keys(fresh, committed):
    """``(key, class, direction)`` for keys numeric in both lines."""
    keys = []
    for key in sorted(set(fresh) & set(committed)):
        cls = key_class(key)
        if cls is None:
            continue
        if isinstance(fresh[key], (int, float)) and isinstance(
            committed[key], (int, float)
        ):
            keys.append((key, cls[0], cls[1]))
    return keys


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("outputs", nargs="+", help="captured bench stdout files")
    ap.add_argument("--repo", default=".", help="repository root")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="allowed fractional drop below the committed value",
    )
    ap.add_argument(
        "--write-fresh",
        metavar="DIR",
        help="also write the fresh lines, one file per artifact",
    )
    args = ap.parse_args()

    fresh_by_artifact = parse_lines(args.outputs)
    if not fresh_by_artifact:
        print("ERROR: no BENCH_*.json result lines found in the inputs")
        return 2

    if args.write_fresh:
        os.makedirs(args.write_fresh, exist_ok=True)
        for artifact, entries in fresh_by_artifact.items():
            out = os.path.join(args.write_fresh, artifact)
            with open(out, "w", encoding="utf-8") as f:
                for entry in entries:
                    f.write(json.dumps(entry) + "\n")

    failures = []
    compared = 0
    for artifact, entries in sorted(fresh_by_artifact.items()):
        committed_path = os.path.join(args.repo, artifact)
        if not os.path.exists(committed_path):
            print(f"{artifact}: no committed baseline, skipping")
            continue
        baselines = load_baselines(committed_path)
        for entry in entries:
            mode = entry_mode(entry)
            base = next(
                (b for b in baselines if entry_mode(b) == mode), None
            )
            if base is None:
                print(
                    f"{artifact}: no committed {mode[0]} entry with "
                    f"smoke={mode[1]}, skipping (record one to gate it)"
                )
                continue
            fresh_mix = entry.get("hit_frac")
            base_mix = base.get("hit_frac")
            if (
                isinstance(fresh_mix, (int, float))
                and isinstance(base_mix, (int, float))
                and abs(fresh_mix - base_mix) > 0.005
            ):
                print(
                    f"{artifact} [{mode[0]} smoke={mode[1]}]: measured "
                    f"hit_frac {fresh_mix:.3f} != committed "
                    f"{base_mix:.3f} — host FP divergence, skipping "
                    f"(re-record the baseline from the fresh artifact)"
                )
                continue
            # Wall-clock keys: info-only deltas, never gated (host-
            # dependent), printed so wall drift is visible in CI logs.
            for key in sorted(set(entry) & set(base)):
                if not key.startswith("wall"):
                    continue
                if not isinstance(entry[key], (int, float)) or not isinstance(
                    base[key], (int, float)
                ):
                    continue
                delta = (
                    (entry[key] / base[key] - 1.0) * 100.0 if base[key] else 0.0
                )
                print(
                    f"{artifact} [{mode[0]} smoke={mode[1]}] {key}: "
                    f"fresh {entry[key]:.3f} vs committed {base[key]:.3f} "
                    f"({delta:+.1f}%) -> info only (wall clock)"
                )
            keys = gated_keys(entry, base)
            if not keys:
                print(f"{artifact} [{mode[0]}]: no gateable keys")
                continue
            # Perf keys are host-dependent: gate only full-mode runs
            # on the same CPU class as the committed baseline.
            fresh_cpu = entry.get("config", {}).get("cpu")
            base_cpu = base.get("config", {}).get("cpu")
            perf_skip = None
            if mode[1]:
                perf_skip = "smoke-mode perf numbers are not meaningful"
            elif fresh_cpu != base_cpu:
                perf_skip = (
                    f"config.cpu {fresh_cpu!r} != committed {base_cpu!r}"
                )
            for key, cls, direction in keys:
                delta = (
                    (entry[key] / base[key] - 1.0) * 100.0
                    if base[key]
                    else 0.0
                )
                if cls == "perf" and perf_skip:
                    print(
                        f"{artifact} [{mode[0]} smoke={mode[1]}] {key}: "
                        f"fresh {entry[key]:.3f} vs committed "
                        f"{base[key]:.3f} ({delta:+.1f}%) -> "
                        f"info only ({perf_skip})"
                    )
                    continue
                compared += 1
                tol = args.tolerance * (3.0 if cls == "perf" else 1.0)
                if direction == "ceiling":
                    bound = base[key] * (1.0 + tol)
                    ok = entry[key] <= bound
                    bound_str = f"ceiling {bound:.3f}"
                else:
                    bound = base[key] * (1.0 - tol)
                    ok = entry[key] >= bound
                    bound_str = f"floor {bound:.3f}"
                status = "ok" if ok else "REGRESSED"
                print(
                    f"{artifact} [{mode[0]} smoke={mode[1]}] {key}: "
                    f"fresh {entry[key]:.3f} vs committed "
                    f"{base[key]:.3f} ({delta:+.1f}%, {bound_str}) "
                    f"-> {status}"
                )
                if status == "REGRESSED":
                    failures.append((artifact, key, entry[key], base[key]))

    if failures:
        print(f"\nFAIL: {len(failures)} gated key(s) regressed "
              f">{args.tolerance:.0%} vs the committed baselines")
        return 1
    if compared == 0:
        print("\nWARNING: nothing compared — no committed entries matched")
        return 0
    print(f"\nOK: {compared} gated key(s) within "
          f"{args.tolerance:.0%} of the committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
