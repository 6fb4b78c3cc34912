#!/usr/bin/env python3
"""Render the wall-clock-multicore bench artifact into ROADMAP-ready text.

The CI ``wall-clock`` job runs the non-smoke microbenches on a
multi-core runner (the host that records BENCH_*.json has 4 hardware
threads as well) and captures their ``BENCH_overlap.json {...}``
result lines. This script turns those lines into:

 - the measured ``wall_*`` speedups, one line per bench, formatted for
   pasting into the ROADMAP wall-clock item;
 - the overlap verdict: the forward-overlap ``wall_speedup`` says
   whether giving the reuse passes the worker pool pays on that host
   at all (below 1x it does not; the modeled cycles are the
   paper-facing number there).

Usage:
    wallclock_roadmap.py RESULT_FILE...

RESULT_FILE holds captured bench stdout or extracted
``BENCH_overlap.json {...}`` lines (both accepted).
"""

import json
import re
import sys

LINE_RE = re.compile(r"^(?:BENCH_[A-Za-z0-9_.-]+\.json\s+)?(\{.*\})\s*$")


def parse(paths):
    entries = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                m = LINE_RE.match(line.strip())
                if not m:
                    continue
                try:
                    entries.append(json.loads(m.group(1)))
                except json.JSONDecodeError:
                    continue
    return entries


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    entries = parse(argv[1:])
    if not entries:
        print("ERROR: no BENCH_*.json result lines found", file=sys.stderr)
        return 1

    print("# ROADMAP wall-clock snippet (paste under the wall-clock item)")
    fwd_overlap = None
    for e in entries:
        bench = e.get("bench", "?")
        cfg = e.get("config", {})
        walls = {k: e[k] for k in sorted(e) if k.startswith("wall")}
        line = ", ".join(f"{k}={v}" for k, v in walls.items())
        print(f"- {bench} ({e.get('layer', '?')}, threads="
              f"{cfg.get('threads', '?')}, blockRows="
              f"{cfg.get('blockRows', '?')}, shards="
              f"{cfg.get('shards', '?')}): {line}")
        if bench == "micro_overlap" and "wall_speedup" in e:
            fwd_overlap = e["wall_speedup"]

    if fwd_overlap is not None:
        print()
        print("# overlap verdict")
        verdict = ("pays on this host" if fwd_overlap > 1.0
                   else "does NOT pay on this host (modeled cycles are "
                        "the paper-facing number; needs spare cores)")
        print(f"- forward-overlap wall_speedup {fwd_overlap}: overlap "
              f"mode {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
