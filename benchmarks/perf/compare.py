#!/usr/bin/env python3
"""Compare two perf benchmark envelopes (``run.py --out``'s perf.json).

    python3 benchmarks/perf/compare.py A.json B.json

For every workload and end-to-end metric: both medians, each side's
quartile spread (distance between the first and third quartiles of its
rep values, as a share of the median), the change from A to B in
percent, and a verdict against the bound in ``BENCHMARK.json``, taken
in the metric's worse direction:

* ``unresolved`` -- either side's spread exceeds the bound;
* ``worse``      -- B is worse than A by more than the bound;
* ``ok``         -- otherwise.

The deterministic per-layer counts (``spans.COUNTS``) of traced
envelopes must match exactly.  Exits 1 on any ``worse``, count
mismatch or missing metric.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from spans import COUNTS

ROOT = Path(__file__).resolve().parents[2]


def spread(values) -> float:
    """Interquartile range over the median.  Inclusive quartiles, so a
    handful of reps gives a spread inside their range, not beyond it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def compare(a: dict, b: dict, bounds: dict) -> int:
    status = 0
    print(f"{'workload':10s} {'metric':12s} {'A':>10s} {'B':>10s} "
          f"{'spreadA':>8s} {'spreadB':>8s} {'delta':>8s}  verdict")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (bound, better) in bounds.items():
            if metric not in wa["metrics"] or metric not in wb["metrics"]:
                status = 1
                print(f"{name:10s} {metric:12s} missing: a failed run")
                continue
            ma, mb = wa["metrics"][metric], wb["metrics"][metric]
            sa, sb = spread(ma["values"]), spread(mb["values"])
            delta = (mb["median"] - ma["median"]) / ma["median"]
            worse = delta if better == "lower" else -delta
            verdict = ("unresolved" if max(sa, sb) > bound else
                       "worse" if worse > bound else "ok")
            status |= verdict == "worse"
            print(f"{name:10s} {metric:12s} {ma['median']:10.4g} "
                  f"{mb['median']:10.4g} {sa:8.1%} {sb:8.1%} {delta:+8.1%}  "
                  f"{verdict}")
        la, lb = wa.get("layers"), wb.get("layers")
        if la is None and lb is None:
            continue
        for count in COUNTS:
            va = la.get(count) if la else None
            vb = lb.get(count) if lb else None
            if va != vb:
                status = 1
                print(f"{name:10s} {count}: {va} != {vb}  MISMATCH")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in benchmark["end_to_end"]}
    return compare(a, b, bounds)


if __name__ == "__main__":
    sys.exit(main())
