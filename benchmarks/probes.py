"""In-process per-layer probes, each run in a fresh interpreter.

Usage: python3 probes.py claims | counting | corner SEED

claims    times run_verification(scope=[id]) for each claim, in suite order.
counting  for each count-deep support: corner_table(s, n), then
          corner_table(s, n+1), which builds just the top DP layer; reports
          both times, the nonzero states of that layer and its total.
corner    times the cold corner-refined count of the count-deep workload.

Prints one JSON object; the benchmark checks the values it carries.
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from stdpuzzle import Support, corner_table, count_corner_bottom
from stdpuzzle.verify import run_verification


def claims() -> dict:
    out = {}
    for claim in workloads.CLAIM_IDS:
        start = time.perf_counter()
        report = run_verification(scope=[claim], nmax=workloads.VERIFY_NMAX)
        elapsed = time.perf_counter() - start
        out[claim] = {"s": elapsed, "status": report.results[0].status}
    return out


def counting() -> dict:
    out = {}
    for label, (support, n, _) in workloads.COUNT_DEEP.items():
        s = Support.parse(support)
        start = time.perf_counter()
        corner_table(s, n)
        mid = time.perf_counter()
        top = corner_table(s, n + 1)
        end = time.perf_counter()
        out[label] = {"count_s": end - start, "layer_s": end - mid,
                      "states": sum(1 for v in top.entries.values() if v),
                      "total": str(top.total())}
    return out


def corner(seed: int) -> dict:
    x = workloads.corner_rank(seed)
    start = time.perf_counter()
    value = count_corner_bottom(Support.parse(workloads.CORNER_SUPPORT),
                                workloads.CORNER_N, x)
    return {"x": x, "s": time.perf_counter() - start, "value": str(value)}


if __name__ == "__main__":
    which = sys.argv[1]
    result = corner(int(sys.argv[2])) if which == "corner" else {
        "claims": claims, "counting": counting}[which]()
    print(json.dumps(result))
