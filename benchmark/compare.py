#!/usr/bin/env python3
"""Compares two benchmark results files written by run.py.

    python3 benchmark/compare.py A.json B.json

For every workload and end-to-end metric it prints both medians and
quartiles, the change from A to B as a share of A's median (positive = worse,
by the metric's direction), and a verdict against the metric's bound from
BENCHMARK.json:

  ok          B is no worse than A by more than the bound
  REGRESSION  B is worse by more than the bound
  unresolved  a side's quartile spread is wider than the bound, so the runs
              cannot tell a change of that size from noise (unless every B
              run is better than every A run)

The exit code is 1 when any pairing regressed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def values(results, workload, metric):
    return [r["metrics"][metric]["value"] for r in results["runs"]
            if r["workload"] == workload and metric in r["metrics"]]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload':15} {'metric':26} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for w in (x["name"] for x in spec["workloads"]):
        for m in spec["end_to_end"]:
            xa, xb = values(a, w, m["name"]), values(b, w, m["name"])
            if not xa or not xb:
                continue
            qa, qb = quartiles(xa), quartiles(xb)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            all_better = (max(xb) < min(xa)) if sign == 1 else (min(xb) > max(xa))
            if change > m["bound"]:
                verdict = "REGRESSION"
                regressed = True
            elif spread > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            col_a = f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
            col_b = f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
            print(f"{w:15} {m['name']:26} {col_a:>34} {col_b:>34} "
                  f"{change:>+8.3f} {m['bound']:>6.2f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
