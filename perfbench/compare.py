"""Compare two sets of benchmark results, per workload and per metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --save FILE`` appended.  Record i of a
workload on one side pairs with record i of the same workload and trace
mode on the other, so collect them as alternating pairs: parent run, change
run, parent run, ... with the same ``--seconds``.

For every (workload, metric) row the table gives each side's median and
quartiles, the pairs and the change's wins (ties count for neither), and a
verdict:

* ``gain``: at least 10 pairs, the change wins at least 9 in 10, and the
  medians differ, in the better direction, by more than the parent's
  interquartile range;
* ``unresolved``: the spread (IQR over median) of either side exceeds the
  metric's bound, unless every change run beats every parent run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` otherwise.  Per-layer metrics have no bound: they read
  ``same`` when every value repeats exactly, else ``gain``, ``loss`` or
  ``-``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict:
    """(workload, trace) -> list of metric dicts, in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs[record["workload"], record["trace"]].append(record["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple[int, int, str]:
    """(pairs, change wins, verdict) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and sign * (cm - pm) > p3 - p1:
        return len(pairs), wins, "gain"
    if bound is None:
        if set(parent) == set(change) and len(set(parent)) == 1:
            return len(pairs), wins, "same"
        if enough and losses >= WIN_SHARE * len(pairs) and sign * (pm - cm) > p3 - p1:
            return len(pairs), wins, "loss"
        return len(pairs), wins, "-"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return len(pairs), wins, "unresolved"
    if pm and -sign * (cm - pm) / abs(pm) > bound:
        return len(pairs), wins, "regression"
    return len(pairs), wins, "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("parent", type=Path, help="records of the parent commit")
    parser.add_argument("change", type=Path, help="records of the change")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    header = f"{'workload':<14} {'metric':<40} {'unit':<6} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} {'pairs':>5} {'wins':>4}  verdict"
    print(header)
    status = 0
    for key in sorted(set(parent) & set(change), key=lambda k: (k[1], k[0])):
        workload, trace = key
        for side, runs in (("parent", parent[key]), ("change", change[key])):
            bad = sum(1 for r in runs if not r["correct"])
            if bad:
                print(f"{workload}: {bad} {side} run(s) gave wrong answers", file=sys.stderr)
                status = 1
        for m in declared[trace]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in parent[key]]
            b = [r["metrics"][name]["value"] for r in change[key]]
            pairs, wins, word = verdict(a, b, m["better"], m.get("bound"))
            qa, qb = quartiles(a), quartiles(b)
            print(
                f"{workload:<14} {name:<40} {m['unit']:<6} "
                f"{f'{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]':<34} "
                f"{f'{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]':<34} {pairs:>5} {wins:>4}  {word}"
            )
    for key in sorted(set(parent) ^ set(change)):
        print(f"{key[0]} (trace {key[1]}): runs on one side only", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
