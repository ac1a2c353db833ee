"""Record the answers the correctness gate compares against.

    python3 perfbench/make_references.py

Runs one untraced pass of every workload, full size and smoke size, and
writes each operation's answer to ``perfbench/references.json``: per
(policy, rep) the repr of the final regret, the sha256 of the trace CSV and
the closed epoch counts per tier; per solve-offline catalog the offer and
its expected profit, or, for an exact solve that hits the work cap, the
prefix-pair value a later exact answer must reach.

The references pin the program's answers at the commit where they were
recorded.  Re-record them only in a change that means to alter answers, and
say why in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, WORKLOADS, Runner

sys.path.insert(0, str(ROOT / "src"))

from child import solve_pool  # noqa: E402
from tieredmnl import solve_two_tier  # noqa: E402


def record(workload: str, smoke: bool) -> dict:
    runner = Runner(workload, 0, smoke)
    try:
        (observed,) = runner.spawn("work")["observed"]
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
    errors = {k: v for k, v in observed.items() if "error" in v}
    if errors:
        raise SystemExit(f"{workload}: operations failed, no references written: {errors}")
    if workload == "solve-offline":
        for name, _, catalog in solve_pool(smoke):
            if observed[name] == {"capped": True}:
                prefix = solve_two_tier(catalog, exact=False).expected_profit
                observed[name]["prefix_value"] = repr(prefix)
    return observed


def main() -> int:
    references = {
        size: {w: record(w, size == "smoke") for w in WORKLOADS} for size in ("full", "smoke")
    }
    path = HERE / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
