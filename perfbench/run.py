"""Benchmark of the tieredmnl library, run from the repository root:

    python3 perfbench/run.py --workload sim-launch --seed 1 --seconds 45 --trace 0

Every workload is a closed loop with one client: the next customer or catalog
is handled only after the previous one completes.  Each child
(``child.py``) runs in a fresh interpreter with PYTHONPATH=src, BLAS/OpenMP
threads pinned to 1 and its own PYTHONHASHSEED.

``--trace 0`` first measures set-up alone in two children, then starts
two work children under two hash seeds that run short untraced passes of
the workload until ``--seconds`` is spent.  Each timing metric is the mean
over all passes of the run; ``setup_s`` is the median over all four
children.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass, plus the tracing overhead.

Every pass is checked against ``references.json``, and all passes of a run
must agree with each other, so results are shown not to depend on the hash
seed or on tracing.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; on a wrong
answer the run also exits with code 1.  ``--save FILE`` appends the result,
the machine facts and every child's raw numbers to FILE for ``compare.py``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-launch", "cli-duel", "solve-offline")
SETUP_PROBES = 2  # set-up-only children per untraced run
WORK_CHILDREN = 2  # at least one pass each, under two hash seeds
TIME_LIMIT_S = 170.0  # a run must end within 180 s
END_MARGIN_S = 1.5  # for the last child's answers and exit after its deadline
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """A child crashed or the run ran out of time."""


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def machine_facts() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        git_sha = proc.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "child_env": {"PYTHONPATH": "src", **dict.fromkeys(THREAD_VARS, "1")},
        "started_unix": time.time(),
    }


def gate(references: dict, observed: dict) -> list[str]:
    """Keys of the operations whose answers differ from the references.

    An exact solve that hit the work cap when the references were recorded
    has no reference offer; it may still be capped, or it may be solved to a
    value at least the recorded prefix-pair value.
    """
    wrong = []
    for key in sorted(set(references) | set(observed)):
        ref, got = references.get(key), observed.get(key)
        if ref is None or got is None:
            wrong.append(key)
        elif "prefix_value" in ref:
            solved = "expected_profit" in got and float(got["expected_profit"]) >= float(
                ref["prefix_value"]
            )
            if got != {"capped": True} and not solved:
                wrong.append(key)
        elif got != ref:
            wrong.append(key)
    return wrong


class Runner:
    """Starts the children of one run, in order, inside a time budget."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.started = time.monotonic()
        self.scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.hash_seeds: list[int] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, mode: str, deadline: float | None = None) -> dict:
        index = len(self.hash_seeds)
        hash_seed = (self.seed * 101 + index + 1) % 2**32
        self.hash_seeds.append(hash_seed)
        workdir = self.scratch / str(index)
        workdir.mkdir(parents=True)
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", self.workload,
            "--mode", mode,
            "--order-seed", str(self.seed),
            "--workdir", str(workdir),
        ]
        if self.smoke:
            cmd.append("--smoke")
        if mode == "trace":
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            suffix = "-smoke" if self.smoke else ""
            cmd += ["--trace-out", str(out / f"trace-{self.workload}{suffix}.npz")]
        timeout = TIME_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("out of time before the last child could start")
        t0 = time.monotonic()
        cmd += ["--spawn-t", repr(t0)]
        if deadline is not None:
            cmd += ["--deadline", repr(deadline)]
        try:
            proc = subprocess.run(
                cmd, env=child_env(hash_seed), cwd=ROOT, capture_output=True, text=True,
                timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child timed out after {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        result["mode"] = mode
        result["hash_seed"] = hash_seed
        result["wall_s"] = time.monotonic() - t0
        shutil.rmtree(workdir)
        return result

    def untraced(self, seconds: float) -> list[dict]:
        """Set-up-only children, then work children that share out what is
        left of ``seconds``; each runs passes until its deadline."""
        children = [self.spawn("setup") for _ in range(0 if self.smoke else SETUP_PROBES)]
        end = self.started + min(seconds, TIME_LIMIT_S - 10) - END_MARGIN_S
        for k in range(WORK_CHILDREN):
            now = time.monotonic()
            deadline = now + (end - now) / (WORK_CHILDREN - k)
            children.append(self.spawn("work", deadline))
        return children

    def traced(self) -> list[dict]:
        return [self.spawn("work"), self.spawn("trace")]


def end_to_end(children: list[dict]) -> dict:
    """Set-up is the median over all children, the timings the mean over all
    passes: the machine's speed changes for seconds at a time, and the mean
    of many short passes follows it less than their median does."""
    work = [c for c in children if c["mode"] == "work"]
    passes = [p for c in work for p in c["passes"]]
    mean = statistics.fmean
    batch_s = mean(p["batch_s"] for p in passes)
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "steps_per_s": passes[0]["operations"] / batch_s,
        "decision_us.mean": mean(p["decision_us_mean"] for p in passes),
        "decision_us.p99": mean(p["decision_us_p99"] for p in passes),
        "solve_batch_s": batch_s,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in work),
    }


def per_layer(children: list[dict]) -> dict:
    plain, traced = children
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["passes"][0]["batch_s"] / plain["passes"][0]["batch_s"]
    return layers


def check_answers(references: dict, children: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every pass of the run.

    An operation fails in a pass when its answer differs from the reference,
    or from the first pass's answer.
    """
    passes = [(c, observed) for c in children for observed in c.get("observed", ())]
    first, first_observed = passes[0]
    attempted = failed = 0
    messages = []
    for c, observed in passes:
        wrong = gate(references, observed)
        differ = [k for k in observed if k not in wrong and observed[k] != first_observed.get(k)]
        attempted += len(observed)
        failed += len(wrong) + len(differ)
        messages += [f"hash seed {c['hash_seed']} ({c['mode']}): wrong answer for {k}" for k in wrong]
        messages += [
            f"hash seeds {first['hash_seed']} and {c['hash_seed']} ({c['mode']}) disagree on {k}"
            for k in differ
        ]
    return attempted, failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics as JSON."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="orders operations, sets hash seeds")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time for --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    parser.add_argument("--save", type=Path, default=None, help="append the full record to FILE")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tieredmnl" / "__init__.py").is_file():
        print(f"error: no tieredmnl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    references = references["smoke" if args.smoke else "full"][args.workload]

    facts = machine_facts()
    compileall.compile_dir(str(ROOT / "src" / "tieredmnl"), quiet=2)
    runner = Runner(args.workload, args.seed, args.smoke)
    try:
        children = runner.traced() if args.trace else runner.untraced(args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
    facts["hash_seeds"] = runner.hash_seeds
    facts["run_s"] = runner.elapsed()
    facts["passes"] = sum(len(c.get("passes", ())) for c in children)

    attempted, failed, messages = check_answers(references, children)
    values = per_layer(children) if args.trace else end_to_end(children)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    for message in messages:
        print(f"error: {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print("# facts " + json.dumps(facts, sort_keys=True))
    if args.save is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "facts": facts,
            "result": result,
            "children": [{k: v for k, v in c.items() if k != "observed"} for c in children],
        }
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
