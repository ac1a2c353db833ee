"""One measured child interpreter of the benchmark.

``run.py`` starts this script in a fresh interpreter, so set-up time and
peak RSS belong to this workload alone.  The child installs the ``Probe``
(and, in ``trace`` mode, the ``Tracer``), runs passes of the workload until
``--deadline`` (one pass without it), and writes one JSON document: set-up
time, each pass's batch wall time and per-operation latencies summarized as
mean and p99, peak RSS, every pass's answers for the correctness gate and,
when traced, the per-layer metrics.

Modes: ``setup`` stops at the first step, ``work`` runs untraced passes,
``trace`` runs one traced pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from probe import HOT_CALLS, LAYERS, Probe, SetupDone, Tracer

# The solve-offline catalogs are one fixed pool so that every reference
# applies to every run; ``--order-seed`` only permutes the solve order.
POOL_SEED = 19_04_12445


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _epochs(policy) -> list[int]:
    return [len(policy.ledger.epochs(0)), len(policy.ledger.epochs(1))]


# --- workloads ----------------------------------------------------------------


# Customers per pass, a quarter of the presets' horizons.  The cost per
# customer is flat over a horizon, so the shorter pass keeps the workload's
# mix while a run repeats it 15 to 30 times: every run then times nearly
# all of its --seconds, and the same amount of work from run to run.
LAUNCH_HORIZON = 5_000
DUEL_HORIZON = 2_500


def _launch_config(smoke: bool):
    """Preset scenario exp1-v0.1 (100 products, 20 of them launched one by
    one) compressed to 5,000 customers: launch times and spacing shrink by
    the same factor as the horizon, so all 20 still launch.  Smoke runs use
    a 20-product, 600-step scenario of the same shape."""
    from tieredmnl import ExperimentConfig, PolicySpec, ProductGroup, experiment_preset

    if not smoke:
        config = experiment_preset(1)[0]
        scale = config.horizon // LAUNCH_HORIZON
        groups = tuple(
            dataclasses.replace(
                g, launch_time=g.launch_time // scale, launch_spacing=g.launch_spacing // scale
            )
            for g in config.groups
        )
        return dataclasses.replace(config, horizon=LAUNCH_HORIZON, groups=groups)
    return ExperimentConfig(
        label="smoke-launch",
        horizon=600,
        groups=(
            ProductGroup(16, (0.0, 1.0), (0.0, 0.1)),
            ProductGroup(4, (0.0, 0.2), (0.0, 0.1), launch_time=100, launch_spacing=100),
        ),
        policies=(PolicySpec("ucb_tiered", {"min_epochs": 5, "confidence_scale": 4.8}),),
        base_seed=1729,
    )


def sim_launch(probe: Probe, smoke: bool, rng, workdir: Path) -> dict:
    """Replication 0 of the launch scenario."""
    import tieredmnl.simulator as simulator

    config = _launch_config(smoke)
    spec = config.policies[0]
    observed = {}
    rep = 0
    try:
        simulator.run(config, spec, seed=rep)
    except SetupDone:
        raise
    except Exception as exc:  # an operation that fails is counted, not fatal
        observed[f"{spec.display_label}/rep{rep}"] = {"error": repr(exc)}
    probe.batch_end = time.perf_counter()
    path = workdir / "trace.csv"
    for label, rep, trace, policy in probe.runs:
        simulator.write_trace_csv(trace, path)
        observed[f"{label}/rep{rep}"] = {
            "final_regret": repr(trace.final_regret),
            "trace_sha256": _sha256(path),
            "epochs": _epochs(policy),
        }
    return observed


def cli_duel(probe: Probe, smoke: bool, rng, workdir: Path) -> dict:
    """``tieredmnl experiment <config> --reps 2`` in-process, where the config
    file is preset 2 cut to 2,500 customers (400 in smoke runs)."""
    import tieredmnl.cli as cli
    from tieredmnl import experiment_preset, save_config

    target = str(workdir / "duel.json")
    horizon = 400 if smoke else DUEL_HORIZON
    save_config(dataclasses.replace(experiment_preset(2)[0], horizon=horizon), target)
    out = workdir / "out"
    main = cli.main if probe.tracer is None else probe.tracer.span("cli.main", cli.main)
    code = main(["experiment", target, "--reps", "2", "--out", str(out)])
    probe.batch_end = time.perf_counter()
    probe.bytes_written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    if code != 0:
        return {"command": {"error": f"exit code {code}"}}
    observed = {}
    for label, rep, trace, policy in probe.runs:
        (csv,) = out.glob(f"*/trace_{label}_rep{rep:03d}.csv")
        observed[f"{label}/rep{rep}"] = {
            "final_regret": repr(trace.final_regret),
            "trace_sha256": _sha256(csv),
            "epochs": _epochs(policy),
        }
    return observed


def solve_pool(smoke: bool) -> list[tuple[str, str, object]]:
    """(name, kind, catalog) for every solve-offline catalog.

    Ten shared-candidate catalogs at n=100 (six at n=16 in smoke runs), profit ~U[0,1],
    valuation ~U[0,0.3], solved exactly as ``tieredmnl solve`` does; then
    shared and split-half disjoint catalogs at n=2000 (n=200) solved with
    ``exact=False``.
    """
    from tieredmnl import Catalog, Product

    n_exact, n_small, n_big, n_each = (6, 16, 200, 1) if smoke else (10, 100, 2000, 3)
    rng = np.random.default_rng(POOL_SEED)

    def products(n):
        profit = rng.uniform(0.0, 1.0, n)
        valuation = rng.uniform(0.0, 0.3, n)
        return [Product(f"p{i:04d}", float(profit[i]), float(valuation[i])) for i in range(n)]

    pool = [(f"exact{n_small}-{k:02d}", "exact", Catalog(products(n_small))) for k in range(n_exact)]
    pool += [(f"shared{n_big}-{k}", "shared", Catalog(products(n_big))) for k in range(n_each)]
    for k in range(n_each):
        items = products(n_big)
        ids = [p.id for p in items]
        half = n_big // 2
        catalog = Catalog(items, candidates_tier1=ids[:half], candidates_tier2=ids[half:])
        pool.append((f"disjoint{n_big}-{k}", "disjoint", catalog))
    return pool


def solve_offline(probe: Probe, smoke: bool, rng, workdir: Path) -> dict:
    import tieredmnl
    from tieredmnl import InstanceTooLargeError, sorted_ids

    solve = tieredmnl.solve_two_tier
    if probe.tracer is not None:
        solve = probe.tracer.span("optimizer.solve_two_tier", solve)
    pool = solve_pool(smoke)
    observed = {}
    probe.mark_first_step()
    for j in rng.permutation(len(pool)).tolist():
        name, kind, catalog = pool[j]
        t0 = time.perf_counter()
        try:
            result = solve(catalog, exact=kind == "exact")
        except InstanceTooLargeError:
            probe.decisions.append(time.perf_counter() - t0)
            probe.capped += 1
            observed[name] = {"capped": True}
            continue
        except Exception as exc:  # an operation that fails is counted, not fatal
            probe.decisions.append(time.perf_counter() - t0)
            observed[name] = {"error": repr(exc)}
            continue
        elapsed = time.perf_counter() - t0
        probe.decisions.append(elapsed)
        probe.solve_ms[kind].append(elapsed * 1e3)
        observed[name] = {
            "offer": [[str(i) for i in sorted_ids(result.offer.tier(k))] for k in (0, 1)],
            "expected_profit": repr(result.expected_profit),
        }
    probe.batch_end = time.perf_counter()
    if probe.tracer is not None:
        catalog = next(catalog for _, kind, catalog in pool if kind == "shared")
        tracemalloc.start()
        tieredmnl.solve_two_tier(catalog, exact=False)
        probe.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return observed


WORKLOADS = {"sim-launch": sim_launch, "cli-duel": cli_duel, "solve-offline": solve_offline}


# --- per-layer metrics ----------------------------------------------------------


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(probe: Probe, tracer: Tracer, wall_s: float) -> dict:
    names, dur, self_t = tracer.span_table()
    ids = {name: k for k, name in enumerate(tracer.names)}

    def spans(name):
        mask = names == ids[name] if name in ids else np.zeros(len(names), dtype=bool)
        return dur[mask], self_t[mask]

    def hot(name):
        calls, seconds = tracer.hot[name][0], tracer.hot_seconds(name)
        return calls, seconds, (seconds / calls * 1e6 if calls else 0.0)

    layer_s = dict.fromkeys(LAYERS, 0.0)
    for name, k in ids.items():
        layer_s[name.split(".")[0]] += float(self_t[names == k].sum())
    for name in HOT_CALLS:
        layer_s[name.split(".")[0]] += tracer.hot_seconds(name)

    counters = tracer.counters
    solve_dur, solve_self = spans("optimizer.solve_two_tier")
    tier1_dur, tier1_self = spans("optimizer.solve_tier1")
    record_dur, record_self = spans("estimation.record_step")
    epochs = np.sum([_epochs(policy) for *_, policy in probe.runs], axis=0) if probe.runs else (0, 0)
    resolves = counters.get("policies.resolves_seen", 0)
    m = {
        "model.sample.calls": hot("model.sample")[0],
        "model.sample.self_us": hot("model.sample")[2],
        "model.visible_at.calls": hot("model.visible_at")[0],
        "model.visible_at.self_us": hot("model.visible_at")[2],
        "model.sampler_builds": hot("model.sampler_build")[0],
        "optimizer.solve_two_tier.calls": len(solve_dur),
        "optimizer.solve_two_tier.self_us.p50": _median(solve_self) * 1e6,
        "optimizer.solve_two_tier.self_s": float(solve_self.sum()),
        "optimizer.solve_tier1.calls": len(tier1_dur),
        "optimizer.solve_tier1.self_s": float(tier1_self.sum()),
        "optimizer.exact.calls": len(probe.solve_ms["exact"]) + probe.capped,
        "optimizer.exact.ms.p50": _median(probe.solve_ms["exact"]),
        "optimizer.exact.capped": probe.capped,
        "optimizer.prefix_shared.ms.p50": _median(probe.solve_ms["shared"]),
        "optimizer.prefix_disjoint.ms.p50": _median(probe.solve_ms["disjoint"]),
        "optimizer.peak_mb": probe.peak_mb,
        "estimation.valuation_ucb.calls": hot("estimation.valuation_ucb")[0],
        "estimation.valuation_ucb.self_s": hot("estimation.valuation_ucb")[1],
        "estimation.record_step.calls": len(record_dur),
        "estimation.record_step.self_us": float(record_self.mean() * 1e6) if len(record_self) else 0.0,
        "estimation.valuation_estimate.self_s": hot("estimation.valuation_estimate")[1],
        "estimation.epochs_closed.tier1": int(epochs[0]),
        "estimation.epochs_closed.tier2": int(epochs[1]),
        "policies.offer.self_s": float(spans("policies.offer")[1].sum()),
        "policies.observe.self_s": float(spans("policies.observe")[1].sum()),
        "policies.full_resolves": counters.get("policies.full_resolves", 0),
        "policies.tier1_resolves": counters.get("policies.tier1_resolves", 0),
        "policies.resolve_useful_ratio": (
            counters.get("policies.resolves_useful", 0) / resolves if resolves else 0.0
        ),
        "simulator.run.self_s": float(spans("simulator.run")[1].sum()),
        "simulator.benchmark_resolves": counters.get("simulator.benchmark_resolves", 0),
        "cli.write_csv.s": float(spans("cli.write_csv")[0].sum()),
        "cli.bytes_written": probe.bytes_written,
        "cli.line_chart.s": float(spans("cli.line_chart")[0].sum()),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_s[layer]
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(layer_s.values())
    return m


# --- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("setup", "work", "trace"))
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--spawn-t", type=float, required=True, help="parent's time.monotonic()")
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="time.monotonic() by which the last pass should end; without it, one pass",
    )
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.mode == "trace" else None
    probe = Probe(args.spawn_t, tracer, setup_only=args.mode == "setup")
    probe.install()
    result: dict = {}
    passes: list[dict] = []
    observed_passes: list[dict] = []
    longest = 0.0
    try:
        while True:
            probe.new_pass()
            passdir = args.workdir / f"pass{len(passes)}"
            passdir.mkdir()
            t0 = time.perf_counter()
            # every pass solves the catalogs in the same order
            rng = np.random.default_rng(args.order_seed)
            observed = WORKLOADS[args.workload](probe, args.smoke, rng, passdir)
            decisions = np.frombuffer(probe.decisions)
            passes.append(
                {
                    "batch_s": probe.batch_end - probe.first_step,
                    "operations": len(decisions),
                    "decision_us_mean": float(decisions.mean() * 1e6),
                    "decision_us_p99": float(np.percentile(decisions, 99) * 1e6),
                }
            )
            observed_passes.append(observed)
            shutil.rmtree(passdir)
            longest = max(longest, time.perf_counter() - t0)
            if args.deadline is None or time.monotonic() + longest > args.deadline:
                break
    except SetupDone:
        result["setup_s"] = probe.setup_s
    else:
        result.update(
            setup_s=probe.setup_s,
            passes=passes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            observed=observed_passes,
        )
        if tracer is not None:
            result["layers"] = layer_metrics(probe, tracer, probe.batch_end - t0)
            if args.trace_out is not None:
                tracer.save(args.trace_out)
    (args.workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
