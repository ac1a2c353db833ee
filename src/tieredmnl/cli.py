"""Command-line entry point.

Four subcommands: ``solve`` prices a catalog file and prints the optimal
two-tier offer, ``simulate`` runs one replication of a config, ``experiment``
runs replicated experiments (numbered presets or a config file) and writes
CSV traces plus an SVG regret chart, and ``verify`` runs the built-in
diagnostics.  Every artifact directory gets a ``manifest.json`` holding the
resolved config, the seed derivation, and the tool version — enough to
reproduce the directory byte for byte.

Exit codes: 0 success, 1 bad input (arguments, files, configs), 2 diagnostic
check failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, TieredMnlError
from .model import _write_json, load_catalog, sorted_ids
from .optimizer import solve_two_tier
from .simulator import (
    ExperimentConfig,
    config_to_dict,
    experiment_preset,
    load_config,
    run,
    run_experiment,
    write_mean_curve_csv,
    write_trace_csv,
)
from .svgplot import LineSeries, line_chart
from .verify import format_report, run_checks

OUT_ENV_VAR = "TIEREDMNL_OUT"
_SEED_SCHEME = (
    "numpy SeedSequence(base_seed, spawn_key=(replication, stream)); "
    "stream 0 draws the catalog, 1 the customers, 2 the policy"
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; reserve 2 for check failures."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _slug(label: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-")
    return slug if slug.strip(".") else "unnamed"  # "." and ".." are not names


def _check_slugs(config: ExperimentConfig) -> None:
    """Refuse policies whose labels slug alike: their files would collide."""
    seen: dict[str, str] = {}
    for label in (spec.display_label for spec in config.policies):
        slug = _slug(label)
        if slug in seen:
            raise ConfigError(f"policy labels {seen[slug]!r} and {label!r} both write files as {slug!r}")
        seen[slug] = label


def _resolve_out(flag_value) -> Path:
    if flag_value is not None:
        return Path(flag_value)
    env = os.environ.get(OUT_ENV_VAR)
    return Path(env) if env else Path("tieredmnl-out")


def _manifest(subcommand: str, config: ExperimentConfig, **extra) -> dict:
    return {
        "tool": "tieredmnl",
        "tool_version": __version__,
        "subcommand": subcommand,
        "seed_scheme": _SEED_SCHEME,
        "config": config_to_dict(config),
        **extra,
    }


def _ids_text(ids) -> str:
    return ", ".join(str(i) for i in sorted_ids(ids)) if ids else "(empty)"


def _cmd_solve(args) -> int:
    catalog = load_catalog(args.catalog)
    result = solve_two_tier(catalog)
    print(f"tier 1: {_ids_text(result.offer.tier(0))}")
    print(f"tier 2: {_ids_text(result.offer.tier(1))}")
    print(f"profit thresholds: {', '.join(f'{t:g}' for t in result.thresholds)}")
    print(f"expected profit: {result.expected_profit:.6f}")
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    _check_slugs(config)
    out = _resolve_out(args.out) / _slug(config.label)
    traces = [(spec, run(config, spec, args.seed)) for spec in config.policies]
    out.mkdir(parents=True, exist_ok=True)
    csv_names = []
    for spec, trace in traces:
        name = f"trace_{_slug(spec.display_label)}_seed{args.seed}.csv"
        write_trace_csv(trace, out / name)
        csv_names.append(name)
        print(
            f"{config.label} [{spec.display_label}] seed {args.seed}: "
            f"cumulative regret {trace.final_regret:.4f}"
        )
    manifest = _manifest("simulate", config, seed=args.seed, trace_files=csv_names)
    _write_json(manifest, out / "manifest.json")
    print(f"wrote {out}")
    return 0


def _cmd_experiment(args) -> int:
    if args.experiment in ("1", "2", "3"):
        configs = experiment_preset(int(args.experiment))
        chart_name = f"experiment{args.experiment}_regret.svg"
    else:
        configs = [load_config(args.experiment)]
        chart_name = f"{_slug(configs[0].label)}_regret.svg"
    for config in configs:
        _check_slugs(config)
    out_base = _resolve_out(args.out)
    series = []
    for config in configs:
        n_reps = config.replications if args.reps is None else args.reps
        out = out_base / _slug(config.label)
        summaries = run_experiment(config, n_reps)
        out.mkdir(parents=True, exist_ok=True)
        summary_doc = {}
        for label, summary in summaries.items():
            slug = _slug(label)
            for rep, trace in enumerate(summary.traces):
                write_trace_csv(trace, out / f"trace_{slug}_rep{rep:03d}.csv")
            write_mean_curve_csv(summary, out / f"mean_{slug}.csv")
            summary_doc[label] = {
                "replications": summary.n_reps,
                "mean_final_regret": summary.mean_final_regret,
                "std_final_regret": summary.std_final_regret,
                "final_regrets": list(summary.final_regrets),
            }
            name = f"{config.label}: {label}" if len(configs) > 1 else label
            series.append(
                LineSeries(
                    name,
                    list(range(1, len(summary.mean_cumulative) + 1)),
                    summary.mean_cumulative.tolist(),
                )
            )
            print(
                f"{config.label} [{label}] {summary.n_reps} reps: "
                f"mean final regret {summary.mean_final_regret:.2f} "
                f"(sd {summary.std_final_regret:.2f})"
            )
        _write_json(summary_doc, out / "summary.json")
        _write_json(_manifest("experiment", config, replications=n_reps), out / "manifest.json")
    chart = line_chart(
        series,
        title="mean cumulative regret",
        x_label="t",
        y_label="cumulative regret",
    )
    out_base.mkdir(parents=True, exist_ok=True)
    (out_base / chart_name).write_text(chart, encoding="utf-8")
    print(f"wrote {out_base / chart_name}")
    return 0


def _cmd_verify(args) -> int:
    results = run_checks()
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tieredmnl",
        description="Two-tier recommendation pricing, learning, and experiments.",
    )
    parser.add_argument("--version", action="version", version=f"tieredmnl {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="price a catalog file, print the optimal offer")
    p_solve.add_argument("catalog", help="catalog JSON file")
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="run one replication of a config file")
    p_sim.add_argument("config", help="experiment config JSON file")
    p_sim.add_argument("--seed", type=int, default=0, help="replication index (default 0)")
    p_sim.add_argument("--out", default=None, help=f"output directory (or ${OUT_ENV_VAR})")
    p_sim.set_defaults(func=_cmd_simulate)

    p_exp = sub.add_parser("experiment", help="run a replicated experiment")
    p_exp.add_argument(
        "experiment", metavar="1|2|3|config", help="preset number or config JSON file"
    )
    p_exp.add_argument("--reps", type=int, default=None, help="override replication count")
    p_exp.add_argument("--out", default=None, help=f"output directory (or ${OUT_ENV_VAR})")
    p_exp.set_defaults(func=_cmd_experiment)

    p_verify = sub.add_parser("verify", help="run the built-in diagnostics")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TieredMnlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
