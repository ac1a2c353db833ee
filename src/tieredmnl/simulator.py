"""Customer-arrival environment, regret accounting, and experiment configs.

``run`` drives one policy through t = 1..T: expose the launched products,
ask for an offer, sample one customer from the true valuations, feed the
outcome back, and score the step's pseudo-regret E[R(S*_t)] - E[R(offer)]
analytically so the headline metric carries no sampling noise (realized
revenue is logged alongside as a diagnostic).  The benchmark S*_t is the
prefix-pair optimum over the products launched by t, re-solved at launch
times — the same family every policy prices offers with, so no policy is
judged against a search space it could not use.

Replication seeds fan out of one base seed via numpy's SeedSequence spawn
keys: (rep, 0) draws the catalog, (rep, 1) the customers, (rep, 2) the
policy's private randomness.  Each replication draws a fresh catalog from
the group specs, and two configs sharing a base seed see identical draws
stream-for-stream (the experiment-1 scenarios share profits this way).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, InvalidOfferError
from .model import (
    Catalog,
    ChoiceSampler,
    Product,
    TieredOffer,
    catalog_from_dict,
    catalog_to_dict,
    expected_profit,
    sorted_ids,
)
from .optimizer import solve_two_tier
from .policies import make_policy
from .rng import BufferedRandom


@dataclass(frozen=True)
class ProductGroup:
    """A block of products drawn from one pair of uniform supports.

    Product k of the group launches at ``launch_time + k * launch_spacing``.
    ``tiers`` lists the 1-based tiers the products are candidates for, and
    ``valuation_known`` marks their true weights as given to the policies
    rather than learned.
    """

    count: int
    profit: tuple[float, float]
    valuation: tuple[float, float]
    launch_time: int = 0
    launch_spacing: int = 0
    tiers: tuple[int, ...] = (1, 2)
    valuation_known: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"group count must be >= 1, got {self.count!r}")
        lo, hi = self.profit
        if not 0.0 <= lo <= hi:
            raise ConfigError(f"profit support must satisfy 0 <= lo <= hi, got {self.profit!r}")
        lo, hi = self.valuation
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigError(
                f"valuation support must sit inside [0, 1], got {self.valuation!r}"
            )
        if self.launch_time < 0 or self.launch_spacing < 0:
            raise ConfigError("launch_time and launch_spacing must be >= 0")
        if not self.tiers or not set(self.tiers) <= {1, 2}:
            raise ConfigError(f"tiers must be a non-empty subset of (1, 2), got {self.tiers!r}")


@dataclass(frozen=True)
class PolicySpec:
    """A policy name plus construction options; ``label`` names it in outputs
    (defaults to the name)."""

    name: str
    options: Mapping = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self):
        if "known_valuations" in self.options:
            raise ConfigError(
                "policy options cannot set known_valuations; the config's known "
                "products and known groups supply them"
            )
        if self.label is None:
            object.__setattr__(self, "label", self.name)

    @property
    def display_label(self) -> str:
        return self.label


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation setup: horizon, catalog recipe, policies, seeds.

    The catalog comes either from ``groups`` (drawn fresh per replication)
    or from an explicit ``catalog`` (fixed across replications, with
    ``known_products`` naming the ids whose valuations policies may see).
    """

    label: str
    horizon: int
    policies: tuple[PolicySpec, ...]
    groups: tuple[ProductGroup, ...] = ()
    catalog: Catalog | None = None
    known_products: tuple = ()
    replications: int = 1
    base_seed: int = 0
    benchmark: str = "launched"

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon!r}")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications!r}")
        if self.benchmark not in ("launched", "full"):
            raise ConfigError(
                f"benchmark must be 'launched' or 'full', got {self.benchmark!r}"
            )
        if not self.policies:
            raise ConfigError("config needs at least one policy")
        if (self.catalog is None) == (not self.groups):
            raise ConfigError("provide exactly one of groups / explicit catalog")
        for g in self.groups:
            last = g.launch_time + (g.count - 1) * g.launch_spacing
            if last > self.horizon:
                raise ConfigError(
                    f"group launches run to t={last}, beyond horizon {self.horizon}"
                )


def materialize_catalog(config: ExperimentConfig, rep: int) -> tuple[Catalog, dict]:
    """Build the replication's catalog and the known-valuation map.

    Group draws take profits before valuations so configs differing only in
    valuation supports share identical profits under one base seed.
    """
    if config.catalog is not None:
        known = {i: config.catalog.valuation_of(i) for i in config.known_products}
        return config.catalog, known
    rng = np.random.default_rng(np.random.SeedSequence(config.base_seed, spawn_key=(rep, 0)))
    products = []
    known = {}
    cand1, cand2 = [], []
    index = 0
    for group in config.groups:
        profits = rng.uniform(group.profit[0], group.profit[1], group.count)
        valuations = rng.uniform(group.valuation[0], group.valuation[1], group.count)
        for k in range(group.count):
            pid = f"p{index:03d}"
            index += 1
            products.append(
                Product(
                    pid,
                    float(profits[k]),
                    float(valuations[k]),
                    group.launch_time + k * group.launch_spacing,
                )
            )
            if 1 in group.tiers:
                cand1.append(pid)
            if 2 in group.tiers:
                cand2.append(pid)
            if group.valuation_known:
                known[pid] = float(valuations[k])
    return Catalog(products, candidates_tier1=cand1, candidates_tier2=cand2), known


@dataclass(frozen=True)
class RegretTrace:
    """One run's per-step pseudo-regret, realized revenue, and offers."""

    policy_label: str
    instantaneous: np.ndarray
    realized_revenue: np.ndarray
    offers: tuple[TieredOffer, ...]

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.instantaneous)

    @property
    def final_regret(self) -> float:
        return float(self.instantaneous.sum())

    def __len__(self) -> int:
        return len(self.instantaneous)


def _benchmark_times(catalog: Catalog, horizon: int, mode: str) -> list[int]:
    if mode == "full":
        return [1]
    times = {1}
    for i in sorted_ids(catalog.ids):
        t = catalog.product(i).launch_time
        if 1 < t <= horizon:
            times.add(t)
    return sorted(times)


def run(config: ExperimentConfig, policy_spec: PolicySpec, seed: int = 0) -> RegretTrace:
    """One policy, one replication (``seed`` is the replication index)."""
    catalog, known = materialize_catalog(config, seed)
    policy_rng = BufferedRandom(
        np.random.default_rng(np.random.SeedSequence(config.base_seed, spawn_key=(seed, 2)))
    )
    policy = make_policy(
        policy_spec.name,
        catalog,
        policy_rng,
        known_valuations=known,
        **dict(policy_spec.options),
    )
    customer_rng = BufferedRandom(
        np.random.default_rng(np.random.SeedSequence(config.base_seed, spawn_key=(seed, 1)))
    )
    resolve_at = _benchmark_times(catalog, config.horizon, config.benchmark)
    next_resolve = 0
    benchmark_value = 0.0
    instantaneous = np.zeros(config.horizon)
    revenue = np.zeros(config.horizon)
    offers = []
    cache: dict[TieredOffer, tuple[float, ChoiceSampler]] = {}
    for t in range(1, config.horizon + 1):
        if next_resolve < len(resolve_at) and t == resolve_at[next_resolve]:
            next_resolve += 1
            if config.benchmark == "full":
                visible = frozenset(catalog.ids)
            else:
                visible = catalog.visible_at(t)
            benchmark_value = solve_two_tier(
                catalog,
                candidates_tier1=catalog.candidates_tier1 & visible,
                candidates_tier2=catalog.candidates_tier2 & visible,
                exact=False,
            ).expected_profit
        offer = policy.offer(t)
        launched = catalog.visible_at(t)
        if not offer.all_ids <= launched:
            missing = sorted_ids(offer.all_ids - launched)
            raise InvalidOfferError(
                f"policy {policy_spec.display_label!r} offered unlaunched "
                f"product {missing[0]!r} at t={t}"
            )
        cached = cache.get(offer)
        if cached is None:
            cached = (
                expected_profit(offer, catalog),
                ChoiceSampler(offer, catalog, None),
            )
            cache[offer] = cached
        value, sampler = cached
        outcome = sampler.sample(customer_rng)
        policy.observe(t, offer, outcome)
        instantaneous[t - 1] = benchmark_value - value
        if outcome.is_purchase:
            revenue[t - 1] = catalog.profit_of(outcome.product)
        offers.append(offer)
    return RegretTrace(policy_spec.display_label, instantaneous, revenue, tuple(offers))


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregate of independent runs of one policy."""

    policy_label: str
    final_regrets: tuple[float, ...]
    mean_final_regret: float
    std_final_regret: float
    mean_instantaneous: np.ndarray
    mean_cumulative: np.ndarray
    traces: tuple[RegretTrace, ...]

    @property
    def n_reps(self) -> int:
        return len(self.final_regrets)


def replicate(
    config: ExperimentConfig, policy_spec: PolicySpec, n_reps: int | None = None
) -> ReplicationSummary:
    """Run ``n_reps`` independent replications (default: config.replications)."""
    n = config.replications if n_reps is None else n_reps
    if n < 1:
        raise ConfigError(f"n_reps must be >= 1, got {n!r}")
    traces = tuple(run(config, policy_spec, seed=rep) for rep in range(n))
    finals = tuple(trace.final_regret for trace in traces)
    cumulative = np.vstack([trace.cumulative() for trace in traces])
    instantaneous = np.vstack([trace.instantaneous for trace in traces])
    std = float(np.std(finals, ddof=1)) if n > 1 else 0.0
    return ReplicationSummary(
        policy_spec.display_label,
        finals,
        float(np.mean(finals)),
        std,
        instantaneous.mean(axis=0),
        cumulative.mean(axis=0),
        traces,
    )


def run_experiment(config: ExperimentConfig, n_reps: int | None = None) -> dict:
    """Replicate every policy in the config; label -> ReplicationSummary."""
    results = {}
    for spec in config.policies:
        if spec.display_label in results:
            raise ConfigError(f"duplicate policy label {spec.display_label!r}")
        results[spec.display_label] = replicate(config, spec, n_reps)
    return results


# --- benchmark experiment presets ------------------------------------------------


def experiment_preset(which: int) -> list[ExperimentConfig]:
    """The three benchmark experiment setups.

    1: four scenarios (valuation supports [0, 0.1] .. [0, 0.5]) of a
       100-product catalog where the 20 low-profit products launch every
       800 steps; UCB policy, M=100.  Scenarios share a base seed so they
       face identical profits.
    2: 12 products all at t=0; UCB (M=100) against explore-then-exploit.
    3: disjoint candidate tiers — 20 known tier-1 products, 30 known tier-2
       products, 15 unknown tier-2 products at t=0; UCB against the
       random-tier learner, M=300.

    The presets pin confidence_scale to 4.8: the analysis constant 48
    leaves the optimism margin an order of magnitude too wide to reproduce
    the reported experiment magnitudes (a tenth of it matches them), so the
    experiments treat the scale as a tuned parameter and record it in the
    emitted config.  Returns a list of configs (experiment 1 is a
    four-scenario family).
    """
    if which == 1:
        configs = []
        for s in (0.1, 0.2, 0.3, 0.5):
            configs.append(
                ExperimentConfig(
                    label=f"exp1-v{s}",
                    horizon=20_000,
                    groups=(
                        ProductGroup(80, (0.0, 1.0), (0.0, s)),
                        ProductGroup(20, (0.0, 0.2), (0.0, s), launch_time=800, launch_spacing=800),
                    ),
                    policies=(PolicySpec("ucb_tiered", {"min_epochs": 100, "confidence_scale": 4.8}),),
                    replications=10,
                    base_seed=1729,
                )
            )
        return configs
    if which == 2:
        return [
            ExperimentConfig(
                label="exp2",
                horizon=10_000,
                groups=(
                    ProductGroup(8, (0.0, 1.0), (0.0, 0.1)),
                    ProductGroup(4, (0.0, 0.2), (0.0, 0.1)),
                ),
                policies=(
                    PolicySpec("ucb_tiered", {"min_epochs": 100, "confidence_scale": 4.8}),
                    PolicySpec("explore_then_exploit", {"gamma": 30.0}),
                ),
                replications=10,
                base_seed=271828,
            )
        ]
    if which == 3:
        return [
            ExperimentConfig(
                label="exp3",
                horizon=10_000,
                groups=(
                    ProductGroup(20, (0.5, 1.0), (0.0, 0.1), tiers=(1,), valuation_known=True),
                    ProductGroup(30, (0.0, 0.6), (0.0, 0.2), tiers=(2,), valuation_known=True),
                    ProductGroup(15, (0.0, 0.55), (0.0, 0.3), tiers=(2,)),
                ),
                policies=(
                    PolicySpec("ucb_tiered", {"min_epochs": 300, "confidence_scale": 4.8}),
                    PolicySpec("random_tier", {"min_epochs": 300, "confidence_scale": 4.8}),
                ),
                replications=10,
                base_seed=314159,
            )
        ]
    raise ConfigError(f"experiment preset must be 1, 2, or 3, got {which!r}")


# --- config (de)serialization ---------------------------------------------------

_CONFIG_KEYS = {
    "schema",
    "label",
    "horizon",
    "replications",
    "base_seed",
    "benchmark",
    "groups",
    "catalog",
    "known_products",
    "policies",
}
_GROUP_KEYS = {
    "count",
    "profit",
    "valuation",
    "launch_time",
    "launch_spacing",
    "tiers",
    "valuation_known",
}
_POLICY_KEYS = {"name", "options", "label"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _int(value, name: str) -> int:
    _require(type(value) is int, f"{name} must be an integer, got {value!r}")
    return value


def _str(value, name: str) -> str:
    _require(isinstance(value, str), f"{name} must be a string, got {value!r}")
    return value


def _id(value, name: str):
    _require(
        isinstance(value, (int, str)) and not isinstance(value, bool),
        f"{name} must be a product id (string or integer), got {value!r}",
    )
    return value


def _bool(value, name: str) -> bool:
    _require(type(value) is bool, f"{name} must be true or false, got {value!r}")
    return value


def _list(value, name: str) -> list:
    _require(isinstance(value, list), f"{name} must be a list, got {value!r}")
    return value


def _support(value, name: str) -> tuple[float, float]:
    _require(
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(type(x) in (int, float) and math.isfinite(x) for x in value),
        f"{name} must be a [lo, hi] pair of finite numbers, got {value!r}",
    )
    return (float(value[0]), float(value[1]))


def config_to_dict(config: ExperimentConfig) -> dict:
    out: dict = {
        "schema": 1,
        "label": config.label,
        "horizon": config.horizon,
        "replications": config.replications,
        "base_seed": config.base_seed,
        "benchmark": config.benchmark,
        "policies": [
            {"name": p.name, "options": dict(p.options), "label": p.display_label}
            for p in config.policies
        ],
    }
    if config.catalog is not None:
        out["catalog"] = catalog_to_dict(config.catalog)
        out["known_products"] = list(config.known_products)
    else:
        out["groups"] = [
            {
                "count": g.count,
                "profit": list(g.profit),
                "valuation": list(g.valuation),
                "launch_time": g.launch_time,
                "launch_spacing": g.launch_spacing,
                "tiers": list(g.tiers),
                "valuation_known": g.valuation_known,
            }
            for g in config.groups
        ]
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    _require(isinstance(data, dict), "config document must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    _require(not unknown, f"unknown config key {sorted(unknown)[0]!r}" if unknown else "")
    _require(data.get("schema") == 1, f"unsupported config schema {data.get('schema')!r}")
    groups = []
    for raw in _list(data.get("groups", []), "groups"):
        _require(isinstance(raw, dict), f"each group must be an object, got {raw!r}")
        bad = set(raw) - _GROUP_KEYS
        _require(not bad, f"unknown group key {sorted(bad)[0]!r}" if bad else "")
        _require("count" in raw and "profit" in raw and "valuation" in raw,
                 "each group needs count, profit, valuation")
        groups.append(
            ProductGroup(
                _int(raw["count"], "group count"),
                _support(raw["profit"], "group profit"),
                _support(raw["valuation"], "group valuation"),
                _int(raw.get("launch_time", 0), "group launch_time"),
                _int(raw.get("launch_spacing", 0), "group launch_spacing"),
                tuple(
                    _int(k, "group tier") for k in _list(raw.get("tiers", [1, 2]), "group tiers")
                ),
                _bool(raw.get("valuation_known", False), "group valuation_known"),
            )
        )
    policies = []
    for raw in _list(data.get("policies", []), "policies"):
        _require(isinstance(raw, dict), f"each policy must be an object, got {raw!r}")
        bad = set(raw) - _POLICY_KEYS
        _require(not bad, f"unknown policy key {sorted(bad)[0]!r}" if bad else "")
        _require("name" in raw, "each policy needs a name")
        options = raw.get("options", {})
        _require(isinstance(options, dict), f"policy options must be an object, got {options!r}")
        label = raw.get("label")
        policies.append(
            PolicySpec(
                _str(raw["name"], "policy name"),
                dict(options),
                None if label is None else _str(label, "policy label"),
            )
        )
    catalog = catalog_from_dict(data["catalog"]) if "catalog" in data else None
    return ExperimentConfig(
        label=_str(data.get("label", "experiment"), "label"),
        horizon=_int(data.get("horizon", 0), "horizon"),
        policies=tuple(policies),
        groups=tuple(groups),
        catalog=catalog,
        known_products=tuple(
            _id(i, "known product") for i in _list(data.get("known_products", []), "known_products")
        ),
        replications=_int(data.get("replications", 1), "replications"),
        base_seed=_int(data.get("base_seed", 0), "base_seed"),
        benchmark=str(data.get("benchmark", "launched")),
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- CSV output -----------------------------------------------------------------


def _id_cell(ids: Iterable) -> str:
    return "|".join(str(i) for i in sorted_ids(ids))


def write_trace_csv(trace: RegretTrace, path) -> None:
    """Per-step trace; floats via repr so replays are byte-identical."""
    cumulative = trace.cumulative()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["t", "instantaneous_regret", "cumulative_regret", "offered_tier1", "offered_tier2"]
        )
        for t in range(len(trace)):
            offer = trace.offers[t]
            writer.writerow(
                [
                    t + 1,
                    repr(float(trace.instantaneous[t])),
                    repr(float(cumulative[t])),
                    _id_cell(offer.tier(0)),
                    _id_cell(offer.tier(1)),
                ]
            )


def write_mean_curve_csv(summary: ReplicationSummary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "mean_instantaneous_regret", "mean_cumulative_regret"])
        for t in range(len(summary.mean_cumulative)):
            writer.writerow(
                [
                    t + 1,
                    repr(float(summary.mean_instantaneous[t])),
                    repr(float(summary.mean_cumulative[t])),
                ]
            )
