"""Customer-arrival environment, regret accounting, and experiment configs.

``run`` drives one policy through t = 1..T: expose the launched products,
ask for an offer, sample one customer from the true valuations, feed the
outcome back, and score the step's pseudo-regret E[R(S*_t)] - E[R(offer)]
analytically so the headline metric carries no sampling noise (realized
revenue is logged alongside as a diagnostic).  The benchmark S*_t is the
prefix-pair optimum over the products launched by t, re-solved whenever
``Catalog.visible_at`` hands back a new launched set — the same family
every policy prices offers with, so no policy is judged against a search
space it could not use.  Each distinct offer takes a slot when first
served: its unlaunched-product check, price and sampler are worked out
then, the trace keeps one int32 slot per step, and the trace CSV formats
each offer's id cells once.

Replication seeds fan out of one base seed via numpy's SeedSequence spawn
keys: (rep, 0) draws the catalog, (rep, 1) the customers, (rep, 2) the
policy's private randomness.  Each replication draws a fresh catalog from
the group specs, and two configs sharing a base seed see identical draws
stream-for-stream (the experiment-1 scenarios share profits this way).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import count
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, InvalidOfferError
from .model import (
    Catalog,
    ChoiceSampler,
    Product,
    TieredOffer,
    _check_document,
    _finite,
    _read_json,
    _write_json,
    catalog_from_dict,
    catalog_to_dict,
    expected_profit,
    sorted_ids,
)
from .optimizer import solve_two_tier
from .policies import make_policy
from .rng import BufferedRandom

# Largest horizon and group count a config may ask for: numpy sizes the
# per-step arrays and the group draws from them.
_MAX_SIZE = 2**31 - 1


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
        if not 1 <= _int(self.count, "group count") <= _MAX_SIZE:
            raise ConfigError(f"group count must lie in [1, {_MAX_SIZE}], got {self.count!r}")
        lo, hi = self.profit
        if not 0.0 <= lo <= hi:
            raise ConfigError(f"profit support must satisfy 0 <= lo <= hi, got {self.profit!r}")
        lo, hi = self.valuation
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigError(
                f"valuation support must sit inside [0, 1], got {self.valuation!r}"
            )
        for name in ("launch_time", "launch_spacing"):
            if _int(getattr(self, name), f"group {name}") < 0:
                raise ConfigError(f"group {name} must be >= 0, got {getattr(self, name)!r}")
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
        if not 1 <= _int(self.horizon, "horizon") <= _MAX_SIZE:
            raise ConfigError(f"horizon must lie in [1, {_MAX_SIZE}], got {self.horizon!r}")
        if _int(self.replications, "replications") < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications!r}")
        if _int(self.base_seed, "base_seed") < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed!r}")
        if self.benchmark not in ("launched", "full"):
            raise ConfigError(
                f"benchmark must be 'launched' or 'full', got {self.benchmark!r}"
            )
        if not self.policies:
            raise ConfigError("config needs at least one policy")
        labels = [spec.display_label for spec in self.policies]
        for k, label in enumerate(labels):
            if label in labels[:k]:
                raise ConfigError(f"policy labels {label!r} and {label!r} are duplicates")
        if (self.catalog is None) == (not self.groups):
            raise ConfigError("provide exactly one of groups / explicit catalog")
        if self.known_products and self.catalog is None:
            raise ConfigError("known_products needs an explicit catalog; groups use valuation_known")
        for i in self.known_products:
            if i not in self.catalog:
                raise ConfigError(f"known product {i!r} is not in the catalog")
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
    """One run's per-step pseudo-regret, realized revenue, and offers.

    ``offers`` holds each distinct offer once, in the order first served,
    and ``offer_index[t - 1]`` (int32) is the slot of step t's offer.
    """

    policy_label: str
    instantaneous: np.ndarray
    realized_revenue: np.ndarray
    offers: tuple[TieredOffer, ...]
    offer_index: np.ndarray

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.instantaneous)

    @property
    def final_regret(self) -> float:
        return float(self.instantaneous.sum())

    def __len__(self) -> int:
        return len(self.instantaneous)


def run(config: ExperimentConfig, policy_spec: PolicySpec, seed: int = 0) -> RegretTrace:
    """One policy, one replication (``seed`` is the replication index)."""
    if _int(seed, "seed") < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
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
    full = frozenset(catalog.ids) if config.benchmark == "full" else None
    solved_on = None  # the product set benchmark_value was solved on
    instantaneous = np.zeros(config.horizon)
    revenue = np.zeros(config.horizon)
    offer_index = np.zeros(config.horizon, dtype=np.int32)
    offers = []
    cache: dict[TieredOffer, tuple[int, float, ChoiceSampler]] = {}  # by equality
    for t in range(1, config.horizon + 1):
        launched = catalog.visible_at(t)  # one set object per launch count
        visible = launched if full is None else full
        if visible is not solved_on:
            solved_on = visible
            benchmark_value = solve_two_tier(
                catalog,
                candidates_tier1=catalog.candidates_tier1 & visible,
                candidates_tier2=catalog.candidates_tier2 & visible,
                exact=False,
            ).expected_profit
        offer = policy.offer(t)
        cached = cache.get(offer)
        if cached is None:
            # visible sets only grow, so an offer valid when first served
            # stays valid
            if not offer.all_ids <= launched:
                missing = sorted_ids(offer.all_ids - launched)
                raise InvalidOfferError(
                    f"policy {policy_spec.display_label!r} offered unlaunched "
                    f"product {missing[0]!r} at t={t}"
                )
            cached = cache[offer] = (
                len(offers),
                expected_profit(offer, catalog),
                ChoiceSampler(offer, catalog),
            )
            offers.append(offer)
        slot, value, sampler = cached
        outcome = sampler.sample(customer_rng)
        policy.observe(t, offer, outcome)
        instantaneous[t - 1] = benchmark_value - value
        offer_index[t - 1] = slot
        if outcome.is_purchase:
            revenue[t - 1] = catalog.profit_of(outcome.product)
    return RegretTrace(
        policy_spec.display_label, instantaneous, revenue, tuple(offers), offer_index
    )


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
    if _int(n, "n_reps") < 1:
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
    return {spec.display_label: replicate(config, spec, n_reps) for spec in config.policies}


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
# One table per level (``ExperimentConfig``, ``ProductGroup``, ``PolicySpec``)
# maps its keys, the dataclass's fields, to the checkers of their values.


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


def _object(value, name: str) -> dict:
    _require(isinstance(value, dict), f"{name} must be an object, got {value!r}")
    return dict(value)


def _support(value, name: str) -> tuple[float, float]:
    _require(
        isinstance(value, (list, tuple)) and len(value) == 2,
        f"{name} must be a [lo, hi] pair of finite numbers, got {value!r}",
    )
    return tuple(_finite(x, ConfigError, f"{name} bound") for x in value)


def _tuple_of(check, item: str):
    """Checker of a list whose entries ``check`` reads, each named ``item``."""

    def read(value, name: str) -> tuple:
        _require(isinstance(value, list), f"{name} must be a list, got {value!r}")
        return tuple(check(x, item) for x in value)

    return read


def _build(cls, keys: dict, what: str, defaults=None):
    """Checker of a ``what`` object that builds a ``cls``: ``keys`` maps a
    key to the checker of its value, named "<what> <key>" (``cls`` alone
    checks the keys it leaves out), and ``defaults`` fills keys the
    document may omit though ``cls`` has no default for them."""
    defaults = defaults or {}
    prefix = "" if what == "config" else f"{what} "

    def build(raw, name: str = what):
        _check_document(raw, cls, what, ConfigError, defaults)
        raw = {**defaults, **raw}
        return cls(**{k: keys[k](v, prefix + k) if k in keys else v for k, v in raw.items()})

    return build


_policy = _build(
    PolicySpec,
    {"name": _str, "options": _object, "label": lambda v, n: None if v is None else _str(v, n)},
    "policy",
)
_group = _build(
    ProductGroup,
    {
        "profit": _support,
        "valuation": _support,
        "tiers": _tuple_of(_int, "group tier"),
        "valuation_known": _bool,
    },
    "group",
)
_config = _build(
    ExperimentConfig,
    {
        "label": _str,
        "policies": _tuple_of(_policy, "policy"),
        "groups": _tuple_of(_group, "group"),
        "catalog": lambda value, name: catalog_from_dict(value),
        "known_products": _tuple_of(_id, "known product"),
        "benchmark": _str,
    },
    "config",
    {"label": "experiment", "horizon": 0, "policies": []},  # horizon 0 fails its range check
)


def _document(value):
    """``value`` as JSON data: a dataclass as the dict of its fields, a tuple
    as a list, a mapping copied with ``dict``."""
    if isinstance(value, Catalog):
        return catalog_to_dict(value)
    if is_dataclass(value):
        return {f.name: _document(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_document(x) for x in value]
    return dict(value) if isinstance(value, Mapping) else value


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {"schema": 1, **_document(config)}
    for key in ("groups",) if config.catalog is not None else ("catalog", "known_products"):
        del out[key]
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    _require(isinstance(data, dict), "config document must be a JSON object")
    _require(data.get("schema") == 1, f"unsupported config schema {data.get('schema')!r}")
    return _config({key: value for key, value in data.items() if key != "schema"})


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json(path, ConfigError))


def save_config(config: ExperimentConfig, path) -> None:
    _write_json(config_to_dict(config), path)


# --- CSV output -----------------------------------------------------------------


def _id_cell(ids: Iterable) -> str:
    return "|".join(str(i) for i in sorted_ids(ids))


def write_trace_csv(trace: RegretTrace, path) -> None:
    """Per-step trace; csv writes floats via repr, so replays are
    byte-identical.  Each distinct offer's id cells are formatted once."""
    cells = [(_id_cell(offer.tier(0)), _id_cell(offer.tier(1))) for offer in trace.offers]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["t", "instantaneous_regret", "cumulative_regret", "offered_tier1", "offered_tier2"]
        )
        writer.writerows(
            (t, regret, cumulative, *cells[slot])
            for t, regret, cumulative, slot in zip(
                count(1),
                trace.instantaneous.tolist(),
                trace.cumulative().tolist(),
                trace.offer_index.tolist(),
            )
        )


def write_mean_curve_csv(summary: ReplicationSummary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "mean_instantaneous_regret", "mean_cumulative_regret"])
        writer.writerows(
            zip(
                count(1),
                summary.mean_instantaneous.tolist(),
                summary.mean_cumulative.tolist(),
            )
        )
