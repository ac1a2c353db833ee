"""Fast self-diagnostics behind the ``verify`` CLI subcommand.

Each check replays a fact the test suite pins at stricter tolerance, but in
seconds and with no test runner: fixture presence, the worked two-product
example, epoch bookkeeping on a hand-traced stream, solver agreement with
brute force, the geometric law of per-epoch purchase counts, the closed-form
per-epoch gap, and the defining formula plus optimism of the preference
index.  ``run_checks`` never raises for a failing property — every surprise
is folded into a failed ``CheckResult``.

The ``confidence_scale`` argument exists for harness-level mutation testing:
it substitutes the confidence scale the ledger is *queried* with, while the
formula check keeps its own independently coded literal.  Any substitution
(say 4.8 in place of 48) therefore makes the optimism-coverage check fail,
proving the check actually constrains the constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import TieredMnlError
from .estimation import EpochLedger
from .model import (
    Catalog,
    ChoiceOutcome,
    ChoiceSampler,
    NO_PURCHASE,
    Product,
    TieredOffer,
    expected_profit,
    expected_profit_single_tier,
    load_catalog,
)
from .optimizer import brute_force_optimal, is_profit_ordered_by_tier, solve_two_tier
from .policies import epoch_regret_closed_form
from .rng import BufferedRandom

FIXTURE_DIR = Path(__file__).parent / "fixtures"
EXAMPLE_CATALOG = FIXTURE_DIR / "example_catalog.json"

_CHECK_SEED = 20260814


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _check_fixture_files(path: Path) -> CheckResult:
    if not path.is_file():
        return CheckResult("fixture-files", False, f"fixture missing: {path}")
    try:
        catalog = load_catalog(path)
    except TieredMnlError as exc:
        return CheckResult("fixture-files", False, f"{path}: {exc}")
    return CheckResult(
        "fixture-files", True, f"{path.name}: {len(catalog.products)} products"
    )


def _check_worked_example(path: Path) -> CheckResult:
    if not path.is_file():
        return CheckResult("worked-example-values", False, f"fixture missing: {path}")
    catalog = load_catalog(path)
    ids = sorted(p.id for p in catalog.products)
    if len(ids) != 2:
        return CheckResult(
            "worked-example-values", False, f"expected 2 products, found {len(ids)}"
        )
    hi, lo = ids
    single = expected_profit_single_tier(ids, catalog)
    split = expected_profit(TieredOffer.two_tier([hi], [lo]), catalog)
    result = solve_two_tier(catalog)
    bad = []
    if abs(single - 2.0 / 2.1) > 1e-12:
        bad.append(f"single-tier {single!r} != {2.0 / 2.1!r}")
    if abs(split - 15.0 / 11.0) > 1e-12:
        bad.append(f"split {split!r} != {15.0 / 11.0!r}")
    if result.offer != TieredOffer.two_tier([hi], [lo]):
        bad.append(f"solver picked {result.offer.tiers!r}")
    if abs(result.expected_profit - 15.0 / 11.0) > 1e-12:
        bad.append(f"solver value {result.expected_profit!r}")
    if bad:
        return CheckResult("worked-example-values", False, "; ".join(bad))
    return CheckResult(
        "worked-example-values",
        True,
        f"split {split:.6f} beats single tier {single:.6f}",
    )


def _check_epoch_bookkeeping() -> CheckResult:
    offer = TieredOffer.two_tier(["a"], ["b"])
    buy1 = ChoiceOutcome("a", 0)
    buy2 = ChoiceOutcome("b", 1)
    ledger = EpochLedger(Catalog((Product("a", 1.0, 0.5), Product("b", 1.0, 0.5))))
    stream = (buy1, buy2, buy1, buy1, NO_PURCHASE, buy2, buy1, buy1, NO_PURCHASE)
    steps = [ledger.record_step(offer, outcome) for outcome in stream]
    # each record with the step it came back on, which ends its epoch
    closed = [[(t, step[k]) for t, step in enumerate(steps, 1) if step[k] is not None] for k in (0, 1)]
    got = (
        tuple((t, r.label) for t, r in closed[0]),
        tuple(r.purchases_of("a") for _, r in closed[0]),
        tuple((t, r.label) for t, r in closed[1]),
        tuple(r.purchases_of("b") for _, r in closed[1]),
        ledger.valuation_estimate("a"),
        ledger.valuation_estimate("b"),
        ledger.completed,
    )
    want = (((2, 0), (5, 1), (6, 3), (9, 4)), (1, 2, 0, 2), ((5, 0), (9, 3)), (1, 1), 1.25, 1.0, 6)
    if got != want:
        return CheckResult("epoch-bookkeeping", False, f"traced {got!r}, want {want!r}")
    return CheckResult(
        "epoch-bookkeeping", True, "9-step trace: 4 tier-1 epochs, 2 tier-2 epochs"
    )


def _random_catalog(rng: np.random.Generator) -> Catalog:
    n = int(rng.integers(1, 8))
    products = tuple(
        Product(f"p{k}", float(np.round(rng.uniform(0.0, 10.0), 3)), float(np.round(rng.uniform(0.0, 1.0), 3)))
        for k in range(n)
    )
    ids = [p.id for p in products]
    x1 = frozenset(i for i in ids if rng.random() < 0.7)
    x2 = frozenset(i for i in ids if rng.random() < 0.7)
    return Catalog(products, x1, x2)


def _check_solver_brute_force() -> CheckResult:
    rng = np.random.default_rng(_CHECK_SEED)
    worst = 0.0
    for trial in range(25):
        catalog = _random_catalog(rng)
        fast = solve_two_tier(catalog)
        slow = brute_force_optimal(catalog)
        worst = max(worst, abs(fast.expected_profit - slow.expected_profit))
        if worst > 1e-9:
            return CheckResult(
                "solver-brute-force",
                False,
                f"trial {trial}: solver {fast.expected_profit!r} vs "
                f"exhaustive {slow.expected_profit!r}",
            )
        if not is_profit_ordered_by_tier(fast.offer, catalog):
            return CheckResult(
                "solver-brute-force", False, f"trial {trial}: optimum not profit-ordered"
            )
    return CheckResult(
        "solver-brute-force", True, f"25 random instances, max gap {worst:.2e}"
    )


def _chi2_sf_5(x: float) -> float:
    """Upper tail P(X > x) of a chi-square law with 5 degrees of freedom, in
    closed form: erfc(sqrt(x/2)) + sqrt(2/pi) e^(-x/2) (sqrt(x) + x^(3/2)/3)."""
    tail = math.sqrt(2.0 / math.pi) * math.exp(-x / 2.0) * (math.sqrt(x) + x**1.5 / 3.0)
    return math.erfc(math.sqrt(x / 2.0)) + tail


def _check_geometric_counts() -> CheckResult:
    v = 0.4
    catalog = Catalog((Product("g", 1.0, v),))
    offer = TieredOffer.two_tier(["g"], [])
    sampler = ChoiceSampler(offer, catalog)
    rand = BufferedRandom(np.random.default_rng(_CHECK_SEED))
    ledger = EpochLedger(catalog)
    n_epochs = 20_000
    counts = []
    while len(counts) < n_epochs:
        record = ledger.record_step(offer, sampler.sample(rand))[0]
        if record is not None:
            counts.append(record.purchases_of("g"))
    mean = ledger.valuation_estimate("g")
    # per-epoch count is geometric on {0,1,...}: P(k) = v^k / (1+v)^(k+1),
    # E = v, Var = v(1+v); tail-bin so every expected cell count is large
    mean_tol = 4.0 * math.sqrt(v * (1.0 + v) / n_epochs)
    if abs(mean - v) > mean_tol:
        return CheckResult(
            "geometric-purchase-counts",
            False,
            f"mean {mean:.4f} vs {v} (tol {mean_tol:.4f})",
        )
    edge = 5
    observed = np.bincount(np.minimum(counts, edge), minlength=edge + 1)
    probs = np.array(
        [v**k / (1.0 + v) ** (k + 1) for k in range(edge)]
        + [(v / (1.0 + v)) ** edge]
    )
    expected = n_epochs * probs
    stat = float(((observed - expected) ** 2 / expected).sum())
    p_value = _chi2_sf_5(stat)  # edge + 1 cells: 5 degrees of freedom while edge is 5
    if p_value < 1e-3:
        return CheckResult(
            "geometric-purchase-counts",
            False,
            f"chi-square {stat:.2f} on {edge} df, p {p_value:.2e}",
        )
    return CheckResult(
        "geometric-purchase-counts",
        True,
        f"{n_epochs} epochs: mean {mean:.4f} ~ {v}, chi-square p {p_value:.3f}",
    )


def _check_closed_form_gap() -> CheckResult:
    products = (
        Product("a", 6.0, 0.3),
        Product("b", 2.5, 0.8),
        Product("c", 1.5, 0.6),
        Product("m", 0.5, 0.7),
    )
    catalog = Catalog(products)
    base = TieredOffer.two_tier(["a"], ["b", "c"])
    gap = epoch_regret_closed_form(catalog, base, "m", 1)
    # adding m to tier 2 over a whole epoch forfeits exactly v_m customers'
    # worth of the tier-2 margin relative to m's own profit
    literal = 0.7 * (expected_profit_single_tier(["b", "c"], catalog) - 0.5)
    if abs(gap - literal) > 1e-12:
        return CheckResult(
            "per-epoch-gap-closed-form", False, f"gap {gap!r} vs literal {literal!r}"
        )
    return CheckResult(
        "per-epoch-gap-closed-form", True, f"tier-2 gap {gap:.6f} matches identity"
    )


def _check_ucb_optimism(confidence_scale) -> CheckResult:
    rng = np.random.default_rng(_CHECK_SEED)
    v_true = 0.5
    catalog = Catalog((Product("u", 1.0, v_true),))
    offer = TieredOffer.two_tier(["u"], [])
    sampler = ChoiceSampler(offer, catalog)
    rand = BufferedRandom(rng)
    ledger = EpochLedger(catalog)
    n_products, n_epochs = 12, 60
    purchases = epochs_done = 0
    while epochs_done < n_epochs:
        record = ledger.record_step(offer, sampler.sample(rand))[0]
        if record is None:
            continue
        purchases += record.purchases_of("u")
        epochs_done += 1
        implemented = ledger.valuation_ucb(
            "u", ledger.completed, n_products, confidence_scale
        )
        # the defining formula, with its constant written out
        pad = 48.0 * math.log(n_products * ledger.completed + 1.0) / epochs_done
        mean = purchases / epochs_done
        literal = mean + math.sqrt(mean * pad) + pad
        if abs(implemented - literal) > 1e-9 * max(1.0, literal):
            return CheckResult(
                "ucb-optimism-coverage",
                False,
                f"epoch {epochs_done}: index {implemented!r} deviates from its "
                f"defining formula {literal!r}",
            )
        if implemented < v_true:
            return CheckResult(
                "ucb-optimism-coverage",
                False,
                f"epoch {epochs_done}: index {implemented:.4f} fell below the "
                f"true valuation {v_true}",
            )
    return CheckResult(
        "ucb-optimism-coverage",
        True,
        f"{n_epochs} epochs: index matched its formula and stayed above {v_true}",
    )


def run_checks(
    *, confidence_scale: float | None = None, fixture_path=None
) -> list[CheckResult]:
    """Run every diagnostic; failures are reported, never raised.

    ``confidence_scale`` overrides the scale the optimism check queries the
    ledger with (mutation hook); ``fixture_path`` overrides the packaged
    example catalog (missing-file hook).
    """
    path = EXAMPLE_CATALOG if fixture_path is None else Path(fixture_path)
    checks: list[tuple[str, Callable[[], CheckResult]]] = [
        ("fixture-files", lambda: _check_fixture_files(path)),
        ("worked-example-values", lambda: _check_worked_example(path)),
        ("epoch-bookkeeping", _check_epoch_bookkeeping),
        ("solver-brute-force", _check_solver_brute_force),
        ("geometric-purchase-counts", _check_geometric_counts),
        ("per-epoch-gap-closed-form", _check_closed_form_gap),
        ("ucb-optimism-coverage", lambda: _check_ucb_optimism(confidence_scale)),
    ]
    results = []
    for name, check in checks:
        try:
            results.append(check())
        except Exception as exc:  # noqa: BLE001 - diagnostics must not crash
            results.append(CheckResult(name, False, f"unexpected error: {exc!r}"))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = [f"{r.status}  {r.name}: {r.detail}" for r in results]
    failed = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        if failed
        else f"all {len(results)} checks passed"
    )
    return "\n".join(lines)
