"""Acceptance criteria.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single ``PASS``/``FAIL`` line (run with ``-s`` to see
the lines for passing criteria too).  Random criteria use the pre-committed
seed 20260814; tolerances are pinned in the assertions, not tuned to the
draw.
"""

import itertools
import math

import numpy as np
from scipy.stats import chisquare

from tieredmnl.cli import main
from tieredmnl.estimation import EpochLedger, min_learning_epochs
from tieredmnl.model import (
    NO_PURCHASE,
    Catalog,
    ChoiceOutcome,
    ChoiceSampler,
    Product,
    TieredOffer,
    expected_profit,
    expected_profit_single_tier,
)
from tieredmnl.optimizer import (
    brute_force_optimal,
    is_profit_ordered_by_tier,
    is_profit_ordered_set,
    solve_two_tier,
    suffix_profits,
)
from tieredmnl.policies import epoch_regret_closed_form, epoch_regret_monte_carlo
from tieredmnl.rng import BufferedRandom
from tieredmnl.simulator import (
    ExperimentConfig,
    PolicySpec,
    experiment_preset,
    replicate,
    run_experiment,
    save_config,
)

ACCEPT_SEED = 20260814


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


class TestAcceptance:
    def test_criterion_01_worked_example_exactness(self):
        """Single-tier {1,2} earns (10*0.1 + 1*1)/2.1 and the split ({1},{2})
        earns 15/11; both match the printed 0.952 / 1.36 to 5e-3 and the
        closed forms to 1e-12."""
        catalog = Catalog((Product(1, 10.0, 0.1), Product(2, 1.0, 1.0)))
        pooled = expected_profit_single_tier([1, 2], catalog)
        split = expected_profit(TieredOffer.two_tier([1], [2]), catalog)
        checks = [
            abs(pooled - 2.0 / 2.1) < 1e-12,
            abs(split - 15.0 / 11.0) < 1e-12,
            abs(pooled - 0.952) < 5e-3,
            abs(split - 1.36) < 5e-3,
        ]
        solved = solve_two_tier(catalog)
        checks.append(solved.offer == TieredOffer.two_tier([1], [2]))
        checks.append(abs(solved.expected_profit - 15.0 / 11.0) < 1e-12)
        report(
            "criterion 1 (worked-example exactness)",
            all(checks),
            f"pooled {pooled:.12f} vs 2/2.1, split {split:.12f} vs 15/11",
        )

    def test_criterion_02_trace_replay(self):
        """The scripted nine-customer stream yields exactly the documented
        epoch labels L1={0,1,3,4}, L2={0,3} and the six per-epoch step
        sets {1,2},{3,4,5},{6},{7,8,9} / {2,5},{6,9}."""
        offer = TieredOffer.two_tier(["a"], ["b"])
        script = (
            ChoiceOutcome("a", 0),
            ChoiceOutcome("b", 1),
            ChoiceOutcome("a", 0),
            ChoiceOutcome("a", 0),
            NO_PURCHASE,
            ChoiceOutcome("b", 1),
            ChoiceOutcome("a", 0),
            ChoiceOutcome("a", 0),
            NO_PURCHASE,
        )
        ledger = EpochLedger(Catalog((Product("a", 1.0, 0.5), Product("b", 1.0, 0.5))))
        closes = [ledger.record_step(offer, outcome) for outcome in script]
        # a record comes back on the step that closed it: a tier-1 epoch
        # covers the steps after the previous tier-1 close through its own,
        # a tier-2 epoch the steps of its span without a tier-1 purchase
        steps, start = ([], []), [1, 1]
        for t, closed in enumerate(closes, 1):
            for k in (0, 1):
                if closed[k] is not None:
                    span = range(start[k], t + 1)
                    steps[k].append(tuple(s for s in span if k == 0 or script[s - 1].tier != 0))
                    start[k] = t + 1
        got = (
            tuple(r.label for r in ledger.epochs(0)),
            tuple(r.label for r in ledger.epochs(1)),
            tuple(steps[0]),
            tuple(steps[1]),
        )
        want = (
            (0, 1, 3, 4),
            (0, 3),
            ((1, 2), (3, 4, 5), (6,), (7, 8, 9)),
            ((2, 5), (6, 9)),
        )
        report(
            "criterion 2 (epoch trace replay)",
            got == want,
            f"labels/steps {got!r}",
        )

    def test_criterion_03_solver_oracle_equivalence(self):
        """On 200 random catalogs (|X1|,|X2| <= 8, profits U[0,1],
        valuations U[0,0.5], overlap allowed) the solver matches exhaustive
        search within 1e-9 and its offers pass both profit-ordering
        predicates."""
        rng = np.random.default_rng(ACCEPT_SEED)
        worst_gap = 0.0
        ordered_failures = 0
        for _ in range(200):
            n = int(rng.integers(1, 9))
            products = tuple(
                Product(f"p{k}", float(rng.uniform(0, 1)), float(rng.uniform(0, 0.5)))
                for k in range(n)
            )
            ids = [p.id for p in products]
            x1 = frozenset(i for i in ids if rng.random() < 0.8)
            x2 = frozenset(i for i in ids if rng.random() < 0.8)
            catalog = Catalog(products, x1, x2)
            fast = solve_two_tier(catalog)
            slow = brute_force_optimal(catalog)
            worst_gap = max(
                worst_gap, abs(fast.expected_profit - slow.expected_profit)
            )
            s1, s2 = fast.offer.tier(0), fast.offer.tier(1)
            ordered = (
                is_profit_ordered_set(s1, x1 - s2, catalog)
                and is_profit_ordered_set(s2, x2 - s1, catalog)
                and is_profit_ordered_by_tier(fast.offer, catalog)
            )
            if not ordered:
                ordered_failures += 1
        report(
            "criterion 3 (solver-oracle equivalence)",
            worst_gap <= 1e-9 and ordered_failures == 0,
            f"worst profit gap {worst_gap:.2e}, "
            f"profit-ordering failures {ordered_failures}/200",
        )

    def test_criterion_04_three_tier_restructuring_properties(self):
        """On 100 exhaustively solved three-tier instances plus one added
        product: (i) suffix revenues are non-increasing by tier; (ii) a
        product earning less than the last tier's suffix revenue stays out
        of the re-solved optimum; (iii) a product whose profit falls between
        the suffix revenues of tiers j and j-1 stays out of tiers 1..j-1.
        Boundary ties within 1e-9 are excluded."""
        rng = np.random.default_rng(ACCEPT_SEED)
        mono_viol = excl_viol = band_viol = 0
        excl_cases = band_cases = 0
        example = ""
        for trial in range(100):
            n = int(rng.integers(3, 8))
            products = tuple(
                Product(f"p{k}", float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
                for k in range(n)
            )
            catalog = Catalog(products)
            old = brute_force_optimal(catalog, num_tiers=3)
            suffix = suffix_profits(old.offer, catalog)
            r_m, v_m = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            grown = Catalog(products + (Product("m", r_m, v_m),))
            new = brute_force_optimal(grown, num_tiers=3)
            new_suffix = suffix_profits(new.offer, grown)
            for values in (suffix, new_suffix):
                if not all(a >= b - 1e-9 for a, b in zip(values, values[1:])):
                    mono_viol += 1
            other_ids = [p.id for p in products]
            if r_m < suffix[-1] - 1e-9:
                excl_cases += 1
                strict = new.expected_profit > old.expected_profit + 1e-9
                if "m" in new.offer.all_ids and strict:
                    excl_viol += 1
                    if not example:
                        example = (
                            f"trial {trial}: r_m={r_m:.6f} < "
                            f"E[R(S*_3)]={suffix[-1]:.6f} yet m placed in "
                            f"{[sorted(tier, key=str) for tier in new.offer.tiers]!r}, "
                            f"improving profit by "
                            f"{new.expected_profit - old.expected_profit:.2e}"
                        )
            for j in (2, 3):
                if suffix[j - 1] + 1e-9 < r_m < suffix[j - 2] - 1e-9:
                    band_cases += 1
                    leading = frozenset().union(*new.offer.tiers[: j - 1])
                    if "m" in leading:
                        allowed = [
                            other_ids if k < j - 1 else other_ids + ["m"]
                            for k in range(3)
                        ]
                        constrained = brute_force_optimal(
                            grown, num_tiers=3, candidate_sets=allowed
                        )
                        strict = (
                            new.expected_profit
                            > constrained.expected_profit + 1e-9
                        )
                        if strict:
                            band_viol += 1
        report(
            "criterion 4 (three-tier restructuring properties)",
            mono_viol == 0 and excl_viol == 0 and band_viol == 0,
            f"monotonicity violations {mono_viol}/200, "
            f"exclusion violations {excl_viol}/{excl_cases}, "
            f"band violations {band_viol}/{band_cases}"
            + (f"; {example}" if example else ""),
        )

    def test_criterion_05_geometric_epoch_counts(self):
        """Per-epoch purchase counts of a v=0.3 product over 1e5 epochs in
        each tier placement fit geometric(1/1.3) (chi-square, significance
        0.001) and the pooled mean sits within 3 standard errors of 0.3."""
        v = 0.3
        n_epochs = 100_000

        def collect(offer, tier_index, seed):
            catalog = Catalog((Product("o", 1.0, 0.5), Product("x", 1.0, v)))
            sampler = ChoiceSampler(offer, catalog)
            rng = BufferedRandom(np.random.default_rng(seed))
            ledger = EpochLedger(catalog)
            while ledger.times_offered("x") < n_epochs:
                ledger.record_step(offer, sampler.sample(rng))
            return np.array(
                [r.purchases_of("x") for r in ledger.epochs(tier_index)],
                dtype=np.int64,
            )

        counts1 = collect(TieredOffer.two_tier(["x"], []), 0, ACCEPT_SEED)
        counts2 = collect(TieredOffer.two_tier(["o"], ["x"]), 1, ACCEPT_SEED + 1)
        q = v / (1.0 + v)
        p_values = []
        for counts in (counts1, counts2):
            edges = list(range(5))
            observed = [int((counts == k).sum()) for k in edges]
            observed.append(int((counts >= 5).sum()))
            probs = [(1.0 - q) * q**k for k in edges]
            probs.append(q**5)
            expected = [p * len(counts) for p in probs]
            p_values.append(float(chisquare(observed, expected).pvalue))
        pooled = np.concatenate([counts1, counts2])
        stderr = math.sqrt(v * (1.0 + v) / len(pooled))
        mean_gap = abs(float(pooled.mean()) - v)
        report(
            "criterion 5 (geometric epoch counts)",
            all(p >= 1e-3 for p in p_values) and mean_gap <= 3.0 * stderr,
            f"chi-square p-values {p_values[0]:.3f}/{p_values[1]:.3f}, "
            f"pooled mean gap {mean_gap:.5f} vs 3se={3 * stderr:.5f}",
        )

    def test_criterion_06_epoch_regret_properties(self):
        """On 50 random instances: the simulated tier-2 epoch regret at the
        optimum matches v_m (E[R(S2*)] - r_m) within 3 standard errors; the
        tier-1 estimate is no cheaper than tier-2 beyond 3 combined standard
        errors; and exhaustive minimization of both epoch-regret functions
        over base offers recovers the optimum itself."""
        rng = np.random.default_rng(ACCEPT_SEED)
        identity_fail = order_fail = argmin1_fail = argmin2_fail = 0
        example = ""
        for trial in range(50):
            n = int(rng.integers(2, 6))
            others = tuple(
                Product(f"p{k}", float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
                for k in range(n)
            )
            r_m = float(rng.uniform(0, 1))
            v_m = float(rng.uniform(0.05, 1))
            catalog = Catalog(others + (Product("m", r_m, v_m),))
            other_ids = [p.id for p in others]
            best = brute_force_optimal(
                catalog, candidate_sets=[other_ids, other_ids]
            ).offer
            target = v_m * (
                expected_profit_single_tier(best.tier(1), catalog) - r_m
            )
            mc2 = epoch_regret_monte_carlo(catalog, best, "m", 1, 100_000, rng)
            if abs(mc2.mean - target) > 3.0 * mc2.std_error:
                identity_fail += 1
            mc1 = epoch_regret_monte_carlo(catalog, best, "m", 0, 100_000, rng)
            combined = math.hypot(mc1.std_error, mc2.std_error)
            if not mc1.mean >= mc2.mean - 3.0 * combined:
                order_fail += 1
            g1_star = epoch_regret_closed_form(catalog, best, "m", 0, comparator=best)
            g2_star = epoch_regret_closed_form(catalog, best, "m", 1, comparator=best)
            min_g1, min_g2 = math.inf, math.inf
            argmin_g2 = None
            for assign in itertools.product((0, 1, 2), repeat=len(other_ids)):
                base = TieredOffer.two_tier(
                    (i for i, a in zip(other_ids, assign) if a == 0),
                    (i for i, a in zip(other_ids, assign) if a == 1),
                )
                g1 = epoch_regret_closed_form(
                    catalog, base, "m", 0, comparator=best
                )
                g2 = epoch_regret_closed_form(
                    catalog, base, "m", 1, comparator=best
                )
                min_g1 = min(min_g1, g1)
                if g2 < min_g2:
                    min_g2, argmin_g2 = g2, base
            if g1_star > min_g1 + 1e-9:
                argmin1_fail += 1
            if g2_star > min_g2 + 1e-9:
                argmin2_fail += 1
                if not example:
                    example = (
                        f"trial {trial}: G2 at optimum {g2_star:.6f} but "
                        f"min {min_g2:.6f} at "
                        f"{[sorted(tier, key=str) for tier in argmin_g2.tiers]!r} "
                        f"(optimum {[sorted(tier, key=str) for tier in best.tiers]!r})"
                    )
        report(
            "criterion 6 (one-epoch regret properties)",
            identity_fail == 0
            and order_fail == 0
            and argmin1_fail == 0
            and argmin2_fail == 0,
            f"closed-form mismatches {identity_fail}/50, tier-order "
            f"violations {order_fail}/50, tier-1 argmin misses "
            f"{argmin1_fail}/50, tier-2 argmin misses {argmin2_fail}/50"
            + (f"; {example}" if example else ""),
        )

    def test_criterion_07_minimum_learning_criterion(self):
        """After M = min_learning_epochs(0.2, 0.1) epochs of exposure, the
        fraction of 1000 replications whose estimate strays beyond 0.2 from
        the truth is at most 0.1.  Uses v = 1.0, the highest-variance case
        the bound must cover."""
        epsilon, alpha = 0.2, 0.1
        m = min_learning_epochs(epsilon, alpha)
        v = 1.0
        rng = np.random.default_rng(ACCEPT_SEED)
        counts = rng.geometric(1.0 / (1.0 + v), size=(1000, m)) - 1
        deviations = np.abs(counts.mean(axis=1) - v)
        fraction = float((deviations > epsilon).mean())
        report(
            "criterion 7 (minimum learning criterion)",
            fraction <= alpha,
            f"M={m}, miss fraction {fraction:.4f} <= {alpha}",
        )

    def test_criterion_08_experiment_orderings(self):
        """Preset experiments at 10 replications reproduce the qualitative
        orderings: (a) mean final regret grows strictly with the valuation
        support; (b) the epoch learner beats explore-then-exploit by more
        than 2x; (c) tier-2 exploration beats coin-flip tier choice by more
        than one pooled standard error."""
        exp1_means = []
        for config in experiment_preset(1):
            (summary,) = run_experiment(config).values()
            exp1_means.append(summary.mean_final_regret)
        increasing = all(a < b for a, b in zip(exp1_means, exp1_means[1:]))

        (exp2,) = experiment_preset(2)
        duel = run_experiment(exp2)
        ucb2 = duel["ucb_tiered"].mean_final_regret
        ete = duel["explore_then_exploit"].mean_final_regret
        ratio = ucb2 / ete

        (exp3,) = experiment_preset(3)
        placement = run_experiment(exp3)
        ucb3 = placement["ucb_tiered"]
        coin = placement["random_tier"]
        margin = coin.mean_final_regret - ucb3.mean_final_regret
        pooled_se = math.hypot(
            ucb3.std_final_regret / math.sqrt(ucb3.n_reps),
            coin.std_final_regret / math.sqrt(coin.n_reps),
        )
        report(
            "criterion 8 (experiment orderings)",
            increasing and ratio < 0.5 and margin > pooled_se,
            f"(a) support sweep means {[round(x, 2) for x in exp1_means]} "
            f"strictly increasing: {increasing}; (b) learner/benchmark "
            f"ratio {ratio:.3f} < 0.5; (c) tier-2 parking margin "
            f"{margin:.2f} > pooled se {pooled_se:.2f}",
        )

    def test_criterion_09_sublinear_regret(self):
        """With the 12-product recipe, no launches, and no learning floor,
        the per-step regret at T=50,000 falls below half its value at
        T=5,000, averaged over 10 replications."""
        (base,) = experiment_preset(2)
        spec = PolicySpec("ucb_tiered", {"min_epochs": 0, "confidence_scale": 4.8})
        rates = {}
        for horizon in (5_000, 50_000):
            config = ExperimentConfig(
                label=f"sublinearity-{horizon}",
                horizon=horizon,
                policies=(spec,),
                groups=base.groups,
                replications=10,
                base_seed=base.base_seed,
            )
            summary = replicate(config, spec)
            rates[horizon] = summary.mean_final_regret / horizon
        ratio = rates[50_000] / rates[5_000]
        report(
            "criterion 9 (sublinear regret)",
            ratio < 0.5,
            f"regret(T)/T: {rates[5_000]:.6f} at 5k, {rates[50_000]:.6f} "
            f"at 50k, ratio {ratio:.3f} < 0.5",
        )

    def test_criterion_10_byte_identical_replay(self, tmp_path):
        """The same config and seed produce byte-identical trace CSVs
        across two CLI invocations."""
        config = ExperimentConfig(
            label="replay",
            horizon=300,
            policies=(PolicySpec("ucb_tiered", {"min_epochs": 5}),),
            catalog=Catalog(
                (
                    Product("a", 3.0, 0.5),
                    Product("b", 2.0, 0.4),
                    Product("c", 1.0, 0.6),
                )
            ),
            base_seed=ACCEPT_SEED,
        )
        config_path = tmp_path / "config.json"
        save_config(config, config_path)
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = main(
                ["simulate", str(config_path), "--seed", "1", "--out", str(out)]
            )
            assert code == 0
            trace = out / "replay" / "trace_ucb_tiered_seed1.csv"
            blobs.append(trace.read_bytes())
        report(
            "criterion 10 (byte-identical replay)",
            blobs[0] == blobs[1] and len(blobs[0]) > 0,
            f"two invocations, {len(blobs[0])} bytes each, identical: "
            f"{blobs[0] == blobs[1]}",
        )
