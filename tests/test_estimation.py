"""Epoch ledger and estimation tests.

The central object is a hand-traced nine-step purchase stream whose epoch
segmentation, labels, per-epoch purchase counts, and resulting estimates
are all worked out by hand and frozen here.  Distributional claims (the
per-epoch purchase count of a product is geometric with mean equal to its
preference weight) are checked against seeded simulation.
"""

import math

import mpmath
import numpy as np
import pytest

from tieredmnl.errors import (
    ConfigError,
    InvalidOfferError,
    NeverOfferedError,
    OutcomeMismatchError,
    UnknownProductError,
)
from tieredmnl.estimation import (
    UCB_CONFIDENCE_SCALE,
    EpochLedger,
    min_learning_epochs,
)
from tieredmnl.model import (
    NO_PURCHASE,
    Catalog,
    ChoiceOutcome,
    ChoiceSampler,
    Product,
    TieredOffer,
    sorted_ids,
)
from tieredmnl.rng import BufferedRandom

OFFER = TieredOffer.two_tier(["a"], ["b"])
IDS = ("a", "b", "c", "d", "e", "x")


def new_ledger(ids=IDS) -> EpochLedger:
    """A ledger over a small catalog of ``ids``: profit 1, weight 0.5 each."""
    return EpochLedger(Catalog(tuple(Product(i, 1.0, 0.5) for i in ids)))

# nine customers under the fixed offer ({a}, {b}):
#   buy a, buy b, buy a, buy a, leave, buy b, buy a, buy a, leave
SCRIPT = (
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


def scripted_ledger() -> EpochLedger:
    ledger = new_ledger()
    for outcome in SCRIPT:
        ledger.record_step(OFFER, outcome)
    return ledger


def labels(ledger: EpochLedger, tier_index: int) -> tuple[int, ...]:
    return tuple(record.label for record in ledger.epochs(tier_index))


def covered_steps(outcomes, closes) -> tuple[list, list]:
    """Each closed epoch's 1-based steps, per tier, derived from the step on
    which ``record_step`` returned its record (``closes[t - 1]`` is step t's
    return): a tier-1 epoch covers the steps after the previous tier-1 close
    up to and including its own; a tier-2 epoch, the steps of that span
    without a tier-1 purchase."""
    covered, start = ([], []), [1, 1]
    for t, closed in enumerate(closes, 1):
        for k in (0, 1):
            if closed[k] is not None:
                span = range(start[k], t + 1)
                covered[k].append(tuple(s for s in span if k == 0 or outcomes[s - 1].tier != 0))
                start[k] = t + 1
    return covered


class TestScriptedTrace:
    """Hand-traced segmentation of the nine-step script.

    A tier-1 epoch closes when a customer first fails to buy from tier 1;
    a tier-2 epoch covers only tier-2-viewed steps and closes on a full
    walk-away.  Labels carry the shared completed-epoch counter at open
    time, with same-step closures tallied tier 1 first.
    """

    def test_epoch_counts_and_labels(self):
        ledger = scripted_ledger()
        assert ledger.completed == 6
        assert ledger.steps_recorded == 9
        assert labels(ledger, 0) == (0, 1, 3, 4)
        assert labels(ledger, 1) == (0, 3)
        assert ledger.open_labels() == (6, 6)

    def test_step_coverage(self):
        ledger = new_ledger()
        closes = [ledger.record_step(OFFER, outcome) for outcome in SCRIPT]
        for k in (0, 1):  # the ledger keeps the records the steps returned
            assert [c[k] for c in closes if c[k] is not None] == list(ledger.epochs(k))
        covered = covered_steps(SCRIPT, closes)
        assert covered[0] == [(1, 2), (3, 4, 5), (6,), (7, 8, 9)]
        assert covered[1] == [(2, 5), (6, 9)]

    def test_per_epoch_purchase_counts(self):
        ledger = scripted_ledger()
        assert [r.purchases_of("a") for r in ledger.epochs(0)] == [1, 2, 0, 2]
        assert [r.purchases_of("b") for r in ledger.epochs(1)] == [1, 1]

    def test_purchase_window_reconstruction(self):
        """Each completed epoch's purchase count equals the number of its
        covered steps on which the script bought that product in that tier
        — the per-epoch purchase windows partition the purchase steps."""
        ledger = new_ledger()
        covered = covered_steps(SCRIPT, [ledger.record_step(OFFER, o) for o in SCRIPT])
        seen = {"a": [], "b": []}
        for tier_index, product in ((0, "a"), (1, "b")):
            for record, steps in zip(ledger.epochs(tier_index), covered[tier_index], strict=True):
                window = {t for t in steps if SCRIPT[t - 1] == ChoiceOutcome(product, tier_index)}
                assert record.purchases_of(product) == len(window)
                seen[product].append(window)
        assert seen["a"] == [{1}, {3, 4}, set(), {7, 8}]
        assert seen["b"] == [{2}, {6}]

    def test_step_events(self):
        ledger = new_ledger()
        closed, reopened = [], []
        for outcome in SCRIPT:
            closed.append(ledger.record_step(OFFER, outcome))
            reopened.append(ledger.open_labels())
        assert ledger.steps_recorded == 9
        # a tier-1 purchase closes nothing
        assert closed[0] == (None, None) and reopened[0] == (0, 0)
        # a tier-2 purchase closes tier 1 only, and tier 1 reopens at the
        # post-closure counter
        assert closed[1][0] is ledger.epochs(0)[0] and closed[1][1] is None
        assert covered_steps(SCRIPT[:2], closed[:2]) == ([(1, 2)], [])
        assert reopened[1] == (1, 0)
        # a walk-away closes both, indexed by tier, and both reopen at the
        # counter after both closures
        assert closed[4] == (ledger.epochs(0)[1], ledger.epochs(1)[0])
        assert [spans[-1] for spans in covered_steps(SCRIPT[:5], closed[:5])] == [(3, 4, 5), (2, 5)]
        assert reopened[4] == (3, 3)
        assert closed[8] == (ledger.epochs(0)[3], ledger.epochs(1)[1])
        assert reopened[8] == (6, 6)

    def test_point_estimates(self):
        ledger = scripted_ledger()
        assert ledger.valuation_estimate("a") == pytest.approx(5.0 / 4.0, abs=0)
        assert ledger.valuation_estimate("b") == pytest.approx(1.0, abs=0)
        assert ledger.times_offered("a") == 4
        assert ledger.times_offered("b") == 2
        assert ledger.purchase_total("a") == 5
        assert ledger.launch_epoch("a") == 0 and ledger.launch_epoch("b") == 0
        assert ledger.has_estimate("a") and not ledger.has_estimate("z")


class TestRecordingGuards:
    def test_tier1_set_locked_within_epoch(self):
        ledger = new_ledger()
        ledger.record_step(OFFER, ChoiceOutcome("a", 0))  # epoch still open
        with pytest.raises(InvalidOfferError, match="tier 1 changed"):
            ledger.record_step(
                TieredOffer.two_tier(["a", "c"], ["b"]), ChoiceOutcome("a", 0)
            )

    def test_tier2_set_locked_within_epoch(self):
        ledger = new_ledger()
        # a tier-2 purchase closes tier 1 but leaves tier 2's epoch open
        ledger.record_step(OFFER, ChoiceOutcome("b", 1))
        with pytest.raises(InvalidOfferError, match="tier 2 changed"):
            ledger.record_step(
                TieredOffer.two_tier(["a"], ["b", "d"]), NO_PURCHASE
            )

    def test_refused_step_changes_nothing(self):
        """A step that tier 2's lock refuses neither counts nor binds tier 1's
        fresh epoch: the next tier-1 epoch starts at the next accepted step."""
        ledger = new_ledger()
        accepted = (ChoiceOutcome("b", 1), NO_PURCHASE)
        closes = [ledger.record_step(OFFER, accepted[0])]  # tier 1 closes, tier 2 stays open
        with pytest.raises(InvalidOfferError, match="tier 2 changed"):
            ledger.record_step(TieredOffer.two_tier(["c"], ["b", "d"]), NO_PURCHASE)
        assert ledger.steps_recorded == 1
        closes.append(ledger.record_step(OFFER, accepted[1]))
        assert closes[1][0].offered == OFFER.tier(0) and ledger.steps_recorded == 2
        assert covered_steps(accepted, closes) == ([(1,), (2,)], [(1, 2)])

    def test_sets_may_change_at_epoch_boundaries(self):
        ledger = new_ledger()
        ledger.record_step(OFFER, NO_PURCHASE)  # closes both epochs
        ledger.record_step(
            TieredOffer.two_tier(["c"], ["d"]), ChoiceOutcome("d", 1)
        )
        assert ledger.completed == 3

    def test_tier1_rotation_under_open_tier2_epoch(self):
        """Every tier-2 view closes the tier-1 epoch, so tier 1 may rotate
        on each such step while tier 2's epoch persists with its locked set."""
        ledger = new_ledger()
        outcomes = (ChoiceOutcome("b", 1), ChoiceOutcome("b", 1), NO_PURCHASE)
        closes = [
            ledger.record_step(TieredOffer.two_tier([first], ["b"]), outcome)
            for first, outcome in zip("ace", outcomes)
        ]
        assert labels(ledger, 0) == (0, 1, 2)
        assert labels(ledger, 1) == (0,)
        assert covered_steps(outcomes, closes) == ([(1,), (2,), (3,)], [(1, 2, 3)])
        assert ledger.epochs(1)[0].purchases_of("b") == 2

    def test_equal_but_distinct_sets_pass_the_lock(self):
        """The lock compares by identity first and by value after it: a
        rebuilt, equal set passes; a changed one still raises."""
        ledger = new_ledger()
        ledger.record_step(OFFER, ChoiceOutcome("b", 1))  # tier 2 stays open
        ledger.record_step(OFFER, ChoiceOutcome("a", 0))  # tier 1 stays open
        rebuilt = TieredOffer.two_tier(frozenset(["a"]), frozenset(["b"]))
        assert rebuilt.tier(0) is not OFFER.tier(0) and rebuilt.tier(1) is not OFFER.tier(1)
        ledger.record_step(rebuilt, ChoiceOutcome("b", 1))
        assert labels(ledger, 1) == ()
        with pytest.raises(InvalidOfferError, match="tier 2 changed"):
            ledger.record_step(TieredOffer.two_tier(["c"], ["b", "d"]), NO_PURCHASE)
        ledger = new_ledger()
        ledger.record_step(OFFER, ChoiceOutcome("a", 0))
        with pytest.raises(InvalidOfferError, match="tier 1 changed"):
            ledger.record_step(TieredOffer.two_tier(["c"], ["b"]), ChoiceOutcome("c", 0))

    def test_same_size_close_with_a_new_product_indexes_it(self):
        """A tier's close whose set has the size of its last closed set but
        one new product still indexes that product, at its own label."""
        ledger = new_ledger()
        ledger.record_step(TieredOffer.two_tier(["a", "b"], ["x"]), NO_PURCHASE)
        ledger.record_step(TieredOffer.two_tier(["a", "c"], ["x"]), ChoiceOutcome("x", 1))
        assert labels(ledger, 0) == (0, 2)
        assert ledger.has_estimate("c") and ledger.launch_epoch("c") == 2
        assert ledger.launch_epoch("a") == 0
        totals = reference_totals(ledger)
        for i in ("a", "b", "c", "x"):
            assert (ledger.times_offered(i), ledger.purchase_total(i)) == totals[i][:2]
        want = reference_ucb(totals, "c", 3, 4)
        assert ucb_by_rank(ledger, ["c"], 3, 4) == [want]
        assert ledger.valuation_ucb("c", 3, 4) == want

    def test_outcome_must_match_offer(self):
        ledger = new_ledger()
        with pytest.raises(OutcomeMismatchError):
            ledger.record_step(OFFER, ChoiceOutcome("z", 0))
        with pytest.raises(OutcomeMismatchError):
            ledger.record_step(OFFER, ChoiceOutcome("b", 0))  # b sits in tier 2
        with pytest.raises(OutcomeMismatchError):
            ledger.record_step(OFFER, ChoiceOutcome("a", 2))

    def test_two_tier_offers_only(self):
        ledger = new_ledger()
        with pytest.raises(InvalidOfferError):
            ledger.record_step(
                TieredOffer((frozenset("a"), frozenset("b"), frozenset("c"))),
                NO_PURCHASE,
            )

    def test_open_epoch_contributes_nothing(self):
        ledger = new_ledger()
        ledger.record_step(OFFER, ChoiceOutcome("a", 0))
        assert not ledger.has_estimate("a")
        assert ledger.times_offered("a") == 0
        with pytest.raises(NeverOfferedError):
            ledger.valuation_estimate("a")
        with pytest.raises(NeverOfferedError):
            ledger.valuation_ucb("a", 1, 2)


class TestOptimisticIndex:
    def test_matches_high_precision_formula(self):
        """vbar + sqrt(vbar*pad) + pad with pad = c*ln(K*rounds + 1)/T_i,
        recomputed with 50-digit arithmetic."""
        ledger = scripted_ledger()
        with mpmath.workdps(50):
            for product, epochs, total in (("a", 4, 5), ("b", 2, 2)):
                for epoch, n_products, scale in (
                    (6, 2, None),
                    (10, 7, None),
                    (25, 3, 4.8),
                ):
                    got = ledger.valuation_ucb(
                        product, epoch, n_products, confidence_scale=scale
                    )
                    c = mpmath.mpf(48.0 if scale is None else scale)
                    vbar = mpmath.mpf(total) / epochs
                    pad = c * mpmath.log(n_products * epoch + 1) / epochs
                    want = vbar + mpmath.sqrt(vbar * pad) + pad
                    assert got == pytest.approx(float(want), rel=1e-12)

    def test_default_scale_is_48(self):
        assert UCB_CONFIDENCE_SCALE == 48.0
        ledger = scripted_ledger()
        assert ledger.valuation_ucb("a", 6, 2) == ledger.valuation_ucb(
            "a", 6, 2, confidence_scale=48.0
        )

    def test_rounds_count_from_launch(self):
        """The exploration age is epoch - launch_epoch, clamped at zero, so
        a product first completed at label L has no margin at epoch L."""
        ledger = new_ledger()
        for _ in range(3):
            ledger.record_step(OFFER, NO_PURCHASE)  # six quick epochs
        late = TieredOffer.two_tier(["c"], ["b"])
        ledger.record_step(late, NO_PURCHASE)
        assert ledger.launch_epoch("c") == 6
        assert ledger.valuation_ucb("c", 6, 5) == 0.0  # mean 0, zero rounds
        assert ledger.valuation_ucb("c", 3, 5) == 0.0  # negative gap clamps
        assert ledger.valuation_ucb("c", 7, 5) == pytest.approx(
            48.0 * math.log(6.0), abs=1e-12
        )

    def test_never_offered(self):
        ledger = scripted_ledger()
        with pytest.raises(NeverOfferedError):
            ledger.valuation_ucb("z", 3, 2)

    def test_optimism_covers_truth(self):
        """With the default scale the index stays above the true weight at
        every epoch of a 2000-epoch run (the margin is built for a union
        bound over far more rounds than this)."""
        truth = 0.5
        catalog = Catalog((Product("x", 1.0, truth),))
        offer = TieredOffer.two_tier(["x"], [])
        sampler = ChoiceSampler(offer, catalog)
        rng = BufferedRandom(np.random.default_rng(20260814))
        ledger = EpochLedger(catalog)
        while ledger.completed < 2 * 2000:  # tier-2 epochs close in lockstep
            ledger.record_step(offer, sampler.sample(rng))
            if ledger.has_estimate("x"):
                epoch = ledger.completed
                assert ledger.valuation_ucb("x", epoch, 10) >= truth


def reference_totals(ledger):
    """(epochs, purchases, launch epoch) per product, recounted from the
    ledger's completed-epoch records."""
    totals = {}
    for k in (0, 1):
        for record in ledger.epochs(k):
            for i in record.offered:
                epochs, purchases, launch = totals.get(i, (0, 0, record.label))
                totals[i] = (
                    epochs + 1,
                    purchases + record.purchases_of(i),
                    min(launch, record.label),
                )
    return totals


def reference_ucb(totals, product_id, epoch, n_products, confidence_scale=None):
    """The scalar optimistic index, one product at a time."""
    scale = UCB_CONFIDENCE_SCALE if confidence_scale is None else confidence_scale
    epochs, purchases, launch = totals[product_id]
    mean = purchases / epochs
    rounds = max(epoch - launch, 0)
    pad = scale * math.log(n_products * rounds + 1.0) / epochs
    return mean + math.sqrt(mean * pad) + pad


def ucb_by_rank(ledger, ids, epoch, n_products, confidence_scale=None):
    """The policies' path: ``_ucb`` over the catalog ranks of ``ids``."""
    ranks = ledger._catalog._indices(ids)
    return ledger._ucb(ranks, epoch, n_products, confidence_scale).tolist()


def random_ledger(seed, n_products=40, n_steps=4000):
    """A ledger whose products first appear one by one, so launch epochs
    are many and distinct, and whose tier sets are redrawn at every
    closure."""
    rng = np.random.default_rng(seed)
    ids = [f"q{j:02d}" for j in range(n_products)]
    ledger = new_ledger(ids)
    tiers = [frozenset(), frozenset()]
    for t in range(n_steps):
        available = ids[: 2 + t * (n_products - 2) // n_steps]
        offer = TieredOffer.two_tier(*tiers)
        roll = rng.random()
        if roll < 0.45 and tiers[0]:
            outcome = ChoiceOutcome(sorted_ids(tiers[0])[int(rng.integers(len(tiers[0])))], 0)
        elif roll < 0.7 and tiers[1]:
            outcome = ChoiceOutcome(sorted_ids(tiers[1])[int(rng.integers(len(tiers[1])))], 1)
        else:
            outcome = NO_PURCHASE
        closed = ledger.record_step(offer, outcome)
        for k in (0, 1):
            if closed[k] is not None:
                others = tiers[1 - k]
                pool = [i for i in available if i not in others]
                tiers[k] = frozenset(i for i in pool if rng.random() < 0.3)
    return ledger


class TestVectorIndex:
    """``_ucb`` over catalog ranks and the scalar ``valuation_ucb`` against
    the formula, compared with ==."""

    def test_matches_scalar_formula(self):
        for seed in (1, 2, 3):
            ledger = random_ledger(seed)
            totals = reference_totals(ledger)
            launches = {launch for _, _, launch in totals.values()}
            assert len(launches) >= 10
            ids = sorted(totals, key=ledger._catalog._rank.__getitem__)
            for epoch in (0, 1, 7, ledger.completed // 2, ledger.completed, ledger.completed + 50):
                for n_products, scale in ((len(ids), None), (3, 4.8), (101, 0.5)):
                    got = ucb_by_rank(ledger, ids, epoch, n_products, scale)
                    want = [reference_ucb(totals, i, epoch, n_products, scale) for i in ids]
                    assert got == want
                    for i in ids[::7]:
                        assert ledger.valuation_ucb(i, epoch, n_products, scale) == (
                            reference_ucb(totals, i, epoch, n_products, scale)
                        )

    def test_clamps_before_launch(self):
        """Epochs below a product's launch epoch give a zero margin."""
        ledger = random_ledger(4)
        totals = reference_totals(ledger)
        late = [i for i, (_, _, launch) in totals.items() if launch > 30]
        assert late
        got = ucb_by_rank(ledger, late, 30, 10)
        assert got == [reference_ucb(totals, i, 30, 10) for i in late]
        assert got == [totals[i][1] / totals[i][0] for i in late]
        assert [ledger.valuation_ucb(i, 30, 10) for i in late] == got

    def test_totals_match_records(self):
        ledger = random_ledger(5)
        totals = reference_totals(ledger)
        for i, (epochs, purchases, launch) in totals.items():
            assert ledger.times_offered(i) == epochs
            assert ledger.purchase_total(i) == purchases
            assert ledger.launch_epoch(i) == launch

    def test_logarithm_is_math_log(self):
        """ln(n * gap + 1) at arguments where numpy's vectorized log can
        round differently from math.log (on some builds it does at these
        integers); the index must follow math.log."""
        ledger = scripted_ledger()
        totals = reference_totals(ledger)
        for x in (9170, 19143, 94869, 102327, 136085, 136837, 141614, 147674, 275063, 285343):
            want = [reference_ucb(totals, i, x - 1, 1) for i in ("a", "b")]
            assert ucb_by_rank(ledger, ["a", "b"], x - 1, 1) == want
            assert [ledger.valuation_ucb(i, x - 1, 1) for i in ("a", "b")] == want

    def test_never_offered_in_batch(self):
        """A catalog product no closed epoch offered, and an id outside the
        catalog, both raise through the scalar."""
        ledger = scripted_ledger()
        for i in ("c", "z"):
            with pytest.raises(NeverOfferedError):
                ledger.valuation_ucb(i, 3, 2)

    def test_repeated_sets_reuse_rows(self):
        """Each tier keeps one set, rebuilt as an equal but distinct
        frozenset at every step, for runs of closures, then switches to
        another set and, later, back.  Totals and indices still match a
        recount from the records."""
        rng = np.random.default_rng(6)
        sets = (
            (["r0", "r1", "r2"], ["r3", "r4"]),
            (["r1", "r5"], ["r0", "r3", "r6"]),
        )
        ledger = new_ledger([f"r{j}" for j in range(7)])
        chosen = [0, 0]
        for t in range(3000):
            tiers = [frozenset(list(sets[chosen[k]][k])) for k in (0, 1)]
            roll = rng.random()
            if roll < 0.4:
                outcome = ChoiceOutcome(sorted_ids(tiers[0])[int(rng.integers(len(tiers[0])))], 0)
            elif roll < 0.7:
                outcome = ChoiceOutcome(sorted_ids(tiers[1])[int(rng.integers(len(tiers[1])))], 1)
            else:
                outcome = NO_PURCHASE
            closed = ledger.record_step(TieredOffer.two_tier(*tiers), outcome)
            if closed[1] is not None and t // 1000 != chosen[0]:
                # both tiers are between epochs: move to the next phase's sets
                chosen = [1, 1] if t < 2000 else [0, 0]
        assert [len(ledger.epochs(k)) > 500 for k in (0, 1)] == [True, True]
        totals = reference_totals(ledger)
        ids = sorted_ids(totals)
        assert ids == ["r0", "r1", "r2", "r3", "r4", "r5", "r6"]
        for i in ids:
            epochs, purchases, launch = totals[i]
            assert ledger.times_offered(i) == epochs
            assert ledger.purchase_total(i) == purchases
            assert ledger.launch_epoch(i) == launch
        for epoch in (0, ledger.completed // 2, ledger.completed):
            want = [reference_ucb(totals, i, epoch, len(ids)) for i in ids]
            assert ucb_by_rank(ledger, ids, epoch, len(ids)) == want
            assert [ledger.valuation_ucb(i, epoch, len(ids)) for i in ids] == want

    def test_cached_rows_are_catalog_ranks(self):
        """The rows kept per offered set are the products' catalog ranks,
        the totals are sized to the catalog, and a set closed before is
        reused by an equal set closed later."""
        ids = ["s0", "s1", "s2"] + [f"{c}{j:02d}" for c in "nm" for j in range(40)]
        ledger = new_ledger(ids)
        first = TieredOffer.two_tier(["s0", "s1"], ["s2"])
        ledger.record_step(first, NO_PURCHASE)  # closes both tiers
        kept = ledger._set_rows[first.tiers[0]]
        for j in range(40):
            ledger.record_step(TieredOffer.two_tier([f"n{j:02d}"], [f"m{j:02d}"]), NO_PURCHASE)
        assert len(ledger._epochs_total) == 83
        again = TieredOffer.two_tier(["s1", "s0"], ["s2"])  # equal sets, new objects
        ledger.record_step(again, ChoiceOutcome("s2", 1))
        ledger.record_step(again, NO_PURCHASE)
        assert ledger._set_rows[again.tiers[0]] is kept
        assert len(ledger._set_rows) == 82
        for other in (ledger, random_ledger(7)):
            assert set(other._set_rows) == {r.offered for k in (0, 1) for r in other.epochs(k)}
            for offered, rows in other._set_rows.items():
                assert rows.tolist() == [other._catalog._rank[i] for i in offered]
            for i, (epochs, purchases, launch) in reference_totals(other).items():
                assert other.times_offered(i) == epochs
                assert other.purchase_total(i) == purchases
                assert other.launch_epoch(i) == launch


class TestCatalogRanks:
    """The ledger counts by catalog rank and refuses ids outside its catalog."""

    @pytest.mark.parametrize(
        "tiers, outcome",
        [
            ((["a", "zz"], ["b"]), ChoiceOutcome("a", 0)),
            ((["a"], ["b", "zz"]), NO_PURCHASE),
            ((["a"], ["zz"]), ChoiceOutcome("a", 0)),  # tier 2 unviewed
        ],
    )
    def test_unknown_id_leaves_the_ledger_as_it_was(self, tiers, outcome):
        ledger = scripted_ledger()
        totals = (ledger._epochs_total, ledger._purchases_total, ledger._launch_slot)

        def state():
            arrays = [t.tolist() for t in totals]
            return ledger.completed, ledger.steps_recorded, arrays, list(ledger._launch_values)

        before = state()
        with pytest.raises(UnknownProductError):
            ledger.record_step(TieredOffer.two_tier(*tiers), outcome)
        assert state() == before
        assert ledger.open_labels() == (6, 6)
        ledger.record_step(OFFER, NO_PURCHASE)
        assert (ledger.completed, ledger.steps_recorded) == (8, 10)

    def test_means_read_zero_for_never_offered(self):
        for ledger in (scripted_ledger(), random_ledger(8, n_steps=400)):
            ids = list(ledger._catalog._rank)
            assert not all(map(ledger.has_estimate, ids))
            got = ledger._means(ledger._catalog._indices(ids)).tolist()
            want = [
                ledger.purchase_total(i) / ledger.times_offered(i) if ledger.has_estimate(i)
                else 0.0
                for i in ids
            ]
            assert got == want


class TestGeometricEpochCounts:
    def sample_counts(self, offer, catalog, product, tier_index, n_epochs, seed):
        sampler = ChoiceSampler(offer, catalog)
        rng = BufferedRandom(np.random.default_rng(seed))
        ledger = EpochLedger(catalog)
        while ledger.times_offered(product) < n_epochs:
            ledger.record_step(offer, sampler.sample(rng))
        return np.array(
            [r.purchases_of(product) for r in ledger.epochs(tier_index)],
            dtype=float,
        )

    def test_tier1_counts_have_mean_v(self):
        """Per tier-1 epoch, purchases of x are geometric on {0,1,...} with
        mean v regardless of the neighbour product."""
        v = 0.4
        catalog = Catalog((Product("x", 1.0, v), Product("o", 1.0, 0.7)))
        offer = TieredOffer.two_tier(["x", "o"], [])
        counts = self.sample_counts(offer, catalog, "x", 0, 4000, 1)
        tolerance = 4.0 * math.sqrt(v * (1.0 + v) / len(counts))
        assert abs(counts.mean() - v) < tolerance

    def test_tier2_counts_have_mean_v(self):
        """A tier-2 product's per-epoch count has the same law even though
        tier-1 purchases hide tier 2 on some steps."""
        v = 0.4
        catalog = Catalog((Product("o", 1.0, 0.7), Product("x", 1.0, v)))
        offer = TieredOffer.two_tier(["o"], ["x"])
        counts = self.sample_counts(offer, catalog, "x", 1, 4000, 2)
        tolerance = 4.0 * math.sqrt(v * (1.0 + v) / len(counts))
        assert abs(counts.mean() - v) < tolerance

    def test_tail_decays_geometrically(self):
        """P(count >= k) = (v/(1+v))^k: check k = 1, 2 at 4 sigma."""
        v = 0.4
        catalog = Catalog((Product("x", 1.0, v),))
        offer = TieredOffer.two_tier(["x"], [])
        counts = self.sample_counts(offer, catalog, "x", 0, 4000, 3)
        q = v / (1.0 + v)
        for k in (1, 2):
            p = q**k
            se = math.sqrt(p * (1.0 - p) / len(counts))
            assert abs((counts >= k).mean() - p) < 4.0 * se


class TestMinimumLearningSizing:
    def test_pinned_requirement(self):
        """epsilon=0.2, alpha=0.1 requires 5009 epochs of exposure."""
        assert min_learning_epochs(0.2, 0.1) == 5009

    def test_matches_high_precision_formula(self):
        with mpmath.workdps(50):
            for eps, alpha in ((0.2, 0.1), (0.05, 0.01), (1.0, 0.5), (0.3, 0.25)):
                root = -1 + mpmath.sqrt(1 + 4 * mpmath.mpf(eps))
                want = mpmath.ceil(192 * mpmath.log(2 / mpmath.mpf(alpha) + 1) / root**2)
                assert min_learning_epochs(eps, alpha) == int(want)

    def test_monotone_in_both_targets(self):
        assert min_learning_epochs(0.1, 0.1) > min_learning_epochs(0.2, 0.1)
        assert min_learning_epochs(0.2, 0.01) > min_learning_epochs(0.2, 0.1)

    def test_rejects_bad_targets(self):
        with pytest.raises(ConfigError):
            min_learning_epochs(0.0, 0.1)
        with pytest.raises(ConfigError):
            min_learning_epochs(0.2, 0.0)
        with pytest.raises(ConfigError):
            min_learning_epochs(0.2, 1.0)

    @pytest.mark.parametrize("epsilon, alpha", [(1e-17, 0.05), (0.1, 1e-320)])
    def test_rejects_targets_beyond_float_range(self, epsilon, alpha):
        """sqrt(1 + 4*epsilon) rounds to 1 for epsilon=1e-17, and 2/alpha is
        inf for alpha=1e-320; neither count is a finite number."""
        with pytest.raises(ConfigError, match="epochs"):
            min_learning_epochs(epsilon, alpha)
