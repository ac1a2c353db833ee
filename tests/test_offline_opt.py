"""Offline optimizer tests.

The ground truth everywhere is exhaustive enumeration over all disjoint
tier assignments; the solver must match it to 1e-9 on seeded random
instances with overlapping candidate sets, and its optima must satisfy the
profit-ordering predicates and threshold reporting.
"""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_solvers import (
    IdPairFrame,
    frontier_completion,
    frontier_sizes,
    gathered,
    id_completion,
    numpy_sweep,
    numpy_tier1_prefix,
    numpy_tier_value,
    profit_order,
    seed_reference,
    solve_two_tier_naive,
    stack_sweep,
)

from tieredmnl import optimizer
from tieredmnl.errors import InstanceTooLargeError, InvalidOfferError, UnknownProductError
from tieredmnl.model import (
    Catalog,
    Product,
    TieredOffer,
    _gather,
    _weight_vector,
    expected_profit,
    expected_profit_single_tier,
    purchase_probabilities,
    sorted_ids,
    total_weight,
)
from tieredmnl.optimizer import (
    TierPlacement,
    _completion,
    _PairFrame,
    _sweep,
    _tier1_prefix,
    _tier_maps,
    _tier_value,
    brute_force_optimal,
    enumerate_prefix_pair_offers,
    is_profit_ordered_by_tier,
    is_profit_ordered_set,
    predict_new_product_tier,
    solve_tier1_given_tier2,
    solve_two_tier,
    suffix_profits,
)
from tieredmnl.policies import epoch_regret_closed_form, epoch_regret_monte_carlo


def random_instance(rng: np.random.Generator, n_max: int = 7, overlap: bool = True):
    n = int(rng.integers(1, n_max + 1))
    products = tuple(
        Product(f"p{k}", float(rng.uniform(0, 5)), float(rng.uniform(0, 1)))
        for k in range(n)
    )
    ids = [p.id for p in products]
    if overlap:
        x1 = frozenset(i for i in ids if rng.random() < 0.75)
        x2 = frozenset(i for i in ids if rng.random() < 0.75)
    else:
        coin = rng.random(len(ids))
        x1 = frozenset(i for i, c in zip(ids, coin) if c < 0.5)
        x2 = frozenset(i for i, c in zip(ids, coin) if c >= 0.5)
    return Catalog(products, x1, x2)


class TestWorkedExamples:
    def test_two_product_split(self):
        """r=(10,1), v=(0.1,1): optimal is ({1},{2}) worth 15/11."""
        catalog = Catalog((Product(1, 10.0, 0.1), Product(2, 1.0, 1.0)))
        result = solve_two_tier(catalog)
        assert result.offer == TieredOffer.two_tier([1], [2])
        assert result.expected_profit == pytest.approx(15.0 / 11.0, abs=1e-12)
        assert result.thresholds == (10.0, 1.0)

    def test_second_split(self):
        catalog = Catalog((Product("a", 4.0, 0.5), Product("b", 2.0, 0.25)))
        result = solve_two_tier(catalog)
        assert result.offer == TieredOffer.two_tier(["a"], ["b"])
        assert result.expected_profit == pytest.approx(1.6, abs=1e-12)
        assert result.thresholds == (4.0, 2.0)

    def test_demoted_product_above_a_cheaper_tier_one_product(self):
        """The optimum demotes p1 while the cheaper p0 stays in tier 1, which
        no prefix pair reaches; the frontier walk must run down to p0."""
        catalog = Catalog(
            (Product("p0", 0.052, 0.014), Product("p1", 0.098, 0.148), Product("p2", 0.204, 0.026))
        )
        result = solve_two_tier(catalog)
        assert result.offer == TieredOffer.two_tier(["p0", "p2"], ["p1"])
        assert result.expected_profit == brute_force_optimal(catalog).expected_profit
        assert solve_two_tier(catalog, exact=False).expected_profit < result.expected_profit

    def test_exclusives_lift_a_demoting_offer_past_the_seed(self):
        """The optimum demotes d to tier 2 and keeps the cheaper shared b
        with the tier-1 exclusives a and c; without a and c, ({b}, {d})
        falls short of the seed.  So the completion's screen must count
        what exclusives add to tier 1 (G), with the sign that lowers the
        tier-2 value to beat.  Dyadic profits and weights make every sum
        exact: the optimum is 149/168 and the seed 59/72."""
        catalog = Catalog(
            (
                Product("a", 1.0, 0.125),
                Product("b", 1.5, 0.25),
                Product("c", 1.25, 0.375),
                Product("d", 1.75, 0.5),
            ),
            candidates_tier2=["b", "d"],
        )
        exact_value = TestFrameCompletion.exact_value
        # the seed shows all four in tier 1: (59/32) / (1 + 5/4) = 59/72
        seed = solve_two_tier(catalog, exact=False)
        assert seed.offer == TieredOffer.two_tier(["a", "b", "c", "d"], [])
        assert exact_value(seed.offer, catalog, None) == Fraction(59, 72)
        assert exact_value(TieredOffer.two_tier(["b"], ["d"]), catalog, None) < Fraction(59, 72)
        result = solve_two_tier(catalog)
        assert result.offer == TieredOffer.two_tier(["a", "b", "c"], ["d"])
        assert exact_value(result.offer, catalog, None) == Fraction(149, 168)
        assert result.expected_profit == brute_force_optimal(catalog).expected_profit

    def test_empty_catalog(self):
        result = solve_two_tier(Catalog(()))
        assert result.offer.is_empty
        assert result.expected_profit == 0.0
        assert result.thresholds == (float("inf"), float("inf"))

    def test_zero_profit_product_left_out(self):
        result = solve_two_tier(Catalog((Product("z", 0.0, 0.9),)))
        assert result.offer.is_empty and result.expected_profit == 0.0


class TestSolverMatchesExhaustive:
    def test_overlapping_candidates(self):
        rng = np.random.default_rng(101)
        for _ in range(150):
            catalog = random_instance(rng)
            fast = solve_two_tier(catalog)
            slow = brute_force_optimal(catalog)
            assert fast.expected_profit == pytest.approx(
                slow.expected_profit, abs=1e-9
            )
            # returned offer is feasible and worth what it claims
            assert fast.offer.tier(0) <= catalog.candidates_tier1
            assert fast.offer.tier(1) <= catalog.candidates_tier2
            assert expected_profit(fast.offer, catalog) == pytest.approx(
                fast.expected_profit, abs=1e-12
            )

    def test_disjoint_candidates(self):
        rng = np.random.default_rng(102)
        for _ in range(80):
            catalog = random_instance(rng, overlap=False)
            fast = solve_two_tier(catalog)
            slow = brute_force_optimal(catalog)
            assert fast.expected_profit == pytest.approx(
                slow.expected_profit, abs=1e-9
            )

    def test_heuristic_mode_stays_in_seed_family(self):
        """exact=False still matches exhaustive search on disjoint candidate
        sets, where the seed family alone is provably complete."""
        rng = np.random.default_rng(103)
        for _ in range(80):
            catalog = random_instance(rng, overlap=False)
            fast = solve_two_tier(catalog, exact=False)
            slow = brute_force_optimal(catalog)
            assert fast.expected_profit == pytest.approx(
                slow.expected_profit, abs=1e-9
            )

    def test_valuation_override(self):
        rng = np.random.default_rng(104)
        for _ in range(30):
            catalog = random_instance(rng, n_max=5)
            vals = {p.id: float(rng.uniform(0, 2)) for p in catalog.products}
            fast = solve_two_tier(catalog, valuations=vals)
            slow = brute_force_optimal(catalog, valuations=vals)
            assert fast.expected_profit == pytest.approx(
                slow.expected_profit, abs=1e-9
            )

    def test_candidate_overrides_narrow_the_search(self):
        catalog = Catalog(
            (Product("a", 4.0, 0.5), Product("b", 2.0, 0.25), Product("c", 1.0, 0.5))
        )
        result = solve_two_tier(
            catalog, candidates_tier1=["b"], candidates_tier2=["c"]
        )
        assert result.offer.tier(0) <= frozenset(["b"])
        assert result.offer.tier(1) <= frozenset(["c"])


@st.composite
def tick_catalogs(draw):
    """Up to 13 shared products and, below that, products only one tier may
    take, profits on a quarter tick, some zero weights, and now and then
    valuation overrides up to 3.  The oracle's enumeration stays within
    3^13 assignments."""
    n_shared = draw(st.integers(0, 13))
    n = n_shared + draw(st.integers(0, 13 - n_shared))
    column = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    profits = draw(column(st.sampled_from([0.25, 0.5, 0.75, 1.0])))
    weights = draw(column(weight))
    tier1_only = draw(column(st.booleans()))
    products = tuple(Product(f"p{k:02d}", profits[k], weights[k]) for k in range(n))
    x1 = [p.id for k, p in enumerate(products) if k < n_shared or tier1_only[k]]
    x2 = [p.id for k, p in enumerate(products) if k < n_shared or not tier1_only[k]]
    overrides = draw(st.none() | column(st.one_of(st.just(0.0), st.floats(0.0, 3.0))))
    valuations = None if overrides is None else {p.id: w for p, w in zip(products, overrides)}
    return Catalog(products, x1, x2), valuations


class TestFrontierMatchesExhaustive:
    @settings(
        max_examples=60,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tick_catalogs())
    def test_exact_solve_reaches_the_oracle(self, case):
        catalog, valuations = case
        fast = solve_two_tier(catalog, valuations=valuations)
        slow = brute_force_optimal(catalog, valuations=valuations)
        assert abs(fast.expected_profit - slow.expected_profit) <= 1e-12


class TestNaiveTwin:
    def test_same_value_as_fast_path(self):
        rng = np.random.default_rng(111)
        for _ in range(60):
            catalog = random_instance(rng)
            fast = solve_two_tier(catalog)
            slow = solve_two_tier_naive(catalog)
            assert fast.expected_profit == pytest.approx(
                slow.expected_profit, abs=1e-12
            )


class TestPrefixPairSweep:
    """The one-pass sweep against the three matrix/loop cores it replaced
    (``reference_solvers.seed_reference``)."""

    SHAPES = ("shared", "disjoint", "overlapping")

    def random_case(self, rng, shape, tick=None):
        n = int(rng.integers(0, 41))
        profits = rng.uniform(0, 5, n)
        if tick is not None:
            profits = np.round(profits / tick) * tick
        # zero weights make runs of equal values, where the first maximum wins
        weights = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0, 1, n))
        products = tuple(
            Product(f"p{k}", float(profits[k]), float(weights[k])) for k in range(n)
        )
        ids = [p.id for p in products]
        if shape == "shared":
            x1 = x2 = [i for i in ids if rng.random() < 0.8]
        elif shape == "disjoint":
            coin = rng.random(n)
            x1 = [i for i, c in zip(ids, coin) if c < 0.5]
            x2 = [i for i, c in zip(ids, coin) if c >= 0.5]
        else:
            x1 = [i for i in ids if rng.random() < 0.7]
            x2 = [i for i in ids if rng.random() < 0.7]
        catalog = Catalog(products, x1, x2)
        valuations = None
        if rng.random() < 0.5:
            valuations = {
                i: 0.0 if rng.random() < 0.3 else float(rng.uniform(0, 2)) for i in ids
            }
        order1 = profit_order(catalog.candidates_tier1, catalog)
        order2 = order1 if x1 == x2 else profit_order(catalog.candidates_tier2, catalog)
        return catalog, valuations, order1, order2

    @staticmethod
    def frame_solve(catalog, valuations):
        """(value, tier 1, tier 2) through a frame on the catalog's candidates."""
        frame = _PairFrame(catalog, catalog.candidates_tier1, catalog.candidates_tier2)
        w = _weight_vector(catalog, valuations, frame.ids1, frame.ids2)
        value, a, e = frame.solve(w)
        return (value, *frame.tiers(a, e))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_same_offers_as_reference_cores(self, shape):
        rng = np.random.default_rng(20190430 + self.SHAPES.index(shape))
        for _ in range(2000):
            catalog, valuations, order1, order2 = self.random_case(rng, shape)
            got = self.frame_solve(catalog, valuations)
            want = seed_reference(order1, order2, catalog, valuations)
            assert (frozenset(got[1]), frozenset(got[2])) == (
                frozenset(want[1]),
                frozenset(want[2]),
            )
            if shape == "overlapping":
                # the loop core sums the remaining products afresh per row
                assert got[0] == pytest.approx(want[0], abs=1e-12)
            else:
                # same prefix-sum expression, bit for bit
                assert got[0] == want[0]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ties_keep_the_value(self, shape):
        """Profits on a 1/8 grid make exact ties, where the pick among equal
        offers may differ but the value may not."""
        rng = np.random.default_rng(20190501 + self.SHAPES.index(shape))
        for _ in range(2000):
            catalog, valuations, order1, order2 = self.random_case(rng, shape, tick=0.125)
            got = self.frame_solve(catalog, valuations)
            want = seed_reference(order1, order2, catalog, valuations)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            offer = TieredOffer.two_tier(got[1], got[2])
            assert expected_profit(offer, catalog, valuations) == pytest.approx(
                want[0], abs=1e-12
            )

    @pytest.mark.parametrize("shape", ["shared", "disjoint"])
    def test_memory_stays_linear(self, shape):
        n = 3000
        rng = np.random.default_rng(20190502)
        products = tuple(
            Product(k, float(rng.uniform(0, 1)), float(rng.uniform(0, 0.3))) for k in range(n)
        )
        if shape == "shared":
            catalog = Catalog(products)
        else:
            catalog = Catalog(products, range(n // 2), range(n // 2, n))
        tracemalloc.start()
        try:
            solve_two_tier(catalog, exact=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestTierOneGivenTierTwo:
    def brute(self, catalog, tier2, candidates, forced=frozenset()):
        free = [i for i in sorted_ids(candidates) if i not in forced]
        best = None
        for r in range(len(free) + 1):
            for combo in itertools.combinations(free, r):
                t1 = frozenset(combo) | forced
                value = expected_profit(TieredOffer.two_tier(t1, tier2), catalog)
                if best is None or value > best[0] + 1e-15:
                    best = (value, t1)
        return best

    def test_matches_subset_scan(self):
        rng = np.random.default_rng(121)
        for _ in range(60):
            catalog = random_instance(rng, n_max=6)
            tier2 = frozenset(
                i for i in sorted_ids(catalog.candidates_tier2) if rng.random() < 0.4
            )
            cand1 = frozenset(catalog.candidates_tier1 - tier2)
            got_set, got_value = solve_tier1_given_tier2(
                catalog, tier2, candidates_tier1=cand1
            )
            want_value, _ = self.brute(catalog, tier2, cand1)
            assert got_value == pytest.approx(want_value, abs=1e-12)
            assert expected_profit(
                TieredOffer.two_tier(got_set, tier2), catalog
            ) == pytest.approx(got_value, abs=1e-12)

    def test_forced_products_held_in_tier_one(self):
        rng = np.random.default_rng(122)
        for _ in range(40):
            catalog = random_instance(rng, n_max=6)
            ids = sorted_ids(catalog.candidates_tier1)
            if not ids:
                continue
            forced = frozenset(ids[: int(rng.integers(1, len(ids) + 1))])
            tier2 = frozenset(
                i for i in sorted_ids(catalog.candidates_tier2 - forced)
                if rng.random() < 0.4
            )
            got_set, got_value = solve_tier1_given_tier2(
                catalog, tier2, forced_tier1=forced
            )
            assert forced <= got_set
            want_value, _ = self.brute(
                catalog, tier2, catalog.candidates_tier1 - tier2, forced
            )
            assert got_value == pytest.approx(want_value, abs=1e-12)

    def test_forced_overlap_with_tier_two_rejected(self):
        catalog = Catalog((Product("a", 1.0, 0.5),))
        with pytest.raises(InvalidOfferError):
            solve_tier1_given_tier2(catalog, ["a"], forced_tier1=["a"])


def reference_tier1(catalog, tier2, *, valuations=None, candidates_tier1=None, forced_tier1=()):
    """Running-sum scan over the free profit prefix: forced products first
    (id order), then one product at a time, keeping strict improvements.
    The vectorized solver must reproduce it bit for bit."""
    tier2 = frozenset(tier2)
    forced = frozenset(forced_tier1)
    x1 = catalog.candidates_tier1 if candidates_tier1 is None else frozenset(candidates_tier1)
    order = sorted(x1 - tier2 - forced, key=lambda i: (-catalog.profit_of(i), str(i)))
    e2 = expected_profit(TieredOffer((tier2,)), catalog, valuations)

    def weight(i):
        return catalog.valuation_of(i) if valuations is None else valuations[i]

    sum_v = 0.0
    sum_rv = 0.0
    for i in sorted_ids(forced):
        w = weight(i)
        sum_v += w
        sum_rv += catalog.profit_of(i) * w
    best_a = 0
    best_value = (sum_rv + e2) / (1.0 + sum_v)
    for a, i in enumerate(order, start=1):
        w = weight(i)
        sum_v += w
        sum_rv += catalog.profit_of(i) * w
        value = (sum_rv + e2) / (1.0 + sum_v)
        if value > best_value:
            best_value = value
            best_a = a
    return frozenset(order[:best_a]) | forced, best_value


class TestTierOneMatchesReferenceScan:
    def random_case(self, rng):
        n = int(rng.integers(1, 41))
        # coarse profits force ties, which the id order has to break
        profits = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 4)))
        # zero weights make runs of equal values, where the first maximum wins
        weights = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0, 1, n))
        products = tuple(
            Product(f"p{k}", float(profits[k]), float(weights[k])) for k in range(n)
        )
        ids = [p.id for p in products]
        catalog = Catalog(
            products,
            candidates_tier1=[i for i in ids if rng.random() < 0.8],
            candidates_tier2=[i for i in ids if rng.random() < 0.8],
        )
        tier2 = frozenset(i for i in sorted_ids(catalog.candidates_tier2) if rng.random() < 0.3)
        rest = [i for i in ids if i not in tier2]
        # forced products need not be tier-1 candidates
        forced = frozenset(i for i in rest if rng.random() < 0.15)
        valuations = None
        if rng.random() < 0.7:
            valuations = {i: 0.0 if rng.random() < 0.2 else float(rng.uniform(0, 3)) for i in ids}
        return catalog, tier2, forced, valuations

    def test_equal_sets_and_values(self):
        rng = np.random.default_rng(20190427)
        for _ in range(300):
            catalog, tier2, forced, valuations = self.random_case(rng)
            got = solve_tier1_given_tier2(
                catalog, tier2, valuations=valuations, forced_tier1=forced
            )
            want = reference_tier1(catalog, tier2, valuations=valuations, forced_tier1=forced)
            assert got == want

    def test_candidate_override(self):
        rng = np.random.default_rng(20190428)
        for _ in range(100):
            catalog, tier2, forced, valuations = self.random_case(rng)
            cand1 = frozenset(i for i in sorted_ids(catalog.ids) if rng.random() < 0.5)
            got = solve_tier1_given_tier2(
                catalog, tier2, valuations=valuations, candidates_tier1=cand1, forced_tier1=forced
            )
            want = reference_tier1(
                catalog, tier2, valuations=valuations, candidates_tier1=cand1, forced_tier1=forced
            )
            assert got == want

    def test_override_checks_kept(self):
        catalog = Catalog((Product("a", 1.0, 0.5), Product("b", 2.0, 0.5)))
        with pytest.raises(UnknownProductError):
            solve_tier1_given_tier2(catalog, [], valuations={"a": 0.5})
        with pytest.raises(InvalidOfferError):
            solve_tier1_given_tier2(catalog, [], valuations={"a": 0.5, "b": -0.1})
        with pytest.raises(InvalidOfferError):
            solve_tier1_given_tier2(catalog, [], valuations={"a": float("nan"), "b": 0.5})
        with pytest.raises(UnknownProductError):
            solve_tier1_given_tier2(catalog, [], forced_tier1=["ghost"])


class TestNonFiniteOverrides:
    """An infinite or NaN weight override is rejected by every entry point
    instead of pricing to an empty offer."""

    CATALOG = Catalog((Product("a", 1.0, 0.5), Product("b", 2.0, 0.5)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_solve_two_tier(self, bad):
        for exact in (True, False):
            with pytest.raises(InvalidOfferError, match="'a'"):
                solve_two_tier(self.CATALOG, valuations={"a": bad, "b": 0.5}, exact=exact)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_solve_tier1_given_tier2(self, bad):
        with pytest.raises(InvalidOfferError, match="'a'"):
            solve_tier1_given_tier2(self.CATALOG, ["b"], valuations={"a": bad, "b": 0.5})
        with pytest.raises(InvalidOfferError, match="'b'"):
            solve_tier1_given_tier2(self.CATALOG, ["b"], valuations={"a": 0.5, "b": bad})

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_expected_profit(self, bad):
        offer = TieredOffer.two_tier(["a"], ["b"])
        with pytest.raises(InvalidOfferError, match="'b'"):
            expected_profit(offer, self.CATALOG, {"a": 0.5, "b": bad})


class TestOverrideNumbers:
    """Every entry point reads an override through ``_weight_vector``: a
    value that is not a finite number >= 0 (a bool included) is an
    InvalidOfferError naming the id, and any other real number is read as
    the float it equals."""

    CATALOG = Catalog((Product("a", 1.0, 0.5), Product("b", 0.5, 0.5)))
    OFFER = TieredOffer.two_tier(["a"], ["b"])

    @classmethod
    def entry_points(cls):
        """(name, call): each entry point as a call on an override map, every
        call needing the override of "a"."""
        cat, offer, base = cls.CATALOG, cls.OFFER, TieredOffer.two_tier(["b"], [])
        return [
            ("solve_two_tier", lambda v: solve_two_tier(cat, valuations=v).expected_profit),
            ("solve_two_tier prefix",
             lambda v: solve_two_tier(cat, valuations=v, exact=False).expected_profit),
            ("solve_tier1_given_tier2", lambda v: solve_tier1_given_tier2(cat, ["b"], valuations=v)[1]),
            ("expected_profit", lambda v: expected_profit(offer, cat, v)),
            ("purchase_probabilities", lambda v: purchase_probabilities(offer, cat, v).no_purchase),
            ("total_weight", lambda v: total_weight(["a", "b"], cat, v)),
            ("brute_force_optimal", lambda v: brute_force_optimal(cat, valuations=v).expected_profit),
            ("epoch_regret_closed_form",
             lambda v: epoch_regret_closed_form(cat, base, "a", 1, valuations=v)),
            ("epoch_regret_monte_carlo", lambda v: epoch_regret_monte_carlo(
                cat, base, "a", 1, 50, np.random.default_rng(0), valuations=v).mean),
        ]

    @pytest.mark.parametrize(
        "bad", ["0.5", None, True, 10**400, math.nan, -1.0],
        ids=["str", "None", "bool", "int-past-float", "nan", "negative"],
    )
    def test_bad_override_is_refused_everywhere(self, bad):
        for name, call in self.entry_points():
            with pytest.raises(InvalidOfferError, match="^valuation for 'a' must be") as info:
                call({"a": bad, "b": 0.5})
            assert repr(bad) in str(info.value), name

    def test_non_mapping_is_refused_everywhere(self):
        """A list is not read by position: every entry point refuses it."""
        for name, call in self.entry_points():
            with pytest.raises(InvalidOfferError, match="^valuations must map product ids"):
                call([0.5, 0.5])

    def test_float32_reads_as_the_float_it_equals(self):
        for name, call in self.entry_points():
            got, want = call({"a": np.float32(0.5), "b": 0.5}), call({"a": 0.5, "b": 0.5})
            assert type(got) is float and got == want, name

    def test_int_reads_as_its_float(self):
        for name, call in self.entry_points():
            assert call({"a": 1, "b": 0}) == call({"a": 1.0, "b": 0.0}), name


class TestStringIds:
    """A str where a collection of ids belongs would split into one-letter
    ids ("ab" into "a" and "b"); every such argument refuses it."""

    CATALOG = Catalog((Product("a", 1.0, 0.5), Product("b", 0.5, 0.5), Product("ab", 0.8, 0.5)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: solve_tier1_given_tier2(c, "ab"),
            lambda c: solve_tier1_given_tier2(c, [], forced_tier1="ab"),
            lambda c: solve_tier1_given_tier2(c, [], candidates_tier1="ab"),
            lambda c: TieredOffer("ab"),
            lambda c: TieredOffer.two_tier("ab", []),
            lambda c: TieredOffer.two_tier([], "ab"),
            lambda c: solve_two_tier(c, candidates_tier1="ab"),
            lambda c: solve_two_tier(c, candidates_tier2="ab", exact=False),
            lambda c: brute_force_optimal(c, candidate_sets=["ab", ["b"]]),
            lambda c: is_profit_ordered_set("ab", ["a", "b", "ab"], c),
            lambda c: expected_profit_single_tier("ab", c),
            lambda c: total_weight("ab", c),
        ],
    )
    def test_refused(self, call):
        with pytest.raises(InvalidOfferError, match="must be a collection of product ids, got '"):
            call(self.CATALOG)


class TestGatherCheck:
    """``_gather`` tests the gathered floats with one sum and one min, and
    scans them only to name the first bad weight."""

    IDS = ["a", "b", "c", "d", "e"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_names_the_first_bad_weight(self, bad, at):
        w = np.array([0.5, 1e308, 0.0, 0.25, 1e308])
        w[at] = bad
        w[(at + 3) % 5] = math.nan  # a later bad weight is not named
        first = min(at, (at + 3) % 5)
        with pytest.raises(InvalidOfferError) as info:
            _gather(w, np.arange(5), self.IDS)
        got = w[first].item()
        assert str(info.value) == (
            f"valuation for {self.IDS[first]!r} must be finite and >= 0, got {got!r}"
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_one_bad_weight(self, bad, at):
        w = np.full(5, 0.5)
        w[at] = bad
        with pytest.raises(InvalidOfferError) as info:
            _gather(w, np.arange(5), self.IDS)
        assert str(info.value) == (
            f"valuation for {self.IDS[at]!r} must be finite and >= 0, got {bad!r}"
        )

    def test_overflowing_sum_of_finite_weights_passes(self):
        w = np.array([1e308, 1e308, 0.0, -0.0])
        assert _gather(w, np.array([1, 0, 3]), ["b", "a", "d"]) == [1e308, 1e308, -0.0]
        assert _gather(w, np.zeros(0, dtype=np.intp), []) == []


class TestSequentialTierValue:
    @staticmethod
    def left_to_right(r, v) -> float:
        sum_w = sum_rw = 0.0
        for r_i, w_i in zip(r.tolist(), v.tolist()):
            sum_w += w_i
            sum_rw += r_i * w_i
        return sum_rw / (1.0 + sum_w)

    def test_equals_expected_profit_bit_for_bit(self):
        """Left-to-right sums in id order, as expected_profit adds them; a
        pairwise sum (np.sum) differs in the last bits past 8 terms.  Both
        library sums go through ``_tier_sums``, so each is held to a local
        loop."""
        rng = np.random.default_rng(20190503)
        pairwise_differs = 0
        for _ in range(300):
            n = int(rng.integers(9, 60))
            products = tuple(
                Product(f"p{k:02d}", float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
                for k in range(n)
            )
            catalog = Catalog(products)
            valuations = None
            if rng.random() < 0.5:
                valuations = {p.id: float(rng.uniform(0, 3)) for p in products}
            ids = sorted_ids(catalog.ids)
            r, v = gathered(ids, catalog, valuations)
            want = self.left_to_right(r, v)
            assert expected_profit(TieredOffer((frozenset(ids),)), catalog, valuations) == want
            assert _tier_value(r, v) == want
            pairwise_differs += float(np.sum(r * v) / (1.0 + np.sum(v))) != want
        assert pairwise_differs > 0

    def test_empty_tier_is_worth_zero(self):
        assert _tier_value(np.zeros(0), np.zeros(0)) == 0.0


class TestRunningSumCores:
    """The running-sum cores against the numpy prefix-sum cores they
    replaced (``reference_solvers``), on the same gathered inputs."""

    SHAPES = ("shared", "disjoint", "overlapping")

    def random_case(self, rng, shape, tick=None):
        """Sweep inputs and tier-1 prefix inputs (forced products first,
        tier 2 in id order) of one random catalog, as numpy arrays."""
        n = int(rng.integers(0, 41))
        profits = rng.uniform(0, 5, n)
        if tick is not None:
            profits = np.round(profits / tick) * tick
        products = tuple(Product(f"p{k}", float(profits[k]), 0.5) for k in range(n))
        ids = [p.id for p in products]
        if shape == "shared":
            x1 = x2 = [i for i in ids if rng.random() < 0.8]
        elif shape == "disjoint":
            coin = rng.random(n)
            x1 = [i for i, c in zip(ids, coin) if c < 0.5]
            x2 = [i for i, c in zip(ids, coin) if c >= 0.5]
        else:
            x1 = [i for i in ids if rng.random() < 0.7]
            x2 = [i for i in ids if rng.random() < 0.7]
        catalog = Catalog(products, x1, x2)
        valuations = {i: 0.0 if rng.random() < 0.3 else float(rng.uniform(0, 3)) for i in ids}
        order1 = profit_order(catalog.candidates_tier1, catalog)
        order2 = order1 if x1 == x2 else profit_order(catalog.candidates_tier2, catalog)
        r1, v1 = gathered(order1, catalog, valuations)
        r2, v2 = (r1, v1) if order2 is order1 else gathered(order2, catalog, valuations)
        ranks1 = catalog._indices(order1)
        ranks2 = ranks1 if order2 is order1 else catalog._indices(order2)
        sweep = (r1, v1, r2, v2, *_tier_maps(ranks1, ranks2))
        tier2 = sorted_ids(i for i in order2 if rng.random() < 0.3)
        forced = sorted_ids(i for i in ids if i not in tier2 and rng.random() < 0.15)
        free = [i for i in order1 if i not in tier2 and i not in forced]
        fr1, fv1 = gathered(forced + free, catalog, valuations)
        fr2, fv2 = gathered(tier2, catalog, valuations)
        return sweep, (fr1, fv1, len(forced), fr2, fv2)

    @staticmethod
    def new_sweep(r1, v1, r2, v2, rank1, pos2):
        p1, w1 = r1.tolist(), v1.tolist()
        p2, w2 = (p1, w1) if v2 is v1 else (r2.tolist(), v2.tolist())
        return _sweep(p1, w1, p2, w2, rank1, pos2)

    @staticmethod
    def new_tier1(r1, v1, n_forced, r2, v2):
        return _tier1_prefix(r1.tolist(), v1.tolist(), n_forced, r2.tolist(), v2.tolist())

    @pytest.mark.parametrize("shape", SHAPES)
    def test_equal_answers(self, shape):
        rng = np.random.default_rng(20190601 + self.SHAPES.index(shape))
        for _ in range(2000):
            sweep, tier1 = self.random_case(rng, shape)
            assert self.new_sweep(*sweep) == numpy_sweep(*sweep)
            assert self.new_tier1(*tier1) == numpy_tier1_prefix(*tier1)
            r2, v2 = tier1[3], tier1[4]
            assert _tier_value(r2.tolist(), v2.tolist()) == numpy_tier_value(r2, v2)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ties_keep_the_value(self, shape):
        """On a 1/8 profit grid a candidate can earn exactly the best value,
        where the early stop and an argmax over every prefix may pick
        different equal offers but not different values."""
        rng = np.random.default_rng(20190611 + self.SHAPES.index(shape))
        for _ in range(2000):
            sweep, tier1 = self.random_case(rng, shape, tick=0.125)
            assert self.new_sweep(*sweep)[0] == pytest.approx(numpy_sweep(*sweep)[0], abs=1e-12)
            assert self.new_tier1(*tier1)[1] == pytest.approx(
                numpy_tier1_prefix(*tier1)[1], abs=1e-12
            )

    def test_empty_and_single_candidate(self):
        empty = np.zeros(0)
        assert _sweep([], [], [], [], range(0), range(0)) == (0.0, 0, 0)
        assert numpy_sweep(empty, empty, empty, empty, range(0), range(0)) == (0.0, 0, 0)
        assert _tier1_prefix([], [], 0, [], []) == (0, 0.0)
        assert numpy_tier1_prefix(empty, empty, 0, empty, empty) == (0, 0.0)
        for r, w in ((2.0, 0.5), (2.0, 0.0), (0.0, 0.5)):
            arr_r, arr_w = np.array([r]), np.array([w])
            shared = (arr_r, arr_w, arr_r, arr_w, range(1), range(1))
            assert self.new_sweep(*shared) == numpy_sweep(*shared)
            for one_tier in (
                (arr_r, arr_w, empty, empty, [], [0]),
                (empty, empty, arr_r, arr_w, [0], []),
            ):
                assert self.new_sweep(*one_tier) == numpy_sweep(*one_tier)
            for n_forced in (0, 1):
                args = (arr_r, arr_w, n_forced, empty, empty)
                assert self.new_tier1(*args) == numpy_tier1_prefix(*args)

    @pytest.mark.parametrize("tick", [None, 0.125])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_derived_end_matches_the_stack(self, shape, tick):
        """The end e derived once after the sweep is the one the stack of
        kept tier-2 positions gave, with zero weights (30%) and, on the 1/8
        profit grid, tied profits."""
        rng = np.random.default_rng(20191101 + self.SHAPES.index(shape) + (tick is not None) * 7)
        for _ in range(2000):
            sweep, _ = self.random_case(rng, shape, tick)
            r1, v1, r2, v2, rank1, pos2 = sweep
            p1, w1 = r1.tolist(), v1.tolist()
            p2, w2 = (p1, w1) if v2 is v1 else (r2.tolist(), v2.tolist())
            assert _sweep(p1, w1, p2, w2, rank1, pos2) == stack_sweep(p1, w1, p2, w2, rank1, pos2)

    def test_tier1_scan_stops_at_a_profit_equal_to_the_best_value(self):
        """Taking 2.0 at weight 1 makes the value exactly 1.0; a free
        candidate earning 1.0 cannot raise it, so the scan reads no further
        (the None weight would fail if it did)."""
        assert _tier1_prefix([2.0, 1.0, 0.5], [1.0, None, None], 0, [], []) == (1, 1.0)


class TestProfitOrder:
    """A frame reads its candidates in the canonical order: profit
    descending, then ``str(id)``."""

    def test_matches_profit_then_id_sort(self):
        rng = np.random.default_rng(20190429)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            profits = np.round(rng.uniform(0, 1, n), 1)
            catalog = Catalog(
                tuple(Product(f"p{k}", float(profits[k]), 0.1) for k in range(n))
            )
            subset = [i for i in catalog.ids if rng.random() < 0.6]
            want = sorted(subset, key=lambda i: (-catalog.profit_of(i), str(i)))
            assert list(_PairFrame(catalog, subset, subset).ids1) == want

    @pytest.mark.parametrize("kind", ["int", "mixed"])
    def test_int_and_mixed_ids_with_profit_ties(self, kind):
        """Ids of int or of mixed int/str type, with profits on a coarse
        grid so many tie: the order falls back on ``str(id)``, where 10
        sorts before 9 and "p1" after 1."""
        rng = np.random.default_rng(20190430 + len(kind))
        for _ in range(50):
            n = int(rng.integers(1, 30))
            profits = rng.integers(0, 4, n) / 4
            ids = [k if kind == "int" or k % 2 else f"p{k}" for k in range(n)]
            catalog = Catalog(tuple(Product(i, float(r), 0.1) for i, r in zip(ids, profits)))
            subset = [i for i in ids if rng.random() < 0.6]
            want = sorted(subset, key=lambda i: (-catalog.profit_of(i), str(i)))
            assert list(_PairFrame(catalog, subset, ()).ids1) == want
            assert list(_PairFrame(catalog, (), frozenset(subset)).ids2) == want

    def test_unknown_id_raises(self):
        catalog = Catalog((Product("a", 1.0, 0.5),))
        with pytest.raises(UnknownProductError):
            _PairFrame(catalog, ["a", "ghost"], ())


class TestTierMaps:
    """``_tier_maps`` from rank arrays against the id-to-position dicts it
    replaced, computed here on the same candidate orders."""

    @staticmethod
    def dict_maps(order1, order2):
        at1, at2 = dict(zip(order1, range(len(order1)))), dict(zip(order2, range(len(order2))))
        return [at1.get(i, len(order1)) for i in order2], [at2.get(i, len(order2)) for i in order1]

    @pytest.mark.parametrize("shape", ["shared", "disjoint", "overlapping"])
    def test_equals_the_dict_construction(self, shape):
        rng = np.random.default_rng(20190701 + len(shape))
        for _ in range(300):
            n = int(rng.integers(0, 40))
            profits = rng.integers(0, 6, n) / 5
            catalog = Catalog(tuple(Product(f"p{k}", float(profits[k]), 0.1) for k in range(n)))
            ids = [p.id for p in catalog.products]
            if shape == "shared":
                x1 = x2 = frozenset(i for i in ids if rng.random() < 0.8)
            elif shape == "disjoint":
                coin = rng.random(n)
                x1 = frozenset(i for i, c in zip(ids, coin) if c < 0.5)
                x2 = frozenset(i for i, c in zip(ids, coin) if c >= 0.5)
            else:
                x1 = frozenset(i for i in ids if rng.random() < 0.7)
                x2 = frozenset(i for i in ids if rng.random() < 0.7)
            order1, order2 = profit_order(x1, catalog), profit_order(x2, catalog)
            ranks1, ranks2 = catalog._indices(order1), catalog._indices(order2)
            assert _tier_maps(ranks1, ranks2) == self.dict_maps(order1, order2)
            frame = _PairFrame(catalog, x1, x2)
            assert (list(frame.ids1), list(frame.ids2)) == (order1, order2)
            assert frame.ranks1.tolist() == ranks1.tolist()
            assert frame.ranks2.tolist() == ranks2.tolist()
            assert (list(frame.rank1), list(frame.pos2)) == self.dict_maps(order1, order2)
            if shape == "shared":
                assert frame.rank1 == frame.pos2 == range(len(order1))


class TestFrameFromRanks:
    """A pair frame built from the catalog's rank arrays, or from their
    launched parts (``Catalog._launched``), against ``IdPairFrame`` on the same id
    sets: the same profit lists, maps, sharing and ``tiers(a, e)`` ids for
    every (a, e).  Int and str ids, profits on a coarse grid (ties)."""

    @pytest.mark.parametrize("shape", ["shared", "disjoint", "overlapping", "visible"])
    def test_matches_the_id_built_frame(self, shape):
        rng = np.random.default_rng(20190901 + len(shape))
        for _ in range(300):
            n = int(rng.integers(0, 25))
            ids = [f"p{k}" if k % 3 else k for k in range(n)]
            profits = rng.integers(0, 6, n) / 5
            launches = rng.integers(0, 4, n) if shape == "visible" else np.zeros(n, int)
            products = tuple(
                Product(i, float(r), 0.1, launch_time=int(s)) for i, r, s in zip(ids, profits, launches)
            )
            if shape == "shared" or (shape == "visible" and rng.random() < 0.3):
                x1 = x2 = None if rng.random() < 0.5 else [i for i in ids if rng.random() < 0.8]
            elif shape == "disjoint":
                coin = rng.random(n)
                x1 = [i for i, c in zip(ids, coin) if c < 0.5]
                x2 = [i for i, c in zip(ids, coin) if c >= 0.5]
            else:
                x1 = [i for i in ids if rng.random() < 0.7]
                x2 = [i for i in ids if rng.random() < 0.7]
            catalog = Catalog(products, x1, x2)
            x1, x2 = catalog.candidates_tier1, catalog.candidates_tier2
            if shape == "visible":
                t = int(rng.integers(0, 4))
                visible = catalog.visible_at(t)
                got = _PairFrame(catalog, *catalog._launched(t))
                want = IdPairFrame(catalog, x1 & visible, x2 & visible)
            else:
                got = _PairFrame(catalog, *catalog._candidate_ranks)
                want = IdPairFrame(catalog, x1, x2)
            assert (got.profits1, got.profits2) == (want.profits1, want.profits2)
            assert (got.ranks2 is got.ranks1) == (want.ranks2 is want.ranks1)
            assert (list(got.rank1), list(got.pos2)) == (list(want.rank1), list(want.pos2))
            assert (list(got.ids1), list(got.ids2)) == (want.ids1, want.ids2)
            for a in range(len(want.ids1) + 1):
                for e in range(len(want.ids2) + 1):
                    assert got.tiers(a, e) == want.tiers(a, e)


class TestWorkCap:
    def shared_catalog(self, n):
        # identical candidate sets and tightly spaced profits walk every
        # product: the frontier after k of them holds k + 1 demoted sets
        return Catalog(
            tuple(Product(f"p{k:02d}", 5.0 + 0.001 * k, 0.5) for k in range(n))
        )

    def test_exact_mode_raises_beyond_cap(self, monkeypatch):
        catalog = self.shared_catalog(24)
        monkeypatch.setattr(optimizer, "_MAX_EXACT_WORK", 1000)
        with pytest.raises(InstanceTooLargeError):
            solve_two_tier(catalog)
        with pytest.raises(InstanceTooLargeError):
            solve_two_tier_naive(catalog, max_exact_work=1000)

    def test_heuristic_mode_never_raises(self, monkeypatch):
        catalog = self.shared_catalog(40)
        monkeypatch.setattr(optimizer, "_MAX_EXACT_WORK", 1)
        result = solve_two_tier(catalog, exact=False)
        assert result.expected_profit > 0.0

    def test_cap_binds_on_work_not_size(self, monkeypatch):
        # few free products -> exact mode fine even with a modest cap
        catalog = random_instance(np.random.default_rng(1), n_max=5)
        monkeypatch.setattr(optimizer, "_MAX_EXACT_WORK", 200_000)
        solve_two_tier(catalog)

    def test_equal_profit_subset_sum_reaches_the_real_cap(self):
        """Equal profits make sum rv = r * sum v, so every distinct weight
        sum of the walked shared products is on the frontier and it doubles
        with each product.  600 low-profit tier-1-only products lengthen
        each point's walk to 621 steps, so the unpatched cap falls at a
        frontier of 2^14 points and the test stays small."""
        rng = np.random.default_rng(20190429)
        shared = [Product(f"s{k:02d}", 1.0, float(rng.uniform(0.05, 0.1))) for k in range(20)]
        pads = [Product(f"x{k:03d}", 0.01, 0.01) for k in range(600)]
        ids = [p.id for p in shared]
        catalog = Catalog(tuple(shared + pads), ids + [p.id for p in pads], ids)
        with pytest.raises(InstanceTooLargeError, match=r"reached \d+ steps on 16384 demoted sets"):
            solve_two_tier(catalog)
        assert solve_two_tier(catalog, exact=False).expected_profit > 0.0


class TestFrameCompletion:
    """The frontier completion against ``id_completion``, the Gray-code
    search over every split of the shared products written on product ids:
    the same repriced value (``==``) and the same tier sets unless the two
    offers tie in exact arithmetic, on shared and overlapping catalogs with
    profits on a tick (ties), about 30% zero weights and float or int
    overrides."""

    @staticmethod
    def random_case(rng, shape):
        n = int(rng.integers(1, 13))
        profits = np.round(rng.uniform(0, 5, n) * 4) / 4
        weights = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0, 1, n))
        products = tuple(
            Product(f"p{k}", float(profits[k]), float(weights[k])) for k in range(n)
        )
        ids = [p.id for p in products]
        if shape == "shared":
            x1 = x2 = frozenset(ids)
        else:
            x1 = frozenset(i for i in ids if rng.random() < 0.75)
            x2 = frozenset(i for i in ids if rng.random() < 0.75)
        draw = rng.random()
        if draw < 1 / 3:
            valuations = None
        elif draw < 2 / 3:
            valuations = {i: 0.0 if rng.random() < 0.3 else float(rng.uniform(0, 2)) for i in ids}
        else:
            valuations = {i: int(rng.integers(0, 3)) for i in ids}
        return Catalog(products, x1, x2), valuations

    @staticmethod
    def seeded_frame(catalog, valuations):
        frame = _PairFrame(catalog, catalog.candidates_tier1, catalog.candidates_tier2)
        w1, w2 = frame.weights(_weight_vector(catalog, valuations, frame.ids1, frame.ids2))
        value, a, e = _sweep(frame.profits1, w1, frame.profits2, w2, frame.rank1, frame.pos2)
        return frame, w1, w2, value, TieredOffer.two_tier(*frame.tiers(a, e))

    @staticmethod
    def exact_value(offer, catalog, valuations):
        """The offer's expected profit in rational arithmetic."""
        weight = (lambda i: catalog.valuation_of(i)) if valuations is None else valuations.__getitem__
        sums = [
            (sum((Fraction(catalog.profit_of(i)) * Fraction(weight(i)) for i in tier), Fraction(0)),
             sum((Fraction(weight(i)) for i in tier), Fraction(0)))
            for tier in offer.tiers
        ]
        (rv1, v1), (rv2, v2) = sums
        return (rv1 + rv2 / (1 + v2)) / (1 + v1)

    @pytest.mark.parametrize("shape", ["shared", "overlapping"])
    def test_same_value_and_tiers_as_the_id_search(self, shape):
        rng = np.random.default_rng(20190512 + (shape == "shared"))
        refined = ties = 0
        for _ in range(1500):
            catalog, valuations = self.random_case(rng, shape)
            frame, w1, w2, seed_value, seed = self.seeded_frame(catalog, valuations)
            x1, x2 = catalog.candidates_tier1, catalog.candidates_tier2
            cutoff = max(seed_value - 1e-9, 0.0)
            free = [i for i in profit_order(x1 & x2, catalog) if catalog.profit_of(i) > cutoff]
            want = id_completion(
                frame.ids2, profit_order(x1 - x2, catalog), free, catalog, valuations, seed_value
            )
            got = _completion(frame, w1, w2, seed_value)
            offers = [seed if r is None else TieredOffer.two_tier(r[1], r[2]) for r in (got, want)]
            refined += want is not None
            assert expected_profit(offers[0], catalog, valuations) == expected_profit(
                offers[1], catalog, valuations
            )
            if offers[0] != offers[1]:
                ties += 1
                assert self.exact_value(offers[0], catalog, valuations) == self.exact_value(
                    offers[1], catalog, valuations
                )
        assert refined >= 20  # the cases reach past the seed family
        assert ties < 150  # most offers are the same; the rest move zero weights

    CAP_CASES = {
        # equal weights: the frontier after k of the six shared products
        # holds the k + 1 cheapest-first demoted sets; two exclusives
        "close": Catalog(
            tuple(Product(f"p{k:02d}", 5.0 + 0.001 * k, 0.5) for k in range(10)),
            candidates_tier1=[f"p{k:02d}" for k in range(8)],
            candidates_tier2=[f"p{k:02d}" for k in range(2, 10)],
        ),
        # the walk's cutoff: it covers the five "h" products and stops at
        # "l0", below the seed value; dyadic weights keep every sum exact
        "cutoff": Catalog(
            tuple(Product(f"h{k}", 4.0 - 0.25 * k, (k + 2) / 16) for k in range(5))
            + (Product("l0", 0.5, 0.5), Product("l1", 0.25, 0.25))
            + (Product("e", 2.0, 0.25), Product("t", 1.0, 0.5)),
            candidates_tier1=["h0", "h1", "h2", "h3", "h4", "l0", "l1", "e"],
            candidates_tier2=["h0", "h1", "h2", "h3", "h4", "l0", "l1", "t"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CAP_CASES))
    def test_cap_boundary(self, monkeypatch, case):
        catalog = self.CAP_CASES[case]
        x1, x2 = catalog.candidates_tier1, catalog.candidates_tier2
        seed_value = self.seeded_frame(catalog, None)[3]
        optimum = brute_force_optimal(catalog).expected_profit
        shared = profit_order(x1 & x2, catalog)
        walked = [i for i in shared if catalog.profit_of(i) > optimum]
        # every walked product outearns the optimum and the next one is
        # below the seed value, so the walk covers exactly ``walked``
        assert all(catalog.profit_of(i) < seed_value - 1e-9 for i in shared[len(walked):])
        items = [(catalog.profit_of(i), catalog.valuation_of(i)) for i in walked]
        sizes = frontier_sizes(items)
        work = sum(sizes) * (len(x1 - x2) + 1 + len(x2))
        monkeypatch.setattr(optimizer, "_MAX_EXACT_WORK", work)
        solve_two_tier(catalog)
        monkeypatch.setattr(optimizer, "_MAX_EXACT_WORK", work - 1)
        message = (
            f"exact completion reached {work} steps on {sizes[-1]} demoted sets "
            f"(cap {work - 1}); restrict the candidate sets or pass exact=False"
        )
        with pytest.raises(InstanceTooLargeError, match=f"^{re.escape(message)}$"):
            solve_two_tier(catalog)


class TestScreenedCompletion:
    """``_completion`` skips the frontier points its Dinkelbach screen
    rules out and prices the rest as ``frontier_completion`` does, so both
    return the same result (``==``, None included) or raise the same cap
    message.  Frames with up to 40 products: shared, overlapping and
    exclusive-heavy candidate sets, profits on a quarter tick in a quarter
    of the cases, about 15% zero weights, and overrides spread
    log-uniformly up to 1e6 or 1e12, where a margin that does not scale
    with the sums skips points the walk would take by rounding."""

    @staticmethod
    def random_case(rng, shape, scale):
        n = int(rng.integers(2, 41))
        if rng.random() < 0.25:
            profits = rng.choice([0.25, 0.5, 0.75, 1.0], n)
        else:
            profits = rng.uniform(0, 1, n)
        weights = np.where(rng.random(n) < 0.15, 0.0, rng.uniform(0, 1, n))
        products = tuple(Product(f"p{k}", float(profits[k]), float(weights[k])) for k in range(n))
        ids = [p.id for p in products]
        if shape == "shared":
            x1 = x2 = ids
        elif shape == "overlapping":
            x1 = [i for i in ids if rng.random() < 0.75]
            x2 = [i for i in ids if rng.random() < 0.75]
        else:
            x1, x2 = ids, [i for i in ids if rng.random() < 0.4]
        valuations = None if scale is None else {
            i: 0.0 if rng.random() < 0.15 else float(rng.uniform(0, 1) * scale ** rng.random())
            for i in ids
        }
        return Catalog(products, x1, x2), valuations

    @staticmethod
    def outcome(completion, *args):
        try:
            return completion(*args)
        except InstanceTooLargeError as exc:
            return str(exc)

    @pytest.mark.parametrize("shape", ["shared", "overlapping", "exclusive-heavy"])
    def test_same_result_as_the_unscreened_walk(self, shape):
        rng = np.random.default_rng(20190601 + len(shape))
        refined = 0
        for k in range(1002):
            catalog, valuations = self.random_case(rng, shape, (None, 1e6, 1e12)[k % 3])
            frame, w1, w2, seed_value, _ = TestFrameCompletion.seeded_frame(catalog, valuations)
            want = self.outcome(frontier_completion, frame, w1, w2, seed_value)
            assert self.outcome(_completion, frame, w1, w2, seed_value) == want
            refined += isinstance(want, tuple)
        assert refined >= 100  # the frames reach past the seed family

    @pytest.mark.parametrize("factor", [0.0, 0.5, 0.97])
    @pytest.mark.parametrize("shape", ["shared", "overlapping", "exclusive-heavy"])
    def test_seed_values_below_the_prefix_pair(self, shape, factor):
        """Seeded below the prefix-pair value (at 0, half of it or 0.97 of
        it), points the walk meets early raise the best value, so a settle
        prices points it screened at a value since passed and must replay
        each step's stop test with the best value as it rose."""
        rng = np.random.default_rng(20190701 + len(shape) + int(100 * factor))
        refined = 0
        for k in range(600):
            catalog, valuations = self.random_case(rng, shape, (None, 1e6, 1e12)[k % 3])
            frame, w1, w2, seed_value, _ = TestFrameCompletion.seeded_frame(catalog, valuations)
            want = self.outcome(frontier_completion, frame, w1, w2, seed_value * factor)
            assert self.outcome(_completion, frame, w1, w2, seed_value * factor) == want
            refined += isinstance(want, tuple)
        assert refined >= 590  # nearly every frame beats the lowered seed

    def test_settles_before_the_cap_raises(self, monkeypatch):
        """The per-step walk stops at step s once an early point has raised
        the best value; with the seed value alone it would walk on.  Capped
        at W, the work checked at step s, or at any larger work the seed
        value's walk would check, the batched walk may merge past s before
        it settles, and must then settle the pending steps, which stop at s,
        instead of raising.  With the cap at W - 1 both raise the same
        message at step s.  Dyadic profits and weights keep the sums
        exact, so ``frontier_sizes`` gives the work at every step."""
        rng = np.random.default_rng(20190707)
        checked = 0
        for _ in range(150):
            n = int(rng.integers(3, 13))
            profits, weights = rng.integers(1, 17, n) / 16, rng.integers(1, 9, n) / 16
            products = tuple(Product(f"p{k}", float(profits[k]), float(weights[k])) for k in range(n))
            ids = [p.id for p in products]
            x1, x2 = ([i for i in ids if rng.random() < 0.85] for _ in range(2))
            frame, w1, w2, seed_value, _ = TestFrameCompletion.seeded_frame(Catalog(products, x1, x2), None)
            seed_value *= float(rng.choice([0.0, 0.5]))
            n2 = len(frame.ranks2)
            shared = [j for j, k in enumerate(frame.pos2) if k < n2 and w1[j] > 0.0]
            walk = sum(k == n2 for k in frame.pos2) + 1 + n2  # each point's work
            sizes = frontier_sizes([(frame.profits1[j], w1[j]) for j in shared])
            works = [walk * sum(sizes[: s + 1]) for s in range(len(shared) + 1)]
            seed_stop = next(
                (s for s, j in enumerate(shared) if frame.profits1[j] <= max(seed_value - 1e-9, 0.0)),
                len(shared),
            )
            for s, work in enumerate(works[:seed_stop]):
                monkeypatch.setattr(optimizer, "_MAX_EXACT_WORK", work)
                want = self.outcome(frontier_completion, frame, w1, w2, seed_value)
                if isinstance(want, tuple):  # the per-step walk stops at step s < seed_stop
                    for cap in works[s:seed_stop]:
                        monkeypatch.setattr(optimizer, "_MAX_EXACT_WORK", cap)
                        assert _completion(frame, w1, w2, seed_value) == want
                    monkeypatch.setattr(optimizer, "_MAX_EXACT_WORK", work - 1)
                    message = self.outcome(frontier_completion, frame, w1, w2, seed_value)
                    assert message.startswith(f"exact completion reached {work} steps")
                    assert self.outcome(_completion, frame, w1, w2, seed_value) == message
                    checked += 1
                    break
        assert checked >= 100


class TestArrayFrontier:
    """``_completion`` keeps its frontier in numpy arrays where
    ``frontier_completion`` keeps tuples with the demoted sets' bits."""

    @pytest.mark.parametrize("shape", ["shared", "overlapping", "exclusive-heavy"])
    def test_exact_ties_keep_the_tuple_order(self, shape):
        """Dyadic profits and weights make every sum exact, so a shifted
        point often ties a frontier point in (sum rv, sum v): about 5,800
        times over these 3,000 frames.  The tuple walk breaks such ties on
        the bits; the stable array sort must order them alike, unshifted
        copy first.  With the shifted copy first, 52 frames differ."""
        outcome = TestScreenedCompletion.outcome
        rng = np.random.default_rng(20190615 + len(shape))
        refined = 0
        for _ in range(1000):
            n = int(rng.integers(2, 25))
            if rng.random() < 0.5:
                profits = rng.choice([0.25, 0.5, 0.75, 1.0], n)
            else:
                profits = rng.integers(1, 9, n) / 8
            weights = rng.choice([0.0, 0.125, 0.25, 0.5, 0.75, 1.0], n)
            products = tuple(Product(f"p{k}", float(profits[k]), float(weights[k])) for k in range(n))
            ids = [p.id for p in products]
            if shape == "shared":
                x1 = x2 = ids
            elif shape == "overlapping":
                x1 = [i for i in ids if rng.random() < 0.75]
                x2 = [i for i in ids if rng.random() < 0.75]
            else:
                x1, x2 = ids, [i for i in ids if rng.random() < 0.4]
            catalog = Catalog(products, x1, x2)
            frame, w1, w2, seed_value, _ = TestFrameCompletion.seeded_frame(catalog, None)
            want = outcome(frontier_completion, frame, w1, w2, seed_value)
            assert outcome(_completion, frame, w1, w2, seed_value) == want
            refined += isinstance(want, tuple)
        assert refined >= 200

    def test_complex_stable_sort_is_the_two_key_lexsort(self):
        """The frontier sorts sum rv + i * (-sum v) with a stable complex
        argsort; it must give ``np.lexsort``'s permutation on the two parts,
        exact ties, -0.0 against 0.0, +-inf in either part and NaN in the
        real part included, so a numpy whose complex order changed fails
        here.  An imaginary part is never NaN on the frontier: -sum v starts
        at -0.0 and only subtracts finite weights."""
        rng = np.random.default_rng(20190616)
        special = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan])
        for _ in range(500):
            n = int(rng.integers(1, 60))
            z = np.empty(n, complex)
            z.real, z.imag = rng.choice(special, n), rng.choice(special[:-1], n)
            if rng.random() < 0.5:  # two sorted runs, as a merge step stacks them
                head = z[np.lexsort((z.imag, z.real))]
                with np.errstate(invalid="ignore"):  # inf - inf
                    z = np.concatenate((head, head + complex(rng.choice(special[:5]), -0.5)))
            want = np.lexsort((z.imag, z.real))
            assert np.argsort(z, kind="stable").tolist() == want.tolist()

    def test_a_nan_imaginary_part_sorts_after_every_number(self):
        """Where the two orders part: numpy puts R + nan j after every
        R + R j whatever the real parts, and ``np.lexsort`` sorts by the real
        part first.  Pinned so a change in numpy's NaN order shows up too."""
        z = np.array([complex(1.0, math.nan), complex(2.0, 0.0), complex(math.nan, 5.0),
                      complex(-1.0, math.nan), complex(3.0, -math.inf)])
        assert np.argsort(z, kind="stable").tolist() == [1, 4, 3, 0, 2]
        assert np.lexsort((z.imag, z.real)).tolist() == [3, 0, 1, 4, 2]

    @pytest.mark.parametrize(
        "valuations, tier2",
        [
            ({"p0": 1e308, "p1": 1e308, "p2": 0.5, "p3": 1e308, "p4": 0.2}, ["p0"]),
            ({"p0": 1e200, "p1": 1e300, "p2": 1e308, "p3": 3.0, "p4": 1e-300}, ["p0"]),
            ({"p0": 1e-300, "p1": 1e308, "p2": 1e-300, "p3": 1e154, "p4": 1e155}, ["p0", "p1"]),
        ],
    )
    def test_huge_overrides_overflow_without_warnings(self, valuations, tier2):
        """Sums of huge overrides overflow to inf, silently in the walks'
        floats; the completion's array arithmetic must not warn either
        (RuntimeWarning is an error under this suite)."""
        catalog = Catalog(tuple(Product(f"p{k}", 1.0 - 0.1 * k, 0.5) for k in range(5)))
        result = solve_two_tier(catalog, valuations=valuations)
        assert result.offer == TieredOffer.two_tier([], tier2)


class TestPrefixPairEnumeration:
    def test_small_catalog_family(self):
        catalog = Catalog(
            (Product("a", 3.0, 0.5), Product("b", 2.0, 0.5), Product("c", 1.0, 0.5))
        )
        offers = enumerate_prefix_pair_offers(catalog)
        assert TieredOffer.two_tier([], []) in offers
        assert TieredOffer.two_tier(["a"], ["b", "c"]) in offers
        assert TieredOffer.two_tier(["a", "b", "c"], []) in offers
        assert len(offers) == len(set(offers))  # de-duplicated
        for offer in offers:
            t1 = offer.tier(0)
            # tier 1 is always a profit prefix of the candidate order
            order = profit_order(catalog.candidates_tier1, catalog)
            assert t1 == frozenset(order[: len(t1)])

    def test_contains_optimum_when_candidates_disjoint(self):
        rng = np.random.default_rng(131)
        for _ in range(50):
            catalog = random_instance(rng, n_max=6, overlap=False)
            best = brute_force_optimal(catalog)
            values = [
                expected_profit(o, catalog) for o in enumerate_prefix_pair_offers(catalog)
            ]
            assert max(values, default=0.0) == pytest.approx(
                best.expected_profit, abs=1e-9
            )


class TestProfitOrderingPredicates:
    def test_set_predicate_edges(self):
        catalog = Catalog(
            (Product("a", 3.0, 0.5), Product("b", 2.0, 0.5), Product("c", 1.0, 0.5))
        )
        assert is_profit_ordered_set([], ["a", "b"], catalog)
        assert is_profit_ordered_set(["a", "b"], ["a", "b"], catalog)
        assert is_profit_ordered_set(["a"], ["a", "b", "c"], catalog)
        assert not is_profit_ordered_set(["c"], ["a", "b", "c"], catalog)
        with pytest.raises(InvalidOfferError):
            is_profit_ordered_set(["z"], ["a"], catalog)

    def test_by_tier_predicate_hand_case(self):
        catalog = Catalog(
            (Product("a", 3.0, 0.5), Product("b", 2.0, 0.5), Product("c", 1.0, 0.5))
        )
        # tier 1 holds 'c' (profit 1) while 'b' (profit 2) is left out entirely
        bad = TieredOffer.two_tier(["c"], ["a"])
        assert not is_profit_ordered_by_tier(bad, catalog)
        good = TieredOffer.two_tier(["a"], ["b"])  # left-out 'c' earns less
        assert is_profit_ordered_by_tier(good, catalog)
        assert is_profit_ordered_by_tier(TieredOffer.two_tier([], ["c"]), catalog)

    def test_by_tier_predicate_holds_at_exhaustive_optima(self):
        rng = np.random.default_rng(141)
        for _ in range(100):
            catalog = random_instance(rng, n_max=6)
            best = brute_force_optimal(catalog)
            assert is_profit_ordered_by_tier(best.offer, catalog)


class TestThresholdReporting:
    def test_products_clear_their_tier_threshold(self):
        rng = np.random.default_rng(151)
        for _ in range(60):
            catalog = random_instance(rng)
            result = solve_two_tier(catalog)
            for k in (0, 1):
                for i in result.offer.tier(k):
                    assert catalog.profit_of(i) >= result.thresholds[k] - 1e-12
            t1, t2 = result.thresholds
            if result.offer.tier(0) and result.offer.tier(1):
                assert t1 >= t2 - 1e-12


class TestSuffixValuesAndPlacement:
    def test_suffix_values_hand_case(self):
        catalog = Catalog((Product(1, 10.0, 0.1), Product(2, 1.0, 1.0)))
        offer = TieredOffer.two_tier([1], [2])
        suffix = suffix_profits(offer, catalog)
        assert suffix[0] == pytest.approx(15.0 / 11.0, abs=1e-12)
        assert suffix[1] == pytest.approx(0.5, abs=1e-12)  # E[R({2}) alone]

    def test_suffix_values_non_increasing_at_optima(self):
        rng = np.random.default_rng(161)
        for _ in range(60):
            catalog = random_instance(rng, n_max=6)
            best = brute_force_optimal(catalog)
            suffix = suffix_profits(best.offer, catalog)
            assert all(a >= b - 1e-9 for a, b in zip(suffix, suffix[1:]))

    def test_placement_mapping(self):
        suffix = [1.2, 0.7, 0.3]
        assert predict_new_product_tier(suffix, 0.1) == TierPlacement(True, None)
        assert predict_new_product_tier(suffix, 0.5) == TierPlacement(False, 2)
        assert predict_new_product_tier(suffix, 0.9) == TierPlacement(False, 1)
        assert predict_new_product_tier(suffix, 2.0) == TierPlacement(False, 0)
        # a boundary tie counts as offerable in the last tier
        assert predict_new_product_tier(suffix, 0.3) == TierPlacement(False, 2)

    def test_placement_rejects_bad_input(self):
        with pytest.raises(ValueError):
            predict_new_product_tier([], 1.0)
        with pytest.raises(ValueError):
            predict_new_product_tier([0.3, 0.7], 1.0)

    @pytest.mark.parametrize(
        "suffix, profit",
        [
            ([0.7, 0.3], math.nan),
            ([0.7, 0.3], math.inf),
            ([0.7, 0.3], -math.inf),
            ([math.nan, 0.3], 0.5),
            ([0.7, math.nan], 0.5),
        ],
        ids=["nan-profit", "inf-profit", "-inf-profit", "nan-first-suffix", "nan-last-suffix"],
    )
    def test_placement_rejects_non_finite_values(self, suffix, profit):
        """Every comparison with NaN is false, so a NaN would otherwise be
        placed in tier 1."""
        with pytest.raises(ValueError, match="finite"):
            predict_new_product_tier(suffix, profit)


class TestExhaustiveSearchGuards:
    def test_assignment_cap(self):
        catalog = Catalog(
            tuple(Product(f"p{k}", 1.0, 0.5) for k in range(30))
        )
        with pytest.raises(InstanceTooLargeError):
            brute_force_optimal(catalog)

    def test_two_tiers_share_the_assignment_cap(self):
        """Two tiers run the same search as any other tier count: 12 shared
        products (3^12 assignments) solve, and 21 disjoint ones (2^21)
        exceed the cap."""
        rng = np.random.default_rng(172)
        catalog = Catalog(
            tuple(
                Product(f"p{k:02d}", float(rng.uniform(0, 5)), float(rng.uniform(0, 1)))
                for k in range(12)
            )
        )
        best = brute_force_optimal(catalog)
        assert best.expected_profit == pytest.approx(
            solve_two_tier(catalog).expected_profit, abs=1e-12
        )
        disjoint = Catalog(
            tuple(Product(f"p{k:02d}", 1.0, 0.5) for k in range(21)),
            [f"p{k:02d}" for k in range(10)],
            [f"p{k:02d}" for k in range(10, 21)],
        )
        with pytest.raises(InstanceTooLargeError, match="cap"):
            brute_force_optimal(disjoint)

    def test_single_tier_matches_scan(self):
        rng = np.random.default_rng(171)
        for _ in range(40):
            catalog = random_instance(rng, n_max=6)
            best = brute_force_optimal(catalog, num_tiers=1)
            ids = sorted_ids(catalog.ids)
            want = max(
                (
                    expected_profit_single_tier(combo, catalog)
                    for r in range(len(ids) + 1)
                    for combo in itertools.combinations(ids, r)
                ),
                default=0.0,
            )
            assert best.expected_profit == pytest.approx(want, abs=1e-12)

    def test_candidate_sets_override(self):
        catalog = Catalog(
            (Product("a", 3.0, 0.5), Product("b", 2.0, 0.5))
        )
        best = brute_force_optimal(catalog, candidate_sets=[["b"], ["b"]])
        assert "a" not in best.offer.all_ids
