"""Offline optimizer tests.

The ground truth everywhere is exhaustive enumeration over all disjoint
tier assignments; the solver must match it to 1e-9 on seeded random
instances with overlapping candidate sets, and its optima must satisfy the
profit-ordering predicates and threshold reporting.
"""

import itertools

import numpy as np
import pytest

from tieredmnl.errors import InstanceTooLargeError, InvalidOfferError, UnknownProductError
from tieredmnl.model import (
    Catalog,
    Product,
    TieredOffer,
    expected_profit,
    expected_profit_single_tier,
    sorted_ids,
)
from tieredmnl.optimizer import (
    TierPlacement,
    brute_force_optimal,
    enumerate_prefix_pair_offers,
    is_profit_ordered_by_tier,
    is_profit_ordered_set,
    predict_new_product_tier,
    profit_order,
    solve_tier1_given_tier2,
    solve_two_tier,
    solve_two_tier_naive,
    suffix_profits,
)


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


class TestProfitOrder:
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
            assert profit_order(subset, catalog) == want

    def test_unknown_id_raises(self):
        catalog = Catalog((Product("a", 1.0, 0.5),))
        with pytest.raises(UnknownProductError):
            profit_order(["a", "ghost"], catalog)


class TestWorkCap:
    def shared_catalog(self, n):
        # identical candidate sets and tightly spaced profits maximize the
        # completion's free-subset size
        return Catalog(
            tuple(Product(f"p{k:02d}", 5.0 + 0.001 * k, 0.5) for k in range(n))
        )

    def test_exact_mode_raises_beyond_cap(self):
        catalog = self.shared_catalog(24)
        with pytest.raises(InstanceTooLargeError):
            solve_two_tier(catalog, max_exact_work=1000)
        with pytest.raises(InstanceTooLargeError):
            solve_two_tier_naive(catalog, max_exact_work=1000)

    def test_heuristic_mode_never_raises(self):
        catalog = self.shared_catalog(40)
        result = solve_two_tier(catalog, exact=False, max_exact_work=1)
        assert result.expected_profit > 0.0

    def test_cap_binds_on_work_not_size(self):
        # few free products -> exact mode fine even with a modest cap
        catalog = random_instance(np.random.default_rng(1), n_max=5)
        solve_two_tier(catalog, max_exact_work=200_000)


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


class TestExhaustiveSearchGuards:
    def test_assignment_cap(self):
        catalog = Catalog(
            tuple(Product(f"p{k}", 1.0, 0.5) for k in range(30))
        )
        with pytest.raises(InstanceTooLargeError):
            brute_force_optimal(catalog)

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
