"""Choice-model tests: closed-form tier probabilities, expected profit,
sampling, and catalog (de)serialization.

Numeric expectations are hand-computed fractions for two fixed catalogs;
structural properties run over seeded random instances.
"""

import json
import math
import re

import numpy as np
import pytest

from tieredmnl.errors import (
    ConfigError,
    InvalidCatalogError,
    InvalidOfferError,
    UnknownProductError,
)
from tieredmnl.model import (
    NO_PURCHASE,
    Catalog,
    ChoiceOutcome,
    ChoiceSampler,
    Product,
    TieredOffer,
    catalog_from_dict,
    catalog_to_dict,
    expected_profit,
    expected_profit_single_tier,
    load_catalog,
    purchase_probabilities,
    save_catalog,
    sorted_ids,
    total_weight,
)
from tieredmnl.rng import BufferedRandom


def two_product_catalog() -> Catalog:
    return Catalog((Product(1, 10.0, 0.1), Product(2, 1.0, 1.0)))


def random_catalog(rng: np.random.Generator, n_max: int = 7) -> Catalog:
    n = int(rng.integers(1, n_max + 1))
    return Catalog(
        tuple(
            Product(f"p{k}", float(rng.uniform(0, 5)), float(rng.uniform(0, 1)))
            for k in range(n)
        )
    )


def random_offer(catalog: Catalog, rng: np.random.Generator, tiers: int = 2) -> TieredOffer:
    ids = sorted_ids(catalog.ids)
    assign = rng.integers(0, tiers + 1, size=len(ids))
    return TieredOffer(
        tuple(
            frozenset(i for i, a in zip(ids, assign) if a == k + 1)
            for k in range(tiers)
        )
    )


class TestExpectedProfit:
    """Closed-form value of a tiered offer against hand-worked fractions."""

    def test_two_products_single_tier(self):
        """(10*0.1 + 1*1) / (1 + 0.1 + 1) = 2/2.1."""
        catalog = two_product_catalog()
        assert expected_profit_single_tier([1, 2], catalog) == pytest.approx(
            2.0 / 2.1, abs=1e-12
        )

    def test_two_products_split_tiers(self):
        """10*(0.1/1.1) + (1/1.1)*(1/2) = 15/11: splitting beats pooling."""
        catalog = two_product_catalog()
        split = expected_profit(TieredOffer.two_tier([1], [2]), catalog)
        assert split == pytest.approx(15.0 / 11.0, abs=1e-12)
        assert split > expected_profit_single_tier([1, 2], catalog)

    def test_second_catalog_by_fractions(self):
        """r=(4,2), v=(1/2,1/4): pooled 10/7; split ({a},{b}) = 4/3+4/15 = 8/5."""
        catalog = Catalog((Product("a", 4.0, 0.5), Product("b", 2.0, 0.25)))
        assert expected_profit_single_tier(["a", "b"], catalog) == pytest.approx(
            10.0 / 7.0, abs=1e-12
        )
        split = expected_profit(TieredOffer.two_tier(["a"], ["b"]), catalog)
        assert split == pytest.approx(8.0 / 5.0, abs=1e-12)

    def test_three_tiers_discount_chain(self):
        """Each tier's revenue is reached with probability prod 1/(1+V_k)."""
        catalog = Catalog(
            (Product("a", 3.0, 0.5), Product("b", 2.0, 1.0), Product("c", 1.0, 0.25))
        )
        offer = TieredOffer((frozenset("a"), frozenset("b"), frozenset("c")))
        # 3*(0.5/1.5) + (1/1.5)*(2*1/2) + (1/1.5)*(1/2)*(0.25/1.25)
        want = 1.0 + 2.0 / 3.0 + (1.0 / 3.0) * 0.2
        assert expected_profit(offer, catalog) == pytest.approx(want, abs=1e-12)

    def test_empty_offer_is_worthless(self):
        catalog = two_product_catalog()
        assert expected_profit(TieredOffer.empty(), catalog) == 0.0
        assert expected_profit(TieredOffer.two_tier([], []), catalog) == 0.0

    def test_matches_probability_weighted_profit(self):
        """E[profit] = sum_i r_i P(buy i), on random offers."""
        rng = np.random.default_rng(11)
        for _ in range(60):
            catalog = random_catalog(rng)
            offer = random_offer(catalog, rng)
            dist = purchase_probabilities(offer, catalog)
            want = sum(
                catalog.profit_of(i) * p for i, p in dist.purchase.items()
            )
            assert expected_profit(offer, catalog) == pytest.approx(want, abs=1e-12)

    def test_valuation_override_matches_catalog_weights(self):
        rng = np.random.default_rng(12)
        catalog = random_catalog(rng)
        offer = random_offer(catalog, rng)
        override = {p.id: p.valuation for p in catalog.products}
        assert expected_profit(offer, catalog, override) == expected_profit(
            offer, catalog
        )

    def test_optimistic_override_above_one_is_legal(self):
        """Learning feeds optimistic weights > 1; the closed form accepts them."""
        catalog = Catalog((Product("a", 2.0, 0.5),))
        offer = TieredOffer.two_tier(["a"], [])
        got = expected_profit(offer, catalog, {"a": 3.0})
        assert got == pytest.approx(2.0 * 3.0 / 4.0, abs=1e-12)


class TestPurchaseProbabilities:
    def test_hand_traced_split_offer(self):
        """({1},{2}): p1=1/11, p2=5/11, none=5/11."""
        catalog = two_product_catalog()
        dist = purchase_probabilities(TieredOffer.two_tier([1], [2]), catalog)
        assert dist.probability(1) == pytest.approx(1.0 / 11.0, abs=1e-12)
        assert dist.probability(2) == pytest.approx(5.0 / 11.0, abs=1e-12)
        assert dist.no_purchase == pytest.approx(5.0 / 11.0, abs=1e-12)
        assert dist.tier_no_purchase == pytest.approx((1.0 / 1.1, 0.5), abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(80):
            catalog = random_catalog(rng)
            offer = random_offer(catalog, rng, tiers=int(rng.integers(1, 4)))
            dist = purchase_probabilities(offer, catalog)
            total = dist.no_purchase + sum(dist.purchase.values())
            assert total == pytest.approx(1.0, abs=1e-12)
            assert dist.no_purchase == pytest.approx(
                math.prod(dist.tier_no_purchase), abs=1e-12
            )

    def test_earlier_tier_gets_the_demand(self):
        """The same product keeps strictly more probability in tier 1."""
        catalog = Catalog((Product("a", 1.0, 0.4), Product("b", 1.0, 0.8)))
        front = purchase_probabilities(TieredOffer.two_tier(["a"], ["b"]), catalog)
        back = purchase_probabilities(TieredOffer.two_tier(["b"], ["a"]), catalog)
        assert front.probability("a") > back.probability("a")

    def test_unknown_product_in_offer(self):
        catalog = two_product_catalog()
        with pytest.raises(UnknownProductError):
            purchase_probabilities(TieredOffer.two_tier([1], ["ghost"]), catalog)

    def test_missing_override_entry(self):
        catalog = two_product_catalog()
        with pytest.raises(UnknownProductError):
            expected_profit(TieredOffer.two_tier([1], [2]), catalog, {1: 0.1})

    def test_negative_override_rejected(self):
        catalog = two_product_catalog()
        with pytest.raises(InvalidOfferError):
            expected_profit(TieredOffer.two_tier([1], []), catalog, {1: -0.5})


class TestTieredOffer:
    def test_tiers_must_be_disjoint(self):
        with pytest.raises(InvalidOfferError):
            TieredOffer.two_tier(["a"], ["a"])

    def test_accessors(self):
        offer = TieredOffer.two_tier(["a"], ["b", "c"])
        assert offer.tier1 == frozenset(["a"])
        assert offer.tier2 == frozenset(["b", "c"])
        assert offer.tier(5) == frozenset()
        assert offer.all_ids == frozenset(["a", "b", "c"])
        assert not offer.is_empty
        assert TieredOffer.empty().is_empty

    def test_non_collection_tiers_refused(self):
        with pytest.raises(InvalidOfferError, match="offer tiers must be id collections, got 5"):
            TieredOffer(5)

    def test_non_int_tier_count_refused(self):
        with pytest.raises(InvalidOfferError, match="num_tiers must be an integer >= 0, got '2'"):
            TieredOffer.empty("2")

    def test_non_int_tier_index_refused(self):
        with pytest.raises(InvalidOfferError, match="tier index must be an int, got 'x'"):
            TieredOffer.two_tier(["a"], ["b"]).tier("x")

    def test_total_weight_sums_valuations(self):
        catalog = two_product_catalog()
        assert total_weight([1, 2], catalog) == pytest.approx(1.1, abs=1e-12)

    @pytest.mark.parametrize("override", [False, True])
    def test_tiers_add_left_to_right(self, override):
        """Every closed form adds a tier's weights left to right in id order,
        as the sampler does.  On these weights ``sum()``, which compensates
        its additions from Python 3.12 on, gives 2.074 there: one bit off
        the left-to-right 2.0740000000000003."""
        weights = [0.56, 0.354, 0.316, 0.64, 0.204]
        catalog = Catalog(tuple(Product(f"p{k}", 1.0, v) for k, v in enumerate(weights)))
        valuations = {f"p{k}": v for k, v in enumerate(weights)} if override else None
        want = 0.0
        for v in weights:
            want += v
        assert want == 2.0740000000000003
        offer = TieredOffer((frozenset(catalog.ids),))
        assert total_weight(catalog.ids, catalog, valuations) == want
        dist = purchase_probabilities(offer, catalog, valuations)
        assert dist.tier_no_purchase == (1.0 / (1.0 + want),)
        assert expected_profit(offer, catalog, valuations) == want / (1.0 + want)
        assert ChoiceSampler(offer, catalog)._tiers[0][2] == 1.0 + want


class TestProductValidation:
    def test_valuation_bounds_inclusive(self):
        Product("edge", 1.0, 1.0)  # the closed forms allow weight exactly 1
        Product("zero", 1.0, 0.0)
        with pytest.raises(InvalidCatalogError):
            Product("hot", 1.0, 1.0 + 1e-9)
        with pytest.raises(InvalidCatalogError):
            Product("neg", 1.0, -0.1)

    def test_profit_must_be_nonnegative(self):
        with pytest.raises(InvalidCatalogError):
            Product("bad", -0.01, 0.5)

    def test_profit_must_be_finite(self):
        for profit in (float("inf"), float("nan")):
            with pytest.raises(InvalidCatalogError, match="finite"):
                Product("bad", profit, 0.5)

    def test_non_numbers_rejected(self):
        with pytest.raises(InvalidCatalogError, match="profit"):
            Product("x", "1", 0.5)
        with pytest.raises(InvalidCatalogError, match="valuation"):
            Product("x", 1.0, None)
        with pytest.raises(InvalidCatalogError, match="launch_time"):
            Product("x", 1.0, 0.5, launch_time=False)

    def test_equal_string_ids_share_one_object(self):
        """Catalogs rebuilt from the same ids (a replication, a re-read
        file) hold one string per id, however each id string was built."""
        first, second = (Product("".join(["p", str(k)]), 1.0, 0.5) for k in (7, 7))
        assert first.id == "p7" and first.id is second.id
        assert Product(7, 1.0, 0.5).id == 7

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidCatalogError):
            Catalog((Product("a", 1.0, 0.5), Product("a", 2.0, 0.5)))

    def test_ids_with_one_str_rejected(self):
        """Ids break ties on str(), so 1 and "1" would order by the string
        hash seed; the catalog names both, in product order."""
        with pytest.raises(InvalidCatalogError, match=r"ids 1 and '1' have one str\(\)"):
            Catalog((Product(1, 1.0, 0.5), Product("1", 1.0, 0.5), Product("a", 1.0, 0.5)))
        with pytest.raises(InvalidCatalogError, match="duplicate product id 'a'"):
            Catalog((Product("a", 1.0, 0.5), Product("1", 1.0, 0.5), Product("a", 2.0, 0.5)))

    @pytest.mark.parametrize("bad", ["", "a|b", "|", "a\rb"])
    def test_ids_a_trace_cell_cannot_carry_rejected(self, bad):
        """A trace cell joins a tier's str ids with "|", so an empty id or one
        holding "|" would read back as another offer, and csv before Python
        3.13 writes a "\\r" unquoted, so the row would read back as two; the
        catalog names the id."""
        with pytest.raises(InvalidCatalogError, match=re.escape(f"product id {bad!r} is empty or holds")):
            Catalog((Product("a", 1.0, 0.5), Product(bad, 1.0, 0.5)))

    def test_candidate_sets_must_reference_known_products(self):
        with pytest.raises(InvalidCatalogError):
            Catalog((Product("a", 1.0, 0.5),), candidates_tier1=["ghost"])

    @pytest.mark.parametrize("attr", ["candidates_tier1", "candidates_tier2"])
    @pytest.mark.parametrize("ids", [[True], [1, True], [False]])
    def test_bool_candidate_ids_rejected(self, attr, ids):
        """True and False hash like product ids 1 and 0, so a bool in a
        candidate list would silently stand for them."""
        products = (Product(0, 1.0, 0.5), Product(1, 2.0, 0.5))
        with pytest.raises(InvalidCatalogError, match=attr):
            Catalog(products, **{attr: ids})

    @pytest.mark.parametrize("attr", ["candidates_tier1", "candidates_tier2"])
    def test_bool_from_an_iterator_rejected(self, attr):
        """An iterator is read once, into the candidate set, and a bool in
        it is still refused."""
        products = (Product(0, 1.0, 0.5), Product(1, 2.0, 0.5))
        with pytest.raises(InvalidCatalogError, match=attr):
            Catalog(products, **{attr: iter([True])})

    def test_visible_at_filters_by_launch_time(self):
        catalog = Catalog(
            (Product("a", 1.0, 0.5), Product("b", 1.0, 0.5, launch_time=10))
        )
        assert catalog.visible_at(9) == frozenset(["a"])
        assert catalog.visible_at(10) == frozenset(["a", "b"])
        launches = {"a": 5, "b": 5, "c": 8, "d": 20}
        catalog = Catalog(
            tuple(Product(i, 1.0, 0.1, launch_time=t) for i, t in launches.items())
        )
        assert catalog.visible_at(0) == frozenset()  # before any launch
        assert catalog.visible_at(-3) == frozenset()
        for t in sorted(set(launches.values())):
            assert catalog.visible_at(t - 1) == {i for i, s in launches.items() if s < t}
            assert catalog.visible_at(t) == {i for i, s in launches.items() if s <= t}
        assert catalog.visible_at(10**9) == catalog.ids
        # one cached set per distinct launch time
        assert catalog.visible_at(6) is catalog.visible_at(7)

    def test_visible_at_refuses_a_non_int_time(self):
        catalog = Catalog((Product("a", 1.0, 0.5),))
        with pytest.raises(ConfigError, match="visible_at needs an int time step, got 'x'"):
            catalog.visible_at("x")

    @pytest.mark.parametrize("kind", ["str", "int", "mixed"])
    def test_rank_arrays_are_the_sorted_ranks_of_their_ids(self, kind):
        """Each candidate set's rank array, and the ranks ``_launched(t)``
        gives for its products launched by t, equal
        ``np.sort(catalog._indices(ids))``: int, str or mixed ids with
        profits on a coarse grid, so many tie and the order falls back on
        ``str(id)``."""
        rng = np.random.default_rng(20190801 + len(kind))
        for _ in range(100):
            n = int(rng.integers(0, 30))
            ids = [f"p{k}" if kind == "str" or (kind == "mixed" and k % 2) else k for k in range(n)]
            profits = rng.integers(0, 4, n) / 4
            launches = rng.integers(0, 5, n)
            products = tuple(
                Product(i, float(r), 0.1, launch_time=int(s)) for i, r, s in zip(ids, profits, launches)
            )
            sets = [None if rng.random() < 0.3 else [i for i in ids if rng.random() < 0.6] for _ in "12"]
            catalog = Catalog(products, *sets)
            cands = catalog.candidates_tier1, catalog.candidates_tier2
            for ranks, cand in zip(catalog._candidate_ranks, cands):
                assert ranks.tolist() == np.sort(catalog._indices(cand)).tolist()
            if sets == [None, None]:
                assert catalog._candidate_ranks[0] is catalog._candidate_ranks[1]
            for t in range(-1, 6):
                visible = catalog.visible_at(t)
                assert visible == {i for i, s in zip(ids, launches) if s <= t}
                for ranks, cand in zip(catalog._launched(t), cands):
                    assert ranks.tolist() == np.sort(catalog._indices(cand & visible)).tolist()


class _Uniform:
    """rng stub yielding one fixed value forever."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestSampling:
    def test_empirical_frequencies_match_closed_form(self):
        """200k seeded draws agree with the marginal law within 4 sigma."""
        catalog = Catalog(
            (Product("a", 1.0, 0.3), Product("b", 1.0, 0.6), Product("c", 1.0, 0.2))
        )
        offer = TieredOffer.two_tier(["a", "b"], ["c"])
        dist = purchase_probabilities(offer, catalog)
        sampler = ChoiceSampler(offer, catalog)
        rng = BufferedRandom(np.random.default_rng(31))
        n = 200_000
        counts = {"a": 0, "b": 0, "c": 0, None: 0}
        for _ in range(n):
            counts[sampler.sample(rng).product] += 1
        for i in ("a", "b", "c"):
            p = dist.probability(i)
            tol = 4.0 * math.sqrt(p * (1 - p) / n)
            assert counts[i] / n == pytest.approx(p, abs=tol)
        assert counts[None] / n == pytest.approx(
            dist.no_purchase, abs=4.0 * math.sqrt(dist.no_purchase / n)
        )

    def test_buffered_stream_matches_scalar_draws(self):
        # crosses two block refills
        buffered = BufferedRandom(np.random.default_rng(7))
        scalar = np.random.default_rng(7)
        for _ in range(10_000):
            assert buffered.random() == scalar.random()

    def test_zero_weight_product_never_chosen(self):
        catalog = Catalog((Product("a", 1.0, 0.0), Product("b", 1.0, 0.9)))
        offer = TieredOffer.two_tier(["a", "b"], [])
        assert purchase_probabilities(offer, catalog).probability("a") == 0.0
        rng = BufferedRandom(np.random.default_rng(41))
        sampler = ChoiceSampler(offer, catalog)
        assert all(sampler.sample(rng).product != "a" for _ in range(5000))

    @staticmethod
    def linear_scan(sampler, rng):
        """The sampler's walk before bisection: the first cumulative edge
        above u - 1, else the tier's last product."""
        for k, (ids, cum, denom) in enumerate(sampler._tiers):
            u = rng.random() * denom
            if u < 1.0:
                continue
            x = u - 1.0
            for j, edge in enumerate(cum):
                if x < edge:
                    return ChoiceOutcome(ids[j], k)
            return ChoiceOutcome(ids[-1], k)
        return NO_PURCHASE

    def test_bisection_matches_the_linear_scan(self):
        """Random offers with zero-weight products, 2,000 draws each, the
        two samplers fed the same uniforms."""
        rng = np.random.default_rng(20191019)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            weights = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0, 1, n))
            catalog = Catalog(
                tuple(Product(f"p{k}", 1.0, float(weights[k])) for k in range(n))
            )
            offer = random_offer(catalog, rng)
            sampler = ChoiceSampler(offer, catalog)
            seed = int(rng.integers(1 << 30))
            mine, scan = (BufferedRandom(np.random.default_rng(seed)) for _ in range(2))
            for _ in range(2000):
                assert sampler.sample(mine) == self.linear_scan(sampler, scan)

    def test_draws_on_a_cumulative_edge(self):
        """Dyadic weights put u - 1 exactly on each edge (a zero-weight
        product repeats one); both walks take the product above it."""
        catalog = Catalog(
            (Product("a", 1.0, 0.25), Product("b", 1.0, 0.0), Product("c", 1.0, 0.5),
             Product("d", 1.0, 0.25))
        )
        sampler = ChoiceSampler(TieredOffer.two_tier(["a", "b", "c", "d"], []), catalog)
        assert sampler._tiers[0][1] == [0.25, 0.25, 0.75, 1.0]
        for x, want in ((0.0, "a"), (0.25, "c"), (0.75, "d"), (1.0 - 2**-53, "d")):
            coin = _Uniform((1.0 + x) / 2.0)  # denom 2.0, so u - 1 == x exactly
            got = sampler.sample(coin)
            assert got == self.linear_scan(sampler, coin) == ChoiceOutcome(want, 0)
        # u == denom, which rounding of random() * denom can give, takes the last product
        assert sampler.sample(_Uniform(1.0)) == self.linear_scan(sampler, _Uniform(1.0))
        assert sampler.sample(_Uniform(1.0)) == ChoiceOutcome("d", 0)

    def test_outcome_fields(self):
        assert not NO_PURCHASE.is_purchase
        assert NO_PURCHASE.product is None
        hit = ChoiceOutcome("a", 1)
        assert hit.is_purchase and hit.tier == 1


class TestCatalogSerialization:
    def test_round_trip_preserves_everything(self):
        catalog = Catalog(
            (
                Product("a", 1.5, 0.25, launch_time=3),
                Product("b", 2.0, 0.75),
            ),
            candidates_tier1=["a"],
            candidates_tier2=["a", "b"],
        )
        clone = catalog_from_dict(catalog_to_dict(catalog))
        assert clone.products == catalog.products
        assert clone.candidates_tier1 == catalog.candidates_tier1
        assert clone.candidates_tier2 == catalog.candidates_tier2

    def test_file_round_trip(self, tmp_path):
        catalog = two_product_catalog()
        path = tmp_path / "cat.json"
        save_catalog(catalog, path)
        assert load_catalog(path).products == catalog.products

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidCatalogError):
            catalog_from_dict({"products": [], "extra": 1})
        with pytest.raises(InvalidCatalogError):
            catalog_from_dict(
                {"products": [{"id": 1, "profit": 1, "valuation": 0.5, "color": "red"}]}
            )

    @pytest.mark.parametrize(
        "key, value", [("products", 5), ("candidates_tier1", 5), ("candidates_tier2", [[1]])]
    )
    def test_malformed_structure_rejected(self, key, value):
        data = {"products": [{"id": 1, "profit": 1.0, "valuation": 0.5}], key: value}
        with pytest.raises(InvalidCatalogError, match=key):
            catalog_from_dict(data)

    @pytest.mark.parametrize("key", ["candidates_tier1", "candidates_tier2"])
    def test_bool_candidate_ids_rejected(self, key):
        data = {"products": [{"id": 1, "profit": 1.0, "valuation": 0.5}], key: [True]}
        with pytest.raises(InvalidCatalogError, match=key):
            catalog_from_dict(data)

    def test_ids_with_one_str_rejected(self):
        products = [{"id": i, "profit": 1.0, "valuation": 0.5} for i in ("1", "a", 1)]
        with pytest.raises(InvalidCatalogError, match="ids '1' and 1 have one str"):
            catalog_from_dict({"products": products})

    @pytest.mark.parametrize("bad", ["", "x|y", "a\rb"])
    def test_ids_a_trace_cell_cannot_carry_rejected(self, bad):
        products = [{"id": i, "profit": 1.0, "valuation": 0.5} for i in (1, bad)]
        with pytest.raises(InvalidCatalogError, match=re.escape(f"product id {bad!r}")):
            catalog_from_dict({"products": products})

    def test_missing_fields_named(self):
        with pytest.raises(InvalidCatalogError, match="valuation"):
            catalog_from_dict({"products": [{"id": 1, "profit": 1.0}]})

    def test_non_numeric_field_named(self):
        with pytest.raises(InvalidCatalogError, match="product 1"):
            catalog_from_dict(
                {"products": [{"id": 1, "profit": "ten", "valuation": 0.5}]}
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("launch_time", 2.7),
            ("launch_time", "3"),
            ("launch_time", True),
            ("profit", "2"),
            ("profit", True),
            ("valuation", "0.5"),
        ],
    )
    def test_numbers_checked_not_coerced(self, key, value):
        entry = {"id": 1, "profit": 1.0, "valuation": 0.5}
        entry[key] = value
        with pytest.raises(InvalidCatalogError, match=key):
            catalog_from_dict({"products": [entry]})

    def test_integer_profit_stored_as_float(self):
        data = {"products": [{"id": 1, "profit": 2, "valuation": 1, "launch_time": 0}]}
        out = catalog_to_dict(catalog_from_dict(data))["products"][0]
        assert json.dumps(out) == '{"id": 1, "profit": 2.0, "valuation": 1.0, "launch_time": 0}'

    def test_infinite_profit_rejected(self, tmp_path):
        with pytest.raises(InvalidCatalogError, match="product 1"):
            catalog_from_dict(
                {"products": [{"id": 1, "profit": float("inf"), "valuation": 0.5}]}
            )
        # json reads the bare token Infinity as a float
        path = tmp_path / "inf.json"
        path.write_text('{"products": [{"id": 1, "profit": Infinity, "valuation": 0.5}]}')
        with pytest.raises(InvalidCatalogError, match="finite"):
            load_catalog(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidCatalogError):
            load_catalog(path)

    def test_packaged_example_catalog(self):
        from tieredmnl.verify import EXAMPLE_CATALOG

        catalog = load_catalog(EXAMPLE_CATALOG)
        assert {p.id for p in catalog.products} == {1, 2}
        data = json.loads(EXAMPLE_CATALOG.read_text())
        assert len(data["products"]) == 2
