"""Sequential multinomial-logit choice over tiered product offers.

A customer walks the tiers in display order.  Within tier k with products
S_k she makes an MNL choice between the tier's products and the outside
option: product i is taken with probability v_i / (1 + sum_{j in S_k} v_j),
and with probability 1 / (1 + sum v_j) nothing in the tier is taken and the
customer moves on to tier k+1.  A no-purchase at the last tier ends with no
sale.  Marginally, a product in tier k is bought with probability

    p_i = [prod_{m<k} 1/(1 + sum_{j in S_m} v_j)] * v_i / (1 + sum_{j in S_k} v_j)

and the expected profit of an offer is sum_i r_i * p_i.  Everything here is
an exact closed form; ``sample_choice`` draws outcomes whose distribution
matches ``purchase_probabilities`` exactly.

Determinism comes from fixed orders, never from set iteration order.  Each
``Catalog`` gives its products dense indices once, in the canonical order
(profit descending, then ascending ``str(id)``); the optimizer and the
policies gather per-product arrays in that order.  The closed forms below
sum each tier in ascending ``str(id)`` order.  Repeated runs, and runs in
separate processes, are therefore bit-identical.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidCatalogError, InvalidOfferError, UnknownProductError

ProductId = int | str


def sorted_ids(ids: Iterable[ProductId]) -> list[ProductId]:
    """Deterministic iteration order for id collections."""
    return sorted(ids, key=str)


@dataclass(frozen=True)
class Product:
    """One sellable item: per-sale profit and latent preference weight.

    The preference weight (valuation) is the MNL attraction value relative
    to the outside option's weight of 1.  The learning guarantees assume
    weights strictly below 1; the closed forms are well defined up to and
    including 1, so the bound here is inclusive.
    """

    id: ProductId
    profit: float
    valuation: float
    launch_time: int = 0

    def __post_init__(self):
        if not isinstance(self.id, (int, str)) or isinstance(self.id, bool):
            raise InvalidCatalogError(f"product id must be int or str, got {self.id!r}")
        if not (self.profit >= 0.0 and math.isfinite(self.profit)):
            raise InvalidCatalogError(
                f"product {self.id!r}: profit must be finite and >= 0, got {self.profit!r}"
            )
        if not 0.0 <= self.valuation <= 1.0:
            raise InvalidCatalogError(
                f"product {self.id!r}: valuation must lie in [0, 1], got {self.valuation!r}"
            )
        if not (isinstance(self.launch_time, int) and self.launch_time >= 0):
            raise InvalidCatalogError(
                f"product {self.id!r}: launch_time must be a non-negative int, "
                f"got {self.launch_time!r}"
            )


@dataclass
class Catalog:
    """The product universe plus per-tier candidate sets.

    ``candidates_tier1`` / ``candidates_tier2`` list which products may be
    *selected* into each tier by an optimizer; they may overlap.  ``None``
    means every product is a candidate for that tier.

    Construction fixes the canonical order (profit descending, then
    ``str(id)``), each id's rank in it, the profit and valuation arrays in
    that order, and the launch schedule behind ``visible_at``.  These caches
    are never refreshed, so an instance must not be mutated after
    construction.
    """

    products: tuple[Product, ...]
    candidates_tier1: frozenset[ProductId] = None
    candidates_tier2: frozenset[ProductId] = None
    _by_id: dict = field(init=False, repr=False, compare=False)
    _ids: frozenset = field(init=False, repr=False, compare=False)
    _rank: dict = field(init=False, repr=False, compare=False)
    _profits: np.ndarray = field(init=False, repr=False, compare=False)
    _valuations: np.ndarray = field(init=False, repr=False, compare=False)
    _launch_times: list = field(init=False, repr=False, compare=False)
    _by_launch: tuple = field(init=False, repr=False, compare=False)
    _launch_sets: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.products = tuple(self.products)
        self._by_id = {}
        for p in self.products:
            if p.id in self._by_id:
                raise InvalidCatalogError(f"duplicate product id {p.id!r}")
            self._by_id[p.id] = p
        self._ids = all_ids = frozenset(self._by_id)
        for attr in ("candidates_tier1", "candidates_tier2"):
            raw = getattr(self, attr)
            cand = all_ids if raw is None else frozenset(raw)
            unknown = cand - all_ids
            if unknown:
                raise InvalidCatalogError(
                    f"{attr} references unknown product id "
                    f"{sorted_ids(unknown)[0]!r}"
                )
            setattr(self, attr, cand)
        ranked = sorted(self.products, key=lambda p: (-p.profit, str(p.id)))
        self._rank = {p.id: k for k, p in enumerate(ranked)}
        self._profits = np.array([p.profit for p in ranked], dtype=float)
        self._valuations = np.array([p.valuation for p in ranked], dtype=float)
        launched = sorted(self.products, key=lambda p: p.launch_time)
        self._launch_times = [p.launch_time for p in launched]
        self._by_launch = tuple(p.id for p in launched)
        self._launch_sets = {}

    @property
    def ids(self) -> frozenset[ProductId]:
        return self._ids

    def __contains__(self, product_id) -> bool:
        return product_id in self._by_id

    def product(self, product_id) -> Product:
        try:
            return self._by_id[product_id]
        except KeyError:
            raise UnknownProductError(product_id) from None

    def profit_of(self, product_id) -> float:
        return self.product(product_id).profit

    def valuation_of(self, product_id) -> float:
        return self.product(product_id).valuation

    def visible_at(self, t: int) -> frozenset[ProductId]:
        """Products launched on or before time step t.

        There is one set per distinct launch time, built on first request
        and returned as the same object afterwards.
        """
        count = bisect.bisect_right(self._launch_times, t)
        visible = self._launch_sets.get(count)
        if visible is None:
            visible = self._launch_sets[count] = frozenset(self._by_launch[:count])
        return visible

    def _indices(self, ids: Iterable[ProductId]) -> np.ndarray:
        """Canonical ranks of ``ids``, in the order given."""
        try:
            return np.fromiter(map(self._rank.__getitem__, ids), dtype=np.intp)
        except KeyError as exc:
            raise UnknownProductError(exc.args[0]) from None


@dataclass(frozen=True)
class TieredOffer:
    """An ordered tuple of pairwise-disjoint product sets, one per tier."""

    tiers: tuple[frozenset[ProductId], ...]

    def __post_init__(self):
        tiers = tuple(frozenset(t) for t in self.tiers)
        object.__setattr__(self, "tiers", tiers)
        seen = set()
        for t in tiers:
            overlap = seen & t
            if overlap:
                raise InvalidOfferError(
                    f"product {sorted_ids(overlap)[0]!r} appears in more than one tier"
                )
            seen |= t

    @classmethod
    def two_tier(cls, tier1: Iterable[ProductId] = (), tier2: Iterable[ProductId] = ()):
        return cls((frozenset(tier1), frozenset(tier2)))

    @classmethod
    def empty(cls, num_tiers: int = 2):
        return cls(tuple(frozenset() for _ in range(num_tiers)))

    def tier(self, k: int) -> frozenset[ProductId]:
        return self.tiers[k] if k < len(self.tiers) else frozenset()

    @property
    def tier1(self) -> frozenset[ProductId]:
        return self.tier(0)

    @property
    def tier2(self) -> frozenset[ProductId]:
        return self.tier(1)

    @property
    def all_ids(self) -> frozenset[ProductId]:
        out = frozenset()
        for t in self.tiers:
            out |= t
        return out

    @property
    def is_empty(self) -> bool:
        return all(not t for t in self.tiers)


@dataclass(frozen=True)
class ChoiceOutcome:
    """What one customer did: a purchase (product, 0-based tier) or nothing."""

    product: ProductId | None = None
    tier: int | None = None

    def __post_init__(self):
        if (self.product is None) != (self.tier is None):
            raise InvalidOfferError("purchase outcomes need both a product and a tier")

    @property
    def is_purchase(self) -> bool:
        return self.product is not None


NO_PURCHASE = ChoiceOutcome()


@dataclass(frozen=True)
class ChoiceDistribution:
    """Marginal outcome distribution of an offer.

    ``tier_no_purchase[k]`` is the conditional probability 1/(1 + sum v)
    that a customer who reaches tier k leaves it without buying.
    """

    purchase: dict[ProductId, float]
    no_purchase: float
    tier_no_purchase: tuple[float, ...]

    def probability(self, product_id) -> float:
        return self.purchase.get(product_id, 0.0)


def _weight(catalog: Catalog, valuations, product_id) -> float:
    try:
        product = catalog._by_id[product_id]  # membership check even when overridden
    except KeyError:
        raise UnknownProductError(product_id) from None
    if valuations is None:
        return product.valuation
    try:
        w = valuations[product_id]
    except KeyError:
        raise UnknownProductError(product_id, "no valuation override supplied") from None
    if not 0.0 <= w < math.inf:
        raise InvalidOfferError(
            f"valuation for {product_id!r} must be finite and >= 0, got {w!r}"
        )
    return w


def total_weight(ids: Iterable[ProductId], catalog: Catalog, valuations=None) -> float:
    """Sum of preference weights over ``ids``, in deterministic order."""
    return sum(_weight(catalog, valuations, i) for i in sorted_ids(ids))


def purchase_probabilities(
    offer: TieredOffer, catalog: Catalog, valuations: Mapping | None = None
) -> ChoiceDistribution:
    """Exact marginal purchase probabilities, including the no-purchase mass."""
    probs: dict[ProductId, float] = {}
    reach = 1.0
    tier_np = []
    for tier in offer.tiers:
        ids = sorted_ids(tier)
        weights = [_weight(catalog, valuations, i) for i in ids]
        denom = 1.0 + sum(weights)
        for i, w in zip(ids, weights):
            probs[i] = reach * w / denom
        tier_np.append(1.0 / denom)
        reach /= denom
    return ChoiceDistribution(probs, reach, tuple(tier_np))


def expected_profit(
    offer: TieredOffer, catalog: Catalog, valuations: Mapping | None = None
) -> float:
    """Expected per-customer profit sum_i r_i * p_i of a tiered offer."""
    total = 0.0
    reach = 1.0
    by_id = catalog._by_id
    for tier in offer.tiers:
        sum_w = 0.0
        sum_rw = 0.0
        for i in sorted_ids(tier):
            w = _weight(catalog, valuations, i)
            sum_w += w
            sum_rw += by_id[i].profit * w
        denom = 1.0 + sum_w
        total += reach * sum_rw / denom
        reach /= denom
    return total


def expected_profit_single_tier(
    tier: Iterable[ProductId], catalog: Catalog, valuations: Mapping | None = None
) -> float:
    """Expected profit of showing ``tier`` on its own: sum r_i v_i / (1 + sum v_j)."""
    return expected_profit(TieredOffer((frozenset(tier),)), catalog, valuations)


class ChoiceSampler:
    """Prepared sampler for a fixed offer.

    Splits [0, 1 + sum v) per tier into the no-purchase slab [0, 1) and one
    interval per product, walked in id-sorted order; zero-weight products get
    zero-width intervals and are never selected.  ``rng`` needs only a
    ``random()`` method returning floats in [0, 1).
    """

    __slots__ = ("offer", "_tiers")

    def __init__(self, offer: TieredOffer, catalog: Catalog, valuations=None):
        self.offer = offer
        self._tiers = []
        for tier in offer.tiers:
            ids = sorted_ids(tier)
            cum = []
            acc = 0.0
            for i in ids:
                acc += _weight(catalog, valuations, i)
                cum.append(acc)
            self._tiers.append((ids, cum, 1.0 + acc))

    def sample(self, rng) -> ChoiceOutcome:
        for k, (ids, cum, denom) in enumerate(self._tiers):
            u = rng.random() * denom
            if u < 1.0:
                continue
            x = u - 1.0
            for j, edge in enumerate(cum):
                if x < edge:
                    return ChoiceOutcome(ids[j], k)
            return ChoiceOutcome(ids[-1], k)  # u==denom up to rounding
        return NO_PURCHASE


def sample_choice(
    offer: TieredOffer, catalog: Catalog, rng, valuations: Mapping | None = None
) -> ChoiceOutcome:
    """Draw one customer outcome for ``offer``."""
    return ChoiceSampler(offer, catalog, valuations).sample(rng)


# --- catalog (de)serialization ------------------------------------------------

_PRODUCT_KEYS = {"id", "profit", "valuation", "launch_time"}
_CATALOG_KEYS = {"products", "candidates_tier1", "candidates_tier2"}


def catalog_to_dict(catalog: Catalog) -> dict:
    return {
        "products": [
            {
                "id": p.id,
                "profit": p.profit,
                "valuation": p.valuation,
                "launch_time": p.launch_time,
            }
            for p in catalog.products
        ],
        "candidates_tier1": sorted_ids(catalog.candidates_tier1),
        "candidates_tier2": sorted_ids(catalog.candidates_tier2),
    }


def _id_set(data: dict, key: str) -> frozenset | None:
    """A catalog document's candidate list as a set (None when absent)."""
    if key not in data:
        return None
    ids = data[key]
    if not (isinstance(ids, list) and all(isinstance(i, (int, str)) for i in ids)):
        raise InvalidCatalogError(f"catalog {key!r} must be a list of product ids, got {ids!r}")
    return frozenset(ids)


def catalog_from_dict(data: dict) -> Catalog:
    if not isinstance(data, dict):
        raise InvalidCatalogError("catalog document must be a JSON object")
    unknown = set(data) - _CATALOG_KEYS
    if unknown:
        raise InvalidCatalogError(f"unknown catalog key {sorted(unknown)[0]!r}")
    if "products" not in data:
        raise InvalidCatalogError("catalog document is missing 'products'")
    if not isinstance(data["products"], list):
        raise InvalidCatalogError("catalog 'products' must be a list")
    products = []
    for entry in data["products"]:
        if not isinstance(entry, dict):
            raise InvalidCatalogError("each product must be a JSON object")
        bad = set(entry) - _PRODUCT_KEYS
        if bad:
            raise InvalidCatalogError(f"unknown product key {sorted(bad)[0]!r}")
        missing = {"id", "profit", "valuation"} - set(entry)
        if missing:
            raise InvalidCatalogError(
                f"product entry is missing {sorted(missing)[0]!r}"
            )
        try:
            products.append(
                Product(
                    id=entry["id"],
                    profit=float(entry["profit"]),
                    valuation=float(entry["valuation"]),
                    launch_time=int(entry.get("launch_time", 0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise InvalidCatalogError(
                f"product {entry['id']!r}: {exc}"
            ) from exc
    return Catalog(
        tuple(products), _id_set(data, "candidates_tier1"), _id_set(data, "candidates_tier2")
    )


def load_catalog(path) -> Catalog:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidCatalogError(f"{path}: not valid JSON ({exc})") from exc
    return catalog_from_dict(data)


def save_catalog(catalog: Catalog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(catalog_to_dict(catalog), fh, indent=2, sort_keys=True)
        fh.write("\n")
