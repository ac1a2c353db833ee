"""Sequential multinomial-logit choice over tiered product offers.

A customer walks the tiers in display order.  Within tier k with products
S_k she makes an MNL choice between the tier's products and the outside
option: product i is taken with probability v_i / (1 + sum_{j in S_k} v_j),
and with probability 1 / (1 + sum v_j) nothing in the tier is taken and the
customer moves on to tier k+1.  A no-purchase at the last tier ends with no
sale.  Marginally, a product in tier k is bought with probability

    p_i = [prod_{m<k} 1/(1 + sum_{j in S_m} v_j)] * v_i / (1 + sum_{j in S_k} v_j)

and the expected profit of an offer is sum_i r_i * p_i.  Everything here is
an exact closed form; ``ChoiceSampler`` draws outcomes whose distribution
matches ``purchase_probabilities`` exactly.

Determinism comes from fixed orders, never from set iteration order.  Each
``Catalog`` gives its products dense indices once, in the canonical order
(profit descending, then ascending ``str(id)``); the optimizer and the
policies gather per-product arrays in that order.  Every price, sample and
solve reads weights by rank from one vector, the catalog's or the one
``_weight_vector`` builds from a caller's overrides, and ``_gather``
checks the weights it reads once.  The closed forms read each tier in
ascending ``str(id)`` order and add it with ``_tier_sums``, left to right
from 0.0 as the solvers' running sums do, never with ``sum()``, which
compensates its additions from Python 3.12 on.  Repeated runs, and runs in
separate processes, are therefore bit-identical.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields
from itertools import accumulate, chain
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidCatalogError, InvalidOfferError, TieredMnlError, UnknownProductError

ProductId = int | str


def sorted_ids(ids: Iterable[ProductId]) -> list[ProductId]:
    """Deterministic iteration order for id collections."""
    return sorted(ids, key=str)


def _finite(value, error: type[TieredMnlError], what: str) -> float:
    """``value`` as a finite float; ``error`` naming ``what`` for a bool, a
    non-number, NaN, an infinity or an int beyond the float range."""
    try:
        if isinstance(value, numbers.Real) and type(value) is not bool and math.isfinite(value):
            return float(value)
    except OverflowError:  # math.isfinite converts an int to a float
        pass
    raise error(f"{what} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class Product:
    """One sellable item: per-sale profit and latent preference weight.

    The preference weight (valuation) is the MNL attraction value relative
    to the outside option's weight of 1.  The learning guarantees assume
    weights strictly below 1; the closed forms are well defined up to and
    including 1, so the bound here is inclusive.  Profit and valuation take
    any real number but a bool and are stored as float; launch_time takes
    an int.  Nothing else is coerced.
    """

    id: ProductId
    profit: float
    valuation: float
    launch_time: int = 0

    def __post_init__(self):
        if not isinstance(self.id, (int, str)) or isinstance(self.id, bool):
            raise InvalidCatalogError(f"product id must be int or str, got {self.id!r}")
        if type(self.id) is str:  # catalogs rebuilt from the same ids share one string each
            object.__setattr__(self, "id", sys.intern(self.id))
        if type(self.profit) is not float or type(self.valuation) is not float:
            for name in ("profit", "valuation"):
                what = f"product {self.id!r}: {name}"
                object.__setattr__(self, name, _finite(getattr(self, name), InvalidCatalogError, what))
        if not (self.profit >= 0.0 and math.isfinite(self.profit)):
            raise InvalidCatalogError(
                f"product {self.id!r}: profit must be finite and >= 0, got {self.profit!r}"
            )
        if not 0.0 <= self.valuation <= 1.0:
            raise InvalidCatalogError(
                f"product {self.id!r}: valuation must lie in [0, 1], got {self.valuation!r}"
            )
        if type(self.launch_time) is not int or self.launch_time < 0:
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
    ``str(id)``), each id's rank in it, the products and the profit and
    valuation arrays in that order, and the launch schedule behind
    ``visible_at``.  These caches are never refreshed, so an instance must
    not be mutated after construction.
    """

    products: tuple[Product, ...]
    candidates_tier1: frozenset[ProductId] = None
    candidates_tier2: frozenset[ProductId] = None
    _ids: frozenset = field(init=False, repr=False, compare=False)
    _rank: dict = field(init=False, repr=False, compare=False)
    _ranked: tuple = field(init=False, repr=False, compare=False)
    _profits: np.ndarray = field(init=False, repr=False, compare=False)
    _valuations: np.ndarray = field(init=False, repr=False, compare=False)
    _launch_times: list = field(init=False, repr=False, compare=False)
    _by_launch: tuple = field(init=False, repr=False, compare=False)
    _launch_sets: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.products = tuple(self.products)
        self._ids = all_ids = frozenset(p.id for p in self.products)
        names = {str(i) for i in all_ids}
        if len(names) < len(self.products):  # ids break ties on str()
            seen: dict[str, ProductId] = {}  # each str() to the first id that had it
            b = next(p.id for p in self.products if str(p.id) in seen or seen.update({str(p.id): p.id}))
            a = seen[str(b)]
            clash = f"duplicate product id {a!r}" if a == b else f"product ids {a!r} and {b!r} have one str()"
            raise InvalidCatalogError(clash)
        if "" in names or "|" in "".join(names):  # a trace cell joins a tier's ids with "|"
            bad = next(p.id for p in self.products if str(p.id) == "" or "|" in str(p.id))
            raise InvalidCatalogError(f"product id {bad!r} is empty or holds '|', the trace's id separator")
        for attr in ("candidates_tier1", "candidates_tier2"):
            raw = getattr(self, attr)
            ids = () if raw is None else tuple(raw)
            if any(isinstance(i, bool) for i in ids):  # True and False alias ids 1 and 0
                raise InvalidCatalogError(f"{attr} lists a bool, which is not a product id")
            cand = all_ids if raw is None else frozenset(ids)
            unknown = cand - all_ids
            if unknown:
                raise InvalidCatalogError(
                    f"{attr} references unknown product id "
                    f"{sorted_ids(unknown)[0]!r}"
                )
            setattr(self, attr, cand)
        self._ranked = ranked = tuple(sorted(self.products, key=lambda p: (-p.profit, str(p.id))))
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
        return product_id in self._rank

    def product(self, product_id) -> Product:
        try:
            return self._ranked[self._rank[product_id]]
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


def _weight_vector(catalog: Catalog, valuations, *orders) -> np.ndarray:
    """Preference weights indexed by catalog rank: the catalog's own, or
    the ``valuations`` overrides of the ids in ``orders`` (NaN elsewhere),
    each read once and stored as a float for ``_gather`` to check.
    InvalidOfferError names an override that is a bool, not a real number
    or an int beyond the float range."""
    if valuations is None:
        return catalog._valuations
    needed = dict.fromkeys(chain.from_iterable(orders))
    w = np.full(len(catalog._valuations), math.nan)
    w[catalog._indices(needed)] = [_override(valuations, i) for i in needed]
    return w


def _override(valuations: Mapping, product_id) -> float:
    try:
        x = valuations[product_id]
        if isinstance(x, numbers.Real) and type(x) is not bool:
            return float(x)
    except KeyError:
        raise UnknownProductError(product_id, "no valuation override supplied") from None
    except OverflowError:  # an int beyond the float range
        pass
    raise InvalidOfferError(f"valuation for {product_id!r} must be a finite real number, got {x!r}")


def _gather(w: np.ndarray, ranks, ids) -> list:
    """``w[ranks]`` as a list of floats, named by ``ids`` position for
    position; InvalidOfferError unless every weight is finite and >= 0."""
    v = w[ranks].tolist()
    if not (sum(v) < math.inf and min(v, default=0.0) >= 0.0):  # a NaN or +inf fails the sum
        for i, x in zip(ids, v):  # names the first bad weight; finite ones can overflow the sum
            if not 0.0 <= x < math.inf:
                raise InvalidOfferError(f"valuation for {i!r} must be finite and >= 0, got {x!r}")
    return v


def _tier_lists(tiers: Iterable[Iterable[ProductId]], catalog: Catalog, valuations=None) -> list:
    """(ids, profits, weights) of each of ``tiers``: its ids in ``str(id)``
    order, and the profits and ``_gather``-checked ``_weight_vector``
    weights read at their catalog ranks."""
    ids = [sorted_ids(tier) for tier in tiers]
    w = _weight_vector(catalog, valuations, *ids)
    ranks = [catalog._indices(tier) for tier in ids]
    return [(t, catalog._profits[k].tolist(), _gather(w, k, t)) for t, k in zip(ids, ranks)]


def _tier_sums(r, w) -> tuple[float, float]:
    """(sum w, sum r w), each added left to right from 0.0."""
    sum_w = sum_rw = 0.0
    for r_i, w_i in zip(r, w):
        sum_w, sum_rw = sum_w + w_i, sum_rw + r_i * w_i
    return sum_w, sum_rw


def total_weight(ids: Iterable[ProductId], catalog: Catalog, valuations=None) -> float:
    """Sum of preference weights over ``ids``, in deterministic order."""
    (_, r, w), = _tier_lists([ids], catalog, valuations)
    return _tier_sums(r, w)[0]


def purchase_probabilities(
    offer: TieredOffer, catalog: Catalog, valuations: Mapping | None = None
) -> ChoiceDistribution:
    """Exact marginal purchase probabilities, including the no-purchase mass."""
    probs: dict[ProductId, float] = {}
    reach = 1.0
    tier_np = []
    for ids, r, w in _tier_lists(offer.tiers, catalog, valuations):
        denom = 1.0 + _tier_sums(r, w)[0]
        for i, w_i in zip(ids, w):
            probs[i] = reach * w_i / denom
        tier_np.append(1.0 / denom)
        reach /= denom
    return ChoiceDistribution(probs, reach, tuple(tier_np))


def expected_profit(
    offer: TieredOffer, catalog: Catalog, valuations: Mapping | None = None
) -> float:
    """Expected per-customer profit sum_i r_i * p_i of a tiered offer."""
    total = 0.0
    reach = 1.0
    for _, r, w in _tier_lists(offer.tiers, catalog, valuations):
        sum_w, sum_rw = _tier_sums(r, w)
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
    interval per product in id-sorted order, found by bisection; zero-weight
    products get zero-width intervals and are never selected.  ``rng`` needs
    only a ``random()`` method returning floats in [0, 1).
    """

    __slots__ = ("_tiers",)

    def __init__(self, offer: TieredOffer, catalog: Catalog):
        self._tiers = [
            (ids, list(accumulate(w)), 1.0 + _tier_sums(r, w)[0])
            for ids, r, w in _tier_lists(offer.tiers, catalog)
        ]

    def sample(self, rng) -> ChoiceOutcome:
        for k, (ids, cum, denom) in enumerate(self._tiers):
            u = rng.random() * denom
            if u < 1.0:
                continue
            j = bisect.bisect_right(cum, u - 1.0)  # past the last edge only by rounding
            return ChoiceOutcome(ids[min(j, len(ids) - 1)], k)
        return NO_PURCHASE


# --- documents: catalog (de)serialization and the shared JSON helpers --------
# A document object's keys are the init fields of the dataclass it builds.


def _check_document(entry, cls, what: str, error: type[TieredMnlError], defaults=()) -> None:
    """Reject a document object ``entry`` for a ``cls`` that is not an
    object, has a key that is not an init field of ``cls``, or lacks a field
    that has no default (nor a document default named in ``defaults``)."""
    if not isinstance(entry, dict):
        raise error(f"{what} must be a JSON object, got {type(entry).__name__}")
    names = [f for f in fields(cls) if f.init]
    unknown = set(entry) - {f.name for f in names}
    if unknown:
        raise error(f"unknown {what} key {min(unknown, key=str)!r}")
    for f in names:
        required = f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in entry and f.name not in defaults:
            raise error(f"{what} is missing {f.name!r}")


def _read_json(path, error: type[TieredMnlError]):
    """The JSON document in the UTF-8 file ``path``; ``error`` naming the
    path for a file that is not UTF-8, not JSON or nested too deeply."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path} is not valid JSON: {exc}") from exc


def _write_json(document, path) -> None:
    """Write ``document`` to ``path`` as indented JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def catalog_to_dict(catalog: Catalog) -> dict:
    return {
        "products": [{f.name: getattr(p, f.name) for f in fields(p)} for p in catalog.products],
        "candidates_tier1": sorted_ids(catalog.candidates_tier1),
        "candidates_tier2": sorted_ids(catalog.candidates_tier2),
    }


def _id_list(data: dict, key: str) -> list | None:
    """A catalog document's candidate list (None when absent)."""
    if key not in data:
        return None
    ids = data[key]
    if not (isinstance(ids, list) and all(isinstance(i, (int, str)) for i in ids)):
        raise InvalidCatalogError(f"catalog {key!r} must be a list of product ids, got {ids!r}")
    return ids


def catalog_from_dict(data: dict) -> Catalog:
    _check_document(data, Catalog, "catalog", InvalidCatalogError)
    if not isinstance(data["products"], list):
        raise InvalidCatalogError("catalog 'products' must be a list")
    for entry in data["products"]:
        _check_document(entry, Product, "product", InvalidCatalogError)
    return Catalog(
        tuple(Product(**entry) for entry in data["products"]),
        _id_list(data, "candidates_tier1"),
        _id_list(data, "candidates_tier2"),
    )


def load_catalog(path) -> Catalog:
    return catalog_from_dict(_read_json(path, InvalidCatalogError))


def save_catalog(catalog: Catalog, path) -> None:
    _write_json(catalog_to_dict(catalog), path)
