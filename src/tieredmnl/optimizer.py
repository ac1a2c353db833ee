"""Exact profit maximization over tiered offers.

The search walks a structured family of offers instead of all subsets:

* Seed family: tier 1 takes a profit-descending prefix order1[:a] of X1,
  tier 2 a prefix order2[:p] of X2 minus what tier 1 took.  With disjoint
  candidate sets this family provably contains an optimum (any product
  whose profit beats the offer's continuation value belongs in, anything
  below belongs out).  ``_sweep`` finds the best pair in one sweep over a
  with O(n) memory, on profit and weight arrays already gathered in profit
  order: ``_solve_prefix_pairs`` gathers them for ``solve_two_tier``, and
  the UCB policy gathers them from its valuation vector.  Likewise
  ``_tier1_prefix`` serves both ``solve_tier1_given_tier2`` and the
  policy's tier-1 re-solves.

  - For a fixed a, the tier-2 value along p is unimodal: adding the next
    product raises it while that product's profit beats the current value,
    and once it does not, no later (cheaper) product can raise it again.
  - Taking one more product into tier 1 only shrinks tier 2's choice, so
    its best value can only fall and every product kept in tier 2 still
    beats it: the first best end position never moves left.  The pointer
    p therefore climbs from where the last row left it and stops at the
    first strict drop; equal values are climbed through.  Products tier 1
    took and zero weights leave the value unchanged and are stepped over.
  - Once the next tier-1 product earns no more than the best value so far,
    every later row is a weighted average of an offer already beaten and
    that profit, so the sweep stops.
  - Ties go to the first maximum in (a, p) order, kept by strict
    improvement.  Each pair is priced from prefix sums, so the shared and
    disjoint cases price exactly what an (n+1) x (n+1) window matrix would.
* Completion: when the candidate sets overlap, a shared product can be
  worth *demoting* to tier 2 even though a lower-profit product stays in
  tier 1, so prefix pairs alone can leave a gap.  What survives of the
  prefix structure: tier 2 is still a prefix of its available candidates,
  the tier-1 exclusives are still a prefix of X1\\X2, and every tier-1
  product earns at least the optimal value.  The completion therefore
  enumerates every subset of F = {shared products with profit above the
  seed maximum} as the shared part of tier 1 — exact, but exponential in
  |F|, so it is guarded by a work cap and skippable via ``exact=False``.

``brute_force_optimal`` enumerates every assignment outright (any number of
tiers) and serves as the reference oracle for the structured search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InstanceTooLargeError, InvalidOfferError, UnknownProductError
from .model import Catalog, TieredOffer, _weight, expected_profit, sorted_ids


def profit_order(ids: Iterable, catalog: Catalog) -> list:
    """Candidate order used throughout: profit descending, id ascending
    (the catalog's canonical order)."""
    rank = catalog._rank
    try:
        return sorted(ids, key=rank.__getitem__)
    except KeyError as exc:
        raise UnknownProductError(exc.args[0]) from None


@dataclass(frozen=True)
class SolveResult:
    """An optimal offer, its expected profit, and per-tier profit cutoffs.

    ``thresholds[k]`` is a cutoff such that every product placed in tier k
    has profit >= thresholds[k]; an empty tier reports +inf.  For two-tier
    results the pair is non-increasing across non-empty tiers.
    """

    offer: TieredOffer
    expected_profit: float
    thresholds: tuple[float, ...]


def _thresholds(offer: TieredOffer, catalog: Catalog) -> tuple[float, ...]:
    out = []
    for tier in offer.tiers:
        out.append(min((catalog.profit_of(i) for i in tier), default=math.inf))
    # keep cutoffs non-increasing across non-empty tiers; lowering a cutoff
    # below the tier's minimum profit keeps it a valid cutoff
    prev = None
    for k, tier in enumerate(offer.tiers):
        if not tier:
            continue
        if prev is not None and out[k] > prev:
            out[k] = prev
        prev = out[k]
    return tuple(out)


def _check_weights(v: np.ndarray, ids: Sequence) -> None:
    """Raise InvalidOfferError unless every weight in ``v`` (named by
    ``ids``, position for position) is finite and >= 0."""
    ok = (v >= 0.0) & (v < math.inf)  # NaN fails both
    if not ok.all():
        k = int(np.argmin(ok))
        raise InvalidOfferError(
            f"valuation for {ids[k]!r} must be finite and >= 0, got {float(v[k])!r}"
        )


def _candidate_arrays(order: Sequence, catalog: Catalog, valuations):
    """Profits and weights of ``order``, gathered from the catalog's arrays;
    the checks match ``_weight``'s."""
    idx = catalog._indices(order)
    r = catalog._profits[idx]
    if valuations is None:
        return r, catalog._valuations[idx]
    try:
        v = np.fromiter(map(valuations.__getitem__, order), dtype=float, count=len(order))
    except KeyError as exc:
        raise UnknownProductError(exc.args[0], "no valuation override supplied") from None
    _check_weights(v, order)
    return r, v


def _prefix_sums(r: np.ndarray, v: np.ndarray):
    cv = np.concatenate(([0.0], np.cumsum(v)))
    crv = np.concatenate(([0.0], np.cumsum(r * v)))
    return cv, crv


def _tier_maps(order1: list, order2: list):
    """The sweep's cross-references between two candidate orders: rank1[k]
    is order2[k]'s position in order1 (n1: not a tier-1 candidate) and
    pos2[j] is order1[j]'s position in order2 (n2: none).  One shared order
    (``order2 is order1``) maps to two ranges."""
    n1, n2 = len(order1), len(order2)
    if order2 is order1:
        return range(n1), range(n1)
    at1 = dict(zip(order1, range(n1)))
    at2 = dict(zip(order2, range(n2)))
    return [at1.get(i, n1) for i in order2], [at2.get(i, n2) for i in order1]


def _sweep(r1, v1, r2, v2, rank1, pos2) -> tuple[float, int, int]:
    """Best prefix pair over candidates already gathered in profit order.

    ``r1``/``v1`` are the tier-1 candidates' profits and weights, ``r2``/
    ``v2`` the tier-2 candidates' (the same arrays when the tiers share
    their candidates), and ``rank1``/``pos2`` come from ``_tier_maps``.
    One sweep over the tier-1 prefix a with a tier-2 end
    pointer p that only climbs (see the module docstring).  A pair is
    priced from prefix sums minus ``rem_*``, the weights tier 1 took from
    the first p tier-2 candidates, added in tier-1 order.  Returns (value,
    a, e) for the first maximum in visiting order: tier 1 takes the first a
    tier-1 candidates, tier 2 the tier-2 positions k < e with rank1[k] >= a.
    e is one past the last product tier 2 keeps, so it moves left when
    tier 1 takes that product while p stays.
    """
    cv1, crv1 = _prefix_sums(r1, v1)
    cv2, crv2 = (cv1, crv1) if v2 is v1 else _prefix_sums(r2, v2)
    denom1 = 1.0 + cv1
    heads = (crv1 / denom1).tolist()
    profits1 = r1.tolist()
    denom1 = denom1.tolist()
    cv2 = cv2.tolist()
    crv2 = crv2.tolist()
    w2 = v2.tolist()
    rw2 = (r2 * v2).tolist()
    n1, n2 = len(profits1), len(w2)

    best_value = -math.inf
    best_a = best_e = 0
    p = 0
    rem_v = rem_rv = 0.0
    kept: list[int] = []  # positive-weight tier-2 positions below p, ascending
    for a in range(n1 + 1):
        if a:
            if profits1[a - 1] <= best_value:
                break
            j = pos2[a - 1]
            if j < p:
                rem_v += w2[j]
                rem_rv += rw2[j]
                while kept and rank1[kept[-1]] < a:
                    kept.pop()
        head = heads[a]
        denom = denom1[a]
        value = head + ((crv2[p] - rem_rv) / (1.0 + (cv2[p] - rem_v))) / denom
        if value > best_value:
            best_value, best_a, best_e = value, a, kept[-1] + 1 if kept else 0
        while True:
            # products tier 1 took and zero weights leave tier 2's value as is
            while p < n2 and (rank1[p] < a or w2[p] == 0.0):
                if rank1[p] < a:
                    rem_v += w2[p]
                    rem_rv += rw2[p]
                p += 1
            if p == n2:
                break
            step = head + ((crv2[p + 1] - rem_rv) / (1.0 + (cv2[p + 1] - rem_v))) / denom
            if step < value:
                break
            kept.append(p)
            p += 1
            value = step
            if value > best_value:
                best_value, best_a, best_e = value, a, p
    return best_value, best_a, best_e


def _pair_ids(order1: list, order2: list, rank1, a: int, e: int) -> tuple[list, list]:
    """The (tier 1, tier 2) ids of the sweep's answer (a, e)."""
    return order1[:a], [order2[k] for k in range(e) if rank1[k] >= a]


def _solve_prefix_pairs(order1, order2, catalog, valuations):
    """Best prefix pair: tier 1 = order1[:a], tier 2 = order2[:e] minus
    tier 1.  Gathers the candidates' arrays and maps, then runs ``_sweep``;
    returns (value, tier1, tier2)."""
    r1, v1 = _candidate_arrays(order1, catalog, valuations)
    r2, v2 = (r1, v1) if order2 is order1 else _candidate_arrays(order2, catalog, valuations)
    rank1, pos2 = _tier_maps(order1, order2)
    value, a, e = _sweep(r1, v1, r2, v2, rank1, pos2)
    return (value, *_pair_ids(order1, order2, rank1, a, e))


def _tier_value(r: np.ndarray, v: np.ndarray) -> float:
    """Expected profit of one tier shown alone, sum(r v) / (1 + sum(v)),
    with both sums added left to right as ``expected_profit`` adds them
    (``np.sum`` adds pairwise and differs in the last bits)."""
    cv, crv = _prefix_sums(r, v)
    return crv[-1] / (1.0 + cv[-1])


def _tier1_prefix(r1, v1, n_forced: int, r2, v2) -> tuple[int, float]:
    """Best tier-1 prefix against a fixed tier 2.

    ``r1``/``v1`` list the forced products first, then the free candidates
    in profit order; ``r2``/``v2`` list tier 2 in ``str(id)`` order.
    Returns (a, value): tier 1 is the forced products plus the first a free
    ones.  cumsum adds left to right from 0.0 and argmax keeps the first
    maximum, exactly as a running-sum scan with a strict improvement test
    would.
    """
    e2 = _tier_value(r2, v2)
    cv, crv = _prefix_sums(r1, v1)
    values = (crv[n_forced:] + e2) / (1.0 + cv[n_forced:])
    a = int(np.argmax(values))
    return a, float(values[a])


def _resolve_candidates(catalog, candidates, default):
    if candidates is None:
        return default
    cand = frozenset(candidates)
    unknown = cand - catalog.ids
    if unknown:
        raise UnknownProductError(sorted_ids(unknown)[0])
    return cand


def _free_shared(shared, catalog, lower_bound):
    """Shared candidates that could strictly improve on ``lower_bound`` as
    tier-1 members.  Every tier-1 product at an optimum earns at least the
    optimal value, so anything at or below the bound can be dropped from the
    subset enumeration (zero-profit products never help)."""
    cutoff = max(lower_bound - 1e-9, 0.0)
    return [i for i in shared if catalog.profit_of(i) > cutoff]


def _completion_work(n_free: int, n_exc1: int, n_tier2: int) -> int:
    return (1 << n_free) * (n_exc1 + 1 + n_tier2)


def _completion(order2, exc1, free, catalog, valuations, seed_value):
    """Enumerate tier-1 = (exclusive prefix) + (subset P of ``free``) with
    tier 2 a prefix of order2 minus P.  Subsets step in Gray-code order so
    each differs from the last by one product; for a fixed P the best tier-2
    prefix does not depend on the exclusive prefix, so each subset costs one
    tier-2 walk plus one exclusive walk.

    Returns (value, tier1, tier2) when some offer beats ``seed_value``.
    """
    items2 = [
        (i, catalog.profit_of(i), _weight(catalog, valuations, i)) for i in order2
    ]
    cum_v = [0.0]
    cum_rv = [0.0]
    for i in exc1:
        w = _weight(catalog, valuations, i)
        cum_v.append(cum_v[-1] + w)
        cum_rv.append(cum_rv[-1] + catalog.profit_of(i) * w)
    free_items = [
        (i, catalog.profit_of(i), _weight(catalog, valuations, i)) for i in free
    ]
    in_p = [False] * len(free)
    pset: set = set()
    sum_vp = 0.0
    sum_rvp = 0.0
    best_value = seed_value
    best = None
    for g in range(1 << len(free)):
        if g:
            j = (g & -g).bit_length() - 1
            i, r, w = free_items[j]
            if in_p[j]:
                in_p[j] = False
                pset.discard(i)
                sum_vp -= w
                sum_rvp -= r * w
            else:
                in_p[j] = True
                pset.add(i)
                sum_vp += w
                sum_rvp += r * w
        tail_best = 0.0
        b_best = 0
        sv = 0.0
        srv = 0.0
        b = 0
        for i, r, w in items2:
            if i in pset:
                continue
            sv += w
            srv += r * w
            b += 1
            tail = srv / (1.0 + sv)
            if tail > tail_best:
                tail_best = tail
                b_best = b
        for a in range(len(exc1) + 1):
            value = (sum_rvp + cum_rv[a] + tail_best) / (1.0 + sum_vp + cum_v[a])
            if value > best_value:
                best_value = value
                best = (frozenset(pset), a, b_best)
    if best is None:
        return None
    pset, a, b = best
    tier1 = tuple(exc1[:a]) + tuple(i for i in free if i in pset)
    tier2 = tuple(i for i in order2 if i not in pset)[:b]
    return best_value, tier1, tier2


def solve_two_tier(
    catalog: Catalog,
    *,
    valuations: Mapping | None = None,
    candidates_tier1: Iterable | None = None,
    candidates_tier2: Iterable | None = None,
    exact: bool = True,
    max_exact_work: int = 20_000_000,
) -> SolveResult:
    """Two-tier optimum: prefix-pair seed plus the shared-subset completion.

    ``valuations`` substitutes the catalog's preference weights (it may
    contain optimistic values above 1); candidate overrides restrict the
    catalog's candidate sets, e.g. to the currently launched products.

    With ``exact`` (the default) the returned maximum equals the global
    maximum; the completion raises InstanceTooLargeError when its subset
    enumeration would exceed ``max_exact_work`` steps, which happens once
    many shared products outearn the seed value.  ``exact=False`` returns
    the best prefix-pair offer — already optimal for disjoint candidate
    sets, and in the rare overlap corners short by at most a sliver; the
    simulation loop runs with it so policies and their regret benchmark
    price offers on one family.
    """
    x1 = _resolve_candidates(catalog, candidates_tier1, catalog.candidates_tier1)
    x2 = _resolve_candidates(catalog, candidates_tier2, catalog.candidates_tier2)
    order1 = profit_order(x1, catalog)
    order2 = order1 if x1 == x2 else profit_order(x2, catalog)
    value, tier1, tier2 = _solve_prefix_pairs(order1, order2, catalog, valuations)
    if exact and not x1.isdisjoint(x2):
        exc1 = profit_order(x1 - x2, catalog)
        free = _free_shared(profit_order(x1 & x2, catalog), catalog, value)
        work = _completion_work(len(free), len(exc1), len(order2))
        if work > max_exact_work:
            raise InstanceTooLargeError(
                f"exact completion would take ~{work} steps over {len(free)} "
                f"candidate splits (cap {max_exact_work}); restrict the "
                "candidate sets or pass exact=False"
            )
        refined = _completion(order2, exc1, free, catalog, valuations, value)
        if refined is not None:
            value, tier1, tier2 = refined
    offer = TieredOffer.two_tier(tier1, tier2)
    value = expected_profit(offer, catalog, valuations)
    return SolveResult(offer, value, _thresholds(offer, catalog))


def solve_tier1_given_tier2(
    catalog: Catalog,
    tier2: Iterable,
    *,
    valuations: Mapping | None = None,
    candidates_tier1: Iterable | None = None,
    forced_tier1: Iterable = (),
) -> tuple[frozenset, float]:
    """Best tier-1 selection when the tier-2 set is held fixed.

    The free choice is a profit prefix of the remaining candidates, which is
    exact here: with tier 2 frozen, a product belongs in tier 1 iff its
    profit beats the resulting offer value.  ``forced_tier1`` products are
    included unconditionally (exploration slots) and need not be tier-1
    candidates.  Returns (tier-1 set including forced, expected profit of
    the combined offer).
    """
    tier2 = frozenset(tier2)
    forced = frozenset(forced_tier1)
    if forced & tier2:
        raise InvalidOfferError("forced tier-1 products overlap tier 2")
    x1 = _resolve_candidates(catalog, candidates_tier1, catalog.candidates_tier1)
    order = profit_order(x1 - tier2 - forced, catalog)
    r2, v2 = _candidate_arrays(sorted_ids(tier2), catalog, valuations)
    r1, v1 = _candidate_arrays(sorted_ids(forced) + order, catalog, valuations)
    a, value = _tier1_prefix(r1, v1, len(forced), r2, v2)
    return frozenset(order[:a]) | forced, value


# --- exhaustive reference ----------------------------------------------------


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """sums[m] = sum of values[j] over the set bits of mask m."""
    n = len(values)
    out = np.zeros(1 << n)
    for j in range(n):
        k = 1 << j
        out[k : 2 * k] = out[:k] + values[j]
    return out


def _brute_force_two_tier(catalog, sets, valuations, cap):
    order1 = sorted_ids(sets[0])
    order2 = sorted_ids(sets[1])
    n1, n2 = len(order1), len(order2)
    if 1 << (n1 + n2) > 4 * cap:
        raise InstanceTooLargeError(
            f"2^{n1 + n2} subset pairs exceed the cap of {4 * cap}"
        )
    union = sorted_ids(set(order1) | set(order2))
    bit = {i: j for j, i in enumerate(union)}

    def tier_arrays(order):
        r = np.array([catalog.profit_of(i) for i in order])
        v = np.array([_weight(catalog, valuations, i) for i in order])
        masks = _subset_sums(np.array([float(1 << bit[i]) for i in order]))
        return _subset_sums(v), _subset_sums(r * v), masks.astype(np.int64)

    sv1, srv1, gm1 = tier_arrays(order1)
    sv2, srv2, gm2 = tier_arrays(order2)
    e = (srv1 / (1.0 + sv1))[:, None] + (srv2 / (1.0 + sv2))[None, :] / (1.0 + sv1)[
        :, None
    ]
    e[(gm1[:, None] & gm2[None, :]) != 0] = -np.inf
    flat = int(np.argmax(e))
    m1, m2 = divmod(flat, 1 << n2)
    tier1 = [i for j, i in enumerate(order1) if m1 >> j & 1]
    tier2 = [i for j, i in enumerate(order2) if m2 >> j & 1]
    return TieredOffer.two_tier(tier1, tier2)


def _brute_force_recursive(catalog, sets, valuations, cap):
    num_tiers = len(sets)
    union = sorted_ids(set().union(*sets))
    items = []
    for i in union:
        tiers = [k for k in range(num_tiers) if i in sets[k]]
        if tiers:
            items.append((catalog.profit_of(i), _weight(catalog, valuations, i), tiers, i))
    count = 1
    for _, _, tiers, _ in items:
        count *= 1 + len(tiers)
        if count > cap:
            raise InstanceTooLargeError(
                f"assignment count exceeds the cap of {cap}"
            )
    sum_v = [0.0] * num_tiers
    sum_rv = [0.0] * num_tiers
    assign = [None] * len(items)
    best = [-math.inf, None]

    def evaluate():
        total = 0.0
        reach = 1.0
        for k in range(num_tiers):
            denom = 1.0 + sum_v[k]
            total += reach * sum_rv[k] / denom
            reach /= denom
        if total > best[0]:
            best[0] = total
            best[1] = assign.copy()

    def recurse(idx):
        if idx == len(items):
            evaluate()
            return
        r, v, tiers, _ = items[idx]
        assign[idx] = None
        recurse(idx + 1)
        for k in tiers:
            sum_v[k] += v
            sum_rv[k] += r * v
            assign[idx] = k
            recurse(idx + 1)
            sum_v[k] -= v
            sum_rv[k] -= r * v
        assign[idx] = None

    recurse(0)
    tiers: list[set] = [set() for _ in range(num_tiers)]
    for slot, (_, _, _, i) in zip(best[1], items):
        if slot is not None:
            tiers[slot].add(i)
    return TieredOffer(tuple(frozenset(t) for t in tiers))


def brute_force_optimal(
    catalog: Catalog,
    num_tiers: int = 2,
    *,
    candidate_sets: Sequence[Iterable] | None = None,
    valuations: Mapping | None = None,
    max_assignments: int = 2_000_000,
) -> SolveResult:
    """Exhaustive search over every disjoint assignment of candidates to tiers.

    With ``candidate_sets`` omitted, two tiers use the catalog's candidate
    sets and other tier counts make every product a candidate for every
    tier.  Raises InstanceTooLargeError rather than start an enumeration
    larger than ``max_assignments``.
    """
    if num_tiers < 1:
        raise InvalidOfferError("num_tiers must be >= 1")
    if candidate_sets is None:
        if num_tiers == 2:
            sets = [catalog.candidates_tier1, catalog.candidates_tier2]
        else:
            sets = [catalog.ids] * num_tiers
    else:
        if len(candidate_sets) != num_tiers:
            raise InvalidOfferError(
                f"expected {num_tiers} candidate sets, got {len(candidate_sets)}"
            )
        sets = [
            _resolve_candidates(catalog, s if s is not None else (), frozenset())
            for s in candidate_sets
        ]
    if num_tiers == 2:
        offer = _brute_force_two_tier(catalog, sets, valuations, max_assignments)
    else:
        offer = _brute_force_recursive(catalog, sets, valuations, max_assignments)
    value = expected_profit(offer, catalog, valuations)
    return SolveResult(offer, value, _thresholds(offer, catalog))


def enumerate_prefix_pair_offers(catalog: Catalog) -> list[TieredOffer]:
    """All two-tier prefix-pair offers, in (tier-1 prefix, tier-2 prefix)
    order with duplicates removed.  This is the candidate family the
    optimum provably lives in."""
    order1 = profit_order(catalog.candidates_tier1, catalog)
    order2 = profit_order(catalog.candidates_tier2, catalog)
    offers = []
    seen = set()
    for a in range(len(order1) + 1):
        taken = frozenset(order1[:a])
        rest = [i for i in order2 if i not in taken]
        for b in range(len(rest) + 1):
            offer = TieredOffer((taken, frozenset(rest[:b])))
            if offer not in seen:
                seen.add(offer)
                offers.append(offer)
    return offers


# --- offer structure predicates -----------------------------------------------


def is_profit_ordered_set(tier: Iterable, candidate_set: Iterable, catalog: Catalog) -> bool:
    """True iff every product in ``tier`` earns at least as much as every
    candidate left out: min profit inside >= max profit outside."""
    tier = frozenset(tier)
    candidates = frozenset(candidate_set)
    if not tier <= candidates:
        raise InvalidOfferError("tier must be a subset of its candidate set")
    outside = candidates - tier
    if not tier or not outside:
        return True
    lowest_in = min(catalog.profit_of(i) for i in tier)
    highest_out = max(catalog.profit_of(i) for i in outside)
    return lowest_in >= highest_out


def is_profit_ordered_by_tier(offer: TieredOffer, catalog: Catalog) -> bool:
    """True iff no tier-1 product earns less than some tier-2 candidate that
    was left out of the offer entirely.

    Left-out candidates are X2 minus both tiers: a product already shown in
    tier 1 is not an available tier-2 candidate, since tiers are disjoint.
    """
    s1 = offer.tier(0)
    if not s1:
        return True
    outside = catalog.candidates_tier2 - offer.tier(1) - s1
    if not outside:
        return True
    lowest_in = min(catalog.profit_of(i) for i in s1)
    highest_out = max(catalog.profit_of(i) for i in outside)
    return lowest_in >= highest_out


# --- new-product placement ----------------------------------------------------


def suffix_profits(
    offer: TieredOffer, catalog: Catalog, valuations: Mapping | None = None
) -> list[float]:
    """Expected profit of each tier suffix (S_j, ..., S_W) of ``offer``.

    At an optimum these are non-increasing in j: dropping the leading tiers
    only removes first-look revenue.
    """
    return [
        expected_profit(TieredOffer(offer.tiers[j:]), catalog, valuations)
        for j in range(len(offer.tiers))
    ]


@dataclass(frozen=True)
class TierPlacement:
    """Where a new product can land in the re-solved optimum.

    ``earliest_tier`` is the smallest admissible 0-based tier index; the
    product is guaranteed absent from all earlier tiers.  ``excluded`` means
    its profit is below even the last tier's continuation value, so it will
    not be offered at all.  Boundary ties count as not excluded.
    """

    excluded: bool
    earliest_tier: int | None


def predict_new_product_tier(
    suffix_values: Sequence[float], profit: float
) -> TierPlacement:
    """Predict placement of a profit-``profit`` product from the incumbent
    optimum's suffix values, without re-solving."""
    if not suffix_values:
        raise ValueError("need at least one tier suffix value")
    for a, b in zip(suffix_values, suffix_values[1:]):
        if b > a + 1e-9:
            raise ValueError("suffix values must be non-increasing by tier")
    if profit < suffix_values[-1]:
        return TierPlacement(True, None)
    for k, value in enumerate(suffix_values):
        if profit >= value:
            return TierPlacement(False, k)
    return TierPlacement(False, len(suffix_values) - 1)
