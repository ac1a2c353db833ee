"""Reference implementations the optimizer tests compare against.

``seed_reference`` is the prefix-pair seed as three separate cores: a dense
(n+1)^2 window matrix when both tiers share one candidate list, an n1 x n2
outer sum when the lists are disjoint, and a running-sum double loop
otherwise.  ``solve_two_tier_naive`` walks the same candidate family as
``solve_two_tier`` and prices every offer from scratch with
``expected_profit``.  Both are slow and exist only to check the library.

``numpy_sweep``, ``numpy_tier_value`` and ``numpy_tier1_prefix`` are the
optimizer's cores as they were written on numpy prefix sums (``cumsum``
adds left to right from 0.0, ``argmax`` keeps the first maximum); the
running-sum cores must return the same floats.  ``stack_sweep`` is the
running-sum sweep as it tracked the tier-2 end with a stack; the sweep that
derives the end once after the scan must return the same triple.
``id_completion`` is the exact completion as it was written on product ids,
a Gray-code enumeration of every split of the shared products that outearn
the seed; the frontier completion must reach the same value.
``frontier_completion`` is the frontier completion as it was before the
screen, pricing every fresh frontier point; the screened completion must
return the same result.  ``frontier_sizes`` counts the completion's
frontiers from all subsets.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from tieredmnl import optimizer
from tieredmnl.errors import InstanceTooLargeError
from tieredmnl.model import TieredOffer, _weight_vector, expected_profit
from tieredmnl.optimizer import (
    SolveResult,
    _resolve_candidates,
    _thresholds,
    profit_order,
)


def _weight(catalog, valuations, product_id):
    """One product's preference weight, read on its own: its override, or
    the catalog's when there are none."""
    return catalog.valuation_of(product_id) if valuations is None else valuations[product_id]


def gathered(order, catalog, valuations=None):
    """Profits and weights of ``order`` as arrays, read at the ids' catalog
    ranks from the catalog's profits and the rank-indexed weight vector."""
    idx = catalog._indices(order)
    return catalog._profits[idx], _weight_vector(catalog, valuations, order)[idx]


def prefix_sums(r: np.ndarray, v: np.ndarray):
    cv = np.concatenate(([0.0], np.cumsum(v)))
    crv = np.concatenate(([0.0], np.cumsum(r * v)))
    return cv, crv


def numpy_sweep(r1, v1, r2, v2, rank1, pos2) -> tuple[float, int, int]:
    """``optimizer._sweep`` with every pair priced from whole prefix-sum
    arrays; the tiers share their arrays when ``v2 is v1``."""
    cv1, crv1 = prefix_sums(r1, v1)
    cv2, crv2 = (cv1, crv1) if v2 is v1 else prefix_sums(r2, v2)
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
    kept: list[int] = []
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


def stack_sweep(r1, w1, r2, w2, rank1, pos2) -> tuple[float, int, int]:
    """``optimizer._sweep`` as it was written with a stack of the tier-2
    positions kept below the end pointer, popped while tier 1 takes their
    products, so e is read off the stack at every new maximum."""
    n1, n2 = len(r1), len(r2)
    best_value = -math.inf
    best_a = best_e = 0
    p = 0
    cv1 = crv1 = cv2 = crv2 = rem_v = rem_rv = 0.0
    kept: list[int] = []  # positive-weight tier-2 positions below p, ascending
    for a in range(n1 + 1):
        if a:
            r = r1[a - 1]
            if r <= best_value:
                break
            w = w1[a - 1]
            cv1, crv1 = cv1 + w, crv1 + r * w
            j = pos2[a - 1]
            if j < p:
                rem_v, rem_rv = rem_v + w2[j], rem_rv + r2[j] * w2[j]
                while kept and rank1[kept[-1]] < a:
                    kept.pop()
        denom = 1.0 + cv1
        head = crv1 / denom
        value = head + ((crv2 - rem_rv) / (1.0 + (cv2 - rem_v))) / denom
        if value > best_value:
            best_value, best_a, best_e = value, a, kept[-1] + 1 if kept else 0
        while True:
            while p < n2 and (rank1[p] < a or w2[p] == 0.0):
                w = w2[p]
                rw = r2[p] * w
                cv2, crv2 = cv2 + w, crv2 + rw
                if rank1[p] < a:
                    rem_v, rem_rv = rem_v + w, rem_rv + rw
                p += 1
            if p == n2:
                break
            next_v, next_rv = cv2 + w2[p], crv2 + r2[p] * w2[p]
            step = head + ((next_rv - rem_rv) / (1.0 + (next_v - rem_v))) / denom
            if step < value:
                break
            cv2, crv2 = next_v, next_rv
            kept.append(p)
            p += 1
            value = step
            if value > best_value:
                best_value, best_a, best_e = value, a, p
    return best_value, best_a, best_e


def numpy_tier_value(r: np.ndarray, v: np.ndarray) -> float:
    cv, crv = prefix_sums(r, v)
    return crv[-1] / (1.0 + cv[-1])


def numpy_tier1_prefix(r1, v1, n_forced: int, r2, v2) -> tuple[int, float]:
    """``optimizer._tier1_prefix`` as an argmax over every prefix value."""
    e2 = numpy_tier_value(r2, v2)
    cv, crv = prefix_sums(r1, v1)
    values = (crv[n_forced:] + e2) / (1.0 + cv[n_forced:])
    a = int(np.argmax(values))
    return a, float(values[a])


def _solve_shared_order(order, catalog, valuations):
    """Both tiers draw from one profit-ordered list: tier 1 takes the first
    a products, tier 2 the next b, so offers map to windows (a, a+b)."""
    r, v = gathered(order, catalog, valuations)
    cv, crv = prefix_sums(r, v)
    denom1 = 1.0 + cv
    head = crv / denom1
    tail_v = cv[None, :] - cv[:, None]
    tail_rv = crv[None, :] - crv[:, None]
    # the a > stop triangle is masked below; its entries may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        e = head[:, None] + (tail_rv / (1.0 + tail_v)) / denom1[:, None]
    n = len(order)
    idx = np.arange(n + 1)
    e[idx[:, None] > idx[None, :]] = -np.inf
    flat = int(np.argmax(e))
    a, stop = divmod(flat, n + 1)
    return float(e.flat[flat]), order[:a], order[a:stop]


def _solve_disjoint(order1, order2, catalog, valuations):
    r1, v1 = gathered(order1, catalog, valuations)
    r2, v2 = gathered(order2, catalog, valuations)
    cv1, crv1 = prefix_sums(r1, v1)
    cv2, crv2 = prefix_sums(r2, v2)
    denom1 = 1.0 + cv1
    e = (crv1 / denom1)[:, None] + (crv2 / (1.0 + cv2))[None, :] / denom1[:, None]
    flat = int(np.argmax(e))
    a, b = divmod(flat, len(order2) + 1)
    return float(e.flat[flat]), order1[:a], order2[:b]


def _solve_general(order1, order2, catalog, valuations):
    """Prefix-pair walk with running sums; tier-2 prefixes skip products the
    current tier-1 prefix already took."""
    items2 = [
        (i, catalog.profit_of(i), _weight(catalog, valuations, i)) for i in order2
    ]
    best_value = -math.inf
    best = ((), ())
    sum_v1 = 0.0
    sum_rv1 = 0.0
    taken1 = set()
    for a in range(len(order1) + 1):
        if a:
            i = order1[a - 1]
            w = _weight(catalog, valuations, i)
            sum_v1 += w
            sum_rv1 += catalog.profit_of(i) * w
            taken1.add(i)
        denom1 = 1.0 + sum_v1
        head = sum_rv1 / denom1
        if head > best_value:
            best_value = head
            best = (order1[:a], ())
        sum_v2 = 0.0
        sum_rv2 = 0.0
        chosen: list = []
        for i, r, w in items2:
            if i in taken1:
                continue
            sum_v2 += w
            sum_rv2 += r * w
            chosen.append(i)
            e = head + (sum_rv2 / (1.0 + sum_v2)) / denom1
            if e > best_value:
                best_value = e
                best = (order1[:a], tuple(chosen))
    return best_value, best[0], best[1]


def seed_reference(order1, order2, catalog, valuations=None):
    """(value, tier1, tier2) of the best prefix pair, picked by candidate shape."""
    x1, x2 = frozenset(order1), frozenset(order2)
    if x1 == x2:
        return _solve_shared_order(order1, catalog, valuations)
    if x1.isdisjoint(x2):
        return _solve_disjoint(order1, order2, catalog, valuations)
    return _solve_general(order1, order2, catalog, valuations)


def id_completion(order2, exc1, free, catalog, valuations, seed_value):
    """The exact completion on ids: tier 1 = (exclusive prefix) + (subset P
    of ``free``) with tier 2 a prefix of order2 minus P, subsets in
    Gray-code order.  Returns (value, tier1, tier2) when some offer beats
    ``seed_value``, else None."""
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


def frontier_completion(frame, w1, w2, seed_value):
    """``optimizer._completion`` without its screen: every fresh frontier
    point is priced by the tier-2 and exclusive walks.  Same arguments,
    work count, cap message and return value."""
    r1, r2, pos2 = frame.profits1, frame.profits2, frame.pos2
    n2 = len(r2)
    exc = [j for j, k in enumerate(pos2) if k == n2]
    shared = [j for j, k in enumerate(pos2) if k < n2 and w1[j] > 0.0]
    work = walk = len(exc) + 1 + n2
    frontier = fresh = [(0.0, -0.0, 0)]
    walked, sum_v, sum_rv = 0, 0.0, 0.0  # the walked products' tier-2 bits and sums
    best_value, best = seed_value, None
    for step in range(len(shared) + 1):
        if work > optimizer._MAX_EXACT_WORK:
            raise InstanceTooLargeError(
                f"exact completion reached {work} steps on {len(frontier)} demoted "
                f"sets (cap {optimizer._MAX_EXACT_WORK}); restrict the candidate sets or pass exact=False"
            )
        for rv_a, nv_a, bits in fresh:
            tier1 = walked & ~bits
            e, tail, sv, srv = 0, 0.0, 0.0, 0.0
            for k in range(n2):
                if tier1 >> k & 1:
                    continue
                r = r2[k]
                if r <= tail:  # from here on no product raises tier 2's value
                    break
                sv += w2[k]
                srv += r * w2[k]
                if srv / (1.0 + sv) > tail:
                    tail, e = srv / (1.0 + sv), k + 1
            v, rv, a = 1.0 + sum_v + nv_a, sum_rv - rv_a + tail, 0
            while True:
                if rv / v > best_value:
                    best_value, best = rv / v, (tier1, a, e)
                if a == len(exc) or r1[exc[a]] <= best_value:
                    break
                v += w1[exc[a]]
                rv += r1[exc[a]] * w1[exc[a]]
                a += 1
        if step == len(shared) or r1[shared[step]] <= max(best_value - 1e-9, 0.0):
            break
        j = shared[step]
        w, rw, bit = w1[j], r1[j] * w1[j], 1 << pos2[j]
        merged = sorted(frontier + [(rv_a + rw, nv_a - w, bits | bit) for rv_a, nv_a, bits in frontier])
        frontier, top = [], math.inf
        for point in merged:
            if point[1] < top:
                top = point[1]
                frontier.append(point)
        fresh = [point for point in frontier if not point[2] & bit]
        walked |= bit
        sum_v, sum_rv = sum_v + w, sum_rv + rw
        work += len(frontier) * walk
    if best is None:
        return None
    tier1, a, e = best
    ids1, ids2 = frame.ids1, frame.ids2
    shown1 = [ids1[j] for j in exc[:a]] + [ids2[k] for k in range(n2) if tier1 >> k & 1]
    return best_value, shown1, [ids2[k] for k in range(e) if not tier1 >> k & 1]


def frontier_sizes(items) -> list[int]:
    """Sizes of the demoted-set frontiers over items[:k], k = 0..len(items),
    each counted from all 2^k subsets: sort the (sum rv, -sum v) pairs and
    count the points whose sum v strictly rises.  ``items`` are (profit,
    weight) pairs whose sums are exact in floats or far apart, so the order
    the sums are added in does not matter."""
    sizes = []
    for k in range(len(items) + 1):
        points = sorted(
            (sum(r * v for r, v in subset), -sum(v for _, v in subset))
            for m in range(k + 1)
            for subset in itertools.combinations(items[:k], m)
        )
        top, size = math.inf, 0
        for _, neg_v in points:
            if neg_v < top:
                top, size = neg_v, size + 1
        sizes.append(size)
    return sizes


def solve_two_tier_naive(
    catalog,
    *,
    valuations=None,
    candidates_tier1=None,
    candidates_tier2=None,
    exact: bool = True,
    max_exact_work: int = 20_000_000,
) -> SolveResult:
    """The same candidate family as ``solve_two_tier``, each offer priced
    from scratch with no running sums.  Slow validation twin.
    """
    x1 = _resolve_candidates(catalog, candidates_tier1, catalog.candidates_tier1)
    x2 = _resolve_candidates(catalog, candidates_tier2, catalog.candidates_tier2)
    order1 = profit_order(x1, catalog)
    order2 = profit_order(x2, catalog)
    best_value = -math.inf
    best = None

    def consider(tier1, tier2):
        nonlocal best_value, best
        offer = TieredOffer.two_tier(tier1, tier2)
        value = expected_profit(offer, catalog, valuations)
        if value > best_value:
            best_value = value
            best = offer

    for a in range(len(order1) + 1):
        taken = set(order1[:a])
        rest = [i for i in order2 if i not in taken]
        for b in range(len(rest) + 1):
            consider(order1[:a], rest[:b])
    if exact and not x1.isdisjoint(x2):
        exc1 = [i for i in order1 if i not in x2]
        # every tier-1 product at an optimum earns at least the optimal value
        cutoff = max(best_value - 1e-9, 0.0)
        free = [i for i in order1 if i in x2 and catalog.profit_of(i) > cutoff]
        work = 2 ** len(free) * (len(exc1) + 1 + len(order2))
        if work > max_exact_work:
            raise InstanceTooLargeError(
                f"exact completion would take ~{work} steps over {len(free)} "
                f"candidate splits (cap {max_exact_work}); restrict the "
                "candidate sets or pass exact=False"
            )
        for mask in range(1 << len(free)):
            p = [i for j, i in enumerate(free) if mask >> j & 1]
            rest = [i for i in order2 if i not in p]
            for a in range(len(exc1) + 1):
                for b in range(len(rest) + 1):
                    consider(list(exc1[:a]) + p, rest[:b])
    return SolveResult(best, best_value, _thresholds(best, catalog))
