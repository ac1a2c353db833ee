"""Reference implementations the optimizer tests compare against.

``seed_reference`` is the prefix-pair seed as three separate cores: a dense
(n+1)^2 window matrix when both tiers share one candidate list, an n1 x n2
outer sum when the lists are disjoint, and a running-sum double loop
otherwise.  ``solve_two_tier_naive`` walks the same candidate family as
``solve_two_tier`` and prices every offer from scratch with
``expected_profit``.  Both are slow and exist only to check the library.
"""

from __future__ import annotations

import math

import numpy as np

from tieredmnl.errors import InstanceTooLargeError
from tieredmnl.model import TieredOffer, _weight, expected_profit
from tieredmnl.optimizer import (
    SolveResult,
    _candidate_arrays,
    _completion_work,
    _free_shared,
    _prefix_sums,
    _resolve_candidates,
    _thresholds,
    profit_order,
)


def _solve_shared_order(order, catalog, valuations):
    """Both tiers draw from one profit-ordered list: tier 1 takes the first
    a products, tier 2 the next b, so offers map to windows (a, a+b)."""
    r, v = _candidate_arrays(order, catalog, valuations)
    cv, crv = _prefix_sums(r, v)
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
    r1, v1 = _candidate_arrays(order1, catalog, valuations)
    r2, v2 = _candidate_arrays(order2, catalog, valuations)
    cv1, crv1 = _prefix_sums(r1, v1)
    cv2, crv2 = _prefix_sums(r2, v2)
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
        exc1 = profit_order(x1 - x2, catalog)
        free = _free_shared(profit_order(x1 & x2, catalog), catalog, best_value)
        work = _completion_work(len(free), len(exc1), len(order2))
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
