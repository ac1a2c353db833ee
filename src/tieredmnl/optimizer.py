"""Exact profit maximization over tiered offers.

The search walks a structured family of offers instead of all subsets:

* Seed family: tier 1 takes a profit-descending prefix order1[:a] of X1,
  tier 2 a prefix order2[:p] of X2 minus what tier 1 took.  With disjoint
  candidate sets this family provably contains an optimum (any product
  whose profit beats the offer's continuation value belongs in, anything
  below belongs out).  ``_sweep`` finds the best pair in one sweep over a
  with O(n) memory, on profit and weight lists already gathered in profit
  order.  A ``_PairFrame`` holds one candidate layout as catalog rank
  arrays, with no ids, and gathers the weights from a vector by rank;
  ``solve_two_tier`` builds one per call, the policies one per launched set.
  Likewise a ``_Tier1Frame`` feeds ``_tier1_prefix`` for
  ``solve_tier1_given_tier2`` and for the policy's tier-1 re-solves.

  - For a fixed a, the tier-2 value along p is unimodal: adding the next
    product raises it while that product's profit beats the current value,
    and once it does not, no later (cheaper) product can raise it again.
  - Taking one more product into tier 1 only shrinks tier 2's choice, so
    its best value can only fall and every product kept in tier 2 still
    beats it: the first best end position never moves left.  The pointer
    p therefore climbs from where the last row left it and stops at the
    first strict drop; equal values are climbed through.  Products tier 1
    took and zero weights leave the value unchanged and are stepped over;
    after the scan, tier 2's end e steps back over them from the best p.
  - Once the next tier-1 product earns no more than the best value so far,
    every later row is a weighted average of an offer already beaten and
    that profit, so the sweep stops.
  - Ties go to the first maximum in (a, p) order, kept by strict
    improvement.  Pairs are priced from running float sums added left to
    right, as ``np.cumsum`` adds them, so the shared and disjoint cases
    price exactly what an (n+1) x (n+1) window matrix would.
  - ``_tier1_prefix`` scans the free tier-1 candidates alike and stops at
    the first whose profit is at or below the best value so far.
* Completion: when the candidate sets overlap, a shared product can be
  worth *demoting* to tier 2 while a cheaper product stays in tier 1, so
  prefix pairs alone can leave a gap.  Tier 2 is still a prefix of its
  available candidates and the tier-1 exclusives a prefix of X1\\X2.  At
  the optimal value L, let A be the shared positive-weight products above
  L that sit in tier 2 (the others sit in tier 1), x = sum_A v and
  c = sum_A (r - L) v.  With the rest B of tier 2 fixed, N - L*D =
  const - c + (L*x + c + R_B) / (1 + x + V_B) falls in c and is monotone
  in x, so A = {} or any A' with sum v >= x and sum rv <= sum_A rv does as
  well: some optimum demotes a set on the Pareto frontier (max sum v,
  min sum rv).  ``_completion`` builds it with the Nemhauser-Ullmann walk
  over the shared positive-weight candidates in profit order; at some step
  the walked products are those above L, and it stops at the first earning
  no more than the best value so far.  The frontier is one complex array
  sum rv + i * (-sum v), which numpy sorts by (real, imag) as a two-key
  sort would (-sum v is never NaN).  Each step stacks it on its shifted
  copy, sorts stably (timsort merges the two runs), keeps the points whose
  sum v rises and records their origins, from which a priced point's
  demoted set is read back.  The walked product's tier-2 bit is the
  highest so far, so sorting (sum rv, -sum v, bits) tuples would break ties
  as the stable sort does with the unshifted copy first.  Polynomial time
  is shown only for disjoint candidate sets: with equal profits sum rv =
  r * sum v, so on subset-sum-like shared catalogs every distinct weight
  sum is on the frontier and it can grow exponentially.  So the walk is
  capped at ``_MAX_EXACT_WORK`` steps, and ``exact=False`` skips it.
* Screen (Dinkelbach): with V and R the sums of 1 + v and of rv over a
  point's tier-1 products and the exclusives above the best value lam, its
  offers beat lam only if sum (r - need) v over its tier-2 candidates above
  need = lam*V - R exceeds need.  Prefix sums over all tier-2 candidates
  less the tier-1 terms bound that sum with one bisect.  A point it leaves
  short by more than a margin scaled to the sums falls short of lam and is
  skipped; the unchanged walks price the rest, so the answer is the same.
  A step's fresh points are screened once, at the best value when the step
  starts; any later best value is no lower, so the skipped points stay beaten.

``brute_force_optimal`` enumerates every assignment outright with one
recursive search for any number of tiers, and serves as the reference
oracle for the structured search.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InstanceTooLargeError, InvalidOfferError, UnknownProductError
from .model import (
    Catalog, TieredOffer, _gather, _id_set, _tier_lists, _tier_sums, _weight_vector, expected_profit,
    sorted_ids,
)

# Largest enumeration ``brute_force_optimal`` starts, in assignments.
_BRUTE_FORCE_CAP = 2_000_000
# Largest work the exact completion's frontier walk does, in steps.
_MAX_EXACT_WORK = 20_000_000


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
    # each tier's minimum profit (at its highest rank), kept non-increasing
    # across non-empty tiers; lowering a cutoff below it keeps it valid
    out, prev = [], math.inf
    for tier in offer.tiers:
        if tier:
            prev = min(prev, catalog._profits[catalog._indices(tier).max()].item())
        out.append(prev if tier else math.inf)
    return tuple(out)


def _tier_maps(ranks1: np.ndarray, ranks2: np.ndarray):
    """The sweep's cross-references between two candidate orders, given by
    their catalog ranks: rank1[k] is order2[k]'s position in order1 (n1: not
    a tier-1 candidate) and pos2[j] is order1[j]'s position in order2 (n2:
    none).  One shared order (``ranks2 is ranks1``) maps to two ranges."""
    n1, n2 = len(ranks1), len(ranks2)
    if ranks2 is ranks1:
        return range(n1), range(n1)
    at = np.full(max(ranks1.max(initial=-1), ranks2.max(initial=-1)) + 1, n1)
    at[ranks1] = np.arange(n1)  # each rank's position in order1
    rank1, pos2 = at[ranks2], np.full(n1, n2)
    both = (rank1 < n1).nonzero()[0]
    pos2[rank1[both]] = both
    return rank1.tolist(), pos2.tolist()


def _sweep(r1, w1, r2, w2, rank1, pos2) -> tuple[float, int, int]:
    """Best prefix pair over candidates already gathered in profit order.

    ``r1``/``w1`` are lists of the tier-1 candidates' profits and weights,
    ``r2``/``w2`` the tier-2 candidates' (the same lists when the tiers
    share their candidates), and ``rank1``/``pos2`` come from
    ``_tier_maps``.  One sweep over the tier-1 prefix a with a tier-2 end
    pointer p that only climbs (see the module docstring).  The running
    sums cv1/crv1 cover the first a tier-1 candidates and cv2/crv2 the
    first p tier-2 candidates; ``rem_*`` are the weights tier 1 took from
    those p, added in tier-1 order.  Each sum adds what the sweep visits,
    left to right from 0.0, so it is the float ``np.cumsum`` would give.
    Returns (value, a, e) for the first maximum in visiting order: tier 1
    takes the first a tier-1 candidates, tier 2 the tier-2 positions k < e
    with rank1[k] >= a.  After the sweep, e steps back from the best end
    pointer over the positions tier 1 took and over zero weights.
    """
    n1, n2 = len(r1), len(r2)
    best_value = -math.inf
    best_a = best_e = 0
    p = 0
    cv1 = crv1 = cv2 = crv2 = rem_v = rem_rv = 0.0
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
        denom = 1.0 + cv1
        head = crv1 / denom
        value = head + ((crv2 - rem_rv) / (1.0 + (cv2 - rem_v))) / denom
        if value > best_value:
            best_value, best_a, best_e = value, a, p
        while True:
            # products tier 1 took and zero weights leave tier 2's value as is
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
            p += 1
            value = step
            if value > best_value:
                best_value, best_a, best_e = value, a, p
    while best_e and (rank1[best_e - 1] < best_a or w2[best_e - 1] == 0.0):
        best_e -= 1  # from the best p back to the last positive weight tier 1 left
    return best_value, best_a, best_e


class _PairFrame:
    """The sweep's inputs for one pair of candidate sets, built once and
    solved against any weight vector indexed by catalog rank.

    ``ranks1``/``ranks2`` are the tier-1 and tier-2 candidates' sorted
    catalog ranks, the catalog's own or their launched parts from
    ``Catalog._launched`` (an id set is ranked first), and the profit lists
    are read at them; when both tiers share one candidate set, tier 2 uses
    tier 1's.  ``rank1``/``pos2`` are the sweep's maps between the two
    orders.  The frame holds no ids: ``ids1``/``ids2`` read them back from
    the ranks each time they are iterated, and ``tiers`` reads only the
    products it names.
    """

    __slots__ = ("catalog", "ranks1", "profits1", "ids1", "ranks2", "profits2", "ids2", "rank1", "pos2")

    def __init__(self, catalog: Catalog, x1, x2):
        self.catalog = catalog
        self.ranks1, ranks2 = _sorted_ranks(catalog, x1), _sorted_ranks(catalog, x2)
        self.profits1, self.ids1 = catalog._profits[self.ranks1].tolist(), catalog._ids_at(self.ranks1)
        if ranks2 is self.ranks1 or np.array_equal(ranks2, self.ranks1):
            self.ranks2, self.profits2, self.ids2 = self.ranks1, self.profits1, self.ids1
        else:
            self.ranks2, self.profits2 = ranks2, catalog._profits[ranks2].tolist()
            self.ids2 = catalog._ids_at(ranks2)
        self.rank1, self.pos2 = _tier_maps(self.ranks1, self.ranks2)

    def weights(self, w: np.ndarray) -> tuple[list, list]:
        """``_gather`` of ``w`` at the tier-1 and at the tier-2 candidates
        (one list when the tiers share their candidates)."""
        w1 = _gather(w, self.ranks1, self.ids1)
        return w1, w1 if self.ranks2 is self.ranks1 else _gather(w, self.ranks2, self.ids2)

    def solve(self, w: np.ndarray) -> tuple[float, int, int]:
        """``_sweep``'s (value, a, e) of the best prefix pair."""
        w1, w2 = self.weights(w)
        return _sweep(self.profits1, w1, self.profits2, w2, self.rank1, self.pos2)

    def tiers(self, a: int, e: int) -> tuple[list, list]:
        """The ids of (a, e): the first a tier-1 candidates, then the first e
        tier-2 candidates minus those."""
        ranked = self.catalog._ranked
        tier2 = [ranked[k].id for k, j in zip(self.ranks2[:e].tolist(), self.rank1) if j >= a]
        return [ranked[k].id for k in self.ranks1[:a].tolist()], tier2


def _sorted_ranks(catalog: Catalog, x) -> np.ndarray:
    """``x`` itself if it is a rank array, else the sorted ranks of its ids."""
    return x if isinstance(x, np.ndarray) else np.sort(catalog._indices(x))


def _tier_value(r, w) -> float:
    """Expected profit of one tier shown alone, sum(r w) / (1 + sum(w)),
    with both sums added as ``expected_profit`` adds them."""
    sum_w, sum_rw = _tier_sums(r, w)
    return sum_rw / (1.0 + sum_w)


def _tier1_prefix(r1, w1, n_forced: int, r2, w2) -> tuple[int, float]:
    """Best tier-1 prefix against a fixed tier 2.

    ``r1``/``w1`` list the forced products first, then the free candidates
    in profit order; ``r2``/``w2`` list tier 2 in ``str(id)`` order.
    Returns (a, value): tier 1 is the forced products plus the first a free
    ones, the first maximum of a running-sum scan.  Each free candidate
    moves the value to a weighted average of itself and its profit, so the
    scan stops at the first one whose profit is <= the best value so far,
    as the prefix-pair sweep does; nothing after it is read.
    """
    e2 = _tier_value(r2, w2)
    sum_w, sum_rw = _tier_sums(r1[:n_forced], w1[:n_forced])
    best_a = 0
    best_value = (sum_rw + e2) / (1.0 + sum_w)
    for k in range(n_forced, len(r1)):
        r = r1[k]
        if r <= best_value:
            break
        sum_w, sum_rw = sum_w + w1[k], sum_rw + r * w1[k]
        value = (sum_rw + e2) / (1.0 + sum_w)
        if value > best_value:
            best_value, best_a = value, k + 1 - n_forced
    return best_a, best_value


class _Tier1Frame:
    """The tier-1 prefix scan's inputs against a fixed tier 2, built once
    and solved against any weight vector indexed by catalog rank: the
    forced products (``str(id)`` order), then the ``free`` candidates'
    ranks (the sorted ranks ``order`` minus tier 2 and the forced products,
    one mask), read back by ``ids1``, and tier 2's ids ``ids2`` (``str(id)``
    order), each with ranks and profit lists."""

    __slots__ = ("n_forced", "free", "ranks1", "profits1", "ids1", "ids2", "ranks2", "profits2")

    def __init__(self, catalog: Catalog, order: np.ndarray, forced: frozenset, tier2: frozenset):
        self.n_forced, self.ids2 = len(forced), sorted_ids(tier2)
        forced_ranks, self.ranks2 = catalog._indices(sorted_ids(forced)), catalog._indices(self.ids2)
        taken = np.zeros(len(catalog._profits), dtype=bool)
        taken[forced_ranks] = taken[self.ranks2] = True
        self.free = order[~taken[order]]
        self.ranks1 = np.concatenate((forced_ranks, self.free))
        self.profits1, self.ids1 = catalog._profits[self.ranks1].tolist(), catalog._ids_at(self.ranks1)
        self.profits2 = catalog._profits[self.ranks2].tolist()

    def solve(self, w: np.ndarray) -> tuple[int, float]:
        """(a, value): tier 1 is the forced products plus ``free[:a]``."""
        w2 = _gather(w, self.ranks2, self.ids2)
        w1 = _gather(w, self.ranks1, self.ids1)
        return _tier1_prefix(self.profits1, w1, self.n_forced, self.profits2, w2)


def _resolve_candidates(catalog, candidates, default):
    if candidates is None:
        return default
    cand = _id_set(candidates, "candidate set")
    unknown = cand - catalog.ids
    if unknown:
        raise UnknownProductError(sorted_ids(unknown)[0])
    return cand


def _completion(frame: _PairFrame, w1: list, w2: list, seed_value: float):
    """The exact completion on ``frame``'s lists and the sweep's weights (see
    the module docstring).  The frontier of demoted sets A is one complex
    array ``z``, sum rv + i * (-sum v), in numpy's lexicographic complex
    order.  Walking product f stacks it on a copy that also demotes f, sorts
    stably (timsort merges the two runs), unshifted copy first (f's tier-2
    bit is the highest yet, so (sum rv, -sum v, bits) tuples sort alike),
    and keeps each point whose sum v strictly rises; ``history`` holds each
    kept point's origin in the stack, from which a priced point's tier-1
    bits are read back.  A point's offer has the walked products outside A
    and the best exclusive prefix in tier 1, the best prefix of the tier-2
    candidates left in tier 2; points holding f repeat their parent's offer
    and are not priced again.  Raises InstanceTooLargeError once the work,
    frontier points summed over the steps times |exclusives| + 1 + n2 (the
    screen's skips included), exceeds ``_MAX_EXACT_WORK``.  The screen takes
    a step's fresh points once, at the best value from the start of the
    step, and the survivors are priced in order; its margin is 1e-9 * (1 +
    sum rv + (1 + |need|) * (1 + sum v)), sums over the tier-2 candidates
    and exclusives.  Returns (value, tier1 ids, tier2 ids) when some offer
    beats ``seed_value``, else None."""
    r1, r2, pos2 = frame.profits1, frame.profits2, frame.pos2
    n2 = len(r2)
    exc = [j for j, k in enumerate(pos2) if k == n2]
    shared = [j for j, k in enumerate(pos2) if k < n2 and w1[j] > 0.0]
    work = walk = len(exc) + 1 + n2
    z, fresh, history = np.array([complex(0.0, -0.0)]), np.zeros(1, int), []
    sum_v, sum_rv = 0.0, 0.0  # the walked products' sums
    best_value, best = seed_value, None
    rx, wx = [r1[j] for j in exc], [w1[j] for j in exc]
    neg2, negx = -np.array(r2), [-r for r in rx]  # bisect(neg, -t) counts profits above t
    cv2, crv2 = list(accumulate(w2, initial=0.0)), list(accumulate(map(mul, r2, w2), initial=0.0))
    cvx, crvx = list(accumulate(wx, initial=0.0)), list(accumulate(map(mul, rx, wx), initial=0.0))
    scale_rw, scale_w = 1.0 + crv2[-1] + crvx[-1], 1.0 + cv2[-1] + cvx[-1]
    cv2, crv2 = np.array(cv2), np.array(crv2)
    with np.errstate(over="ignore", invalid="ignore"):  # huge overrides overflow, as floats do
        for step in range(len(shared) + 1):
            if work > _MAX_EXACT_WORK:
                raise InstanceTooLargeError(
                    f"exact completion reached {work} steps on {len(z)} demoted "
                    f"sets (cap {_MAX_EXACT_WORK}); restrict the candidate sets or pass exact=False"
                )
            zf = z[fresh]
            rv1, v1 = sum_rv - zf.real, 1.0 + sum_v + zf.imag
            m = bisect_left(negx, -best_value)
            need = best_value * (v1 + cvx[m]) - rv1 - crvx[m]  # the tier-2 value to beat
            m = np.searchsorted(neg2, -need)
            slack = crv2[m] - need * cv2[m] - rv1 + need * (v1 - 2.0)  # >= the sum less need
            skip = slack < -1e-9 * (scale_rw + (1.0 + abs(need)) * scale_w)  # NaN is priced
            for i in (~skip).nonzero()[0].tolist():
                tier1, o = 0, fresh[i]
                for origin, n, bit in reversed(history):
                    o = origin[o]
                    if o < n:  # the product walked at that step stayed in tier 1
                        tier1 |= bit
                    else:
                        o -= n
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
                v, rv, a = float(v1[i]), float(rv1[i]) + tail, 0
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
            w, rw, n = w1[j], r1[j] * w1[j], len(z)
            z = np.concatenate((z, z + complex(rw, -w)))
            order = np.argsort(z, kind="stable")
            z = z[order]
            nv = z.imag
            keep = np.concatenate(([True], nv[1:] < np.minimum.accumulate(nv)[:-1]))
            origin, z = order[keep], z[keep]
            history.append((origin, n, 1 << pos2[j]))
            fresh = (origin < n).nonzero()[0]
            sum_v, sum_rv = sum_v + w, sum_rv + rw
            work += len(z) * walk
    if best is None:
        return None
    tier1, a, e = best
    ranks1, ranks2, ids_at = frame.ranks1.tolist(), frame.ranks2.tolist(), frame.catalog._ids_at
    shown1 = [ranks1[j] for j in exc[:a]] + [ranks2[k] for k in range(n2) if tier1 >> k & 1]
    shown2 = [ranks2[k] for k in range(e) if not tier1 >> k & 1]
    return best_value, list(ids_at(shown1)), list(ids_at(shown2))


def solve_two_tier(
    catalog: Catalog,
    *,
    valuations: Mapping | None = None,
    candidates_tier1: Iterable | None = None,
    candidates_tier2: Iterable | None = None,
    exact: bool = True,
) -> SolveResult:
    """Two-tier optimum: prefix-pair seed plus the demoted-set frontier.

    ``valuations`` substitutes the catalog's preference weights (it may
    contain optimistic values above 1); candidate overrides restrict the
    catalog's candidate sets, e.g. to the currently launched products.

    With ``exact`` (the default) the returned maximum equals the global
    maximum.  Polynomial time is shown only for disjoint candidate sets;
    on shared ones the frontier walk can grow exponentially (equal profits
    make it subset sum), so it raises InstanceTooLargeError past
    ``_MAX_EXACT_WORK`` steps.  ``exact=False`` returns the best prefix-pair
    offer — already optimal for disjoint candidate sets, and in the rare
    overlap corners short by at most a sliver; the simulation loop runs with
    it so policies and their regret benchmark price offers on one family.
    """
    x1 = _resolve_candidates(catalog, candidates_tier1, catalog._candidate_ranks[0])
    x2 = _resolve_candidates(catalog, candidates_tier2, catalog._candidate_ranks[1])
    frame = _PairFrame(catalog, x1, x2)
    w1, w2 = frame.weights(_weight_vector(catalog, valuations, frame.ids1, frame.ids2))
    value, a, e = _sweep(frame.profits1, w1, frame.profits2, w2, frame.rank1, frame.pos2)
    tier1, tier2 = frame.tiers(a, e)
    if exact and min(frame.pos2, default=len(frame.ranks2)) < len(frame.ranks2):  # sets overlap
        refined = _completion(frame, w1, w2, value)
        if refined is not None:
            _, tier1, tier2 = refined
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
    tier2 = _id_set(tier2, "tier2")
    forced = _id_set(forced_tier1, "forced_tier1")
    if forced & tier2:
        raise InvalidOfferError("forced tier-1 products overlap tier 2")
    x1 = _resolve_candidates(catalog, candidates_tier1, catalog._candidate_ranks[0])
    frame = _Tier1Frame(catalog, _sorted_ranks(catalog, x1), forced, tier2)
    a, value = frame.solve(_weight_vector(catalog, valuations, frame.ids2, frame.ids1))
    return frozenset(catalog._ids_at(frame.free[:a])) | forced, value


# --- exhaustive reference ----------------------------------------------------


def _brute_force_recursive(catalog, sets, valuations):
    num_tiers = len(sets)
    ((union, r, w),) = _tier_lists([set().union(*sets)], catalog, valuations)
    items = [
        (r_i, w_i, [k for k in range(num_tiers) if i in sets[k]], i)
        for i, r_i, w_i in zip(union, r, w)
    ]
    count = 1
    for _, _, tiers, _ in items:
        count *= 1 + len(tiers)
        if count > _BRUTE_FORCE_CAP:
            raise InstanceTooLargeError(
                f"assignment count exceeds the cap of {_BRUTE_FORCE_CAP}"
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
) -> SolveResult:
    """Exhaustive search over every disjoint assignment of candidates to tiers.

    With ``candidate_sets`` omitted, two tiers use the catalog's candidate
    sets and other tier counts make every product a candidate for every
    tier.  Raises InstanceTooLargeError rather than start an enumeration
    larger than ``_BRUTE_FORCE_CAP`` assignments, the product of (1 + the
    number of tiers each product may join): with two tiers, up to 13
    products shared by both tiers, or 20 split between disjoint sets.
    """
    if type(num_tiers) is not int or num_tiers < 1:
        raise InvalidOfferError(f"num_tiers must be an integer >= 1, got {num_tiers!r}")
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
    offer = _brute_force_recursive(catalog, sets, valuations)
    value = expected_profit(offer, catalog, valuations)
    return SolveResult(offer, value, _thresholds(offer, catalog))


def enumerate_prefix_pair_offers(catalog: Catalog) -> list[TieredOffer]:
    """All two-tier prefix-pair offers ``_PairFrame.tiers(a, e)`` over the
    catalog's candidate sets, once each, in (a, e) order.  With disjoint
    candidate sets this family contains an optimum; with shared ones it can
    miss it (the exact completion closes that gap)."""
    frame = _PairFrame(catalog, *catalog._candidate_ranks)
    rank1 = frame.rank1
    return [
        TieredOffer.two_tier(*frame.tiers(a, e))
        for a in range(len(frame.ranks1) + 1)
        for e in range(len(frame.ranks2) + 1)
        if e == 0 or rank1[e - 1] >= a  # else tier 2 is the same as at e - 1
    ]


# --- offer structure predicates -----------------------------------------------


def is_profit_ordered_set(tier: Iterable, candidate_set: Iterable, catalog: Catalog) -> bool:
    """True iff every product in ``tier`` earns at least as much as every
    candidate left out: min profit inside >= max profit outside."""
    tier = _id_set(tier, "tier")
    candidates = _id_set(candidate_set, "candidate set")
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
    return is_profit_ordered_set(s1, s1 | (catalog.candidates_tier2 - offer.tier(1)), catalog)


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
    if not all(map(math.isfinite, (*suffix_values, profit))):
        raise ValueError("suffix values and profit must be finite")
    for a, b in zip(suffix_values, suffix_values[1:]):
        if b > a + 1e-9:
            raise ValueError("suffix values must be non-increasing by tier")
    if profit < suffix_values[-1]:
        return TierPlacement(True, None)
    for k, value in enumerate(suffix_values):
        if profit >= value:
            return TierPlacement(False, k)
    return TierPlacement(False, len(suffix_values) - 1)
