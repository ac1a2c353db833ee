"""Decision policies over the tiered purchase stream.

Every policy answers ``offer(t)`` before each customer and digests the
outcome in ``observe(t, offer, outcome)``.  The learning policies keep an
EpochLedger and re-decide at their natural epoch boundaries: the UCB family
re-solves the offline problem under optimistic valuations at the start of
every tier-2 epoch (tier 1 alone is re-solved at intermediate tier-1
closures, with the tier-2 set frozen by the epoch lock), while the
explore-then-exploit benchmark holds each candidate offer until a customer
walks away with nothing.

The UCB family decides on arrays in the catalog's canonical order: one
valuation vector indexed by catalog rank, candidate arrays cached per
visible set, and the optimizer's sweep and tier-1 prefix cores.  The public
solvers wrap the same cores, so the offers equal theirs for the same
valuations.

Policies price offers with the prefix-pair family (``exact=False``), the
same family the simulator's regret benchmark maximizes over, so a policy is
never judged against an optimum it was not allowed to search — and at the
catalog sizes the experiments run, the exact completion would be
intractable inside the decision loop anyway.

``epoch_regret_closed_form`` / ``epoch_regret_monte_carlo`` price the
per-epoch cost of carrying one under-learned product in either tier of a
fixed offer; their tier-2 advantage is what justifies the UCB policy's
habit of parking exploration products in the second tier.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from itertools import compress, filterfalse
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, InvalidOfferError
from .estimation import EpochLedger
from .model import (
    Catalog,
    ChoiceOutcome,
    ProductId,
    TieredOffer,
    _weight,
    expected_profit,
    sorted_ids,
    total_weight,
)
from .optimizer import (
    _check_weights,
    _pair_ids,
    _sweep,
    _tier1_prefix,
    _tier_maps,
    enumerate_prefix_pair_offers,
    profit_order,
    solve_tier1_given_tier2,  # not called here; perfbench/probe.py wraps it on this module
    solve_two_tier,
)

# Optimistic preference weight for a product with no completed epochs yet:
# the model's upper bound, kept strictly inside it so a genuinely estimated
# weight of 1.0 still sorts above a cold start.
COLD_START_UCB = 1.0 - 1e-9


class Policy:
    """Base sequential policy: ``offer`` then ``observe``, once per step.

    ``known_valuations`` carries the preference weights the seller already
    trusts (e.g. long-established products); policies that estimate may pin
    them instead of learning them.
    """

    name = "policy"

    def __init__(self, catalog: Catalog, rng, *, known_valuations: Mapping | None = None):
        self._catalog = catalog
        self._rng = rng
        known = dict(known_valuations or {})
        for i in sorted_ids(known):
            catalog.product(i)
            if not 0.0 <= known[i] <= 1.0:
                raise ConfigError(
                    f"known valuation for {i!r} must lie in [0, 1], got {known[i]!r}"
                )
        self._known = known

    def offer(self, t: int) -> TieredOffer:
        raise NotImplementedError

    def observe(self, t: int, offer: TieredOffer, outcome: ChoiceOutcome) -> None:
        pass


class OraclePolicy(Policy):
    """Clairvoyant benchmark: re-solves with the true valuations whenever the
    visible product set changes (i.e. at launches)."""

    name = "oracle"

    def __init__(self, catalog, rng, *, known_valuations=None, exact: bool = False):
        super().__init__(catalog, rng, known_valuations=known_valuations)
        self._exact = exact
        self._visible: frozenset | None = None
        self._current: TieredOffer | None = None

    def offer(self, t: int) -> TieredOffer:
        visible = self._catalog.visible_at(t)
        if visible != self._visible:
            self._visible = visible
            result = solve_two_tier(
                self._catalog,
                candidates_tier1=self._catalog.candidates_tier1 & visible,
                candidates_tier2=self._catalog.candidates_tier2 & visible,
                exact=self._exact,
            )
            self._current = result.offer
        return self._current


class _VisibleView:
    """What the UCB policies derive from one visible product set.

    ``unknown`` lists the visible ids whose weights are learned, in
    ``str(id)`` order, split into ``estimated`` (some completed epoch
    offered them; ``estimated_ranks`` holds their catalog ranks) and
    ``cold`` (none yet).  ``learning`` keeps those still short of the
    minimum-learning target.  Ledger counts only grow, so a product only
    ever moves from cold to estimated and out of learning.

    ``ids1``/``ids2`` are the visible tier-1 and tier-2 candidates in the
    catalog's canonical order, with their ranks and profits; when both
    tiers share one candidate set, ``ids2`` is ``ids1`` and the arrays are
    shared too.  ``rank1``/``pos2`` are the sweep's maps between the two
    orders (two ranges for a shared set).
    """

    __slots__ = (
        "unknown", "estimated", "estimated_ranks", "cold", "learning",
        "ids1", "ranks1", "profits1", "ids2", "ranks2", "profits2", "rank1", "pos2",
    )

    def __init__(self, catalog: Catalog, visible: frozenset, known: Mapping):
        self.unknown = tuple(i for i in sorted_ids(visible) if i not in known)
        self.estimated: tuple = ()
        self.estimated_ranks = catalog._indices(())
        self.cold = self.learning = self.unknown
        x1 = catalog.candidates_tier1 & visible
        x2 = catalog.candidates_tier2 & visible
        self.ids1 = profit_order(x1, catalog)
        self.ranks1 = catalog._indices(self.ids1)
        self.profits1 = catalog._profits[self.ranks1]
        if x1 == x2:
            self.ids2, self.ranks2, self.profits2 = self.ids1, self.ranks1, self.profits1
        else:
            self.ids2 = profit_order(x2, catalog)
            self.ranks2 = catalog._indices(self.ids2)
            self.profits2 = catalog._profits[self.ranks2]
        self.rank1, self.pos2 = _tier_maps(self.ids1, self.ids2)

    def update_estimated(self, catalog: Catalog, ledger: EpochLedger) -> None:
        if any(map(ledger.has_estimate, self.cold)):
            self.estimated = tuple(filter(ledger.has_estimate, self.unknown))
            self.estimated_ranks = catalog._indices(self.estimated)
            self.cold = tuple(filterfalse(ledger.has_estimate, self.unknown))

    def update_learning(self, ledger: EpochLedger, min_epochs: int) -> None:
        short = ledger.times_offered_many(self.learning) < min_epochs
        self.learning = tuple(compress(self.learning, short))


class _Tier1Frame:
    """The arrays one tier-2 epoch's tier-1 re-solves read: the forced
    products (``str(id)`` order) then the free tier-1 candidates (profit
    order), and the locked tier 2 in ``str(id)`` order."""

    __slots__ = ("free", "n_forced", "ids1", "ranks1", "profits1", "ids2", "ranks2", "profits2")

    def __init__(self, catalog: Catalog, view: _VisibleView, forced: frozenset, tier2: frozenset):
        self.free = [i for i in view.ids1 if i not in tier2 and i not in forced]
        self.n_forced = len(forced)
        self.ids1 = sorted_ids(forced) + self.free
        self.ranks1 = catalog._indices(self.ids1)
        self.profits1 = catalog._profits[self.ranks1]
        self.ids2 = sorted_ids(tier2)
        self.ranks2 = catalog._indices(self.ids2)
        self.profits2 = catalog._profits[self.ranks2]


class UcbTieredPolicy(Policy):
    """Optimistic epoch learner with a minimum-learning guarantee.

    At the start of each tier-2 epoch: build an optimistic valuation for
    every visible product (known weights pinned; estimated products get
    their UCB at the current epoch count; never-offered products get
    COLD_START_UCB), re-solve the two-tier problem, and append every
    under-learned product the solution skipped — the set H — to the second
    tier, where carrying an unknown product is provably the cheaper of the
    two placements.  The tier-2 set then stays frozen for the whole epoch;
    when an inner tier-1 epoch closes, only the tier-1 set is re-solved
    against the frozen tier 2.

    The valuation vector holds the known weights from construction on,
    COLD_START_UCB in every other slot until the product is estimated, and
    in the estimated slots the UCBs of the latest re-solve.
    ``full_resolves`` and ``tier1_resolves`` count the re-solves.

    A product counts as under-learned while the ledger has fewer than
    ``min_epochs`` completed epochs offering it and its weight is not known
    a priori.  Once learned, low-profit products simply stop being selected;
    nothing is force-dropped.
    """

    name = "ucb_tiered"

    def __init__(
        self,
        catalog,
        rng,
        *,
        min_epochs: int = 0,
        known_valuations: Mapping | None = None,
        confidence_scale: float | None = None,
    ):
        super().__init__(catalog, rng, known_valuations=known_valuations)
        if min_epochs < 0:
            raise ConfigError(f"min_epochs must be >= 0, got {min_epochs!r}")
        if confidence_scale is not None and not 0.0 <= confidence_scale < math.inf:
            raise ConfigError(
                f"confidence_scale must be finite and >= 0, got {confidence_scale!r}"
            )
        self.min_epochs = int(min_epochs)
        self.ledger = EpochLedger()
        self.full_resolves = 0
        self.tier1_resolves = 0
        self._confidence_scale = confidence_scale
        self._w = np.full(len(catalog.products), COLD_START_UCB)
        self._w[catalog._indices(self._known)] = np.fromiter(
            self._known.values(), dtype=float, count=len(self._known)
        )
        self._visible: frozenset = frozenset()
        self._views: dict[frozenset, _VisibleView] = {}
        self._view: _VisibleView | None = None
        self._frame: _Tier1Frame | None = None
        self._tier2_locked: frozenset = frozenset()
        self._forced_tier1: frozenset = frozenset()
        self._current: TieredOffer | None = None
        self._need_full = True
        self._need_tier1 = False

    # -- hooks ------------------------------------------------------------

    def _assign_forced(self, under_learned: tuple) -> tuple[tuple, tuple]:
        """Split the exploration set H into (tier-1 part, tier-2 part)."""
        return (), under_learned

    # -- mechanics ---------------------------------------------------------

    def _update_valuations(self, epoch: int) -> None:
        """Write the visible estimated products' UCBs at ``epoch`` into the
        valuation vector."""
        view = self._view
        view.update_estimated(self._catalog, self.ledger)
        if view.estimated:
            self._w[view.estimated_ranks] = self.ledger.valuation_ucb_many(
                view.estimated, epoch, len(self._visible), self._confidence_scale
            )

    def _gather(self, ranks, ids) -> np.ndarray:
        v = self._w[ranks]
        _check_weights(v, ids)
        return v

    def _start_epoch(self, t: int) -> None:
        self._visible = visible = self._catalog.visible_at(t)
        view = self._views.get(visible)
        if view is None:
            view = self._views[visible] = _VisibleView(self._catalog, visible, self._known)
        self._view = view
        self._update_valuations(self.ledger.completed)
        v1 = self._gather(view.ranks1, view.ids1)
        v2 = v1 if view.ids2 is view.ids1 else self._gather(view.ranks2, view.ids2)
        _, a, e = _sweep(view.profits1, v1, view.profits2, v2, view.rank1, view.pos2)
        self.full_resolves += 1
        tier1, tier2 = _pair_ids(view.ids1, view.ids2, view.rank1, a, e)
        # H: visible products not known a priori, shown in fewer than
        # min_epochs completed epochs, and skipped by the solution
        view.update_learning(self.ledger, self.min_epochs)
        selected = set(tier1).union(tier2)
        under = tuple(i for i in view.learning if i not in selected)
        forced1, forced2 = self._assign_forced(under)
        self._forced_tier1 = frozenset(forced1)
        self._tier2_locked = frozenset(tier2).union(forced2)
        self._current = TieredOffer.two_tier(
            self._forced_tier1.union(tier1), self._tier2_locked
        )
        self._frame = None
        self._need_full = False
        self._need_tier1 = False

    def _recompute_tier1(self) -> None:
        frame = self._frame
        if frame is None:  # first tier-1 re-solve of this tier-2 epoch
            frame = self._frame = _Tier1Frame(
                self._catalog, self._view, self._forced_tier1, self._tier2_locked
            )
        self._update_valuations(self.ledger.completed)
        v1 = self._gather(frame.ranks1, frame.ids1)
        v2 = self._gather(frame.ranks2, frame.ids2)
        a, _ = _tier1_prefix(frame.profits1, v1, frame.n_forced, frame.profits2, v2)
        self.tier1_resolves += 1
        self._current = TieredOffer.two_tier(
            self._forced_tier1.union(frame.free[:a]), self._tier2_locked
        )
        self._need_tier1 = False

    def offer(self, t: int) -> TieredOffer:
        if self._need_full or self._current is None:
            self._start_epoch(t)
        elif self._need_tier1:
            self._recompute_tier1()
        return self._current

    def observe(self, t, offer, outcome) -> None:
        events = self.ledger.record_step(offer, outcome)
        if events.closed_tier2 is not None:
            self._need_full = True
        elif events.closed_tier1 is not None:
            self._need_tier1 = True


class RandomTierLearningPolicy(UcbTieredPolicy):
    """UCB learner that flips a fair coin per exploration product to pick its
    tier, instead of always using the cheaper second tier.  Tier-1 picks stay
    forced through the epoch's tier-1 re-solves so their exposure matches the
    coin's intent."""

    name = "random_tier"

    def _assign_forced(self, under_learned):
        tier1, tier2 = [], []
        for i in under_learned:
            if self._rng.random() < 0.5:
                tier1.append(i)
            else:
                tier2.append(i)
        return tuple(tier1), tuple(tier2)


class ExploreThenExploitPolicy(Policy):
    """Count-based benchmark over the prefix-pair candidate offers.

    The candidate list is every prefix-pair offer, cycled in ascending
    (tier-1 cutoff, tier-2 cutoff) order.  After each full no-purchase the
    policy re-estimates every product's weight (never-offered products count
    as 0), prices all candidates, and either *explores* — serves the next
    candidate in cycle order whose estimated profit strictly beats the
    incumbent's and whose display count is under max(gamma * ln t, 1) — or,
    when none qualifies, *exploits*: the incumbent is re-pointed at the
    current estimated argmax and served.  The quota floor of one display
    means every candidate's first showing is always allowed.

    Ties in the argmax prefer more products shown (then a larger first
    tier), so the first incumbent under all-zero estimates displays the
    whole catalog.  Requires every product launched at t=0.
    """

    name = "explore_then_exploit"

    def __init__(self, catalog, rng, *, gamma: float = 30.0, known_valuations=None):
        super().__init__(catalog, rng, known_valuations=known_valuations)
        if gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {gamma!r}")
        late = [i for i in sorted_ids(catalog.ids) if catalog.product(i).launch_time > 0]
        if late:
            raise ConfigError(
                f"explore_then_exploit needs every product at launch_time 0; "
                f"{late[0]!r} launches later"
            )
        self.gamma = float(gamma)
        self.ledger = EpochLedger()
        self._products = sorted_ids(catalog.ids)
        self._profits = np.array([catalog.profit_of(i) for i in self._products])

        def cycle_key(offer):
            t1 = [catalog.profit_of(i) for i in offer.tier(0)]
            t2 = [catalog.profit_of(i) for i in offer.tier(1)]
            return (
                min(t1, default=math.inf),
                min(t2, default=math.inf),
                tuple(map(str, sorted_ids(offer.tier(0)))),
                tuple(map(str, sorted_ids(offer.tier(1)))),
            )

        self._offers = sorted(enumerate_prefix_pair_offers(catalog), key=cycle_key)
        col = {i: j for j, i in enumerate(self._products)}
        self._member1 = np.zeros((len(self._offers), len(self._products)))
        self._member2 = np.zeros_like(self._member1)
        for row, offer in enumerate(self._offers):
            for i in offer.tier(0):
                self._member1[row, col[i]] = 1.0
            for i in offer.tier(1):
                self._member2[row, col[i]] = 1.0
        self._sizes = self._member1.sum(axis=1) + self._member2.sum(axis=1)
        self._tier1_sizes = self._member1.sum(axis=1)
        self._counts = np.zeros(len(self._offers))
        self._incumbent: int | None = None
        self._cursor = 0
        self._current: int | None = None
        self._at_boundary = False

    def _candidate_values(self) -> np.ndarray:
        v = np.array(
            [
                self.ledger.valuation_estimate(i) if self.ledger.has_estimate(i) else 0.0
                for i in self._products
            ]
        )
        rv = self._profits * v
        denom1 = 1.0 + self._member1 @ v
        denom2 = 1.0 + self._member2 @ v
        return (self._member1 @ rv) / denom1 + (self._member2 @ rv) / (denom1 * denom2)

    def _argmax(self, values: np.ndarray) -> int:
        order = np.lexsort((self._tier1_sizes, self._sizes, values))
        return int(order[-1])

    def _choose(self, t: int) -> None:
        values = self._candidate_values()
        if self._incumbent is None:
            self._incumbent = self._argmax(values)
        quota = max(self.gamma * math.log(t), 1.0)
        eligible = (values > values[self._incumbent]) & (self._counts < quota)
        chosen = None
        for step in range(len(self._offers)):
            idx = (self._cursor + step) % len(self._offers)
            if eligible[idx]:
                chosen = idx
                self._cursor = idx + 1
                break
        if chosen is None:
            self._incumbent = self._argmax(values)
            chosen = self._incumbent
        self._current = chosen
        self._at_boundary = False

    def offer(self, t: int) -> TieredOffer:
        if self._current is None or self._at_boundary:
            self._choose(t)
        return self._offers[self._current]

    def observe(self, t, offer, outcome) -> None:
        self.ledger.record_step(offer, outcome)
        self._counts[self._current] += 1
        if not outcome.is_purchase:
            self._at_boundary = True


_POLICIES = {
    cls.name: cls
    for cls in (
        OraclePolicy,
        UcbTieredPolicy,
        RandomTierLearningPolicy,
        ExploreThenExploitPolicy,
    )
}


def _option_error(value, default) -> str | None:
    """Why ``value`` cannot stand in for an option whose default is
    ``default`` (None when it can): a bool default takes a bool, an int
    default an int (not a bool), and a float or None default a finite
    number (or None)."""
    if isinstance(default, bool):
        return None if type(value) is bool else "must be true or false"
    if isinstance(default, int):
        return None if type(value) is int else "must be an integer"
    if value is None and default is None:
        return None
    if type(value) in (int, float) and math.isfinite(value):
        return None
    return "must be a finite number" + (" or null" if default is None else "")


def make_policy(name: str, catalog: Catalog, rng, **kwargs) -> Policy:
    """Construct a policy by registry name.

    Known names: oracle, ucb_tiered, random_tier, explore_then_exploit.
    Option values are type-checked against the constructor's defaults;
    ``known_valuations`` is the base class's and is checked there.
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None
    params = {
        n: p for n, p in inspect.signature(cls).parameters.items() if p.kind is p.KEYWORD_ONLY
    }
    unknown = sorted(set(kwargs) - set(params))
    if unknown:
        raise ConfigError(
            f"policy {name!r} has no option {unknown[0]!r}; accepted options: {sorted(params)}"
        )
    for key in sorted(set(kwargs) - {"known_valuations"}):
        problem = _option_error(kwargs[key], params[key].default)
        if problem:
            raise ConfigError(f"policy {name!r} option {key!r} {problem}, got {kwargs[key]!r}")
    return cls(catalog, rng, **kwargs)


# --- per-epoch cost of carrying one exploration product -------------------------


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean, its standard error, and the number of replications."""

    mean: float
    std_error: float
    n_epochs: int


def _augmented(catalog, base_offer, product_id, tier_index, comparator):
    if len(base_offer.tiers) != 2:
        raise InvalidOfferError(
            f"epoch regret needs a two-tier base offer, got {len(base_offer.tiers)} tiers"
        )
    if tier_index not in (0, 1):
        raise InvalidOfferError(f"tier_index must be 0 or 1, got {tier_index!r}")
    catalog.product(product_id)
    if product_id in base_offer.all_ids:
        raise InvalidOfferError(f"product {product_id!r} is already in the base offer")
    tiers = [set(base_offer.tier(0)), set(base_offer.tier(1))]
    tiers[tier_index].add(product_id)
    augmented = TieredOffer.two_tier(tiers[0], tiers[1])
    return augmented, (base_offer if comparator is None else comparator)


def epoch_regret_closed_form(
    catalog: Catalog,
    base_offer: TieredOffer,
    product_id: ProductId,
    tier_index: int,
    *,
    valuations: Mapping | None = None,
    comparator: TieredOffer | None = None,
) -> float:
    """Expected one-epoch regret of adding ``product_id`` to a tier of
    ``base_offer``, against ``comparator`` (default: the base offer itself).

    The epoch runs until its tier's terminating no-purchase: a tier-1 epoch
    ends when a customer fails to buy from tier 1 (mean length 1 + V1), a
    tier-2 epoch at a full no-purchase (mean length (1+V1)(1+V2)), with V_k
    summed over the augmented offer.  Termination is decided per customer
    i.i.d., so Wald's identity gives

        G = E[epoch length] * (E[R(comparator)] - E[R(augmented)]).
    """
    augmented, comp = _augmented(catalog, base_offer, product_id, tier_index, comparator)
    v1 = total_weight(augmented.tier(0), catalog, valuations)
    if tier_index == 0:
        mean_length = 1.0 + v1
    else:
        v2 = total_weight(augmented.tier(1), catalog, valuations)
        mean_length = (1.0 + v1) * (1.0 + v2)
    shortfall = expected_profit(comp, catalog, valuations) - expected_profit(
        augmented, catalog, valuations
    )
    return mean_length * shortfall


def epoch_regret_monte_carlo(
    catalog: Catalog,
    base_offer: TieredOffer,
    product_id: ProductId,
    tier_index: int,
    n_epochs: int,
    rng: np.random.Generator,
    *,
    valuations: Mapping | None = None,
    comparator: TieredOffer | None = None,
) -> MonteCarloEstimate:
    """Simulate the one-epoch regret of ``epoch_regret_closed_form``.

    Each epoch is a run of i.i.d. categorical outcomes under the augmented
    offer, stopped at the first epoch-terminating event; the per-epoch
    regret is (length * E[R(comparator)]) minus realized revenue.  Sampling
    splits each epoch into a geometric length, the terminal outcome, and
    the non-terminal outcomes — the joint law is unchanged, but every draw
    vectorizes.
    """
    if n_epochs < 2:
        raise ConfigError(f"need at least 2 epochs for a standard error, got {n_epochs}")
    augmented, comp = _augmented(catalog, base_offer, product_id, tier_index, comparator)
    e_comp = expected_profit(comp, catalog, valuations)
    tier1 = sorted_ids(augmented.tier(0))
    tier2 = sorted_ids(augmented.tier(1))
    w1 = np.array([_weight(catalog, valuations, i) for i in tier1])
    w2 = np.array([_weight(catalog, valuations, i) for i in tier2])
    d1 = 1.0 + w1.sum()
    d2 = 1.0 + w2.sum()
    probs = np.concatenate([w1 / d1, w2 / (d1 * d2), [1.0 / (d1 * d2)]])
    revenue = np.array(
        [catalog.profit_of(i) for i in tier1]
        + [catalog.profit_of(i) for i in tier2]
        + [0.0]
    )
    # terminal events: for a tier-1 epoch anything past tier 1 ends it, for a
    # tier-2 epoch only the full no-purchase does
    terminal = np.zeros(len(probs), dtype=bool)
    terminal[-1] = True
    if tier_index == 0:
        terminal[len(tier1):] = True
    p_end = float(probs[terminal].sum())

    lengths = rng.geometric(p_end, size=n_epochs)
    revenue_totals = np.zeros(n_epochs)
    if p_end < 1.0:
        inner = lengths - 1
        epoch_of = np.repeat(np.arange(n_epochs), inner)
        cum = np.cumsum(probs[~terminal] / (1.0 - p_end))
        draws = np.searchsorted(cum, rng.random(int(inner.sum())), side="right")
        revenue_totals += np.bincount(
            epoch_of, weights=revenue[~terminal][draws], minlength=n_epochs
        )
    cum_end = np.cumsum(probs[terminal] / p_end)
    end_draws = np.searchsorted(cum_end, rng.random(n_epochs), side="right")
    revenue_totals += revenue[terminal][end_draws]
    g = lengths * e_comp - revenue_totals
    return MonteCarloEstimate(
        float(g.mean()), float(g.std(ddof=1) / math.sqrt(n_epochs)), n_epochs
    )
