"""Decision policies over the tiered purchase stream.

Every policy answers ``offer(t)`` before each customer and digests the
outcome in ``observe(t, offer, outcome)``; ``make_policy`` builds one by
registry name.  The learning policies keep an EpochLedger and re-decide at
their natural epoch boundaries, which they read off the (tier-1, tier-2)
pair of closed epochs ``record_step`` returns: the UCB family re-solves the
offline problem under optimistic valuations at the start of every tier-2
epoch (tier 1 alone is re-solved at intermediate tier-1 closures, with the
tier-2 set frozen by the epoch lock), while the explore-then-exploit
benchmark holds each candidate offer until a customer walks away with
nothing.

The UCB family decides in the catalog's canonical order: one valuation
vector indexed by catalog rank, solved through the optimizer's candidate
frames — a ``_PairFrame`` for the visible set in force and a
``_Tier1Frame`` per tier-2 epoch.  The ledger counts by the same ranks, so
the policies hand it ranks and never translate them.  The public
solvers solve through the same frames, so the offers equal theirs for the
same valuations.  A tier-1 re-solve keeping the prefix in force keeps
that offer object; a full re-solve keeps it only when its key (view, a, e,
learning) and forced split repeat the ones that built it.
Explore-then-exploit reads its estimates from the ledger as one vector.

Every policy, the oracle included, prices offers with the prefix-pair
family (``exact=False``), the same family the simulator's regret benchmark
maximizes over, so a policy is never judged against an optimum it was not
allowed to search; the exact completion, which may hit its work cap, stays
out of the decision loop.

``epoch_regret_closed_form`` / ``epoch_regret_monte_carlo`` price the
per-epoch cost of carrying one under-learned product in either tier of a
fixed offer; their tier-2 advantage is what justifies the UCB policy's
habit of parking exploration products in the second tier.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from itertools import compress
from typing import Mapping

import numpy as np

from .errors import ConfigError, InvalidOfferError
from .estimation import EpochLedger, _check_confidence_scale
from .model import (
    Catalog,
    ChoiceOutcome,
    ProductId,
    TieredOffer,
    _finite,
    _tier_lists,
    expected_profit,
    sorted_ids,
    total_weight,
)
from .optimizer import (
    _PairFrame,
    _Tier1Frame,
    enumerate_prefix_pair_offers,
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
            known[i] = _finite(known[i], ConfigError, f"known valuation for {i!r}")
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
    """Clairvoyant benchmark: re-solves the prefix-pair family with the true
    valuations whenever the visible product set changes (i.e. at launches)."""

    name = "oracle"

    def __init__(self, catalog, rng, *, known_valuations=None):
        super().__init__(catalog, rng, known_valuations=known_valuations)
        self._visible: frozenset | None = None
        self._current: TieredOffer | None = None

    def offer(self, t: int) -> TieredOffer:
        visible = self._catalog.visible_at(t)
        if visible is not self._visible:  # one set object per launch count
            self._visible = visible
            result = solve_two_tier(
                self._catalog,
                candidates_tier1=self._catalog.candidates_tier1 & visible,
                candidates_tier2=self._catalog.candidates_tier2 & visible,
                exact=False,
            )
            self._current = result.offer
        return self._current


class _VisibleView:
    """What the UCB policies derive from one visible product set.

    ``unknown`` lists the visible ids whose weights are learned, in
    ``str(id)`` order, and ``ranks`` their catalog ranks, which are also
    their ledger rows.  ``estimated_ranks`` keeps the ranks of those some
    completed epoch offered, and ``learning`` the ids still short of the
    minimum-learning target (ranks ``learning_ranks``).  Ledger counts only
    grow, by at most one per closed epoch, so a product only ever joins the
    estimated and leaves learning, not before ``ledger.completed`` reaches
    ``recheck``.  ``pair`` is the frame over the visible candidates.
    """

    __slots__ = (
        "unknown", "ranks", "estimated_ranks", "learning", "learning_ranks", "recheck", "pair"
    )

    def __init__(self, catalog: Catalog, visible: frozenset, known: Mapping):
        self.unknown = self.learning = tuple(i for i in sorted_ids(visible) if i not in known)
        self.ranks = self.learning_ranks = catalog._indices(self.unknown)
        self.estimated_ranks, self.recheck = self.ranks[:0], 0
        self.pair = _PairFrame(
            catalog, catalog.candidates_tier1 & visible, catalog.candidates_tier2 & visible
        )

    def update_estimated(self, ledger: EpochLedger) -> None:
        if len(self.estimated_ranks) < len(self.ranks):  # some product has no epoch yet
            self.estimated_ranks = self.ranks[ledger._epochs_total[self.ranks] > 0]

    def update_learning(self, ledger: EpochLedger, min_epochs: int) -> None:
        if not self.learning or ledger.completed < self.recheck:
            return
        counts = ledger._epochs_total[self.learning_ranks]
        short = counts < min_epochs
        if not short.all():  # the same tuple object until a product graduates
            self.learning = tuple(compress(self.learning, short))
            self.learning_ranks, counts = self.learning_ranks[short], counts[short]
        self.recheck = ledger.completed + min_epochs - int(counts.max(initial=0))


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
    ``full_resolves`` and ``tier1_resolves`` count the re-solves.  A full
    re-solve repeating the view, sweep indices (a, e), learning tuple and
    forced split that built the offer in force keeps it and its tier-1
    frame, until a tier-1 re-solve replaces it; any other builds a new
    offer, an equal one too.  ``random_tier`` still flips its coins.

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
        if type(min_epochs) is not int or min_epochs < 0:
            raise ConfigError(f"min_epochs must be an integer >= 0, got {min_epochs!r}")
        _check_confidence_scale(confidence_scale)
        self.min_epochs = min_epochs
        self.ledger = EpochLedger(catalog)
        self.full_resolves = 0
        self.tier1_resolves = 0
        self._confidence_scale = confidence_scale
        self._w = np.full(len(catalog.products), COLD_START_UCB)
        self._w[catalog._indices(self._known)] = np.fromiter(
            self._known.values(), dtype=float, count=len(self._known)
        )
        self._visible: frozenset | None = None
        self._view: _VisibleView | None = None  # of self._visible
        self._frame: _Tier1Frame | None = None  # built from self._view
        self._forced_tier1: frozenset = frozenset()
        self._current: TieredOffer | None = None
        self._tier1_a = 0  # free tier-1 prefix length of _current
        # the last full re-solve's key, (tier 1, tier 2, H) and forced split
        self._key = self._answer = self._split = None
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
        self._view.update_estimated(self.ledger)
        ranks = self._view.estimated_ranks
        if len(ranks):
            self._w[ranks] = self.ledger._ucb(ranks, epoch, len(self._visible), self._confidence_scale)

    def _start_epoch(self, t: int) -> None:
        visible = self._catalog.visible_at(t)
        if visible is not self._visible:  # one set object per launch count
            # visible sets only grow, so an earlier view is never needed again
            self._visible = visible
            self._view = _VisibleView(self._catalog, visible, self._known)
        view = self._view
        self._update_valuations(self.ledger.completed)
        _, a, e = view.pair.solve(self._w)
        self.full_resolves += 1
        # H: visible products not known a priori, shown in fewer than
        # min_epochs completed epochs, and skipped by the solution
        view.update_learning(self.ledger, self.min_epochs)
        key = (view, a, e, view.learning)
        if key != self._key:
            tier1, tier2 = view.pair.tiers(a, e)
            selected = set(tier1).union(tier2)
            under = tuple(i for i in view.learning if i not in selected)
            self._key, self._answer, self._split = key, (tier1, tier2, under), None
        tier1, tier2, under = self._answer
        split = self._assign_forced(under)
        if split != self._split:  # else the same key and split keep the offer and its frame
            self._split = split
            self._forced_tier1 = forced = frozenset(split[0])
            self._current = TieredOffer((forced.union(tier1), frozenset(tier2).union(split[1])))
            self._frame = None
        self._tier1_a = a
        self._need_full = self._need_tier1 = False

    def _recompute_tier1(self) -> None:
        tier2 = self._current.tiers[1]  # locked for the tier-2 epoch
        frame = self._frame
        if frame is None:  # first tier-1 re-solve of this tier-2 epoch
            frame = self._frame = _Tier1Frame(
                self._catalog, self._view.pair.ids1, self._forced_tier1, tier2
            )
        self._update_valuations(self.ledger.completed)
        a, _ = frame.solve(self._w)
        self.tier1_resolves += 1
        if a != self._tier1_a:  # the same prefix is the same offer
            self._tier1_a = a
            self._current = TieredOffer.two_tier(self._forced_tier1.union(frame.free[:a]), tier2)
            self._split = None  # no longer the offer the full re-solve built
        self._need_tier1 = False

    def offer(self, t: int) -> TieredOffer:
        if self._need_full:
            self._start_epoch(t)
        elif self._need_tier1:
            self._recompute_tier1()
        return self._current

    def observe(self, t, offer, outcome) -> None:
        closed = self.ledger.record_step(offer, outcome)
        if closed[1] is not None:
            self._need_full = True
        elif closed[0] is not None:
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
        self.gamma = _finite(gamma, ConfigError, "gamma")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {gamma!r}")
        late = [i for i in sorted_ids(catalog.ids) if catalog.product(i).launch_time > 0]
        if late:
            raise ConfigError(
                f"explore_then_exploit needs every product at launch_time 0; "
                f"{late[0]!r} launches later"
            )
        self.ledger = EpochLedger(catalog)
        self._products = sorted_ids(catalog.ids)
        self._ranks = catalog._indices(self._products)
        self._profits = catalog._profits[self._ranks]

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
        v = self.ledger._means(self._ranks)
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
        eligible = np.flatnonzero((values > values[self._incumbent]) & (self._counts < quota))
        if len(eligible):  # the first eligible index in cycle order from the cursor
            start = self._cursor % len(self._offers)
            chosen = int(eligible[np.searchsorted(eligible, start) % len(eligible)])
            self._cursor = chosen + 1
        else:
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
    # an int default takes an int (not a bool), a float or None default a
    # finite number (or None)
    for key in sorted(set(kwargs) - {"known_valuations"}):
        value, default, what = kwargs[key], params[key].default, f"policy {name!r} option {key!r}"
        if isinstance(default, int) and type(value) is not int:
            raise ConfigError(f"{what} must be an integer, got {value!r}")
        if not isinstance(default, int) and (value is not None or default is not None):
            _finite(value, ConfigError, what)
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
    if type(n_epochs) is not int or n_epochs < 2:
        raise ConfigError(f"n_epochs must be an integer, at least 2 for a standard error, got {n_epochs!r}")
    augmented, comp = _augmented(catalog, base_offer, product_id, tier_index, comparator)
    e_comp = expected_profit(comp, catalog, valuations)
    (tier1, r1, w1), (_, r2, w2) = _tier_lists(augmented.tiers, catalog, valuations)
    w1, w2 = np.array(w1), np.array(w2)
    d1 = 1.0 + w1.sum()
    d2 = 1.0 + w2.sum()
    probs = np.concatenate([w1 / d1, w2 / (d1 * d2), [1.0 / (d1 * d2)]])
    revenue = np.array(r1 + r2 + [0.0])
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
