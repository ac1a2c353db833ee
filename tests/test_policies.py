"""Policy behavior tests.

Structural properties of the learning policies (epoch locking, liveness of
under-learned products, reduction to the offline optimum once nothing is
left to learn) are checked on seeded simulated runs; the per-epoch cost of
carrying one extra product is checked against hand-derived closed forms and
Monte Carlo replication.
"""

import dataclasses
import math
import re
import types

import numpy as np
import pytest

from tieredmnl.errors import ConfigError, InvalidOfferError, UnknownProductError
from tieredmnl.estimation import UCB_CONFIDENCE_SCALE
from tieredmnl.model import (
    Catalog,
    ChoiceSampler,
    Product,
    TieredOffer,
    expected_profit,
    expected_profit_single_tier,
    sorted_ids,
)
from tieredmnl.optimizer import (
    _tier1_prefix,
    enumerate_prefix_pair_offers,
    solve_tier1_given_tier2,
    solve_two_tier,
)
from tieredmnl.policies import (
    COLD_START_UCB,
    ExploreThenExploitPolicy,
    OraclePolicy,
    RandomTierLearningPolicy,
    UcbTieredPolicy,
    _VisibleView,
    epoch_regret_closed_form,
    epoch_regret_monte_carlo,
    make_policy,
)
from tieredmnl.rng import BufferedRandom
from tieredmnl.simulator import (
    ExperimentConfig,
    PolicySpec,
    ProductGroup,
    experiment_preset,
    run,
)


def small_catalog() -> Catalog:
    return Catalog(
        (
            Product("a", 3.0, 0.5),
            Product("b", 2.0, 0.4),
            Product("c", 1.0, 0.6),
            Product("d", 0.8, 0.3),
        )
    )


def run_policy(policy, catalog, n_steps, seed):
    """Drive a policy against sampled customers; returns the offer history."""
    rng = BufferedRandom(np.random.default_rng(seed))
    offers = []
    for t in range(1, n_steps + 1):
        offer = policy.offer(t)
        outcome = ChoiceSampler(offer, catalog).sample(rng)
        policy.observe(t, offer, outcome)
        offers.append((offer, outcome))
    return offers


class _ScriptedCoin:
    """rng stub yielding a fixed uniform value forever."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class _CountingRandom:
    """rng wrapper counting the uniforms drawn through it."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.inner.random()


class TestOraclePolicy:
    def test_serves_offline_optimum(self):
        catalog = small_catalog()
        policy = OraclePolicy(catalog, np.random.default_rng(0))
        want = solve_two_tier(catalog, exact=False).offer
        assert policy.offer(1) == want
        assert policy.offer(50) == want

    def test_resolves_at_launches(self):
        catalog = Catalog(
            (
                Product("a", 3.0, 0.5),
                Product("b", 2.0, 0.4),
                Product("big", 9.0, 0.9, launch_time=10),
            )
        )
        policy = OraclePolicy(catalog, np.random.default_rng(0))
        assert "big" not in policy.offer(9).all_ids
        late = policy.offer(10)
        assert "big" in late.all_ids
        want = solve_two_tier(
            catalog,
            candidates_tier1=catalog.visible_at(10),
            candidates_tier2=catalog.visible_at(10),
            exact=False,
        ).offer
        assert late == want


class TestUcbTieredPolicy:
    def test_reduces_to_offline_optimum_when_all_known(self):
        """With every weight known and nothing to learn, the policy serves
        the offline optimum at every step."""
        catalog = small_catalog()
        truth = {p.id: p.valuation for p in catalog.products}
        policy = UcbTieredPolicy(
            catalog, np.random.default_rng(0), known_valuations=truth
        )
        want = solve_two_tier(catalog, exact=False).offer
        for offer, _ in run_policy(policy, catalog, 200, seed=1):
            assert offer == want

    def test_under_learned_products_always_offered(self):
        """Until a product has min_epochs completed epochs of exposure it is
        carried in the offer — the minimum-learning constraint."""
        catalog = small_catalog()
        policy = UcbTieredPolicy(catalog, np.random.default_rng(0), min_epochs=8)
        for t in range(1, 301):
            offer = policy.offer(t)
            for p in catalog.products:
                if policy.ledger.times_offered(p.id) < 8:
                    assert p.id in offer.all_ids
            outcome = ChoiceSampler(offer, catalog).sample(
                BufferedRandom(np.random.default_rng(1000 + t))
            )
            policy.observe(t, offer, outcome)
        # by now everything is learned well past the floor
        assert all(policy.ledger.times_offered(p.id) >= 8 for p in catalog.products)

    def test_exploration_parks_in_tier_two(self):
        """At each tier-2 epoch boundary the offer equals the optimistic
        re-solve with every skipped under-learned product appended to tier 2
        (tier 1 gains nothing beyond the solver's own picks)."""
        catalog = small_catalog()
        policy = UcbTieredPolicy(catalog, np.random.default_rng(0), min_epochs=50)
        rng = BufferedRandom(np.random.default_rng(2))
        boundary = True
        boundaries = 0
        for t in range(1, 401):
            if boundary:
                ledger = policy.ledger
                values = {
                    p.id: (
                        ledger.valuation_ucb(p.id, ledger.completed, 4)
                        if ledger.has_estimate(p.id)
                        else COLD_START_UCB
                    )
                    for p in catalog.products
                }
                solved = solve_two_tier(catalog, valuations=values, exact=False).offer
                under = frozenset(
                    p.id
                    for p in catalog.products
                    if ledger.times_offered(p.id) < 50
                    and p.id not in solved.all_ids
                )
                want = TieredOffer.two_tier(solved.tier(0), solved.tier(1) | under)
                boundaries += 1
            offer = policy.offer(t)
            if boundary:
                assert offer == want
            outcome = ChoiceSampler(offer, catalog).sample(rng)
            policy.observe(t, offer, outcome)
            boundary = not outcome.is_purchase
        assert boundaries > 20

    def test_tier2_locked_until_walkaway(self):
        """The tier-2 set changes only at full no-purchase boundaries; the
        tier-1 set may change whenever a tier-1 epoch closed."""
        catalog = small_catalog()
        policy = UcbTieredPolicy(catalog, np.random.default_rng(0), min_epochs=5)
        history = run_policy(policy, catalog, 400, seed=3)
        for (prev_offer, prev_outcome), (offer, _) in zip(history, history[1:]):
            if prev_outcome.is_purchase:
                assert offer.tier(1) == prev_offer.tier(1)
            if prev_outcome.is_purchase and prev_outcome.tier == 0:
                # nothing closed: the whole offer is held
                assert offer == prev_offer

    def test_rejects_bad_configuration(self):
        catalog = small_catalog()
        with pytest.raises(ConfigError):
            UcbTieredPolicy(catalog, np.random.default_rng(0), min_epochs=-1)
        with pytest.raises(ConfigError):
            UcbTieredPolicy(
                catalog, np.random.default_rng(0), known_valuations={"a": 1.5}
            )
        with pytest.raises(UnknownProductError):
            UcbTieredPolicy(
                catalog, np.random.default_rng(0), known_valuations={"zz": 0.5}
            )


def reference_optimistic_valuations(policy, epoch, visible=None):
    """The per-product loop behind the optimistic valuations: known weights
    pinned, the scalar index for estimated products, COLD_START_UCB for the
    rest."""
    ledger = policy.ledger
    visible = policy._visible if visible is None else visible
    scale = policy._confidence_scale
    scale = UCB_CONFIDENCE_SCALE if scale is None else scale
    values = {}
    for i in sorted_ids(visible):
        if i in policy._known:
            values[i] = policy._known[i]
        elif ledger.has_estimate(i):
            epochs = ledger.times_offered(i)
            mean = ledger.purchase_total(i) / epochs
            rounds = max(epoch - ledger.launch_epoch(i), 0)
            pad = scale * math.log(len(visible) * rounds + 1.0) / epochs
            values[i] = mean + math.sqrt(mean * pad) + pad
        else:
            values[i] = COLD_START_UCB
    return values


class TestOptimisticValuations:
    def launch_catalog(self):
        rng = np.random.default_rng(31)
        return Catalog(
            tuple(
                Product(
                    f"p{k:02d}",
                    float(rng.uniform(0, 1)),
                    float(rng.uniform(0, 0.2)),
                    launch_time=0 if k < 12 else 40 * (k - 11),
                )
                for k in range(24)
            )
        )

    @pytest.mark.parametrize("policy_cls", [UcbTieredPolicy, RandomTierLearningPolicy])
    @pytest.mark.parametrize("scale", [None, 4.8])
    def test_vector_path_equals_scalar_loop(self, policy_cls, scale):
        """Every visible slot of the valuation vector equals the scalar
        formula, bit for bit, at past, current and future epoch counts."""
        catalog = self.launch_catalog()
        known = {"p00": 0.05, "p03": 0.15, "p13": 0.1}
        policy = policy_cls(
            catalog,
            BufferedRandom(np.random.default_rng(5)),
            min_epochs=30,
            known_valuations=known,
            confidence_scale=scale,
        )
        rng = BufferedRandom(np.random.default_rng(6))
        mixed = 0
        for t in range(1, 601):
            offer = policy.offer(t)
            if t % 3 == 0 or t % 40 == 0:
                completed = policy.ledger.completed
                for epoch in (0, completed // 3, completed, completed + 17):
                    policy._update_valuations(epoch)
                    got = {i: float(policy._w[catalog._rank[i]]) for i in policy._visible}
                    assert got == reference_optimistic_valuations(policy, epoch)
                kinds = {
                    "known" if i in known
                    else "estimated" if policy.ledger.has_estimate(i)
                    else "cold"
                    for i in policy._visible
                }
                mixed += kinds == {"known", "estimated", "cold"}
            outcome = ChoiceSampler(offer, catalog).sample(rng)
            policy.observe(t, offer, outcome)
        assert mixed > 0


    def test_rows_follow_a_view_gaining_estimates(self):
        """With every product launched at t=0 the policy keeps one visible
        view object, whose estimated products' ranks grow as epochs close;
        every re-solve writes the scalar loop's values."""
        rng = np.random.default_rng(32)
        catalog = Catalog(
            tuple(
                Product(f"p{k:02d}", float(rng.uniform(0, 1)), float(rng.uniform(0, 0.3)))
                for k in range(16)
            )
        )
        policy = UcbTieredPolicy(
            catalog,
            BufferedRandom(np.random.default_rng(7)),
            min_epochs=3,
            known_valuations={"p05": 0.2},
            confidence_scale=4.8,
        )
        customers = BufferedRandom(np.random.default_rng(8))
        sizes, views = [], []
        for t in range(1, 401):
            resolves = policy.full_resolves + policy.tier1_resolves
            offer = policy.offer(t)
            views.append(policy._view)
            if policy.full_resolves + policy.tier1_resolves != resolves:
                got = {i: float(policy._w[catalog._rank[i]]) for i in policy._visible}
                assert got == reference_optimistic_valuations(policy, policy.ledger.completed)
                view = policy._view
                assert view.estimated_ranks.tolist() == [
                    catalog._rank[i] for i in view.unknown if policy.ledger.has_estimate(i)
                ]
                sizes.append(len(view.estimated_ranks))
            policy.observe(t, offer, ChoiceSampler(offer, catalog).sample(customers))
        assert all(view is views[0] for view in views)
        assert len(set(sizes) - {0}) >= 2


class TestLearningBound:
    """``_VisibleView.update_learning`` skips its check until some learning
    product could have closed its shortfall; at every full re-solve the
    learning tuple must still be the naive filter of the ledger's counts."""

    CONFIGS = {
        "preset2": dataclasses.replace(experiment_preset(2)[0], horizon=2500),
        "launch": ExperimentConfig(
            label="learning-launch",
            horizon=1500,
            groups=(
                ProductGroup(14, (0.0, 1.0), (0.0, 0.1)),
                ProductGroup(2, (0.3, 0.9), (0.0, 0.1), valuation_known=True),
                ProductGroup(4, (0.0, 0.2), (0.0, 0.1), launch_time=300, launch_spacing=250),
            ),
            policies=(PolicySpec("ucb_tiered", {"min_epochs": 20, "confidence_scale": 4.8}),),
            base_seed=1729,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_learning_equals_the_naive_filter(self, name, monkeypatch):
        config = self.CONFIGS[name]
        spec = next(p for p in config.policies if p.name == "ucb_tiered")
        min_epochs = spec.options["min_epochs"]
        update = _VisibleView.update_learning
        calls, sizes = [], set()

        def checked(view, ledger, epochs):
            update(view, ledger, epochs)
            want = tuple(i for i in view.unknown if ledger.times_offered(i) < min_epochs)
            assert epochs == min_epochs and view.learning == want
            assert view.learning_ranks.tolist() == [ledger._catalog._rank[i] for i in want]
            calls.append(view.recheck)
            sizes.add(len(want))

        monkeypatch.setattr(_VisibleView, "update_learning", checked)
        run(config, spec, seed=0)
        assert len(calls) > 100 and len(sizes) >= 3  # products graduate over the run

    def test_a_product_in_every_epoch_graduates_on_time(self):
        """The bound is tight: p0, offered by every closed epoch, must leave
        learning at the first check where its count reaches min_epochs; p1
        is offered by every other epoch and p2 by none."""
        catalog = Catalog(tuple(Product(f"p{k}", 1.0 - 0.1 * k, 0.1) for k in range(3)))
        view = _VisibleView(catalog, catalog.ids, {})
        ledger = types.SimpleNamespace(completed=0, _epochs_total=np.zeros(3, dtype=np.int64))
        for completed in range(1, 13):
            ledger.completed = completed
            ledger._epochs_total += [1, completed % 2, 0]
            view.update_learning(ledger, 5)
            counts = ledger._epochs_total.tolist()
            assert view.learning == tuple(i for i in view.unknown if counts[catalog._rank[i]] < 5)
        assert view.learning == ("p2",)


def shaped_catalog(shape, rng):
    """Launch catalogs for the decision-path equivalence tests: shared
    candidate sets, disjoint ones shaped like preset 3 (known products in
    both tiers plus unknown tier-2 products) and random overlapping ones."""
    if shape == "disjoint":
        spec = [(8, (0.5, 1.0), (0.0, 0.1), {1}, True),
                (10, (0.0, 0.6), (0.0, 0.2), {2}, True),
                (8, (0.0, 0.55), (0.0, 0.3), {2}, False)]
    else:
        spec = [(18, (0.0, 1.0), (0.0, 0.2), {1, 2}, False),
                (3, (0.3, 0.9), (0.0, 0.2), {1, 2}, True),
                (5, (0.0, 0.3), (0.0, 0.2), {1, 2}, False)]
    products, known, x1, x2 = [], {}, [], []
    for g, (count, profit, weight, tiers, is_known) in enumerate(spec):
        for k in range(count):
            pid = f"g{g}p{k:02d}"
            launch = 60 * (k + 1) if g == 2 and shape != "disjoint" else 0
            products.append(
                Product(pid, float(rng.uniform(*profit)), float(rng.uniform(*weight)), launch)
            )
            if shape == "overlapping":
                tiers = {1, 2} - {int(rng.integers(0, 4))}  # drops tier 1 or 2 at times
            if 1 in tiers:
                x1.append(pid)
            if 2 in tiers:
                x2.append(pid)
            if is_known:
                known[pid] = products[-1].valuation
    return Catalog(tuple(products), x1, x2), known


class TestArrayDecisionPath:
    """The policy's gathered-array re-solves against the public solvers fed
    the reference valuation dict, at every re-solve of a run."""

    @pytest.mark.parametrize("policy_cls", [UcbTieredPolicy, RandomTierLearningPolicy])
    @pytest.mark.parametrize("shape", ["shared", "disjoint", "overlapping"])
    def test_resolves_match_public_solvers(self, policy_cls, shape):
        rng = np.random.default_rng(["shared", "disjoint", "overlapping"].index(shape) + 90)
        catalog, known = shaped_catalog(shape, rng)
        policy = policy_cls(
            catalog,
            BufferedRandom(np.random.default_rng(3)),
            min_epochs=15,
            known_valuations=known,
            confidence_scale=4.8,
        )
        customers = BufferedRandom(np.random.default_rng(4))
        full = tier1 = forced_steps = 0
        for t in range(1, 1201):
            if policy._need_full or policy._current is None:
                visible = catalog.visible_at(t)
                values = reference_optimistic_valuations(policy, policy.ledger.completed, visible)
                ref = solve_two_tier(
                    catalog,
                    valuations=values,
                    candidates_tier1=catalog.candidates_tier1 & visible,
                    candidates_tier2=catalog.candidates_tier2 & visible,
                    exact=False,
                ).offer
                learning = {
                    i for i in visible
                    if i not in known and policy.ledger.times_offered(i) < 15
                }
                offer = policy.offer(t)
                full += 1
                forced1 = policy._forced_tier1
                forced2 = policy._current.tiers[1] - ref.tier(1)
                assert offer.tier(0) == ref.tier(0) | forced1
                assert offer.tier(1) == ref.tier(1) | forced2
                assert forced1 | forced2 == learning - ref.all_ids
                forced_steps += bool(forced1 or forced2)
            elif policy._need_tier1:
                values = reference_optimistic_valuations(policy, policy.ledger.completed)
                locked = policy._current.tiers[1]
                want, _ = solve_tier1_given_tier2(
                    catalog,
                    locked,
                    valuations=values,
                    candidates_tier1=catalog.candidates_tier1 & policy._visible,
                    forced_tier1=policy._forced_tier1,
                )
                offer = policy.offer(t)
                tier1 += 1
                assert offer == TieredOffer.two_tier(want, locked)
            else:
                offer = policy.offer(t)
            policy.observe(t, offer, ChoiceSampler(offer, catalog).sample(customers))
        assert (policy.full_resolves, policy.tier1_resolves) == (full, tier1)
        assert full > 50 and tier1 > 50 and forced_steps > 0

    def test_repeated_tier1_answer_keeps_the_offer(self):
        """A tier-1 re-solve that picks the same prefix as the offer in
        force returns that very offer object; a new prefix builds a new
        one."""
        rng = np.random.default_rng(91)
        catalog, known = shaped_catalog("shared", rng)
        policy = UcbTieredPolicy(
            catalog,
            BufferedRandom(np.random.default_rng(3)),
            min_epochs=15,
            known_valuations=known,
            confidence_scale=4.8,
        )
        customers = BufferedRandom(np.random.default_rng(4))
        kept = changed = 0
        previous = None
        for t in range(1, 1201):
            tier1_resolve = policy._need_tier1 and not policy._need_full
            before = policy._tier1_a
            offer = policy.offer(t)
            if tier1_resolve:
                if policy._tier1_a == before:
                    assert offer is previous
                    kept += 1
                else:
                    assert offer.tier(0) != previous.tier(0)
                    assert offer.tier(1) == previous.tier(1)
                    changed += 1
            previous = offer
            policy.observe(t, offer, ChoiceSampler(offer, catalog).sample(customers))
        assert kept > 50 and changed > 0

    @pytest.mark.parametrize("policy_cls", [UcbTieredPolicy, RandomTierLearningPolicy])
    def test_repeated_full_answer_keeps_the_offer(self, policy_cls):
        """A full re-solve keeps the offer in force, as the same object,
        exactly when its key (view, a, e, learning) and forced split repeat
        those of the full re-solve that built it; any other full re-solve
        builds a new object, an equal one included."""
        rng = np.random.default_rng(93)
        catalog, known = shaped_catalog("shared", rng)
        policy = policy_cls(
            catalog,
            BufferedRandom(np.random.default_rng(5)),
            min_epochs=15,
            known_valuations=known,
            confidence_scale=4.8,
        )
        customers = BufferedRandom(np.random.default_rng(6))
        kept = equal_rebuilt = 0
        for t in range(1, 1201):
            full = policy._need_full or policy._current is None
            previous, built_by = policy._current, (policy._key, policy._split)
            offer = policy.offer(t)
            if full:
                assert (offer is previous) == ((policy._key, policy._split) == built_by)
                kept += offer is previous
                equal_rebuilt += offer is not previous and offer == previous
            policy.observe(t, offer, ChoiceSampler(offer, catalog).sample(customers))
        assert kept > 100 and equal_rebuilt > 0

    @pytest.mark.parametrize("policy_cls", [UcbTieredPolicy, RandomTierLearningPolicy])
    @pytest.mark.parametrize("shape", ["shared", "disjoint", "overlapping"])
    def test_full_resolve_serves_the_offer_built_from_scratch(self, policy_cls, shape):
        """At every full re-solve the served offer is the pair frame's tiers
        for the sweep's (a, e) plus the forced split of H, rebuilt from
        scratch, and the offer in force comes back as the same object
        exactly when the view, (a, e), the learning set and the forced split
        all repeat those that built it, with no tier-1 change since.  The
        shared and overlapping catalogs launch products as they run."""
        rng = np.random.default_rng(["shared", "disjoint", "overlapping"].index(shape) + 97)
        catalog, known = shaped_catalog(shape, rng)
        policy = policy_cls(
            catalog,
            BufferedRandom(np.random.default_rng(5)),
            min_epochs=15,
            known_valuations=known,
            confidence_scale=4.8,
        )
        splits = []
        assign = policy._assign_forced

        def record(under):
            splits.append((under, assign(under)))
            return splits[-1][1]

        policy._assign_forced = record
        customers = BufferedRandom(np.random.default_rng(6))
        kept = built = 0
        previous = built_by = None  # the offer in force and its full re-solve's inputs
        for t in range(1, 1201):
            full = policy._need_full or policy._current is None
            learning = [
                i for i in sorted_ids(catalog.visible_at(t))
                if i not in known and policy.ledger.times_offered(i) < 15
            ]
            offer = policy.offer(t)
            if full:
                pair = policy._view.pair
                _, a, e = pair.solve(policy._w)
                tier1, tier2 = pair.tiers(a, e)
                under, (forced1, forced2) = splits[-1]
                assert under == tuple(i for i in learning if i not in {*tier1, *tier2})
                want = TieredOffer.two_tier({*tier1, *forced1}, {*tier2, *forced2})
                assert offer == want
                inputs = (policy._view, a, e, learning, forced1, forced2)
                same = inputs == built_by
                assert (offer is previous) == same
                kept += same
                built += not same
                built_by = inputs
            elif offer is not previous:  # a tier-1 re-solve changed the offer
                built_by = None
            previous = offer
            policy.observe(t, offer, ChoiceSampler(offer, catalog).sample(customers))
        assert len(splits) == policy.full_resolves == kept + built
        assert kept > 100 and built > 10

    @pytest.mark.parametrize(
        "shape, full, tier1, draws",
        [("shared", 502, 363, 193), ("disjoint", 512, 386, 57), ("overlapping", 513, 394, 196)],
    )
    def test_random_tier_coin_count_is_pinned(self, shape, full, tier1, draws):
        """``random_tier`` flips its coins at every full re-solve, the kept
        ones included, so its policy stream sits where it sat when every
        re-solve rebuilt the offer (counts recorded from that code)."""
        rng = np.random.default_rng(["shared", "disjoint", "overlapping"].index(shape) + 97)
        catalog, known = shaped_catalog(shape, rng)
        coins = _CountingRandom(BufferedRandom(np.random.default_rng(5)))
        policy = RandomTierLearningPolicy(
            catalog, coins, min_epochs=15, known_valuations=known, confidence_scale=4.8
        )
        run_policy(policy, catalog, 1200, 6)
        assert (policy.full_resolves, policy.tier1_resolves, coins.draws) == (full, tier1, draws)

    def test_no_offer_survives_a_view_change(self):
        """A launch brings a new view, so the next full re-solve builds a new
        offer object, and the tier-1 frame built after it comes from the new
        view: the launched products may join tier 1 at the next tier-1
        re-solve."""
        rng = np.random.default_rng(94)
        catalog, known = shaped_catalog("shared", rng)
        policy = UcbTieredPolicy(
            catalog,
            BufferedRandom(np.random.default_rng(7)),
            known_valuations=known,
            confidence_scale=4.8,
        )
        customers = BufferedRandom(np.random.default_rng(8))
        crossed = equal = 0
        for t in range(1, 400):
            view, previous = policy._view, policy._current
            offer = policy.offer(t)
            if view is not None and policy._view is not view:
                assert offer is not previous and policy._frame is None
                crossed += 1
                equal += offer == previous
            if policy._frame is not None:
                tier2 = policy._current.tiers[1]
                assert policy._frame.free == [
                    i for i in policy._view.pair.ids1
                    if i not in tier2 and i not in policy._forced_tier1
                ]
            policy.observe(t, offer, ChoiceSampler(offer, catalog).sample(customers))
        assert crossed > 0 and equal > 0

    @pytest.mark.parametrize("shape", ["shared", "overlapping"])
    def test_tier1_frame_prices_like_the_public_solver(self, shape):
        """The tier-1 frame hands the core the public solver's inputs in the
        public solver's order (tier 2 summed in id order), so the value it
        prices is the same float."""
        rng = np.random.default_rng(["shared", "overlapping"].index(shape) + 95)
        catalog, known = shaped_catalog(shape, rng)
        policy = UcbTieredPolicy(
            catalog,
            BufferedRandom(np.random.default_rng(3)),
            min_epochs=15,
            known_valuations=known,
            confidence_scale=4.8,
        )
        customers = BufferedRandom(np.random.default_rng(4))
        checked = 0
        for t in range(1, 1201):
            tier1_resolve = policy._need_tier1 and not policy._need_full
            offer = policy.offer(t)
            if tier1_resolve:
                frame = policy._frame
                got = _tier1_prefix(
                    frame.profits1,
                    policy._w[frame.ranks1].tolist(),
                    frame.n_forced,
                    frame.profits2,
                    policy._w[frame.ranks2].tolist(),
                )
                want = solve_tier1_given_tier2(
                    catalog,
                    policy._current.tiers[1],
                    valuations=reference_optimistic_valuations(policy, policy.ledger.completed),
                    candidates_tier1=catalog.candidates_tier1 & policy._visible,
                    forced_tier1=policy._forced_tier1,
                )
                assert got[1] == want[1]
                assert policy._forced_tier1.union(frame.free[: got[0]]) == want[0]
                checked += 1
            policy.observe(t, offer, ChoiceSampler(offer, catalog).sample(customers))
        assert checked > 50

    def test_non_finite_weight_in_the_vector_is_rejected(self):
        catalog = small_catalog()
        policy = UcbTieredPolicy(catalog, np.random.default_rng(0))
        policy._w[catalog._rank["b"]] = math.nan
        with pytest.raises(InvalidOfferError, match="'b'"):
            policy.offer(1)


class TestRandomTierPolicy:
    def test_heads_forces_exploration_into_tier_one(self):
        """With every coin landing on tier 1, the exploration set the
        optimistic solve skipped is carried in tier 1 instead of tier 2."""
        catalog = small_catalog()
        values = {p.id: COLD_START_UCB for p in catalog.products}
        solved = solve_two_tier(catalog, valuations=values, exact=False).offer
        skipped = frozenset(p.id for p in catalog.products) - solved.all_ids
        assert skipped  # the scenario exercises a non-trivial forced set
        heads = RandomTierLearningPolicy(catalog, _ScriptedCoin(0.0), min_epochs=50)
        assert heads.offer(1) == TieredOffer.two_tier(
            solved.tier(0) | skipped, solved.tier(1)
        )
        tails = RandomTierLearningPolicy(catalog, _ScriptedCoin(0.9), min_epochs=50)
        assert tails.offer(1) == TieredOffer.two_tier(
            solved.tier(0), solved.tier(1) | skipped
        )

    def test_tails_matches_plain_ucb(self):
        """With every coin landing on tier 2 the policy is the plain UCB
        learner: identical offers on an identical outcome stream."""
        catalog = small_catalog()
        coin = RandomTierLearningPolicy(catalog, _ScriptedCoin(0.9), min_epochs=10)
        plain = UcbTieredPolicy(catalog, np.random.default_rng(0), min_epochs=10)
        rng = BufferedRandom(np.random.default_rng(7))
        for t in range(1, 201):
            offer_a = coin.offer(t)
            offer_b = plain.offer(t)
            assert offer_a == offer_b
            outcome = ChoiceSampler(offer_a, catalog).sample(rng)
            coin.observe(t, offer_a, outcome)
            plain.observe(t, offer_b, outcome)

    def test_forced_tier_one_products_survive_inner_resolves(self):
        """A tier-1 exploration slot stays through the epoch's tier-1
        re-solves even though its estimate would not merit the spot."""
        catalog = small_catalog()
        policy = RandomTierLearningPolicy(catalog, _ScriptedCoin(0.0), min_epochs=50)
        rng = BufferedRandom(np.random.default_rng(11))
        forced_seen = 0
        for t in range(1, 301):
            offer = policy.offer(t)
            for i in policy._forced_tier1:
                assert i in offer.tier(0)
            forced_seen += len(policy._forced_tier1)
            outcome = ChoiceSampler(offer, catalog).sample(rng)
            policy.observe(t, offer, outcome)
        assert forced_seen > 0


class TestExploreThenExploit:
    def test_first_offer_shows_everything_in_tier_one(self):
        """All-zero estimates tie every candidate at value 0; the tie-break
        (more products, then a larger first tier) serves the full catalog."""
        catalog = small_catalog()
        policy = ExploreThenExploitPolicy(catalog, np.random.default_rng(0))
        offer = policy.offer(1)
        assert offer.tier(0) == frozenset(p.id for p in catalog.products)
        assert offer.tier(1) == frozenset()

    def test_offer_held_until_walkaway(self):
        catalog = small_catalog()
        policy = ExploreThenExploitPolicy(catalog, np.random.default_rng(0))
        history = run_policy(policy, catalog, 300, seed=4)
        for (prev_offer, prev_outcome), (offer, _) in zip(history, history[1:]):
            if prev_outcome.is_purchase:
                assert offer == prev_offer

    def test_candidate_family_is_prefix_pairs(self):
        catalog = small_catalog()
        policy = ExploreThenExploitPolicy(catalog, np.random.default_rng(0))
        family = set(enumerate_prefix_pair_offers(catalog))
        history = run_policy(policy, catalog, 300, seed=5)
        assert {offer for offer, _ in history} <= family

    def test_zero_gamma_still_serves(self):
        catalog = small_catalog()
        policy = ExploreThenExploitPolicy(catalog, np.random.default_rng(0), gamma=0.0)
        history = run_policy(policy, catalog, 100, seed=6)
        assert len(history) == 100

    def test_estimate_vector_and_cycle_scan_match_the_loops(self):
        """At every choice, the estimates gathered from the ledger's rows
        equal purchases over epochs offered, product by product (0 for a
        product never offered), and the chosen candidate is the first
        eligible one in cycle order from the cursor, found one index at a
        time."""
        rng = np.random.default_rng(12)
        catalog = Catalog(
            tuple(
                Product(f"p{k:02d}", float(rng.uniform(0, 1)), float(rng.uniform(0, 0.1)))
                for k in range(9)
            )
        )
        policy = ExploreThenExploitPolicy(catalog, np.random.default_rng(0), gamma=5.0)
        choose = policy._choose
        explored = 0

        def checked_choose(t):
            nonlocal explored
            ledger = policy.ledger
            values = policy._candidate_values()
            v = np.array(
                [
                    ledger.purchase_total(i) / ledger.times_offered(i)
                    if ledger.has_estimate(i)
                    else 0.0
                    for i in policy._products
                ]
            )
            rv = policy._profits * v
            denom1 = 1.0 + policy._member1 @ v
            denom2 = 1.0 + policy._member2 @ v
            want = (policy._member1 @ rv) / denom1 + (policy._member2 @ rv) / (denom1 * denom2)
            assert values.tolist() == want.tolist()
            incumbent = policy._argmax(values) if policy._incumbent is None else policy._incumbent
            quota = max(policy.gamma * math.log(t), 1.0)
            eligible = (values > values[incumbent]) & (policy._counts < quota)
            n = len(policy._offers)
            scan = [(policy._cursor + step) % n for step in range(n)]
            first = next((idx for idx in scan if eligible[idx]), None)
            choose(t)
            if first is None:
                assert policy._current == policy._incumbent == policy._argmax(values)
            else:
                assert (policy._current, policy._cursor) == (first, first + 1)
                explored += 1

        policy._choose = checked_choose
        run_policy(policy, catalog, 3000, seed=8)
        assert explored > 20

    def test_rejects_bad_configuration(self):
        catalog = small_catalog()
        with pytest.raises(ConfigError):
            ExploreThenExploitPolicy(catalog, np.random.default_rng(0), gamma=-1.0)
        late = Catalog((Product("a", 1.0, 0.5), Product("b", 1.0, 0.5, launch_time=3)))
        with pytest.raises(ConfigError, match="launch"):
            ExploreThenExploitPolicy(late, np.random.default_rng(0))


class TestPolicyRegistry:
    def test_known_names(self):
        catalog = small_catalog()
        for name, cls in (
            ("oracle", OraclePolicy),
            ("ucb_tiered", UcbTieredPolicy),
            ("random_tier", RandomTierLearningPolicy),
            ("explore_then_exploit", ExploreThenExploitPolicy),
        ):
            policy = make_policy(name, catalog, np.random.default_rng(0))
            assert isinstance(policy, cls) and policy.name == name

    def test_kwargs_forwarded(self):
        catalog = small_catalog()
        policy = make_policy(
            "ucb_tiered", catalog, np.random.default_rng(0), min_epochs=3
        )
        assert policy.min_epochs == 3

    @pytest.mark.parametrize(
        "name, options",
        [
            ("ucb_tiered", {"min_epochs": 2.0}),
            ("ucb_tiered", {"min_epochs": False}),
            ("ucb_tiered", {"confidence_scale": "4.8"}),
            ("ucb_tiered", {"confidence_scale": math.nan}),
            ("explore_then_exploit", {"gamma": None}),
            ("explore_then_exploit", {"gamma": True}),
        ],
    )
    def test_option_values_checked_against_defaults(self, name, options):
        with pytest.raises(ConfigError, match=repr(next(iter(options)))):
            make_policy(name, small_catalog(), np.random.default_rng(0), **options)

    def test_option_values_of_the_default_types_pass(self):
        catalog = small_catalog()
        rng = np.random.default_rng(0)
        make_policy("ucb_tiered", catalog, rng, min_epochs=3, confidence_scale=None)
        make_policy("ucb_tiered", catalog, rng, confidence_scale=4)
        make_policy("explore_then_exploit", catalog, rng, gamma=30)

    @pytest.mark.parametrize("name", ["oracle", "ucb_tiered", "random_tier", "explore_then_exploit"])
    @pytest.mark.parametrize(
        "value", ["0.5", None, True, 10**400, math.nan, math.inf],
        ids=["str", "None", "bool", "int-past-float", "nan", "inf"],
    )
    def test_known_valuations_must_be_finite_numbers(self, name, value):
        """A known valuation that is not a finite number, or is a bool, is a
        ConfigError naming the product, for every policy kind."""
        message = f"known valuation for 'a' must be a finite number, got {value!r}"
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            make_policy(name, small_catalog(), rng, known_valuations={"a": value})

    def test_known_valuations_are_stored_as_floats(self):
        policy = make_policy(
            "ucb_tiered", small_catalog(), np.random.default_rng(0),
            known_valuations={"a": np.float32(0.5), "b": 0},
        )
        assert policy._known == {"a": 0.5, "b": 0.0}
        assert all(type(v) is float for v in policy._known.values())

    def test_unknown_option_rejected(self):
        # the oracle always prices the prefix-pair family; it has no options
        with pytest.raises(ConfigError, match="has no option 'exact'"):
            make_policy("oracle", small_catalog(), np.random.default_rng(0), exact=1)

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            make_policy("greedy", small_catalog(), np.random.default_rng(0))


def regret_catalog() -> Catalog:
    return Catalog(
        (
            Product("a", 6.0, 0.3),
            Product("b", 2.5, 0.8),
            Product("c", 1.5, 0.6),
            Product("m", 0.5, 0.7),
        )
    )


class TestEpochRegretClosedForm:
    def test_hand_derived_values(self):
        """Single product a (r=2, v=1/2); adding m (r=1, v=1/2):

        tier 2: base E = 2/3, augmented E = 8/9, mean length 9/4,
                G = 9/4 * (2/3 - 8/9) = -1/2;
        tier 1: augmented E = 3/4, mean length 2, G = 2*(2/3 - 3/4) = -1/6.
        """
        catalog = Catalog((Product("a", 2.0, 0.5), Product("m", 1.0, 0.5)))
        base = TieredOffer.two_tier(["a"], [])
        g2 = epoch_regret_closed_form(catalog, base, "m", 1)
        assert g2 == pytest.approx(-0.5, abs=1e-12)
        g1 = epoch_regret_closed_form(catalog, base, "m", 0)
        assert g1 == pytest.approx(-1.0 / 6.0, abs=1e-12)

    def test_tier2_cost_identity(self):
        """Adding m to tier 2 against the base itself costs exactly
        v_m * (E[R(tier-2 set alone)] - r_m), independent of tier 1."""
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(0, 4))
            products = [
                Product(f"p{k}", float(rng.uniform(0, 4)), float(rng.uniform(0, 1)))
                for k in range(n)
            ]
            products.append(
                Product("m", float(rng.uniform(0, 4)), float(rng.uniform(0.01, 1)))
            )
            catalog = Catalog(tuple(products))
            ids = [p.id for p in products[:-1]]
            tier1 = [i for i in ids if rng.random() < 0.5]
            tier2 = [i for i in ids if i not in tier1 and rng.random() < 0.7]
            base = TieredOffer.two_tier(tier1, tier2)
            got = epoch_regret_closed_form(catalog, base, "m", 1)
            want = catalog.valuation_of("m") * (
                expected_profit_single_tier(tier2, catalog) - catalog.profit_of("m")
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_comparator_override(self):
        catalog = regret_catalog()
        base = TieredOffer.two_tier(["a"], ["b"])
        comp = TieredOffer.two_tier(["a"], ["b", "c"])
        augmented = TieredOffer.two_tier(["a"], ["b", "m"])
        got = epoch_regret_closed_form(catalog, base, "m", 1, comparator=comp)
        mean_length = (1.0 + 0.3) * (1.0 + 0.8 + 0.7)
        want = mean_length * (
            expected_profit(comp, catalog) - expected_profit(augmented, catalog)
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_weight_product_costs_nothing(self):
        catalog = Catalog((Product("a", 2.0, 0.5), Product("m", 9.0, 0.0)))
        base = TieredOffer.two_tier(["a"], [])
        assert epoch_regret_closed_form(catalog, base, "m", 1) == 0.0
        assert epoch_regret_closed_form(catalog, base, "m", 0) == 0.0

    def test_valuation_override(self):
        catalog = regret_catalog()
        base = TieredOffer.two_tier(["a"], ["b"])
        vals = {"a": 0.3, "b": 0.8, "c": 0.6, "m": 0.2}
        got = epoch_regret_closed_form(catalog, base, "m", 1, valuations=vals)
        want = 0.2 * (
            expected_profit_single_tier(["b"], catalog, vals) - 0.5
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_malformed_requests(self):
        catalog = regret_catalog()
        base = TieredOffer.two_tier(["a"], ["b"])
        with pytest.raises(InvalidOfferError, match="already in the base offer"):
            epoch_regret_closed_form(catalog, base, "b", 1)
        with pytest.raises(InvalidOfferError, match="tier_index"):
            epoch_regret_closed_form(catalog, base, "m", 2)
        with pytest.raises(UnknownProductError):
            epoch_regret_closed_form(catalog, base, "zz", 1)
        three = TieredOffer((frozenset(["a"]), frozenset(["b"]), frozenset(["c"])))
        with pytest.raises(InvalidOfferError, match="two-tier"):
            epoch_regret_closed_form(catalog, three, "m", 1)


class TestEpochRegretMonteCarlo:
    def test_agrees_with_closed_form(self):
        """Simulated mean epoch regret lands within 4 standard errors of
        the closed form, in both tiers."""
        catalog = regret_catalog()
        base = TieredOffer.two_tier(["a"], ["b", "c"])
        rng = np.random.default_rng(31)
        for tier_index in (0, 1):
            want = epoch_regret_closed_form(catalog, base, "m", tier_index)
            got = epoch_regret_monte_carlo(
                catalog, base, "m", tier_index, 200_000, rng
            )
            assert abs(got.mean - want) < 4.0 * got.std_error
            assert got.n_epochs == 200_000

    def test_comparator_and_override_paths_agree(self):
        catalog = regret_catalog()
        base = TieredOffer.two_tier([], ["b"])
        comp = TieredOffer.two_tier(["a"], ["b", "c"])
        vals = {"a": 0.4, "b": 0.6, "c": 0.5, "m": 0.9}
        want = epoch_regret_closed_form(
            catalog, base, "m", 1, comparator=comp, valuations=vals
        )
        got = epoch_regret_monte_carlo(
            catalog, base, "m", 1, 100_000, np.random.default_rng(32),
            comparator=comp, valuations=vals,
        )
        assert abs(got.mean - want) < 4.0 * got.std_error

    def test_certain_termination_edge(self):
        """A weight-zero tier-1 augmentation of the empty offer terminates
        on every step with no revenue: every sampled epoch regret is 0."""
        catalog = Catalog((Product("m", 3.0, 0.0),))
        base = TieredOffer.two_tier([], [])
        got = epoch_regret_monte_carlo(
            catalog, base, "m", 0, 1000, np.random.default_rng(33)
        )
        assert got.mean == 0.0 and got.std_error == 0.0
        assert epoch_regret_closed_form(catalog, base, "m", 0) == 0.0

    def test_requires_replication(self):
        catalog = regret_catalog()
        base = TieredOffer.two_tier(["a"], ["b"])
        with pytest.raises(ConfigError, match="at least 2"):
            epoch_regret_monte_carlo(
                catalog, base, "m", 1, 1, np.random.default_rng(0)
            )


class TestTierTwoIsTheCheaperParking:
    def test_tier1_cost_dominates_at_optimal_bases(self):
        """At a solver optimum, carrying an extra product in tier 1 costs at
        least as much per epoch as carrying it in tier 2 (regret here is a
        cost, so smaller G means cheaper; the claim is G1 >= G2)."""
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(500):
            n = int(rng.integers(2, 7))
            products = tuple(
                Product(f"p{k}", float(rng.uniform(0, 2)), float(rng.uniform(0, 1)))
                for k in range(n)
            )
            catalog = Catalog(products)
            best = solve_two_tier(catalog).offer
            outside = [p.id for p in products if p.id not in best.all_ids]
            for m in outside:
                g1 = epoch_regret_closed_form(catalog, best, m, 0)
                g2 = epoch_regret_closed_form(catalog, best, m, 1)
                assert g1 >= g2 - 1e-12
                checked += 1
        assert checked > 100

    def test_base_offer_minimizes_tier1_cost(self):
        """Over the prefix-pair family, the optimum itself is the
        tier-1-augmentation cost minimizer: no alternative base makes
        carrying the product in tier 1 cheaper."""
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 5))
            products = [
                Product(f"p{k}", float(rng.uniform(0, 2)), float(rng.uniform(0, 1)))
                for k in range(n)
            ]
            products.append(
                Product("m", float(rng.uniform(0, 2)), float(rng.uniform(0.05, 1)))
            )
            catalog = Catalog(tuple(products))
            others = frozenset(p.id for p in products[:-1])
            best = solve_two_tier(
                catalog, candidates_tier1=others, candidates_tier2=others
            ).offer
            comparator = best
            g_best = epoch_regret_closed_form(
                catalog, best, "m", 0, comparator=comparator
            )
            sub = Catalog(tuple(products[:-1]))
            for offer in enumerate_prefix_pair_offers(sub):
                g = epoch_regret_closed_form(
                    catalog, offer, "m", 0, comparator=comparator
                )
                assert g >= g_best - 1e-9
                checked += 1
        assert checked > 100
