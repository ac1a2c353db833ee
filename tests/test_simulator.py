"""Simulation-loop, configuration, and output-format tests.

The regret accounting is validated by clairvoyant runs whose pseudo-regret
must be exactly zero, the seed scheme by stream-sharing and byte-identical
replays, and the config/CSV formats by round-trips and strict-key checks.
"""

import csv
import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

import tieredmnl.simulator as simulator
from tieredmnl.errors import ConfigError, InvalidOfferError
from tieredmnl.estimation import min_learning_epochs
from tieredmnl.model import Catalog, Product, TieredOffer
from tieredmnl.optimizer import brute_force_optimal, solve_two_tier
from tieredmnl.policies import UcbTieredPolicy, epoch_regret_monte_carlo, make_policy
from tieredmnl.simulator import (
    ExperimentConfig,
    PolicySpec,
    ProductGroup,
    config_from_dict,
    config_to_dict,
    experiment_preset,
    load_config,
    materialize_catalog,
    replicate,
    run,
    run_experiment,
    save_config,
    write_mean_curve_csv,
    write_trace_csv,
)

ORACLE = PolicySpec("oracle")


def fixed_catalog() -> Catalog:
    return Catalog(
        (
            Product("a", 3.0, 0.5),
            Product("b", 2.0, 0.4),
            Product("c", 1.0, 0.6),
        )
    )


def oracle_config(**overrides) -> ExperimentConfig:
    kwargs = dict(
        label="unit",
        horizon=200,
        policies=(ORACLE,),
        catalog=fixed_catalog(),
        replications=2,
        base_seed=7,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestRegretAccounting:
    def test_oracle_has_exactly_zero_regret(self):
        """The clairvoyant policy serves the benchmark offer, so its
        analytic pseudo-regret is 0.0 at every step — not merely small."""
        trace = run(oracle_config(), ORACLE, seed=0)
        assert np.all(trace.instantaneous == 0.0)
        assert trace.final_regret == 0.0

    def test_oracle_zero_regret_through_launches(self):
        """The launched-products benchmark re-solves exactly when the
        oracle does, so launches leave the regret at zero throughout."""
        catalog = Catalog(
            (
                Product("a", 3.0, 0.5),
                Product("b", 2.0, 0.4, launch_time=50),
                Product("c", 2.5, 0.6, launch_time=120),
            )
        )
        trace = run(oracle_config(catalog=catalog), ORACLE, seed=0)
        assert np.all(trace.instantaneous == 0.0)

    def test_full_benchmark_charges_for_unlaunched_products(self):
        """Against the full-catalog benchmark the oracle pays a positive
        price per step until the last product launches, then zero."""
        catalog = Catalog(
            (Product("a", 1.0, 0.4), Product("big", 8.0, 0.9, launch_time=150))
        )
        trace = run(
            oracle_config(catalog=catalog, benchmark="full", horizon=300),
            ORACLE,
            seed=0,
        )
        assert np.all(trace.instantaneous[:149] > 0.0)
        assert np.all(trace.instantaneous[149:] == 0.0)

    def test_known_valuations_reach_the_policy(self):
        """With every weight handed over as known, the UCB learner plays
        the offline optimum from step one: zero regret, exactly."""
        config = oracle_config(
            policies=(PolicySpec("ucb_tiered"),),
            known_products=("a", "b", "c"),
        )
        trace = run(config, config.policies[0], seed=0)
        assert np.all(trace.instantaneous == 0.0)

    def test_learning_policy_pays_positive_regret(self):
        config = oracle_config(policies=(PolicySpec("ucb_tiered"),), horizon=300)
        trace = run(config, config.policies[0], seed=0)
        assert trace.final_regret > 0.0
        assert len(trace) == 300
        assert np.array_equal(trace.cumulative(), np.cumsum(trace.instantaneous))

    def test_realized_revenue_matches_purchases(self):
        config = oracle_config(horizon=400)
        trace = run(config, ORACLE, seed=0)
        profits = {0.0, 1.0, 2.0, 3.0}
        assert set(np.unique(trace.realized_revenue)) <= profits
        assert trace.realized_revenue.sum() > 0.0

    def test_bad_policy_options_surface_as_config_errors(self):
        spec = PolicySpec("ucb_tiered", {"min_epochs": -3})
        with pytest.raises(ConfigError):
            run(oracle_config(policies=(spec,)), spec, seed=0)


class _ScriptedPolicy:
    """Serves ``early`` before step ``switch`` and, from then on, a fresh
    but equal copy of ``late`` at every step."""

    def __init__(self, early, late, switch):
        self._early, self._late, self._switch = early, late, switch

    def offer(self, t):
        if t < self._switch:
            return TieredOffer.two_tier(*self._early)
        return TieredOffer.two_tier(*self._late)

    def observe(self, t, offer, outcome):
        pass


class TestUnlaunchedOffers:
    CATALOG = Catalog(
        (
            Product("a", 3.0, 0.5),
            Product("b", 2.0, 0.4),
            Product("c", 2.5, 0.6, launch_time=5),
        )
    )

    def _run(self, monkeypatch, policy, horizon=20):
        monkeypatch.setattr(simulator, "make_policy", lambda *args, **kwargs: policy)
        return run(oracle_config(catalog=self.CATALOG, horizon=horizon), ORACLE, seed=0)

    def test_first_offer_before_launch_is_rejected(self, monkeypatch):
        policy = _ScriptedPolicy((["a"], ["b"]), (["a", "c"], ["b"]), switch=3)
        with pytest.raises(InvalidOfferError, match=r"unlaunched product 'c' at t=3"):
            self._run(monkeypatch, policy)

    def test_equal_valid_offer_served_again_runs(self, monkeypatch):
        """Fresh but equal copies of a valid offer share one slot."""
        policy = _ScriptedPolicy((["a"], ["b"]), (["a", "c"], ["b"]), switch=5)
        trace = self._run(monkeypatch, policy)
        assert len(trace) == 20
        assert trace.offer_index[4] == trace.offer_index[19] == 1
        assert trace.offers == (
            TieredOffer.two_tier(["a"], ["b"]),
            TieredOffer.two_tier(["a", "c"], ["b"]),
        )


class _Recording:
    """Passes a policy through and keeps the offer it served at each step."""

    def __init__(self, inner):
        self.inner, self.served = inner, []

    def offer(self, t):
        self.served.append(self.inner.offer(t))
        return self.served[-1]

    def observe(self, t, offer, outcome):
        self.inner.observe(t, offer, outcome)


class TestOfferIndex:
    """The trace keeps each distinct offer once, in first-served order, and
    one int32 slot per step into them."""

    @pytest.mark.parametrize(
        "spec, launches",
        [
            (ORACLE, True),
            (PolicySpec("ucb_tiered", {"min_epochs": 3}), True),
            (PolicySpec("explore_then_exploit", {"gamma": 2.0}), False),  # needs t=0
        ],
        ids=["oracle", "ucb_tiered", "explore_then_exploit"],
    )
    def test_slots_name_the_served_offers(self, spec, launches, monkeypatch):
        recorded = []

        def record(*args, **kwargs):
            recorded.append(_Recording(make_policy(*args, **kwargs)))
            return recorded[-1]

        monkeypatch.setattr(simulator, "make_policy", record)
        catalog = Catalog(
            (
                Product("a", 3.0, 0.5),
                Product("b", 2.0, 0.4, launch_time=50 if launches else 0),
                Product("c", 2.5, 0.6, launch_time=120 if launches else 0),
                Product("d", 1.0, 0.3),
            )
        )
        config = oracle_config(catalog=catalog, horizon=300, policies=(spec,))
        trace = run(config, spec, seed=0)
        served = recorded[0].served
        assert trace.offer_index.dtype == np.int32
        assert trace.offer_index.shape == (300,)
        assert [trace.offers[k] for k in trace.offer_index.tolist()] == served
        assert trace.offers == tuple(dict.fromkeys(served))  # distinct, first-served order
        assert len(trace.offers) > 1


class TestBenchmarkSchedule:
    """The regret benchmark is solved once per launched set the run sees:
    at t=1 and at each distinct launch time in (1, T], or once against the
    full catalog."""

    def _solved_sizes(self, config, monkeypatch):
        sizes = []
        solve = simulator.solve_two_tier

        def count(catalog, **kwargs):
            sizes.append(len(kwargs["candidates_tier1"] | kwargs["candidates_tier2"]))
            return solve(catalog, **kwargs)

        monkeypatch.setattr(simulator, "solve_two_tier", count)
        run(config, config.policies[0], seed=0)
        return sizes

    def test_launched_benchmark_solves_at_launch_times(self, monkeypatch):
        config = TestPinnedLaunchRun.CONFIG
        catalog, _ = materialize_catalog(config, 0)
        launches = {
            p.launch_time for p in catalog.products if 1 < p.launch_time <= config.horizon
        }
        sizes = self._solved_sizes(config, monkeypatch)
        assert len(sizes) == 1 + len(launches) == 5
        assert sizes == [16, 17, 18, 19, 20]

    def test_full_benchmark_solves_once(self, monkeypatch):
        config = dataclasses.replace(TestPinnedLaunchRun.CONFIG, benchmark="full")
        assert self._solved_sizes(config, monkeypatch) == [20]


class TestSeedScheme:
    def test_runs_replay_bit_for_bit(self):
        config = oracle_config(policies=(PolicySpec("ucb_tiered"),))
        a = run(config, config.policies[0], seed=0)
        b = run(config, config.policies[0], seed=0)
        assert np.array_equal(a.instantaneous, b.instantaneous)
        assert np.array_equal(a.realized_revenue, b.realized_revenue)
        assert a.offers == b.offers
        assert np.array_equal(a.offer_index, b.offer_index)

    def test_replications_differ(self):
        config = oracle_config(policies=(PolicySpec("ucb_tiered"),))
        a = run(config, config.policies[0], seed=0)
        b = run(config, config.policies[0], seed=1)
        assert not np.array_equal(a.realized_revenue, b.realized_revenue)

    def test_policies_share_customer_stream_within_a_replication(self):
        """Two policies at the same replication index face the same catalog
        and the same customer randomness (common random numbers)."""
        config = oracle_config(
            policies=(ORACLE, PolicySpec("oracle", label="oracle-twin"))
        )
        a = run(config, config.policies[0], seed=0)
        b = run(config, config.policies[1], seed=0)
        assert np.array_equal(a.realized_revenue, b.realized_revenue)
        assert a.offers == b.offers
        assert np.array_equal(a.offer_index, b.offer_index)
        assert b.policy_label == "oracle-twin"

    def test_group_catalogs_are_fresh_per_replication(self):
        config = ExperimentConfig(
            label="groups",
            horizon=10,
            policies=(ORACLE,),
            groups=(ProductGroup(5, (0.0, 1.0), (0.1, 0.9)),),
            base_seed=11,
        )
        cat0, known0 = materialize_catalog(config, 0)
        cat0_again, _ = materialize_catalog(config, 0)
        cat1, _ = materialize_catalog(config, 1)
        assert cat0 == cat0_again
        assert cat0 != cat1
        assert known0 == {}
        assert [p.id for p in cat0.products] == [f"p{k:03d}" for k in range(5)]

    def test_profit_draws_precede_valuation_draws(self):
        """Configs that differ only in valuation supports share identical
        profits under one base seed — the cross-scenario coupling the
        preset experiments rely on."""
        narrow, wide = experiment_preset(1)[0], experiment_preset(1)[3]
        cat_narrow, _ = materialize_catalog(narrow, 0)
        cat_wide, _ = materialize_catalog(wide, 0)
        assert [p.profit for p in cat_narrow.products] == [
            p.profit for p in cat_wide.products
        ]
        assert [p.valuation for p in cat_narrow.products] != [
            p.valuation for p in cat_wide.products
        ]

    def test_known_groups_feed_the_known_map(self):
        config = ExperimentConfig(
            label="known",
            horizon=10,
            policies=(ORACLE,),
            groups=(
                ProductGroup(2, (0.0, 1.0), (0.1, 0.9), valuation_known=True),
                ProductGroup(3, (0.0, 1.0), (0.1, 0.9)),
            ),
            base_seed=11,
        )
        catalog, known = materialize_catalog(config, 0)
        assert set(known) == {"p000", "p001"}
        assert all(known[i] == catalog.valuation_of(i) for i in known)

    def test_group_tier_membership_restricts_candidates(self):
        config = ExperimentConfig(
            label="tiers",
            horizon=10,
            policies=(ORACLE,),
            groups=(
                ProductGroup(2, (0.0, 1.0), (0.1, 0.9), tiers=(1,)),
                ProductGroup(2, (0.0, 1.0), (0.1, 0.9), tiers=(2,)),
            ),
            base_seed=11,
        )
        catalog, _ = materialize_catalog(config, 0)
        assert catalog.candidates_tier1 == frozenset(["p000", "p001"])
        assert catalog.candidates_tier2 == frozenset(["p002", "p003"])


class TestReplication:
    def test_summary_aggregates_traces(self):
        config = oracle_config(policies=(PolicySpec("ucb_tiered"),), horizon=100)
        summary = replicate(config, config.policies[0], n_reps=3)
        assert summary.n_reps == 3
        finals = [trace.final_regret for trace in summary.traces]
        assert summary.final_regrets == tuple(finals)
        assert summary.mean_final_regret == pytest.approx(np.mean(finals))
        assert summary.std_final_regret == pytest.approx(np.std(finals, ddof=1))
        want_cum = np.vstack([t.cumulative() for t in summary.traces]).mean(axis=0)
        assert np.allclose(summary.mean_cumulative, want_cum)
        assert summary.mean_cumulative[-1] == pytest.approx(summary.mean_final_regret)

    def test_default_rep_count_comes_from_config(self):
        config = oracle_config(horizon=20, replications=2)
        assert replicate(config, ORACLE).n_reps == 2
        with pytest.raises(ConfigError):
            replicate(config, ORACLE, n_reps=0)

    def test_single_rep_has_zero_spread(self):
        config = oracle_config(horizon=20)
        assert replicate(config, ORACLE, n_reps=1).std_final_regret == 0.0

    def test_experiment_runs_every_policy(self):
        config = oracle_config(
            policies=(ORACLE, PolicySpec("ucb_tiered", label="learner")),
            horizon=50,
        )
        results = run_experiment(config, n_reps=2)
        assert set(results) == {"oracle", "learner"}
        assert results["oracle"].mean_final_regret == 0.0

    def test_duplicate_labels_rejected(self):
        """Refused when the config is built, before any policy runs, whether
        the label is given or defaults to the policy name."""
        for second in (PolicySpec("oracle", label="oracle"), ORACLE):
            with pytest.raises(ConfigError, match="'oracle' and 'oracle' are duplicates"):
                oracle_config(policies=(ORACLE, second))


class TestPresets:
    def test_scenario_family(self):
        configs = experiment_preset(1)
        assert [c.label for c in configs] == [
            "exp1-v0.1",
            "exp1-v0.2",
            "exp1-v0.3",
            "exp1-v0.5",
        ]
        for c, s in zip(configs, (0.1, 0.2, 0.3, 0.5)):
            assert c.horizon == 20_000 and c.replications == 10
            assert c.base_seed == 1729 and c.benchmark == "launched"
            assert [g.count for g in c.groups] == [80, 20]
            assert c.groups[0].profit == (0.0, 1.0)
            assert c.groups[0].valuation == (0.0, s)
            assert c.groups[1].profit == (0.0, 0.2)
            assert c.groups[1].valuation == (0.0, s)
            assert c.groups[1].launch_time == 800
            assert c.groups[1].launch_spacing == 800
            (spec,) = c.policies
            assert spec.name == "ucb_tiered"
            assert spec.options == {"min_epochs": 100, "confidence_scale": 4.8}

    def test_policy_duel(self):
        (config,) = experiment_preset(2)
        assert config.horizon == 10_000 and config.replications == 10
        assert config.base_seed == 271828
        assert [g.count for g in config.groups] == [8, 4]
        names = [p.name for p in config.policies]
        assert names == ["ucb_tiered", "explore_then_exploit"]
        assert config.policies[0].options == {
            "min_epochs": 100,
            "confidence_scale": 4.8,
        }
        assert config.policies[1].options == {"gamma": 30.0}

    def test_disjoint_tier_setup(self):
        (config,) = experiment_preset(3)
        assert config.horizon == 10_000 and config.base_seed == 314159
        assert [g.count for g in config.groups] == [20, 30, 15]
        assert [g.tiers for g in config.groups] == [(1,), (2,), (2,)]
        assert [g.valuation_known for g in config.groups] == [True, True, False]
        names = [p.name for p in config.policies]
        assert names == ["ucb_tiered", "random_tier"]
        for spec in config.policies:
            assert spec.options == {"min_epochs": 300, "confidence_scale": 4.8}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            experiment_preset(4)

    def test_prefix_pair_benchmark_is_exact_on_every_launch_set(self):
        """Regret is measured against the prefix-pair optimum; on every set
        of launched products of presets 1-3, rep 0, the exact solve offers
        the same tiers."""
        n_sets = 0
        for which in (1, 2, 3):
            for config in experiment_preset(which):
                catalog, _ = materialize_catalog(config, 0)
                launches = {p.launch_time for p in catalog.products}
                for t in sorted({1} | {s for s in launches if 1 <= s <= config.horizon}):
                    visible = catalog.visible_at(t)
                    sets = dict(
                        candidates_tier1=catalog.candidates_tier1 & visible,
                        candidates_tier2=catalog.candidates_tier2 & visible,
                    )
                    exact = solve_two_tier(catalog, exact=True, **sets).offer
                    assert exact == solve_two_tier(catalog, exact=False, **sets).offer, (
                        config.label,
                        t,
                    )
                    n_sets += 1
        assert n_sets == 86


class TestConfigValidation:
    def test_experiment_config_guards(self):
        good = dict(
            label="x", horizon=10, policies=(ORACLE,), catalog=fixed_catalog()
        )
        ExperimentConfig(**good)
        with pytest.raises(ConfigError):
            ExperimentConfig(**{**good, "horizon": 0})
        with pytest.raises(ConfigError):
            ExperimentConfig(**{**good, "replications": 0})
        with pytest.raises(ConfigError):
            ExperimentConfig(**{**good, "benchmark": "static"})
        with pytest.raises(ConfigError):
            ExperimentConfig(**{**good, "policies": ()})
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(
                **{**good, "groups": (ProductGroup(1, (0, 1), (0, 1)),)}
            )
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(label="x", horizon=10, policies=(ORACLE,))
        with pytest.raises(ConfigError, match="beyond horizon"):
            ExperimentConfig(
                label="x",
                horizon=10,
                policies=(ORACLE,),
                groups=(ProductGroup(3, (0, 1), (0, 1), launch_time=5, launch_spacing=4),),
            )

    def test_product_group_guards(self):
        with pytest.raises(ConfigError):
            ProductGroup(0, (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ConfigError):
            ProductGroup(1, (2.0, 1.0), (0.0, 1.0))
        with pytest.raises(ConfigError):
            ProductGroup(1, (0.0, 1.0), (0.0, 1.5))
        with pytest.raises(ConfigError):
            ProductGroup(1, (0.0, 1.0), (0.0, 1.0), launch_time=-1)
        with pytest.raises(ConfigError):
            ProductGroup(1, (0.0, 1.0), (0.0, 1.0), tiers=(3,))
        with pytest.raises(ConfigError):
            ProductGroup(1, (0.0, 1.0), (0.0, 1.0), tiers=())

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: dataclasses.replace(oracle_config(), horizon=50.0), ConfigError,
             "horizon must be an integer, got 50.0"),
            (lambda: oracle_config(replications=2.0), ConfigError,
             "replications must be an integer, got 2.0"),
            (lambda: oracle_config(base_seed=1.5), ConfigError, "base_seed must be an integer, got 1.5"),
            (lambda: ProductGroup(2.0, (0, 1), (0, 1)), ConfigError,
             "group count must be an integer, got 2.0"),
            (lambda: ProductGroup(2, (0, 1), (0, 1), launch_time=True), ConfigError,
             "group launch_time must be an integer, got True"),
            (lambda: ProductGroup(2, (0, 1), (0, 1), launch_spacing=0.5), ConfigError,
             "group launch_spacing must be an integer, got 0.5"),
            (lambda: run(oracle_config(), ORACLE, seed=1.5), ConfigError,
             "seed must be an integer, got 1.5"),
            (lambda: replicate(oracle_config(), ORACLE, 2.5), ConfigError,
             "n_reps must be an integer, got 2.5"),
            (lambda: min_learning_epochs("0.1", 0.05), ConfigError,
             "accuracy epsilon must be a finite number, got '0.1'"),
            (lambda: min_learning_epochs(True, 0.05), ConfigError,
             "accuracy epsilon must be a finite number, got True"),
            (lambda: min_learning_epochs(0.1, None), ConfigError,
             "confidence alpha must be a finite number, got None"),
            (lambda: UcbTieredPolicy(fixed_catalog(), None, min_epochs=2.5), ConfigError,
             "min_epochs must be an integer >= 0, got 2.5"),
            (lambda: brute_force_optimal(fixed_catalog(), 2.0), InvalidOfferError,
             "num_tiers must be an integer >= 1, got 2.0"),
            (lambda: epoch_regret_monte_carlo(
                fixed_catalog(), TieredOffer.two_tier(["a"], []), "b", 1, 2.5,
                np.random.default_rng(0)), ConfigError,
             "n_epochs must be an integer, at least 2 for a standard error, got 2.5"),
            (lambda: epoch_regret_monte_carlo(
                fixed_catalog(), TieredOffer.two_tier(["a"], []), "b", 1, "5",
                np.random.default_rng(0)), ConfigError,
             "n_epochs must be an integer, at least 2 for a standard error, got '5'"),
        ],
    )
    def test_python_callers_get_integer_checks(self, build, error, message):
        """Values a config document's checkers would refuse are refused
        with the same words when a Python caller passes them directly."""
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    def test_known_products_need_an_explicit_catalog(self):
        """Group configs mark known products with ``valuation_known``; a
        ``known_products`` list next to groups would be silently ignored."""
        groups = (ProductGroup(2, (0, 1), (0, 1)),)
        with pytest.raises(ConfigError, match="explicit catalog"):
            ExperimentConfig(
                label="x", horizon=10, policies=(ORACLE,), groups=groups, known_products=("p000",)
            )
        data = config_to_dict(
            ExperimentConfig(label="x", horizon=10, policies=(ORACLE,), groups=groups)
        )
        for ids in (["p000"], ["nope"]):
            with pytest.raises(ConfigError, match="explicit catalog"):
                config_from_dict({**data, "known_products": ids})

    def test_known_products_must_be_in_the_catalog(self):
        with pytest.raises(ConfigError, match="'nope' is not in the catalog"):
            oracle_config(known_products=("a", "nope"))
        data = config_to_dict(oracle_config())
        with pytest.raises(ConfigError, match="'nope' is not in the catalog"):
            config_from_dict({**data, "known_products": ["nope"]})

    def test_policy_spec_label_defaults_to_name(self):
        assert PolicySpec("oracle").display_label == "oracle"
        assert PolicySpec("oracle", label="S1").display_label == "S1"


class TestConfigSerialization:
    def test_group_config_round_trip(self, tmp_path):
        config = ExperimentConfig(
            label="round",
            horizon=500,
            policies=(
                PolicySpec("ucb_tiered", {"min_epochs": 5}, label="learner"),
                PolicySpec("oracle"),
            ),
            groups=(
                ProductGroup(4, (0.0, 1.0), (0.1, 0.8)),
                ProductGroup(
                    2, (0.0, 0.5), (0.0, 0.3), launch_time=9, launch_spacing=3,
                    tiers=(2,), valuation_known=True,
                ),
            ),
            replications=3,
            base_seed=99,
            benchmark="full",
        )
        assert config_from_dict(config_to_dict(config)) == config
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_catalog_config_round_trip(self, tmp_path):
        config = oracle_config(known_products=("a",))
        path = tmp_path / "config.json"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded == config
        assert loaded.catalog.valuation_of("a") == 0.5

    def test_schema_is_versioned(self):
        data = config_to_dict(oracle_config())
        assert data["schema"] == 1
        data["schema"] = 2
        with pytest.raises(ConfigError, match="schema"):
            config_from_dict(data)
        del data["schema"]
        with pytest.raises(ConfigError, match="schema"):
            config_from_dict(data)

    def test_unknown_keys_rejected_at_every_level(self):
        base = config_to_dict(
            ExperimentConfig(
                label="x",
                horizon=10,
                policies=(ORACLE,),
                groups=(ProductGroup(1, (0, 1), (0, 1)),),
            )
        )
        bad = json.loads(json.dumps(base))
        bad["typo"] = 1
        with pytest.raises(ConfigError, match="typo"):
            config_from_dict(bad)
        bad = json.loads(json.dumps(base))
        bad["groups"][0]["sigma"] = 1
        with pytest.raises(ConfigError, match="sigma"):
            config_from_dict(bad)
        bad = json.loads(json.dumps(base))
        bad["policies"][0]["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            config_from_dict(bad)

    def test_missing_required_fields(self):
        base = config_to_dict(
            ExperimentConfig(
                label="x",
                horizon=10,
                policies=(ORACLE,),
                groups=(ProductGroup(1, (0, 1), (0, 1)),),
            )
        )
        bad = json.loads(json.dumps(base))
        del bad["groups"][0]["count"]
        with pytest.raises(ConfigError, match="count"):
            config_from_dict(bad)
        bad = json.loads(json.dumps(base))
        del bad["policies"][0]["name"]
        with pytest.raises(ConfigError, match="name"):
            config_from_dict(bad)

    @pytest.mark.parametrize("value", [None, 5, ["full"], True])
    def test_benchmark_must_be_a_string(self, value):
        """A non-string ``benchmark`` is reported as such, not coerced with
        ``str`` and then rejected as the wrong word."""
        data = config_to_dict(oracle_config())
        data["benchmark"] = value
        message = f"benchmark must be a string, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestCsvOutput:
    def test_trace_csv_layout(self, tmp_path):
        config = oracle_config(horizon=40)
        trace = run(config, ORACLE, seed=0)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "t,instantaneous_regret,cumulative_regret,offered_tier1,offered_tier2"
        )
        assert len(lines) == 41
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == trace.instantaneous[0]
        tier1, tier2 = first[3], first[4]
        assert tier1 == "|".join(sorted(trace.offers[0].tier(0), key=str))
        assert tier2 == "|".join(sorted(trace.offers[0].tier(1), key=str))

    def test_trace_csv_is_deterministic(self, tmp_path):
        config = oracle_config(policies=(PolicySpec("ucb_tiered"),), horizon=60)
        paths = []
        for name in ("one.csv", "two.csv"):
            trace = run(config, config.policies[0], seed=0)
            path = tmp_path / name
            write_trace_csv(trace, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_rows_read_offers_by_slot_and_keep_the_sign_of_zero(self, tmp_path):
        """Each row names the offer its step's slot points at, and a trace
        whose instantaneous column holds 0.0 and -0.0 (and other repeats, a
        NaN and an infinity) writes the bytes that formatting every cell
        gives."""
        config = oracle_config(policies=(PolicySpec("ucb_tiered"),), horizon=60)
        trace = run(config, config.policies[0])
        values = [0.0, -0.0, 0.125, -0.0, 1e-300, 0.0, float("nan"), -5e-324, float("inf"), 0.125]
        trace.instantaneous[:] = np.resize(np.array(values), len(trace))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(path.read_text(encoding="utf-8").splitlines()[0].split(","))
            for t, (regret, cumulative, slot) in enumerate(
                zip(trace.instantaneous.tolist(), trace.cumulative().tolist(), trace.offer_index),
                1,
            ):
                offer = trace.offers[slot]
                cells = ["|".join(str(i) for i in sorted(offer.tier(k), key=str)) for k in (0, 1)]
                writer.writerow([t, regret, cumulative, *cells])
        written = path.read_bytes()
        assert written == reference.read_bytes()
        assert b",-0.0," in written and b",0.0," in written

    @pytest.mark.parametrize("name", ["oracle", "ucb_tiered", "random_tier", "explore_then_exploit"])
    def test_tier_cells_split_back_into_the_served_ids(self, name, tmp_path, monkeypatch):
        """Every row's tier cells split on "|" back into the str ids of the
        tiers served at its step, and an empty cell is an empty tier: the
        format the catalog's id rule keeps readable."""
        recorded = []

        def record(*args, **kwargs):
            recorded.append(_Recording(make_policy(*args, **kwargs)))
            return recorded[-1]

        monkeypatch.setattr(simulator, "make_policy", record)
        catalog = Catalog(
            (
                Product("a", 3.0, 0.5),
                Product(7, 2.0, 0.4),
                Product("c d", 2.5, 0.6),
                Product("e,f", 1.0, 0.3),
            )
        )
        spec = PolicySpec(name)
        config = oracle_config(catalog=catalog, horizon=150, policies=(spec,))
        path = tmp_path / "trace.csv"
        write_trace_csv(run(config, spec, seed=0), path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        served = recorded[0].served
        assert len(rows) == len(served) == 150
        for row, offer in zip(rows, served):
            for cell, tier in zip(row[3:], offer.tiers, strict=True):
                ids = cell.split("|") if cell else []
                assert sorted(ids) == sorted(str(i) for i in tier)
                assert len(ids) == len(tier)

    def test_mean_curve_csv(self, tmp_path):
        config = oracle_config(policies=(PolicySpec("ucb_tiered"),), horizon=30)
        summary = replicate(config, config.policies[0], n_reps=2)
        path = tmp_path / "mean.csv"
        write_mean_curve_csv(summary, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,mean_instantaneous_regret,mean_cumulative_regret"
        assert len(lines) == 31
        last = lines[-1].split(",")
        assert last[0] == "30"
        assert float(last[2]) == summary.mean_cumulative[-1]


class TestPinnedLaunchRun:
    """Final regret and trace bytes of a short launch scenario, recorded
    once and pinned: a change to the decision path that moves any float or
    any offer shows up here."""

    CONFIG = ExperimentConfig(
        label="pinned-launch",
        horizon=1500,
        groups=(
            ProductGroup(14, (0.0, 1.0), (0.0, 0.1)),
            ProductGroup(2, (0.3, 0.9), (0.0, 0.1), valuation_known=True),
            ProductGroup(4, (0.0, 0.2), (0.0, 0.1), launch_time=300, launch_spacing=250),
        ),
        policies=(
            PolicySpec("ucb_tiered", {"min_epochs": 20, "confidence_scale": 4.8}),
            PolicySpec("random_tier", {"min_epochs": 20, "confidence_scale": 4.8}),
        ),
        base_seed=1729,
    )
    PINNED = {
        "ucb_tiered": (
            "10.406994373834719",
            "0da247ea0fea6aafc6de4eaa8d9a8f8dff7e84428e5f7282f80a8ae122ae293b",
        ),
        "random_tier": (
            "10.503947907621896",
            "103e4709ca0d22127e34b835989f6173b5e6747452d4c6733151834c49da8fbf",
        ),
    }

    @pytest.mark.parametrize("name", ["ucb_tiered", "random_tier"])
    def test_regret_and_trace_are_pinned(self, name, tmp_path):
        spec = next(p for p in self.CONFIG.policies if p.name == name)
        trace = run(self.CONFIG, spec, seed=0)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        regret, digest = self.PINNED[name]
        assert repr(trace.final_regret) == regret
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestPinnedResolveCounts:
    """(full, tier-1) re-solves the policy counts itself on the pinned
    launch scenario, recorded by counting its solve_two_tier /
    solve_tier1_given_tier2 calls before it ran the optimizer's cores
    directly."""

    @pytest.mark.parametrize(
        "name, counts", [("ucb_tiered", (990, 280)), ("random_tier", (988, 273))]
    )
    def test_resolve_counts_are_pinned(self, name, counts, monkeypatch):
        config = TestPinnedLaunchRun.CONFIG
        built = []

        def keep(*args, **kwargs):
            built.append(make_policy(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(simulator, "make_policy", keep)
        spec = next(p for p in config.policies if p.name == name)
        run(config, spec, seed=0)
        assert (built[0].full_resolves, built[0].tier1_resolves) == counts


class TestRetainedMemory:
    def test_traced_peak_per_step_is_bounded(self):
        """A run's traced peak grows by at most 340 bytes per step from
        T=4,000 to T=16,000 (explore-then-exploit, preset 2, rep 0): closed
        epochs keep their label, offered set and purchases, not their
        steps.  An untraced warm-up run keeps one-time costs out of the
        difference."""
        (config,) = experiment_preset(2)
        spec = next(p for p in config.policies if p.name == "explore_then_exploit")
        run(dataclasses.replace(config, horizon=4_000), spec, seed=0)
        peaks = []
        for horizon in (4_000, 16_000):
            tracemalloc.start()
            try:
                run(dataclasses.replace(config, horizon=horizon), spec, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_step = (peaks[1] - peaks[0]) / 12_000
        assert per_step <= 340, f"{per_step:.0f} bytes per step"
