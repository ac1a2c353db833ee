"""Simulation-loop, configuration, and output-format tests.

The regret accounting is validated by clairvoyant runs whose pseudo-regret
must be exactly zero, the seed scheme by stream-sharing and byte-identical
replays, and the config/CSV formats by round-trips and strict-key checks.
"""

import hashlib
import json

import numpy as np
import pytest

import tieredmnl.simulator as simulator
from tieredmnl.errors import ConfigError
from tieredmnl.model import Catalog, Product
from tieredmnl.policies import make_policy
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


class TestSeedScheme:
    def test_runs_replay_bit_for_bit(self):
        config = oracle_config(policies=(PolicySpec("ucb_tiered"),))
        a = run(config, config.policies[0], seed=0)
        b = run(config, config.policies[0], seed=0)
        assert np.array_equal(a.instantaneous, b.instantaneous)
        assert np.array_equal(a.realized_revenue, b.realized_revenue)
        assert a.offers == b.offers

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
        config = oracle_config(
            policies=(ORACLE, PolicySpec("oracle", label="oracle"))
        )
        with pytest.raises(ConfigError, match="duplicate"):
            run_experiment(config, n_reps=1)


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
