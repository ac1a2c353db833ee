"""Command-line interface tests.

Most cases drive ``main(argv)`` in-process and inspect stdout/stderr and
the artifact tree; one subprocess smoke test covers the real entry point.
The exit-code contract: 0 success, 1 bad input, 2 failed diagnostics.
"""

import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from tieredmnl import __version__
from tieredmnl.cli import OUT_ENV_VAR, main
from tieredmnl.model import Catalog, Product, save_catalog, sorted_ids
from tieredmnl.optimizer import solve_two_tier
from tieredmnl.simulator import (
    ExperimentConfig,
    PolicySpec,
    ProductGroup,
    config_from_dict,
    config_to_dict,
    experiment_preset,
    replicate,
    save_config,
)
from tieredmnl.verify import CheckResult, _chi2_sf_5, run_checks


@pytest.fixture()
def example_catalog_path(tmp_path):
    catalog = Catalog((Product(1, 10.0, 0.1), Product(2, 1.0, 1.0)))
    path = tmp_path / "catalog.json"
    save_catalog(catalog, path)
    return path


def small_config(tmp_path, **overrides):
    kwargs = dict(
        label="cli-unit",
        horizon=30,
        policies=(PolicySpec("oracle"), PolicySpec("ucb_tiered", label="learner")),
        catalog=Catalog(
            (Product("a", 3.0, 0.5), Product("b", 2.0, 0.4), Product("c", 1.0, 0.6))
        ),
        replications=2,
        base_seed=5,
    )
    kwargs.update(overrides)
    config = ExperimentConfig(**kwargs)
    path = tmp_path / "config.json"
    save_config(config, path)
    return config, path


class TestSolve:
    def test_worked_example_output(self, example_catalog_path, capsys):
        assert main(["solve", str(example_catalog_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "tier 1: 1",
            "tier 2: 2",
            "profit thresholds: 10, 1",
            "expected profit: 1.363636",
        ]

    def test_large_shared_catalog_is_solved_exactly(self, tmp_path, capsys):
        """100 products shared by both tiers with weights up to 0.1: the
        demoted-set frontier stays small where all 2^|F| splits did not."""
        rng = np.random.default_rng(20190429)
        catalog = Catalog(
            tuple(
                Product(f"p{k:03d}", float(rng.uniform(0, 1)), float(rng.uniform(0, 0.1)))
                for k in range(100)
            )
        )
        path = tmp_path / "shared100.json"
        save_catalog(catalog, path)
        assert main(["solve", str(path)]) == 0
        result = solve_two_tier(catalog)
        assert capsys.readouterr().out.splitlines()[:2] == [
            f"tier 1: {', '.join(sorted_ids(result.offer.tier(0)))}",
            f"tier 2: {', '.join(sorted_ids(result.offer.tier(1)))}",
        ]
        assert result.offer.tier(1) and result.expected_profit > 0.0

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_catalog_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"products": [{"id": 1, "profit": "x", "valuation": 0.5}]}),
            encoding="utf-8",
        )
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "product 1" in err

    def test_profit_beyond_the_float_range_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        huge = "1" + "0" * 400
        path.write_text(
            '{"products": [{"id": 1, "profit": %s, "valuation": 0.5}]}' % huge, encoding="utf-8"
        )
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "product 1" in err and "finite" in err
        assert "Traceback" not in err

    def test_coercible_catalog_number_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"products": [{"id": 1, "profit": 1.0, "valuation": 0.5,
                                      "launch_time": 2.7}]}),
            encoding="utf-8",
        )
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "launch_time" in err

    def test_ids_with_one_str_are_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        products = [{"id": i, "profit": 1.0, "valuation": 0.5} for i in (1, "1")]
        path.write_text(json.dumps({"products": products}), encoding="utf-8")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ids 1 and '1'" in err and "Traceback" not in err

    def test_bool_candidate_id_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"products": [{"id": 1, "profit": 1.0, "valuation": 0.5}],
                        "candidates_tier1": [True]}),
            encoding="utf-8",
        )
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "candidates_tier1" in err


class TestUsage:
    def test_no_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"tieredmnl {__version__}"

    def test_subprocess_entry_point(self, example_catalog_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tieredmnl.cli", "solve", str(example_catalog_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "expected profit: 1.363636" in proc.stdout


class TestImport:
    def test_package_import_leaves_scipy_unloaded(self):
        """scipy is a test dependency only: neither importing the package
        nor running every diagnostic loads it."""
        script = (
            "import sys, tieredmnl; print('scipy' in sys.modules); "
            "tieredmnl.run_checks(); print('scipy' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_public_names(self):
        import tieredmnl

        assert sorted(tieredmnl.__all__) == sorted(PUBLIC_NAMES)
        for name in tieredmnl.__all__:
            assert getattr(tieredmnl, name) is not None

    def test_benchmark_hook_points_exist(self):
        """``perfbench/probe.py`` replaces these attributes by name."""
        import tieredmnl.cli as cli
        import tieredmnl.policies as policies
        import tieredmnl.simulator as simulator
        from tieredmnl.estimation import EpochLedger
        from tieredmnl.model import Catalog, ChoiceSampler

        hooks = {
            simulator: ("make_policy", "run", "solve_two_tier", "ChoiceSampler",
                        "expected_profit"),
            policies: ("solve_two_tier", "solve_tier1_given_tier2"),
            cli: ("main", "run_experiment", "write_trace_csv", "write_mean_curve_csv",
                  "line_chart"),
            EpochLedger: ("record_step", "valuation_ucb", "valuation_estimate", "epochs"),
            ChoiceSampler: ("sample",),
            Catalog: ("visible_at",),
        }
        for owner, names in hooks.items():
            for name in names:
                assert callable(getattr(owner, name)), (owner, name)


PUBLIC_NAMES = [
    "Catalog", "ChoiceOutcome", "ChoiceSampler", "ConfigError", "EpochLedger",
    "ExperimentConfig", "InstanceTooLargeError", "InvalidCatalogError", "InvalidOfferError",
    "NO_PURCHASE", "NeverOfferedError", "OutcomeMismatchError", "PolicySpec", "Product",
    "ProductGroup", "TieredMnlError", "TieredOffer", "UCB_CONFIDENCE_SCALE", "UcbTieredPolicy",
    "UnknownProductError", "__version__", "brute_force_optimal", "config_from_dict",
    "config_to_dict", "epoch_regret_closed_form", "epoch_regret_monte_carlo",
    "expected_profit", "expected_profit_single_tier", "experiment_preset",
    "is_profit_ordered_by_tier", "is_profit_ordered_set", "load_catalog", "load_config",
    "make_policy", "min_learning_epochs", "predict_new_product_tier",
    "purchase_probabilities", "replicate", "run", "run_checks", "run_experiment",
    "save_catalog", "save_config", "solve_tier1_given_tier2", "solve_two_tier", "sorted_ids",
    "suffix_profits", "write_mean_curve_csv", "write_trace_csv",
]


class TestSimulate:
    def test_writes_traces_and_manifest(self, tmp_path, capsys):
        config, path = small_config(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["simulate", str(path), "--seed", "3", "--out", str(out)]) == 0
        run_dir = out / "cli-unit"
        assert (run_dir / "trace_oracle_seed3.csv").is_file()
        assert (run_dir / "trace_learner_seed3.csv").is_file()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["tool"] == "tieredmnl"
        assert manifest["tool_version"] == __version__
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 3
        assert manifest["trace_files"] == [
            "trace_oracle_seed3.csv",
            "trace_learner_seed3.csv",
        ]
        assert "SeedSequence" in manifest["seed_scheme"]
        # the embedded config replays to the object that produced the run
        assert config_from_dict(manifest["config"]) == config
        stdout = capsys.readouterr().out
        assert "cumulative regret" in stdout

    def test_env_var_names_output_dir(self, tmp_path, monkeypatch):
        _, path = small_config(tmp_path)
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
        assert main(["simulate", str(path)]) == 0
        assert (env_dir / "cli-unit" / "trace_oracle_seed0.csv").is_file()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        _, path = small_config(tmp_path)
        monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "ignored"))
        flag_dir = tmp_path / "from-flag"
        assert main(["simulate", str(path), "--out", str(flag_dir)]) == 0
        assert (flag_dir / "cli-unit").is_dir()
        assert not (tmp_path / "ignored").exists()


def written_files(root) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


class TestDotLabels:
    """A config label made only of dots names no directory: its artifacts
    land in ``--out/unnamed/``, not in ``--out`` itself or its parent."""

    @pytest.mark.parametrize("label", [".", ".."])
    def test_simulate(self, tmp_path, label):
        _, path = small_config(tmp_path, label=label)
        out = tmp_path / "nest" / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        assert written_files(tmp_path / "nest") == {
            "out/unnamed/manifest.json",
            "out/unnamed/trace_oracle_seed0.csv",
            "out/unnamed/trace_learner_seed0.csv",
        }

    @pytest.mark.parametrize("label", [".", ".."])
    def test_experiment(self, tmp_path, label):
        _, path = small_config(tmp_path, label=label, policies=(PolicySpec("oracle"),))
        out = tmp_path / "nest" / "out"
        assert main(["experiment", str(path), "--reps", "1", "--out", str(out)]) == 0
        assert written_files(tmp_path / "nest") == {
            "out/unnamed_regret.svg",
            "out/unnamed/manifest.json",
            "out/unnamed/summary.json",
            "out/unnamed/mean_oracle.csv",
            "out/unnamed/trace_oracle_rep000.csv",
        }


class TestCollidingLabels:
    """Policy labels that slug to one file name would overwrite each other's
    files; the config is refused before anything runs or is written."""

    CASES = [("x y", "x-y"), (None, None)]  # None: the label is the policy name

    def check_refused(self, tmp_path, capsys, argv, labels):
        # written as a document: a config with equal labels cannot be built
        _, path = small_config(tmp_path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        for policy, label in zip(doc["policies"], labels):
            policy.update(name="oracle", label=label)
            if label is None:
                del policy["label"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 1
        assert not out.exists()
        first, second = (label or "oracle" for label in labels)
        assert f"policy labels {first!r} and {second!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", CASES)
    def test_simulate(self, tmp_path, capsys, labels):
        self.check_refused(tmp_path, capsys, ["simulate"], labels)

    @pytest.mark.parametrize("labels", CASES)
    def test_experiment(self, tmp_path, capsys, labels):
        self.check_refused(tmp_path, capsys, ["experiment", "--reps", "1"], labels)


class TestMalformedConfig:
    """Malformed numbers and policy options end as exit code 1 with an
    ``error:`` line, never a traceback or a silent coercion."""

    def group_config(self):
        return config_to_dict(
            ExperimentConfig(
                label="cli-bad",
                horizon=20,
                policies=(PolicySpec("ucb_tiered"),),
                groups=(ProductGroup(3, (0.0, 1.0), (0.0, 0.5)),),
            )
        )

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("group", "count", "abc"),
            ("group", "count", "3"),
            ("group", "count", 3.0),
            ("group", "profit", ["x", 1]),
            ("group", "profit", [0.0, float("inf")]),
            ("group", "profit", 1.0),
            ("group", "tiers", [True]),
            ("top", "horizon", "fifty"),
            ("top", "horizon", True),
            ("top", "horizon", 10**30),
            ("group", "count", 10**30),
            ("top", "replications", 1.5),
            ("top", "base_seed", None),
            ("policy", "options", {"bogus": 1}),
            ("top", "groups", [5]),
            ("group", "tiers", 1),
            ("top", "policies", [5]),
            ("policy", "options", [1]),
            ("policy", "options", {"min_epochs": "x"}),
            ("policy", "options", {"confidence_scale": "x"}),
            ("policy", "options", {"min_epochs": True}),
            ("policy", "options", {"confidence_scale": float("inf")}),
            ("policy", "options", {"confidence_scale": -1.0}),
            ("policy", "options", {"confidence_scale": 10**400}),
            ("group", "profit", [0, 10**400]),
            ("policy", "options", {"known_valuations": {}}),
            ("top", "known_products", 5),
            ("group", "valuation_known", "no"),
            ("top", "known_products", [["p000"]]),
            ("top", "label", ["x"]),
            ("policy", "name", ["ucb_tiered"]),
            ("policy", "label", ["l"]),
        ],
    )
    def test_exit_code_1(self, tmp_path, capsys, where, key, value):
        data = self.group_config()
        target = {"top": data, "group": data["groups"][0], "policy": data["policies"][0]}[where]
        target[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unknown_option_names_the_accepted_ones(self, tmp_path, capsys):
        data = self.group_config()
        data["policies"][0]["options"] = {"bogus": 1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "'bogus'" in err and "min_epochs" in err and "confidence_scale" in err


class TestMalformedFiles:
    """A file that is not UTF-8, or JSON nested past the parser's recursion
    limit, ends as exit code 1 with one ``error:`` line naming the path."""

    @pytest.mark.parametrize("command", ["solve", "simulate", "experiment"])
    @pytest.mark.parametrize(
        "content", [b"\xff\xfe\x00junk", b"[" * 100_000], ids=["not-utf8", "deep-nesting"]
    )
    def test_exit_code_1(self, tmp_path, capsys, command, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        argv = [command, str(path)] + ([] if command == "solve" else ["--out", str(tmp_path)])
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]


class TestNegativeSeeds:
    def test_simulate_seed(self, tmp_path, capsys):
        _, path = small_config(tmp_path)
        assert main(["simulate", str(path), "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_config_base_seed(self, tmp_path, capsys, command):
        _, path = small_config(tmp_path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["base_seed"] = -5
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main([command, str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "base_seed" in err


class TestNoOutputOnError:
    """A command that fails before it has anything to write leaves no
    output directory behind."""

    def test_simulate_bad_seed(self, tmp_path):
        _, path = small_config(tmp_path)
        out = tmp_path / "o"
        assert main(["simulate", str(path), "--seed", "-1", "--out", str(out)]) == 1
        assert not out.exists()

    def test_experiment_zero_reps(self, tmp_path):
        _, path = small_config(tmp_path)
        out = tmp_path / "o"
        assert main(["experiment", str(path), "--reps", "0", "--out", str(out)]) == 1
        assert not out.exists()


class TestIdsTraceCellsCannotCarry:
    """A catalog id that is empty or holds "|" is bad input for every
    command that reads a catalog, refused before anything is written."""

    @pytest.mark.parametrize("bad", ["", "a|b"])
    def test_solve(self, bad, tmp_path, capsys):
        path = tmp_path / "catalog.json"
        products = [{"id": i, "profit": 1.0, "valuation": 0.5} for i in ("a", bad)]
        path.write_text(json.dumps({"products": products}), encoding="utf-8")
        assert main(["solve", str(path)]) == 1
        assert repr(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["", "a|b"])
    def test_simulate(self, bad, tmp_path, capsys):
        config, _ = small_config(tmp_path)
        document = config_to_dict(config)
        document["catalog"]["products"][0]["id"] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        assert repr(bad) in capsys.readouterr().err
        assert not out.exists()


class TestExperiment:
    def test_config_file_artifacts(self, tmp_path, capsys):
        config, path = small_config(
            tmp_path, policies=(PolicySpec("ucb_tiered", label="learner"),)
        )
        out = tmp_path / "exp"
        assert main(["experiment", str(path), "--out", str(out)]) == 0
        run_dir = out / "cli-unit"
        assert (run_dir / "trace_learner_rep000.csv").is_file()
        assert (run_dir / "trace_learner_rep001.csv").is_file()
        assert (run_dir / "mean_learner.csv").is_file()
        summary = json.loads((run_dir / "summary.json").read_text())
        want = replicate(config, config.policies[0])
        assert summary["learner"]["replications"] == 2
        assert summary["learner"]["mean_final_regret"] == want.mean_final_regret
        assert summary["learner"]["final_regrets"] == list(want.final_regrets)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "experiment"
        assert manifest["replications"] == 2
        chart = (out / "cli-unit_regret.svg").read_text()
        assert chart.startswith("<svg") and "polyline" in chart
        assert "mean final regret" in capsys.readouterr().out

    def test_reps_override(self, tmp_path):
        _, path = small_config(
            tmp_path, policies=(PolicySpec("oracle"),)
        )
        out = tmp_path / "exp"
        assert main(["experiment", str(path), "--reps", "1", "--out", str(out)]) == 0
        run_dir = out / "cli-unit"
        assert (run_dir / "trace_oracle_rep000.csv").is_file()
        assert not (run_dir / "trace_oracle_rep001.csv").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["replications"] == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        """Same config, seed scheme, and writers: a second run reproduces
        every artifact byte for byte."""
        _, path = small_config(
            tmp_path, policies=(PolicySpec("ucb_tiered", label="learner"),)
        )
        trees = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["experiment", str(path), "--out", str(out)]) == 0
            trees.append(
                {
                    p.relative_to(out): p.read_bytes()
                    for p in sorted(out.rglob("*"))
                    if p.is_file()
                }
            )
        assert trees[0] == trees[1]

    def test_nonexistent_config_argument(self, tmp_path, capsys):
        assert main(["experiment", "9", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestPinnedExperimentArtifacts:
    """sha256 of every file ``tieredmnl experiment`` writes for preset 2 cut
    to T=400 with two replications: both policies' traces (explore-then-
    exploit included), both CSV writers, the JSON documents and the chart.
    Recorded once; a change that moves any byte shows up here."""

    PINNED = {
        "exp2/manifest.json": "6e318a6e235e303ec45dbbe9ba26fe28220aa6f926f66d4803a47391a0cf82be",
        "exp2/mean_explore_then_exploit.csv":
            "0da1afbf98fc09a2b7485aafdf0ac9e712ff4af2657bfe474c66300a5b4d38db",
        "exp2/mean_ucb_tiered.csv":
            "f3948fc5c638bdf90a26fb91c204a87705e56316933dd7fed9a1eb2d37fd9267",
        "exp2/summary.json": "1c85641ace106c5e459c1356a2c268c1416aabb056fe293cfd0aa80c397b9a76",
        "exp2/trace_explore_then_exploit_rep000.csv":
            "03c5859c0d75ef7255601b37705f91b8410ad4504ce53ffaad02bf244b37c3a5",
        "exp2/trace_explore_then_exploit_rep001.csv":
            "3ad7c696f21383cb66a8840e3a5e6111a739a0843ff9165b29e414d635e487da",
        "exp2/trace_ucb_tiered_rep000.csv":
            "f5d6f3a11aca7fac6af4123cc798bbba978a56baa072247b253e6e0209f41e77",
        "exp2/trace_ucb_tiered_rep001.csv":
            "08892e134f1085070c0f2da1a6814122bbb3735dad0ecc5b07dd785eb8ac9c0b",
        "exp2_regret.svg": "6f03489e1ff4147c2962328dff517720926760e92ba973c2abc4c9433d09c79b",
    }

    def test_artifact_hashes_are_pinned(self, tmp_path):
        path = tmp_path / "exp2.json"
        save_config(dataclasses.replace(experiment_preset(2)[0], horizon=400), path)
        out = tmp_path / "out"
        assert main(["experiment", str(path), "--reps", "2", "--out", str(out)]) == 0
        written = {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*")
            if p.is_file()
        }
        assert written == self.PINNED


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 7
        assert "all 7 checks passed" in out

    def test_failing_check_exits_2(self, capsys, monkeypatch):
        import tieredmnl.cli as cli_module

        monkeypatch.setattr(
            cli_module,
            "run_checks",
            lambda: [CheckResult("stub", False, "forced failure")],
        )
        assert main(["verify"]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and "stub: forced failure" in out


class TestDiagnosticsHooks:
    def test_chi_square_tail_matches_scipy(self):
        """The closed-form 5-df tail the count check uses, against scipy."""
        from scipy.stats import chi2

        for x in [0.0, 1e-12, 0.5, 3.0, 11.07, 25.0, *range(1, 201, 7), 200.0]:
            assert _chi2_sf_5(x) == pytest.approx(float(chi2.sf(x, 5)), rel=1e-12, abs=0)

    def test_tampered_confidence_scale_is_detected(self, monkeypatch):
        """A smaller module confidence scale, the default every ledger query
        uses, trips exactly the optimism check."""
        monkeypatch.setattr("tieredmnl.estimation.UCB_CONFIDENCE_SCALE", 4.8)
        results = run_checks()
        failed = [r.name for r in results if not r.passed]
        assert failed == ["ucb-optimism-coverage"]

    def test_missing_fixture_is_reported_by_name(self, tmp_path, monkeypatch):
        monkeypatch.setattr("tieredmnl.verify.EXAMPLE_CATALOG", tmp_path / "gone.json")
        results = run_checks()
        by_name = {r.name: r for r in results}
        assert not by_name["fixture-files"].passed
        assert "gone.json" in by_name["fixture-files"].detail
        assert by_name["solver-brute-force"].passed
