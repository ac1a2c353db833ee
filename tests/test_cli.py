"""Command-line interface tests.

Most cases drive ``main(argv)`` in-process and inspect stdout/stderr and
the artifact tree; one subprocess smoke test covers the real entry point.
The exit-code contract: 0 success, 1 bad input, 2 failed diagnostics.
"""

import json
import subprocess
import sys

import pytest

from tieredmnl import __version__
from tieredmnl.cli import OUT_ENV_VAR, main
from tieredmnl.model import Catalog, Product, save_catalog
from tieredmnl.simulator import (
    ExperimentConfig,
    PolicySpec,
    ProductGroup,
    config_from_dict,
    config_to_dict,
    replicate,
    save_config,
)
from tieredmnl.verify import CheckResult, run_checks


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
        """Only the chi-square diagnostic needs scipy; importing the
        package must not pay for it."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, tieredmnl; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


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
    def test_tampered_confidence_scale_is_detected(self):
        """Re-running the diagnostics as if the ledger had been queried with
        a smaller confidence scale trips exactly the optimism check."""
        results = run_checks(confidence_scale=4.8)
        failed = [r.name for r in results if not r.passed]
        assert failed == ["ucb-optimism-coverage"]

    def test_missing_fixture_is_reported_by_name(self, tmp_path):
        results = run_checks(fixture_path=tmp_path / "gone.json")
        by_name = {r.name: r for r in results}
        assert not by_name["fixture-files"].passed
        assert "gone.json" in by_name["fixture-files"].detail
        assert by_name["solver-brute-force"].passed
