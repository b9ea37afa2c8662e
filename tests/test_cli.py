"""Reduced-size smoke tests of the ``verify`` experiments, and the command
line's wiring: dispatch, config files, output and exit codes."""

from __future__ import annotations

import io
import json

import pytest

import doublezero.cli as cli
from doublezero.experiments import (
    experiment_hhat,
    experiment_jintegrals,
    experiment_manifold_splitting,
)
from doublezero.errors import DomainError


def test_manifold_splitting_runs_at_full_depth_with_few_chains() -> None:
    report = experiment_manifold_splitting(count=12)
    assert report["experiment"] == "manifold-splitting"
    assert report["parameters"]["max_iterates"] == 18
    assert [c["name"] for c in report["checks"]] == [
        "crossing iff parameters inside the splitting window",
        "signed gap matches splitting sign at eps_hat=0.05",
        "signed gap matches splitting sign at eps_hat=0.025",
    ]
    region = report["region"]
    assert len(region) == 6
    assert all(r["crossing"] == r["inside_window"] for r in region)
    assert report["checks"][0]["passed"]
    assert [s["eps_hat"] for s in report["sign_sweep"]] == [0.05, 0.025]


def test_jintegrals_passes_on_a_small_grid() -> None:
    report = experiment_jintegrals(grid=3)
    assert report["experiment"] == "jintegrals"
    assert len(report["checks"]) == 10
    assert all(c["passed"] for c in report["checks"])
    assert report["passed"]


def test_hhat_passes_at_low_order() -> None:
    report = experiment_hhat(chi_count=3, max_m=2, max_n=1)
    assert report["experiment"] == "hhat"
    assert report["parameters"]["resonance_cases"] == 8
    assert len(report["checks"]) == 4
    assert all(c["passed"] for c in report["checks"])
    assert report["passed"]


@pytest.mark.parametrize("sizes", [
    {"chi_count": 0, "max_m": 0},
    {"chi_count": 0},
    {"max_m": 0},
    {"max_n": 0},
])
def test_hhat_refuses_an_empty_check(sizes: dict) -> None:
    # With no chi or no resonance the checks would measure nothing and pass.
    with pytest.raises(DomainError):
        experiment_hhat(**sizes)


def test_verify_writes_the_experiment_report(tmp_path) -> None:
    path = tmp_path / "hhat.json"
    assert cli.main(["verify", "hhat", "-o", str(path)]) == 0
    expected = io.StringIO()
    cli._write_json(expected, experiment_hhat())
    assert path.read_text(encoding="utf-8") == expected.getvalue()


def test_a_config_file_sets_the_verify_options(tmp_path) -> None:
    config = tmp_path / "small.cfg"
    config.write_text("grid = 3  # a coarse modulus grid\n", encoding="utf-8")
    path = tmp_path / "jintegrals.json"
    assert cli.main(["verify", "jintegrals", "--config", str(config), "-o", str(path)]) == 0
    assert json.loads(path.read_text(encoding="utf-8"))["parameters"]["grid"] == 3


def test_fold_convergence_argument_errors_exit_2(tmp_path) -> None:
    out = str(tmp_path / "fold.json")
    assert cli.main(["verify", "fold-convergence", "--eps-hats", "0.05", "-o", out]) == 2
    assert cli.main(["verify", "fold-convergence", "--eps-hats", "0.025,0.05", "-o", out]) == 2


def test_a_non_positive_newton_tolerance_exits_2(tmp_path, capsys) -> None:
    out = str(tmp_path / "manifolds.csv")
    assert cli.main(["manifolds", "--guess", "1,0", "--tol", "-1", "-o", out]) == 2
    assert "tol must be positive" in capsys.readouterr().err


def test_manifolds_finds_the_connection_saddle_at_its_defaults(tmp_path) -> None:
    # The saddle's full-period multiplier is about 8,400: single shooting from
    # the guess broke down in its first integration and exited 3.
    out = tmp_path / "manifolds.csv"
    args = ["manifolds", "--guess", "1,0", "--count", "8", "--max-iterates", "2"]
    assert cli.main(args + ["-o", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0].startswith("branch,kind,iterate")
    assert {row.split(",")[0] for row in rows[1:]} == {
        "unstable-right", "unstable-left", "stable-right", "stable-left",
    }


@pytest.mark.parametrize("option", ["--abs-tol", "--rel-tol"])
def test_a_nan_tolerance_exits_2_before_integrating(option: str, tmp_path, monkeypatch,
                                                    capsys) -> None:
    # ``simulate --abs-tol nan`` used to integrate without end.
    def no_integration(*_):
        raise AssertionError("the flow was integrated")

    monkeypatch.setattr(cli, "trajectory", no_integration)
    out = str(tmp_path / "run.csv")
    assert cli.main(["simulate", "--state", "0.1,0", option, "nan", "-o", out]) == 2
    assert "must be finite and positive, got nan" in capsys.readouterr().err


def test_simulate_refuses_a_state_of_the_wrong_dimension(tmp_path) -> None:
    out = str(tmp_path / "run.csv")
    assert cli.main(["simulate", "--state", "1,2,3", "-o", out]) == 2


def test_simulate_exits_3_when_the_integration_fails(tmp_path) -> None:
    out = str(tmp_path / "run.csv")
    assert cli.main(["simulate", "--state", "0.5,0", "--periods", "100", "-o", out]) == 3


@pytest.mark.parametrize("args", [
    ["simulate", "--state", "0.1,0"],
    ["manifolds", "--guess", "1,0"],
    ["curves", "--family", "het", "--scaled"],
])
def test_a_huge_harmonic_is_refused_before_the_forcing_is_built(
    args: list[str], tmp_path, monkeypatch, capsys
) -> None:
    def no_forcing(*_):
        raise AssertionError("the forcing was built")

    monkeypatch.setattr(cli, "cosine", no_forcing)
    out = str(tmp_path / "out.txt")
    assert cli.main(args + ["--harmonic", "100000000", "-o", out]) == 2
    assert "--harmonic must be <= 1024" in capsys.readouterr().err


@pytest.mark.parametrize("gains", [
    ["--alpha", "1.25", "--gamma", "-1.2"],
    ["--theta0", "pi", "--alpha", "0.8", "--gamma", "0.7"],
])
def test_reduce_prints_one_normal_form_with_and_without_forcing(gains, tmp_path) -> None:
    reports = []
    for eps in ("0", "1e-4"):
        path = tmp_path / f"reduce-{eps}.json"
        assert cli.main(["reduce", *gains, "--eps", eps, "-o", str(path)]) == 0
        reports.append(json.loads(path.read_text(encoding="utf-8")))
    unforced, forced = reports
    assert unforced["normal_form"] == forced["normal_form"]
    assert unforced["scaled"] is None
    assert forced["scaled"]["delta"] > 0.0


def test_curves_default_the_gains_to_the_double_zero_point(tmp_path) -> None:
    path = tmp_path / "het.json"
    argv = ["curves", "--family", "het", "--delta0", "0.3", "--samples", "3", "--format", "json"]
    assert cli.main(argv + ["-o", str(path)]) == 0
    report = json.loads(path.read_text(encoding="utf-8"))
    gains = (report["parameters"]["alpha"], report["parameters"]["gamma"])
    # alpha0 = -(1 + delta1) / delta0 and gamma0 = -alpha0 when hanging.
    assert gains == pytest.approx((2.0 / 3.0, -2.0 / 3.0), rel=1e-14)
    starts = {(r["alpha"], r["gamma"]) for r in report["records"][::3]}
    assert starts == {gains}
