"""Reduced-size smoke tests of the ``verify`` experiments."""

from __future__ import annotations

import pytest

from doublezero.cli import experiment_hhat, experiment_jintegrals, experiment_manifold_splitting
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
