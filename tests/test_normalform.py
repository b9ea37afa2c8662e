"""Reduction to the canonical form and the half-plane rescaling."""

from __future__ import annotations

import math

import pytest

from doublezero.errors import DegeneracyError, DomainError
from doublezero.fourier import TrigPolynomial, cosine
from doublezero.normalform import (
    NormalFormParams,
    ScaledParams,
    ScalingBranch,
    SymmetricSystemCoeffs,
    reduce,
    scale,
    unfolding_map,
)


def _unscale(sp: ScaledParams) -> tuple[float, float, float, float]:
    """Invert ``scale``, returning ``(nu1, nu2, omega_bar, eps)``."""
    e2 = sp.eps_hat**2
    return (sp.nu1, sp.nu_hat * e2, sp.omega_hat * sp.eps_hat, sp.delta_big * e2 * e2)


def _example_coeffs(**overrides) -> SymmetricSystemCoeffs:
    data = dict(
        cubic1=(6.0, 0.5, -0.25, 1.0),
        cubic2=(12.0, 4.0, 2.0, -1.0),
        coupling1=((5.0, 6.0), (7.0, 8.0)),
        coupling2=((1.0, 2.0), (3.0, 4.0)),
        forcing1=TrigPolynomial({}, {1: 0.3}),
        forcing2=TrigPolynomial({1: 2.0}, {2: -0.5}),
    )
    data.update(overrides)
    return SymmetricSystemCoeffs(**data)


def test_reduction_against_hand_computed_values() -> None:
    # c = 12/6 = 2, d = (4 + 6)/2 = 5, ratio = 5/2.
    nf = reduce(_example_coeffs(), (0.1, -0.2), omega=0.7)
    assert nf.c == pytest.approx(2.0, abs=1e-15)
    assert nf.d == pytest.approx(5.0, abs=1e-15)
    assert nf.s1 == 1 and nf.s2 == 1
    assert nf.nu1 == pytest.approx(6.25 * (0.1 - 0.4), rel=1e-14)
    assert nf.nu2 == pytest.approx(2.5 * ((5 + 3) * 0.1 + (6 + 4) * -0.2), rel=1e-14)
    # The map reduce applies: rows ratio**2 * (1, 2) and ratio * (5 + 3, 6 + 4).
    assert unfolding_map(_example_coeffs()) == ((6.25, 12.5), (20.0, 25.0))
    assert nf.omega_bar == pytest.approx(2.5 * 0.7, rel=1e-14)
    # The reduced profile is the second-component profile, rescaled.
    factor = 5.0**3 / 2.0**2.5
    assert dict(nf.h.cos_terms)[1] == pytest.approx(2.0 * factor, rel=1e-14)
    assert dict(nf.h.sin_terms)[2] == pytest.approx(-0.5 * factor, rel=1e-14)


def test_reduction_is_linear_in_the_unfolding_parameters() -> None:
    coeffs = _example_coeffs()
    a = reduce(coeffs, (0.03, 0.01), omega=1.0)
    b = reduce(coeffs, (0.06, 0.02), omega=1.0)
    assert b.nu1 == pytest.approx(2.0 * a.nu1, rel=1e-13)
    assert b.nu2 == pytest.approx(2.0 * a.nu2, rel=1e-13)
    zero = reduce(coeffs, (0.0, 0.0), omega=1.0)
    assert zero.nu1 == 0.0 and zero.nu2 == 0.0


def test_signs_follow_the_cubic_combinations() -> None:
    nf = reduce(
        _example_coeffs(cubic2=(-12.0, 4.0, 0.0, 0.0)), (0.1, 0.1), omega=1.0
    )
    assert (nf.s1, nf.s2) == (-1, 1)
    nf = reduce(
        _example_coeffs(cubic1=(-9.0, 0.0, 0.0, 0.0), cubic2=(12.0, 4.0, 0.0, 0.0)),
        (0.1, 0.1),
        omega=1.0,
    )
    assert (nf.s1, nf.s2) == (1, -1)


def test_degenerate_cubics_are_rejected() -> None:
    with pytest.raises(DegeneracyError):
        reduce(_example_coeffs(cubic2=(0.0, 4.0, 0.0, 0.0)), (0.1, 0.1), omega=1.0)
    with pytest.raises(DegeneracyError):
        unfolding_map(_example_coeffs(cubic2=(0.0, 4.0, 0.0, 0.0)))
    with pytest.raises(DegeneracyError):
        reduce(
            _example_coeffs(cubic1=(-4.0, 0.0, 0.0, 0.0), cubic2=(12.0, 4.0, 0.0, 0.0)),
            (0.1, 0.1),
            omega=1.0,
        )


def test_forcing_profiles_must_have_zero_mean() -> None:
    with pytest.raises(DomainError):
        _example_coeffs(forcing2=TrigPolynomial({0: 0.5, 1: 1.0}, {}))


def test_omega_must_be_positive() -> None:
    with pytest.raises(DomainError):
        reduce(_example_coeffs(), (0.1, 0.1), omega=0.0)
    with pytest.raises(DomainError):
        reduce(_example_coeffs(), (0.1, 0.1), omega=-2.0)


def _nf(nu1: float, nu2: float = -0.08) -> NormalFormParams:
    return NormalFormParams(
        nu1=nu1, nu2=nu2, s1=1, s2=1, omega_bar=0.4, c=1.5, d=0.5, h=cosine(1.0)
    )


def test_scale_selects_the_half_plane() -> None:
    neg = scale(_nf(-0.04), eps=1e-5)
    assert neg.branch is ScalingBranch.NU1_NEGATIVE
    assert neg.eps_hat == pytest.approx(0.2, rel=1e-15)
    assert neg.nu1 == pytest.approx(-0.04, rel=1e-15)
    pos = scale(_nf(0.09), eps=1e-5)
    assert pos.branch is ScalingBranch.NU1_POSITIVE
    assert pos.eps_hat == pytest.approx(0.3, rel=1e-15)
    assert pos.nu1 == pytest.approx(0.09, rel=1e-15)


def test_scale_formulas() -> None:
    sp = scale(_nf(-0.04, nu2=-0.01), eps=3.2e-6)
    assert sp.nu_hat == pytest.approx(-0.01 / 0.04, rel=1e-14)
    assert sp.omega_hat == pytest.approx(0.4 / 0.2, rel=1e-14)
    assert sp.delta_big == pytest.approx(3.2e-6 / 0.2**4, rel=1e-14)


def test_scale_round_trip() -> None:
    for nu1 in (-0.0625, 0.0121):
        nf = _nf(nu1, nu2=0.037)
        eps = 7.5e-7
        nu1_back, nu2_back, omega_back, eps_back = _unscale(scale(nf, eps))
        assert nu1_back == pytest.approx(nf.nu1, rel=1e-14)
        assert nu2_back == pytest.approx(nf.nu2, rel=1e-14)
        assert omega_back == pytest.approx(nf.omega_bar, rel=1e-14)
        assert eps_back == pytest.approx(eps, rel=1e-14)


def test_scale_rejects_the_pitchfork_line_and_bad_eps() -> None:
    with pytest.raises(DomainError, match="pitchfork"):
        scale(_nf(0.0), eps=1e-6)
    with pytest.raises(DomainError):
        scale(_nf(-0.04), eps=0.0)
    with pytest.raises(DomainError):
        scale(_nf(-0.04), eps=-1e-6)


def test_parameter_container_validation() -> None:
    with pytest.raises(DomainError):
        NormalFormParams(
            nu1=0.1, nu2=0.1, s1=-1, s2=1, omega_bar=1.0, c=1.0, d=1.0, h=cosine(1.0)
        )
    with pytest.raises(DegeneracyError):
        NormalFormParams(
            nu1=0.1, nu2=0.1, s1=1, s2=1, omega_bar=1.0, c=0.0, d=1.0, h=cosine(1.0)
        )
    with pytest.raises(DomainError):
        NormalFormParams(
            nu1=0.1, nu2=0.1, s1=1, s2=1, omega_bar=1.0, c=1.0, d=1.0,
            h=TrigPolynomial({0: 1.0}, {}),
        )
    with pytest.raises(DomainError):
        ScaledParams(
            eps_hat=0.0, nu_hat=0.0, omega_hat=1.0, delta_big=1.0,
            branch=ScalingBranch.NU1_NEGATIVE,
        )


def test_scaled_eps_hat_equals_sqrt_abs_nu1() -> None:
    for nu1 in (-0.3, -1e-6, 2.5e-3):
        sp = scale(_nf(nu1), eps=1e-8)
        assert sp.eps_hat == pytest.approx(math.sqrt(abs(nu1)), rel=1e-15)
