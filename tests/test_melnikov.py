"""Orbit integrals, spectral weights, projections, and splitting functions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from doublezero.elliptic import complete_K
from doublezero.errors import DomainError, ResonanceViolation
from doublezero.fourier import TrigPolynomial, cosine, sine
from doublezero.melnikov import (
    _BRACKET_POLYS,
    _SERIES_M_CUT,
    MelnikovProfile,
    _bracket,
    fourier_weight_het,
    fourier_weight_hom,
    h_hat,
    h_hat_subharmonic,
    j_integrals,
    melnikov_separatrix,
    melnikov_subharmonic,
    separatrix_constants,
)
from doublezero.orbits import (
    PERIODIC_TAGS,
    FamilyKind,
    FamilyTag,
    evaluate,
    modulus_range,
    period,
    resonant_modulus,
)

SQRT2 = math.sqrt(2.0)


def _quad_orbit(tag: FamilyTag, k: float, n: int, integrand) -> float:
    t_end = n * period(tag, k)
    value, _ = quad(integrand, 0.0, t_end, limit=400, epsabs=1e-13, epsrel=1e-13)
    return value


@pytest.mark.parametrize("tag", sorted(PERIODIC_TAGS, key=lambda t: t.value))
def test_orbit_integrals_match_quadrature(tag: FamilyTag) -> None:
    lo, hi = modulus_range(tag)
    for frac in (0.15, 0.5, 0.85):
        k = lo + frac * (hi - lo)
        j = j_integrals(tag, k, 1)

        def z(t: float):
            return evaluate(tag, k, t)

        q1 = _quad_orbit(tag, k, 1, lambda t: z(t).zeta2 ** 2)
        q2 = _quad_orbit(tag, k, 1, lambda t: z(t).zeta1 ** 2 * z(t).zeta2 ** 2)
        q3 = _quad_orbit(tag, k, 1, lambda t: z(t).zeta1 ** 2)
        assert j.j1 == pytest.approx(q1, rel=1e-9)
        assert j.j2 == pytest.approx(q2, rel=1e-9)
        assert j.j3 == pytest.approx(q3, rel=1e-9)


def test_orbit_integrals_scale_linearly_in_n() -> None:
    for tag in sorted(PERIODIC_TAGS, key=lambda t: t.value):
        lo, hi = modulus_range(tag)
        k = lo + 0.4 * (hi - lo)
        one = j_integrals(tag, k, 1)
        three = j_integrals(tag, k, 3)
        assert three.j1 == pytest.approx(3.0 * one.j1, rel=1e-13)
        assert three.j2 == pytest.approx(3.0 * one.j2, rel=1e-13)
        assert three.j3 == pytest.approx(3.0 * one.j3, rel=1e-13)


def test_bracket_series_agrees_with_direct_evaluation() -> None:
    # The Maclaurin route below the cut and the direct E/K combination above
    # it must agree where both are accurate (around the switch point).
    from doublezero.elliptic import complete_E

    for name in _BRACKET_POLYS:
        for m in (0.20, 0.30, _SERIES_M_CUT - 1e-6):
            k = math.sqrt(m)
            e, big_k = complete_E(k), complete_K(k)
            series = _bracket(name, m, e, big_k)
            pe, pk = _BRACKET_POLYS[name]
            direct = (
                sum(c * m**i for i, c in enumerate(pe)) * e
                + sum(c * m**i for i, c in enumerate(pk)) * big_k
            )
            # Direct evaluation loses at most ~eps/m**4 here.
            assert series == pytest.approx(direct, rel=1e-10)


def test_orbit_integrals_are_finite_and_positive_at_small_modulus() -> None:
    # The cancellation-prone corner: tiny modulus, where the closed-form
    # brackets vanish to high order.
    for tag in sorted(PERIODIC_TAGS, key=lambda t: t.value):
        lo, hi = modulus_range(tag)
        k = lo + 1e-4 * (hi - lo)
        j = j_integrals(tag, k, 1)
        assert j.j1 > 0.0 and j.j2 > 0.0 and j.j3 > 0.0

        def z(t: float):
            return evaluate(tag, k, t)

        q2 = _quad_orbit(tag, k, 1, lambda t: z(t).zeta1 ** 2 * z(t).zeta2 ** 2)
        assert j.j2 == pytest.approx(q2, rel=1e-8)


def test_connection_weight_matches_kernel_quadrature() -> None:
    for chi in (0.3, 1.0, 2.7):
        kernel, _ = quad(
            lambda t: (1.0 / math.cosh(t / SQRT2)) ** 2 / SQRT2 * math.cos(chi * t),
            -42.0, 42.0, limit=400, epsabs=1e-13, epsrel=1e-13,
        )
        assert fourier_weight_het(chi) == pytest.approx(kernel, abs=1e-10)


def test_loop_weight_matches_kernel_quadrature() -> None:
    for chi in (0.3, 1.0, 2.7):
        kernel, _ = quad(
            lambda t: -SQRT2 / math.cosh(t) * math.tanh(t) * math.sin(chi * t),
            -42.0, 42.0, limit=400, epsabs=1e-13, epsrel=1e-13,
        )
        assert fourier_weight_hom(chi) == pytest.approx(-kernel, abs=1e-10)


def test_weight_limits_and_symmetry() -> None:
    assert fourier_weight_het(0.0) == pytest.approx(2.0, abs=1e-15)
    assert fourier_weight_hom(0.0) == 0.0
    for chi in (0.4, 1.7):
        assert fourier_weight_het(-chi) == pytest.approx(fourier_weight_het(chi))
        assert fourier_weight_hom(-chi) == pytest.approx(-fourier_weight_hom(chi))
    # Exponential decay keeps large arguments finite.
    assert fourier_weight_het(1000.0) == pytest.approx(0.0, abs=1e-300)


def test_connection_projection_of_single_cosine() -> None:
    omega_hat = 1.2
    amp = -0.7
    prof = h_hat(cosine(amp), FamilyTag.HET_PAIR, omega_hat)
    w = fourier_weight_het(omega_hat)
    assert dict(prof.values.cos_terms)[1] == pytest.approx(amp * w, rel=1e-13)
    assert prof.values.sin_terms == ()
    assert prof.hmax == pytest.approx(abs(amp) * w, rel=1e-10)
    assert prof.hmin == pytest.approx(-abs(amp) * w, rel=1e-10)
    # The lower-branch projection flips sign.
    lower = h_hat(cosine(amp), FamilyKind(FamilyTag.HET_PAIR, -1), omega_hat)
    assert dict(lower.values.cos_terms)[1] == pytest.approx(-amp * w, rel=1e-13)


def test_loop_projection_swaps_cosine_and_sine() -> None:
    omega_hat = 0.9
    u = fourier_weight_hom(omega_hat)
    from_cos = h_hat(cosine(1.0), FamilyTag.HOM_PAIR, omega_hat)
    assert dict(from_cos.values.sin_terms)[1] == pytest.approx(u, rel=1e-13)
    assert from_cos.values.cos_terms == ()
    from_sin = h_hat(sine(1.0), FamilyTag.HOM_PAIR, omega_hat)
    assert dict(from_sin.values.cos_terms)[1] == pytest.approx(-u, rel=1e-13)


def test_projection_requires_mean_zero_and_separatrix_family() -> None:
    with pytest.raises(DomainError):
        h_hat(TrigPolynomial({0: 1.0, 1: 1.0}, {}), FamilyTag.HET_PAIR, 1.0)
    with pytest.raises(DomainError):
        h_hat(cosine(1.0), FamilyTag.INSIDE_HET, 1.0)
    with pytest.raises(DomainError):
        h_hat(cosine(1.0), FamilyTag.HET_PAIR, 0.0)


def _closed_amplitude(tag: FamilyTag, k: float, m: int, omega_hat: float) -> float:
    """Closed-form |projection| of a unit cosine at resonance (n = 1)."""
    kp = math.sqrt(1.0 - k * k)
    r = math.pi * complete_K(kp) / complete_K(k)
    base = SQRT2 * math.pi * omega_hat
    if tag is FamilyTag.INSIDE_HET:
        return 2.0 * base / math.sinh(0.5 * m * r)
    if tag is FamilyTag.GLOBAL:
        return 2.0 * base / math.cosh(0.5 * m * r)
    if tag is FamilyTag.INSIDE_HOM:
        return base / math.cosh(m * r)
    return 2.0 * base / math.cosh(0.5 * m * r)


def test_resonant_projection_selection_rules() -> None:
    omega_for = {
        FamilyTag.INSIDE_HET: 2.0 * math.pi / 9.0,
        FamilyTag.GLOBAL: 2.0 * math.pi / 4.0,
        FamilyTag.INSIDE_HOM: 2.0 * math.pi / 9.0,
        FamilyTag.OUTSIDE_HOM: 2.0 * math.pi / 5.0,
    }
    for tag, base_omega in omega_for.items():
        # n = 2 projections of a single-harmonic profile vanish.
        k2 = resonant_modulus(tag, 1, 2, base_omega / 2.0)
        prof = h_hat_subharmonic(cosine(1.0), tag, k2, 1, 2, base_omega / 2.0)
        assert prof.is_zero
        # Odd m at n = 1 is always allowed.
        k1 = resonant_modulus(tag, 1, 1, base_omega)
        prof1 = h_hat_subharmonic(cosine(1.0), tag, k1, 1, 1, base_omega)
        assert not prof1.is_zero
        assert prof1.hmax == pytest.approx(
            _closed_amplitude(tag, float(k1.k), 1, base_omega), rel=1e-8
        )
        # Even m: forbidden except on the one-sided loop family.
        k2m = resonant_modulus(tag, 2, 1, 2.0 * base_omega)
        prof2 = h_hat_subharmonic(cosine(1.0), tag, k2m, 2, 1, 2.0 * base_omega)
        if tag is FamilyTag.INSIDE_HOM:
            assert not prof2.is_zero
            assert prof2.hmax == pytest.approx(
                _closed_amplitude(tag, float(k2m.k), 2, 2.0 * base_omega), rel=1e-8
            )
        else:
            assert prof2.is_zero


@pytest.mark.parametrize("tag", [FamilyTag.INSIDE_HET, FamilyTag.OUTSIDE_HOM])
@pytest.mark.parametrize("k", [1.0 - 1e-6, 1.0 - 1e-9])
@pytest.mark.parametrize("m", [2, 4])
def test_even_resonances_vanish_exactly_next_to_the_separatrix(tag, k, m) -> None:
    # The orbit's velocity has odd harmonics only, so a pure cosine projects
    # to exactly zero for even m however close k is to 1.
    omega_hat = 2.0 * math.pi * m / period(tag, k)
    prof = h_hat_subharmonic(cosine(1.0), tag, k, m, 1, omega_hat)
    assert prof.is_zero
    assert prof.hmax == 0.0 == prof.hmin


def test_resonant_projection_validates_inputs() -> None:
    k = resonant_modulus(FamilyTag.INSIDE_HET, 1, 1, 0.8)
    with pytest.raises(ResonanceViolation):
        h_hat_subharmonic(cosine(1.0), FamilyTag.INSIDE_HET, k, 2, 4, 0.8)
    with pytest.raises(ResonanceViolation):
        # Modulus inconsistent with the claimed resonance.
        h_hat_subharmonic(cosine(1.0), FamilyTag.INSIDE_HET, 0.9, 1, 1, 0.8)
    with pytest.raises(DomainError):
        h_hat_subharmonic(cosine(1.0), FamilyTag.HET_PAIR, None, 1, 1, 0.8)


def test_separatrix_constants_match_quadrature() -> None:
    c1_het, c2_het = separatrix_constants(FamilyTag.HET_PAIR)
    q1, _ = quad(
        lambda t: evaluate(FamilyTag.HET_PAIR, None, t).zeta2 ** 2, -40, 40,
        limit=400, epsabs=1e-13,
    )
    q2, _ = quad(
        lambda t: evaluate(FamilyTag.HET_PAIR, None, t).zeta1 ** 2
        * evaluate(FamilyTag.HET_PAIR, None, t).zeta2 ** 2,
        -40, 40, limit=400, epsabs=1e-13,
    )
    assert c1_het == pytest.approx(q1, rel=1e-10)
    assert c2_het == pytest.approx(q2, rel=1e-10)

    c1_hom, c2_hom = separatrix_constants(FamilyTag.HOM_PAIR)
    q1, _ = quad(
        lambda t: evaluate(FamilyTag.HOM_PAIR, None, t).zeta2 ** 2, -40, 40,
        limit=400, epsabs=1e-13,
    )
    q2, _ = quad(
        lambda t: evaluate(FamilyTag.HOM_PAIR, None, t).zeta1 ** 2
        * evaluate(FamilyTag.HOM_PAIR, None, t).zeta2 ** 2,
        -40, 40, limit=400, epsabs=1e-13,
    )
    assert c1_hom == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert c2_hom == pytest.approx(16.0 / 15.0, rel=1e-14)
    assert c1_hom == pytest.approx(q1, rel=1e-10)
    assert c2_hom == pytest.approx(q2, rel=1e-10)


def test_separatrix_splitting_functions() -> None:
    omega_hat = 1.1
    prof = h_hat(cosine(0.8), FamilyTag.HET_PAIR, omega_hat)
    nu_hat, s2, delta = -0.4, 1, 1.5
    m_plus, m_minus = melnikov_separatrix(nu_hat, s2, delta, prof, FamilyTag.HET_PAIR)
    c1, c2 = separatrix_constants(FamilyTag.HET_PAIR)
    for phi in np.linspace(0.0, 2.0 * math.pi, 9):
        base = c1 * nu_hat + c2 * s2
        assert m_plus(float(phi)) == pytest.approx(
            base + delta * prof(float(phi)), rel=1e-12, abs=1e-12
        )
        assert m_minus(float(phi)) == pytest.approx(
            base - delta * prof(float(phi)), rel=1e-12, abs=1e-12
        )
    with pytest.raises(DomainError):
        melnikov_separatrix(nu_hat, 2, delta, prof, FamilyTag.HET_PAIR)
    with pytest.raises(DomainError):
        melnikov_separatrix(nu_hat, s2, delta, prof, FamilyTag.HOM_PAIR)


def test_subharmonic_bifurcation_function() -> None:
    omega_hat = 0.8
    tag = FamilyTag.INSIDE_HET
    k = resonant_modulus(tag, 1, 1, omega_hat)
    j = j_integrals(tag, k, 1)
    prof = h_hat_subharmonic(cosine(1.0), tag, k, 1, 1, omega_hat)
    t_hat = 2.0 * math.pi / omega_hat
    nu_hat, s2, delta = -0.3, 1, 2.0
    m_poly, l_value = melnikov_subharmonic(nu_hat, s2, delta, j, prof, 1, t_hat)
    assert l_value == pytest.approx(nu_hat * t_hat + s2 * j.j3, rel=1e-13)
    for phi in (0.0, 1.0, 4.5):
        assert m_poly(phi) == pytest.approx(
            nu_hat * j.j1 + s2 * j.j2 + delta * prof(phi), rel=1e-12
        )
    # Family / modulus cross-checks between profile and integrals.
    k_glob = resonant_modulus(FamilyTag.GLOBAL, 1, 1, 1.3)
    j_glob = j_integrals(FamilyTag.GLOBAL, k_glob, 1)
    with pytest.raises(DomainError):
        melnikov_subharmonic(nu_hat, s2, delta, j_glob, prof, 1, t_hat)


def test_profile_container_validation() -> None:
    with pytest.raises(DomainError):
        MelnikovProfile(values=cosine(1.0), hmax=-0.5, hmin=-1.0)
    with pytest.raises(DomainError):
        MelnikovProfile(values=TrigPolynomial({0: 0.3, 1: 1.0}, {}), hmax=1.3, hmin=-0.7)
    zero = MelnikovProfile.from_trig(TrigPolynomial({1: 5e-15}, {}), zero_tol=1e-12)
    assert zero.is_zero and zero.hmax == 0.0 and zero.hmin == 0.0
