"""Closed-form orbit families: ODE residuals, energies and actions against
local closed forms, periods, resonances."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from doublezero import orbits
from doublezero.errors import DomainError, NoResonance, ResonanceViolation
from doublezero.melnikov import j_integrals
from doublezero.orbits import (
    PAIRED_TAGS,
    PERIODIC_TAGS,
    SEPARATRIX_CLAMP_TIME,
    SEPARATRIX_TAGS,
    FamilyKind,
    FamilyTag,
    cubic_coefficients,
    evaluate,
    modulus_range,
    period,
    resonant_modulus,
    unperturbed_rhs,
)

SQRT2 = math.sqrt(2.0)


def _hamiltonian(family: FamilyTag, zeta1: float, zeta2: float) -> float:
    """Energy ``H = zeta2**2/2 - a*zeta1**2/2 - b*zeta1**4/4`` of the host system."""
    a, b = cubic_coefficients(family)
    return 0.5 * zeta2 * zeta2 - 0.5 * a * zeta1 * zeta1 - 0.25 * b * zeta1**4


def _energy(tag: FamilyTag, k: float) -> float:
    """Closed-form Hamiltonian level of the periodic orbit with modulus ``k``."""
    k2 = k * k
    if tag is FamilyTag.INSIDE_HET:
        return k2 / (k2 + 1.0) ** 2
    if tag is FamilyTag.GLOBAL:
        return k2 * (1.0 - k2) / (1.0 - 2.0 * k2) ** 2
    if tag is FamilyTag.INSIDE_HOM:
        return (k2 - 1.0) / (2.0 - k2) ** 2
    return k2 * (1.0 - k2) / (2.0 * k2 - 1.0) ** 2


def _action(tag: FamilyTag, k: float) -> float:
    """Action ``I = (1/2pi) * integral of zeta2**2 over one period``, by the
    periodic trapezoid rule on 2048 samples (exponentially convergent here)."""
    ts, step = np.linspace(0.0, period(tag, k), 2048, endpoint=False, retstep=True)
    return float(np.sum(evaluate(tag, k, ts).zeta2 ** 2)) * step / (2.0 * math.pi)


def _sample_moduli(tag: FamilyTag, count: int = 5) -> list[float]:
    lo, hi = modulus_range(tag)
    pad = 0.05 * (hi - lo)
    return list(np.linspace(lo + pad, hi - pad, count))


def _families() -> list[FamilyKind]:
    kinds = []
    for tag in FamilyTag:
        kinds.append(FamilyKind(tag))
        if tag in PAIRED_TAGS:
            kinds.append(FamilyKind(tag, -1))
    return kinds


@pytest.mark.parametrize("tag", sorted(PERIODIC_TAGS, key=lambda t: t.value))
def test_periodic_orbits_satisfy_the_host_ode(tag: FamilyTag) -> None:
    a, b = cubic_coefficients(tag)
    h = 3e-6
    for k in _sample_moduli(tag, 3):
        for t in np.linspace(0.0, period(tag, k), 7):
            t = float(t)
            p = evaluate(tag, k, t)
            plus = evaluate(tag, k, t + h)
            minus = evaluate(tag, k, t - h)
            d1 = (plus.zeta1 - minus.zeta1) / (2.0 * h)
            d2 = (plus.zeta2 - minus.zeta2) / (2.0 * h)
            assert d1 == pytest.approx(p.zeta2, abs=2e-8)
            assert d2 == pytest.approx(a * p.zeta1 + b * p.zeta1**3, abs=2e-8)


@pytest.mark.parametrize("tag", sorted(SEPARATRIX_TAGS, key=lambda t: t.value))
def test_separatrices_satisfy_the_host_ode(tag: FamilyTag) -> None:
    a, b = cubic_coefficients(tag)
    h = 1e-5
    for t in np.linspace(-6.0, 6.0, 25):
        t = float(t)
        p = evaluate(tag, None, t)
        plus = evaluate(tag, None, t + h)
        minus = evaluate(tag, None, t - h)
        assert (plus.zeta1 - minus.zeta1) / (2 * h) == pytest.approx(p.zeta2, abs=5e-9)
        assert (plus.zeta2 - minus.zeta2) / (2 * h) == pytest.approx(
            a * p.zeta1 + b * p.zeta1**3, abs=5e-9
        )


def test_energy_is_constant_and_matches_closed_form() -> None:
    for tag in sorted(PERIODIC_TAGS, key=lambda t: t.value):
        for k in _sample_moduli(tag, 4):
            level = _energy(tag, k)
            for t in np.linspace(0.0, period(tag, k), 11):
                p = evaluate(tag, k, float(t))
                assert _hamiltonian(tag, p.zeta1, p.zeta2) == pytest.approx(
                    level, abs=1e-12
                )


def test_orbits_are_periodic_with_the_stated_period() -> None:
    for tag in sorted(PERIODIC_TAGS, key=lambda t: t.value):
        moduli = _sample_moduli(tag, 4)
        if modulus_range(tag)[1] == 1.0:
            # Next to the separatrix (k -> 1), where sn, cn and dn are hardest
            # to evaluate accurately.  The global family's range ends at
            # 1/sqrt(2) instead, where its orbits grow without bound.
            moduli.append(1.0 - 1e-9)
        for k in moduli:
            t_period = period(tag, k)
            for t in (0.3, 1.1):
                p0 = evaluate(tag, k, t)
                p1 = evaluate(tag, k, t + t_period)
                assert p1.zeta1 == pytest.approx(p0.zeta1, abs=1e-9)
                assert p1.zeta2 == pytest.approx(p0.zeta2, abs=1e-9)


def test_period_ranges() -> None:
    expectations = {
        FamilyTag.INSIDE_HET: (2.0 * math.pi, math.inf),
        FamilyTag.GLOBAL: (0.0, 2.0 * math.pi),
        FamilyTag.INSIDE_HOM: (math.pi * SQRT2, math.inf),
        FamilyTag.OUTSIDE_HOM: (0.0, math.inf),
    }
    for tag, (lo_t, hi_t) in expectations.items():
        lo, hi = modulus_range(tag)
        near_lo = period(tag, lo + 1e-6 * (hi - lo))
        near_hi = period(tag, hi - 1e-6 * (hi - lo))
        for value in (near_lo, near_hi):
            assert lo_t - 1e-9 < value < hi_t
        # The admissible periods approach the open interval's ends.
        ends = sorted((near_lo, near_hi))
        if lo_t > 0.0:
            assert ends[0] == pytest.approx(lo_t, rel=1e-3)
        else:
            assert ends[0] < 0.1
        if math.isfinite(hi_t):
            assert ends[1] == pytest.approx(hi_t, rel=1e-3)
        else:
            assert ends[1] > 12.0


def test_separatrix_limits_reach_the_saddles() -> None:
    upper = evaluate(FamilyTag.HET_PAIR, None, 80.0)
    lower = evaluate(FamilyKind(FamilyTag.HET_PAIR, -1), None, 80.0)
    assert (upper.zeta1, upper.zeta2) == (1.0, 0.0)
    assert (lower.zeta1, lower.zeta2) == (-1.0, 0.0)
    loop = evaluate(FamilyTag.HOM_PAIR, None, 80.0)
    assert (loop.zeta1, loop.zeta2) == (0.0, 0.0)
    # Separatrices sit on the saddle energy level.
    for t in np.linspace(-4.0, 4.0, 9):
        p = evaluate(FamilyTag.HET_PAIR, None, float(t))
        assert _hamiltonian(FamilyTag.HET_PAIR, p.zeta1, p.zeta2) == pytest.approx(
            0.25, abs=1e-12
        )
        q = evaluate(FamilyTag.HOM_PAIR, None, float(t))
        assert _hamiltonian(FamilyTag.HOM_PAIR, q.zeta1, q.zeta2) == pytest.approx(
            0.0, abs=1e-12
        )


@pytest.mark.parametrize("family", _families(), ids=lambda f: f"{f.tag.value}{f.sign:+d}")
def test_array_evaluation_matches_scalar_evaluation(family: FamilyKind) -> None:
    clamp = SEPARATRIX_CLAMP_TIME
    if family.is_separatrix:
        moduli = [None]
        times = np.concatenate([np.linspace(-1.5 * clamp, 1.5 * clamp, 61), [-clamp, clamp, 0.0]])
    else:
        moduli = _sample_moduli(family.tag, 3) + [modulus_range(family.tag)[1] - 1e-9]
        times = np.linspace(-3.0 * clamp, 3.0 * clamp, 61)
    for k in moduli:
        arr = evaluate(family, k, times[:, None])
        assert arr.zeta1.shape == arr.zeta2.shape == (times.size, 1)
        for t, z1, z2 in zip(times, arr.zeta1[:, 0], arr.zeta2[:, 0]):
            point = evaluate(family, k, float(t))
            assert type(point.zeta1) is float and type(point.zeta2) is float
            assert (z1, z2) == (point.zeta1, point.zeta2)


def test_paired_branches_are_reflections() -> None:
    for tag in sorted(PAIRED_TAGS, key=lambda t: t.value):
        k = None if tag in SEPARATRIX_TAGS else sum(modulus_range(tag)) / 2.0
        for t in (-1.3, 0.0, 0.8):
            plus = evaluate(FamilyKind(tag, 1), k, t)
            minus = evaluate(FamilyKind(tag, -1), k, t)
            assert minus.zeta1 == pytest.approx(-plus.zeta1, abs=1e-14)
            assert minus.zeta2 == pytest.approx(-plus.zeta2, abs=1e-14)


def test_branch_sign_validation() -> None:
    with pytest.raises(DomainError):
        FamilyKind(FamilyTag.INSIDE_HET, -1)  # not a paired family
    with pytest.raises(DomainError):
        FamilyKind(FamilyTag.HET_PAIR, 2)


def test_action_energy_frequency_relation() -> None:
    # dH/dI equals the orbit frequency along each periodic family.
    h = 1e-5
    for tag in sorted(PERIODIC_TAGS, key=lambda t: t.value):
        lo, hi = modulus_range(tag)
        k = lo + 0.6 * (hi - lo)
        d_energy = _energy(tag, k + h) - _energy(tag, k - h)
        d_action = _action(tag, k + h) - _action(tag, k - h)
        omega = 2.0 * math.pi / period(tag, k)
        assert d_energy / d_action == pytest.approx(omega, rel=1e-5)


@pytest.mark.parametrize("tag", sorted(PERIODIC_TAGS, key=lambda t: t.value))
def test_action_matches_the_closed_form_orbit_integral(tag: FamilyTag) -> None:
    # I = J1 / (2 pi) with J1 the one-period integral of zeta2**2, so the
    # trapezoid rule is checked against the closed form across the family.
    lo, hi = modulus_range(tag)
    pad = 0.01 * (hi - lo)
    for k in np.linspace(lo + pad, hi - pad, 24):
        closed = j_integrals(tag, float(k), 1).j1 / (2.0 * math.pi)
        assert _action(tag, float(k)) == pytest.approx(closed, rel=1e-12, abs=0.0)


def test_rhs_is_the_hamiltonian_vector_field() -> None:
    h = 1e-6
    for tag in (FamilyTag.INSIDE_HET, FamilyTag.GLOBAL, FamilyTag.INSIDE_HOM):
        for state in ([0.4, -0.3], [1.1, 0.2], [-0.7, 0.9]):
            z1, z2 = state
            f = unperturbed_rhs(tag, np.asarray(state))
            dh_dz1 = (
                _hamiltonian(tag, z1 + h, z2) - _hamiltonian(tag, z1 - h, z2)
            ) / (2.0 * h)
            dh_dz2 = (
                _hamiltonian(tag, z1, z2 + h) - _hamiltonian(tag, z1, z2 - h)
            ) / (2.0 * h)
            assert f[0] == pytest.approx(dh_dz2, abs=1e-9)
            assert f[1] == pytest.approx(-dh_dz1, abs=1e-9)


def test_resonant_modulus_solves_the_period_condition() -> None:
    cases = [
        (FamilyTag.INSIDE_HET, 1, 1, 0.8),
        (FamilyTag.INSIDE_HET, 3, 2, 0.9),
        (FamilyTag.GLOBAL, 1, 1, 1.3),
        (FamilyTag.GLOBAL, 1, 2, 0.7),
        (FamilyTag.INSIDE_HOM, 1, 1, 0.9),
        (FamilyTag.OUTSIDE_HOM, 2, 1, 0.7),
    ]
    for tag, m, n, omega_hat in cases:
        k = resonant_modulus(tag, m, n, omega_hat)
        assert n * period(tag, k) == pytest.approx(
            m * 2.0 * math.pi / omega_hat, rel=1e-11
        )


@pytest.mark.parametrize("tag", sorted(PERIODIC_TAGS, key=lambda t: t.value))
def test_resonant_modulus_meets_the_residual_in_few_period_evaluations(
    tag: FamilyTag, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Near both ends of the range and at its midpoint, the solver meets the
    resonance tolerance within 20 evaluations of K(k); a bisection to the
    same tolerance needs up to 56 or 57 here for every family."""
    lo, hi = modulus_range(tag)
    targets = [(k0, period(tag, k0)) for k0 in (lo + 1e-6, 0.5 * (lo + hi), hi - 1e-6)]
    calls = []
    complete_k = orbits.complete_K

    def counted(k):
        calls.append(k)
        return complete_k(k)

    monkeypatch.setattr(orbits, "complete_K", counted)
    for k0, t0 in targets:
        for m, n in ((1, 1), (3, 2), (5, 3)):
            omega_hat = 2.0 * math.pi * m / (n * t0)
            t_hat = 2.0 * math.pi / omega_hat
            calls.clear()
            k = resonant_modulus(tag, m, n, omega_hat)
            assert len(calls) <= 20, (k0, m, n, len(calls))
            residual = abs(n * period(tag, k) - m * t_hat)
            assert residual <= orbits._RESONANCE_RTOL * t_hat, (k0, m, n, residual)


def test_resonance_error_conditions() -> None:
    with pytest.raises(ResonanceViolation):
        resonant_modulus(FamilyTag.INSIDE_HET, 2, 4, 0.8)
    with pytest.raises(ResonanceViolation):
        resonant_modulus(FamilyTag.INSIDE_HET, 0, 1, 0.8)
    # The globally periodic family has periods below 2*pi only.
    with pytest.raises(NoResonance):
        resonant_modulus(FamilyTag.GLOBAL, 1, 1, 0.8)
    # Period above 2*pi is unreachable inside the connection.
    with pytest.raises(NoResonance):
        resonant_modulus(FamilyTag.INSIDE_HET, 1, 1, 1.5)
    with pytest.raises(DomainError):
        resonant_modulus(FamilyTag.HET_PAIR, 1, 1, 0.8)


@pytest.mark.parametrize("tag, m, kp2", [
    (FamilyTag.INSIDE_HET, 11, "4.21e-07"),
    (FamilyTag.INSIDE_HET, 13, "1.76e-08"),
    (FamilyTag.INSIDE_HOM, 4, "2.56e-07"),
    (FamilyTag.INSIDE_HOM, 5, "2.87e-09"),
])
def test_a_target_inside_the_range_that_a_float_modulus_cannot_resolve(
    tag: FamilyTag, m: int, kp2: str
) -> None:
    # At omega_hat 1.4 these targets lie inside the attainable period range,
    # but near k = 1 adjacent float moduli are farther apart in period than
    # the resonance tolerance, so no float k meets it.
    with pytest.raises(NoResonance) as info:
        resonant_modulus(tag, m, 1, 1.4)
    message = str(info.value)
    target, lo, hi = map(float, re.match(
        r"target period (\S+) lies inside the attainable range \[(\S+), (\S+)\]", message
    ).groups())
    assert lo < target < hi
    assert f"1 - k**2 = {kp2} finer than a float modulus resolves" in message
    step, tol = map(float, re.search(r"are (\S+) apart in n\*T, against a tolerance of (\S+)$",
                                     message).groups())
    assert step > tol


def test_modulus_and_argument_validation() -> None:
    with pytest.raises(DomainError):
        evaluate(FamilyTag.INSIDE_HET, None, 0.0)
    with pytest.raises(DomainError):
        evaluate(FamilyTag.HET_PAIR, 0.5, 0.0)
    with pytest.raises(DomainError):
        period(FamilyTag.HET_PAIR, 0.5)
    for tag in sorted(PERIODIC_TAGS, key=lambda t: t.value):
        lo, hi = modulus_range(tag)
        with pytest.raises(DomainError):
            evaluate(tag, hi, 0.0)
        with pytest.raises(DomainError):
            evaluate(tag, lo, 0.0)
