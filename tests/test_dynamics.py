"""Newton shooting: a forced linear oscillator with a closed-form orbit, and a
multiple-shooting saddle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm

from doublezero.dynamics import (
    FlowSpec,
    OrbitClass,
    find_subharmonic,
    liouville_defect,
    monodromy,
    scaled_flow,
)
from doublezero.fourier import cosine
from doublezero.melnikov import h_hat, separatrix_constants
from doublezero.orbits import FamilyTag

#: x'' + C x' + x = cos(OMEGA t)
C = 0.3
OMEGA = 1.7
JAC = np.array([[0.0, 1.0], [-1.0, -C]])


def oscillator() -> FlowSpec:
    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        return np.array([z[1], -z[0] - C * z[1] + math.cos(OMEGA * t)])

    return FlowSpec(
        rhs=rhs, jacobian=lambda t, z: JAC, period=2.0 * math.pi / OMEGA, dim=2
    )


def exact_orbit_state() -> np.ndarray:
    """State at t = 0 of Re(exp(i OMEGA t) / (1 - OMEGA**2 + i C OMEGA))."""
    a, b = 1.0 - OMEGA**2, C * OMEGA
    d = a * a + b * b
    return np.array([a / d, OMEGA * b / d])


@pytest.mark.parametrize("segments", [1, 4])
def test_shooting_recovers_the_closed_form_orbit(segments: int) -> None:
    flow = oscillator()
    tol = 1e-10
    res = find_subharmonic(flow, 1, (0.5, -0.2), tol=tol, segments=segments)
    assert np.max(np.abs(res.initial_state - exact_orbit_state())) < 1e-9
    assert np.max(np.abs(res.monodromy - expm(JAC * flow.period))) < 1e-9
    assert res.residual < tol
    assert res.classification is OrbitClass.SINK
    assert liouville_defect(flow, res) < 1e-8


def test_single_shooting_returns_the_full_period_monodromy() -> None:
    flow = oscillator()
    res = find_subharmonic(flow, 1, (0.5, -0.2))
    xf, mono = monodromy(flow, res.initial_state, 1)
    assert np.array_equal(res.monodromy, mono)
    assert res.residual == float(np.max(np.abs(xf - res.initial_state)))


@pytest.mark.parametrize("offset", [-0.6, 0.0, 0.6])
def test_leg_product_monodromy_matches_a_full_period_integration(offset: float) -> None:
    # The right saddle of the separatrix-splitting experiment, across its
    # predicted window in nu_hat.
    omega_hat = 1.4
    forcing = cosine(1.0)
    profile = h_hat(forcing, FamilyTag.HET_PAIR, omega_hat)
    c1, c2 = separatrix_constants(FamilyTag.HET_PAIR)
    center = -(c2 + 0.5 * (profile.hmax + profile.hmin)) / c1
    halfwidth = 0.5 * (profile.hmax - profile.hmin) / c1
    flow = scaled_flow(
        s1=1, s2=1, nu1_sign=-1, eps_hat=0.05, nu_hat=center + offset * halfwidth,
        omega_hat=omega_hat, delta_big=1.0, forcing=forcing,
    )
    tol = 1e-10
    res = find_subharmonic(flow, 1, (1.0, 0.0), tol=tol, segments=8)
    assert res.classification is OrbitClass.SADDLE
    assert res.residual < tol
    _, mono = monodromy(flow, res.initial_state, 1)
    scale = np.max(np.abs(mono))
    assert np.max(np.abs(res.monodromy - mono)) < 1e-8 * scale
    fresh = np.sort_complex(np.linalg.eigvals(mono))
    for lam, ref in zip(np.sort_complex(np.array(res.multipliers)), fresh):
        assert abs(lam - ref) < 1e-8 * abs(ref)
