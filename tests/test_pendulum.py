"""Tests for the servo-pendulum reduction and its gain-plane predictions."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from doublezero.bifurcation import heteroclinic_curves, homoclinic_curves, saddle_node_curves
from doublezero.errors import DegeneracyError, DomainError, ParityError
from doublezero.fourier import TrigPolynomial, cosine
from doublezero.melnikov import MelnikovProfile, j_integrals
from doublezero.normalform import ScalingBranch, unfolding_map
from doublezero.orbits import (
    PERIODIC_TAGS,
    FamilyKind,
    FamilyTag,
    _velocity_spectrum,
    modulus_range,
    period,
    resonant_modulus,
)
from doublezero.pendulum import (
    FAMILY_THETA0,
    Codim2Point,
    PendulumParams,
    Theta0,
    calibrated_params,
    codim2_locus,
    example_theta_pi,
    example_theta_zero,
    normal_form,
    prediction_curves,
    reduce_pendulum,
    taylor_coefficients,
    vector_field,
    vector_field_jacobian,
)

# Frozen values for the two study configurations (gain plane, scaling, and
# steady states), computed once from the closed forms and pinned here so a
# regression in any intermediate step is caught against fixed numbers.
CENSUS_EPS_HAT = 0.10206207261596587
CENSUS_OMEGA = 0.1632993161855453
CENSUS_EPS = CENSUS_EPS_HAT**4
CENSUS_AMPLITUDE = -0.19410312304685703


def test_theta0_sigma_and_angle():
    assert Theta0.ZERO.sigma == 1
    assert Theta0.PI.sigma == -1
    assert Theta0.ZERO.angle == 0.0
    assert Theta0.PI.angle == math.pi


def test_params_validation():
    with pytest.raises(DomainError, match="alpha"):
        example_theta_zero(0.0, -1.0)
    with pytest.raises(DomainError, match="delta0"):
        PendulumParams(1.0, -1.0, 0.0, -1.2, 5.0, 1.0, Theta0.ZERO)
    with pytest.raises(DomainError, match="delta1"):
        PendulumParams(1.0, -1.0, 0.2, -1.0, 5.0, 1.0, Theta0.ZERO)
    with pytest.raises(DomainError, match="beta"):
        PendulumParams(1.0, -1.0, 0.2, -1.2, -5.0, 1.0, Theta0.ZERO)
    with pytest.raises(DomainError, match="omega"):
        PendulumParams(1.0, -1.0, 0.2, -1.2, 5.0, 0.0, Theta0.ZERO)
    with pytest.raises(DomainError, match="eps"):
        PendulumParams(1.0, -1.0, 0.2, -1.2, 5.0, 1.0, Theta0.ZERO, eps=-0.1)


def test_codim2_point_hanging_case():
    loc = codim2_locus(example_theta_zero(1.25, -1.2))
    assert loc.alpha0 == pytest.approx(1.0, abs=1e-15)
    assert loc.gamma0 == pytest.approx(-1.0, abs=1e-15)
    assert loc.alpha1 == pytest.approx(0.25, abs=1e-15)
    assert loc.gamma1 == pytest.approx(-0.2, abs=1e-15)


def test_codim2_point_inverted_case():
    loc = codim2_locus(example_theta_pi(0.8, 0.7))
    assert loc.alpha0 == pytest.approx(1.0, abs=1e-15)
    assert loc.gamma0 == pytest.approx(1.0, abs=1e-15)
    assert loc.alpha1 == pytest.approx(-0.2, abs=1e-15)
    assert loc.gamma1 == pytest.approx(-0.3, abs=1e-15)


def test_codim2_locus_rejects_nonpositive_alpha0():
    # Hanging configuration with delta1 > -1 pushes the double-zero gain
    # negative: no physical point exists.
    p = PendulumParams(1.0, -1.0, 0.5, 0.5, 5.0, 1.0, Theta0.ZERO)
    with pytest.raises(DegeneracyError, match="not positive"):
        codim2_locus(p)


@pytest.mark.parametrize("factory", [example_theta_zero, example_theta_pi])
def test_double_zero_at_the_corner(factory):
    """At the located gain point the linearization has an exact double-zero:
    the characteristic polynomial of the rest-state Jacobian is
    ``lam**3 + c2*lam**2`` with ``c2 = alpha0 + delta0``."""
    p = factory(2.0, 0.3)
    loc = codim2_locus(p)
    corner = replace(p, alpha=loc.alpha0, gamma=loc.gamma0)
    rest = np.array([p.theta0.angle, 0.0, 0.0])
    one, c2, c1, c0 = np.poly(vector_field_jacobian(corner, rest))
    assert one == pytest.approx(1.0, rel=1e-14)
    assert abs(c0) < 1e-12
    assert abs(c1) < 1e-12
    assert c2 == pytest.approx(loc.alpha0 + p.delta0, rel=1e-14)


@pytest.mark.parametrize("factory", [example_theta_zero, example_theta_pi])
def test_the_rest_state_is_an_equilibrium(factory):
    """The commanded angle at rest zeroes the unforced vector field for any gains."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        alpha = float(rng.uniform(0.3, 3.0))
        gamma = float(rng.uniform(-3.0, 3.0))
        p = factory(alpha, gamma)
        rest = np.array([p.theta0.angle, 0.0, 0.0])
        assert np.max(np.abs(vector_field(p, 0.0, rest))) < 1e-15


def test_jacobian_matches_finite_differences():
    p = example_theta_zero(1.25, -1.2, omega=0.3, eps=0.01)
    z = np.array([0.4, -0.2, 0.1])
    jac = vector_field_jacobian(p, z)
    h = 1e-6
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        col = (vector_field(p, 0.7, z + step) - vector_field(p, 0.7, z - step)) / (2 * h)
        assert np.max(np.abs(col - jac[:, j])) < 1e-8


def test_forcing_enters_only_the_servo_equation():
    p = example_theta_zero(1.25, -1.2, omega=0.5, eps=0.02)
    z = np.array([0.1, 0.2, -0.3])
    quiet = vector_field(p, 0.0, z)
    # theta_d(t) - theta_d(0) changes only z3'.
    later = vector_field(p, math.pi / p.omega, z)
    assert later[0] == quiet[0]
    assert later[1] == quiet[1]
    assert later[2] - quiet[2] == pytest.approx(-2.0 * p.eps * p.beta * p.gamma, rel=1e-12)


# ---------------------------------------------------------------------------
# Steady states of the unforced system (frozen reference values)
# ---------------------------------------------------------------------------

# Asymmetric rest states (z1, z3) with z2 = 0; the mirror state is the
# negation.  Hanging configuration, alpha = 1.5, three gamma values.
HANGING_REST_STATES = [
    (-1.3, 0.9132926875617018, 0.7915203292201416),
    (-1.342915, 0.8056567435744962, 0.7212856838648964),
    (-1.4, 0.6389467723304353, 0.5963503208417396),
]

# Inverted configuration, alpha = 0.8, gamma = 0.7: the pair of rest
# angles on either side of pi (not symmetric about pi in z1 because the
# commanded angle enters the servo equation affinely).
INVERTED_REST_STATES = [
    (4.024683666180083, -0.7727046360165037),
    (2.258501640999503, 0.7727046360165037),
]


@pytest.mark.parametrize("gamma,z1,z3", HANGING_REST_STATES)
def test_hanging_rest_states(gamma, z1, z3):
    p = example_theta_zero(1.5, gamma)
    for sign in (1.0, -1.0):
        state = np.array([sign * z1, 0.0, sign * z3])
        assert np.max(np.abs(vector_field(p, 0.0, state))) < 1e-8
    # The two defining balances: torque and servo.
    assert z3 == pytest.approx(math.sin(z1), abs=1e-10)
    assert z3 == pytest.approx(-gamma * z1 / 1.5, abs=1e-10)


@pytest.mark.parametrize("z1,z3", INVERTED_REST_STATES)
def test_inverted_rest_states(z1, z3):
    p = example_theta_pi(0.8, 0.7)
    state = np.array([z1, 0.0, z3])
    assert np.max(np.abs(vector_field(p, 0.0, state))) < 1e-8
    assert z3 == pytest.approx(math.sin(z1), abs=1e-10)
    assert z3 == pytest.approx(0.7 * (math.pi - z1) / 0.8, abs=1e-10)


# ---------------------------------------------------------------------------
# Reduction to the planar normal form
# ---------------------------------------------------------------------------


def _printed_reduction(p: PendulumParams) -> dict[str, float]:
    """The source text's closed forms of the pendulum's reduction.

    With ``s = alpha0 + delta0`` the normal form is ``nu1 = 9 delta0**2
    drive / (alpha0**2 s**2)``, ``drive = -(sigma alpha1 + gamma1) / s``,
    ``nu2 = 3 delta0 ((sigma / s**2 - delta0 / s) alpha1 + gamma1 / s**2) /
    (alpha0 s)``, ``omega_bar = 3 delta0 omega / (alpha0 s)``, ``c = sigma
    alpha0 / (6 s)``, ``d = sigma delta0 / (2 s**2)`` and the forcing
    amplitude ``4.5 sqrt(6) beta gamma0 delta0**3 / (alpha0**2.5 s**4.5)``;
    the calibration's scale is ``eps_hat = 3 delta0 sqrt(|drive|) /
    (alpha0 s)``.
    """
    loc = codim2_locus(p)
    sigma, a0, d0 = p.sigma, loc.alpha0, p.delta0
    s = a0 + d0
    drive = -(sigma * loc.alpha1 + loc.gamma1) / s
    return {
        "nu1": 9.0 * d0**2 * drive / (a0**2 * s**2),
        "nu2": 3.0 * d0 * ((sigma / s**2 - d0 / s) * loc.alpha1 + loc.gamma1 / s**2) / (a0 * s),
        "omega_bar": 3.0 * d0 * p.omega / (a0 * s),
        "c": sigma * a0 / (6.0 * s),
        "d": sigma * d0 / (2.0 * s**2),
        "amplitude": 4.5 * math.sqrt(6.0) * p.beta * loc.gamma0 * d0**3 / (a0**2.5 * s**4.5),
        "eps_hat": 3.0 * d0 * math.sqrt(abs(drive)) / (a0 * s),
    }


def test_reduced_forcing_frozen_value():
    nf = normal_form(example_theta_zero(1.25, -1.2))
    assert nf.h.sin_terms == ()
    assert dict(nf.h.cos_terms)[1] == pytest.approx(CENSUS_AMPLITUDE, rel=1e-14)


@pytest.mark.parametrize("factory,s_expected", [
    (example_theta_zero, 1),
    (example_theta_pi, -1),
])
def test_cubic_signs_follow_configuration(factory, s_expected):
    p = factory(1.3, s_expected * -1.15, eps=1e-4)
    nf, _ = reduce_pendulum(p)
    assert nf.s1 == s_expected
    assert nf.s2 == s_expected


def test_the_reduction_matches_the_printed_closed_forms():
    """The one reduction route, and the calibration read off it, give the
    printed closed forms at random gains, frequencies and constants."""
    rng = np.random.default_rng(2024)
    factories = [example_theta_zero, example_theta_pi]
    for checked in range(100):
        factory = factories[checked % 2]
        alpha = float(rng.uniform(0.4, 2.5))
        gamma = float(rng.uniform(-2.5, 2.5))
        omega = float(rng.uniform(0.05, 2.0))
        # Both study cases keep a positive alpha0 for any positive delta0.
        constants = {"delta0": float(rng.uniform(0.1, 0.6)), "beta": float(rng.uniform(0.5, 8.0))}
        p = replace(factory(alpha, gamma, omega=omega), **constants)
        printed = _printed_reduction(p)
        nf = normal_form(p)
        assert nf.nu1 == pytest.approx(printed["nu1"], rel=1e-12, abs=1e-15)
        assert nf.nu2 == pytest.approx(printed["nu2"], rel=1e-12, abs=1e-15)
        assert nf.s1 == nf.s2 == p.sigma
        assert nf.omega_bar == pytest.approx(printed["omega_bar"], rel=1e-12)
        assert nf.c == pytest.approx(printed["c"], rel=1e-12)
        assert nf.d == pytest.approx(printed["d"], rel=1e-12)
        assert nf.h.sin_terms == ()
        assert dict(nf.h.cos_terms)[1] == pytest.approx(printed["amplitude"], rel=1e-12)
        # The drawn frequency doubles as the calibration target omega_hat;
        # the printed calibrated frequency is eps_hat alpha0 s omega_hat /
        # (3 delta0), that is eps_hat omega_hat omega / omega_bar.
        calibrated, eps_hat = calibrated_params(p, omega)
        assert eps_hat == pytest.approx(printed["eps_hat"], rel=1e-12)
        assert calibrated.omega == pytest.approx(
            printed["eps_hat"] * omega * p.omega / printed["omega_bar"], rel=1e-12
        )
        assert calibrated.eps == pytest.approx(printed["eps_hat"] ** 4, rel=1e-12)


def test_reduce_pendulum_requires_forcing_scale():
    with pytest.raises(DomainError, match="eps"):
        reduce_pendulum(example_theta_zero(1.25, -1.2, eps=0.0))


def test_calibrated_params_frozen_census_point():
    p, eps_hat = calibrated_params(example_theta_zero(1.25, -1.2), 0.8)
    assert eps_hat == pytest.approx(CENSUS_EPS_HAT, rel=1e-14)
    assert p.omega == pytest.approx(CENSUS_OMEGA, rel=1e-14)
    assert p.eps == pytest.approx(CENSUS_EPS, rel=1e-14)
    nf, scaled = reduce_pendulum(p)
    assert scaled.branch is ScalingBranch.NU1_NEGATIVE
    assert scaled.eps_hat == pytest.approx(eps_hat, rel=1e-12)
    assert scaled.omega_hat == pytest.approx(0.8, rel=1e-12)
    assert scaled.nu_hat == pytest.approx(-1.0 / 3.0, rel=1e-12)
    assert scaled.delta_big == pytest.approx(1.0, rel=1e-12)
    assert nf.nu1 == pytest.approx(-(eps_hat**2), rel=1e-12)


def test_calibrated_params_rejects_pitchfork_gains():
    # gamma1 = -sigma * alpha1 kills the nu1 drive.
    with pytest.raises(DomainError, match="pitchfork"):
        calibrated_params(example_theta_zero(1.2, -1.2), 0.8)
    with pytest.raises(DomainError, match="omega_hat"):
        calibrated_params(example_theta_zero(1.25, -1.2), 0.0)


# ---------------------------------------------------------------------------
# The printed amplitude displays
# ---------------------------------------------------------------------------


def _half_period_ratio(k: float) -> float:
    """pi * K(k') / K(k), from SciPy's integrals in the parameter k**2."""
    return math.pi * special.ellipkm1(k * k) / special.ellipk(k * k)


def _printed_profile(p: PendulumParams, family: FamilyTag, m: int, omega_hat: float):
    """The source text's printed projection of the reduced forcing.

    Each display is one harmonic of amplitude ``w * A / (hyperbolic)``
    with ``w = sqrt(2) pi omega_hat`` and ``A`` the reduced forcing
    amplitude; the loop families' subharmonic displays carry a factor m.
    """
    w = math.sqrt(2.0) * math.pi * omega_hat * _printed_reduction(p)["amplitude"]
    if family is FamilyTag.HET_PAIR:
        return MelnikovProfile.from_trig(
            cosine(w / math.sinh(math.sqrt(2.0) * math.pi * omega_hat / 2.0))
        )
    if family is FamilyTag.HOM_PAIR:
        return MelnikovProfile.from_trig(_sine(w / math.cosh(math.pi * omega_hat / 2.0)))
    k = float(resonant_modulus(family, m, 1, omega_hat))
    r = _half_period_ratio(k)
    trig = {
        FamilyTag.INSIDE_HET: cosine(2.0 * w / math.sinh(m * r / 2.0)),
        FamilyTag.GLOBAL: _sine(2.0 * w / math.cosh(m * r / 2.0)),
        FamilyTag.INSIDE_HOM: _sine(m * w / math.cosh(m * r)),
        FamilyTag.OUTSIDE_HOM: _sine(2.0 * m * w / math.cosh(m * r / 2.0)),
    }[family]
    return MelnikovProfile.from_trig(trig, family=FamilyKind(family), k=k, m=m, n=1)


def _sine(amplitude: float) -> TrigPolynomial:
    return TrigPolynomial({}, {1: amplitude})


def _gain_slopes(family, m, omega_hat):
    factory = example_theta_zero if FAMILY_THETA0[family] is Theta0.ZERO else example_theta_pi
    p = factory(1.25, FAMILY_THETA0[family].sigma * -1.2)
    curves = prediction_curves(p, family, m, omega_hat, 1.0)
    return p, [c.slope for c in curves]


@pytest.mark.parametrize("family,emitter", [
    (FamilyTag.HET_PAIR, heteroclinic_curves),
    (FamilyTag.HOM_PAIR, homoclinic_curves),
])
def test_separatrix_curves_match_the_printed_displays(family, emitter):
    omega_hat = 0.9
    p, slopes = _gain_slopes(family, 1, omega_hat)
    printed = emitter(p.sigma, 1.0, _printed_profile(p, family, 1, omega_hat))
    assert slopes == pytest.approx([c.slope for c in printed], rel=1e-10)


@pytest.mark.parametrize("family,m,omega_hat", [
    (FamilyTag.INSIDE_HET, 1, 0.8),
    (FamilyTag.INSIDE_HET, 3, 0.8),
    (FamilyTag.GLOBAL, 1, 1.3),
    (FamilyTag.GLOBAL, 3, 3.5),
    (FamilyTag.INSIDE_HOM, 1, 0.8),
    (FamilyTag.INSIDE_HOM, 2, 0.8),
    (FamilyTag.INSIDE_HOM, 3, 2.0),
    (FamilyTag.OUTSIDE_HOM, 1, 0.8),
    (FamilyTag.OUTSIDE_HOM, 3, 0.8),
])
def test_subharmonic_curves_match_the_printed_displays(family, m, omega_hat):
    """The gain-plane curves are the general projection's, with the
    printed factor m for the two loop families: for m > 1 there the
    general projection alone gives other slopes."""
    p, slopes = _gain_slopes(family, m, omega_hat)
    printed = _printed_profile(p, family, m, omega_hat)
    j = j_integrals(family, printed.k, 1)
    expected = [c.slope for c in saddle_node_curves(p.sigma, 1.0, m, printed, j)]
    assert slopes == pytest.approx(expected, rel=1e-10)


def test_prediction_curves_validation():
    p = example_theta_zero(1.25, -1.2)
    with pytest.raises(
        ParityError, match="^family 'inside-het' has a nonzero projection only for odd m, got m=2$"
    ):
        prediction_curves(p, FamilyTag.INSIDE_HET, 2, 0.8, 1.0)
    with pytest.raises(DomainError, match="^m must be >= 1, got 0$"):
        prediction_curves(p, FamilyTag.INSIDE_HET, 0, 0.8, 1.0)
    with pytest.raises(DomainError, match="^omega_hat must be positive, got -0.5$"):
        prediction_curves(p, FamilyTag.HET_PAIR, 1, -0.5, 1.0)


# ---------------------------------------------------------------------------
# Gain-plane prediction curves
# ---------------------------------------------------------------------------


def test_family_configuration_map():
    assert FAMILY_THETA0[FamilyTag.HET_PAIR] is Theta0.ZERO
    assert FAMILY_THETA0[FamilyTag.INSIDE_HET] is Theta0.ZERO
    for tag in (FamilyTag.GLOBAL, FamilyTag.HOM_PAIR,
                FamilyTag.INSIDE_HOM, FamilyTag.OUTSIDE_HOM):
        assert FAMILY_THETA0[tag] is Theta0.PI


@pytest.mark.parametrize("family", sorted(PERIODIC_TAGS, key=lambda t: t.value))
def test_the_parity_guard_follows_the_velocity_spectrum(family):
    """m = 2 is refused exactly when the orbit velocity has no even harmonic."""
    lo, hi = modulus_range(family)
    k = 0.5 * (lo + hi)
    odd_only = not np.any(_velocity_spectrum(FamilyKind(family), k, 9)[2::2])
    # The 2:1 resonance sits at the mid-range modulus.
    omega_hat = 4.0 * math.pi / period(family, k)
    if odd_only:
        with pytest.raises(ParityError):
            _gain_slopes(family, 2, omega_hat)
    else:
        assert _gain_slopes(family, 2, omega_hat)[1]


def test_prediction_curves_configuration_mismatch():
    with pytest.raises(DomainError, match="belongs to theta0"):
        prediction_curves(example_theta_zero(1.25, -1.2), FamilyTag.GLOBAL, 1, 0.8, 1.0)
    with pytest.raises(ParityError):
        prediction_curves(example_theta_zero(1.25, -1.2), FamilyTag.INSIDE_HET, 2, 0.8, 1.0)


def _reduced_point(p: PendulumParams, alpha: float, gamma: float):
    """Map a gain point to (nu1, nu2) through the reduction."""
    nf = normal_form(replace(p, alpha=alpha, gamma=gamma))
    return nf.nu1, nf.nu2


@pytest.mark.parametrize("family,m,omega_hat,factory", [
    (FamilyTag.HET_PAIR, 1, 0.8, example_theta_zero),
    (FamilyTag.INSIDE_HET, 1, 0.8, example_theta_zero),
    (FamilyTag.HOM_PAIR, 1, 0.8, example_theta_pi),
    (FamilyTag.GLOBAL, 1, 1.3, example_theta_pi),
    (FamilyTag.INSIDE_HOM, 2, 0.8, example_theta_pi),
    (FamilyTag.OUTSIDE_HOM, 1, 0.8, example_theta_pi),
])
def test_prediction_curves_are_reduced_plane_rays(family, m, omega_hat, factory):
    """Each emitted ray pulls back to nu2 = slope*nu1 on the right half-plane,
    and its points are the per-point float sums ``alpha0 + t*direction``."""
    p = factory(1.25, FAMILY_THETA0[family].sigma * -1.2)
    curves = prediction_curves(p, family, m, omega_hat, 1.0, extent=0.25)
    assert curves, "family emitted no curves"
    inv = np.linalg.inv(np.array(unfolding_map(taylor_coefficients(p))))
    for curve in curves:
        direction = inv @ np.array([1.0, curve.slope])
        t_max = 0.25 / max(abs(direction[0]), abs(direction[1]))
        assert curve.points == tuple(
            (curve.alpha0 + float(t * direction[0]), curve.gamma0 + float(t * direction[1]))
            for t in np.linspace(0.0, curve.nu1_sign * t_max, 33)
        )
        assert all(type(x) is float for pt in curve.points for x in pt)
        assert curve.curve_set == family.value
        assert curve.alpha0 == pytest.approx(1.0, abs=1e-14)
        assert curve.points[0] == pytest.approx((curve.alpha0, curve.gamma0))
        tip_alpha, tip_gamma = curve.points[-1]
        spread = max(abs(tip_alpha - curve.alpha0), abs(tip_gamma - curve.gamma0))
        assert spread == pytest.approx(0.25, rel=1e-9)
        for alpha, gamma in curve.points[1:]:
            nu1, nu2 = _reduced_point(p, alpha, gamma)
            assert nu1 * curve.nu1_sign > 0.0
            assert nu2 == pytest.approx(curve.slope * nu1, rel=1e-9, abs=1e-12)


def test_prediction_curve_records():
    p = example_theta_zero(1.25, -1.2)
    curves = prediction_curves(p, FamilyTag.INSIDE_HET, 1, 0.8, 1.0, samples=5)
    kinds = {c.kind.value for c in curves}
    assert "saddle-node" in kinds
    records = curves[0].as_records()
    assert len(records) == 5
    assert set(records[0]) == {"alpha", "gamma", "kind", "m", "n", "extremum", "curve_set"}
    assert records[0]["m"] == 1
    assert records[0]["n"] == 1
    assert records[0]["curve_set"] == "inside-het"


def test_taylor_coefficients_shape():
    coeffs = taylor_coefficients(example_theta_zero(1.25, -1.2))
    assert coeffs.forcing1.is_zero()
    assert coeffs.forcing2.sin_terms == ()
    assert coeffs.cubic1[1:] == (0.0, 0.0, 0.0)
    assert coeffs.cubic2[1:] == (0.0, 0.0, 0.0)
