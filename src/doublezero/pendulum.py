"""Feedback-controlled pendulum: the worked 3-D example.

The plant is a pendulum with angular position ``z1``, velocity ``z2`` and a
servo state ``z3`` driven by position feedback toward a commanded angle that
oscillates around either the hanging (``theta0 = 0``) or inverted
(``theta0 = pi``) configuration:

    z1' = z2
    z2' = -sin(z1) - delta0*z2 + z3
    z3' = -alpha*z3 + gamma*(theta_d - z1) - delta1*z2,
    theta_d(t) = eps*beta*cos(omega*t) + theta0.

For each ``theta0`` there is a curve in the ``(alpha, gamma)`` gain plane on
which the symmetric equilibrium has a double-zero eigenvalue; this module
locates that point and supplies the Taylor data of the center-manifold
chart there.  :mod:`.normalform` does every reduction of that data: the
normal form, its scaling, the calibration of the forcing read off the
scaling, and the gain-to-reduced-parameter map that :func:`.normalform.reduce`
applies.

The gain-plane curves are the reduced-plane curves of
:func:`.bifurcation.predicted_curves` for the reduced forcing, pulled back
through the inverse of :func:`.normalform.unfolding_map`.  The source
text's printed amplitude displays for the two loop families carry a factor
``m`` that the general projection does not, and the curves keep it: those
families project ``m`` times the reduced forcing.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bifurcation import BifurcationCurve, CurveKind, predicted_curves
from .errors import DegeneracyError, DomainError, ParityError
from .fourier import TrigPolynomial, cosine
from .normalform import (
    NormalFormParams,
    ScaledParams,
    SymmetricSystemCoeffs,
    reduce,
    scale,
    unfolding_map,
)
from .orbits import _ATLAS, FamilyTag, cubic_coefficients

__all__ = [
    "Theta0",
    "PendulumParams",
    "Codim2Point",
    "ParameterPlaneCurve",
    "codim2_locus",
    "taylor_coefficients",
    "normal_form",
    "reduce_pendulum",
    "prediction_curves",
    "vector_field",
    "vector_field_jacobian",
    "calibrated_params",
    "example_theta_zero",
    "example_theta_pi",
    "FAMILY_THETA0",
]


class Theta0(enum.Enum):
    """Commanded rest angle: hanging (0) or inverted (pi)."""

    ZERO = "zero"
    PI = "pi"

    @property
    def sigma(self) -> int:
        """cos(theta0): +1 hanging, -1 inverted."""
        return 1 if self is Theta0.ZERO else -1

    @property
    def angle(self) -> float:
        return 0.0 if self is Theta0.ZERO else math.pi


@dataclass(frozen=True)
class PendulumParams:
    """Physical and control parameters of the servo-pendulum."""

    alpha: float
    gamma: float
    delta0: float
    delta1: float
    beta: float
    omega: float
    theta0: Theta0
    eps: float = 0.0

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0):
            raise DomainError(f"alpha must be positive, got {self.alpha!r}")
        if not (self.delta0 > 0.0):
            raise DomainError(f"delta0 must be positive, got {self.delta0!r}")
        if self.delta1 in (1.0, -1.0):
            raise DomainError("delta1 = +/-1 is excluded (degenerate feedback)")
        if self.beta < 0.0:
            raise DomainError(f"beta must be >= 0, got {self.beta!r}")
        if not (self.omega > 0.0):
            raise DomainError(f"omega must be positive, got {self.omega!r}")
        if self.eps < 0.0:
            raise DomainError(f"eps must be >= 0, got {self.eps!r}")

    @property
    def sigma(self) -> int:
        return self.theta0.sigma


@dataclass(frozen=True)
class Codim2Point:
    """The double-zero point of the gain plane, with offsets of a query point.

    ``alpha0, gamma0`` locate the codimension-two point; ``alpha1, gamma1``
    are the offsets ``alpha - alpha0`` and ``gamma - gamma0`` of the
    parameters the point was computed from.
    """

    alpha0: float
    gamma0: float
    alpha1: float
    gamma1: float


def codim2_locus(p: PendulumParams) -> Codim2Point:
    """Locate the double-zero gain point for the configuration of ``p``.

    At ``(alpha0, gamma0)`` the symmetric equilibrium's Jacobian has a zero
    eigenvalue of algebraic multiplicity exactly two, the third eigenvalue
    being ``-(alpha0 + delta0)``.

    Raises
    ------
    DegeneracyError
        If the computed ``alpha0`` is not positive (no physical double-zero
        point for these damping/feedback values).
    """
    sigma = p.sigma
    alpha0 = -(sigma + p.delta1) / p.delta0
    if not (alpha0 > 0.0):
        raise DegeneracyError(
            f"double-zero gain alpha0 = {alpha0!r} is not positive for "
            f"delta0={p.delta0!r}, delta1={p.delta1!r}, theta0={p.theta0.value!r}"
        )
    gamma0 = -sigma * alpha0
    return Codim2Point(
        alpha0=alpha0,
        gamma0=gamma0,
        alpha1=p.alpha - alpha0,
        gamma1=p.gamma - gamma0,
    )


def taylor_coefficients(p: PendulumParams) -> SymmetricSystemCoeffs:
    """Taylor data of the center-manifold reduction at the double-zero point.

    The unfolding parameters are the gain offsets ``(alpha1, gamma1)`` of
    :func:`codim2_locus`.  This is the pendulum's only input to
    :func:`.normalform.reduce`, and every reduction below goes through it.
    The data depend on ``theta0``, ``delta0``, ``delta1`` and ``beta``
    alone, not on the gains or the forcing frequency and strength.
    """
    loc = codim2_locus(p)
    return _taylor_data(p.sigma, loc.alpha0, loc.gamma0, p.delta0, p.beta)


# Built once per set of constants: a gain-plane query reduces at the same
# constants three times (calibration, reduction, pullback), and building
# and validating the data would cost more than the reduction itself.  The
# result is immutable, so every caller can share it.
@functools.lru_cache(maxsize=16)
def _taylor_data(
    sigma: int, a0: float, gamma0: float, d0: float, beta: float
) -> SymmetricSystemCoeffs:
    s = a0 + d0
    return SymmetricSystemCoeffs(
        cubic1=(sigma * d0 / s**2, 0.0, 0.0, 0.0),
        cubic2=(sigma * a0 / s, 0.0, 0.0, 0.0),
        coupling1=((sigma / s**2, 1.0 / s**2), (d0 / s**2, 0.0)),
        coupling2=((-sigma / s, -1.0 / s), (-d0 / s, 0.0)),
        forcing1=TrigPolynomial(),
        forcing2=cosine(beta * gamma0 / s),
    )


def normal_form(p: PendulumParams) -> NormalFormParams:
    """The normal form of ``p``: :func:`taylor_coefficients` reduced at its gains.

    Both cubic signs equal the sign of ``cos(theta0)``, and the forcing is
    ``A cos(phi)``.  Unlike :func:`reduce_pendulum` it needs no forcing
    scale, so it is defined at ``eps = 0``.
    """
    loc = codim2_locus(p)
    return reduce(taylor_coefficients(p), (loc.alpha1, loc.gamma1), p.omega)


def reduce_pendulum(p: PendulumParams) -> tuple[NormalFormParams, ScaledParams]:
    """The normal form of ``p`` and its scaled parameters at ``p.eps``.

    The scaled parameters are :func:`.normalform.scale` of
    :func:`normal_form`, so ``nu1 = 0`` (gains on the pitchfork line) and
    ``eps = 0`` raise :class:`~.errors.DomainError`.
    """
    nf = normal_form(p)
    return nf, scale(nf, p.eps)


def vector_field(p: PendulumParams, t, z) -> np.ndarray:
    """Right-hand side of the pendulum equations at time ``t`` and state ``z``.

    Also evaluates a batch: ``z`` of shape ``(3, N)`` with ``t`` of shape
    ``(N,)`` gives the ``(3, N)`` columns of the single-state results.
    """
    z1, z2, z3 = np.asarray(z, dtype=float)
    theta_d = p.eps * p.beta * np.cos(p.omega * t) + p.theta0.angle
    return np.array(
        [
            z2,
            -np.sin(z1) - p.delta0 * z2 + z3,
            -p.alpha * z3 + p.gamma * (theta_d - z1) - p.delta1 * z2,
        ]
    )


def vector_field_jacobian(p: PendulumParams, z) -> np.ndarray:
    """State Jacobian of :func:`vector_field` (independent of time).

    Also evaluates a batch: ``z`` of shape ``(3, N)`` gives the
    ``(3, 3, N)`` array whose ``[:, :, j]`` is the Jacobian at column ``j``.
    """
    z1 = z[0]
    jac = np.zeros((3, 3) + np.shape(z1))
    jac[0, 1] = jac[1, 2] = 1.0
    jac[1, 0] = -np.cos(z1)
    jac[1, 1] = -p.delta0
    jac[2, 0] = -p.gamma
    jac[2, 1] = -p.delta1
    jac[2, 2] = -p.alpha
    return jac


def calibrated_params(p: PendulumParams, omega_hat: float) -> tuple[PendulumParams, float]:
    """Choose ``(omega, eps)`` so the rescaled system hits a target frequency.

    Given gains ``(alpha, gamma)`` off the double-zero point, returns a copy
    of ``p`` whose forcing frequency makes the scaled frequency equal
    ``omega_hat`` and whose forcing strength makes the scaled forcing ratio
    exactly one, together with the scale ``eps_hat`` implied by the gains.
    Both are read off :func:`.normalform.scale` of the normal form at unit
    frequency and forcing, where the scaled frequency is linear in
    ``omega``; gains on the pitchfork line raise its
    :class:`~.errors.DomainError`.
    """
    omega_hat = float(omega_hat)
    if not (omega_hat > 0.0):
        raise DomainError(f"omega_hat must be positive, got {omega_hat!r}")
    unit = scale(normal_form(replace(p, omega=1.0)), 1.0)
    calibrated = replace(p, omega=omega_hat / unit.omega_hat, eps=unit.eps_hat**4)
    return calibrated, unit.eps_hat


def example_theta_zero(
    alpha: float, gamma: float, *, omega: float = 1.0, eps: float = 0.0
) -> PendulumParams:
    """The hanging-configuration study case (both cubic signs positive)."""
    return PendulumParams(
        alpha=alpha, gamma=gamma, delta0=0.2, delta1=-1.2, beta=5.0,
        omega=omega, theta0=Theta0.ZERO, eps=eps,
    )


def example_theta_pi(
    alpha: float, gamma: float, *, omega: float = 1.0, eps: float = 0.0
) -> PendulumParams:
    """The inverted-configuration study case (both cubic signs negative)."""
    return PendulumParams(
        alpha=alpha, gamma=gamma, delta0=0.5, delta1=0.5, beta=5.0,
        omega=omega, theta0=Theta0.PI, eps=eps,
    )


#: Configuration each orbit family's prediction belongs to: its host's
#: cubic coefficient ``b`` is the normal form's ``s1 = cos(theta0)``.
FAMILY_THETA0: dict[FamilyTag, Theta0] = {
    tag: Theta0.ZERO if cubic_coefficients(tag)[1] > 0.0 else Theta0.PI for tag in FamilyTag
}

#: Families whose printed subharmonic displays carry a factor m that the
#: general projection does not; their curves project m times the forcing.
_PRINTED_M_FAMILIES = frozenset({FamilyTag.INSIDE_HOM, FamilyTag.OUTSIDE_HOM})


@dataclass(frozen=True)
class ParameterPlaneCurve:
    """A predicted bifurcation curve pulled back to the gain plane.

    ``points`` sample the ray from the double-zero point ``(alpha0, gamma0)``
    that is the preimage of the reduced-plane line ``nu2 = slope * nu1`` on
    its half-plane of validity.
    """

    kind: CurveKind
    curve_set: str
    m: int | None
    n: int | None
    extremum: str | None
    slope: float
    nu1_sign: int
    alpha0: float
    gamma0: float
    points: tuple[tuple[float, float], ...]

    def as_records(self) -> list[dict]:
        return [
            {
                "alpha": a,
                "gamma": g,
                "kind": self.kind.value,
                "m": self.m,
                "n": self.n,
                "extremum": self.extremum,
                "curve_set": self.curve_set,
            }
            for a, g in self.points
        ]


def _pullback(
    loc: Codim2Point,
    unfolding: tuple[tuple[float, float], tuple[float, float]],
    curves: list[BifurcationCurve],
    curve_set: str,
    *,
    extent: float,
    samples: int,
) -> list[ParameterPlaneCurve]:
    mat = np.array(unfolding)
    det = float(np.linalg.det(mat))
    if abs(det) < 1e-14:
        raise DegeneracyError("the gain-to-reduced-parameter map is singular")
    inv = np.linalg.inv(mat)
    out = []
    for curve in curves:
        direction = inv @ np.array([1.0, curve.slope])
        width = max(abs(direction[0]), abs(direction[1]))
        t_max = extent / width if width > 0.0 else 0.0
        ts = np.linspace(0.0, curve.nu1_sign * t_max, samples)
        ray = np.stack([loc.alpha0 + ts * direction[0], loc.gamma0 + ts * direction[1]], axis=1)
        pts = tuple(map(tuple, ray.tolist()))
        out.append(
            ParameterPlaneCurve(
                kind=curve.kind,
                curve_set=curve_set,
                m=curve.label.m,
                n=curve.label.n,
                extremum=curve.label.extremum,
                slope=curve.slope,
                nu1_sign=curve.nu1_sign,
                alpha0=loc.alpha0,
                gamma0=loc.gamma0,
                points=pts,
            )
        )
    return out


def prediction_curves(
    p: PendulumParams,
    family: FamilyTag,
    m: int,
    omega_hat: float,
    delta_big: float,
    *,
    extent: float = 0.5,
    samples: int = 33,
) -> list[ParameterPlaneCurve]:
    """Predicted bifurcation curves of one orbit family in the gain plane.

    The curves are those of :func:`.bifurcation.predicted_curves` for the
    normal form's forcing ``h`` at ``m:1`` resonance and its ``s2 =
    cos(theta0)``, pulled back to the gain plane through the inverse of
    :func:`.normalform.unfolding_map`; for the two loop families the
    forcing carries the printed factor ``m``.  ``p`` supplies the
    configuration (``theta0`` must match the family's half of the
    analysis) and the physical constants of the Taylor data; ``m`` is the
    subharmonic order (checked but otherwise ignored for the two
    separatrix families, odd-only where the projection vanishes for even
    ``m``); ``delta_big`` is the scaled forcing ratio.
    Each emitted curve is a ray through the double-zero point sampled out
    to ``extent`` in the larger of the two gain offsets.

    Raises
    ------
    DomainError
        If ``theta0`` does not match the family, ``omega_hat`` is not
        positive or ``m`` is below 1.
    ParityError
        If ``m`` is even for a family whose projection then vanishes.
    """
    required = FAMILY_THETA0[family]
    if p.theta0 is not required:
        raise DomainError(
            f"family {family.value!r} belongs to theta0={required.value!r}, "
            f"got theta0={p.theta0.value!r}"
        )
    omega_hat = float(omega_hat)
    if not (omega_hat > 0.0):
        raise DomainError(f"omega_hat must be positive, got {omega_hat!r}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    loc = codim2_locus(p)
    # sn and cn velocities have odd harmonics only, so the m:1 projection of
    # the first-harmonic forcing vanishes for even m.  This is not read off
    # a zero profile: an allowed m can also project to an exact zero once
    # the projection drops its rounding-level parts.
    if m % 2 == 0 and _ATLAS[family].profile in ("sn", "cn"):
        raise ParityError(
            f"family {family.value!r} has a nonzero projection only for odd m, got m={m}"
        )
    nf = normal_form(p)
    factor = m if family in _PRINTED_M_FAMILIES else 1
    curves, _ = predicted_curves(nf.h.scaled(factor), family, m, 1, omega_hat, nf.s2, delta_big)
    return _pullback(loc, unfolding_map(taylor_coefficients(p)), curves, family.value,
                     extent=extent, samples=samples)
