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
locates that point, reduces the system analytically to the planar normal
form of :mod:`.normalform` (closed-form coefficient tables, no numerical
differentiation), and emits the predicted bifurcation curves pulled back
from the reduced parameter plane to the ``(alpha, gamma)`` plane.

The subharmonic curve emitters evaluate the source text's printed amplitude
displays verbatim; for the two loop families those displays carry an extra
factor ``m`` relative to the general projection formula, and this module
reproduces them as printed (the general route lives in :mod:`.melnikov`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .bifurcation import (
    BifurcationCurve,
    CurveKind,
    heteroclinic_curves,
    homoclinic_curves,
    saddle_node_curves,
)
from .elliptic import complete_K
from .errors import DegeneracyError, DomainError, ParityError
from .fourier import TrigPolynomial, cosine, sine
from .melnikov import MelnikovProfile, j_integrals
from .normalform import (
    NormalFormParams,
    ScaledParams,
    SymmetricSystemCoeffs,
    scale,
)
from .orbits import FamilyKind, FamilyTag, resonant_modulus

__all__ = [
    "Theta0",
    "PendulumParams",
    "Codim2Point",
    "ParameterPlaneCurve",
    "codim2_locus",
    "characteristic_coefficients",
    "taylor_coefficients",
    "reduce_pendulum",
    "reduced_forcing_amplitude",
    "projected_amplitude",
    "prediction_curves",
    "vector_field",
    "vector_field_jacobian",
    "calibrated_params",
    "example_theta_zero",
    "example_theta_pi",
    "FAMILY_THETA0",
]

_SQRT2 = math.sqrt(2.0)


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


def characteristic_coefficients(
    p: PendulumParams, alpha: float | None = None, gamma: float | None = None
) -> tuple[float, float, float]:
    """Coefficients ``(c2, c1, c0)`` of the symmetric equilibrium's
    characteristic polynomial ``lam**3 + c2*lam**2 + c1*lam + c0``.

    Evaluated at the equilibrium ``(theta0, 0, 0)`` of the unforced system,
    optionally overriding the gains.
    """
    a = p.alpha if alpha is None else float(alpha)
    g = p.gamma if gamma is None else float(gamma)
    sigma = p.sigma
    return (
        a + p.delta0,
        a * p.delta0 + p.delta1 + sigma,
        sigma * a + g,
    )


def _table(sigma: int, alpha0: float, delta0: float) -> dict[str, float]:
    """Closed-form reduction coefficients of the center-manifold chart."""
    s = alpha0 + delta0
    return {
        "a11": sigma / s**2,
        "a12": delta0 / s**2,
        "a21": -sigma / s,
        "a22": -delta0 / s,
        "b11": 1.0 / s**2,
        "b21": -1.0 / s,
    }


def reduced_forcing_amplitude(p: PendulumParams) -> float:
    """Signed amplitude of the reduced forcing profile ``h(phi) = A cos(phi)``."""
    loc = codim2_locus(p)
    a0, d0 = loc.alpha0, p.delta0
    return (
        4.5 * math.sqrt(6.0) * p.beta * loc.gamma0 * d0**3
        / (a0**2.5 * (a0 + d0) ** 4.5)
    )


def taylor_coefficients(p: PendulumParams) -> SymmetricSystemCoeffs:
    """Taylor data of the center-manifold reduction at the double-zero point.

    This is the generic-route input for :func:`.normalform.reduce`; the
    specialized formulas in :func:`reduce_pendulum` must agree with feeding
    this data through the generic reduction (a two-path consistency check
    exercised by the test suite).
    """
    loc = codim2_locus(p)
    sigma = p.sigma
    a0, d0 = loc.alpha0, p.delta0
    s = a0 + d0
    t = _table(sigma, a0, d0)
    return SymmetricSystemCoeffs(
        cubic1=(sigma * d0 / s**2, 0.0, 0.0, 0.0),
        cubic2=(sigma * a0 / s, 0.0, 0.0, 0.0),
        coupling1=((t["a11"], t["b11"]), (t["a12"], 0.0)),
        coupling2=((t["a21"], t["b21"]), (t["a22"], 0.0)),
        forcing1=TrigPolynomial(),
        forcing2=cosine(p.beta * loc.gamma0 / s),
    )


def reduce_pendulum(p: PendulumParams) -> tuple[NormalFormParams, ScaledParams]:
    """Analytic reduction of the pendulum to normal-form and scaled parameters.

    Uses the closed-form coefficient tables; both cubic signs equal the sign
    of ``cos(theta0)``.  The scaled parameters are produced by
    :func:`.normalform.scale`, so ``nu1 = 0`` (gains on the vertical line
    through the double-zero point) raises :class:`~.errors.DomainError`.
    """
    loc = codim2_locus(p)
    sigma = p.sigma
    a0, d0 = loc.alpha0, p.delta0
    s = a0 + d0
    t = _table(sigma, a0, d0)
    nu1 = 9.0 * d0**2 * (t["a21"] * loc.alpha1 + t["b21"] * loc.gamma1) / (a0**2 * s**2)
    nu2 = 3.0 * d0 * ((t["a11"] + t["a22"]) * loc.alpha1 + t["b11"] * loc.gamma1) / (a0 * s)
    nf = NormalFormParams(
        nu1=nu1,
        nu2=nu2,
        s1=sigma,
        s2=sigma,
        omega_bar=3.0 * d0 * p.omega / (a0 * s),
        c=sigma * a0 / (6.0 * s),
        d=sigma * d0 / (2.0 * s**2),
        h=cosine(reduced_forcing_amplitude(p)),
    )
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
    """
    omega_hat = float(omega_hat)
    if not (omega_hat > 0.0):
        raise DomainError(f"omega_hat must be positive, got {omega_hat!r}")
    loc = codim2_locus(p)
    a0, d0 = loc.alpha0, p.delta0
    t = _table(p.sigma, a0, d0)
    drive = t["a21"] * loc.alpha1 + t["b21"] * loc.gamma1
    if drive == 0.0:
        raise DomainError(
            "gains sit on the pitchfork line (nu1 = 0); no scale is defined"
        )
    eps_hat = 3.0 * d0 * math.sqrt(abs(drive)) / (a0 * (a0 + d0))
    omega = eps_hat * a0 * (a0 + d0) * omega_hat / (3.0 * d0)
    return replace(p, omega=omega, eps=eps_hat**4), eps_hat


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


#: Configuration each orbit family's prediction belongs to.
FAMILY_THETA0: dict[FamilyTag, Theta0] = {
    FamilyTag.HET_PAIR: Theta0.ZERO,
    FamilyTag.INSIDE_HET: Theta0.ZERO,
    FamilyTag.GLOBAL: Theta0.PI,
    FamilyTag.HOM_PAIR: Theta0.PI,
    FamilyTag.INSIDE_HOM: Theta0.PI,
    FamilyTag.OUTSIDE_HOM: Theta0.PI,
}

#: Families whose printed subharmonic amplitude requires odd m.
_ODD_M_FAMILIES = frozenset(
    {FamilyTag.INSIDE_HET, FamilyTag.GLOBAL, FamilyTag.OUTSIDE_HOM}
)


def _half_period_ratio(k) -> float:
    """pi * K(k') / K(k) for the resonant modulus."""
    kv = float(k)
    kprime = math.sqrt((1.0 - kv) * (1.0 + kv))
    return math.pi * complete_K(kprime) / complete_K(kv)


def projected_amplitude(
    p: PendulumParams, family: FamilyTag, m: int, omega_hat: float
) -> tuple[float, object]:
    """Signed amplitude of the projected forcing for one orbit family.

    Returns ``(amplitude, k)`` where ``k`` is the resonant modulus (``None``
    for the two separatrix families) and ``amplitude`` multiplies ``cos(phi)``
    for the saddle-to-saddle families and ``sin(phi)`` for the loop-side
    families.  Subharmonic amplitudes follow the source text's printed
    displays (including their factor ``m`` for the two loop families).
    """
    omega_hat = float(omega_hat)
    if not (omega_hat > 0.0):
        raise DomainError(f"omega_hat must be positive, got {omega_hat!r}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    a = reduced_forcing_amplitude(p)
    if family is FamilyTag.HET_PAIR:
        x = _SQRT2 * math.pi * omega_hat / 2.0
        return (_SQRT2 * math.pi * omega_hat * a / math.sinh(x), None)
    if family is FamilyTag.HOM_PAIR:
        return (
            _SQRT2 * math.pi * omega_hat * a / math.cosh(math.pi * omega_hat / 2.0),
            None,
        )
    if family in _ODD_M_FAMILIES and m % 2 == 0:
        raise ParityError(
            f"family {family.value!r} has a nonzero projection only for odd m, got m={m}"
        )
    k = resonant_modulus(family, m, 1, omega_hat)
    ratio = _half_period_ratio(k)
    if family is FamilyTag.INSIDE_HET:
        return (2.0 * _SQRT2 * math.pi * omega_hat * a / math.sinh(m * ratio / 2.0), k)
    if family is FamilyTag.GLOBAL:
        return (2.0 * _SQRT2 * math.pi * omega_hat * a / math.cosh(m * ratio / 2.0), k)
    if family is FamilyTag.INSIDE_HOM:
        return (m * _SQRT2 * math.pi * omega_hat * a / math.cosh(m * ratio), k)
    if family is FamilyTag.OUTSIDE_HOM:
        return (
            2.0 * m * _SQRT2 * math.pi * omega_hat * a / math.cosh(m * ratio / 2.0),
            k,
        )
    raise DomainError(f"unknown family {family!r}")


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


def _reduction_matrix(p: PendulumParams) -> tuple[Codim2Point, np.ndarray]:
    """Affine map (alpha1, gamma1) -> (nu1, nu2) as a 2x2 matrix."""
    loc = codim2_locus(p)
    a0, d0 = loc.alpha0, p.delta0
    s = a0 + d0
    t = _table(p.sigma, a0, d0)
    pref1 = 9.0 * d0**2 / (a0**2 * s**2)
    pref2 = 3.0 * d0 / (a0 * s)
    mat = np.array(
        [
            [pref1 * t["a21"], pref1 * t["b21"]],
            [pref2 * (t["a11"] + t["a22"]), pref2 * t["b11"]],
        ]
    )
    return loc, mat


def _pullback(
    p: PendulumParams,
    curves: list[BifurcationCurve],
    curve_set: str,
    *,
    extent: float,
    samples: int,
) -> list[ParameterPlaneCurve]:
    loc, mat = _reduction_matrix(p)
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
        pts = tuple(
            (loc.alpha0 + float(t * direction[0]), loc.gamma0 + float(t * direction[1]))
            for t in ts
        )
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

    ``p`` supplies the configuration (``theta0`` must match the family's
    half of the analysis) and the physical constants entering the forcing
    amplitude; ``m`` is the subharmonic order (ignored for the two
    separatrix families, odd-only where the projection vanishes for even
    ``m``); ``delta_big`` is the scaled forcing ratio.  Each emitted curve
    is a ray through the double-zero point sampled out to ``extent`` in the
    larger of the two gain offsets.

    Raises
    ------
    DomainError
        If ``theta0`` does not match the family.
    ParityError
        If ``m`` is even for a family whose projection then vanishes.
    """
    required = FAMILY_THETA0[family]
    if p.theta0 is not required:
        raise DomainError(
            f"family {family.value!r} belongs to theta0={required.value!r}, "
            f"got theta0={p.theta0.value!r}"
        )
    s2 = p.sigma
    amp, k = projected_amplitude(p, family, m, omega_hat)

    if family is FamilyTag.HET_PAIR:
        profile = MelnikovProfile.from_trig(
            cosine(amp), family=FamilyKind(family), omega_hat=float(omega_hat)
        )
        curves = heteroclinic_curves(s2, delta_big, profile)
        return _pullback(p, curves, family.value, extent=extent, samples=samples)
    if family is FamilyTag.HOM_PAIR:
        profile = MelnikovProfile.from_trig(
            sine(amp), family=FamilyKind(family), omega_hat=float(omega_hat)
        )
        curves = homoclinic_curves(s2, delta_big, profile)
        return _pullback(p, curves, family.value, extent=extent, samples=samples)

    trig = cosine(amp) if family is FamilyTag.INSIDE_HET else sine(amp)
    profile = MelnikovProfile.from_trig(
        trig, family=FamilyKind(family), k=float(k), m=m, n=1,
        omega_hat=float(omega_hat),
    )
    j = j_integrals(family, k, 1)
    curves = saddle_node_curves(s2, delta_big, m, profile, j)
    return _pullback(p, curves, family.value, extent=extent, samples=samples)
