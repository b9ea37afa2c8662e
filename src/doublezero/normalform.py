"""Reduction of symmetric planar Taylor data to the perturbed normal form.

A planar system that is odd-symmetric about the origin and sits at a
double-zero (nilpotent) linearization is determined, to the order that
matters for local bifurcation analysis, by

* the cubic Taylor coefficients of its two components,
* the coefficients coupling the state linearly to two unfolding parameters,
* a mean-zero periodic forcing profile evaluated at the origin.

This module maps that data onto the canonical second-order form

    y1' = y2
    y2' = nu1*y1 + nu2*y2 + s1*y1**3 + s2*y1**2*y2 + eps*h(omega_bar*t)

with signs ``s1, s2`` and reduced parameters ``(nu1, nu2, omega_bar, h)``
computed from the two cubic combinations that must not vanish, and onto the
further rescaled form used by the splitting analysis, parameterized by
``(eps_hat, nu_hat, omega_hat, delta_big)`` on the two half-planes
``nu1 < 0`` and ``nu1 > 0``.

Only the parameter and forcing images are produced.  The near-identity state
transformations themselves are not represented: every downstream prediction
depends on the reduced parameters alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegeneracyError, DomainError
from .fourier import TrigPolynomial

__all__ = [
    "SymmetricSystemCoeffs",
    "NormalFormParams",
    "ScalingBranch",
    "ScaledParams",
    "DEGENERACY_TOL",
    "FORCING_MEAN_TOL",
    "reduce",
    "scale",
    "unfolding_map",
]

#: Cubic combinations smaller than this are treated as degenerate.
DEGENERACY_TOL = 1e-12

#: Largest admissible mean for a forcing profile.
FORCING_MEAN_TOL = 1e-10

_Quad = tuple[float, float, float, float]
_Pair = tuple[float, float]
_PairPair = tuple[_Pair, _Pair]


def _as_quad(values, what: str) -> _Quad:
    vals = tuple(float(v) for v in values)
    if len(vals) != 4:
        raise DomainError(f"{what} needs exactly 4 cubic coefficients, got {len(vals)}")
    return vals  # type: ignore[return-value]


def _as_pair_pair(values, what: str) -> _PairPair:
    rows = tuple(tuple(float(v) for v in row) for row in values)
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise DomainError(f"{what} needs a 2x2 coefficient block")
    return rows  # type: ignore[return-value]


@dataclass(frozen=True)
class SymmetricSystemCoeffs:
    """Taylor data of a symmetric planar system at its double-zero point.

    Attributes
    ----------
    cubic1, cubic2
        Cubic coefficients of the first and second component, ordered as the
        coefficients of ``x1**3, x1**2*x2, x1*x2**2, x2**3``.
    coupling1, coupling2
        State-parameter coupling blocks: ``couplingJ[k-1][l-1]`` multiplies
        ``x_k * mu_l`` in component ``J``.
    forcing1, forcing2
        Mean-zero 2*pi-periodic forcing profiles of the two components,
        evaluated at the origin.
    """

    cubic1: _Quad
    cubic2: _Quad
    coupling1: _PairPair
    coupling2: _PairPair
    forcing1: TrigPolynomial
    forcing2: TrigPolynomial

    def __post_init__(self) -> None:
        object.__setattr__(self, "cubic1", _as_quad(self.cubic1, "cubic1"))
        object.__setattr__(self, "cubic2", _as_quad(self.cubic2, "cubic2"))
        object.__setattr__(self, "coupling1", _as_pair_pair(self.coupling1, "coupling1"))
        object.__setattr__(self, "coupling2", _as_pair_pair(self.coupling2, "coupling2"))
        for name in ("forcing1", "forcing2"):
            prof: TrigPolynomial = getattr(self, name)
            if abs(prof.mean) > FORCING_MEAN_TOL:
                raise DomainError(f"{name} mean {prof.mean!r} exceeds {FORCING_MEAN_TOL}")


def _sign(x: float) -> int:
    return 1 if x > 0.0 else -1


@dataclass(frozen=True)
class NormalFormParams:
    """Reduced parameters of the canonical second-order form.

    ``s1 = sign(c)`` and ``s2 = sign(d)`` where ``c`` and ``d`` are the two
    non-degenerate cubic combinations retained by the reduction; ``h`` is the
    reduced mean-zero forcing profile and ``omega_bar`` the reduced forcing
    frequency.
    """

    nu1: float
    nu2: float
    s1: int
    s2: int
    omega_bar: float
    c: float
    d: float
    h: TrigPolynomial

    def __post_init__(self) -> None:
        if abs(self.c) <= DEGENERACY_TOL or abs(self.d) <= DEGENERACY_TOL:
            raise DegeneracyError(
                f"cubic combinations must be non-degenerate, got c={self.c!r}, d={self.d!r}"
            )
        if self.s1 != _sign(self.c) or self.s2 != _sign(self.d):
            raise DomainError("signs (s1, s2) must equal (sign(c), sign(d))")
        if not (self.omega_bar > 0.0):
            raise DomainError(f"omega_bar must be positive, got {self.omega_bar!r}")
        if abs(self.h.mean) > FORCING_MEAN_TOL:
            raise DomainError(f"reduced forcing mean {self.h.mean!r} is not zero")


class ScalingBranch(enum.Enum):
    """Which half-plane of the linear-coefficient ``nu1`` the rescaling uses."""

    NU1_NEGATIVE = "nu1-negative"
    NU1_POSITIVE = "nu1-positive"


@dataclass(frozen=True)
class ScaledParams:
    """Parameters of the rescaled slow system on one ``nu1`` half-plane.

    The rescaling sets ``nu1 = -eps_hat**2`` on the negative branch and
    ``nu1 = +eps_hat**2`` on the positive branch; in both cases
    ``nu_hat = nu2 / eps_hat**2``, ``omega_hat = omega_bar / eps_hat`` and
    ``delta_big = eps / eps_hat**4``.
    """

    eps_hat: float
    nu_hat: float
    omega_hat: float
    delta_big: float
    branch: ScalingBranch

    def __post_init__(self) -> None:
        if not (self.eps_hat > 0.0):
            raise DomainError(f"eps_hat must be positive, got {self.eps_hat!r}")
        if not (self.omega_hat > 0.0):
            raise DomainError(f"omega_hat must be positive, got {self.omega_hat!r}")

    @property
    def nu1(self) -> float:
        sign = -1.0 if self.branch is ScalingBranch.NU1_NEGATIVE else 1.0
        return sign * self.eps_hat**2


def _cubic_combinations(coeffs: SymmetricSystemCoeffs) -> tuple[float, float]:
    """The two cubic combinations ``(c, d)`` the reduction needs nonzero."""
    c = coeffs.cubic2[0] / 6.0
    d = (coeffs.cubic2[1] + coeffs.cubic1[0]) / 2.0
    if abs(c) <= DEGENERACY_TOL:
        raise DegeneracyError(f"cubic combination c = {c!r} is degenerate (|c| <= {DEGENERACY_TOL})")
    if abs(d) <= DEGENERACY_TOL:
        raise DegeneracyError(f"cubic combination d = {d!r} is degenerate (|d| <= {DEGENERACY_TOL})")
    return c, d


def unfolding_map(coeffs: SymmetricSystemCoeffs) -> tuple[_Pair, _Pair]:
    """Rows of the linear map ``mu -> (nu1, nu2)`` that :func:`reduce` applies.

    With ``r = |d / c|``, ``nu1`` is ``r**2`` times the ``x1`` coupling of
    the second component, and ``nu2`` is ``r`` times the sum of the ``x1``
    coupling of the first component and the ``x2`` coupling of the second.

    Raises
    ------
    DegeneracyError
        As :func:`reduce`.
    """
    c, d = _cubic_combinations(coeffs)
    ratio = abs(d / c)
    first_x1, _ = coeffs.coupling1
    second_x1, second_x2 = coeffs.coupling2
    return (
        (ratio**2 * second_x1[0], ratio**2 * second_x1[1]),
        (ratio * (first_x1[0] + second_x2[0]), ratio * (first_x1[1] + second_x2[1])),
    )


def reduce(
    coeffs: SymmetricSystemCoeffs,
    mu: tuple[float, float],
    omega: float,
) -> NormalFormParams:
    """Reduce Taylor data at parameters ``mu`` to the canonical form.

    Parameters
    ----------
    coeffs
        Taylor data of the symmetric system at its double-zero point.
    mu
        The two unfolding parameters.
    omega
        Forcing frequency of the original system (> 0).

    Returns
    -------
    NormalFormParams
        Reduced parameters; ``(nu1, nu2)`` is :func:`unfolding_map` applied
        to ``mu``.

    Raises
    ------
    DegeneracyError
        If either of the two required cubic combinations vanishes (within
        ``DEGENERACY_TOL``): one-sixth of the ``x1**3`` coefficient of the
        second component, or the mean of its ``x1**2*x2`` coefficient and the
        ``x1**3`` coefficient of the first component.
    """
    mu1, mu2 = (float(mu[0]), float(mu[1]))
    omega = float(omega)
    if not (omega > 0.0):
        raise DomainError(f"omega must be positive, got {omega!r}")

    (n11, n12), (n21, n22) = unfolding_map(coeffs)
    c, d = _cubic_combinations(coeffs)
    return NormalFormParams(
        nu1=n11 * mu1 + n12 * mu2,
        nu2=n21 * mu1 + n22 * mu2,
        s1=_sign(c),
        s2=_sign(d),
        omega_bar=abs(d / c) * omega,
        c=c,
        d=d,
        h=coeffs.forcing2.scaled(abs(d) ** 3 / abs(c) ** 2.5),
    )


def scale(nf: NormalFormParams, eps: float) -> ScaledParams:
    """Rescale reduced parameters onto the appropriate ``nu1`` half-plane.

    Raises
    ------
    DomainError
        If ``nu1 == 0`` (the rescaling is undefined on the pitchfork line)
        or ``eps <= 0``.
    """
    eps = float(eps)
    if nf.nu1 == 0.0:
        raise DomainError(
            "scaling is undefined at nu1 = 0 (parameters on the pitchfork line)"
        )
    if not (eps > 0.0):
        raise DomainError(f"eps must be positive, got {eps!r}")
    eps_hat = math.sqrt(abs(nf.nu1))
    branch = ScalingBranch.NU1_NEGATIVE if nf.nu1 < 0.0 else ScalingBranch.NU1_POSITIVE
    return ScaledParams(
        eps_hat=eps_hat,
        nu_hat=nf.nu2 / eps_hat**2,
        omega_hat=nf.omega_bar / eps_hat,
        delta_big=eps / eps_hat**4,
        branch=branch,
    )

