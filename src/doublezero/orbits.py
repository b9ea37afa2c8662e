"""Closed-form orbit families of three planar cubic Hamiltonian systems.

After rescaling, the unperturbed dynamics near a symmetric double-zero
point reduce to one of three conservative oscillators

    zeta1'' = a*zeta1 + b*zeta1**3,   (a, b) in {(-1, +1), (-1, -1), (+1, -1)},

whose bounded orbits are expressible in Jacobi elliptic functions.  This
module provides the six orbit families (two separatrix pairs and four
periodic families), their closed-form periods, energies, and actions,
plus the resonance solver used by the subharmonic analysis.

Family atlas
------------
``HET_PAIR``
    Pair of saddle-to-saddle connections of ``(a, b) = (-1, +1)`` joining
    the saddles at ``zeta1 = -1`` and ``zeta1 = +1``.
``INSIDE_HET``
    Periodic family filling the region bounded by the connection pair
    (odd ``sn`` profile), modulus ``k`` in ``(0, 1)``.
``GLOBAL``
    Periodic family of ``(a, b) = (-1, -1)``; every orbit is periodic
    (``cn`` profile), modulus ``k`` in ``(0, 1/sqrt(2))``.
``HOM_PAIR``
    Pair of saddle loops of ``(a, b) = (+1, -1)`` based at the origin,
    each enclosing one of the centers ``zeta1 = ±sqrt(2)`` ... ``±1``.
``INSIDE_HOM``
    Pair of periodic families inside the loops (``dn`` profile), modulus
    ``k`` in ``(0, 1)``; the ``sign`` field selects the lobe.
``OUTSIDE_HOM``
    Periodic family enclosing both loops (``cn`` profile), modulus ``k``
    in ``(1/sqrt(2), 1)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .elliptic import (
    K_MODULUS_CUTOFF,
    EllipticModulus,
    complete_E,
    complete_K,
    dK_dk,
    jacobi_sn_cn_dn,
)
from .errors import DomainError, NoResonance, ResonanceViolation

__all__ = [
    "FamilyTag",
    "FamilyKind",
    "OrbitPoint",
    "SEPARATRIX_CLAMP_TIME",
    "cubic_coefficients",
    "hamiltonian",
    "unperturbed_rhs",
    "saddle_points",
    "modulus_range",
    "evaluate",
    "period",
    "period_derivative",
    "energy",
    "action",
    "freq_action_derivative_sign",
    "resonant_modulus",
]

_SQRT2 = math.sqrt(2.0)

#: Beyond this |t| the separatrix evaluators return the saddle limit exactly.
SEPARATRIX_CLAMP_TIME = 50.0


class FamilyTag(enum.Enum):
    """Which of the six orbit families is meant (see module docstring)."""

    HET_PAIR = "het"
    INSIDE_HET = "inside-het"
    GLOBAL = "global"
    HOM_PAIR = "hom"
    INSIDE_HOM = "inside-hom"
    OUTSIDE_HOM = "outside-hom"


#: Families that are continua of periodic orbits parameterized by a modulus.
PERIODIC_TAGS = frozenset(
    {FamilyTag.INSIDE_HET, FamilyTag.GLOBAL, FamilyTag.INSIDE_HOM, FamilyTag.OUTSIDE_HOM}
)

#: Families that are isolated saddle connections (infinite period).
SEPARATRIX_TAGS = frozenset({FamilyTag.HET_PAIR, FamilyTag.HOM_PAIR})

#: Families that occur as symmetric (+/-) pairs.
PAIRED_TAGS = frozenset({FamilyTag.HET_PAIR, FamilyTag.HOM_PAIR, FamilyTag.INSIDE_HOM})


@dataclass(frozen=True)
class FamilyKind:
    """A family tag plus the branch sign for families that come in pairs.

    Parameters
    ----------
    tag
        Which orbit family.
    sign
        ``+1`` or ``-1`` selecting the branch for paired families
        (`HET_PAIR`, `HOM_PAIR`, `INSIDE_HOM`).  Unpaired families are
        symmetric under negation and only admit ``sign=+1``.
    """

    tag: FamilyTag
    sign: int = 1

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise DomainError(f"family sign must be +1 or -1, got {self.sign!r}")
        if self.sign == -1 and self.tag not in PAIRED_TAGS:
            raise DomainError(f"{self.tag.value!r} has no '-' branch; use sign=+1")

    @property
    def is_periodic(self) -> bool:
        return self.tag in PERIODIC_TAGS

    @property
    def is_separatrix(self) -> bool:
        return self.tag in SEPARATRIX_TAGS


@dataclass(frozen=True)
class OrbitPoint:
    """A phase-space point ``(zeta1, zeta2)`` on an orbit.

    The fields are arrays of equal shape when the point was evaluated at an
    array of times.
    """

    zeta1: float | np.ndarray
    zeta2: float | np.ndarray

    def as_array(self) -> np.ndarray:
        return np.array([self.zeta1, self.zeta2])


def _as_kind(family: FamilyKind | FamilyTag) -> FamilyKind:
    if isinstance(family, FamilyTag):
        return FamilyKind(family)
    return family


def cubic_coefficients(family: FamilyKind | FamilyTag) -> tuple[float, float]:
    """Coefficients ``(a, b)`` of the host system ``zeta1'' = a*zeta1 + b*zeta1**3``."""
    tag = _as_kind(family).tag
    if tag in (FamilyTag.HET_PAIR, FamilyTag.INSIDE_HET):
        return (-1.0, 1.0)
    if tag is FamilyTag.GLOBAL:
        return (-1.0, -1.0)
    return (1.0, -1.0)


def hamiltonian(family: FamilyKind | FamilyTag, zeta1: float, zeta2: float) -> float:
    """Energy ``H = zeta2**2/2 - a*zeta1**2/2 - b*zeta1**4/4`` of the host system."""
    a, b = cubic_coefficients(family)
    return 0.5 * zeta2 * zeta2 - 0.5 * a * zeta1 * zeta1 - 0.25 * b * zeta1**4


def unperturbed_rhs(family: FamilyKind | FamilyTag, state: np.ndarray) -> np.ndarray:
    """Right-hand side of the host Hamiltonian system at ``state=(zeta1, zeta2)``."""
    a, b = cubic_coefficients(family)
    z1, z2 = state[0], state[1]
    return np.array([z2, a * z1 + b * z1**3])


def saddle_points(family: FamilyKind | FamilyTag) -> tuple[OrbitPoint, ...]:
    """Saddle equilibria of the host system (empty for the globally periodic one)."""
    tag = _as_kind(family).tag
    if tag in (FamilyTag.HET_PAIR, FamilyTag.INSIDE_HET):
        return (OrbitPoint(-1.0, 0.0), OrbitPoint(1.0, 0.0))
    if tag is FamilyTag.GLOBAL:
        return ()
    return (OrbitPoint(0.0, 0.0),)


def modulus_range(family: FamilyKind | FamilyTag) -> tuple[float, float]:
    """Open admissible modulus interval ``(k_lo, k_hi)`` of a periodic family."""
    tag = _as_kind(family).tag
    if tag is FamilyTag.INSIDE_HET:
        return (0.0, 1.0)
    if tag is FamilyTag.GLOBAL:
        return (0.0, 1.0 / _SQRT2)
    if tag is FamilyTag.INSIDE_HOM:
        return (0.0, 1.0)
    if tag is FamilyTag.OUTSIDE_HOM:
        return (1.0 / _SQRT2, 1.0)
    raise DomainError(f"{tag.value!r} is a separatrix family, not parameterized by a modulus")


#: Per periodic family ``(c, s, quarters)``: the orbit at time ``t`` is a
#: Jacobi profile of ``u = t / sqrt(c + s*k**2)``, and its period is
#: ``quarters * K(k) * sqrt(c + s*k**2)``.
_TIME_SCALE = {
    FamilyTag.INSIDE_HET: (1.0, 1.0, 4.0),
    FamilyTag.GLOBAL: (1.0, -2.0, 4.0),
    FamilyTag.INSIDE_HOM: (2.0, -1.0, 2.0),
    FamilyTag.OUTSIDE_HOM: (-1.0, 2.0, 4.0),
}


def _checked_modulus(family: FamilyKind, k: EllipticModulus | float) -> float:
    kv = k.k if isinstance(k, EllipticModulus) else float(k)
    lo, hi = modulus_range(family)
    if not (lo < kv < hi):
        raise DomainError(
            f"modulus {kv!r} outside the open range ({lo!r}, {hi!r}) "
            f"of family {family.tag.value!r}"
        )
    return kv


def _require_periodic(family: FamilyKind) -> None:
    if not family.is_periodic:
        raise DomainError(f"{family.tag.value!r} is not a periodic family")


def evaluate(
    family: FamilyKind | FamilyTag,
    k: EllipticModulus | float | None,
    t,
) -> OrbitPoint:
    """Closed-form orbit point at time ``t``.

    Parameters
    ----------
    family
        Orbit family (and branch sign for paired families).
    k
        Elliptic modulus in the family's admissible range; must be
        ``None`` for the separatrix families.
    t
        Time along the orbit, a float or an array; ``t=0`` is the
        symmetric phase (the turning point for even profiles, the zero
        crossing for odd).

    Returns
    -------
    OrbitPoint
        The point ``(zeta1(t), zeta2(t))``, with float fields for a float
        ``t`` and arrays of its shape for an array; separatrix evaluations
        with ``|t| > SEPARATRIX_CLAMP_TIME`` return the saddle limit exactly.
    """
    fam = _as_kind(family)
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=float)
    s = float(fam.sign)

    if fam.is_separatrix:
        if k is not None:
            raise DomainError("separatrix families take k=None")
        far = np.abs(t) > SEPARATRIX_CLAMP_TIME
        tc = np.where(far, 0.0, t)  # far times would overflow cosh
        if fam.tag is FamilyTag.HET_PAIR:
            u = tc / _SQRT2
            sech = 1.0 / np.cosh(u)
            z1 = np.where(far, s * np.sign(t), s * np.tanh(u))
            z2 = np.where(far, 0.0, s * sech * sech / _SQRT2)
        else:
            sech = 1.0 / np.cosh(tc)
            z1 = np.where(far, 0.0, s * _SQRT2 * sech)
            z2 = np.where(far, 0.0, -s * _SQRT2 * sech * np.tanh(tc))
    else:
        if k is None:
            raise DomainError(f"periodic family {fam.tag.value!r} needs a modulus")
        kv = _checked_modulus(fam, k)
        c, s_k2, _ = _TIME_SCALE[fam.tag]
        scale = math.sqrt(c + s_k2 * kv * kv)
        sn, cn, dn = jacobi_sn_cn_dn(t / scale, kv)
        if fam.tag is FamilyTag.INSIDE_HET:
            amp = _SQRT2 * kv / scale
            z1, z2 = amp * sn, amp / scale * cn * dn
        elif fam.tag is FamilyTag.INSIDE_HOM:
            amp = s * _SQRT2 / scale
            z1, z2 = amp * dn, -amp / scale * kv * kv * sn * cn
        else:  # GLOBAL and OUTSIDE_HOM share the cn profile
            amp = _SQRT2 * kv / scale
            z1, z2 = amp * cn, -amp / scale * sn * dn

    if scalar:
        return OrbitPoint(float(z1), float(z2))
    return OrbitPoint(z1, z2)


def period(family: FamilyKind | FamilyTag, k: EllipticModulus | float) -> float:
    """Orbit period of a periodic family; `DomainError` for separatrices."""
    fam = _as_kind(family)
    _require_periodic(fam)
    kv = _checked_modulus(fam, k)
    c, s, quarters = _TIME_SCALE[fam.tag]
    return quarters * complete_K(kv) * math.sqrt(c + s * kv * kv)


def period_derivative(family: FamilyKind | FamilyTag, k: EllipticModulus | float) -> float:
    """Closed-form ``dT/dk`` of a periodic family (used by the resonance solver)."""
    fam = _as_kind(family)
    _require_periodic(fam)
    kv = _checked_modulus(fam, k)
    c, s, quarters = _TIME_SCALE[fam.tag]
    scale = math.sqrt(c + s * kv * kv)
    return quarters * (dK_dk(kv) * scale + s * complete_K(kv) * kv / scale)


def energy(family: FamilyKind | FamilyTag, k: EllipticModulus | float) -> float:
    """Hamiltonian level of the periodic orbit with modulus ``k``."""
    fam = _as_kind(family)
    _require_periodic(fam)
    kv = _checked_modulus(fam, k)
    k2 = kv * kv
    if fam.tag is FamilyTag.INSIDE_HET:
        return k2 / (k2 + 1.0) ** 2
    if fam.tag is FamilyTag.GLOBAL:
        return k2 * (1.0 - k2) / (1.0 - 2.0 * k2) ** 2
    if fam.tag is FamilyTag.INSIDE_HOM:
        return (k2 - 1.0) / (2.0 - k2) ** 2
    return k2 * (1.0 - k2) / (2.0 * k2 - 1.0) ** 2


def action(family: FamilyKind | FamilyTag, k: EllipticModulus | float) -> float:
    """Action ``I = (1/2pi) * integral of zeta2**2 over one period`` (by quadrature)."""
    fam = _as_kind(family)
    _require_periodic(fam)
    kv = _checked_modulus(fam, k)
    t_period = period(fam, kv)

    def zeta2_sq(t: float) -> float:
        return evaluate(fam, kv, t).zeta2 ** 2

    value, _ = integrate.quad(zeta2_sq, 0.0, t_period, limit=200, epsabs=1e-13, epsrel=1e-12)
    return value / (2.0 * math.pi)


def freq_action_derivative_sign(family: FamilyKind | FamilyTag) -> int:
    """Sign of ``d(frequency)/d(action)`` along the periodic family."""
    fam = _as_kind(family)
    _require_periodic(fam)
    if fam.tag in (FamilyTag.INSIDE_HET, FamilyTag.INSIDE_HOM):
        return -1
    return 1


# Residual acceptance for the resonance condition |n*T - m*T_hat| <= tol*T_hat.
_RESONANCE_RTOL = 1e-12
_BISECTION_MAX_ITER = 200
# Modulus clamps keeping K(k) finite and the elliptic evaluations accurate.
_K_CLAMP_LO = 1e-9
_K_CLAMP_HI = 1.0 - 1e-10


def resonant_modulus(
    family: FamilyKind | FamilyTag,
    m: int,
    n: int,
    omega_hat: float,
) -> EllipticModulus:
    """Solve the resonance condition ``n * T(k) = m * (2*pi/omega_hat)`` for ``k``.

    The period map ``k -> T(k)`` of each periodic family is strictly
    monotone, so the root is located by bisection (with a Newton polish
    using the closed-form ``dT/dk``).

    Raises
    ------
    ResonanceViolation
        If ``m`` and ``n`` are not coprime positive integers.
    NoResonance
        If the target period lies outside the family's period range.
    """
    fam = _as_kind(family)
    _require_periodic(fam)
    if m < 1 or n < 1:
        raise ResonanceViolation(f"m, n must be positive integers, got m={m!r}, n={n!r}")
    if math.gcd(m, n) != 1:
        raise ResonanceViolation(f"m={m!r}, n={n!r} are not coprime")
    if not (omega_hat > 0.0):
        raise DomainError(f"omega_hat must be positive, got {omega_hat!r}")

    t_hat = 2.0 * math.pi / omega_hat
    target = m * t_hat / n  # T(k) sought
    tol = _RESONANCE_RTOL * t_hat

    lo, hi = modulus_range(fam)
    k_lo = max(lo + _K_CLAMP_LO * (hi - lo), _K_CLAMP_LO)
    k_hi = min(hi - _K_CLAMP_LO * (hi - lo), _K_CLAMP_HI)

    g_lo = period(fam, k_lo) - target
    g_hi = period(fam, k_hi) - target
    # Accept a clamped endpoint when the resonance already holds there
    # (covers targets at the family's period infimum, e.g. T -> 2*pi).
    if abs(n * g_lo) <= tol:
        return EllipticModulus(k_lo)
    if abs(n * g_hi) <= tol:
        return EllipticModulus(k_hi)
    if g_lo * g_hi > 0.0:
        raise NoResonance(
            f"target period {target!r} outside the attainable range "
            f"[{min(period(fam, k_lo), period(fam, k_hi))!r}, "
            f"{max(period(fam, k_lo), period(fam, k_hi))!r}] "
            f"of family {fam.tag.value!r} (m={m}, n={n}, omega_hat={omega_hat!r})"
        )

    a, b = k_lo, k_hi
    ga = g_lo
    for _ in range(_BISECTION_MAX_ITER):
        mid = 0.5 * (a + b)
        gm = period(fam, mid) - target
        if abs(n * gm) <= tol or (b - a) < 1e-16 * max(1.0, mid):
            a = b = mid
            break
        if ga * gm <= 0.0:
            b = mid
        else:
            a, ga = mid, gm
    k_root = 0.5 * (a + b)

    # Newton polish: the bisection root is already near machine accuracy,
    # but one derivative step tightens the residual when dT/dk is benign.
    for _ in range(3):
        resid = period(fam, k_root) - target
        if abs(n * resid) <= tol:
            break
        slope = period_derivative(fam, k_root)
        if slope == 0.0:
            break
        step = resid / slope
        candidate = k_root - step
        if not (k_lo <= candidate <= k_hi):
            break
        k_root = candidate

    if abs(n * (period(fam, k_root) - target)) > tol:
        raise NoResonance(
            f"resonance residual above tolerance at k={k_root!r} "
            f"(family {fam.tag.value!r}, m={m}, n={n}, omega_hat={omega_hat!r})"
        )
    return EllipticModulus(k_root)
