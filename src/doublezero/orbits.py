"""Closed-form orbit families of three planar cubic Hamiltonian systems.

After rescaling, the unperturbed dynamics near a symmetric double-zero
point reduce to one of three conservative oscillators

    zeta1'' = a*zeta1 + b*zeta1**3,   (a, b) in {(-1, +1), (-1, -1), (+1, -1)},

whose bounded orbits are expressible in Jacobi elliptic functions.  This
module provides the six orbit families (two separatrix pairs and four
periodic families), their closed-form periods and velocity spectra, and
the resonance solver used by the subharmonic analysis (Brent's method on
the closed-form period).

Family atlas
------------
One private table, ``_ATLAS``, holds each family's facts, and every module
reads them from it: the host ``(a, b)``, whether the family is a ``±``
pair and, for a periodic family, its open modulus range, Jacobi profile
(``sn``, ``cn`` or ``dn``) and time scale ``(c, s, quarters)``: the orbit
is the profile of ``t / sqrt(c + s*k**2)`` and its period is ``quarters *
K(k) * sqrt(c + s*k**2)``.

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
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .elliptic import (
    EllipticModulus,
    complete_K,
    complete_K_complement,
    jacobi_sn_cn_dn,
)
from .errors import DomainError, NoResonance, ResonanceViolation

__all__ = [
    "FamilyTag",
    "FamilyKind",
    "OrbitPoint",
    "SEPARATRIX_CLAMP_TIME",
    "cubic_coefficients",
    "unperturbed_rhs",
    "modulus_range",
    "evaluate",
    "period",
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


class _Family(NamedTuple):
    """One row of the family atlas (see the module docstring)."""

    a: float
    b: float
    paired: bool
    k_range: tuple[float, float] | None = None
    profile: str | None = None
    time_scale: tuple[float, float, float] | None = None


_ATLAS = {
    FamilyTag.HET_PAIR: _Family(-1.0, 1.0, True),
    FamilyTag.INSIDE_HET: _Family(-1.0, 1.0, False, (0.0, 1.0), "sn", (1.0, 1.0, 4.0)),
    FamilyTag.GLOBAL: _Family(-1.0, -1.0, False, (0.0, 1.0 / _SQRT2), "cn", (1.0, -2.0, 4.0)),
    FamilyTag.HOM_PAIR: _Family(1.0, -1.0, True),
    FamilyTag.INSIDE_HOM: _Family(1.0, -1.0, True, (0.0, 1.0), "dn", (2.0, -1.0, 2.0)),
    FamilyTag.OUTSIDE_HOM: _Family(1.0, -1.0, False, (1.0 / _SQRT2, 1.0), "cn", (-1.0, 2.0, 4.0)),
}

#: Families that are continua of periodic orbits parameterized by a modulus.
PERIODIC_TAGS = frozenset(tag for tag, row in _ATLAS.items() if row.profile is not None)

#: Families that are isolated saddle connections (infinite period).
SEPARATRIX_TAGS = frozenset(_ATLAS) - PERIODIC_TAGS

#: Families that occur as symmetric (+/-) pairs.
PAIRED_TAGS = frozenset(tag for tag, row in _ATLAS.items() if row.paired)


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


def _as_kind(family: FamilyKind | FamilyTag) -> FamilyKind:
    if isinstance(family, FamilyTag):
        return FamilyKind(family)
    return family


def cubic_coefficients(family: FamilyKind | FamilyTag) -> tuple[float, float]:
    """Coefficients ``(a, b)`` of the host system ``zeta1'' = a*zeta1 + b*zeta1**3``."""
    row = _ATLAS[_as_kind(family).tag]
    return (row.a, row.b)


def unperturbed_rhs(family: FamilyKind | FamilyTag, state: np.ndarray) -> np.ndarray:
    """Right-hand side of the host Hamiltonian system at ``state=(zeta1, zeta2)``."""
    a, b = cubic_coefficients(family)
    z1, z2 = state[0], state[1]
    return np.array([z2, a * z1 + b * z1**3])


def modulus_range(family: FamilyKind | FamilyTag) -> tuple[float, float]:
    """Open admissible modulus interval ``(k_lo, k_hi)`` of a periodic family."""
    tag = _as_kind(family).tag
    k_range = _ATLAS[tag].k_range
    if k_range is None:
        raise DomainError(f"{tag.value!r} is a separatrix family, not parameterized by a modulus")
    return k_range


def _period(tag: FamilyTag, k: float) -> float:
    """``quarters * K(k) * sqrt(c + s*k**2)`` of a periodic family, ``k`` unchecked."""
    c, s, quarters = _ATLAS[tag].time_scale
    return quarters * complete_K(k) * math.sqrt(c + s * k * k)


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
        row = _ATLAS[fam.tag]
        c, s_k2, _ = row.time_scale
        scale = math.sqrt(c + s_k2 * kv * kv)
        sn, cn, dn = jacobi_sn_cn_dn(t / scale, kv)
        if row.profile == "sn":
            amp = _SQRT2 * kv / scale
            z1, z2 = amp * sn, amp / scale * cn * dn
        elif row.profile == "dn":
            amp = s * _SQRT2 / scale
            z1, z2 = amp * dn, -amp / scale * kv * kv * sn * cn
        else:  # cn
            amp = _SQRT2 * kv / scale
            z1, z2 = amp * cn, -amp / scale * sn * dn

    if scalar:
        return OrbitPoint(float(z1), float(z2))
    return OrbitPoint(z1, z2)


def _velocity_spectrum(family: FamilyKind, k: float, count: int) -> np.ndarray:
    """Fourier coefficients ``c_0 .. c_{count-1}`` of a periodic orbit's velocity.

    ``zeta2(t) = sum_p c_p exp(i p w0 t)`` with ``w0 = 2 pi / T(k)``.  The
    coefficients are the termwise derivative of the nome series of sn, cn
    and dn (DLMF 22.11.1-3), with ``r = pi K(k') / K(k)`` and the nome
    ``exp(-r)``: ``sqrt(2) p w0**2 / sinh(p r/2)`` (sn) and ``i sqrt(2) p
    w0**2 / cosh(p r/2)`` (cn) at odd ``p`` and zero at even ``p``; ``i s
    sqrt(2) p w0**2 / (2 cosh(p r))`` (dn, lobe sign ``s``) at every ``p >=
    1``; and ``c_0 = 0``.  A hyperbolic function that overflows gives the
    exact 0.
    """
    w0 = 2.0 * math.pi / _period(family.tag, k)
    r = math.pi * complete_K_complement(k) / complete_K(k)
    p = np.arange(count, dtype=float)
    amp = _SQRT2 * w0 * w0 * p
    coeffs = np.zeros(count, dtype=complex)
    profile = _ATLAS[family.tag].profile
    with np.errstate(over="ignore"):
        if profile == "dn":
            coeffs.imag[1:] = family.sign * amp[1:] / (2.0 * np.cosh(p[1:] * r))
        elif profile == "sn":
            coeffs.real[1::2] = amp[1::2] / np.sinh(0.5 * p[1::2] * r)
        else:  # cn
            coeffs.imag[1::2] = amp[1::2] / np.cosh(0.5 * p[1::2] * r)
    return coeffs


def period(family: FamilyKind | FamilyTag, k: EllipticModulus | float) -> float:
    """Orbit period of a periodic family; `DomainError` for separatrices."""
    fam = _as_kind(family)
    _require_periodic(fam)
    return _period(fam.tag, _checked_modulus(fam, k))


# Residual acceptance for the resonance condition |n*T - m*T_hat| <= tol*T_hat.
_RESONANCE_RTOL = 1e-12
# Relative root tolerance of Brent's method, a few ulps; its absolute tolerance
# is the least positive float, so this alone sets where the search stops.
_BRENT_RTOL = 4.0 * np.finfo(float).eps
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
    monotone.  Brent's method (``scipy.optimize.brentq``) finds the root
    of the closed-form period on the clamped modulus range in the variable
    ``x = log(1 - k**2)``.  As ``k -> 1`` the period grows like ``-x/2``,
    linear in ``x`` where it is logarithmic in ``k``, and steps in ``x``
    resolve ``k`` to its last bit; as ``k -> 0`` it is analytic in ``k**2``,
    which is about ``-x`` there.  The search stops at the first modulus that
    meets ``|n*T(k) - m*T_hat| <= 1e-12 * T_hat``, after about a dozen
    period evaluations; a clamped end of the range that already meets it
    is returned as it is.

    Raises
    ------
    ResonanceViolation
        If ``m`` and ``n`` are not coprime positive integers.
    NoResonance
        If the target period lies outside the family's period range, or no
        float modulus meets the residual tolerance: near ``k = 1`` adjacent
        floats can be farther apart in period than the tolerance.
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

    def modulus(x: float) -> float:
        return math.sqrt(-math.expm1(x))

    def excess(x: float) -> float:
        """``T(k) - target`` at ``k = modulus(x)``, and 0 where it is within tolerance."""
        g = _period(fam.tag, modulus(x)) - target
        return 0.0 if abs(n * g) <= tol else g

    lo, hi = modulus_range(fam)
    k_lo = max(lo + _K_CLAMP_LO * (hi - lo), _K_CLAMP_LO)
    k_hi = min(hi - _K_CLAMP_LO * (hi - lo), _K_CLAMP_HI)
    ends = (math.log1p(-k_lo * k_lo), math.log1p(-k_hi * k_hi))

    g_ends = [excess(x) for x in ends]
    # Accept a clamped endpoint when the resonance already holds there
    # (covers targets at the family's period infimum, e.g. T -> 2*pi).
    for x, g in zip(ends, g_ends):
        if g == 0.0:
            return EllipticModulus(modulus(x))

    def attainable() -> str:
        t_lo, t_hi = sorted(g + target for g in g_ends)
        return (f"the attainable range [{t_lo!r}, {t_hi!r}] of family {fam.tag.value!r} "
                f"(m={m}, n={n}, omega_hat={omega_hat!r})")

    if g_ends[0] * g_ends[1] > 0.0:
        raise NoResonance(f"target period {target!r} outside {attainable()}")

    x_root = brentq(excess, *ends, xtol=math.ulp(0.0), rtol=_BRENT_RTOL, disp=False)
    kv = modulus(x_root)
    if excess(x_root) != 0.0:
        # Near k = 1 the period is linear in log(1 - k**2), while a float k
        # carries 1 - k**2 only in steps of about 2.2e-16.
        step = n * abs(period(fam, math.nextafter(kv, 1.0)) - period(fam, kv))
        raise NoResonance(
            f"target period {target!r} lies inside {attainable()}, but its root "
            f"needs 1 - k**2 = {(1.0 - kv) * (1.0 + kv):.3g} finer than a float "
            f"modulus resolves: adjacent float moduli there are {step:.2g} apart "
            f"in n*T, against a tolerance of {tol:.2g}"
        )
    return EllipticModulus(kv)
