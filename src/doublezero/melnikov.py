"""Melnikov machinery: forcing projections, orbit integrals, splitting functions.

For the scaled planar systems perturbed by ``eps_hat * (nu_hat*zeta2 +
s2*zeta1**2*zeta2 + delta_big*h(omega_hat*t))`` the leading-order splitting
and subharmonic bifurcation functions are

* separatrix case:   ``M_pm(phi) = c1*nu_hat + c2*s2 ± delta_big*h_hat(phi)``
* subharmonic case:  ``M(phi) = nu_hat*J1 + s2*J2 + delta_big*h_hat_mn(phi)``
  with the trace functional ``L = m*nu_hat*T_hat + s2*J3`` (constant in phi)

where ``h_hat`` / ``h_hat_mn`` are the projections of the forcing profile
onto the orbit's velocity component and ``J1, J2, J3`` are the orbit
integrals of ``zeta2**2``, ``zeta1**2 * zeta2**2`` and ``zeta1**2`` over
``n`` periods.  Everything here is closed-form or spectrally exact; the
independent quadrature oracles live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticModulus, complete_E, complete_K
from .errors import DomainError, ResonanceViolation
from .fourier import TrigPolynomial
from .orbits import (
    FamilyKind,
    FamilyTag,
    _checked_modulus,
    evaluate,
    period,
)

__all__ = [
    "MelnikovProfile",
    "JIntegrals",
    "fourier_weight_het",
    "fourier_weight_hom",
    "h_hat",
    "h_hat_subharmonic",
    "j_integrals",
    "separatrix_constants",
    "melnikov_separatrix",
    "melnikov_subharmonic",
]

_SQRT2 = math.sqrt(2.0)

#: Mean-zero tolerance for forcing profiles and projected profiles.
MEAN_ZERO_TOL = 1e-10

#: Relative slack accepted on the resonance identity n*T == m*T_hat.
_RESONANCE_CHECK_RTOL = 1e-9

#: Least number of samples per orbit period in ``h_hat_subharmonic``.
_ORBIT_SAMPLES = 4096


@dataclass(frozen=True)
class MelnikovProfile:
    """A projected forcing profile with certified extrema.

    Attributes
    ----------
    values
        The 2*pi-periodic profile as a trigonometric polynomial in the
        forcing phase.
    hmax, hmin
        Certified maximum and minimum over one period; a nonzero profile
        has ``hmax > 0 > hmin`` because its mean vanishes.
    family, k, m, n, omega_hat
        Optional provenance of the projection, used to cross-check
        consistency between profiles and orbit integrals downstream.
    """

    values: TrigPolynomial
    hmax: float
    hmin: float
    family: FamilyKind | None = None
    k: float | None = None
    m: int | None = None
    n: int | None = None
    omega_hat: float | None = None

    def __post_init__(self) -> None:
        if abs(self.values.mean) > MEAN_ZERO_TOL:
            raise DomainError(f"profile mean {self.values.mean!r} is not zero")
        if not self.values.is_zero(1e-300):
            if not (self.hmax > 0.0 > self.hmin):
                raise DomainError(
                    f"nonzero mean-free profile must satisfy hmax > 0 > hmin, "
                    f"got ({self.hmax!r}, {self.hmin!r})"
                )

    @classmethod
    def from_trig(
        cls,
        poly: TrigPolynomial,
        *,
        zero_tol: float = 0.0,
        family: FamilyKind | None = None,
        k: float | None = None,
        m: int | None = None,
        n: int | None = None,
        omega_hat: float | None = None,
    ) -> "MelnikovProfile":
        """Build a profile, collapsing numerically-zero polynomials to exact zero."""
        if poly.is_zero(zero_tol):
            poly = TrigPolynomial()
            hmax = hmin = 0.0
        else:
            hmax, hmin = poly.extrema()
        return cls(
            values=poly, hmax=hmax, hmin=hmin,
            family=family, k=k, m=m, n=n, omega_hat=omega_hat,
        )

    @property
    def is_zero(self) -> bool:
        return self.values.is_zero(1e-300)

    def __call__(self, phi):
        return self.values(phi)


@dataclass(frozen=True)
class JIntegrals:
    """Closed-form orbit integrals over ``n`` periods of a periodic family.

    ``j1 = integral of zeta2**2``, ``j2 = integral of zeta1**2 * zeta2**2``,
    ``j3 = integral of zeta1**2``, each over ``[0, n*T(k)]``.
    """

    j1: float
    j2: float
    j3: float
    family: FamilyKind
    k: EllipticModulus
    n: int


def fourier_weight_het(chi: float) -> float:
    """Spectral weight of the saddle-to-saddle velocity kernel.

    This is the cosine transform of the even kernel ``sech(t/sqrt(2))**2 /
    sqrt(2)``, namely ``sqrt(2)*pi*chi / sinh(sqrt(2)*pi*chi/2)`` with the
    continuous limit ``2`` at ``chi = 0``.  Even, strictly positive, and
    exponentially decaying.
    """
    x = 0.5 * _SQRT2 * math.pi * float(chi)
    ax = abs(x)
    if ax < 1e-8:
        return 2.0 * (1.0 - ax * ax / 6.0)
    if ax > 700.0:
        # 2x/sinh(x) = 4x e^{-x} / (1 - e^{-2x}); the tail underflows cleanly.
        return 4.0 * ax * math.exp(-ax)
    return 2.0 * x / math.sinh(x)


def fourier_weight_hom(chi: float) -> float:
    """Spectral weight of the saddle-loop velocity kernel.

    The loop kernel ``-sqrt(2)*sech(t)*tanh(t)`` is odd; its sine transform
    is ``-sqrt(2)*pi*chi*sech(pi*chi/2)``.  This function returns the value
    with the sign flipped to be positive for positive ``chi``:

        ``U(chi) = sqrt(2)*pi*chi*sech(pi*chi/2)``,

    an odd function vanishing only at ``chi = 0``.
    """
    y = 0.5 * math.pi * float(chi)
    ay = abs(y)
    if ay > 700.0:
        sech = 2.0 * math.exp(-ay)
    else:
        e = math.exp(-ay)
        sech = 2.0 * e / (1.0 + e * e)
    return _SQRT2 * math.pi * float(chi) * sech


def _require_mean_zero(profile: TrigPolynomial) -> None:
    if abs(profile.mean) > MEAN_ZERO_TOL:
        raise DomainError(f"forcing profile mean {profile.mean!r} is not zero")


def _as_kind(family: FamilyKind | FamilyTag) -> FamilyKind:
    if isinstance(family, FamilyTag):
        return FamilyKind(family)
    return family


def h_hat(
    profile_h: TrigPolynomial,
    family: FamilyKind | FamilyTag,
    omega_hat: float,
) -> MelnikovProfile:
    """Project a mean-zero forcing profile onto a separatrix velocity kernel.

    The projection ``h_hat(phi) = integral over t of zeta2(t) *
    h(omega_hat*t + phi)`` is assembled harmonic-by-harmonic with the
    closed-form spectral weights, so the result is again a trigonometric
    polynomial in ``phi``.

    Parameters
    ----------
    profile_h
        Forcing profile ``h`` (mean-zero trigonometric polynomial).
    family
        `HET_PAIR` or `HOM_PAIR`; the branch ``sign`` flips the result.
    omega_hat
        Scaled forcing frequency (> 0).
    """
    fam = _as_kind(family)
    if not fam.is_separatrix:
        raise DomainError(f"h_hat needs a separatrix family, got {fam.tag.value!r}")
    if not (omega_hat > 0.0):
        raise DomainError(f"omega_hat must be positive, got {omega_hat!r}")
    _require_mean_zero(profile_h)

    s = float(fam.sign)
    cos_out: dict[int, float] = {}
    sin_out: dict[int, float] = {}
    if fam.tag is FamilyTag.HET_PAIR:
        # Even kernel: each harmonic keeps its phase, scaled by the weight.
        for j, a in profile_h.cos_terms:
            if j > 0:
                cos_out[j] = s * fourier_weight_het(j * omega_hat) * a
        for j, b in profile_h.sin_terms:
            sin_out[j] = s * fourier_weight_het(j * omega_hat) * b
    else:
        # Odd kernel: cosine harmonics project onto sines and vice versa.
        for j, a in profile_h.cos_terms:
            if j > 0:
                sin_out[j] = s * fourier_weight_hom(j * omega_hat) * a
        for j, b in profile_h.sin_terms:
            cos_out[j] = -s * fourier_weight_hom(j * omega_hat) * b

    poly = TrigPolynomial(
        cos_terms=tuple(sorted(cos_out.items())),
        sin_terms=tuple(sorted(sin_out.items())),
    )
    return MelnikovProfile.from_trig(poly, family=fam, omega_hat=float(omega_hat))


def h_hat_subharmonic(
    profile_h: TrigPolynomial,
    family: FamilyKind | FamilyTag,
    k: EllipticModulus | float,
    m: int,
    n: int,
    omega_hat: float,
) -> MelnikovProfile:
    """Project a forcing profile onto a resonant periodic orbit's velocity.

    Computes ``h_hat_mn(phi) = integral over [0, m*T_hat] of zeta2(t) *
    h(omega_hat*t + phi)`` for an orbit satisfying the resonance
    ``n*T(k) = m*T_hat``.  The integral is evaluated spectrally: one
    orbit period of ``zeta2`` is sampled uniformly in one array-valued
    orbit evaluation (4096 points, doubled until the highest
    resonant harmonic is resolved), its discrete Fourier
    coefficients resolve the overlap with each forcing harmonic exactly
    (trigonometric quadrature is spectrally accurate for analytic
    periodic integrands), and only harmonics ``j`` divisible by ``n``
    survive.  Selection rules — e.g. pure-cosine forcing producing a
    nonzero result only for odd ``m`` with ``n = 1`` on the odd-harmonic
    families — emerge from the orbit's own spectrum rather than being
    special-cased.

    Raises
    ------
    ResonanceViolation
        If ``m, n`` are not coprime positive integers or the resonance
        identity fails at relative tolerance ``1e-9``.
    """
    fam = _as_kind(family)
    if not fam.is_periodic:
        raise DomainError(f"h_hat_subharmonic needs a periodic family, got {fam.tag.value!r}")
    if m < 1 or n < 1:
        raise ResonanceViolation(f"m, n must be positive integers, got m={m!r}, n={n!r}")
    if math.gcd(m, n) != 1:
        raise ResonanceViolation(f"m={m!r}, n={n!r} are not coprime")
    if not (omega_hat > 0.0):
        raise DomainError(f"omega_hat must be positive, got {omega_hat!r}")
    _require_mean_zero(profile_h)

    kv = k.k if isinstance(k, EllipticModulus) else float(k)
    t_orbit = period(fam, kv)
    t_hat = 2.0 * math.pi / omega_hat
    if abs(n * t_orbit - m * t_hat) > _RESONANCE_CHECK_RTOL * t_hat:
        raise ResonanceViolation(
            f"resonance n*T = m*T_hat violated: n*T={n * t_orbit!r}, "
            f"m*T_hat={m * t_hat!r} (family {fam.tag.value!r}, k={kv!r})"
        )

    max_j = profile_h.max_harmonic
    if max_j == 0:
        return MelnikovProfile.from_trig(
            TrigPolynomial(), family=fam, k=kv, m=m, n=n, omega_hat=float(omega_hat)
        )

    max_q = (max_j // n) * m
    n_samples = _ORBIT_SAMPLES
    while n_samples // 2 <= max_q + 2:
        n_samples *= 2
    times = np.arange(n_samples) * (t_orbit / n_samples)
    zeta2 = evaluate(fam, kv, times).zeta2
    coeffs = np.fft.rfft(zeta2) / n_samples  # c_q of zeta2 = sum c_q e^{2 pi i q t / T}

    m_t_hat = m * t_hat
    scale_ref = m_t_hat * profile_h.coefficient_norm()
    drop_tol = 5e-14 * max(1.0, scale_ref)

    cos_out: dict[int, float] = {}
    sin_out: dict[int, float] = {}

    def accumulate(j: int, a_j: float, b_j: float) -> None:
        if j == 0 or j % n:
            return
        q = (j // n) * m
        x = coeffs[q].real
        y = coeffs[q].imag
        a_out = m_t_hat * (a_j * x - b_j * y)
        b_out = m_t_hat * (a_j * y + b_j * x)
        if abs(a_out) > drop_tol:
            cos_out[j] = cos_out.get(j, 0.0) + a_out
        if abs(b_out) > drop_tol:
            sin_out[j] = sin_out.get(j, 0.0) + b_out

    for j, a in profile_h.cos_terms:
        accumulate(j, a, 0.0)
    for j, b in profile_h.sin_terms:
        accumulate(j, 0.0, b)

    poly = TrigPolynomial(
        cos_terms=tuple(sorted(cos_out.items())),
        sin_terms=tuple(sorted(sin_out.items())),
    )
    return MelnikovProfile.from_trig(
        poly, family=fam, k=kv, m=m, n=n, omega_hat=float(omega_hat)
    )


#: Switch to series evaluation of the E/K brackets below this ``m = k**2``.
_SERIES_M_CUT = 0.35
_SERIES_TERMS = 48


def _ek_series() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Maclaurin coefficients of ``2K/pi`` and ``2E/pi`` in ``m = k**2``."""
    kap = [1.0]
    ratio = 1.0  # central binomial C(2n, n) / 4**n
    for n in range(1, _SERIES_TERMS):
        ratio *= (2.0 * n - 1.0) / (2.0 * n)
        kap.append(ratio * ratio)
    eps = [1.0] + [-kap[n] / (2.0 * n - 1.0) for n in range(1, _SERIES_TERMS)]
    return tuple(kap), tuple(eps)


_KAP_SERIES, _EPS_SERIES = _ek_series()


def _bracket_series_coeffs(
    pe: tuple[float, ...], pk: tuple[float, ...]
) -> tuple[float, ...]:
    """Maclaurin coefficients of ``(2/pi) * (pe(m) E + pk(m) K)``."""
    coeffs = [0.0] * (_SERIES_TERMS + max(len(pe), len(pk)))
    for i, poly_coeff in enumerate(pe):
        for j, series_coeff in enumerate(_EPS_SERIES):
            coeffs[i + j] += poly_coeff * series_coeff
    for i, poly_coeff in enumerate(pk):
        for j, series_coeff in enumerate(_KAP_SERIES):
            coeffs[i + j] += poly_coeff * series_coeff
    return tuple(coeffs)


#: Polynomial factors (ascending in m) multiplying E and K in each bracket.
_BRACKET_POLYS: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = {
    # (m + 1) E - (1 - m) K
    "inside_het_j1": ((1.0, 1.0), (-1.0, 1.0)),
    # K - E
    "inside_het_j3": ((-1.0,), (1.0,)),
    # (2m - 1) E + (1 - m) K
    "rising_j1": ((-1.0, 2.0), (1.0, -1.0)),
    # E - (1 - m) K
    "rising_j3": ((1.0,), (-1.0, 1.0)),
    # (2 - m) E - 2 (1 - m) K
    "inside_hom_j1": ((2.0, -1.0), (-2.0, 2.0)),
    # 2 (m^2 - m + 1) E - (1 - m)(2 - m) K
    "j2": ((2.0, -2.0, 2.0), (-2.0, 3.0, -1.0)),
}

_BRACKET_SERIES = {
    name: _bracket_series_coeffs(pe, pk) for name, (pe, pk) in _BRACKET_POLYS.items()
}


def _bracket(name: str, m: float, e: float, big_k: float) -> float:
    """One E/K bracket, evaluated without small-``m`` cancellation.

    The closed-form brackets vanish to second or fourth order as
    ``m = k**2 -> 0`` while their individual terms stay order one, so the
    direct combination loses up to ``eps/m**2`` (or ``eps/m**4`` for the
    shared second-integral bracket) in relative accuracy.  Below the cut
    the bracket is summed as a Maclaurin series whose leading coefficients
    cancel exactly (they combine dyadic rationals), restoring uniform
    relative accuracy; above the cut the direct form is already stable.
    """
    if m > _SERIES_M_CUT:
        pe, pk = _BRACKET_POLYS[name]
        pe_m = sum(c * m**i for i, c in enumerate(pe))
        pk_m = sum(c * m**i for i, c in enumerate(pk))
        return pe_m * e + pk_m * big_k
    acc = 0.0
    for coeff in reversed(_BRACKET_SERIES[name]):
        acc = acc * m + coeff
    return 0.5 * math.pi * acc


def j_integrals(
    family: FamilyKind | FamilyTag,
    k: EllipticModulus | float,
    n: int,
) -> JIntegrals:
    """Closed-form orbit integrals ``J1, J2, J3`` over ``n`` periods."""
    fam = _as_kind(family)
    if not fam.is_periodic:
        raise DomainError(f"j_integrals needs a periodic family, got {fam.tag.value!r}")
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    modulus = k if isinstance(k, EllipticModulus) else EllipticModulus(float(k))
    kv = modulus.k
    # Validate the family range with the orbit layer's own check.
    _checked_modulus(fam, kv)

    k2 = kv * kv
    e = complete_E(kv)
    big_k = complete_K(kv)

    if fam.tag is FamilyTag.INSIDE_HET:
        c = k2 + 1.0
        j1 = 8.0 * n / (3.0 * c**1.5) * _bracket("inside_het_j1", k2, e, big_k)
        j2 = 16.0 * n / (15.0 * c**2.5) * _bracket("j2", k2, e, big_k)
        j3 = 8.0 * n / math.sqrt(c) * _bracket("inside_het_j3", k2, e, big_k)
    elif fam.tag is FamilyTag.GLOBAL:
        c = 1.0 - 2.0 * k2
        j1 = 8.0 * n / (3.0 * c**1.5) * _bracket("rising_j1", k2, e, big_k)
        j2 = 16.0 * n / (15.0 * c**2.5) * _bracket("j2", k2, e, big_k)
        j3 = 8.0 * n / math.sqrt(c) * _bracket("rising_j3", k2, e, big_k)
    elif fam.tag is FamilyTag.INSIDE_HOM:
        c = 2.0 - k2
        j1 = 4.0 * n / (3.0 * c**1.5) * _bracket("inside_hom_j1", k2, e, big_k)
        j2 = 8.0 * n / (15.0 * c**2.5) * _bracket("j2", k2, e, big_k)
        j3 = 4.0 * n * e / math.sqrt(c)
    else:  # OUTSIDE_HOM
        c = 2.0 * k2 - 1.0
        j1 = 8.0 * n / (3.0 * c**1.5) * _bracket("rising_j1", k2, e, big_k)
        j2 = 16.0 * n / (15.0 * c**2.5) * _bracket("j2", k2, e, big_k)
        j3 = 8.0 * n / math.sqrt(c) * _bracket("rising_j3", k2, e, big_k)

    return JIntegrals(j1=j1, j2=j2, j3=j3, family=fam, k=modulus, n=n)


def separatrix_constants(family: FamilyKind | FamilyTag) -> tuple[float, float]:
    """Constants ``(c1, c2)`` of the separatrix splitting ``c1*nu_hat + c2*s2``.

    ``c1`` is the integral of ``zeta2**2`` and ``c2`` the integral of
    ``zeta1**2 * zeta2**2`` along the connection.
    """
    fam = _as_kind(family)
    if fam.tag is FamilyTag.HET_PAIR:
        return (4.0 / (3.0 * _SQRT2), 2.0 * _SQRT2 / 15.0)
    if fam.tag is FamilyTag.HOM_PAIR:
        return (4.0 / 3.0, 16.0 / 15.0)
    raise DomainError(f"separatrix constants need a separatrix family, got {fam.tag.value!r}")


def melnikov_separatrix(
    nu_hat: float,
    s2: int,
    delta_big: float,
    hhat: MelnikovProfile,
    family: FamilyKind | FamilyTag,
) -> tuple[TrigPolynomial, TrigPolynomial]:
    """Splitting functions ``(M_plus, M_minus)`` along a separatrix pair.

    ``M_pm(phi) = c1*nu_hat + c2*s2 ± delta_big*h_hat(phi)`` where
    ``h_hat`` must have been projected on the ``sign=+1`` member.
    Returned as callables (trigonometric polynomials in the phase).
    """
    fam = _as_kind(family)
    c1, c2 = separatrix_constants(fam)
    if s2 not in (-1, 1):
        raise DomainError(f"s2 must be +1 or -1, got {s2!r}")
    if hhat.family is not None and hhat.family.tag is not fam.tag:
        raise DomainError(
            f"profile was projected on {hhat.family.tag.value!r}, "
            f"but curves requested for {fam.tag.value!r}"
        )
    offset = TrigPolynomial(cos_terms=((0, c1 * nu_hat + c2 * s2),))
    m_plus = offset + hhat.values.scaled(delta_big)
    m_minus = offset + hhat.values.scaled(-delta_big)
    return (m_plus, m_minus)


def melnikov_subharmonic(
    nu_hat: float,
    s2: int,
    delta_big: float,
    j: JIntegrals,
    hhatmn: MelnikovProfile,
    m: int,
    t_hat: float,
) -> tuple[TrigPolynomial, float]:
    """Subharmonic bifurcation function ``M`` and trace functional ``L``.

    ``M(phi) = nu_hat*J1 + s2*J2 + delta_big*h_hat_mn(phi)`` (a
    trigonometric polynomial) and ``L = m*nu_hat*T_hat + s2*J3`` (a
    constant).  Simple zeros of ``M`` mark resonant orbits persisting
    under the perturbation; the sign of ``L`` fixes their stability type.
    """
    if s2 not in (-1, 1):
        raise DomainError(f"s2 must be +1 or -1, got {s2!r}")
    if m < 1:
        raise DomainError(f"m must be a positive integer, got {m!r}")
    if not (t_hat > 0.0):
        raise DomainError(f"t_hat must be positive, got {t_hat!r}")
    if hhatmn.family is not None:
        if hhatmn.family != j.family:
            raise DomainError(
                f"profile family {hhatmn.family!r} does not match "
                f"integral family {j.family!r}"
            )
        if hhatmn.k is not None and abs(hhatmn.k - j.k.k) > 1e-12:
            raise DomainError(
                f"profile modulus {hhatmn.k!r} does not match integral modulus {j.k.k!r}"
            )
        if hhatmn.n is not None and hhatmn.n != j.n:
            raise DomainError(f"profile n={hhatmn.n!r} does not match integral n={j.n!r}")
        if hhatmn.m is not None and hhatmn.m != m:
            raise DomainError(f"profile m={hhatmn.m!r} does not match m={m!r}")

    offset = TrigPolynomial(cos_terms=((0, nu_hat * j.j1 + s2 * j.j2),))
    m_profile = offset + hhatmn.values.scaled(delta_big)
    l_value = m * nu_hat * t_hat + s2 * j.j3
    return (m_profile, l_value)
