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
``n`` periods.  Everything here is closed form: the separatrix weights are
the kernels' Fourier transforms, ``J1, J2, J3`` are brackets of complete
elliptic integrals, and ``h_hat_mn`` reads the orbit velocity's Fourier
coefficients from the nome series of the Jacobi functions (DLMF 22.11,
https://dlmf.nist.gov/22.11), so no orbit is sampled.  The ``verify``
experiments check it against trapezoid rules on sampled orbits, and the
independent oracles (adaptive quadrature, the FFT of a sampled orbit) live
in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticModulus, complete_E, complete_K
from .errors import DomainError, ResonanceViolation
from .fourier import TrigPolynomial
from .orbits import (
    _ATLAS,
    FamilyKind,
    FamilyTag,
    _as_kind,
    _checked_modulus,
    _velocity_spectrum,
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
    family, k, m, n
        Optional provenance of the projection, checked against the orbit
        data downstream by `check_family` and `check_orbit`.
    """

    values: TrigPolynomial
    hmax: float
    hmin: float
    family: FamilyKind | None = None
    k: float | None = None
    m: int | None = None
    n: int | None = None

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
        family: FamilyKind | None = None,
        k: float | None = None,
        m: int | None = None,
        n: int | None = None,
    ) -> "MelnikovProfile":
        """Build a profile, collapsing an all-zero polynomial to the empty one."""
        if poly.is_zero():
            poly = TrigPolynomial()
            hmax = hmin = 0.0
        else:
            hmax, hmin = poly.extrema()
        return cls(values=poly, hmax=hmax, hmin=hmin, family=family, k=k, m=m, n=n)

    @property
    def is_zero(self) -> bool:
        return self.values.is_zero(1e-300)

    def __call__(self, phi):
        return self.values(phi)

    def check_family(self, tag: FamilyTag) -> None:
        """Raise `DomainError` if the profile was projected on another family.

        Families are compared by tag, so either branch of a paired family
        passes: the branches' orbit data are equal.
        """
        if self.family is not None and self.family.tag is not tag:
            raise DomainError(
                f"profile was projected on {self.family.tag.value!r}, "
                f"expected {tag.value!r}"
            )

    def check_orbit(self, j: JIntegrals, m: int) -> None:
        """Raise `DomainError` if the profile's provenance contradicts the
        orbit integrals ``j`` or the subharmonic order ``m``.

        Each recorded field is checked on its own, the family by tag as in
        `check_family`.
        """
        self.check_family(j.family.tag)
        if self.m is not None and self.m != m:
            raise DomainError(f"profile was projected with m={self.m}, got m={m}")
        if self.n is not None and self.n != j.n:
            raise DomainError(f"profile n={self.n} does not match integrals n={j.n}")
        if self.k is not None and abs(float(self.k) - float(j.k)) > 1e-12:
            raise DomainError(
                f"profile modulus {float(self.k)!r} does not match integrals "
                f"modulus {float(j.k)!r}"
            )


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


def h_hat(
    profile_h: TrigPolynomial,
    family: FamilyKind | FamilyTag,
    omega_hat: float,
) -> MelnikovProfile:
    """Project a mean-zero forcing profile onto a separatrix velocity kernel.

    The projection ``h_hat(phi) = integral over t of zeta2(t) *
    h(omega_hat*t + phi)`` is a convolution, so on the spectrum ``c_j = a_j
    - i*b_j`` of ``h`` it is a multiplication by the kernel's transfer
    function at ``chi = j*omega_hat``: ``s*W(chi)`` for the even
    saddle-to-saddle kernel (each harmonic keeps its phase) and
    ``-i*s*U(chi)`` for the odd saddle-loop kernel (cosines become sines
    and sines negated cosines), with the weights of `fourier_weight_het`
    and `fourier_weight_hom` and the branch sign ``s``.  The mean is not
    projected.

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

    c = profile_h.spectrum
    s = float(fam.sign)
    if fam.tag is FamilyTag.HET_PAIR:
        weight, unit = fourier_weight_het, s
    else:
        weight, unit = fourier_weight_hom, -1j * s
    transfer = np.array([0.0] + [weight(j * omega_hat) for j in range(1, c.size)])
    poly = TrigPolynomial._of(c * (unit * transfer))
    return MelnikovProfile.from_trig(poly, family=fam)


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
    ``n*T(k) = m*T_hat``.  With ``zeta2(t) = sum_q c_q exp(2 pi i q t/T)``
    the convolution multiplies the forcing spectrum by the transfer
    function ``m*T_hat*conj(c_q)``: forcing harmonic ``j`` overlaps only
    the orbit harmonic ``q = j*m/n``, so only harmonics ``j`` divisible by
    ``n`` survive, and their output is ``m*T_hat*(c_j*conj(c_q))``.  Real
    and imaginary parts within ``5e-14`` of ``max(1, m*T_hat*|h|_1)`` are
    dropped.  The coefficients ``c_q`` are exact closed forms, the termwise
    derivative of the nome series of sn, cn and dn (DLMF 22.11.1-3;
    ``orbits._velocity_spectrum``).  Selection rules follow from that
    spectrum rather than being special-cased: the sn and cn families have
    only odd harmonics, so forcing at the first harmonic gives a nonzero
    result only for odd ``m`` with ``n = 1``, and every forbidden harmonic
    is exactly zero.

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

    c = profile_h.spectrum
    orbit = _velocity_spectrum(fam, kv, (profile_h.max_harmonic // n) * m + 1)
    m_t_hat = m * t_hat
    drop_tol = 5e-14 * max(1.0, m_t_hat * profile_h.coefficient_norm())
    out = np.zeros_like(c)
    out[n::n] = m_t_hat * (c[n::n] * np.conj(orbit[m::m]))
    parts = out.view(float)
    parts[np.abs(parts) <= drop_tol] = 0.0
    return MelnikovProfile.from_trig(TrigPolynomial._of(out), family=fam, k=kv, m=m, n=n)


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
    "sn_j1": ((1.0, 1.0), (-1.0, 1.0)),
    # K - E
    "sn_j3": ((-1.0,), (1.0,)),
    # (2m - 1) E + (1 - m) K
    "cn_j1": ((-1.0, 2.0), (1.0, -1.0)),
    # E - (1 - m) K
    "cn_j3": ((1.0,), (-1.0, 1.0)),
    # (2 - m) E - 2 (1 - m) K
    "dn_j1": ((2.0, -1.0), (-2.0, 2.0)),
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


#: Brackets ``(B1, B3)`` of ``J1`` and ``J3`` by the orbit's Jacobi profile
#: (every ``J2`` bracket is ``"j2"``); ``None`` stands for the plain ``E``.
_J_BRACKETS = {"sn": ("sn_j1", "sn_j3"), "cn": ("cn_j1", "cn_j3"), "dn": ("dn_j1", None)}


def j_integrals(
    family: FamilyKind | FamilyTag,
    k: EllipticModulus | float,
    n: int,
) -> JIntegrals:
    """Closed-form orbit integrals ``J1, J2, J3`` over ``n`` periods.

    With the family's time scale ``(c, s, q)`` and ``C = c + s*k**2``:
    ``J1 = 2q n/(3 C**1.5) B1``, ``J2 = 4q n/(15 C**2.5) B2`` and ``J3 =
    2q n/sqrt(C) B3``, with the E/K brackets of the orbit's profile.
    """
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
    row = _ATLAS[fam.tag]
    c0, s, quarters = row.time_scale
    c = c0 + s * k2
    scale = 2.0 * quarters * n
    b1, b3 = _J_BRACKETS[row.profile]
    j1 = scale / (3.0 * c**1.5) * _bracket(b1, k2, e, big_k)
    j2 = 2.0 * scale / (15.0 * c**2.5) * _bracket("j2", k2, e, big_k)
    if b3 is None:
        j3 = scale * e / math.sqrt(c)  # product before root: the other order moves the last bit
    else:
        j3 = scale / math.sqrt(c) * _bracket(b3, k2, e, big_k)

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
    hhat.check_family(fam.tag)
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
    hhatmn.check_orbit(j, m)

    offset = TrigPolynomial(cos_terms=((0, nu_hat * j.j1 + s2 * j.j2),))
    m_profile = offset + hhatmn.values.scaled(delta_big)
    l_value = m * nu_hat * t_hat + s2 * j.j3
    return (m_profile, l_value)
