"""Complete elliptic integrals and Jacobi elliptic functions.

Everything downstream (orbit families, periods, Melnikov integrals) rests on
the functions here:

* ``complete_K`` / ``complete_E`` — complete elliptic integrals of the first
  and second kind, from ``scipy.special.ellipkm1`` (fed the complementary
  parameter ``(1 - k)(1 + k)``, so K keeps full relative accuracy as
  k -> 1) and ``scipy.special.ellipe``.
* ``complete_K_complement`` — ``K(k')``, from ``ellipkm1`` fed ``k*k``, so
  ``k'`` is never formed; with ``K(k)`` it gives the nome
  ``exp(-pi K(k') / K(k))`` of the Jacobi functions' Fourier series.
* ``jacobi_sn_cn_dn`` — the Jacobi functions sn, cn, dn, computed by the
  descending Landen transformation with a trigonometric base case (the
  amplitude-angle recursion attached to the AGM sequence of ``k``).  The
  recursion runs once over a whole array of arguments.

``scipy.special.ellipj`` is not used for sn, cn, dn: near k -> 1 it loses
1e-11 to 1e-9 in absolute accuracy, which breaks orbit periodicity at 1e-9
and leaves pure-cosine projections that vanish by symmetry at about 1e-10
instead of exactly zero.  The Landen recursion here keeps both.

All reals are 64-bit floats.  ``complete_K`` refuses moduli above
``1 - 1e-12``; callers that need separatrix behaviour use the explicit
hyperbolic closed forms instead of the k -> 1 limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "EllipticModulus",
    "K_MODULUS_CUTOFF",
    "complete_K",
    "complete_K_complement",
    "complete_E",
    "jacobi_sn_cn_dn",
]

#: Moduli at or above this value make K numerically divergent; rejected.
K_MODULUS_CUTOFF = 1.0 - 1e-12


@dataclass(frozen=True)
class EllipticModulus:
    """Validated elliptic modulus ``k``.

    Construction rejects values outside ``[0, 1)``.
    """

    k: float

    def __init__(self, k: float) -> None:
        k = float(k)
        if not (0.0 <= k < 1.0):
            raise DomainError(f"elliptic modulus must lie in [0, 1), got {k!r}")
        object.__setattr__(self, "k", k)

    def __float__(self) -> float:
        return self.k


def _modulus_value(k: EllipticModulus | float) -> float:
    if isinstance(k, EllipticModulus):
        return k.k
    return float(k)


def complete_K(k: EllipticModulus | float) -> float:
    """Complete elliptic integral of the first kind.

    ``K(k) = \\int_0^{pi/2} (1 - k^2 sin^2 t)^{-1/2} dt``; strictly increasing
    in ``k``; raises :class:`DomainError` for ``k`` < 0 or above the cutoff
    ``1 - 1e-12`` where the integral is numerically divergent.
    """
    kv = _modulus_value(k)
    if not (0.0 <= kv <= K_MODULUS_CUTOFF):
        raise DomainError(
            f"complete_K needs 0 <= k <= {K_MODULUS_CUTOFF!r}, got {kv!r}"
        )
    return float(special.ellipkm1((1.0 - kv) * (1.0 + kv)))


def complete_K_complement(k: EllipticModulus | float) -> float:
    """``K(k')`` with ``k' = sqrt(1 - k^2)``, taken from ``k`` without forming ``k'``.

    Finite for ``0 < k < 1`` and decreasing in ``k``; raises
    :class:`DomainError` outside ``(0, 1)``.
    """
    kv = _modulus_value(k)
    if not (0.0 < kv < 1.0):
        raise DomainError(f"complete_K_complement needs 0 < k < 1, got {kv!r}")
    return float(special.ellipkm1(kv * kv))


def complete_E(k: EllipticModulus | float) -> float:
    """Complete elliptic integral of the second kind.

    ``E(k) = \\int_0^{pi/2} (1 - k^2 sin^2 t)^{1/2} dt``; decreasing in ``k``
    with ``E(0) = pi/2`` and ``E(1) = 1`` (the endpoint is accepted for float
    input).  Raises :class:`DomainError` outside ``[0, 1]``.
    """
    kv = _modulus_value(k)
    if not (0.0 <= kv <= 1.0):
        raise DomainError(f"complete_E needs 0 <= k <= 1, got {kv!r}")
    return float(special.ellipe(kv * kv))


def jacobi_sn_cn_dn(u, k: EllipticModulus | float):
    """Jacobi elliptic functions ``(sn u, cn u, dn u)`` for modulus ``k``.

    Valid for any real ``u`` (a float or an array) and ``0 <= k < 1``; an
    array ``u`` gives three arrays of its shape, a float three floats.  The
    argument is reduced modulo the full period ``4K`` before the Landen
    amplitude recursion, so large arguments lose no accuracy.  Identities
    ``sn^2 + cn^2 = 1`` and ``dn^2 + k^2 sn^2 = 1`` hold to machine precision.
    """
    kv = _modulus_value(k)
    if not (0.0 <= kv < 1.0):
        raise DomainError(f"jacobi_sn_cn_dn needs 0 <= k < 1, got {kv!r}")
    scalar = np.ndim(u) == 0
    kprime = math.sqrt((1.0 - kv) * (1.0 + kv))
    # AGM sequence a_n, c_n with a_0 = 1, b_0 = k', c_n = (a_{n-1} - b_{n-1})/2.
    a_seq = [1.0]
    c_seq = [kv]
    a, b = 1.0, kprime
    for _ in range(64):
        if abs(a - b) <= 1e-15 * a:
            break
        c_seq.append((a - b) / 2.0)
        a, b = (a + b) / 2.0, math.sqrt(a * b)
        a_seq.append(a)

    # Exact IEEE remainder modulo the full period 4K: fmod is exact, and so
    # is the one shift by the period that centres the result on zero.
    period = 4.0 * math.pi / (a + b)
    u = np.fmod(np.asarray(u, dtype=float), period)
    u = u - period * np.round(u / period)

    n = len(a_seq) - 1
    phi = (2.0**n) * a_seq[n] * u
    for i in range(n, 0, -1):
        # c_i < a_i, so the arcsin argument cannot leave [-1, 1].
        phi = 0.5 * (phi + np.arcsin((c_seq[i] / a_seq[i]) * np.sin(phi)))
    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(np.maximum(0.0, 1.0 - (kv * sn) * (kv * sn)))
    if scalar:
        return (float(sn), float(cn), float(dn))
    return (sn, cn, dn)

