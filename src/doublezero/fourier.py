"""Real trigonometric polynomials on the circle.

Forcing profiles and Melnikov profiles are 2*pi-periodic functions carried
as finite Fourier series.  A series is one read-only complex array, its
spectrum ``c_j = a_j - i*b_j`` (``j = 0 .. max_harmonic``), with ``f(phi) =
Re sum_j c_j exp(i*j*phi)``; scaling, sums and the projections in
``melnikov`` are array arithmetic on it.

Arrays are evaluated by Horner's rule in ``z = exp(i*phi)``, two in-place
complex operations per harmonic; with ``|z| = 1`` its error stays a few
ulps of ``coefficient_norm()`` at any phase and harmonic count.  Two paths
stay for the callers that need them:

* a Python float is summed term by term with ``math``: the single-state
  integrator evaluates the forcing once per right-hand side, where an
  array round trip costs more than the sum;
* with at most one harmonic an array gets ``a0 + a1*cos(phi) +
  b1*sin(phi)`` formed in place: the batch right-hand side of manifold
  tracing evaluates such a forcing on every stage.

``extrema`` is ``mean +- hypot(a1, b1)`` for at most one harmonic, else
the arg-max and arg-min of one inverse FFT, polished by Newton steps.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError

__all__ = ["TrigPolynomial", "cosine"]

#: Least number of grid points per period in ``TrigPolynomial.extrema``.
_EXTREMA_SAMPLES = 4096
#: Most Newton steps polishing each grid extremum; a grid point starts
#: within half a grid step, and the steps converge quadratically from there.
_NEWTON_STEPS = 6
#: A Newton step that moves no phase by more than this has converged: a few
#: ulps of the period.
_PHASE_ROUNDING = 4.0 * math.ulp(2.0 * math.pi)


class TrigPolynomial:
    """Finite real Fourier series  a0 + sum_j (a_j cos(j*phi) + b_j sin(j*phi)).

    Parameters
    ----------
    cos_terms, sin_terms
        Mappings (or iterables of pairs) ``harmonic -> coefficient``.
        Harmonic 0 is only meaningful for ``cos_terms`` (the mean); a
        ``sin`` term at harmonic 0 is ignored because sin(0) = 0.

    Attributes
    ----------
    spectrum
        Read-only complex array ``c_j = a_j - i*b_j``, ``j = 0 ..
        max_harmonic``; its last entry is nonzero unless the series is zero.

    Series are values: they compare, hash and print by their nonzero terms.
    """

    spectrum: np.ndarray

    def __init__(
        self,
        cos_terms: Mapping[int, float] | Iterable[tuple[int, float]] = (),
        sin_terms: Mapping[int, float] | Iterable[tuple[int, float]] = (),
    ) -> None:
        sin_map = dict(sin_terms)
        sin_map.pop(0, None)
        index: list[int] = []
        value: list[complex] = []
        for what, terms in (("cos", dict(cos_terms)), ("sin", sin_map)):
            for j, v in terms.items():
                j, v = int(j), float(v)
                if j < 0:
                    raise DomainError(f"{what} harmonic index must be >= 0, got {j}")
                index.append(j)
                value.append(complex(v, 0.0) if what == "cos" else complex(0.0, -v))
        c = np.zeros(max(index, default=0) + 1, dtype=complex)
        np.add.at(c, index, value)
        self._set(c)

    def _set(self, c: np.ndarray) -> None:
        """Make ``c``, trimmed of trailing zero harmonics, the read-only spectrum."""
        if c.size > 1 and c[-1] == 0.0:
            nonzero = np.flatnonzero(c)
            c = c[: nonzero[-1] + 1 if nonzero.size else 1]
        c.flags.writeable = False
        object.__setattr__(self, "spectrum", c)
        object.__setattr__(self, "_terms", None)
        object.__setattr__(self, "_first", None)

    @classmethod
    def _of(cls, c: np.ndarray) -> "TrigPolynomial":
        """The series of a fresh spectrum array, which it takes over."""
        poly = object.__new__(cls)
        poly._set(c)
        return poly

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"TrigPolynomial is immutable; cannot set {name!r}")

    def _nonzero_terms(self) -> tuple[tuple[tuple[int, float], ...], tuple[tuple[int, float], ...]]:
        """The nonzero ``(j, a_j)`` and ``(j, b_j)`` pairs in ascending ``j``.

        Made on first use into a plain attribute: a ``cached_property`` is
        read through the instance ``__dict__``, several times slower, and
        the scalar evaluation reads the pairs on every call.
        """
        if self._terms is None:
            terms = []
            for part in (self.spectrum.real, -self.spectrum.imag):
                j = np.flatnonzero(part)
                terms.append(tuple(zip(j.tolist(), part[j].tolist())))
            object.__setattr__(self, "_terms", tuple(terms))
        return self._terms

    @property
    def cos_terms(self) -> tuple[tuple[int, float], ...]:
        return self._nonzero_terms()[0]

    @property
    def sin_terms(self) -> tuple[tuple[int, float], ...]:
        return self._nonzero_terms()[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        return self._nonzero_terms() == other._nonzero_terms()

    def __hash__(self) -> int:
        return hash(self._nonzero_terms())

    def __repr__(self) -> str:
        return f"TrigPolynomial(cos_terms={self.cos_terms!r}, sin_terms={self.sin_terms!r})"

    # -- basic queries ----------------------------------------------------
    @property
    def mean(self) -> float:
        """Average over one period (the constant Fourier term)."""
        return float(self.spectrum[0].real)

    @property
    def max_harmonic(self) -> int:
        return self.spectrum.size - 1

    def is_zero(self, tol: float = 0.0) -> bool:
        """Whether every ``|a_j|`` and every ``|b_j|`` is at most ``tol``."""
        return bool(np.abs(self.spectrum.view(float)).max() <= tol)

    def coefficient_norm(self) -> float:
        """Sum of absolute coefficient values (an upper bound for |f|)."""
        return float(np.abs(self.spectrum.view(float)).sum())

    # -- evaluation -------------------------------------------------------
    def __call__(self, phi):
        """Evaluate at ``phi`` (scalar or ndarray).

        A Python number, a NumPy scalar or a 0-d array returns a ``float``,
        summed term by term in Python floats with ``math.cos`` and
        ``math.sin``.  Any other input returns an array of its shape: with
        at most one harmonic ``a0 + a1*cos(phi) + b1*sin(phi)``, term for
        term, formed in place in the array of the first transcendental call
        (a constant is its value at every phase); otherwise Horner's rule
        in ``z = exp(i*phi)``.  The returned array is always a new one,
        which the caller may overwrite.
        """
        if isinstance(phi, (float, int)) or getattr(phi, "ndim", None) == 0:
            x = float(phi)
            cos_terms, sin_terms = self._terms or self._nonzero_terms()
            total = 0.0
            for j, v in cos_terms:
                total = total + v * math.cos(j * x)
            for j, v in sin_terms:
                total = total + v * math.sin(j * x)
            return total
        x = np.asarray(phi, dtype=float)
        first = self._first or self._first_harmonic()
        if first:
            # A zero mean is added too: it turns a product's -0.0 into the
            # +0.0 of the per-harmonic sum.
            mean, a1, b1 = first
            if a1:
                out = np.cos(x)
                out *= a1
                out += mean
                if b1:
                    s = np.sin(x)
                    s *= b1
                    out += s
            elif b1:
                out = np.sin(x)
                out *= b1
                out += mean
            else:
                out = np.full_like(x, mean)
            return out
        c = self.spectrum
        z = np.exp(1j * x)
        acc = z * c[-1]
        for cj in c[-2:0:-1]:
            acc += cj
            acc *= z
        return acc.real + c[0].real

    def _first_harmonic(self) -> tuple[np.ndarray, ...]:
        """``(a0, a1, b1)`` of a series of at most one harmonic, else ``()``.

        They are 0-d float64 arrays: NumPy applies one to an array with the
        same result as a Python float but without converting it each call.
        Made on first use into a plain attribute, as the term pairs are.
        """
        if self._first is None:
            first = ()
            if self.max_harmonic <= 1:
                c0, c1 = np.append(self.spectrum, 0j)[:2]
                first = (np.array(c0.real), np.array(c1.real), np.array(-c1.imag))
            object.__setattr__(self, "_first", first)
        return self._first

    # -- algebra ----------------------------------------------------------
    def scaled(self, factor: float) -> "TrigPolynomial":
        # Scaling the interleaved (a_j, -b_j) pairs multiplies each
        # coefficient once, as a complex product would not.
        return TrigPolynomial._of((self.spectrum.view(float) * factor).view(complex))

    def __neg__(self) -> "TrigPolynomial":
        return TrigPolynomial._of(-self.spectrum)

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        a, b = self.spectrum, other.spectrum
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] += b
        return TrigPolynomial._of(out)

    # -- extrema ----------------------------------------------------------
    def extrema(self) -> tuple[float, float]:
        """Global (max, min) over one period.

        A series of at most one harmonic has the closed form ``a0 +- hypot(a1,
        b1)``.  Otherwise one inverse real FFT of the spectrum gives the
        values on a uniform grid (``_EXTREMA_SAMPLES`` points, doubled until
        every harmonic is resolved).  The grid arg-max and arg-min are then
        polished by Newton steps on ``f'/f''``, each kept inside the grid
        bracket around its start, until no phase moves by more than
        rounding (at most ``_NEWTON_STEPS`` steps); a polished value
        replaces the grid value only when it is the more extreme one.
        """
        first = self._first_harmonic()
        if first:
            mean, a1, b1 = (float(v) for v in first)
            r = math.hypot(a1, b1)
            return (mean + r, mean - r)
        c = self.spectrum
        n = _EXTREMA_SAMPLES
        while n <= 2 * self.max_harmonic:
            n *= 2
        spec = 0.5 * n * c
        spec[0] *= 2.0
        vals = np.fft.irfft(spec, n)
        step = 2.0 * math.pi / n
        i_max, i_min = int(np.argmax(vals)), int(np.argmin(vals))
        phi = np.array([i_max, i_min]) * step
        lower, upper = phi - step, phi + step
        ij = 1j * np.arange(c.size)
        spectra = np.stack([c, c * ij, c * ij**2], axis=1)  # of f, f' and f''

        for _ in range(_NEWTON_STEPS):
            value, d1, d2 = (np.exp(phi[:, None] * ij) @ spectra).real.T
            shift = np.divide(d1, d2, out=np.zeros(2), where=d2 != 0.0)
            moved = np.minimum(np.maximum(phi - shift, lower), upper)
            if abs(moved - phi).max() <= _PHASE_ROUNDING:
                break
            phi = moved
        else:
            value = (np.exp(phi[:, None] * ij) @ c).real
        hi, lo = value
        return (max(float(hi), float(vals[i_max])), min(float(lo), float(vals[i_min])))


def cosine(amplitude: float, harmonic: int = 1) -> TrigPolynomial:
    """The profile ``amplitude * cos(harmonic * phi)``."""
    return TrigPolynomial({harmonic: amplitude}, {})
