"""Real trigonometric polynomials on the circle.

Forcing profiles and Melnikov profiles are 2*pi-periodic functions carried
around as finite Fourier series.  This module provides the small immutable
container used for them, plus helpers to build one from samples and to locate
its extrema (grid values from one inverse FFT of the coefficients, then a few
Newton steps on the derivative at the grid arg-max and arg-min).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError

__all__ = ["TrigPolynomial", "cosine", "sine"]

#: Least number of grid points per period in ``TrigPolynomial.extrema``.
_EXTREMA_SAMPLES = 4096
#: Newton steps polishing each grid extremum; a grid point starts within
#: half a grid step, and the steps converge quadratically from there.
_NEWTON_STEPS = 6


def _clean(coeffs: Mapping[int, float], what: str) -> tuple[tuple[int, float], ...]:
    out: dict[int, float] = {}
    for j, v in coeffs.items():
        j = int(j)
        v = float(v)
        if j < 0:
            raise DomainError(f"{what} harmonic index must be >= 0, got {j}")
        if v != 0.0:
            out[j] = out.get(j, 0.0) + v
    return tuple(sorted(out.items()))


@dataclass(frozen=True, init=False)
class TrigPolynomial:
    """Finite real Fourier series  a0 + sum_j (a_j cos(j*phi) + b_j sin(j*phi)).

    Parameters
    ----------
    cos_terms, sin_terms
        Mappings ``harmonic -> coefficient``.  Harmonic 0 is only meaningful
        for ``cos_terms`` (the mean); a ``sin`` term at harmonic 0 is ignored
        because sin(0) = 0.
    """

    cos_terms: tuple[tuple[int, float], ...] = ()
    sin_terms: tuple[tuple[int, float], ...] = ()

    def __init__(
        self,
        cos_terms: Mapping[int, float] | Iterable[tuple[int, float]] = (),
        sin_terms: Mapping[int, float] | Iterable[tuple[int, float]] = (),
    ) -> None:
        cos_map = dict(cos_terms)
        sin_map = dict(sin_terms)
        sin_map.pop(0, None)
        object.__setattr__(self, "cos_terms", _clean(cos_map, "cos"))
        object.__setattr__(self, "sin_terms", _clean(sin_map, "sin"))

    # -- basic queries ----------------------------------------------------
    @property
    def mean(self) -> float:
        """Average over one period (the constant Fourier term)."""
        return dict(self.cos_terms).get(0, 0.0)

    @property
    def max_harmonic(self) -> int:
        idx = [j for j, _ in self.cos_terms] + [j for j, _ in self.sin_terms]
        return max(idx) if idx else 0

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(v) <= tol for _, v in self.cos_terms) and all(
            abs(v) <= tol for _, v in self.sin_terms
        )

    def coefficient_norm(self) -> float:
        """Sum of absolute coefficient values (an upper bound for |f|)."""
        return sum(abs(v) for _, v in self.cos_terms) + sum(
            abs(v) for _, v in self.sin_terms
        )

    # -- evaluation -------------------------------------------------------
    def __call__(self, phi):
        """Evaluate at ``phi`` (scalar or ndarray).

        A Python number, a NumPy scalar or a 0-d array returns a ``float``,
        summed term by term in Python floats with ``math.cos`` and
        ``math.sin``: an integrator calls the forcing this way once per
        right-hand side.  Any other input returns an array of its shape.
        """
        if isinstance(phi, (float, int)) or getattr(phi, "ndim", None) == 0:
            x = float(phi)
            total = 0.0
            for j, v in self.cos_terms:
                total = total + v * math.cos(j * x)
            for j, v in self.sin_terms:
                total = total + v * math.sin(j * x)
            return total
        arr = np.asarray(phi, dtype=float)
        out = np.zeros_like(arr)
        for j, v in self.cos_terms:
            out = out + v * np.cos(j * arr)
        for j, v in self.sin_terms:
            out = out + v * np.sin(j * arr)
        return out

    def derivative(self) -> "TrigPolynomial":
        cos = {j: j * v for j, v in self.sin_terms}
        sin = {j: -j * v for j, v in self.cos_terms if j > 0}
        return TrigPolynomial(cos, sin)

    # -- algebra ----------------------------------------------------------
    def scaled(self, factor: float) -> "TrigPolynomial":
        return TrigPolynomial(
            {j: factor * v for j, v in self.cos_terms},
            {j: factor * v for j, v in self.sin_terms},
        )

    def __neg__(self) -> "TrigPolynomial":
        return self.scaled(-1.0)

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        cos = dict(self.cos_terms)
        for j, v in other.cos_terms:
            cos[j] = cos.get(j, 0.0) + v
        sin = dict(self.sin_terms)
        for j, v in other.sin_terms:
            sin[j] = sin.get(j, 0.0) + v
        return TrigPolynomial(cos, sin)

    # -- extrema ----------------------------------------------------------
    def extrema(self) -> tuple[float, float]:
        """Global (max, min) over one period.

        One inverse real FFT of the coefficients gives the values on a
        uniform grid (``_EXTREMA_SAMPLES`` points, doubled until every
        harmonic is resolved).  The grid arg-max and arg-min are then
        polished by Newton steps on ``f'/f''``, each kept inside the grid
        bracket around its start; a polished value replaces the grid value
        only when it is the more extreme one.
        """
        if self.is_zero():
            return (0.0, 0.0)
        # f(phi) = Re sum_j c_j exp(i j phi) with c_j = a_j - i b_j.
        c = np.zeros(self.max_harmonic + 1, dtype=complex)
        for j, v in self.cos_terms:
            c[j] += v
        for j, v in self.sin_terms:
            c[j] -= 1j * v
        n = _EXTREMA_SAMPLES
        while n <= 2 * self.max_harmonic:
            n *= 2
        spec = 0.5 * n * c
        spec[0] *= 2.0
        vals = np.fft.irfft(spec, n)
        step = 2.0 * math.pi / n
        i_max, i_min = int(np.argmax(vals)), int(np.argmin(vals))
        start = np.array([i_max, i_min]) * step
        ij = 1j * np.arange(c.size)

        def series(phi: np.ndarray, order: int) -> np.ndarray:
            """The ``order``-th derivative at each of the phases ``phi``."""
            return (np.exp(np.outer(phi, ij)) @ (c * ij**order)).real

        phi = start
        for _ in range(_NEWTON_STEPS):
            d1, d2 = series(phi, 1), series(phi, 2)
            shift = np.divide(d1, d2, out=np.zeros(2), where=d2 != 0.0)
            phi = np.clip(phi - shift, start - step, start + step)
        hi, lo = series(phi, 0)
        return (max(float(hi), float(vals[i_max])), min(float(lo), float(vals[i_min])))

    # -- construction helpers ----------------------------------------------
    @staticmethod
    def from_samples(values: np.ndarray, n_harmonics: int = 64) -> "TrigPolynomial":
        """Least-squares Fourier fit of uniform samples over one period.

        ``values[i]`` is the function at ``phi = 2*pi*i/len(values)``.  The
        series is truncated to ``n_harmonics`` harmonics.
        """
        values = np.asarray(values, dtype=float)
        n = values.size
        if n < 2:
            raise DomainError("need at least two samples per period")
        spec = np.fft.rfft(values) / n
        n_keep = min(n_harmonics, spec.size - 1)
        cos = {0: float(spec[0].real)}
        sin: dict[int, float] = {}
        for j in range(1, n_keep + 1):
            cos[j] = 2.0 * float(spec[j].real)
            sin[j] = -2.0 * float(spec[j].imag)
        return TrigPolynomial(cos, sin)


def cosine(amplitude: float, harmonic: int = 1) -> TrigPolynomial:
    """The profile ``amplitude * cos(harmonic * phi)``."""
    return TrigPolynomial({harmonic: amplitude}, {})


def sine(amplitude: float, harmonic: int = 1) -> TrigPolynomial:
    """The profile ``amplitude * sin(harmonic * phi)``."""
    return TrigPolynomial({}, {harmonic: amplitude})
