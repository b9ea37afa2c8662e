"""Real trigonometric polynomials on the circle.

Forcing profiles and Melnikov profiles are 2*pi-periodic functions carried
around as finite Fourier series.  This module provides the small immutable
container used for them, plus helpers to build one from samples and to locate
its extrema: ``mean +- hypot(a1, b1)`` for at most one harmonic, otherwise
grid values from one inverse FFT of the coefficients, then Newton steps on
the derivative at the grid arg-max and arg-min until they stop moving.

A series is evaluated on arrays by Clenshaw's recurrence, which needs one
``cos`` and at most one ``sin`` of the phases whatever the number of
harmonics, or, with at most one harmonic, summed directly in place; on one
Python float it is summed term by term with ``math``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError

__all__ = ["TrigPolynomial", "cosine", "sine"]

#: Least number of grid points per period in ``TrigPolynomial.extrema``.
_EXTREMA_SAMPLES = 4096
#: Most Newton steps polishing each grid extremum; a grid point starts
#: within half a grid step, and the steps converge quadratically from there.
_NEWTON_STEPS = 6
#: A Newton step that moves no phase by more than this has converged: a few
#: ulps of the period.
_PHASE_ROUNDING = 4.0 * math.ulp(2.0 * math.pi)


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


def _clenshaw(coef: dict[int, float], cos_x: np.ndarray):
    """``(u_1, u_2)`` of the backward recurrence ``u_j = c_j + 2 cos(x) u_{j+1} - u_{j+2}``.

    ``coef`` maps the harmonics ``j >= 1`` of one kind to ``c_j``.  Then
    ``sum_j c_j cos(j x) = u_1 cos(x) - u_2`` and ``sum_j c_j sin(j x) =
    u_1 sin(x)``.  Below two harmonics the pair is Python floats and
    ``cos_x`` is not read.
    """
    top = max(coef, default=0)
    u1, u2 = coef.get(top, 0.0), 0.0
    if top > 1:
        two_cos = 2.0 * cos_x
        for j in range(top - 1, 0, -1):
            u1, u2 = coef.get(j, 0.0) + two_cos * u1 - u2, u1
    return u1, u2


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
        right-hand side.  Any other input returns an array of its shape,
        summed by the Clenshaw recurrences of the cosine and the sine
        coefficients (see ``_clenshaw``): one ``cos`` of the input when
        there are cosine harmonics or sine harmonics above the first, one
        ``sin`` when there are sine terms, and three array operations per
        harmonic of each kind.  With at most one harmonic the sum is
        ``a0 + a1*cos(phi) + b1*sin(phi)``, term for term, formed in place
        in the array of the first transcendental call; a constant is its
        value at every phase.  The returned array is always a new one,
        which the caller may overwrite.
        """
        if isinstance(phi, (float, int)) or getattr(phi, "ndim", None) == 0:
            x = float(phi)
            total = 0.0
            for j, v in self.cos_terms:
                total = total + v * math.cos(j * x)
            for j, v in self.sin_terms:
                total = total + v * math.sin(j * x)
            return total
        x = np.asarray(phi, dtype=float)
        first = self._first_harmonic
        if first is not None:
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
        mean, cos_coef, sin_coef = self._series
        cos_x = np.cos(x)
        if cos_coef:
            u1, u2 = _clenshaw(cos_coef, cos_x)
            out = (mean - u2) + u1 * cos_x
        else:
            out = np.full_like(x, mean)
        if sin_coef:
            w1, _ = _clenshaw(sin_coef, cos_x)
            out = out + w1 * np.sin(x)
        return out

    @cached_property
    def _series(self) -> tuple[float, dict[int, float], dict[int, float]]:
        """The mean and the ``{j: c_j}`` maps of the cosine and the sine
        harmonics ``j >= 1``, read by every array evaluation."""
        return self.mean, {j: v for j, v in self.cos_terms if j}, dict(self.sin_terms)

    @cached_property
    def _first_harmonic(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(a0, a1, b1)`` of a series of at most one harmonic, else ``None``.

        They are 0-d float64 arrays: NumPy applies one to an array with the
        same result as a Python float but without converting it each call.
        """
        if self.max_harmonic > 1:
            return None
        mean, cos_coef, sin_coef = self._series
        return np.array(mean), np.array(cos_coef.get(1, 0.0)), np.array(sin_coef.get(1, 0.0))

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

        A series of at most one harmonic has the closed form ``a0 +- hypot(a1,
        b1)``.  Otherwise one inverse real FFT of the coefficients gives the
        values on a uniform grid (``_EXTREMA_SAMPLES`` points, doubled until
        every harmonic is resolved).  The grid arg-max and arg-min are then
        polished by Newton steps on ``f'/f''``, each kept inside the grid
        bracket around its start, until no phase moves by more than
        rounding (at most ``_NEWTON_STEPS`` steps); a polished value
        replaces the grid value only when it is the more extreme one.
        """
        first = self._first_harmonic
        if first is not None:
            mean, a1, b1 = (float(v) for v in first)
            r = math.hypot(a1, b1)
            return (mean + r, mean - r)
        # f(phi) = Re sum_j c_j exp(i j phi) with c_j = a_j - i b_j.
        top = self.max_harmonic
        ab = np.zeros((top + 1, 2))
        for column, terms in enumerate((self.cos_terms, self.sin_terms)):
            if terms:
                j, v = zip(*terms)
                ab[j, column] = v
        c = ab.view(complex)[:, 0].conj()
        n = _EXTREMA_SAMPLES
        while n <= 2 * top:
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
