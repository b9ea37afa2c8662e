"""Trigonometric-polynomial algebra, extrema, and sampling round trips."""

from __future__ import annotations

import math

import numpy as np
import pytest

from doublezero.errors import DomainError
from doublezero.fourier import TrigPolynomial, cosine, sine


def test_evaluation_matches_direct_sum() -> None:
    poly = TrigPolynomial({0: 0.4, 1: 1.0, 3: -0.2}, {2: 0.7})
    for phi in np.linspace(-7.0, 7.0, 41):
        direct = 0.4 + math.cos(phi) - 0.2 * math.cos(3 * phi) + 0.7 * math.sin(2 * phi)
        assert poly(float(phi)) == pytest.approx(direct, abs=1e-14)


def test_vectorised_evaluation_matches_scalar() -> None:
    poly = TrigPolynomial({1: 0.3}, {1: -1.1, 4: 0.05})
    grid = np.linspace(0.0, 2.0 * math.pi, 50)
    vec = poly(grid)
    assert vec.shape == grid.shape
    for phi, value in zip(grid, vec):
        assert value == pytest.approx(poly(float(phi)), abs=1e-15)


def test_scalar_inputs_return_floats_near_the_direct_sum() -> None:
    poly = TrigPolynomial({0: 0.4, 1: 1.0, 3: -0.2}, {2: 0.7})
    for phi in np.linspace(-7.0, 7.0, 41):
        direct = 0.4 + math.cos(phi) - 0.2 * math.cos(3 * phi) + 0.7 * math.sin(2 * phi)
        for arg in (float(phi), np.float64(phi), np.array(phi)):
            value = poly(arg)
            assert type(value) is float
            assert abs(value - direct) <= 1e-15


@pytest.mark.parametrize("shape", [(3, 4), (5,), (0,)])
@pytest.mark.parametrize(
    "poly", [TrigPolynomial({1: 0.3}, {1: -1.1, 4: 0.05}), TrigPolynomial()]
)
def test_array_inputs_return_arrays_of_their_shape(poly: TrigPolynomial, shape) -> None:
    phi = np.random.default_rng(2).uniform(-7.0, 7.0, size=shape)
    values = poly(phi)
    assert isinstance(values, np.ndarray) and values.shape == shape
    if poly.is_zero():
        assert not values.any()
    for p, value in zip(phi.ravel(), values.ravel()):
        assert abs(value - poly(float(p))) <= 1e-15


def test_derivative_matches_finite_differences() -> None:
    poly = TrigPolynomial({1: 1.2, 2: -0.3}, {1: 0.5, 3: 0.1})
    deriv = poly.derivative()
    h = 1e-6
    for phi in np.linspace(0.0, 2.0 * math.pi, 25):
        fd = (poly(float(phi) + h) - poly(float(phi) - h)) / (2.0 * h)
        assert deriv(float(phi)) == pytest.approx(fd, abs=1e-7)


def test_mean_and_zero_flags() -> None:
    assert TrigPolynomial({0: 2.5}, {}).mean == 2.5
    assert TrigPolynomial().is_zero()
    assert not cosine(1e-3).is_zero()
    assert cosine(1e-3).is_zero(tol=1e-2)
    assert TrigPolynomial({1: 0.6}, {2: -0.8}).coefficient_norm() == pytest.approx(1.4)


def test_sin_term_at_harmonic_zero_is_dropped() -> None:
    poly = TrigPolynomial({}, {0: 123.0})
    assert poly.is_zero()


def test_algebra_scale_negate_add() -> None:
    a = cosine(2.0, 1)
    b = sine(3.0, 2)
    combo = a + (-b).scaled(0.5)
    for phi in np.linspace(0.0, 2.0 * math.pi, 17):
        expected = 2.0 * math.cos(phi) - 1.5 * math.sin(2 * phi)
        assert combo(float(phi)) == pytest.approx(expected, abs=1e-14)


def _random_profile(seed: int) -> TrigPolynomial:
    """A 64-harmonic profile whose coefficients decay like 1/j."""
    rng = np.random.default_rng(seed)
    j = np.arange(1, 65)
    a = rng.normal(size=j.size) / j
    b = rng.normal(size=j.size) / j
    return TrigPolynomial(dict(zip(j.tolist(), a.tolist())), dict(zip(j.tolist(), b.tolist())))


def test_extrema_certified_against_dense_sampling() -> None:
    profiles = [TrigPolynomial({1: 1.0, 2: 0.4}, {3: -0.6})]
    profiles += [_random_profile(seed) for seed in range(4)]
    grid = np.linspace(0.0, 2.0 * math.pi, 200001)
    step = grid[1]
    for poly in profiles:
        hi, lo = poly.extrema()
        vals = poly(grid)
        # Refine each dense extremum on a finer grid, since a 64-harmonic
        # profile varies too fast for the dense grid alone to pin its
        # extrema to 1e-10.
        top_at = grid[np.argmax(vals)]
        bottom_at = grid[np.argmin(vals)]
        top = float(poly(np.linspace(top_at - step, top_at + step, 20001)).max())
        bottom = float(poly(np.linspace(bottom_at - step, bottom_at + step, 20001)).min())
        assert hi >= top - 1e-12
        assert lo <= bottom + 1e-12
        assert hi == pytest.approx(top, abs=1e-10)
        assert lo == pytest.approx(bottom, abs=1e-10)


def test_pure_cosine_extrema_are_exact() -> None:
    hi, lo = cosine(0.75).extrema()
    assert hi == pytest.approx(0.75, abs=1e-13)
    assert lo == pytest.approx(-0.75, abs=1e-13)


def test_from_samples_round_trip() -> None:
    poly = TrigPolynomial({0: -0.2, 1: 1.0, 5: 0.3}, {2: -0.9})
    grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    recovered = TrigPolynomial.from_samples(poly(grid))
    for phi in np.linspace(0.0, 2.0 * math.pi, 37):
        assert recovered(float(phi)) == pytest.approx(poly(float(phi)), abs=1e-12)
    with pytest.raises(DomainError):
        TrigPolynomial.from_samples(np.array([1.0]))


def test_rejects_negative_harmonics() -> None:
    with pytest.raises(DomainError):
        TrigPolynomial({-1: 1.0}, {})
    with pytest.raises(DomainError):
        TrigPolynomial({}, {-2: 1.0})
