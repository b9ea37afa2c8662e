"""Trigonometric-polynomial evaluation, algebra, value semantics and extrema."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublezero.errors import DomainError
from doublezero.fourier import TrigPolynomial, cosine


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


def _per_harmonic_sum(poly: TrigPolynomial, phi: np.ndarray) -> np.ndarray:
    """The series summed one ``cos(j*phi)`` or ``sin(j*phi)`` at a time."""
    out = np.zeros_like(phi)
    for j, v in poly.cos_terms:
        out = out + v * np.cos(j * phi)
    for j, v in poly.sin_terms:
        out = out + v * np.sin(j * phi)
    return out


#: Phases of the array checks: both ends of a period, pi, and |phi| near 50.
PHASES = np.concatenate(
    [[0.0, math.pi, -math.pi, 2.0 * math.pi, 50.0, -50.0, 49.9, -50.3],
     np.random.default_rng(4).uniform(-7.0, 7.0, 1000),
     np.random.default_rng(5).uniform(49.0, 51.0, 200) * np.resize([1.0, -1.0], 200)]
)


#: Every coefficient pattern of at most one harmonic: cos only, sin only,
#: mixed, with and without a mean, constant and zero.
ONE_HARMONIC = [
    cosine(1.3), TrigPolynomial({}, {1: -0.7}), TrigPolynomial({0: 0.4, 1: -1.1}), TrigPolynomial({0: 0.4}, {1: 2.0}),
    TrigPolynomial({0: -0.2, 1: 0.9}, {1: -0.6}), TrigPolynomial({1: 0.5}, {1: 0.25}),
    TrigPolynomial({0: 2.5}), TrigPolynomial(),
]


@pytest.mark.parametrize("poly", ONE_HARMONIC)
def test_one_harmonic_arrays_equal_the_per_harmonic_sum_bitwise(poly: TrigPolynomial) -> None:
    for phi in (PHASES, PHASES.reshape(4, -1)):
        values = poly(phi)
        assert values.shape == phi.shape
        assert values.tobytes() == _per_harmonic_sum(poly, phi).tobytes()


@pytest.mark.parametrize(
    "poly", ONE_HARMONIC + [TrigPolynomial({0: 0.1, 2: 0.7}, {1: 0.2, 3: -0.4})]
)
def test_array_evaluation_returns_a_fresh_writable_array(poly: TrigPolynomial) -> None:
    # Callers such as the batch right-hand side of ``scaled_flow`` add into
    # the returned array, so it must never be, or alias, the input.
    for phi in (PHASES, PHASES.reshape(4, -1), PHASES[::3]):
        before = phi.tobytes()
        values = poly(phi)
        assert values.dtype == np.float64 and values.flags.writeable
        assert not np.shares_memory(values, phi)
        again = poly(phi)
        assert not np.shares_memory(values, again)
        values += 1.0
        assert phi.tobytes() == before
        assert again.tobytes() == poly(phi).tobytes()


@pytest.mark.parametrize("shape", [(0,), (7,), (2, 3)])
def test_zero_polynomial_gives_zeros_of_the_input_shape(shape) -> None:
    for fill in (0.3, np.inf, np.nan):
        phi = np.full(shape, fill)
        values = TrigPolynomial()(phi)
        assert isinstance(values, np.ndarray) and values.shape == phi.shape
        assert not values.any()


def _long_double_sum(poly: TrigPolynomial, phi: np.ndarray) -> np.ndarray:
    """The per-harmonic sum in ``np.longdouble`` at the float64 phases."""
    x = phi.astype(np.longdouble)
    out = np.zeros_like(x)
    for j, v in poly.cos_terms:
        out += np.longdouble(v) * np.cos(j * x)
    for j, v in poly.sin_terms:
        out += np.longdouble(v) * np.sin(j * x)
    return out


#: PHASES plus phases next to 0 and +-pi, where the top harmonics of a long
#: series are the most sensitive to how the recurrence is formed.
ENDS = (0.0, math.pi, -math.pi)
NEAR_ENDS = np.concatenate(
    [PHASES, [np.nextafter(end, side) for end in ENDS for side in (-np.inf, np.inf)]]
    + [end + np.linspace(-1e-3, 1e-3, 41) for end in ENDS]
)


@pytest.mark.parametrize("harmonics", [2, 3, 8, 64, 257, 1024])
def test_array_evaluation_matches_the_per_harmonic_sum(harmonics: int) -> None:
    rng = np.random.default_rng(harmonics)
    j = range(harmonics + 1)
    poly = TrigPolynomial(dict(zip(j, rng.normal(size=harmonics + 1))),
                          dict(zip(j, rng.normal(size=harmonics + 1))))
    err = np.max(np.abs(poly(NEAR_ENDS) - _long_double_sum(poly, NEAR_ENDS)))
    assert err <= 2e-14 * poly.coefficient_norm()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    cos=st.dictionaries(st.integers(0, 40), st.floats(-1e3, 1e3), max_size=20),
    sin=st.dictionaries(st.integers(1, 40), st.floats(-1e3, 1e3), max_size=20),
    phi=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=30),
)
def test_array_evaluation_property(cos, sin, phi) -> None:
    poly = TrigPolynomial(cos, sin)
    x = np.array(phi)
    values = poly(x)
    reference = _per_harmonic_sum(poly, x)
    assert values.shape == x.shape
    if poly.max_harmonic <= 1:
        assert values.tobytes() == reference.tobytes()
    assert np.max(np.abs(values - reference)) <= 1e-12 * poly.coefficient_norm()


def test_mean_and_zero_flags() -> None:
    assert TrigPolynomial({0: 2.5}, {}).mean == 2.5
    assert TrigPolynomial().is_zero()
    assert not cosine(1e-3).is_zero()
    assert cosine(1e-3).is_zero(tol=1e-2)
    assert TrigPolynomial({1: 0.6}, {2: -0.8}).coefficient_norm() == pytest.approx(1.4)


def test_sin_term_at_harmonic_zero_is_dropped() -> None:
    poly = TrigPolynomial({}, {0: 123.0})
    assert poly.is_zero()


def test_spectrum_is_read_only() -> None:
    # One forcing object is shared by many flows and profiles.
    forcing = cosine(1.0)
    with pytest.raises(ValueError):
        forcing.spectrum[1] = 2.0
    with pytest.raises(AttributeError):
        forcing.spectrum = np.array([0.0, 2.0 + 0j])
    assert forcing == cosine(1.0) and forcing(0.0) == 1.0


def test_equal_series_built_in_different_ways_compare_and_hash_equal() -> None:
    reference = TrigPolynomial({0: 0.5, 2: -1.0}, {1: 0.25})
    built = [
        TrigPolynomial([(2, -1), (0, 0.5)], [(1, 0.25), (0, 9.0)]),
        TrigPolynomial({np.int64(0): np.float64(0.5), 2: -1, 5: 0.0}, {1: 0.25, 3: 0.0}),
        TrigPolynomial({0: 0.5}) + TrigPolynomial({2: -1.0}, {1: 0.25}),
        TrigPolynomial({0: 1.0, 2: -2.0}, {1: 0.5}).scaled(0.5),
        -TrigPolynomial({0: -0.5, 2: 1.0}, {1: -0.25}),
        TrigPolynomial({0: 0.5, 2: -1.0, 4: 3.0}, {1: 0.25}) + TrigPolynomial({4: -3.0}),
    ]
    for poly in built:
        assert poly == reference and hash(poly) == hash(reference)
        assert repr(poly) == repr(reference)
        assert poly.max_harmonic == 2
        for j, v in poly.cos_terms + poly.sin_terms:
            assert type(j) is int and type(v) is float
    assert reference != TrigPolynomial({0: 0.5, 2: -1.0}, {1: 0.25, 2: 1e-300})
    assert reference != TrigPolynomial({0: 0.5, 2: -1.0}, {2: 0.25})


def test_zero_terms_leave_no_trace() -> None:
    assert TrigPolynomial({1: 0.0}) == TrigPolynomial()
    assert cosine(2.0).scaled(0.0).is_zero()
    assert cosine(2.0).scaled(0.0) == TrigPolynomial()
    total = TrigPolynomial({1: 1.0, 5: 0.5}, {7: 0.25}) + TrigPolynomial({2: 1.0, 5: -0.5}, {7: -0.25})
    assert total.max_harmonic == 2 and total == TrigPolynomial({1: 1.0, 2: 1.0})
    assert (TrigPolynomial({}, {3: 2.0}) + TrigPolynomial({}, {3: -2.0})).max_harmonic == 0


def test_each_coefficient_keeps_its_own_part() -> None:
    poly = TrigPolynomial({2: -0.0}, {1: math.inf, 2: 1e-310})
    assert poly.cos_terms == () and poly.sin_terms == ((1, math.inf), (2, 1e-310))


def test_zero_tests_read_each_coefficient_on_its_own() -> None:
    # |a_j| and |b_j| at most tol each, although |a_j - i*b_j| exceeds it.
    poly = TrigPolynomial({1: 0.8}, {1: 0.8})
    assert poly.is_zero(tol=0.8) and not poly.is_zero(tol=0.79)
    assert poly.coefficient_norm() == 1.6


def test_algebra_scale_negate_add() -> None:
    a = cosine(2.0, 1)
    b = TrigPolynomial({}, {2: 3.0})
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


@pytest.mark.parametrize(
    "poly, expected",
    [
        (cosine(0.75), (0.75, -0.75)),
        (TrigPolynomial({}, {1: -1.25}), (1.25, -1.25)),
        (TrigPolynomial({0: 0.5, 1: 3.0}, {1: -4.0}), (5.5, -4.5)),
        (TrigPolynomial({0: -0.3}), (-0.3, -0.3)),
        (TrigPolynomial(), (0.0, 0.0)),
    ],
)
def test_one_harmonic_extrema_are_the_closed_form(poly: TrigPolynomial, expected) -> None:
    """At most one harmonic: the extrema are ``mean +- hypot(a1, b1)``, exactly."""
    assert poly.extrema() == expected


@st.composite
def _multi_harmonic_profiles(draw) -> TrigPolynomial:
    top = draw(st.integers(2, 64))
    coef = st.floats(-1.0, 1.0)
    cos = draw(st.lists(coef, min_size=top, max_size=top))
    sin = draw(st.lists(coef, min_size=top - 1, max_size=top - 1))
    lead = draw(st.floats(0.05, 1.0))  # keeps harmonic ``top`` present
    return TrigPolynomial(dict(enumerate(cos + [lead])), dict(enumerate(sin, start=1)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(poly=_multi_harmonic_profiles())
def test_extrema_property_against_refined_dense_sampling(poly: TrigPolynomial) -> None:
    """The extrema bracket every sample of a dense grid refined around its
    arg-max and arg-min, and those samples reach them to 1e-13 of the
    coefficient norm."""
    grid = np.linspace(0.0, 2.0 * math.pi, 200001)
    step = grid[1]
    hi, lo = poly.extrema()
    vals = poly(grid)
    top_at, bottom_at = grid[np.argmax(vals)], grid[np.argmin(vals)]
    top = float(poly(np.linspace(top_at - step, top_at + step, 20001)).max())
    bottom = float(poly(np.linspace(bottom_at - step, bottom_at + step, 20001)).min())
    scale = poly.coefficient_norm()
    assert top - 1e-14 * scale <= hi <= top + 1e-13 * scale
    assert bottom - 1e-13 * scale <= lo <= bottom + 1e-14 * scale


def test_pure_cosine_extrema_are_exact() -> None:
    hi, lo = cosine(0.75).extrema()
    assert hi == pytest.approx(0.75, abs=1e-13)
    assert lo == pytest.approx(-0.75, abs=1e-13)


def test_rejects_negative_harmonics() -> None:
    with pytest.raises(DomainError):
        TrigPolynomial({-1: 1.0}, {})
    with pytest.raises(DomainError):
        TrigPolynomial({}, {-2: 1.0})
