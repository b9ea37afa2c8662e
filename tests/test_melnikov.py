"""Orbit integrals, spectral weights, projections, and splitting functions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from doublezero.bifurcation import saddle_node_curves
from doublezero.elliptic import complete_K
from doublezero.errors import DomainError, ResonanceViolation
from doublezero.fourier import TrigPolynomial, cosine
from doublezero.melnikov import (
    _BRACKET_POLYS,
    _SERIES_M_CUT,
    MelnikovProfile,
    _bracket,
    fourier_weight_het,
    fourier_weight_hom,
    h_hat,
    h_hat_subharmonic,
    j_integrals,
    melnikov_separatrix,
    melnikov_subharmonic,
    separatrix_constants,
)
from doublezero.orbits import (
    PERIODIC_TAGS,
    FamilyKind,
    FamilyTag,
    _velocity_spectrum,
    evaluate,
    modulus_range,
    period,
    resonant_modulus,
)

SQRT2 = math.sqrt(2.0)


def _quad_orbit(tag: FamilyTag, k: float, n: int, integrand) -> float:
    t_end = n * period(tag, k)
    value, _ = quad(integrand, 0.0, t_end, limit=400, epsabs=1e-13, epsrel=1e-13)
    return value


@pytest.mark.parametrize("tag", sorted(PERIODIC_TAGS, key=lambda t: t.value))
def test_orbit_integrals_match_quadrature(tag: FamilyTag) -> None:
    lo, hi = modulus_range(tag)
    for frac in (0.15, 0.5, 0.85):
        k = lo + frac * (hi - lo)
        j = j_integrals(tag, k, 1)

        def z(t: float):
            return evaluate(tag, k, t)

        q1 = _quad_orbit(tag, k, 1, lambda t: z(t).zeta2 ** 2)
        q2 = _quad_orbit(tag, k, 1, lambda t: z(t).zeta1 ** 2 * z(t).zeta2 ** 2)
        q3 = _quad_orbit(tag, k, 1, lambda t: z(t).zeta1 ** 2)
        assert j.j1 == pytest.approx(q1, rel=1e-9)
        assert j.j2 == pytest.approx(q2, rel=1e-9)
        assert j.j3 == pytest.approx(q3, rel=1e-9)


def test_orbit_integrals_scale_linearly_in_n() -> None:
    for tag in sorted(PERIODIC_TAGS, key=lambda t: t.value):
        lo, hi = modulus_range(tag)
        k = lo + 0.4 * (hi - lo)
        one = j_integrals(tag, k, 1)
        three = j_integrals(tag, k, 3)
        assert three.j1 == pytest.approx(3.0 * one.j1, rel=1e-13)
        assert three.j2 == pytest.approx(3.0 * one.j2, rel=1e-13)
        assert three.j3 == pytest.approx(3.0 * one.j3, rel=1e-13)


def test_bracket_series_agrees_with_direct_evaluation() -> None:
    # The Maclaurin route below the cut and the direct E/K combination above
    # it must agree where both are accurate (around the switch point).
    from doublezero.elliptic import complete_E

    for name in _BRACKET_POLYS:
        for m in (0.20, 0.30, _SERIES_M_CUT - 1e-6):
            k = math.sqrt(m)
            e, big_k = complete_E(k), complete_K(k)
            series = _bracket(name, m, e, big_k)
            pe, pk = _BRACKET_POLYS[name]
            direct = (
                sum(c * m**i for i, c in enumerate(pe)) * e
                + sum(c * m**i for i, c in enumerate(pk)) * big_k
            )
            # Direct evaluation loses at most ~eps/m**4 here.
            assert series == pytest.approx(direct, rel=1e-10)


def test_orbit_integrals_are_finite_and_positive_at_small_modulus() -> None:
    # The cancellation-prone corner: tiny modulus, where the closed-form
    # brackets vanish to high order.
    for tag in sorted(PERIODIC_TAGS, key=lambda t: t.value):
        lo, hi = modulus_range(tag)
        k = lo + 1e-4 * (hi - lo)
        j = j_integrals(tag, k, 1)
        assert j.j1 > 0.0 and j.j2 > 0.0 and j.j3 > 0.0

        def z(t: float):
            return evaluate(tag, k, t)

        q2 = _quad_orbit(tag, k, 1, lambda t: z(t).zeta1 ** 2 * z(t).zeta2 ** 2)
        assert j.j2 == pytest.approx(q2, rel=1e-8)


def test_connection_weight_matches_kernel_quadrature() -> None:
    for chi in (0.3, 1.0, 2.7):
        kernel, _ = quad(
            lambda t: (1.0 / math.cosh(t / SQRT2)) ** 2 / SQRT2 * math.cos(chi * t),
            -42.0, 42.0, limit=400, epsabs=1e-13, epsrel=1e-13,
        )
        assert fourier_weight_het(chi) == pytest.approx(kernel, abs=1e-10)


def test_loop_weight_matches_kernel_quadrature() -> None:
    for chi in (0.3, 1.0, 2.7):
        kernel, _ = quad(
            lambda t: -SQRT2 / math.cosh(t) * math.tanh(t) * math.sin(chi * t),
            -42.0, 42.0, limit=400, epsabs=1e-13, epsrel=1e-13,
        )
        assert fourier_weight_hom(chi) == pytest.approx(-kernel, abs=1e-10)


def test_weight_limits_and_symmetry() -> None:
    assert fourier_weight_het(0.0) == pytest.approx(2.0, abs=1e-15)
    assert fourier_weight_hom(0.0) == 0.0
    for chi in (0.4, 1.7):
        assert fourier_weight_het(-chi) == pytest.approx(fourier_weight_het(chi))
        assert fourier_weight_hom(-chi) == pytest.approx(-fourier_weight_hom(chi))
    # Exponential decay keeps large arguments finite.
    assert fourier_weight_het(1000.0) == pytest.approx(0.0, abs=1e-300)


def test_connection_projection_of_single_cosine() -> None:
    omega_hat = 1.2
    amp = -0.7
    prof = h_hat(cosine(amp), FamilyTag.HET_PAIR, omega_hat)
    w = fourier_weight_het(omega_hat)
    assert dict(prof.values.cos_terms)[1] == pytest.approx(amp * w, rel=1e-13)
    assert prof.values.sin_terms == ()
    assert prof.hmax == pytest.approx(abs(amp) * w, rel=1e-10)
    assert prof.hmin == pytest.approx(-abs(amp) * w, rel=1e-10)
    # The lower-branch projection flips sign.
    lower = h_hat(cosine(amp), FamilyKind(FamilyTag.HET_PAIR, -1), omega_hat)
    assert dict(lower.values.cos_terms)[1] == pytest.approx(-amp * w, rel=1e-13)


def test_loop_projection_swaps_cosine_and_sine() -> None:
    omega_hat = 0.9
    u = fourier_weight_hom(omega_hat)
    from_cos = h_hat(cosine(1.0), FamilyTag.HOM_PAIR, omega_hat)
    assert dict(from_cos.values.sin_terms)[1] == pytest.approx(u, rel=1e-13)
    assert from_cos.values.cos_terms == ()
    from_sin = h_hat(TrigPolynomial({}, {1: 1.0}), FamilyTag.HOM_PAIR, omega_hat)
    assert dict(from_sin.values.cos_terms)[1] == pytest.approx(-u, rel=1e-13)


def test_projection_requires_mean_zero_and_separatrix_family() -> None:
    with pytest.raises(DomainError):
        h_hat(TrigPolynomial({0: 1.0, 1: 1.0}, {}), FamilyTag.HET_PAIR, 1.0)
    with pytest.raises(DomainError):
        h_hat(cosine(1.0), FamilyTag.INSIDE_HET, 1.0)
    with pytest.raises(DomainError):
        h_hat(cosine(1.0), FamilyTag.HET_PAIR, 0.0)


def _closed_amplitude(tag: FamilyTag, k: float, m: int, omega_hat: float) -> float:
    """Closed-form |projection| of a unit cosine at resonance (n = 1)."""
    kp = math.sqrt(1.0 - k * k)
    r = math.pi * complete_K(kp) / complete_K(k)
    base = SQRT2 * math.pi * omega_hat
    if tag is FamilyTag.INSIDE_HET:
        return 2.0 * base / math.sinh(0.5 * m * r)
    if tag is FamilyTag.GLOBAL:
        return 2.0 * base / math.cosh(0.5 * m * r)
    if tag is FamilyTag.INSIDE_HOM:
        return base / math.cosh(m * r)
    return 2.0 * base / math.cosh(0.5 * m * r)


def test_resonant_projection_selection_rules() -> None:
    omega_for = {
        FamilyTag.INSIDE_HET: 2.0 * math.pi / 9.0,
        FamilyTag.GLOBAL: 2.0 * math.pi / 4.0,
        FamilyTag.INSIDE_HOM: 2.0 * math.pi / 9.0,
        FamilyTag.OUTSIDE_HOM: 2.0 * math.pi / 5.0,
    }
    for tag, base_omega in omega_for.items():
        # n = 2 projections of a single-harmonic profile vanish.
        k2 = resonant_modulus(tag, 1, 2, base_omega / 2.0)
        prof = h_hat_subharmonic(cosine(1.0), tag, k2, 1, 2, base_omega / 2.0)
        assert prof.is_zero
        # Odd m at n = 1 is always allowed.
        k1 = resonant_modulus(tag, 1, 1, base_omega)
        prof1 = h_hat_subharmonic(cosine(1.0), tag, k1, 1, 1, base_omega)
        assert not prof1.is_zero
        assert prof1.hmax == pytest.approx(
            _closed_amplitude(tag, float(k1.k), 1, base_omega), rel=1e-8
        )
        # Even m: forbidden except on the one-sided loop family.
        k2m = resonant_modulus(tag, 2, 1, 2.0 * base_omega)
        prof2 = h_hat_subharmonic(cosine(1.0), tag, k2m, 2, 1, 2.0 * base_omega)
        if tag is FamilyTag.INSIDE_HOM:
            assert not prof2.is_zero
            assert prof2.hmax == pytest.approx(
                _closed_amplitude(tag, float(k2m.k), 2, 2.0 * base_omega), rel=1e-8
            )
        else:
            assert prof2.is_zero


@pytest.mark.parametrize("tag", [FamilyTag.INSIDE_HET, FamilyTag.OUTSIDE_HOM])
@pytest.mark.parametrize("k", [1.0 - 1e-6, 1.0 - 1e-9])
@pytest.mark.parametrize("m", [2, 4])
def test_even_resonances_vanish_exactly_next_to_the_separatrix(tag, k, m) -> None:
    # The orbit's velocity has odd harmonics only, so a pure cosine projects
    # to exactly zero for even m however close k is to 1.
    omega_hat = 2.0 * math.pi * m / period(tag, k)
    prof = h_hat_subharmonic(cosine(1.0), tag, k, m, 1, omega_hat)
    assert prof.is_zero
    assert prof.hmax == 0.0 == prof.hmin


def test_resonant_projection_validates_inputs() -> None:
    k = resonant_modulus(FamilyTag.INSIDE_HET, 1, 1, 0.8)
    with pytest.raises(ResonanceViolation):
        h_hat_subharmonic(cosine(1.0), FamilyTag.INSIDE_HET, k, 2, 4, 0.8)
    with pytest.raises(ResonanceViolation):
        # Modulus inconsistent with the claimed resonance.
        h_hat_subharmonic(cosine(1.0), FamilyTag.INSIDE_HET, 0.9, 1, 1, 0.8)
    with pytest.raises(DomainError):
        h_hat_subharmonic(cosine(1.0), FamilyTag.HET_PAIR, None, 1, 1, 0.8)


#: Families of the oracle comparison, each branch of the lobe pair included.
ORACLE_FAMILIES = [
    FamilyKind(FamilyTag.INSIDE_HET),
    FamilyKind(FamilyTag.GLOBAL),
    FamilyKind(FamilyTag.INSIDE_HOM, 1),
    FamilyKind(FamilyTag.INSIDE_HOM, -1),
    FamilyKind(FamilyTag.OUTSIDE_HOM),
]
RESONANCES = [(m, n) for m in range(1, 6) for n in range(1, 4) if math.gcd(m, n) == 1]
#: Places in each modulus range: 1e-6 from either end and ten between.
MODULUS_PLACES = (0.001, 0.01, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99)


def _oracle_moduli(fam: FamilyKind) -> list[float]:
    lo, hi = modulus_range(fam)
    return [lo + 1e-6] + [lo + x * (hi - lo) for x in MODULUS_PLACES] + [hi - 1e-6]


def _sampled_projection(profile: TrigPolynomial, fam: FamilyKind, k: float, m: int, n: int):
    """The projection from 4096 samples of one orbit period and their FFT.

    Returns the cosine and sine terms kept by the package's accumulation
    rule, ``m*T_hat`` and the largest sampled ``|zeta2|``.
    """
    t_orbit = period(fam, k)
    max_q = (profile.max_harmonic // n) * m
    samples = 4096
    while samples // 2 <= max_q + 2:
        samples *= 2
    zeta2 = evaluate(fam, k, np.arange(samples) * (t_orbit / samples)).zeta2
    coeffs = np.fft.rfft(zeta2) / samples
    m_t_hat = n * t_orbit
    drop_tol = 5e-14 * max(1.0, m_t_hat * profile.coefficient_norm())
    cos_out: dict[int, float] = {}
    sin_out: dict[int, float] = {}
    terms = [(j, a, 0.0) for j, a in profile.cos_terms]
    terms += [(j, 0.0, b) for j, b in profile.sin_terms]
    for j, a, b in terms:
        if j == 0 or j % n:
            continue
        c = coeffs[(j // n) * m]
        a_out = m_t_hat * (a * c.real - b * c.imag)
        b_out = m_t_hat * (a * c.imag + b * c.real)
        if abs(a_out) > drop_tol:
            cos_out[j] = cos_out.get(j, 0.0) + a_out
        if abs(b_out) > drop_tol:
            sin_out[j] = sin_out.get(j, 0.0) + b_out
    return cos_out, sin_out, m_t_hat, float(np.max(np.abs(zeta2)))


@pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=lambda f: f"{f.tag.value}{f.sign:+d}")
def test_resonant_projection_matches_the_sampled_oracle(fam: FamilyKind) -> None:
    rng = np.random.default_rng(17)
    odd_only = fam.tag is not FamilyTag.INSIDE_HOM
    for k in _oracle_moduli(fam):
        for m, n in RESONANCES:
            profile = TrigPolynomial(
                {j: float(rng.normal()) for j in range(1, 7)},
                {j: float(rng.normal()) for j in range(1, 7)},
            )
            omega_hat = 2.0 * math.pi * m / (n * period(fam, k))
            got = h_hat_subharmonic(profile, fam, k, m, n, omega_hat).values
            cos_ref, sin_ref, m_t_hat, zeta2_max = _sampled_projection(profile, fam, k, m, n)
            # The FFT's error is eps * max|zeta2| per coefficient, and max|zeta2|
            # grows without bound as k -> 1/sqrt(2) on the cn families.
            scale = max(1.0, m_t_hat * profile.coefficient_norm() * zeta2_max)
            for terms, ref in ((dict(got.cos_terms), cos_ref), (dict(got.sin_terms), sin_ref)):
                if zeta2_max <= 10.0:
                    assert set(terms) == set(ref), (k, m, n)
                else:  # the oracle also keeps harmonics of its noise floor
                    assert set(terms) <= set(ref), (k, m, n)
                for j in set(terms) | set(ref):
                    assert abs(terms.get(j, 0.0) - ref.get(j, 0.0)) <= 1e-14 * scale, (k, m, n, j)
                for j in range(1, 7):
                    # Selection rules: only multiples of n, and only odd orbit
                    # harmonics on the sn and cn families.
                    if j % n or (odd_only and (j // n) * m % 2 == 0):
                        assert terms.get(j, 0.0) == 0.0, (k, m, n, j)


def _per_term_subharmonic(profile: TrigPolynomial, fam: FamilyKind, k: float, m: int, n: int,
                          omega_hat: float) -> tuple[dict[int, float], dict[int, float]]:
    """The cosine and sine terms of ``h_hat_subharmonic`` summed one forcing
    term at a time, each contribution dropped at ``drop_tol`` on its own."""
    coeffs = _velocity_spectrum(fam, k, (profile.max_harmonic // n) * m + 1).tolist()
    m_t_hat = m * (2.0 * math.pi / omega_hat)
    drop_tol = 5e-14 * max(1.0, m_t_hat * profile.coefficient_norm())
    cos_out: dict[int, float] = {}
    sin_out: dict[int, float] = {}
    terms = [(j, a, 0.0) for j, a in profile.cos_terms]
    terms += [(j, 0.0, b) for j, b in profile.sin_terms]
    for j, a, b in terms:
        if j == 0 or j % n:
            continue
        x, y = coeffs[(j // n) * m].real, coeffs[(j // n) * m].imag
        a_out = m_t_hat * (a * x - b * y)
        b_out = m_t_hat * (a * y + b * x)
        if abs(a_out) > drop_tol:
            cos_out[j] = cos_out.get(j, 0.0) + a_out
        if abs(b_out) > drop_tol:
            sin_out[j] = sin_out.get(j, 0.0) + b_out
    return cos_out, sin_out


def _random_forcing(rng: np.random.Generator, harmonics: int) -> TrigPolynomial:
    j = np.arange(1, harmonics + 1)
    a = rng.normal(size=harmonics) / j
    b = rng.normal(size=harmonics) / j
    return TrigPolynomial(dict(zip(j.tolist(), a.tolist())), dict(zip(j.tolist(), b.tolist())))


@pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=lambda f: f"{f.tag.value}{f.sign:+d}")
def test_resonant_projection_is_the_per_term_formula(fam: FamilyKind) -> None:
    """The spectral product ``m*T_hat*(c_j*conj(c_q))`` equals the per-term
    sum within 1e-15 of its scale, and bit for bit for one cosine."""
    rng = np.random.default_rng(23)
    lo, hi = modulus_range(fam)
    odd_only = fam.tag is not FamilyTag.INSIDE_HOM
    for k in (lo + 0.2 * (hi - lo), lo + 0.7 * (hi - lo)):
        for m, n in ((1, 1), (3, 1), (3, 2), (5, 3)):
            omega_hat = 2.0 * math.pi * m / (n * period(fam, k))
            for harmonics in (1, 2, 3, 5, 8, 17, 33, 64):
                profile = _random_forcing(rng, harmonics)
                got = h_hat_subharmonic(profile, fam, k, m, n, omega_hat).values
                cos_ref, sin_ref = _per_term_subharmonic(profile, fam, k, m, n, omega_hat)
                scale = 1e-15 * max(1.0, m * 2.0 * math.pi / omega_hat * profile.coefficient_norm())
                for terms, ref in ((dict(got.cos_terms), cos_ref), (dict(got.sin_terms), sin_ref)):
                    for j in set(terms) | set(ref):
                        assert abs(terms.get(j, 0.0) - ref.get(j, 0.0)) <= scale, (k, m, n, j)
                for j in range(1, harmonics + 1):
                    if j % n or (odd_only and (j // n) * m % 2 == 0):
                        assert j > got.max_harmonic or got.spectrum[j] == 0.0, (k, m, n, j)
                amp = float(rng.normal())
                one = h_hat_subharmonic(cosine(amp, n), fam, k, m, n, omega_hat).values
                cos_ref, sin_ref = _per_term_subharmonic(cosine(amp, n), fam, k, m, n, omega_hat)
                assert one.cos_terms == tuple(cos_ref.items())
                assert one.sin_terms == tuple(sin_ref.items())


@pytest.mark.parametrize("tag", [FamilyTag.HET_PAIR, FamilyTag.HOM_PAIR])
@pytest.mark.parametrize("sign", [1, -1])
def test_separatrix_projection_is_the_per_term_formula_bitwise(tag: FamilyTag, sign: int) -> None:
    rng = np.random.default_rng(29)
    fam = FamilyKind(tag, sign)
    for omega_hat in (0.05, 0.8, 1.4, 3.7):
        for harmonics in (1, 2, 7, 64):
            profile = _random_forcing(rng, harmonics)
            got = h_hat(profile, fam, omega_hat).values
            cos_ref: dict[int, float] = {}
            sin_ref: dict[int, float] = {}
            for j, a in profile.cos_terms:
                if tag is FamilyTag.HET_PAIR:
                    cos_ref[j] = sign * fourier_weight_het(j * omega_hat) * a
                else:
                    sin_ref[j] = sign * fourier_weight_hom(j * omega_hat) * a
            for j, b in profile.sin_terms:
                if tag is FamilyTag.HET_PAIR:
                    sin_ref[j] = sign * fourier_weight_het(j * omega_hat) * b
                else:
                    cos_ref[j] = -sign * fourier_weight_hom(j * omega_hat) * b
            expected = TrigPolynomial(cos_ref, sin_ref)
            assert got.cos_terms == expected.cos_terms
            assert got.sin_terms == expected.sin_terms


@pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=lambda f: f"{f.tag.value}{f.sign:+d}")
def test_orbit_velocity_spectrum_has_exact_zeros(fam: FamilyKind) -> None:
    for k in _oracle_moduli(fam):
        coeffs = _velocity_spectrum(fam, k, 64)
        assert coeffs[0] == 0.0
        assert np.all(np.isfinite(coeffs))
        if fam.tag is not FamilyTag.INSIDE_HOM:
            assert not np.any(coeffs[2::2])
        # sn gives real coefficients, cn and dn imaginary ones.
        part = coeffs.imag if fam.tag is FamilyTag.INSIDE_HET else coeffs.real
        assert not np.any(part)


def test_separatrix_constants_match_quadrature() -> None:
    c1_het, c2_het = separatrix_constants(FamilyTag.HET_PAIR)
    q1, _ = quad(
        lambda t: evaluate(FamilyTag.HET_PAIR, None, t).zeta2 ** 2, -40, 40,
        limit=400, epsabs=1e-13,
    )
    q2, _ = quad(
        lambda t: evaluate(FamilyTag.HET_PAIR, None, t).zeta1 ** 2
        * evaluate(FamilyTag.HET_PAIR, None, t).zeta2 ** 2,
        -40, 40, limit=400, epsabs=1e-13,
    )
    assert c1_het == pytest.approx(q1, rel=1e-10)
    assert c2_het == pytest.approx(q2, rel=1e-10)

    c1_hom, c2_hom = separatrix_constants(FamilyTag.HOM_PAIR)
    q1, _ = quad(
        lambda t: evaluate(FamilyTag.HOM_PAIR, None, t).zeta2 ** 2, -40, 40,
        limit=400, epsabs=1e-13,
    )
    q2, _ = quad(
        lambda t: evaluate(FamilyTag.HOM_PAIR, None, t).zeta1 ** 2
        * evaluate(FamilyTag.HOM_PAIR, None, t).zeta2 ** 2,
        -40, 40, limit=400, epsabs=1e-13,
    )
    assert c1_hom == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert c2_hom == pytest.approx(16.0 / 15.0, rel=1e-14)
    assert c1_hom == pytest.approx(q1, rel=1e-10)
    assert c2_hom == pytest.approx(q2, rel=1e-10)


def test_separatrix_splitting_functions() -> None:
    omega_hat = 1.1
    prof = h_hat(cosine(0.8), FamilyTag.HET_PAIR, omega_hat)
    nu_hat, s2, delta = -0.4, 1, 1.5
    m_plus, m_minus = melnikov_separatrix(nu_hat, s2, delta, prof, FamilyTag.HET_PAIR)
    c1, c2 = separatrix_constants(FamilyTag.HET_PAIR)
    for phi in np.linspace(0.0, 2.0 * math.pi, 9):
        base = c1 * nu_hat + c2 * s2
        assert m_plus(float(phi)) == pytest.approx(
            base + delta * prof(float(phi)), rel=1e-12, abs=1e-12
        )
        assert m_minus(float(phi)) == pytest.approx(
            base - delta * prof(float(phi)), rel=1e-12, abs=1e-12
        )
    with pytest.raises(DomainError):
        melnikov_separatrix(nu_hat, 2, delta, prof, FamilyTag.HET_PAIR)
    with pytest.raises(DomainError):
        melnikov_separatrix(nu_hat, s2, delta, prof, FamilyTag.HOM_PAIR)


def test_subharmonic_bifurcation_function() -> None:
    omega_hat = 0.8
    tag = FamilyTag.INSIDE_HET
    k = resonant_modulus(tag, 1, 1, omega_hat)
    j = j_integrals(tag, k, 1)
    prof = h_hat_subharmonic(cosine(1.0), tag, k, 1, 1, omega_hat)
    t_hat = 2.0 * math.pi / omega_hat
    nu_hat, s2, delta = -0.3, 1, 2.0
    m_poly, l_value = melnikov_subharmonic(nu_hat, s2, delta, j, prof, 1, t_hat)
    assert l_value == pytest.approx(nu_hat * t_hat + s2 * j.j3, rel=1e-13)
    for phi in (0.0, 1.0, 4.5):
        assert m_poly(phi) == pytest.approx(
            nu_hat * j.j1 + s2 * j.j2 + delta * prof(phi), rel=1e-12
        )
    # Family / modulus cross-checks between profile and integrals.
    k_glob = resonant_modulus(FamilyTag.GLOBAL, 1, 1, 1.3)
    j_glob = j_integrals(FamilyTag.GLOBAL, k_glob, 1)
    with pytest.raises(DomainError):
        melnikov_subharmonic(nu_hat, s2, delta, j_glob, prof, 1, t_hat)


def test_profile_container_validation() -> None:
    with pytest.raises(DomainError):
        MelnikovProfile(values=cosine(1.0), hmax=-0.5, hmin=-1.0)
    with pytest.raises(DomainError):
        MelnikovProfile(values=TrigPolynomial({0: 0.3, 1: 1.0}, {}), hmax=1.3, hmin=-0.7)
    zero = MelnikovProfile.from_trig(TrigPolynomial({1: 0.0}, {2: -0.0}))
    assert zero.is_zero and zero.hmax == 0.0 and zero.hmin == 0.0
    assert zero.values == TrigPolynomial()


def _subharmonic_verdicts(prof: MelnikovProfile, j, m: int) -> tuple:
    """What ``melnikov_subharmonic`` and ``saddle_node_curves`` make of one
    profile with one set of orbit integrals: the result, or the error type."""
    verdicts = []
    for call in (
        lambda: melnikov_subharmonic(-0.3, -1, 2.0, j, prof, m, 2.0 * math.pi / 0.8)[1],
        lambda: [c.slope for c in saddle_node_curves(-1, 2.0, m, prof, j)],
    ):
        try:
            verdicts.append(call())
        except DomainError as exc:
            verdicts.append(type(exc))
    return tuple(verdicts)


def test_both_consumers_share_one_profile_orbit_check() -> None:
    """The inside-loop lobes have equal orbit integrals, so a profile of
    either lobe goes with the integrals of either; every other mismatch of
    family, modulus, n or m is refused by both consumers alike."""
    omega_hat, tag = 0.8, FamilyTag.INSIDE_HOM
    k = resonant_modulus(tag, 1, 1, omega_hat)
    left = FamilyKind(tag, -1)
    j_right, j_left = j_integrals(tag, k, 1), j_integrals(left, k, 1)
    assert (j_left.j1, j_left.j2, j_left.j3) == (j_right.j1, j_right.j2, j_right.j3)
    prof = h_hat_subharmonic(cosine(1.0), left, k, 1, 1, omega_hat)
    assert _subharmonic_verdicts(prof, j_right, 1) == _subharmonic_verdicts(prof, j_left, 1)
    assert DomainError not in _subharmonic_verdicts(prof, j_right, 1)

    j_other = j_integrals(tag, resonant_modulus(tag, 1, 1, 0.9), 1)
    j_two = j_integrals(tag, k, 2)
    j_global = j_integrals(FamilyTag.GLOBAL, resonant_modulus(FamilyTag.GLOBAL, 1, 1, 1.3), 1)
    bare_k = MelnikovProfile.from_trig(prof.values, k=float(k))
    for profile, j, m in (
        (prof, j_global, 1), (prof, j_other, 1), (bare_k, j_other, 1),
        (prof, j_two, 1), (prof, j_right, 3),
    ):
        assert _subharmonic_verdicts(profile, j, m) == (DomainError, DomainError)


def _window_edges(s2: int, j1: float, j2: float, profile: MelnikovProfile) -> np.ndarray:
    """Ends of the nu_hat interval on which ``nu_hat*j1 + s2*j2 + h(phi)``
    vanishes at some phi."""
    return -(s2 * j2 + np.array([profile.hmax, profile.hmin])) / j1


@pytest.mark.parametrize("tag, bound, s2, ms, max_z1_sq, level_gap", [
    # INSIDE_HET orbits sit below the saddle level H = 1/4 by
    # 1/4 - k**2/(1 + k**2)**2 = (1 - k**2)**2 / (4 (1 + k**2)**2).
    (FamilyTag.INSIDE_HET, FamilyTag.HET_PAIR, 1, (3, 5, 7, 9), 1.0,
     lambda kp2: kp2**2 / (4.0 * (2.0 - kp2) ** 2)),
    # INSIDE_HOM orbits sit below the saddle level H = 0 by (1 - k**2)/(2 - k**2)**2.
    (FamilyTag.INSIDE_HOM, FamilyTag.HOM_PAIR, -1, (1, 2, 3), 2.0,
     lambda kp2: kp2 / (1.0 + kp2) ** 2),
], ids=["inside-het", "inside-hom"])
def test_subharmonic_windows_approach_the_separatrix_window(
    tag, bound, s2, ms, max_z1_sq, level_gap
) -> None:
    """As m grows, the m:1 orbits at omega_hat 1.4 approach the bounding
    separatrix, and their saddle-node window in nu_hat tends to its
    splitting window: two results of separate code (orbit integrals and
    resonant projections against separatrix constants and weights).

    To first order in the level gap dH to the separatrix, an edge ``e =
    -(s2*J2 + h)/J1`` moves by at most ``(|dJ2| + |e|*|dJ1|)/J1``, with
    ``|dJ1| = T*dH`` (``dJ1/dH`` is the period T, J1 being 2*pi times the
    action) and ``|dJ2| <= max(z1**2)*T*dH`` (``dJ2/dH`` is the period
    integral of ``z1**2``); the projection h carries no period factor.  The
    gap stays below that estimate at every m, and shrinks as m grows."""
    forcing = cosine(1.0)
    c1, c2 = separatrix_constants(bound)
    limit = _window_edges(s2, c1, c2, h_hat(forcing, bound, 1.4))
    gaps = []
    for m in ms:
        k = resonant_modulus(tag, m, 1, 1.4)
        j = j_integrals(tag, k, 1)
        edges = _window_edges(s2, j.j1, j.j2, h_hat_subharmonic(forcing, tag, k, m, 1, 1.4))
        gaps.append(float(np.max(np.abs(edges - limit))))
        slope = (max_z1_sq + np.max(np.abs(limit))) / j.j1
        dh = level_gap((1.0 - k.k) * (1.0 + k.k))
        assert gaps[-1] < slope * period(tag, k) * dh, (m, gaps[-1])
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
