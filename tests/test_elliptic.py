"""Elliptic integrals and Jacobi functions against independent oracles."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipj

from doublezero.elliptic import (
    EllipticModulus,
    complete_E,
    complete_K,
    complete_K_complement,
    jacobi_sn_cn_dn,
)
from doublezero.errors import DomainError

K_GRID = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]


def oracle_K(k: float) -> float:
    value, _ = quad(
        lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
        0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13,
    )
    return value


def oracle_E(k: float) -> float:
    value, _ = quad(
        lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
        0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13,
    )
    return value


def test_complete_integrals_match_quadrature() -> None:
    for k in K_GRID:
        assert complete_K(k) == pytest.approx(oracle_K(k), abs=1e-10)
        assert complete_E(k) == pytest.approx(oracle_E(k), abs=1e-10)


def test_complementary_integral_matches_quadrature_and_small_k_limit() -> None:
    for k in K_GRID:
        kprime = math.sqrt(1.0 - k * k)
        assert complete_K_complement(k) == pytest.approx(oracle_K(kprime), abs=1e-10)
    # K(k') = ln(4/k) + O(k^2 ln k) as k -> 0, where forming k' would lose it.
    for k in (1e-6, 1e-9, 1e-150):
        assert complete_K_complement(k) == pytest.approx(math.log(4.0 / k), rel=1e-12)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(DomainError):
            complete_K_complement(bad)


def test_jacobi_functions_match_reference_implementation() -> None:
    for k in K_GRID:
        big_k = complete_K(k)
        for u in np.linspace(-2.5 * big_k, 2.5 * big_k, 17):
            sn, cn, dn = jacobi_sn_cn_dn(float(u), k)
            sn_ref, cn_ref, dn_ref, _ = ellipj(float(u), k * k)
            assert sn == pytest.approx(float(sn_ref), abs=1e-10)
            assert cn == pytest.approx(float(cn_ref), abs=1e-10)
            assert dn == pytest.approx(float(dn_ref), abs=1e-10)


def test_array_arguments_match_scalar_arguments() -> None:
    for k in [0.0] + K_GRID + [1.0 - 1e-6, 1.0 - 1e-11]:
        u = np.linspace(-9.0 * complete_K(k), 9.0 * complete_K(k), 72).reshape(9, 8)
        arrays = jacobi_sn_cn_dn(u, k)
        for got in arrays:
            assert got.shape == u.shape
        for i, x in enumerate(u.ravel()):
            assert tuple(a.ravel()[i] for a in arrays) == jacobi_sn_cn_dn(float(x), k)


def test_jacobi_identities_hold() -> None:
    for k in K_GRID:
        for u in (-3.7, -1.0, 0.0, 0.3, 1.9, 4.2):
            sn, cn, dn = jacobi_sn_cn_dn(u, k)
            assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)
            assert dn * dn + (k * sn) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_jacobi_quarter_period_values() -> None:
    for k in K_GRID:
        big_k = complete_K(k)
        sn, cn, dn = jacobi_sn_cn_dn(big_k, k)
        assert sn == pytest.approx(1.0, abs=1e-11)
        assert cn == pytest.approx(0.0, abs=1e-11)
        assert dn == pytest.approx(math.sqrt(1.0 - k * k), abs=1e-11)


def test_legendre_relation() -> None:
    for k in K_GRID:
        kp = math.sqrt(1.0 - k * k)
        total = (
            complete_E(k) * complete_K(kp)
            + complete_E(kp) * complete_K(k)
            - complete_K(k) * complete_K(kp)
        )
        assert total == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_limits_at_zero_modulus() -> None:
    assert complete_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert complete_E(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    sn, cn, dn = jacobi_sn_cn_dn(0.7, 0.0)
    assert sn == pytest.approx(math.sin(0.7), abs=1e-13)
    assert cn == pytest.approx(math.cos(0.7), abs=1e-13)
    assert dn == pytest.approx(1.0, abs=1e-13)


def test_modulus_validation() -> None:
    with pytest.raises(DomainError):
        EllipticModulus(1.0)
    with pytest.raises(DomainError):
        EllipticModulus(-0.1)
    with pytest.raises(DomainError):
        complete_K(1.2)


def test_evaluation_speed() -> None:
    start = time.perf_counter()
    for k in K_GRID:
        complete_K(k)
        complete_E(k)
        for u in np.linspace(-5.0, 5.0, 50):
            jacobi_sn_cn_dn(float(u), k)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"elliptic battery took {elapsed:.3f}s"
