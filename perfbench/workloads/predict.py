"""``predict``: a stream of analytic bifurcation queries.

Each query picks an orbit family (all six), a resonance ``m <= 5`` with
coprime ``n <= 3`` and a forcing frequency at which that resonance exists,
plus a random mean-zero forcing profile of 1 to 64 harmonics (log-uniform),
a cubic sign ``s2`` and a forcing ratio ``delta``.  Periodic families run
``resonant_modulus -> j_integrals -> h_hat_subharmonic -> saddle_node_curves
-> classify_stability -> melnikov_subharmonic``; separatrix families run
``h_hat -> heteroclinic/homoclinic_curves -> melnikov_separatrix``.  Every
query then samples its Melnikov function on a phase grid, at a ``nu_hat``
placed inside or outside the window the emitted curves predict.  One query
in four also runs the servo-pendulum gain-plane path, and about one in
sixteen is invalid on purpose and must raise the documented error.

About half of the queries reuse the orbit key ``(family, m, n, omega_hat)``
of an earlier query of the same family with new forcing, ``delta`` and
``s2``, so a cache keyed on the orbit would be exercised; the measured
share is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ellipk

from doublezero import (
    DegenerateL,
    DomainError,
    DoubleZeroError,
    FamilyKind,
    FamilyTag,
    NoResonance,
    PendulumParams,
    ResonanceViolation,
    Stability,
    Theta0,
    TrigPolynomial,
    calibrated_params,
    classify_stability,
    example_theta_pi,
    example_theta_zero,
    h_hat,
    h_hat_subharmonic,
    heteroclinic_curves,
    homoclinic_curves,
    j_integrals,
    melnikov_separatrix,
    melnikov_subharmonic,
    prediction_curves,
    reduce_pendulum,
    resonant_modulus,
    saddle_node_curves,
    separatrix_constants,
)
from doublezero.pendulum import FAMILY_THETA0

from perfbench.workloads import Workload

FAMILIES = tuple(FamilyTag)
SEPARATRIX = (FamilyTag.HET_PAIR, FamilyTag.HOM_PAIR)
PAIRS = tuple((m, n) for m in range(1, 6) for n in range(1, 4) if math.gcd(m, n) == 1)
MAX_HARMONICS = 64
REUSE_SHARE = 0.5
#: Earlier queries examined for one of the same family when reusing a key.
REUSE_TRIES = 32
PENDULUM_SHARE = 0.25
INVALID_SHARE = 1.0 / 16.0

#: Phase grid on which every query samples its Melnikov function.
GRID = 1024
GRID_PHI = np.linspace(0.0, 2.0 * math.pi, GRID, endpoint=False)

#: ``nu_hat`` at least this share of the window's width from either end.
EDGE_MARGIN = 0.05

_SQRT2 = math.sqrt(2.0)

#: Open modulus interval of each periodic family.
_K_RANGE = {
    FamilyTag.INSIDE_HET: (0.0, 1.0),
    FamilyTag.GLOBAL: (0.0, 1.0 / _SQRT2),
    FamilyTag.INSIDE_HOM: (0.0, 1.0),
    FamilyTag.OUTSIDE_HOM: (1.0 / _SQRT2, 1.0),
}

#: Infimum of the period over the family, for families whose periods are bounded below.
_PERIOD_INF = {FamilyTag.INSIDE_HET: 2.0 * math.pi, FamilyTag.INSIDE_HOM: math.pi * _SQRT2}

#: Families whose pendulum projection vanishes for even ``m``.
_ODD_M_ONLY = (FamilyTag.INSIDE_HET, FamilyTag.GLOBAL, FamilyTag.OUTSIDE_HOM)

#: Double-zero gains ``(alpha0, gamma0) = (-(sigma + delta1)/delta0, -sigma*alpha0)``
#: of the two study cases.
_DOUBLE_ZERO = {Theta0.ZERO: (1.0, -1.0), Theta0.PI: (1.0, 1.0)}
_EXAMPLES = {Theta0.ZERO: example_theta_zero, Theta0.PI: example_theta_pi}

#: Half-plane of ``nu1`` on which each family's curves live.
_PLANE = {
    FamilyTag.HET_PAIR: -1, FamilyTag.INSIDE_HET: -1, FamilyTag.GLOBAL: -1,
    FamilyTag.HOM_PAIR: 1, FamilyTag.INSIDE_HOM: 1, FamilyTag.OUTSIDE_HOM: 1,
}


def period_of(tag: FamilyTag, k: float) -> float:
    """Closed-form period of a periodic family, computed with SciPy's ``ellipk``."""
    big_k = float(ellipk(k * k))
    if tag is FamilyTag.INSIDE_HET:
        return 4.0 * big_k * math.sqrt(k * k + 1.0)
    if tag is FamilyTag.GLOBAL:
        return 4.0 * big_k * math.sqrt(1.0 - 2.0 * k * k)
    if tag is FamilyTag.INSIDE_HOM:
        return 2.0 * big_k * math.sqrt(2.0 - k * k)
    return 4.0 * big_k * math.sqrt(2.0 * k * k - 1.0)


@dataclass(frozen=True)
class OrbitKey:
    family: FamilyKind
    m: int
    n: int
    omega_hat: float
    #: Resonant modulus the generator aimed at (``None`` for separatrices).
    k: float | None


@dataclass(frozen=True)
class PendulumQuery:
    params: PendulumParams
    m: int
    omega_hat: float


@dataclass(frozen=True)
class Query:
    index: int
    key: OrbitKey
    repeat: bool
    profile: TrigPolynomial
    s2: int
    delta: float
    #: Place of ``nu_hat`` in the predicted window: 0 and 1 are its ends.
    position: float
    #: Separatrix families: 0 samples ``M_plus``, 1 samples ``M_minus``.
    branch: int
    pendulum: PendulumQuery | None
    expect_error: type | None


@dataclass
class Output:
    profile: object
    curves: list
    window: tuple[float, float]
    nu_hat: float
    values: np.ndarray
    k: float | None = None
    j: object = None
    ell: float | None = None
    verdict: object = None
    pendulum: tuple | None = None


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _fresh_key(rng: np.random.Generator, tag: FamilyTag) -> OrbitKey:
    sign = int(rng.choice((-1, 1))) if tag is FamilyTag.INSIDE_HOM else 1
    m, n = PAIRS[int(rng.integers(len(PAIRS)))]
    if tag in SEPARATRIX:
        return OrbitKey(FamilyKind(tag, sign), m, n, float(rng.uniform(0.4, 2.5)), None)
    lo, hi = _K_RANGE[tag]
    k = lo + (hi - lo) * float(rng.uniform(0.1, 0.9))
    omega_hat = 2.0 * math.pi * m / (n * period_of(tag, k))
    return OrbitKey(FamilyKind(tag, sign), m, n, omega_hat, k)


def _family(seed: int, index: int) -> FamilyTag:
    return FAMILIES[int(_rng(seed, index, 0).integers(len(FAMILIES)))]


def orbit_key(seed: int, index: int) -> tuple[OrbitKey, bool]:
    """Orbit key of query ``index`` and whether it repeats an earlier query's key.

    The family is drawn independently for every query, so a run's family mix
    stays near uniform; about half of the queries then take the key of an
    earlier query of the same family.  (Reusing any earlier key instead
    would let the first few families drawn dominate a whole run.)
    """
    i = index
    while True:
        rng = _rng(seed, i, 0)
        tag = FAMILIES[int(rng.integers(len(FAMILIES)))]
        if i > 0 and rng.uniform() < REUSE_SHARE:
            earlier = rng.integers(i, size=REUSE_TRIES).tolist()
            same = next((j for j in earlier if _family(seed, j) is tag), None)
            if same is not None:
                i = same
                continue
        return _fresh_key(rng, tag), i != index


def _profile(rng: np.random.Generator) -> TrigPolynomial:
    """Mean-zero profile with a log-uniform harmonic count in ``[1, MAX_HARMONICS]``."""
    count = min(MAX_HARMONICS, int(math.exp(rng.uniform(0.0, math.log(MAX_HARMONICS + 1)))))
    j = np.arange(1, count + 1)
    a = rng.normal(size=count) / j
    b = rng.normal(size=count) / j
    return TrigPolynomial(dict(zip(j.tolist(), a.tolist())), dict(zip(j.tolist(), b.tolist())))


def _pendulum_query(rng: np.random.Generator, key: OrbitKey) -> PendulumQuery:
    tag = key.family.tag
    theta0 = FAMILY_THETA0[tag]
    alpha0, gamma0 = _DOUBLE_ZERO[theta0]
    sigma = theta0.sigma
    while True:
        da, dg = rng.uniform(-0.3, 0.3, size=2)
        # Keep clear of the pitchfork line, where no rescaling exists.
        if abs(sigma * da + dg) > 0.05:
            break
    params = _EXAMPLES[theta0](alpha0 + float(da), gamma0 + float(dg))
    m = key.m - 1 if tag in _ODD_M_ONLY and key.m % 2 == 0 else key.m
    if tag in SEPARATRIX:
        omega_hat = key.omega_hat
    else:
        omega_hat = 2.0 * math.pi * m / period_of(tag, key.k)
    return PendulumQuery(params, m, omega_hat)


def make_query(seed: int, index: int) -> Query:
    """Query ``index`` of the stream for ``seed`` (a pure function of both)."""
    key, repeat = orbit_key(seed, index)
    rng = _rng(seed, index, 1)
    profile = _profile(rng)
    s2 = int(rng.choice((-1, 1)))
    delta = float(rng.uniform(0.2, 2.0))
    if rng.uniform() < 0.5:
        position = float(rng.uniform(0.15, 0.85))
    elif rng.uniform() < 0.5:
        position = float(rng.uniform(-1.0, -0.1))
    else:
        position = float(rng.uniform(1.1, 2.0))
    branch = int(rng.integers(2))
    pendulum = _pendulum_query(rng, key) if rng.uniform() < PENDULUM_SHARE else None
    expect_error = None
    if rng.uniform() < INVALID_SHARE:
        tag = key.family.tag
        pendulum = None
        if tag in SEPARATRIX:
            profile = profile + TrigPolynomial({0: 0.5})
            expect_error = DomainError
        elif tag in _PERIOD_INF and rng.uniform() < 0.5:
            too_short = 0.5 * _PERIOD_INF[tag]
            key = replace(key, omega_hat=2.0 * math.pi * key.m / (key.n * too_short), k=None)
            expect_error = NoResonance
        else:
            key = replace(key, m=2 * key.m, n=2 * key.n, k=None)
            expect_error = ResonanceViolation
    return Query(index, key, repeat, profile, s2, delta, position, branch, pendulum,
                 expect_error)


def _window(curves, first: int) -> tuple[float, float]:
    a, b = curves[first], curves[first + 1]
    nus = sorted((a.nu1_sign * a.slope, b.nu1_sign * b.slope))
    return nus[0], nus[1]


def _place(window: tuple[float, float], position: float) -> float:
    lo, hi = window
    center = 0.5 * (lo + hi)
    # A zero-width window (vanishing projection) still gets a nonzero offset.
    span = max(hi - lo, 1e-6 * (1.0 + abs(center)))
    return center + (position - 0.5) * span


def sign_changes(values: np.ndarray) -> int:
    """Number of sign changes of a periodic sample sequence."""
    s = np.sign(values)
    return int(np.count_nonzero(s != np.roll(s, 1)))


def expected_slopes(tag: FamilyTag, s2: int, delta: float, profile, j) -> list[float]:
    """``nu_hat`` of each emitted curve, in emission order, from the splitting formulas."""
    hmax, hmin = profile.hmax, profile.hmin
    if tag in SEPARATRIX:
        c1, c2 = separatrix_constants(tag)
        return [-(s2 * c2 + sigma * delta * v) / c1
                for sigma in (1.0, -1.0) for v in (hmax, hmin)]
    pairs = [(hmax, hmin)]
    if tag is FamilyTag.INSIDE_HOM:
        pairs.append((-hmin, -hmax))
    return [-(s2 * j.j2 + delta * v) / j.j1 for pair in pairs for v in pair]


def _close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class Predict(Workload):
    name = "predict"
    traced_ops = 600
    trace_block = 20

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # Warm-up on a separate stream, so the timed queries start from a
        # process whose code paths have all run once.
        for i in range(12):
            q = make_query(self.seed + 7919, i)
            self.check(q, self.execute(q))

    def make_input(self, index: int) -> Query:
        q = make_query(self.seed, index)
        self.tr.count("predict.queries")
        self.tr.count("predict.repeats", q.repeat)
        return q

    def execute(self, q: Query):
        tr = self.tr
        tr.count("fourier.harmonics", q.profile.max_harmonic)
        if q.expect_error is None:
            return self._run(q)
        try:
            self._run(q)
        except DoubleZeroError as exc:
            if isinstance(exc, NoResonance):
                tr.count("orbits.no_resonance")
            return exc
        return None

    def _run(self, q: Query) -> Output:
        tr = self.tr
        key = q.key
        fam = key.family
        if fam.tag in SEPARATRIX:
            with tr.span("melnikov.h_hat"):
                prof = h_hat(q.profile, fam, key.omega_hat)
            emit = heteroclinic_curves if fam.tag is FamilyTag.HET_PAIR else homoclinic_curves
            with tr.span("bifurcation.curves"):
                curves = emit(q.s2, q.delta, prof)
            window = _window(curves, 2 * q.branch)
            nu_hat = _place(window, q.position)
            with tr.span("melnikov.splitting"):
                pair = melnikov_separatrix(nu_hat, q.s2, q.delta, prof, fam)
            out = Output(prof, curves, window, nu_hat, None)
            poly = pair[q.branch]
        else:
            t_hat = 2.0 * math.pi / key.omega_hat
            with tr.span("orbits.resonant_modulus"):
                k = resonant_modulus(fam, key.m, key.n, key.omega_hat)
            with tr.span("melnikov.j_integrals"):
                j = j_integrals(fam, k, key.n)
            with tr.span("melnikov.h_hat_subharmonic"):
                prof = h_hat_subharmonic(q.profile, fam, k, key.m, key.n, key.omega_hat)
            with tr.span("bifurcation.curves"):
                curves = saddle_node_curves(q.s2, q.delta, key.m, prof, j)
            window = _window(curves, 0)
            nu_hat = _place(window, q.position)
            verdict = None
            try:
                with tr.span("bifurcation.classify_stability"):
                    verdict = classify_stability(q.s2, j, key.m, t_hat, nu_hat)
            except DegenerateL:
                tr.count("bifurcation.degenerate_l")
            with tr.span("melnikov.splitting"):
                poly, ell = melnikov_subharmonic(nu_hat, q.s2, q.delta, j, prof, key.m, t_hat)
            out = Output(prof, curves, window, nu_hat, None, k=k.k, j=j, ell=ell,
                         verdict=verdict)
        with tr.span("fourier.eval"):
            out.values = poly(GRID_PHI)
        tr.count("fourier.eval.points", GRID)
        if q.pendulum is not None:
            pq = q.pendulum
            with tr.span("pendulum.reduce"):
                p, _ = calibrated_params(pq.params, pq.omega_hat)
                _, sp = reduce_pendulum(p)
            with tr.span("pendulum.prediction_curves"):
                plane_curves = prediction_curves(p, fam.tag, pq.m, pq.omega_hat, q.delta)
            out.pendulum = (p, sp, plane_curves)
        return out

    # -- checks -----------------------------------------------------------
    def check(self, q: Query, out) -> bool:
        if q.expect_error is not None:
            return isinstance(out, q.expect_error)
        if not isinstance(out, Output):
            return False
        tag = q.key.family.tag
        return (
            self._check_profile(out.profile)
            and self._check_curves(q, out)
            and self._check_zeros(out)
            and (tag in SEPARATRIX or self._check_periodic(q, out))
            and (q.pendulum is None or self._check_pendulum(q, out.pendulum))
        )

    @staticmethod
    def _check_profile(prof) -> bool:
        """Certified extrema bracket the sampled profile to within the grid's reach."""
        if prof.is_zero:
            return prof.hmax == 0.0 == prof.hmin
        if not prof.hmax > 0.0 > prof.hmin:
            return False
        poly = prof.values
        vals = poly(GRID_PHI)
        terms = poly.cos_terms + poly.sin_terms
        scale = sum(abs(c) for _, c in terms)
        # Sampling misses an extremum by at most h**2/8 * max|f''|.
        step = 2.0 * math.pi / GRID
        slack = step * step / 8.0 * sum(j * j * abs(c) for j, c in terms) + 1e-12 * scale
        top, bottom = float(vals.max()), float(vals.min())
        return (top - slack <= prof.hmax <= top + slack + 1e-12 * scale
                and bottom - slack - 1e-12 * scale <= prof.hmin <= bottom + slack)

    @staticmethod
    def _check_curves(q: Query, out: Output) -> bool:
        tag = q.key.family.tag
        expected = expected_slopes(tag, q.s2, q.delta, out.profile, out.j)
        if len(out.curves) != len(expected):
            return False
        plane = _PLANE[tag]
        return all(
            c.nu1_sign == plane and _close(plane * c.slope, nu)
            for c, nu in zip(out.curves, expected)
        )

    @staticmethod
    def _check_zeros(out: Output) -> bool:
        """Simple zeros strictly inside the window, none outside it."""
        lo, hi = out.window
        margin = EDGE_MARGIN * (hi - lo)
        changes = sign_changes(out.values)
        if hi > lo and lo + margin < out.nu_hat < hi - margin:
            return changes >= 2 and changes % 2 == 0
        if out.nu_hat < lo - margin or out.nu_hat > hi + margin or hi == lo:
            return changes == 0
        return True

    @staticmethod
    def _check_periodic(q: Query, out: Output) -> bool:
        key = q.key
        if abs(out.k - key.k) > 1e-8 or not out.j.j1 > 0.0:
            return False
        t_hat = 2.0 * math.pi / key.omega_hat
        ell = key.m * out.nu_hat * t_hat + q.s2 * out.j.j3
        if not _close(out.ell, ell, 1e-12):
            return False
        if out.verdict is None:
            return abs(ell) < 1e-10
        return (out.verdict.sink_or_source is Stability.SINK) == (ell < 0.0)

    @staticmethod
    def _check_pendulum(q: Query, result) -> bool:
        """Calibration hits its targets and every gain-plane ray maps onto its line."""
        p, sp, curves = result
        tag = q.key.family.tag
        pq = q.pendulum
        if not (_close(sp.omega_hat, pq.omega_hat) and _close(sp.delta_big, 1.0)):
            return False
        if len(curves) != (2 if tag in (FamilyTag.INSIDE_HET, FamilyTag.GLOBAL,
                                        FamilyTag.OUTSIDE_HOM) else 4):
            return False
        alpha0, gamma0 = _DOUBLE_ZERO[p.theta0]
        for c in curves:
            (a_first, g_first), (a_last, g_last) = c.points[0], c.points[-1]
            if not (_close(a_first, alpha0, 1e-12) and _close(g_first, gamma0, 1e-12)):
                return False
            nf, _ = reduce_pendulum(replace(p, alpha=a_last, gamma=g_last, eps=1e-4))
            if int(math.copysign(1, nf.nu1)) != c.nu1_sign:
                return False
            if not _close(nf.nu2 / nf.nu1, c.slope, 1e-7):
                return False
        return True
