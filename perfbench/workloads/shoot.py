"""``shoot``: the orbit census of the hanging servo-pendulum.

Set-up takes the twenty gain points of the hanging study case in
``shoot_pool.json``, on the line ``gamma = 0.05 - alpha`` through
``(1.25, -1.2)``: eleven where the first-order analysis predicts a resonant
ring sink (``alpha`` in [1.242, 1.247]) and nine where it predicts a ring
source (``alpha`` in [1.21, 1.226]), in a fixed order alternating between
the two sides.  Each is calibrated, reduced and predicted
(``calibrated_params -> reduce_pendulum -> resonant_modulus -> j_integrals
-> h_hat_subharmonic -> melnikov_subharmonic -> classify_stability``), and
the zeros of the predicted Melnikov function place seven Newton seeds: the
origin, three points on the resonant orbit just past the zero where ``M``
rises (the ring node) and three just past the zero where it falls (the ring
saddle).  The lags are the first, middle and last of the role's lags in
the table of lags from which damped shooting converges (see
``shoot_pool.py``); the seed orders each census.  The seed does not choose
which solves are made: solve costs are lumpy (a few seeds cost three to
five times the median), and a run covers only the first censuses, so with
seeded lags the tail latency of five runs ranged from 142 to 243 ms.

Damped shooting does not converge from every census seed: in the census of
the study point ``(1.25, -1.2)`` itself four of nineteen seeds end in
``NewtonDivergence`` and take most of its time.  After every second gain
point the cycle therefore adds the cheapest of those four seeds (the
resonant-orbit point at 7/12 of the orbit period), so one solve in fifteen
diverges.  As in ``experiment_harmonic_count``, a divergence is an outcome
of the census, counted and not failed; the census of each gain point must
still contain the predicted orbits.

One operation is one Newton solve (``find_subharmonic``) from one seed.
The timed loop cycles through the 150 prepared solves in whole blocks of
two censuses and a divergent probe (``loop_block``), so every run holds
whole blocks; the analytic layers only produce the seeds.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from doublezero import (
    FamilyTag,
    OrbitClass,
    Stability,
    calibrated_params,
    classify_stability,
    evaluate,
    example_theta_zero,
    NewtonDivergence,
    StepFailure,
    find_subharmonic,
    h_hat_subharmonic,
    integrate,
    j_integrals,
    liouville_defect,
    melnikov_subharmonic,
    period,
    reduce_pendulum,
    resonant_modulus,
    scaled_flow_from,
)
from doublezero.dynamics import UNIT_CIRCLE_TOL

from perfbench.workloads import Workload

TAG = FamilyTag.INSIDE_HET
OMEGA_HAT = 0.8
#: Validated census seeds: per side, gain point, and role, the usable lags.
POOL = Path(__file__).with_name("shoot_pool.json")
#: Orbits with a strobe state at least this far from the origin belong to the ring.
RING_RADIUS = 0.3
TOL = 1e-10
RETURN_TOL = 1e-8
LIOUVILLE_TOL = 1e-6
PHASE_GRID = 2048

#: Seeds per predicted ring orbit (node and saddle) of one gain point.
LAGS_PER_ROLE = 3

#: The study point; one seed of its census diverges in about 175,000
#: right-hand-side evaluations (the other three divergent ones take five to
#: eight times as many, longer than a whole run).
STUDY_ALPHA = 1.25
#: That seed: grid point 7 of the census's 12 along the resonant orbit.
PROBE_GRID = (12, 7)
#: One divergent probe follows every this many gain-point censuses.
PROBE_EVERY = 2


def spread_lags(lags) -> list[float]:
    """``LAGS_PER_ROLE`` of a role's usable lags, spread from its first to its last."""
    lags = sorted(lags)
    picks = np.linspace(0, len(lags) - 1, LAGS_PER_ROLE).round().astype(int)
    return [float(lags[i]) for i in picks]


class Diverged:
    """Outcome of a census seed from which damped shooting did not converge."""

    def __init__(self, reason: str) -> None:
        self.reason = reason


def counted_solve(tr, flow, guess, **kwargs):
    """``find_subharmonic`` in a span, counting convergences and divergences."""
    try:
        with tr.span("dynamics.find_subharmonic"):
            res = find_subharmonic(flow, 1, guess, **kwargs)
    except (NewtonDivergence, StepFailure):
        tr.count("dynamics.find_subharmonic.divergences")
        raise
    tr.count("dynamics.find_subharmonic.converged")
    return res


class GainPoint:
    """One calibrated gain point with its first-order prediction and flow."""

    def __init__(self, alpha: float, tracer) -> None:
        with tracer.span("pendulum.reduce"):
            p, _ = calibrated_params(example_theta_zero(alpha, 0.05 - alpha), OMEGA_HAT)
            nf, sp = reduce_pendulum(p)
        t_hat = 2.0 * math.pi / sp.omega_hat
        with tracer.span("orbits.resonant_modulus"):
            self.k = resonant_modulus(TAG, 1, 1, sp.omega_hat)
        with tracer.span("melnikov.j_integrals"):
            j = j_integrals(TAG, self.k, 1)
        with tracer.span("melnikov.h_hat_subharmonic"):
            prof = h_hat_subharmonic(nf.h, TAG, self.k, 1, 1, sp.omega_hat)
        with tracer.span("melnikov.splitting"):
            poly, _ = melnikov_subharmonic(sp.nu_hat, nf.s2, sp.delta_big, j, prof, 1, t_hat)
        with tracer.span("bifurcation.classify_stability"):
            verdict = classify_stability(nf.s2, j, 1, t_hat, sp.nu_hat)
        self.node_class = (OrbitClass.SINK if verdict.sink_or_source is Stability.SINK
                           else OrbitClass.SOURCE)
        rising, falling = _zero_phases(poly)
        self.zero_phase = {"node": rising, "saddle": falling}
        self.t_orbit = t_hat  # n * T(k) = m * T_hat with m = n = 1
        self.flow = scaled_flow_from(sp, nf.s1, nf.s2, nf.h)

    def seed(self, role: str, lag: float) -> np.ndarray:
        """The origin, or the resonant-orbit point ``lag`` periods past a predicted zero."""
        if role == "central":
            return np.zeros(2)
        share = self.zero_phase[role] / (2.0 * math.pi) + lag
        return self._orbit_point(share * self.t_orbit)

    def grid_seed(self, points: int, i: int) -> np.ndarray:
        """Resonant-orbit point ``i`` of ``points`` evenly spaced in time, as the census places them."""
        return self._orbit_point(float(np.linspace(0.0, period(TAG, self.k), points,
                                                   endpoint=False)[i]))

    def _orbit_point(self, t: float) -> np.ndarray:
        pt = evaluate(TAG, self.k, t)
        return np.array([pt.zeta1, pt.zeta2])


def _zero_phases(poly) -> tuple[float, float]:
    """Phases of the rising and the falling zero of a two-zero Melnikov function."""
    phi = np.linspace(0.0, 2.0 * math.pi, PHASE_GRID, endpoint=False)
    vals = poly(phi)
    nxt = np.roll(vals, -1)
    idx = np.nonzero(np.sign(vals) != np.sign(nxt))[0]
    if len(idx) != 2:
        raise RuntimeError(f"expected two simple zeros, found {len(idx)}")
    step = 2.0 * math.pi / PHASE_GRID
    rising = falling = None
    for i in idx:
        a, b = vals[i], nxt[i]
        zero = float(phi[i] + step * a / (a - b))
        if b > a:
            rising = zero
        else:
            falling = zero
    return rising, falling


def classify(multipliers) -> OrbitClass:
    """Floquet class from multiplier moduli (independent of the package's rule)."""
    mags = [abs(lam) for lam in multipliers]
    out = any(m > 1.0 + UNIT_CIRCLE_TOL for m in mags)
    inside = any(m < 1.0 - UNIT_CIRCLE_TOL for m in mags)
    if out and inside:
        return OrbitClass.SADDLE
    if out:
        return OrbitClass.SOURCE
    if inside:
        return OrbitClass.SINK
    return OrbitClass.CENTER_LIKE


class Shoot(Workload):
    name = "shoot"
    #: Two gain-point censuses and a divergent probe.
    trace_block = loop_block = 7 * PROBE_EVERY + 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([self.seed, 2])
        pool = json.loads(POOL.read_text())
        # A fixed order, spread over both gain ranges from the first censuses on.
        order = np.random.default_rng(0)
        sides = [[(side, a) for a in order.permutation(sorted(pool[side]))]
                 for side in ("sink", "source")]
        study = GainPoint(STUDY_ALPHA, self.tr)
        self.points = [study]
        #: Per operation slot: gain point, seed state, and whether it closes the census.
        self.ops = []
        for pair in itertools.zip_longest(*sides):
            for side, alpha in filter(None, pair):
                g = len(self.points)
                point = GainPoint(float(alpha), self.tr)
                self.points.append(point)
                census = [point.seed("central", 0.0)]
                for role in ("node", "saddle"):
                    for lag in spread_lags(pool[side][alpha][role]):
                        census.append(point.seed(role, lag))
                census = [census[i] for i in rng.permutation(len(census))]
                self.ops += [(g, state, i == len(census) - 1) for i, state in enumerate(census)]
                if g % PROBE_EVERY == 0:
                    self.ops.append((0, study.grid_seed(*PROBE_GRID), False))
        self.traced_ops = len(self.ops) // 2
        # Warm-up: one short integration loads the integrator's code paths.
        flow = self.points[1].flow
        integrate(flow, np.zeros(2), 0.0, 0.1 * flow.period)
        #: Latest checked result per operation slot (``None`` if it failed).
        self._results: dict[int, object] = {}

    def make_input(self, index: int) -> tuple[int, int]:
        """Operation slot and gain point."""
        slot = index % len(self.ops)
        return slot, self.ops[slot][0]

    def execute(self, inp):
        slot, g = inp
        state = self.ops[slot][1]
        flow = self.tr.wrap_flow(self.points[g].flow)
        try:
            return counted_solve(self.tr, flow, state, tol=TOL)
        except (NewtonDivergence, StepFailure) as exc:
            return Diverged(str(exc))

    def check(self, inp, res) -> bool:
        slot, g = inp
        point = self.points[g]
        ok = isinstance(res, Diverged) or self.check_orbit(point, res)
        self._results[slot] = res if ok else None
        if ok and self.ops[slot][2]:
            group = [s for s, (h, _, _) in enumerate(self.ops) if h == g]
            census = [self._results.get(s) for s in group]
            ok = None not in census and self.check_census(
                point, [r for r in census if not isinstance(r, Diverged)])
        return ok

    @staticmethod
    def role_of(res) -> str:
        return "ring" if float(np.linalg.norm(res.initial_state)) >= RING_RADIUS else "central"

    @staticmethod
    def check_orbit(point: GainPoint, res) -> bool:
        """Residual, an independent return test, multiplier class and the Liouville identity."""
        if not res.residual <= TOL:
            return False
        back = integrate(point.flow, res.initial_state, 0.0, res.m * point.flow.period)
        if float(np.max(np.abs(back - res.initial_state))) > RETURN_TOL:
            return False
        if classify(res.multipliers) is not res.classification:
            return False
        return liouville_defect(point.flow, res) <= LIOUVILLE_TOL

    @classmethod
    def check_census(cls, point: GainPoint, census: list) -> bool:
        """The distinct orbits found include the central one and the predicted ring pair."""
        distinct = []
        for r in census:
            if all(np.linalg.norm(r.initial_state - d.initial_state) > 1e-3 for d in distinct):
                distinct.append(r)
        ring = [r.classification for r in distinct if cls.role_of(r) == "ring"]
        central = [r for r in distinct if cls.role_of(r) == "central"]
        return len(central) == 1 and point.node_class in ring and OrbitClass.SADDLE in ring
