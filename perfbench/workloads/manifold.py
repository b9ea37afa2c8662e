"""``manifold``: separatrix splitting of the saddle-to-saddle connection.

The rescaled planar flow with cubic signs ``(+1, +1)`` on ``nu1 < 0`` is
forced by ``cos(omega_hat t)``.  The first-order splitting function predicts
a window of ``nu_hat`` inside which the lower connection's stable and
unstable manifolds cross transversally.  Each operation takes one ``nu_hat``
(alternately inside the window and outside it, at a seeded offset), locates
both strobe-map saddles by multiple shooting (``find_subharmonic`` with
eight segments), traces the unstable branch of the right saddle and the
stable branch of the left one (``trace_manifolds``, 160 chains as in
``experiment_manifold_splitting``), and the check tests whether the two
traces cross.

Tracing is limited to two strobe iterates: that already carries both
branches across the whole connection, and chains iterated further leave
along the outer separatrices, where the cubic flow blows up in finite time
and the integrator creeps toward the singularity instead of failing.
"""

from __future__ import annotations

import numpy as np

from doublezero import (
    FamilyTag,
    ManifoldBranch,
    OrbitClass,
    cosine,
    h_hat,
    integrate,
    scaled_flow,
    separatrix_constants,
    trace_manifolds,
)

from perfbench.workloads import Workload
from perfbench.workloads.shoot import classify, counted_solve

OMEGA_HAT = 1.4
EPS_HAT = 0.05
ARC = 2e-3
CHAINS = 160
MAX_ITERATES = 2
BOX = 2.0
#: Region of the lower connection in which crossings are looked for.
WINDOW = (-1.25, 1.25, -1.35, -0.04)
#: ``nu_hat`` offsets from the window's center, in units of its half-width.
INSIDE = (-0.75, 0.75)
OUTSIDE = (1.3, 2.0)


def polyline(trace, window=WINDOW) -> np.ndarray:
    """Segments ``(x1, y1, x2, y2)`` joining neighbouring points of one trace.

    Points are neighbours when adjacent in the seeding order: chain ``c`` and
    ``c + 1`` of one iterate, or the last chain of an iterate and chain 0 of
    the next.  Segments entirely outside ``window`` are dropped.
    """
    pts = dict(zip(trace.indices, trace.points))
    last = max(c for it, c in trace.indices if it == 0)
    xlo, xhi, ylo, yhi = window
    segs = []
    for (it, c) in sorted(pts):
        nxt = (it, c + 1) if c < last else (it + 1, 0)
        if nxt not in pts:
            continue
        (x1, y1), (x2, y2) = pts[(it, c)][:2], pts[nxt][:2]
        if max(x1, x2) < xlo or min(x1, x2) > xhi or max(y1, y2) < ylo or min(y1, y2) > yhi:
            continue
        segs.append((x1, y1, x2, y2))
    return np.array(segs).reshape(-1, 4)


def crosses(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a segment of ``a`` and a segment of ``b`` cross at interior points."""
    if len(a) == 0 or len(b) == 0:
        return False
    p = a[:, None, :2]
    r = a[:, None, 2:] - p
    q = b[None, :, :2]
    s = b[None, :, 2:] - q
    d = q - p
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    t_num = d[..., 0] * s[..., 1] - d[..., 1] * s[..., 0]
    u_num = d[..., 0] * r[..., 1] - d[..., 1] * r[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t_num / denom
        u = u_num / denom
    return bool(np.any((denom != 0.0) & (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0)))


class Manifold(Workload):
    name = "manifold"
    traced_ops = 8
    #: One ``nu_hat`` inside the window and one outside it.
    trace_block = loop_block = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.forcing = cosine(1.0)
        profile = h_hat(self.forcing, FamilyTag.HET_PAIR, OMEGA_HAT)
        c1, c2 = separatrix_constants(FamilyTag.HET_PAIR)
        self.center = -(c2 + 0.5 * (profile.hmax + profile.hmin)) / c1
        self.halfwidth = 0.5 * (profile.hmax - profile.hmin) / c1
        # Warm-up: one short integration loads the integrator's code paths.
        flow = self._flow(self.center)
        integrate(flow, np.array([1.0, 0.0]), 0.0, 0.1 * flow.period)

    def _flow(self, nu_hat: float):
        return scaled_flow(s1=1, s2=1, nu1_sign=-1, eps_hat=EPS_HAT, nu_hat=nu_hat,
                           omega_hat=OMEGA_HAT, delta_big=1.0, forcing=self.forcing)

    def make_input(self, index: int) -> tuple[float, bool]:
        rng = np.random.default_rng([self.seed, 3, index])
        inside = index % 2 == 0
        if inside:
            offset = rng.uniform(*INSIDE)
        else:
            offset = rng.choice((-1.0, 1.0)) * rng.uniform(*OUTSIDE)
        return self.center + float(offset) * self.halfwidth, inside

    def execute(self, inp):
        nu_hat, _ = inp
        tr = self.tr
        flow = tr.wrap_flow(self._flow(nu_hat))
        right = counted_solve(tr, flow, (1.0, 0.0), segments=8)
        left = counted_solve(tr, flow, (-1.0, 0.0), segments=8)
        traces = []
        for saddle, branch in ((right, ManifoldBranch.UNSTABLE_LEFT),
                               (left, ManifoldBranch.STABLE_RIGHT)):
            before = tr.counts.get("dynamics.rhs_evals", 0)
            with tr.span("dynamics.trace_manifolds"):
                trace = trace_manifolds(flow, saddle, ARC, CHAINS, box=BOX,
                                        max_iterates=MAX_ITERATES, branches=(branch,))[0]
            tr.count("dynamics.trace_manifolds.rhs_evals",
                     tr.counts.get("dynamics.rhs_evals", 0) - before)
            tr.count("dynamics.trace_manifolds.strobe_images", len(trace.points) - CHAINS)
            reached = {}
            for it, c in trace.indices:
                reached[c] = max(reached.get(c, 0), it)
            tr.count("dynamics.trace_manifolds.chains_ended",
                     sum(it < MAX_ITERATES for it in reached.values()))
            traces.append(trace)
        return right, left, traces[0], traces[1]

    def check(self, inp, out) -> bool:
        _, inside = inp
        right, left, unstable, stable = out
        for saddle in (right, left):
            if saddle.classification is not OrbitClass.SADDLE:
                return False
            if classify(saddle.multipliers) is not OrbitClass.SADDLE:
                return False
        return crosses(polyline(unstable), polyline(stable)) == inside
