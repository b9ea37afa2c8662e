"""Build the table of census seeds the ``shoot`` workload draws from.

    python3 perfbench/workloads/shoot_pool.py > perfbench/workloads/shoot_pool.json

Damped single shooting from a point on the predicted resonant orbit does
not always converge, and which seeds fail changes erratically with the
gains and the lag.  Drawn freely, the number of divergent solves in a run,
and with it the run's cost, would depend on the seed; so the census lags
come from this table, and the ``shoot`` workload adds divergent solves at
a fixed share from one known divergent seed instead.  For every gain point
of a fixed grid on each side of the predicted stability boundary, and
every lag of a fixed grid, a seed is kept when Newton converges within
``RHS_BUDGET`` right-hand-side evaluations to an orbit that passes the
workload's checks and has the role's expected type.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Gain grids (alpha on the line gamma = 0.05 - alpha) on the ring-sink and
#: ring-source sides of the stability boundary near alpha = 1.239.
SINK_ALPHAS = tuple(round(1.2420 + 0.0005 * i, 4) for i in range(11))
SOURCE_ALPHAS = tuple(round(1.210 + 0.002 * i, 4) for i in range(9))
LAGS = {
    "node": tuple(round(-0.025 + 0.0125 * i, 4) for i in range(7)),
    "saddle": tuple(round(0.025 + 0.0125 * i, 4) for i in range(5)),
}
RHS_BUDGET = 40000


class _Budget(Exception):
    pass


def _solve(point, role, lag):
    from doublezero import OrbitClass, find_subharmonic

    from perfbench.workloads.shoot import TOL, Shoot

    calls = [0]
    rhs = point.flow.rhs

    def budgeted(t, z):
        calls[0] += 1
        if calls[0] > RHS_BUDGET:
            raise _Budget
        return rhs(t, z)

    try:
        res = find_subharmonic(replace(point.flow, rhs=budgeted), 1, point.seed(role, lag),
                               tol=TOL)
    except Exception:
        return False
    if not Shoot.check_orbit(point, res):
        return False
    if role == "node":
        return Shoot.role_of(res) == "ring" and res.classification is point.node_class
    return Shoot.role_of(res) == "ring" and res.classification is OrbitClass.SADDLE


def build() -> dict:
    from perfbench.tracing import Tracer
    from perfbench.workloads.shoot import LAGS_PER_ROLE, GainPoint

    table = {}
    for side, alphas in (("sink", SINK_ALPHAS), ("source", SOURCE_ALPHAS)):
        rows = {}
        for alpha in alphas:
            point = GainPoint(alpha, Tracer(False))
            row = {role: [lag for lag in lags if _solve(point, role, lag)]
                   for role, lags in LAGS.items()}
            if min(len(lags) for lags in row.values()) >= LAGS_PER_ROLE:
                rows[f"{alpha:.4f}"] = row
            print(side, alpha, row, file=sys.stderr, flush=True)
        table[side] = rows
    return table


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    print(json.dumps(build(), indent=1, sort_keys=True))
