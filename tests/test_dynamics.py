"""Newton shooting on a forced linear oscillator with a closed-form orbit and
on a multiple-shooting saddle; monodromy, fold detection, the batched flow
contract, ensemble shooting legs and manifold tracing against per-leg and
per-chain ``solve_ivp``."""

from __future__ import annotations

import math

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from doublezero.dynamics import (
    FlowSpec,
    ManifoldBranch,
    OrbitClass,
    _integrate_legs,
    _shooting_defect,
    detect_saddle_node,
    divergence_integral,
    find_subharmonic,
    integrate,
    liouville_defect,
    monodromy,
    pendulum_flow,
    scaled_flow,
    trace_manifolds,
)
from doublezero.errors import DomainError, NewtonDivergence, StepFailure
from doublezero.fourier import TrigPolynomial, cosine
from doublezero.melnikov import h_hat, separatrix_constants
from doublezero.orbits import FamilyTag
from doublezero.pendulum import example_theta_zero

#: x'' + C x' + x = cos(OMEGA t)
C = 0.3
OMEGA = 1.7
JAC = np.array([[0.0, 1.0], [-1.0, -C]])


def oscillator() -> FlowSpec:
    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        return np.array([z[1], -z[0] - C * z[1] + np.cos(OMEGA * t)])

    return FlowSpec(
        rhs=rhs, jacobian=lambda t, z: JAC, period=2.0 * math.pi / OMEGA, dim=2
    )


def exact_orbit_state() -> np.ndarray:
    """State at t = 0 of Re(exp(i OMEGA t) / (1 - OMEGA**2 + i C OMEGA))."""
    a, b = 1.0 - OMEGA**2, C * OMEGA
    d = a * a + b * b
    return np.array([a / d, OMEGA * b / d])


@pytest.mark.parametrize("segments", [1, 4])
def test_shooting_recovers_the_closed_form_orbit(segments: int) -> None:
    flow = oscillator()
    tol = 1e-10
    res = find_subharmonic(flow, 1, (0.5, -0.2), tol=tol, segments=segments)
    assert np.max(np.abs(res.initial_state - exact_orbit_state())) < 1e-9
    assert np.max(np.abs(res.monodromy - expm(JAC * flow.period))) < 1e-9
    assert res.residual < tol
    assert res.classification is OrbitClass.SINK
    assert liouville_defect(flow, res) < 1e-8


@pytest.mark.parametrize("m", [1, 2])
def test_divergence_integral_of_a_linear_flow_is_its_trace_times_the_time(m: int) -> None:
    flow = oscillator()
    integral = divergence_integral(flow, (0.5, -0.2), m)
    assert abs(integral - np.trace(JAC) * m * flow.period) <= 1e-12


def test_single_shooting_returns_the_full_period_monodromy() -> None:
    flow = oscillator()
    res = find_subharmonic(flow, 1, (0.5, -0.2))
    xf, mono = monodromy(flow, res.initial_state, 1)
    assert np.array_equal(res.monodromy, mono)
    assert res.residual == float(np.max(np.abs(xf - res.initial_state)))


def splitting_params(offset: float) -> dict:
    """``scaled_flow`` arguments of the separatrix-splitting flow at ``offset``
    half-widths from its window's center."""
    omega_hat = 1.4
    forcing = cosine(1.0)
    profile = h_hat(forcing, FamilyTag.HET_PAIR, omega_hat)
    c1, c2 = separatrix_constants(FamilyTag.HET_PAIR)
    center = -(c2 + 0.5 * (profile.hmax + profile.hmin)) / c1
    halfwidth = 0.5 * (profile.hmax - profile.hmin) / c1
    return dict(
        s1=1, s2=1, nu1_sign=-1, eps_hat=0.05, nu_hat=center + offset * halfwidth,
        omega_hat=omega_hat, delta_big=1.0, forcing=forcing,
    )


def splitting_flow(offset: float, **kwargs) -> FlowSpec:
    """The separatrix-splitting flow at ``offset`` half-widths from its window's center."""
    return scaled_flow(**splitting_params(offset), **kwargs)


def pendulum_saddle_flow() -> FlowSpec:
    return pendulum_flow(example_theta_zero(1.25, -1.2, omega=1.0, eps=0.01))


@pytest.mark.parametrize("offset", [-0.6, 0.0, 0.6])
def test_leg_product_monodromy_matches_a_full_period_integration(offset: float) -> None:
    # The right saddle of the separatrix-splitting experiment, across its
    # predicted window in nu_hat.
    flow = splitting_flow(offset)
    tol = 1e-10
    res = find_subharmonic(flow, 1, (1.0, 0.0), tol=tol, segments=8)
    assert res.classification is OrbitClass.SADDLE
    assert res.residual < tol
    _, mono = monodromy(flow, res.initial_state, 1)
    scale = np.max(np.abs(mono))
    assert np.max(np.abs(res.monodromy - mono)) < 1e-8 * scale
    fresh = np.sort_complex(np.linalg.eigvals(mono))
    for lam, ref in zip(np.sort_complex(np.array(res.multipliers)), fresh):
        assert abs(lam - ref) < 1e-8 * abs(ref)


SPLITTING = splitting_params(0.3)
GENERIC = dict(
    s1=-1, s2=1, nu1_sign=1, eps_hat=0.2, nu_hat=0.4, omega_hat=0.9,
    delta_big=0.7, forcing=TrigPolynomial({1: 0.8, 3: -0.2}, {2: 0.5}),
)
FLOWS = [
    lambda: scaled_flow(**SPLITTING),
    lambda: scaled_flow(**GENERIC),
    pendulum_saddle_flow,
]
#: ``scaled_flow`` arguments of the builders in ``FLOWS`` that are scaled flows.
SCALED_ARGS = {FLOWS[0]: SPLITTING, FLOWS[1]: GENERIC}


def scaled_model(args: dict, t: float, z1: float, z2: float) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side and Jacobian of the rescaled planar system, written out."""
    forcing, phi = args["forcing"], args["omega_hat"] * t
    h = sum(v * math.cos(j * phi) for j, v in forcing.cos_terms) + sum(
        v * math.sin(j * phi) for j, v in forcing.sin_terms
    )
    eps, nu, s1, s2 = args["eps_hat"], args["nu_hat"], args["s1"], args["s2"]
    zeta2_dot = (args["nu1_sign"] * z1 + s1 * z1**3
                 + eps * (nu * z2 + s2 * z1**2 * z2 + args["delta_big"] * h))
    jac = [[0.0, 1.0],
           [args["nu1_sign"] + 3.0 * s1 * z1**2 + 2.0 * eps * s2 * z1 * z2,
            eps * (nu + s2 * z1**2)]]
    return np.array([z2, zeta2_dot]), np.array(jac)


def assert_single_state_call(build, flow: FlowSpec, t: float, state: np.ndarray,
                             which: int) -> np.ndarray:
    """One-state ``rhs`` (``which=0``) or ``jacobian`` (``which=1``): a float64
    array of the documented shape, matching the written-out scaled model."""
    value = (flow.rhs, flow.jacobian)[which](t, state)
    assert isinstance(value, np.ndarray) and value.dtype == np.float64
    assert value.shape == (flow.dim,) * (which + 1)
    if build in SCALED_ARGS:
        model = scaled_model(SCALED_ARGS[build], t, *state.tolist())[which]
        assert np.max(np.abs(value - model)) <= 1e-15 * np.max(np.abs(model))
    return value


@pytest.mark.parametrize("build", FLOWS)
def test_rhs_evaluates_a_batch_column_by_column(build) -> None:
    flow = build()
    rng = np.random.default_rng(7)
    states = rng.uniform(-1.5, 1.5, size=(flow.dim, 9))
    times = rng.uniform(-3.0, 3.0, size=9)
    batched = flow.rhs(times, states)
    columns = np.stack(
        [assert_single_state_call(build, flow, float(t), states[:, j], 0)
         for j, t in enumerate(times)], axis=1
    )
    assert batched.shape == (flow.dim, 9)
    assert np.max(np.abs(batched - columns)) <= 1e-15 * np.max(np.abs(columns))


@pytest.mark.parametrize("build", FLOWS)
def test_jacobian_evaluates_a_batch_column_by_column(build) -> None:
    flow = build()
    rng = np.random.default_rng(8)
    states = rng.uniform(-1.5, 1.5, size=(flow.dim, 9))
    times = rng.uniform(-3.0, 3.0, size=9)
    batched = flow.jacobian(times, states)
    columns = np.stack(
        [assert_single_state_call(build, flow, float(t), states[:, j], 1)
         for j, t in enumerate(times)], axis=2
    )
    assert columns.shape == batched.shape == (flow.dim, flow.dim, 9)
    assert np.max(np.abs(batched - columns)) <= 1e-15 * np.max(np.abs(columns))


def variational_leg(flow: FlowSpec, state, t0: float, t1: float):
    """End state and transition matrix of one leg, by a lone ``solve_ivp``."""
    n = flow.dim

    def aug(t, y):
        jac = flow.jacobian(t, y[:n])
        return np.concatenate([flow.rhs(t, y[:n]), (jac @ y[n:].reshape(n, n)).ravel()])

    sol = solve_ivp(aug, (t0, t1), np.concatenate([state, np.eye(n).ravel()]),
                    method="DOP853", rtol=flow.rel_tol, atol=flow.abs_tol)
    assert sol.success
    return sol.y[:n, -1], sol.y[n:, -1].reshape(n, n)


def test_ensemble_legs_match_per_leg_integration() -> None:
    # The eight legs of the right saddle of the separatrix-splitting
    # experiment, each starting at its own time, in one ensemble call.
    flow = splitting_flow(0.0)
    saddle = find_subharmonic(flow, 1, (1.0, 0.0), segments=8)
    times = np.linspace(0.0, flow.period, 9)
    xs = np.stack([saddle.initial_state] + [
        integrate(flow, saddle.initial_state, 0.0, float(t)) for t in times[1:-1]
    ])
    ends, phis = _integrate_legs(flow, xs, times, variational=True)
    assert ends.shape == (8, 2) and phis.shape == (8, 2, 2)
    for j in range(8):
        end, phi = variational_leg(flow, xs[j], float(times[j]), float(times[j + 1]))
        assert max_gap(ends[j], end) < 1e-12
        assert np.max(np.abs(phis[j] - phi)) < 1e-10 * np.max(np.abs(phi))
    plain, none = _integrate_legs(flow, xs, times, variational=False)
    assert none is None
    for j in range(8):
        alone = integrate(flow, xs[j], float(times[j]), float(times[j + 1]))
        assert max_gap(plain[j], alone) < 1e-12


def blow_up_flow() -> FlowSpec:
    """x' = x**2, y' = -y: from x0 > 0, x reaches infinity at t = 1/x0."""
    def rhs(t, z):
        return np.array([z[0] ** 2, -z[1]])

    def jac(t, z):
        zero = np.zeros_like(z[0])
        return np.array([[2.0 * z[0], zero], [zero, zero - 1.0]])

    return FlowSpec(rhs=rhs, jacobian=jac, period=1.0, dim=2)


def test_a_failing_leg_ends_the_newton_sweep_and_the_trial() -> None:
    flow = blow_up_flow()
    times = np.array([0.0, 0.5, 1.0])
    # Only the first leg blows up (at t = 0.25); the second is harmless.
    assert _shooting_defect(flow, np.array([[4.0, 0.0], [0.1, 0.0]]), times) == math.inf
    # A leg that starts at infinity fails at once instead of retrying a NaN step.
    assert _shooting_defect(flow, np.array([[math.inf, 0.0], [0.1, 0.0]]), times) == math.inf
    with pytest.raises(NewtonDivergence, match="integration broke down"):
        find_subharmonic(flow, 1, (4.0, 0.0), segments=2)
    for segments in (1, 2):
        with pytest.raises(DomainError, match="finite"):
            find_subharmonic(flow, 1, (math.nan, 0.0), segments=segments)



def test_an_escaping_trial_ends_at_its_box() -> None:
    # From x = 4 the blow-up comes at t = 0.25; the trial's box (4,000)
    # ends the leg long before the integrator's step size would collapse.
    calls = 0

    def counted(t, z):
        nonlocal calls
        calls += 1
        return blow_up_flow().rhs(t, z)

    flow = replace(blow_up_flow(), rhs=counted)
    with pytest.raises(StepFailure, match="spacing between numbers"):
        integrate(flow, np.array([4.0, 0.0]), 0.0, 1.0)
    unboxed, calls = calls, 0
    assert _shooting_defect(flow, np.array([[4.0, 0.0]]), np.array([0.0, 1.0])) == math.inf
    assert 0 < calls < unboxed / 3
    for xs, times in (([[4.0, 0.0]], [0.0, 1.0]), ([[4.0, 0.0], [0.1, 0.0]], [0.0, 0.5, 1.0])):
        with pytest.raises(StepFailure, match="left the box"):
            _integrate_legs(flow, np.array(xs), np.array(times), variational=False, box=10.0)


def test_a_lone_trial_leg_takes_the_steps_of_integrate() -> None:
    flow = splitting_flow(0.0)
    state = np.array([0.3, -0.1])
    times = np.array([0.0, flow.period])
    alone = integrate(flow, state, 0.0, flow.period)
    end, none = _integrate_legs(flow, state[None], times, variational=False)
    assert none is None and np.array_equal(end[0], alone)
    assert _shooting_defect(flow, state[None], times) == float(np.max(np.abs(alone - state)))

def test_two_saddle_solves_stay_within_an_rhs_budget() -> None:
    # The per-leg solve_ivp path made 4,256 rhs calls here; the ensemble
    # shares one call among all legs of a sweep.
    flow = splitting_flow(0.3)
    calls = 0

    def counted(t, z):
        nonlocal calls
        calls += 1
        return flow.rhs(t, z)

    counted_flow = replace(flow, rhs=counted)
    for guess in ((1.0, 0.0), (-1.0, 0.0)):
        res = find_subharmonic(counted_flow, 1, guess, segments=8)
        assert res.classification is OrbitClass.SADDLE
    assert calls <= 600


@pytest.mark.parametrize("build", [
    lambda: splitting_flow(0.0, abs_tol=1e-12, rel_tol=1e-12),
    lambda: replace(pendulum_saddle_flow(), abs_tol=1e-12, rel_tol=1e-12),
])
def test_monodromy_matches_central_differences(build) -> None:
    flow = build()
    state = np.array([0.4, -0.2, 0.3][:flow.dim])
    end, mono = monodromy(flow, state, 1)
    assert np.max(np.abs(end - integrate(flow, state, 0.0, flow.period))) < 1e-10
    step = 1e-5
    columns = []
    for k in range(flow.dim):
        dx = np.zeros(flow.dim)
        dx[k] = step
        plus = integrate(flow, state + dx, 0.0, flow.period)
        minus = integrate(flow, state - dx, 0.0, flow.period)
        columns.append((plus - minus) / (2.0 * step))
    assert np.max(np.abs(mono - np.stack(columns, axis=1))) < 1e-6 * np.max(np.abs(mono))


def test_saddle_node_detection_finds_a_closed_form_fold() -> None:
    # x' = p - (1 - cos x), y' = -y: the equilibria cos x = 1 - p exist for
    # p >= 0 and merge at x = 0 when p = 0.
    def family(p: float) -> FlowSpec:
        def rhs(t, z):
            return np.array([p - (1.0 - np.cos(z[0])), -z[1]])

        def jac(t, z):
            return np.array([[-math.sin(z[0]), 0.0], [0.0, -1.0]])

        return FlowSpec(rhs=rhs, jacobian=jac, period=1.0, dim=2)

    fold = detect_saddle_node(
        family, 1, (-0.04, 0.06), (0.35, 0.0), param_tol=1e-6, max_iter=12
    )
    assert abs(fold) <= 1e-6


def sequential_trace(flow, trace, backward, box, max_iterates, planes=(), path_samples=0):
    """Reference tracer: one ``solve_ivp`` call per chain per strobe iterate.

    Starts from the seeds of ``trace`` and tests the box at strobe times
    only, so it agrees with ``trace_manifolds`` wherever no chain leaves the
    box and comes back within one strobe period.
    """
    seeds = [np.array(p) for (it, _), p in zip(trace.indices, trace.points) if it == 0]

    def plane_event(c):
        return lambda t, y: y[2] - c

    events = [plane_event(c) for c in planes] or None
    t0, t1 = (flow.period, 0.0) if backward else (0.0, flow.period)
    t_eval = np.linspace(t0, t1, path_samples) if path_samples > 1 else None
    heads = list(seeds)
    increments = [math.inf] * len(seeds)
    points = [tuple(s) for s in seeds]
    indices = [(0, i) for i in range(len(seeds))]
    cuts = {c: [] for c in planes}
    paths = [[] for _ in seeds]
    for iterate in range(1, max_iterates + 1):
        progressed = False
        for i, head in enumerate(heads):
            if head is None:
                continue
            sol = solve_ivp(flow.rhs, (t0, t1), head, method="DOP853",
                            rtol=flow.rel_tol, atol=flow.abs_tol,
                            events=events, t_eval=t_eval)
            if not sol.success:
                heads[i] = None
                continue
            for c, rows in zip(planes, sol.y_events or ()):
                cuts[c].extend(tuple(row) for row in rows)
            if t_eval is not None:
                paths[i].extend(tuple(row) for row in sol.y.T[1:])
            image = sol.y[:, -1]
            if np.max(np.abs(image)) > box:
                heads[i] = None
                continue
            d = float(np.max(np.abs(image - head)))
            points.append(tuple(image))
            indices.append((iterate, i))
            if d < 1e-12 or (math.isfinite(increments[i]) and d * 50.0 < increments[i]):
                heads[i] = None
                continue
            heads[i], increments[i] = image, d
            progressed = True
        if not progressed:
            break
    return indices, points, cuts, [p for chain in paths for p in chain]


def max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def test_linear_saddle_manifolds_lie_on_its_eigenlines() -> None:
    a = np.array([[0.5, 1.0], [1.0, -0.3]])
    flow = FlowSpec(rhs=lambda t, z: a @ z, jacobian=lambda t, z: a, period=0.5, dim=2)
    saddle = find_subharmonic(flow, 1, (0.0, 0.0))
    vals, vecs = np.linalg.eig(a)
    traces = trace_manifolds(flow, saddle, 1e-2, 5, box=3.0, max_iterates=40)
    assert len(traces) == 4
    for trace in traces:
        stable = trace.branch in (ManifoldBranch.STABLE_LEFT, ManifoldBranch.STABLE_RIGHT)
        k = int(np.argmin(vals)) if stable else int(np.argmax(vals))
        v = vecs[:, k]
        pts = np.array(trace.points)
        off_line = np.abs(pts[:, 0] * v[1] - pts[:, 1] * v[0])
        assert np.all(off_line <= 1e-8 * np.linalg.norm(pts, axis=1))
        assert max(it for it, _ in trace.indices) > 5
        # Every chain ends at the box: its last image lies inside, and one
        # more strobe period would carry it out.
        assert np.max(np.abs(pts)) <= 3.0
        last = {c: p for (_, c), p in zip(trace.indices, pts)}
        grow = math.exp(abs(vals[k]) * flow.period)
        assert all(np.max(np.abs(p)) * grow > 3.0 for p in last.values())


def test_splitting_traces_match_per_chain_integration() -> None:
    flow = splitting_flow(0.45)
    right = find_subharmonic(flow, 1, (1.0, 0.0), segments=8)
    left = find_subharmonic(flow, 1, (-1.0, 0.0), segments=8)
    for saddle, branch, backward in ((right, ManifoldBranch.UNSTABLE_LEFT, False),
                                     (left, ManifoldBranch.STABLE_RIGHT, True)):
        trace = trace_manifolds(flow, saddle, 2e-3, 40, box=2.0, max_iterates=2,
                                branches=(branch,))[0]
        indices, points, _, _ = sequential_trace(flow, trace, backward, 2.0, 2)
        assert list(trace.indices) == indices
        assert len(indices) > 40
        assert max_gap(trace.points, points) < 1e-7


def test_pendulum_plane_cuts_and_paths_match_solve_ivp_events() -> None:
    flow = pendulum_saddle_flow()
    saddle = find_subharmonic(flow, 1, (1.0, 0.0, math.sin(1.0)))
    assert saddle.classification is OrbitClass.SADDLE
    planes = (0.3, 0.47, 0.6)
    for branch in (ManifoldBranch.UNSTABLE_RIGHT, ManifoldBranch.UNSTABLE_LEFT):
        trace = trace_manifolds(flow, saddle, 1e-2, 5, box=10.0, max_iterates=3,
                                planes=planes, path_samples=7, branches=(branch,))[0]
        indices, points, cuts, path = sequential_trace(
            flow, trace, False, 10.0, 3, planes=planes, path_samples=7
        )
        assert list(trace.indices) == indices
        assert max_gap(trace.points, points) < 1e-7
        assert len(trace.path) == len(path) > 0
        assert max_gap(trace.path, path) < 1e-7
        found = dict(trace.plane_cuts)
        assert sum(len(rows) for rows in cuts.values()) > 0
        for c in planes:
            assert len(found[c]) == len(cuts[c])
            if cuts[c]:
                assert max_gap(found[c], cuts[c]) < 1e-7


def test_a_chain_sent_toward_blow_up_ends_at_the_box() -> None:
    # The right saddle's outer unstable branch runs into the cubic flow's
    # finite-time singularity; its chains must stop once they leave the box.
    flow = splitting_flow(0.0)
    saddle = find_subharmonic(flow, 1, (1.0, 0.0), segments=8)
    calls = 0

    def counted(t, z):
        nonlocal calls
        calls += 1
        if calls > 20000:
            raise RuntimeError("the tracer is creeping toward the blow-up")
        return flow.rhs(t, z)

    trace = trace_manifolds(replace(flow, rhs=counted), saddle, 2e-3, 8, box=2.0,
                            max_iterates=60, branches=(ManifoldBranch.UNSTABLE_RIGHT,))[0]
    assert max(it for it, _ in trace.indices) < 10
    assert calls < 2000
