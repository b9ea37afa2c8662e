"""Direct numerical verification harness.

Everything the analytic modules predict is checked here by honest
integration: strobed (Poincaré) maps of the time-periodic flows, Newton
shooting for subharmonic orbits with variational monodromy matrices,
single-parameter fold detection by bisection on orbit existence, and
stable/unstable manifold traces of saddle orbits seeded along Floquet
eigendirections.

Single trajectories, and the variational equations of single shooting,
are stepped by SciPy's ``DOP853`` class.  Everything that moves many
states at once goes through an in-module NumPy DOP853 ensemble that
applies SciPy's step-size rules to every member separately: the legs of a
multiple-shooting Newton iterate, each carrying its variational columns,
and the chains of a manifold branch, each of which ends as soon as it
leaves the tracing box, mid-strobe included.  The ensemble keeps its
stages, scaled by the step, in one workspace with the states, so a stage
is one product, one right-hand-side call and one scaled store.

Two flow builders are provided: the rescaled planar system

    zeta1' = zeta2
    zeta2' = (sign nu1)*zeta1 + s1*zeta1**3
             + eps_hat*(nu_hat*zeta2 + s2*zeta1**2*zeta2
                        + delta_big*h(omega_hat*t + phase))

and the full 3-D servo-pendulum of :mod:`.pendulum`.  Both carry analytic
state Jacobians so monodromy matrices come from the variational equations
rather than finite differences.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import DOP853
from scipy.integrate._ivp import dop853_coefficients as _DOP853
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY, Dop853DenseOutput
from scipy.optimize import brentq

from .errors import (
    DomainError,
    NewtonDivergence,
    NoFoldInBracket,
    NotASaddle,
    StepFailure,
)
from .fourier import TrigPolynomial
from .normalform import ScaledParams, ScalingBranch
from .pendulum import PendulumParams, vector_field, vector_field_jacobian

__all__ = [
    "FlowSpec",
    "OrbitClass",
    "PeriodicOrbitResult",
    "ManifoldBranch",
    "ManifoldTrace",
    "DEFAULT_ABS_TOL",
    "DEFAULT_REL_TOL",
    "scaled_flow",
    "pendulum_flow",
    "integrate",
    "poincare_map",
    "monodromy",
    "find_subharmonic",
    "detect_saddle_node",
    "trace_manifolds",
    "classify_multipliers",
    "divergence_integral",
    "liouville_defect",
]

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-9

#: |multiplier| within this of 1 counts as "on the unit circle".
UNIT_CIRCLE_TOL = 1e-8

#: A manifold chain whose strobe increment contracts by more than this
#: factor in one step has fallen into the neighborhood of a periodic point;
#: past that point iterates re-amplify integrator noise instead of
#: resolving the manifold, so the chain is terminated.
_CONTRACTION_CUT = 50.0

#: Strobe increment below which a chain is sitting on a periodic point.
_FIXED_POINT_TOL = 1e-12

#: A backtracking trial escapes past this factor times its largest
#: component (at least one); see ``_shooting_defect``.
_TRIAL_ESCAPE = 1e3

#: Accepted steps after which a single-trajectory integration gives up.
#: The most any workload or ``verify`` experiment takes is 311, in one
#: period of ``verify fold-convergence --case ii``; a trajectory creeping
#: toward a singularity reaches this in about a second.
_MAX_STEPS = 10_000

_N_STAGES = _DOP853.N_STAGES
#: Step-size factors scale with the error norm to this power.
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FlowSpec:
    """A time-periodic vector field with its forcing period and tolerances.

    ``rhs(t, state)`` and ``jacobian(t, state)`` must accept any real time;
    ``period`` is the forcing period that defines the strobe section.
    Both must also evaluate a batch: states of shape ``(dim, N)`` with times
    of shape ``(N,)``.  ``rhs`` then returns the ``(dim, N)`` array whose
    columns are the single-state results, and ``jacobian`` the
    ``(dim, dim, N)`` array whose ``[:, :, j]`` is the Jacobian at column
    ``j``; a Jacobian that does not depend on the state may return one
    ``(dim, dim)`` matrix instead.  The ensemble integrator that moves
    manifold chains and multiple-shooting legs calls them this way.
    The single-trajectory stepper, which also runs single shooting, calls
    them on one ``(dim,)`` state at a time, a dozen times per step, where
    NumPy's per-call overhead outweighs the arithmetic; so
    a builder should compute such a call on Python floats, as
    ``scaled_flow`` does, and return a ``(dim,)`` or ``(dim, dim)`` float64
    array.  The batch contract is the same either way, and the two paths
    need only agree to rounding: ``scaled_flow``'s batch forms its cubic
    terms as products where one state uses ``z1**3``, and folds ``eps_hat``
    into its coefficients and into a forcing pre-scaled once by
    ``eps_hat*delta_big``, where one state multiplies by them per call; its
    branches agree within 1e-15 of the largest component.  A batch call
    must leave its ``t`` and ``state`` arguments unchanged: the ensemble
    reads them again.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Callable[[float, np.ndarray], np.ndarray]
    period: float
    dim: int
    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self) -> None:
        if not (self.period > 0.0):
            raise DomainError(f"period must be positive, got {self.period!r}")
        if self.dim not in (2, 3):
            raise DomainError(f"dimension must be 2 or 3, got {self.dim!r}")


def scaled_flow(
    *,
    s1: int,
    s2: int,
    nu1_sign: int,
    eps_hat: float,
    nu_hat: float,
    omega_hat: float,
    delta_big: float,
    forcing: TrigPolynomial,
    phase: float = 0.0,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> FlowSpec:
    """Build the rescaled planar flow for one ``nu1`` half-plane.

    ``eps_hat = 0`` gives the unperturbed Hamiltonian host system.
    """
    if s1 not in (-1, 1) or s2 not in (-1, 1):
        raise DomainError("s1 and s2 must be +/-1")
    if nu1_sign not in (-1, 1):
        raise DomainError("nu1_sign must be +/-1")
    if eps_hat < 0.0:
        raise DomainError(f"eps_hat must be >= 0, got {eps_hat!r}")
    if not (omega_hat > 0.0):
        raise DomainError(f"omega_hat must be positive, got {omega_hat!r}")
    a = float(nu1_sign)
    b = float(s1)
    eh, nh, dl, ph = float(eps_hat), float(nu_hat), float(delta_big), float(phase)
    om = float(omega_hat)
    # One state (what ``_dop853`` passes) is computed in Python floats.  A
    # batch is computed in place from constants folded once here, eps_hat
    # included in the coefficients and in the forcing:
    #   zeta2' = b*(zeta1**2 + a*b)*zeta1 + (eh*s2*zeta1**2 + eh*nh)*zeta2
    #            + (eh*dl*h)(om*t + ph),
    # where b = +/-1 is an exact sign, applied by adding or subtracting the
    # cubic term, and zeta1**2 is the product z1 * z1 (NumPy's ``pow`` is
    # slow for negative bases).  So the branches agree to rounding: within
    # 1e-15 of the largest component, not bit for bit.  The constants are
    # 0-d float64 arrays, which NumPy applies to an array without converting
    # them on every call.
    c_om, c_ph, c_a, c_ab, c_3b, c_es2, c_2es2, c_enh = map(
        np.array, (om, ph, a, a * b, 3.0 * b, eh * s2, 2.0 * eh * s2, eh * nh))
    add_cubic = np.add if b > 0 else np.subtract
    scaled_forcing = forcing.scaled(eh * dl)
    top_row = np.array([[0.0], [1.0]])

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        if z.ndim == 1:
            z1, z2 = z.tolist()
            drive = nh * z2 + s2 * z1 * z1 * z2 + dl * forcing(om * t + ph)
            return np.array([z2, a * z1 + b * z1**3 + eh * drive])
        z1, z2 = z[0], z[1]
        x = t * c_om
        x += c_ph
        acc = scaled_forcing(x)
        sq = z1 * z1
        damp = sq * c_es2
        damp += c_enh
        damp *= z2
        acc += damp
        sq += c_ab
        sq *= z1
        out = z[::-1].copy()  # row 0 is zeta2 and row 1 is written next
        add_cubic(acc, sq, out=out[1])
        return out

    def jac(t: float, z: np.ndarray) -> np.ndarray:
        if z.ndim == 1:
            z1, z2 = z.tolist()
            j10 = a + 3.0 * b * z1 * z1 + 2.0 * eh * s2 * z1 * z2
            j11 = eh * (nh + s2 * z1 * z1)
            return np.array([0.0, 1.0, j10, j11]).reshape(2, 2)
        z1, z2 = z[0], z[1]
        out = np.empty((2,) + z.shape)
        out[0] = top_row
        j10, j11 = out[1, 0], out[1, 1]
        sq = z1 * z1
        np.multiply(sq, c_es2, out=j11)
        j11 += c_enh
        np.multiply(z1, z2, out=j10)
        j10 *= c_2es2
        sq *= c_3b
        sq += c_a
        j10 += sq
        return out

    return FlowSpec(
        rhs=rhs, jacobian=jac, period=2.0 * math.pi / om, dim=2,
        abs_tol=abs_tol, rel_tol=rel_tol,
    )


def scaled_flow_from(
    sp: ScaledParams,
    s1: int,
    s2: int,
    forcing: TrigPolynomial,
    **kwargs,
) -> FlowSpec:
    """Scaled flow with parameters taken from a :class:`.ScaledParams`."""
    nu1_sign = -1 if sp.branch is ScalingBranch.NU1_NEGATIVE else 1
    return scaled_flow(
        s1=s1, s2=s2, nu1_sign=nu1_sign, eps_hat=sp.eps_hat, nu_hat=sp.nu_hat,
        omega_hat=sp.omega_hat, delta_big=sp.delta_big, forcing=forcing, **kwargs,
    )


def pendulum_flow(
    p: PendulumParams,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> FlowSpec:
    """The full 3-D servo-pendulum flow with its analytic Jacobian."""
    return FlowSpec(
        rhs=lambda t, z: vector_field(p, t, z),
        jacobian=lambda t, z: vector_field_jacobian(p, z),
        period=2.0 * math.pi / p.omega,
        dim=3,
        abs_tol=abs_tol,
        rel_tol=rel_tol,
    )


def _dop853(rhs, state0, t0: float, t1: float, abs_tol: float, rel_tol: float, *,
            box: float = math.inf, t_eval=None) -> np.ndarray:
    """Step SciPy's ``DOP853`` from ``t0`` to ``t1`` exactly as SciPy's own loop does.

    Returns the state at ``t1`` or, for increasing ``t_eval`` in ``[t0, t1]``,
    the ``(len(t_eval), dim)`` states read from each step's dense output.
    Raises `StepFailure` if a step fails, after ``_MAX_STEPS`` accepted steps
    and, for a finite ``box``, at the first accepted step with
    ``max|state| > box``.
    """
    solver = DOP853(rhs, float(t0), np.asarray(state0, dtype=float), float(t1),
                    rtol=rel_tol, atol=abs_tol)
    rows, due, steps = [], 0, 0
    while solver.status == "running":
        if steps == _MAX_STEPS:
            raise StepFailure(
                f"integration failed on [{t0}, {t1}]: no end after {_MAX_STEPS} steps "
                f"(reached t = {solver.t})."
            )
        steps += 1
        message = solver.step()
        if solver.status == "failed":
            raise StepFailure(f"integration failed on [{t0}, {t1}]: {message}")
        if box < math.inf and np.max(np.abs(solver.y)) > box:
            raise StepFailure(
                f"integration failed on [{t0}, {t1}]: left the box max|state| <= {box:g}."
            )
        if t_eval is not None:
            upto = int(np.searchsorted(t_eval, solver.t, side="right"))
            if upto > due:
                rows.append(solver.dense_output()(t_eval[due:upto]))
                due = upto
    return solver.y if t_eval is None else np.hstack(rows).T


def integrate(flow: FlowSpec, state0, t0: float, t1: float) -> np.ndarray:
    """State at time ``t1`` of the trajectory through ``state0`` at ``t0``.

    Raises
    ------
    DomainError
        If ``t1 < t0`` (forward public contract; the manifold tracer handles
        backward time internally).
    StepFailure
        If the adaptive integrator cannot proceed, or takes more than
        ``_MAX_STEPS`` (10,000) steps.
    """
    if t1 < t0:
        raise DomainError(f"need t1 >= t0, got [{t0}, {t1}]")
    if t1 == t0:
        return np.asarray(state0, dtype=float).copy()
    return _dop853(flow.rhs, state0, t0, t1, flow.abs_tol, flow.rel_tol)


def trajectory(
    flow: FlowSpec, state0, t0: float, t1: float, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense trajectory samples at ``samples`` evenly spaced times.

    Returns ``(times, states)`` with ``states[i]`` the state at ``times[i]``;
    both endpoints are included.
    """
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples}")
    if not (t1 > t0):
        raise DomainError(f"need t1 > t0, got [{t0}, {t1}]")
    ts = np.linspace(t0, t1, samples)
    return ts, _dop853(flow.rhs, state0, t0, t1, flow.abs_tol, flow.rel_tol, t_eval=ts)


def poincare_map(flow: FlowSpec, state, iterates: int) -> list[np.ndarray]:
    """Strobe samples after 1, 2, ..., ``iterates`` forcing periods."""
    if iterates < 1:
        raise DomainError(f"iterates must be >= 1, got {iterates}")
    out = []
    x = np.asarray(state, dtype=float)
    for i in range(iterates):
        x = integrate(flow, x, i * flow.period, (i + 1) * flow.period)
        out.append(x)
    return out


def _transition(
    flow: FlowSpec, state: np.ndarray, t0: float, t1: float
) -> tuple[np.ndarray, np.ndarray]:
    """Final state and state-transition matrix of one time segment."""
    n = flow.dim
    y0 = np.concatenate([state, np.eye(n).ravel()])
    yf = _dop853(_variational_rhs(flow), y0, t0, t1, flow.abs_tol, flow.rel_tol)
    return yf[:n], yf[n:].reshape(n, n)


def monodromy(flow: FlowSpec, state, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Final state and monodromy matrix over ``m`` forcing periods.

    Integrates the variational equations alongside the flow, so the returned
    matrix is the derivative of the ``m``-th strobe map at ``state``.
    """
    n = flow.dim
    x0 = np.asarray(state, dtype=float)
    if x0.shape != (n,):
        raise DomainError(f"state must have shape ({n},), got {x0.shape}")
    return _transition(flow, x0, 0.0, m * flow.period)


class OrbitClass(enum.Enum):
    SINK = "sink"
    SOURCE = "source"
    SADDLE = "saddle"
    CENTER_LIKE = "center-like"


def classify_multipliers(
    multipliers: Sequence[complex], unit_tol: float = UNIT_CIRCLE_TOL
) -> OrbitClass:
    """Classify a periodic orbit from its Floquet multipliers.

    Multipliers within ``unit_tol`` of the unit circle are treated as
    neutral; any expansion together with any contraction is a saddle.
    """
    mags = [abs(lam) for lam in multipliers]
    expanding = any(mag > 1.0 + unit_tol for mag in mags)
    contracting = any(mag < 1.0 - unit_tol for mag in mags)
    if expanding and contracting:
        return OrbitClass.SADDLE
    if expanding:
        return OrbitClass.SOURCE
    if contracting and all(mag < 1.0 + unit_tol for mag in mags):
        return OrbitClass.SINK
    return OrbitClass.CENTER_LIKE


@dataclass(frozen=True)
class PeriodicOrbitResult:
    """A located subharmonic orbit on the strobe section.

    ``initial_state`` returns to itself under ``m`` strobe iterates;
    ``residual`` is the largest leg defect (max-norm) of the converged
    shooting system, so it is always below the ``tol`` the solve was given.
    ``monodromy`` is the product of the legs' variational transition
    matrices at that iterate and ``multipliers`` are its eigenvalues.
    """

    initial_state: np.ndarray
    m: int
    multipliers: tuple[complex, ...]
    classification: OrbitClass
    residual: float
    monodromy: np.ndarray


def find_subharmonic(
    flow: FlowSpec,
    m: int,
    guess,
    *,
    tol: float = 1e-10,
    max_iter: int = 50,
    segments: int = 1,
) -> PeriodicOrbitResult:
    """Newton shooting for a fixed point of the ``m``-th strobe iterate.

    ``segments > 1`` switches to multiple shooting: the period is split into
    that many legs with the leg endpoints as extra unknowns.  Use it for
    strongly hyperbolic orbits, where single shooting amplifies guess error
    by the full-period multiplier and the first integration can escape.
    The legs of each Newton iterate, with their variational columns, and
    the legs of each backtracking trial are integrated together as one
    DOP853 ensemble, every leg under its own step control.  A single leg
    runs SciPy's DOP853 stepper: one ensemble member takes the same steps
    but pays the ensemble's per-step bookkeeping for a single stage call,
    which makes a period 2.0-2.2 times slower on the pendulum flow and
    2.6-2.7 times slower on the scaled flow.
    The returned ``residual`` is the largest leg defect of the converged
    system (for one leg, the full-period return defect), so
    ``residual < tol``.

    Raises
    ------
    DomainError
        If ``guess`` has a non-finite component.
    NewtonDivergence
        After ``max_iter`` iterations without the residual dropping below
        ``tol``, when an integration breaks down, or when the shooting
        system becomes singular; the message reports the last residual.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if segments < 1:
        raise DomainError(f"segments must be >= 1, got {segments}")
    x0 = np.asarray(guess, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise DomainError(f"guess must be finite, got {guess!r}")
    x, mono, residual = _newton_orbit(flow, m, x0, tol, max_iter, segments)
    mults = tuple(complex(lam) for lam in np.linalg.eigvals(mono))
    return PeriodicOrbitResult(
        initial_state=x,
        m=m,
        multipliers=mults,
        classification=classify_multipliers(mults),
        residual=residual,
        monodromy=mono,
    )


def _integrate_legs(
    flow: FlowSpec,
    xs: np.ndarray,
    times: np.ndarray,
    variational: bool,
    box: float = math.inf,
) -> tuple[np.ndarray, np.ndarray | None]:
    """End states of the legs ``xs[j]`` over ``[times[j], times[j + 1]]``.

    With ``variational`` the legs' transition matrices come back too, as a
    ``(count, dim, dim)`` array, else ``None``.  Several legs are integrated
    together as one ensemble; a single leg goes through :func:`_dop853`,
    which takes the same steps for it faster (see :func:`find_subharmonic`).
    Without ``variational`` a leg ends at its first accepted step outside
    the box ``max|state| <= box``.

    Raises
    ------
    StepFailure
        If the integration of any leg fails or leaves the box.
    """
    count, n = xs.shape
    if count == 1:
        t0, t1 = float(times[0]), float(times[1])
        if variational:
            end, phi = _transition(flow, xs[0], t0, t1)
            return end[None], phi[None]
        end = _dop853(flow.rhs, xs[0], t0, t1, flow.abs_tol, flow.rel_tol, box=box)
        return end[None], None
    if variational:
        rhs = _variational_rhs(flow)
        y0 = np.concatenate([xs.T, np.repeat(np.eye(n).reshape(n * n, 1), count, axis=1)])
    else:
        rhs, y0 = flow.rhs, xs.T
    end = _ensemble_dop853(rhs, y0, times[:-1], times[1:], flow.abs_tol, flow.rel_tol,
                           box=box)
    if end.failed.any() or end.left_box.any():
        j = int(np.flatnonzero(end.failed | end.left_box)[0])
        why = ("Required step size is less than spacing between numbers."
               if end.failed[j] else f"left the box max|state| <= {box:g}.")
        raise StepFailure(f"integration failed on [{times[j]}, {times[j + 1]}]: {why}")
    phis = end.states[n:].T.reshape(count, n, n) if variational else None
    return end.states[:n].T, phis


def _variational_rhs(flow: FlowSpec):
    """The flow with its transition matrix, ``dim + dim*dim`` rows per member.

    One state (a 1-D ``y``) and a batch (one column per member) share it.
    """
    n = flow.dim

    def rhs(t: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = y[:n]
        out = np.empty_like(y)
        out[:n] = flow.rhs(t, x)
        jac = flow.jacobian(t, x)
        if jac.ndim == 2:
            np.matmul(jac, y[n:].reshape(n, -1), out=out[n:].reshape(n, -1))
        else:
            # One (dim, dim) product per member, the member axis last.
            np.einsum("ikm,kjm->ijm", jac, y[n:].reshape(n, n, -1),
                      out=out[n:].reshape(n, n, -1))
        return out

    return rhs


def _shooting_defect(flow: FlowSpec, xs: np.ndarray, times: np.ndarray) -> float:
    """Largest leg defect of a backtracking trial; ``inf`` if a leg fails or escapes.

    A leg escapes when it leaves the box ``max|state| <= box``, ``box``
    being ``_TRIAL_ESCAPE`` times the trial's largest component (at least
    one), and the trial is then rejected whatever its end.  In the cubic
    scaled flow such a leg is on its way to a finite-time blow-up, and
    following it down to the integrator's step-size floor cost about 5,400
    right-hand-side evaluations, where a whole period takes about 300.
    """
    box = _TRIAL_ESCAPE * max(1.0, float(np.max(np.abs(xs))))
    try:
        ends, _ = _integrate_legs(flow, xs, times, variational=False, box=box)
    except StepFailure:
        return math.inf
    return float(np.max(np.abs(ends - np.roll(xs, -1, axis=0))))


def _newton_orbit(
    flow: FlowSpec, m: int, guess: np.ndarray, tol: float, max_iter: int, segments: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Damped Newton on the ``segments``-leg shooting system.

    Returns the converged state at time 0, the monodromy over ``m`` periods
    (the product of the legs' transition matrices) and the residual.
    """
    n = flow.dim
    count = int(segments)
    times = np.linspace(0.0, m * flow.period, count + 1)
    # A constant chain is a safe seed: each leg is short, so even a crude
    # guess cannot be amplified into an escape the way a full period can.
    xs = np.tile(np.asarray(guess, dtype=float), (count, 1))
    eye = np.eye(n)
    residual = math.inf
    for _ in range(max_iter):
        try:
            ends, legs = _integrate_legs(flow, xs, times, variational=True)
        except StepFailure as exc:
            raise NewtonDivergence(
                f"integration broke down during shooting (last residual "
                f"{residual!r}): {exc}"
            ) from exc
        defects = ends - np.roll(xs, -1, axis=0)
        residual = float(np.max(np.abs(defects)))
        if not math.isfinite(residual):
            raise NewtonDivergence(f"shooting residual became non-finite ({residual!r})")
        if residual < tol:
            mono = legs[0]
            for phi in legs[1:]:
                mono = phi @ mono
            return xs[0].copy(), mono, residual
        jac = np.zeros((count * n, count * n))
        for j in range(count):
            jac[j * n:(j + 1) * n, j * n:(j + 1) * n] = legs[j]
            nxt = (j + 1) % count
            jac[j * n:(j + 1) * n, nxt * n:(nxt + 1) * n] -= eye
        try:
            step = np.linalg.solve(jac, -defects.ravel()).reshape(count, n)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence(
                f"singular shooting system (last residual {residual!r})"
            ) from exc
        # Backtracking damping: near-unit multipliers make the system nearly
        # singular and the full step can overshoot the basin; halve until
        # the defect shrinks (the full step is kept whenever it works, so
        # quadratic convergence near the root is untouched).
        damping = 1.0
        for _ in range(12):
            if _shooting_defect(flow, xs + damping * step, times) < residual:
                break
            damping *= 0.5
        xs = xs + damping * step
    raise NewtonDivergence(
        f"no convergence after {max_iter} iterations (last residual {residual!r})"
    )


def detect_saddle_node(
    flow_family: Callable[[float], FlowSpec],
    m: int,
    bracket: tuple[float, float],
    seed,
    *,
    param_tol: float = 1e-6,
    max_jump: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> float:
    """Bisect a one-parameter family for the fold of a subharmonic orbit.

    ``flow_family(p)`` builds the flow at parameter ``p``; ``seed`` is an
    initial state of the tracked orbit valid at one bracket end.  A trial
    parameter counts as "orbit exists" when Newton converges from the
    nearest previously-converged state without jumping further than
    ``max_jump`` (a large jump means Newton fell onto a different orbit —
    past a fold the tracked orbit is simply gone and any convergence is
    spurious).  Bisection returns the fold parameter to within
    ``param_tol``.

    Raises
    ------
    NoFoldInBracket
        If the orbit exists at both ends or at neither end.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (hi > lo):
        raise DomainError(f"bracket must satisfy lo < hi, got {bracket!r}")

    def probe(p: float, from_state: np.ndarray) -> np.ndarray | None:
        try:
            res = find_subharmonic(
                flow_family(p), m, from_state, tol=tol, max_iter=max_iter
            )
        except NewtonDivergence:
            return None
        if np.max(np.abs(res.initial_state - from_state)) > max_jump:
            return None
        return res.initial_state

    seed = np.asarray(seed, dtype=float)
    state_lo = probe(lo, seed)
    state_hi = probe(hi, seed if state_lo is None else state_lo)
    if (state_lo is None) == (state_hi is None):
        raise NoFoldInBracket(
            f"orbit exists at "
            f"{'both ends' if state_lo is not None else 'neither end'} of "
            f"[{lo}, {hi}]"
        )
    exists_state = state_lo if state_lo is not None else state_hi

    while hi - lo > param_tol:
        mid = 0.5 * (lo + hi)
        state_mid = probe(mid, exists_state)
        # Keep the bracket ends on opposite sides of the fold: the end where
        # the orbit exists moves to mid when the probe succeeds there.
        if (state_mid is not None) == (state_lo is not None):
            lo = mid
            if state_mid is not None:
                exists_state = state_mid
                state_lo = state_mid
        else:
            hi = mid
            if state_mid is not None:
                exists_state = state_mid
    return 0.5 * (lo + hi)


class ManifoldBranch(enum.Enum):
    STABLE_LEFT = "stable-left"
    STABLE_RIGHT = "stable-right"
    UNSTABLE_LEFT = "unstable-left"
    UNSTABLE_RIGHT = "unstable-right"


@dataclass(frozen=True)
class ManifoldTrace:
    """One manifold branch of a saddle strobe-map fixed point.

    ``points`` are section states ordered by iterate then by seeding offset;
    the first point sits at the smallest offset from the periodic point
    along the Floquet eigendirection.  ``plane_cuts`` maps a plane constant
    to the continuous-trajectory intersections with that third-coordinate
    plane (3-D flows only).
    """

    branch: ManifoldBranch
    points: tuple[tuple[float, ...], ...]
    arc_params: tuple[float, ...]
    #: (iterate, chain) bookkeeping per entry of ``points``; iterate 0 are
    #: the seeds.  Sorting by iterate then chain orders points by their
    #: leading-order arc position ``offset[chain] * multiplier**iterate``.
    indices: tuple[tuple[int, int], ...] = ()
    plane_cuts: tuple[tuple[float, tuple[tuple[float, ...], ...]], ...] = ()
    #: Dense samples of the continuous trajectories between strobes,
    #: contiguous and time-ordered per seeding chain (filled on request).
    path: tuple[tuple[float, ...], ...] = ()


def _saddle_directions(res: PeriodicOrbitResult) -> tuple[float, np.ndarray, float, np.ndarray]:
    """(unstable multiplier, direction, stable multiplier, direction)."""
    vals, vecs = np.linalg.eig(res.monodromy)
    real = [
        (float(vals[i].real), vecs[:, i].real)
        for i in range(len(vals))
        if abs(vals[i].imag) < 1e-9
    ]
    unstable = [(lam, v) for lam, v in real if lam > 1.0 + UNIT_CIRCLE_TOL]
    stable = [
        (lam, v) for lam, v in real if 0.0 < lam < 1.0 - UNIT_CIRCLE_TOL
    ]
    if not unstable or not stable:
        raise NotASaddle(
            f"orbit multipliers {res.multipliers!r} lack a real expanding/"
            f"contracting pair"
        )
    # Strongest expansion and weakest contraction carry the visible manifold.
    lam_u, v_u = max(unstable, key=lambda t: t[0])
    lam_s, v_s = max(stable, key=lambda t: t[0])
    return lam_u, _orient(v_u), lam_s, _orient(v_s)


def _orient(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    # Fix a deterministic sign: first nonzero component positive.
    for comp in v:
        if abs(comp) > 1e-12:
            return v if comp > 0 else -v
    return v


def trace_manifolds(
    flow: FlowSpec,
    saddle: PeriodicOrbitResult,
    arc: float,
    count: int,
    *,
    box: float = 3.0,
    planes: Sequence[float] = (),
    max_iterates: int = 60,
    path_samples: int = 0,
    branches: Sequence[ManifoldBranch] | None = None,
) -> list[ManifoldTrace]:
    """Trace the four stable/unstable manifold branches of a saddle orbit.

    ``count`` seeds are placed at geometric offsets spanning one fundamental
    domain ``[arc/multiplier, arc]`` along each Floquet eigendirection and
    iterated under the strobe map (inverse map for the stable branches).
    A chain ends when its trajectory leaves the box ``max|state_i| <= box``
    at any accepted integrator step (mid-strobe included, so no chain is
    followed into a finite-time blow-up), when the integrator fails, when it
    contracts onto a periodic point, or after ``max_iterates``.  All live
    chains of a branch are advanced through each strobe period together as
    one DOP853 ensemble in which every chain keeps its own step-size
    control, so each chain takes the steps a lone integration would take.
    For 3-D flows the continuous trajectories' intersections with the
    planes ``state_3 = c`` are recorded per branch.  ``path_samples > 1``
    additionally stores that many dense samples of each between-strobe
    trajectory in ``path`` (for an autonomous flow the path is itself a
    manifold sampling).

    Raises
    ------
    NotASaddle
        If the orbit has no real multiplier pair straddling the unit circle.
    """
    if saddle.classification is not OrbitClass.SADDLE:
        raise NotASaddle(f"orbit is classified {saddle.classification.value!r}")
    if not (arc > 0.0):
        raise DomainError(f"arc must be positive, got {arc!r}")
    if count < 2:
        raise DomainError(f"count must be >= 2, got {count}")
    lam_u, v_u, lam_s, v_s = _saddle_directions(saddle)
    x_star = saddle.initial_state
    period = saddle.m * flow.period
    planes = [float(c) for c in planes] if flow.dim == 3 else []

    def follow(
        direction: np.ndarray, multiplier: float, backward: bool, branch: ManifoldBranch
    ) -> ManifoldTrace:
        # One fundamental domain of offsets: successive strobe images of the
        # seed segment tile the manifold without gaps.
        offsets = np.geomspace(arc / multiplier, arc, count)
        heads = x_star[:, None] + offsets * direction[:, None]
        pts: list[tuple[float, ...]] = list(map(tuple, heads.T.tolist()))
        idx: list[tuple[int, int]] = [(0, i) for i in range(count)]
        cuts: dict[float, list[tuple[float, ...]]] = {c: [] for c in planes}
        increments = np.full(count, math.inf)
        chain_paths: list[list[tuple[float, ...]]] = [[] for _ in range(count)]
        t0, t1 = (period, 0.0) if backward else (0.0, period)
        live = np.arange(count)
        for iterate in range(1, max_iterates + 1):
            if not live.size:
                break
            end = _ensemble_dop853(
                flow.rhs, heads[:, live], t0, t1, flow.abs_tol, flow.rel_tol,
                box=box, planes=planes, samples=path_samples,
            )
            if planes or path_samples > 1:
                for j in np.flatnonzero(~end.failed):
                    for c, row in end.cuts[j]:
                        cuts[c].append(tuple(map(float, row)))
                    chain_paths[live[j]].extend(tuple(map(float, row)) for row in end.paths[j])
            inside = ~(end.failed | end.left_box)
            chains, imgs = live[inside], end.states[:, inside]
            d = np.max(np.abs(imgs - heads[:, chains]), axis=0)
            pts.extend(map(tuple, imgs.T.tolist()))
            idx.extend((iterate, i) for i in chains.tolist())
            # A chain sitting on, or contracting onto, a periodic point ends.
            prev = increments[chains]
            go_on = ~((d < _FIXED_POINT_TOL) | (np.isfinite(prev) & (d * _CONTRACTION_CUT < prev)))
            live = chains[go_on]
            heads[:, live] = imgs[:, go_on]
            increments[live] = d[go_on]
        return ManifoldTrace(
            branch=branch,
            points=tuple(pts),
            arc_params=tuple(float(o) for o in offsets),
            indices=tuple(idx),
            plane_cuts=tuple((c, tuple(rows)) for c, rows in cuts.items()),
            path=tuple(pt for chain in chain_paths for pt in chain),
        )

    inv_ls = 1.0 / lam_s  # contraction rate of the backward map
    plans = {
        ManifoldBranch.UNSTABLE_RIGHT: (v_u, lam_u, False),
        ManifoldBranch.UNSTABLE_LEFT: (-v_u, lam_u, False),
        ManifoldBranch.STABLE_RIGHT: (v_s, inv_ls, True),
        ManifoldBranch.STABLE_LEFT: (-v_s, inv_ls, True),
    }
    wanted = tuple(plans) if branches is None else tuple(branches)
    return [follow(*plans[b], b) for b in wanted]


@dataclass(frozen=True)
class _EnsembleEnd:
    """How each member of one ensemble integration ended.

    ``states[:, j]`` is member ``j`` at ``t1``, or at its first accepted
    step outside the box when ``left_box[j]``; ``failed[j]`` marks a member
    whose step size fell below SciPy's ``min_step``.  ``cuts[j]`` lists
    ``(plane, state)`` crossings and ``paths[j]`` the dense samples, both in
    time order up to the member's end; without planes or samples both are [].
    """

    states: np.ndarray
    left_box: np.ndarray
    failed: np.ndarray
    cuts: list[list[tuple[float, np.ndarray]]]
    paths: list[list[np.ndarray]]


def _rms(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """SciPy's RMS norm along ``axis``, the state components; squares ``x`` in place."""
    x *= x
    return np.sqrt(np.add.reduce(x, axis=axis)) / math.sqrt(x.shape[axis])


def _initial_step(rhs, t0: np.ndarray, y0, f0, t1: np.ndarray, direction: float,
                  abs_tol: float, rel_tol: float) -> np.ndarray:
    """SciPy's ``select_initial_step`` for DOP853, one step per column."""
    interval = abs(t1 - t0)
    scale = abs_tol + np.abs(y0) * rel_tol
    with np.errstate(divide="ignore", invalid="ignore"):
        d0, d1 = _rms(np.array([y0, f0]) / scale, axis=1)
        # fmin ignores a NaN as SciPy's ``d0 < 1e-5 or d1 < 1e-5`` does.
        h0 = np.minimum(np.where(np.fmin(d0, d1) < 1e-5, 1e-6, 0.01 * d0 / d1), interval)
        step = h0 * direction
        f1 = rhs(t0 + step, y0 + step * f0)
        d12 = np.maximum(d1, _rms((f1 - f0) / scale) / h0)
        h1 = np.where(d12 <= 1e-15, np.maximum(1e-6, h0 * 1e-3), (0.01 / d12) ** -_ERROR_EXPONENT)
    return np.minimum(np.minimum(100.0 * h0, h1), interval)


#: Stage weights ``[1, A[s, :s]]`` of the extended tableau, 1 weighing the
#: state; row 12 is ``[1, B]``, the 8th-order solution.
_A_ROWS = [np.append(1.0, _DOP853.A[s, :s]) for s in range(_DOP853.N_STAGES_EXTENDED)]
#: Stage time fractions; the 13th, 1, is the closing evaluation at ``t + h``.
_C_STEP = _DOP853.C[:_N_STAGES + 1, None]
#: The 5th- and 3rd-order error estimators, one row each.
_E53 = np.stack([_DOP853.E5, _DOP853.E3])
#: Smallest positive double: a floor that leaves every positive value as it is.
_TINY = math.ulp(0.0)


def _ensemble_dop853(
    rhs,
    y0: np.ndarray,
    t0,
    t1,
    atol: float,
    rtol: float,
    *,
    box: float = math.inf,
    planes: Sequence[float] = (),
    samples: int = 0,
) -> _EnsembleEnd:
    """Integrate the columns of ``y0`` (shape ``(dim, N)``) from ``t0`` to ``t1``.

    ``t0`` and ``t1`` are floats or ``(N,)`` arrays of per-member times; all
    members run in one time direction.  Every column is one member that
    follows SciPy's DOP853 rules on its own: initial step, error norm, step
    controller and the ``min_step`` failure, so it takes the steps
    :func:`_dop853` would take for it alone, up to rounding.  The members
    share each stage's right-hand-side call, ``rhs(t, Y)`` with ``t`` of
    shape ``(N,)`` and ``Y`` of shape ``(dim, N)``.  A member ends at its
    ``t1``, at its first accepted step with ``max|state| > box``, or on step
    failure.  Plane crossings ``state_3 = c`` are located by ``brentq`` on
    the step's DOP853 interpolant (as SciPy locates events), and
    ``samples > 1`` evenly spaced times after ``t0`` are read from it too
    (both need scalar times); the interpolant's three extra stages are built
    only for steps that need one.

    A step lives in one workspace ``Z`` of shape ``(14, dim, N)``: ``Z[0]``
    holds the states and ``Z[1 + s]`` the stage ``h*k_s``, ``h`` being each
    member's signed step.  A stage argument is then the one product
    ``[1, A[s, :s]] @ Z[:s + 1]``, the new state ``[1, B] @ Z[:13]`` and the
    error estimates ``[E5; E3] @ Z[1:]``.  The derivative at the state stays
    unscaled, for reuse (FSAL).  The controller's special cases are plain
    array arithmetic, so a step hides no warning raised inside ``rhs``.
    Members leave ``Z`` only in a step where one of them ends.
    """
    n, count = y0.shape
    t, t_end = np.full(count, t0, dtype=float), np.full(count, t1, dtype=float)
    direction = 1.0 if t_end[0] > t[0] else -1.0
    clip = np.minimum if direction > 0 else np.maximum
    dense = bool(len(planes)) or samples > 1
    if dense:
        grid = np.linspace(t0, t1, samples)[1:] if samples > 1 else np.empty(0)
        plane_arr = np.asarray(planes, dtype=float)[:, None]
        g = y0[2:3] - plane_arr  # plane-event values, empty without planes
        due = np.zeros(count, dtype=int)
    cuts = [[] for _ in range(count)] if dense else []
    paths = [[] for _ in range(count)] if dense else []
    states = np.empty_like(y0)
    left_box = np.zeros(count, dtype=bool)
    failed = np.zeros(count, dtype=bool)

    # The workspace and the arrays beside it hold the running members only,
    # in ``live`` order; ``f`` is the derivative at ``Z[0]``.
    live = np.arange(count)
    Z = np.empty((_N_STAGES + 2, n, count))
    Z[0] = y0
    f = np.array(rhs(t, y0))
    h_abs = _initial_step(rhs, t, y0, f, t_end, direction, atol, rtol)
    # A member retrying a rejected step may not grow it (SciPy's factor cap).
    cap = np.full(count, MAX_FACTOR)
    while live.size:
        m = live.size
        flat = Z.reshape(len(Z), n * m)
        # SciPy's 10 |nextafter(t) - t|; a retried member passed it already.
        min_step = (np.nextafter(t, direction * np.inf) - t) * (10.0 * direction)
        np.maximum(h_abs, min_step, out=h_abs)
        t_new = clip(t + h_abs if direction > 0 else t - h_abs, t_end)
        h = t_new - t
        times = t + _C_STEP * h
        np.multiply(f, h, out=Z[1])
        for s in range(1, _N_STAGES):  # Z[-1] holds each stage's argument
            np.dot(_A_ROWS[s], flat[:s + 1], out=flat[-1])
            np.multiply(rhs(times[s], Z[-1]), h, out=Z[s + 1])
        y_new = np.dot(_A_ROWS[_N_STAGES], flat[:_N_STAGES + 1]).reshape(n, m)
        f_new = rhs(times[-1], y_new)
        np.multiply(f_new, h, out=Z[-1])

        abs_new = np.abs(y_new)
        scale = np.maximum(np.abs(Z[0]), abs_new)
        scale *= rtol
        scale += atol
        err53 = np.dot(_E53, flat[1:]).reshape(2, n, m)
        err53 /= scale
        err53 *= err53
        err5, err3 = np.add.reduce(err53, axis=1)
        # SciPy's norm, whose factor |h| is in the stages.
        err = err5 / np.sqrt(np.maximum(err5 + 0.01 * err3, _TINY) * n)
        accept = err < 1
        # An error of 0 gives the largest factor, and a NaN error (fmax)
        # the strongest cut, as in SciPy.
        factor = SAFETY * np.maximum(err, _TINY) ** _ERROR_EXPONENT
        h_abs = np.abs(h) * np.fmax(np.minimum(factor, cap), MIN_FACTOR)
        cap = np.where(accept, MAX_FACTOR, 1.0)

        if dense:
            g_new = y_new[2:3] - plane_arr
            hit = accept & (((g <= 0) & (g_new >= 0)) | ((g >= 0) & (g_new <= 0)))
            g = np.where(accept, g_new, g)
            upto = np.where(
                accept, np.searchsorted(direction * grid, direction * t_new, "right"), due
            )
            need = np.flatnonzero(hit.any(axis=0) | (upto > due))
            if need.size:
                sols = _interpolants(rhs, Z, t, t_new, y_new, need)
                for j, sol in zip(need, sols):
                    member = live[j]
                    for p in np.flatnonzero(hit[:, j]):
                        c = planes[p]
                        root = brentq(lambda tau: sol(tau)[2] - c, t[j], t_new[j],
                                      xtol=4 * _EPS, rtol=4 * _EPS)
                        cuts[member].append((c, sol(root)))
                    paths[member].extend(sol(grid[due[j]:upto[j]]).T)
            due = upto

        np.copyto(t, t_new, where=accept)
        np.copyto(Z[0], y_new, where=accept)
        np.copyto(f, f_new, where=accept)
        # Only an accepted step moves ``t``, and it stops exactly at ``t1``.
        stop = t == t_end
        # A NaN step size, from a non-finite state, counts as too small;
        # the ``min_step`` test alone would retry it forever.
        stuck = ~(accept | (h_abs >= min_step))
        stop |= stuck
        if box < math.inf:
            out = accept & (np.maximum.reduce(abs_new) > box)
            stop |= out
        if stop.any():
            states[:, live[stop]] = Z[0][:, stop]
            if box < math.inf:
                left_box[live[out]] = True
            failed[live[stuck]] = True
            keep = np.flatnonzero(~stop)
            live, t, t_end, h_abs, cap = live[keep], t[keep], t_end[keep], h_abs[keep], cap[keep]
            f = f[:, keep]
            if dense:
                due, g = due[keep], g[:, keep]
            y = Z[0][:, keep]
            Z = np.empty((_N_STAGES + 2, n, keep.size))
            Z[0] = y
    return _EnsembleEnd(states, left_box, failed, cuts, paths)


def _interpolants(rhs, Z, t, t_new, y_new, need):
    """SciPy's DOP853 dense output of the step ``t -> t_new`` of members ``need``.

    ``Z`` is the step's ``(14, dim, N)`` workspace (see :func:`_ensemble_dop853`).
    """
    n, k = Z.shape[1], need.size
    tn = t[need]
    hn = t_new[need] - tn
    ext = np.empty((_DOP853.N_STAGES_EXTENDED + 1, n, k))
    ext[:len(Z)] = Z[:, :, need]
    flat = ext.reshape(-1, n * k)
    for s in range(_N_STAGES + 1, _DOP853.N_STAGES_EXTENDED):
        stage = np.dot(_A_ROWS[s], flat[:s + 1]).reshape(n, k)
        np.multiply(rhs(tn + _DOP853.C[s] * hn, stage), hn, out=ext[s + 1])
    delta = y_new[:, need] - ext[0]
    F = np.empty((_DOP853.INTERPOLATOR_POWER, n, k))
    F[0] = delta
    F[1] = ext[1] - delta
    F[2] = 2.0 * delta - (ext[_N_STAGES + 1] + ext[1])
    F[3:] = np.dot(_DOP853.D, flat[1:]).reshape(-1, n, k)
    return [Dop853DenseOutput(tn[j], t_new[need[j]], ext[0, :, j], F[:, :, j]) for j in range(k)]


def divergence_integral(flow: FlowSpec, state, m: int) -> float:
    """Integral of the vector-field divergence along ``m`` strobe periods."""
    n = flow.dim

    def aug_rhs(t: float, y: np.ndarray) -> np.ndarray:
        x = y[:n]
        out = np.empty_like(y)
        out[:n] = flow.rhs(t, x)
        out[n] = flow.jacobian(t, x).trace()
        return out

    y0 = np.concatenate([np.asarray(state, dtype=float), [0.0]])
    return float(_dop853(aug_rhs, y0, 0.0, m * flow.period, flow.abs_tol, flow.rel_tol)[-1])


def liouville_defect(flow: FlowSpec, result: PeriodicOrbitResult) -> float:
    """|log det(monodromy) - integral of divergence| along the orbit.

    Zero in exact arithmetic for any flow; ties the Floquet multipliers to
    the averaged-divergence stability functional.
    """
    prod = 1.0
    for lam in result.multipliers:
        prod *= abs(lam)
    return abs(math.log(prod) - divergence_integral(flow, result.initial_state, result.m))
