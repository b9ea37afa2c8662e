"""Direct numerical verification harness.

Everything the analytic modules predict is checked here by honest
integration: strobed (Poincaré) maps of the time-periodic flows, Newton
shooting for subharmonic orbits with variational monodromy matrices,
single-parameter fold detection (a march along the tracked orbit that
halves its step where the orbit is lost, then bisection of the last
found/lost pair), and stable/unstable manifold traces of saddle orbits
seeded along Floquet eigendirections.

Single trajectories, and the variational equations of single shooting,
are stepped by SciPy's ``DOP853`` class.  Everything that moves many
states at once goes through an in-module NumPy DOP853 ensemble that
applies SciPy's step-size rules to every member separately: the legs of a
multiple-shooting Newton iterate, each carrying its variational columns,
and the chains of a manifold branch, each of which ends as soon as it
leaves the tracing box, mid-strobe included.  The ensemble keeps its
stages, scaled by the step, in one workspace with the states, so a stage
is one product, one right-hand-side call and one scaled store.

One Newton iteration of multiple shooting is one ensemble per
backtracking trial: every leg runs twice, plain (its defect decides the
trial) and with its variational columns, so the accepted trial is already
the next iterate and only the first iterate is integrated on its own.
Single shooting keeps the sequential path: a plain trial, then the
accepted state with its variational equations (see ``find_subharmonic``).

An ensemble member can start from a given step instead of SciPy's initial
step, and reports the step its controller proposed last.  Integrations
that repeat one another start from that remembered step: every Newton
trial of a leg, and every strobe iterate of a manifold chain, so that only
the first integration of a leg or a chain pays for the initial-step rule
and for its short first step.

A flow's periodic forcing does not depend on the state, so a flow can
name it as its ``drive``: the ensemble evaluates the drive once per step,
on all twelve stage times of every member, and hands each batched
right-hand-side call its row of drive values in place of the times.
Single-state calls, and so every ``_dop853`` integration, still receive
the time.

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
#: component (at least one); see ``_shooting_trial``.
_TRIAL_ESCAPE = 1e3

#: Accepted steps per forcing period after which a single-trajectory
#: integration gives up.  The most any workload or ``verify`` experiment
#: takes in one period is 311, in ``verify fold-convergence --case ii``; a
#: trajectory creeping toward a singularity reaches this in about a second.
_MAX_STEPS = 10_000

_N_STAGES = _DOP853.N_STAGES
#: Step-size factors scale with the error norm to this power.
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_EPS = np.finfo(float).eps


def _same_times(t: np.ndarray) -> np.ndarray:
    """The identity drive: a batch receives its times."""
    return t


@dataclass(frozen=True)
class FlowSpec:
    """A time-periodic vector field with its forcing period and tolerances.

    ``rhs(t, state)`` and ``jacobian(t, state)`` must accept any real time;
    ``period`` is the forcing period that defines the strobe section.
    Both must also evaluate a batch: states of shape ``(dim, N)`` with the
    ``(N,)`` values of ``drive`` at their times (below).  ``rhs`` then
    returns the ``(dim, N)`` array whose columns are the single-state
    results, and ``jacobian`` the ``(dim, dim, N)`` array whose
    ``[:, :, j]`` is the Jacobian at column ``j``; a Jacobian that does not
    depend on the state may return one ``(dim, dim)`` matrix instead.  The
    ensemble integrator that moves manifold chains and multiple-shooting
    legs calls them this way.  The single-trajectory stepper, which also
    runs single shooting, calls them on one ``(dim,)`` state at a time, a
    dozen times per step, where NumPy's per-call overhead outweighs the
    arithmetic; so a builder should compute such a call on Python floats,
    as ``scaled_flow`` does, and return a ``(dim,)`` or ``(dim, dim)``
    float64 array.  The batch contract is the same either way, and the two
    paths need only agree to rounding: ``scaled_flow``'s batch forms its
    cubic terms as products where one state uses ``z1**3``, and folds
    ``eps_hat`` into its coefficients and its drive into a forcing
    pre-scaled once by ``eps_hat*delta_big``, where one state multiplies by
    them per call; its branches agree within 1e-15 of the largest
    component.  A batch call must leave its ``t`` and ``state`` arguments
    unchanged: the ensemble reads them again.

    ``drive`` maps an array of times to the array of the same shape that a
    batch call receives in place of the times; it defaults to the identity.
    So a batch ``rhs`` and ``jacobian`` receive ``drive(t)``, while a
    single-state call still receives the time ``t``.  A flow whose time
    dependence is a state-free forcing evaluates that forcing in its
    ``drive``, which the ensemble calls once per step on all stage times,
    and leaves the state arithmetic to the per-stage batch call
    (``scaled_flow`` does this).  A flow whose Jacobian depends on the time
    keeps the identity drive.  ``drive`` must leave its argument unchanged.
    Both tolerances must be finite and positive: SciPy's stepper and the
    ensemble part ways on any other value, or never end.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Callable[[float, np.ndarray], np.ndarray]
    period: float
    dim: int
    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    drive: Callable[[np.ndarray], np.ndarray] = _same_times

    def __post_init__(self) -> None:
        if not (self.period > 0.0):
            raise DomainError(f"period must be positive, got {self.period!r}")
        if self.dim not in (2, 3):
            raise DomainError(f"dimension must be 2 or 3, got {self.dim!r}")
        for name, tol in (("abs_tol", self.abs_tol), ("rel_tol", self.rel_tol)):
            if not 0.0 < tol < math.inf:
                raise DomainError(f"{name} must be finite and positive, got {tol!r}")


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
    # 1e-15 of the largest component, not bit for bit.  The last term is the
    # drive, which a batch receives as ``d``.  The constants are 0-d float64
    # arrays, which NumPy applies to an array without converting them on
    # every call.
    c_om, c_ph, c_a, c_ab, c_3b, c_es2, c_2es2, c_enh = map(
        np.array, (om, ph, a, a * b, 3.0 * b, eh * s2, 2.0 * eh * s2, eh * nh))
    add_cubic = np.add if b > 0 else np.subtract
    scaled_forcing = forcing.scaled(eh * dl)
    top_row = np.array([[0.0], [1.0]])

    def drive(t: np.ndarray) -> np.ndarray:
        x = t * c_om
        x += c_ph
        return scaled_forcing(x)

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        if z.ndim == 1:
            z1, z2 = z.tolist()
            drive = nh * z2 + s2 * z1 * z1 * z2 + dl * forcing(om * t + ph)
            return np.array([z2, a * z1 + b * z1**3 + eh * drive])
        d, z1, z2 = t, z[0], z[1]
        sq = z1 * z1
        damp = sq * c_es2
        damp += c_enh
        damp *= z2
        damp += d
        sq += c_ab
        sq *= z1
        out = z[::-1].copy()  # row 0 is zeta2 and row 1 is written next
        add_cubic(damp, sq, out=out[1])
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
        abs_tol=abs_tol, rel_tol=rel_tol, drive=drive,
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
            period: float = math.inf, box: float = math.inf, t_eval=None) -> np.ndarray:
    """Step SciPy's ``DOP853`` from ``t0`` to ``t1`` exactly as SciPy's own loop does.

    Returns the state at ``t1`` or, for increasing ``t_eval`` in ``[t0, t1]``,
    the ``(len(t_eval), dim)`` states read from each step's dense output.
    Raises `StepFailure` if a step fails, after ``_MAX_STEPS`` accepted steps
    within one ``period`` of integration time (the count restarts whenever
    ``t`` passes ``t0`` plus a whole number of periods) and, for a finite
    ``box``, at the first accepted step with ``max|state| > box``.
    """
    solver = DOP853(rhs, float(t0), np.asarray(state0, dtype=float), float(t1),
                    rtol=rel_tol, atol=abs_tol)
    rows, due, steps, periods = [], 0, 0, 0
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
        passed = int(abs(solver.t - t0) // period)
        if passed > periods:
            steps, periods = 0, passed
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
        ``_MAX_STEPS`` (10,000) steps within one forcing period.
    """
    if t1 < t0:
        raise DomainError(f"need t1 >= t0, got [{t0}, {t1}]")
    if t1 == t0:
        return np.asarray(state0, dtype=float).copy()
    return _dop853(flow.rhs, state0, t0, t1, flow.abs_tol, flow.rel_tol, period=flow.period)


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
    return ts, _dop853(flow.rhs, state0, t0, t1, flow.abs_tol, flow.rel_tol,
                       period=flow.period, t_eval=ts)


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
    yf = _dop853(_variational_rhs(flow), y0, t0, t1, flow.abs_tol, flow.rel_tol,
                 period=flow.period)
    return yf[:n], yf[n:].reshape(n, n)


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
    With several legs, one Newton iteration integrates only its
    backtracking trials.  Each trial is one DOP853 ensemble that holds
    every leg twice, each copy under its own step control: a plain copy,
    whose largest defect decides whether the trial is accepted, and a copy
    with variational columns, whose end states and transition matrices are
    the next iterate once the trial is accepted.  Only the first iterate is
    integrated on its own (an accepted trial whose variational copies fail
    or leave its box is integrated again, without a box).  Every
    integration after the first starts each leg from the step proposed last
    by the variational integration of that leg which gave the current
    iterate, capped by SciPy's initial-step bound where the leg starts now.
    A single leg runs SciPy's DOP853 stepper, one plain integration per
    trial and then the accepted state with its variational equations: one
    ensemble member takes the same steps but pays the ensemble's per-step
    bookkeeping for a single stage call, which makes a period 1.9-2.3
    times slower on the pendulum flow and 2.1-2.5 times slower on the
    scaled flow.  Carrying the variational columns in a single leg's trials
    was measured only together with comparing each trial with the
    variational residual, like with like; that converges more solves and
    makes the benchmark's ``shoot`` workload faster, but it raises that
    workload's tail latency, whose statistic moves with how many
    operations a run holds.  It waits for a tail statistic that does not.
    The returned ``residual`` is the largest leg defect of the converged
    system (for one leg, the full-period return defect), so
    ``residual < tol``.

    Raises
    ------
    DomainError
        If ``guess`` has a non-finite component, ``tol`` is not positive or
        ``max_iter`` is below 1.
    NewtonDivergence
        After ``max_iter`` iterations without the residual dropping below
        ``tol``, when an integration breaks down, or when the shooting
        system becomes singular; the message reports the last residual.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if segments < 1:
        raise DomainError(f"segments must be >= 1, got {segments}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
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
    first_step: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """End states of the legs ``xs[j]`` over ``[times[j], times[j + 1]]``.

    Returns ``(ends, phis, steps)``.  With ``variational`` the legs'
    transition matrices ``phis`` come back too, as a ``(count, dim, dim)``
    array, else ``None``.  Several legs are integrated together as one
    ensemble, leg ``j`` starting from ``first_step[j]`` when given (see
    :func:`_ensemble_dop853`), and ``steps[j]`` is the step its controller
    proposed for its last step.  A single leg goes through :func:`_dop853`,
    which takes the same steps for it faster (see :func:`find_subharmonic`);
    it ignores ``first_step`` and ``steps`` is ``None``.  A leg ends at its
    first accepted step whose state leaves the box ``max|state| <= box``.
    Newton runs the variational path without a box, and
    :func:`_shooting_trial` the plain single leg with one; the plain
    ensemble is the reference that tests hold that function's plain copies
    to.

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
            return end[None], phi[None], None
        end = _dop853(flow.rhs, xs[0], t0, t1, flow.abs_tol, flow.rel_tol,
                      period=flow.period, box=box)
        return end[None], None, None
    if variational:
        rhs = _variational_rhs(flow)
        y0 = np.concatenate([xs.T, np.repeat(np.eye(n).reshape(n * n, 1), count, axis=1)])
    else:
        rhs, y0 = flow.rhs, xs.T
    end = _ensemble_dop853(rhs, flow.drive, y0, times[:-1], times[1:], flow.abs_tol,
                           flow.rel_tol, box=box, state_rows=n, first_step=first_step)
    if end.failed.any() or end.left_box.any():
        j = int(np.flatnonzero(end.failed | end.left_box)[0])
        why = (f"step size below the spacing between numbers, or no end after "
               f"{_MAX_STEPS} step attempts." if end.failed[j]
               else f"left the box max|state| <= {box:g}.")
        raise StepFailure(f"integration failed on [{times[j]}, {times[j + 1]}]: {why}")
    phis = end.states[n:].T.reshape(count, n, n) if variational else None
    return end.states[:n].T, phis, end.last_step


def _variational_rhs(flow: FlowSpec):
    """The flow with its transition matrix, ``dim + dim*dim`` rows per member.

    One state (a 1-D ``y``) and a batch (one column per member) share it;
    a batch's first argument is the flow's drive values, which it forwards.
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


def _shooting_trial(
    flow: FlowSpec, xs: np.ndarray, times: np.ndarray, first_step: np.ndarray | None = None
) -> tuple[float, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Largest leg defect of a backtracking trial, with the trial's variational legs.

    Returns ``(defect, ends, legs, steps)``.  ``defect`` is ``inf`` if a leg fails
    or escapes.  A leg escapes when it leaves the box ``max|state| <= box``,
    ``box`` being ``_TRIAL_ESCAPE`` times the trial's largest component (at
    least one), and the trial is then rejected whatever its end.  In the
    cubic scaled flow such a leg is on its way to a finite-time blow-up, and
    following it down to the integrator's step-size floor cost about 5,400
    right-hand-side evaluations, where a whole period takes about 300.

    A single leg is one plain :func:`_integrate_legs` integration, and
    ``ends``, ``legs`` and ``steps`` are ``None``.  Several legs run as one
    ensemble that holds two copies of every leg, each boxed on its state
    rows only and both starting from ``first_step[j]`` when given.  The
    plain copy has zero transition columns, which stay zero, and its error
    norm and initial step count only its state rows, so it takes the steps
    of a plain integration; its ends give ``defect``.  The variational copy
    starts from the identity; its end states and transition matrices are
    ``ends`` and ``legs``, and the steps their controllers proposed last are
    ``steps``, as :func:`_integrate_legs` returns them, so an accepted trial
    is the next Newton iterate without a further integration.  They are
    ``None`` if a variational copy fails or its state leaves the box, or if
    the trial escapes; an escaping or failing plain copy ends the whole
    ensemble at once.
    """
    count, n = xs.shape
    box = _TRIAL_ESCAPE * max(1.0, float(np.max(np.abs(xs))))
    if count == 1:
        try:
            ends, _, _ = _integrate_legs(flow, xs, times, variational=False, box=box)
        except StepFailure:
            return math.inf, None, None, None
        return float(np.max(np.abs(ends[0] - xs[0]))), None, None, None
    eye = np.eye(n).reshape(n * n, 1)
    y0 = np.concatenate([np.tile(xs.T, 2),
                         np.repeat(np.hstack([np.zeros_like(eye), eye]), count, axis=1)])
    end = _ensemble_dop853(
        _variational_rhs(flow), flow.drive, y0, np.tile(times[:-1], 2), np.tile(times[1:], 2),
        flow.abs_tol, flow.rel_tol, box=box, state_rows=n,
        norm_rows=np.repeat([n, n + n * n], count), decisive=count,
        first_step=None if first_step is None else np.tile(first_step, 2),
    )
    ended = end.failed | end.left_box
    if ended[:count].any():
        return math.inf, None, None, None
    defect = float(np.max(np.abs(end.states[:n, :count].T - np.roll(xs, -1, axis=0))))
    if ended[count:].any():
        return defect, None, None, None
    return (defect, end.states[:n, count:].T, end.states[n:, count:].T.reshape(count, n, n),
            end.last_step[count:])


def _newton_orbit(
    flow: FlowSpec, m: int, guess: np.ndarray, tol: float, max_iter: int, segments: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Damped Newton on the ``segments``-leg shooting system.

    Returns the converged state at time 0, the monodromy over ``m`` periods
    (the product of the legs' transition matrices) and the residual.  An
    iterate's variational legs come from the accepted backtracking trial
    when it carries them (see :func:`_shooting_trial`), and are integrated
    otherwise.  With several legs, every integration after the first starts
    leg ``j`` from the step proposed last by the variational integration of
    leg ``j`` that gave the current iterate.
    """
    n = flow.dim
    count = int(segments)
    times = np.linspace(0.0, m * flow.period, count + 1)
    # A constant chain is a safe seed: each leg is short, so even a crude
    # guess cannot be amplified into an escape the way a full period can.
    xs = np.tile(np.asarray(guess, dtype=float), (count, 1))
    eye = np.eye(n)
    residual = math.inf
    legs = steps = None
    for _ in range(max_iter):
        if legs is None:
            try:
                ends, legs, steps = _integrate_legs(flow, xs, times, variational=True,
                                                    first_step=steps)
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
        # quadratic convergence near the root is untouched).  The iterate
        # after twelve rejections is a step no trial integrated.
        damping = 1.0
        for _ in range(12):
            defect, ends, legs, proposed = _shooting_trial(flow, xs + damping * step, times,
                                                           steps)
            if defect < residual:
                break
            damping *= 0.5
        else:
            legs = None
        if legs is not None:
            steps = proposed
        xs = xs + damping * step
    raise NewtonDivergence(
        f"no convergence after {max_iter} iterations (last residual {residual!r})"
    )


def detect_saddle_node(
    flow_family: Callable[[float], FlowSpec],
    m: int,
    start: float,
    state,
    limit: float,
    *,
    step: float,
    param_tol: float = 1e-6,
    max_jump: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> float:
    """Fold of a subharmonic orbit tracked in a one-parameter family.

    ``flow_family(p)`` builds the flow at parameter ``p``, and ``state`` is
    the tracked orbit's initial state at ``start``.  The orbit is found at
    ``p`` when Newton converges from the latest found state without jumping
    further than ``max_jump`` (past a fold the tracked orbit is gone, and a
    far convergence is onto another orbit).  The search marches from
    ``start`` toward ``limit`` in steps of ``step``, halving the step on
    each loss until it is below a tenth of ``step``; a lost parameter is
    tried again after a later success, from the closer state, which
    recovers a tracking loss short of the fold.  It then bisects the last
    found and lost parameters from the latest found state, without probing
    either again, and returns their midpoint once they are ``param_tol``
    apart, or adjacent floats.

    Raises
    ------
    DomainError
        If ``step`` or ``param_tol`` is not positive.
    NoFoldInBracket
        If the orbit is still found at ``limit``.
    """
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    if not param_tol > 0.0:
        raise DomainError(f"param_tol must be positive, got {param_tol!r}")

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

    limit = float(limit)
    found, lost = float(start), limit
    state = np.asarray(state, dtype=float)
    floor = 0.1 * step
    step = math.copysign(step, limit - found)
    while abs(step) >= floor:
        trial = found + step
        if (trial - limit) * step >= 0.0:
            trial = limit
        state_trial = probe(trial, state)
        if state_trial is None:
            lost = trial
            step *= 0.5
        elif trial == limit:
            raise NoFoldInBracket(f"orbit still exists at the limit {limit}")
        else:
            found, state = trial, state_trial

    while abs(lost - found) > param_tol:
        mid = 0.5 * (found + lost)
        if mid in (found, lost):  # no float lies between them
            break
        state_mid = probe(mid, state)
        if state_mid is None:
            lost = mid
        else:
            found, state = mid, state_mid
    return 0.5 * (found + lost)


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
    control, so each chain takes the steps a lone integration started with
    its remembered step would take: from the second iterate on, a chain
    starts from the step its controller proposed last in the iterate before.
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
        steps = np.full(count, math.nan)
        for iterate in range(1, max_iterates + 1):
            if not live.size:
                break
            end = _ensemble_dop853(
                flow.rhs, flow.drive, heads[:, live], t0, t1, flow.abs_tol, flow.rel_tol,
                box=box, planes=planes, samples=path_samples,
                first_step=steps[live] if iterate > 1 else None,
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
            steps[live] = end.last_step[inside][go_on]
        return ManifoldTrace(
            branch=branch,
            points=tuple(pts),
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
    whose step size fell below SciPy's ``min_step``, that made
    ``_MAX_STEPS`` step attempts without reaching ``t1``, or that a
    decisive member's end stopped (see :func:`_ensemble_dop853`).
    ``last_step[j]`` is the step member ``j``'s controller proposed for its
    last step, before that step was cut to land on ``t1``; it is meant as
    the first step of a member that reached ``t1``, and is NaN for a member
    that a decisive member's end stopped.
    ``cuts[j]`` lists ``(plane, state)`` crossings and ``paths[j]`` the
    dense samples, both in time order up to the member's end; without
    planes or samples both are [].
    """

    states: np.ndarray
    left_box: np.ndarray
    failed: np.ndarray
    last_step: np.ndarray
    cuts: list[list[tuple[float, np.ndarray]]]
    paths: list[list[np.ndarray]]


def _rms(x: np.ndarray, rows: np.ndarray, axis: int = 0) -> np.ndarray:
    """SciPy's RMS norm along ``axis`` of ``rows`` components per column, any
    further ones being zero; squares ``x`` in place."""
    x *= x
    return np.sqrt(np.add.reduce(x, axis=axis)) / np.sqrt(rows)


def _initial_step(rhs, drive, t0: np.ndarray, y0, f0, t1: np.ndarray, direction: float,
                  abs_tol: float, rel_tol: float, rows: np.ndarray,
                  first_step: np.ndarray | None = None) -> np.ndarray:
    """Each column's first step, clipped to its interval.

    Without ``first_step``, SciPy's ``select_initial_step`` for DOP853, whose
    norms count ``rows[j]`` components (see :func:`_ensemble_dop853`).  With
    it, ``first_step`` capped by that rule's bound 100*h0 = d0/d1, which
    costs no right-hand-side call; ``y0`` and ``f0`` are then the state rows
    only, whose count ``rows`` gives.
    """
    interval = abs(t1 - t0)
    scale = abs_tol + np.abs(y0) * rel_tol
    with np.errstate(divide="ignore", invalid="ignore"):
        d0, d1 = _rms(np.array([y0, f0]) / scale, rows, axis=1)
        # fmin ignores a NaN as SciPy's ``d0 < 1e-5 or d1 < 1e-5`` does.
        h0 = np.where(np.fmin(d0, d1) < 1e-5, 1e-6, 0.01 * d0 / d1)
        if first_step is not None:
            return np.minimum(np.minimum(first_step, 100.0 * h0), interval)
        h0 = np.minimum(h0, interval)
        step = h0 * direction
        f1 = rhs(drive(t0 + step), y0 + step * f0)
        d12 = np.maximum(d1, _rms((f1 - f0) / scale, rows) / h0)
        h1 = np.where(d12 <= 1e-15, np.maximum(1e-6, h0 * 1e-3), (0.01 / d12) ** -_ERROR_EXPONENT)
    return np.minimum(np.minimum(100.0 * h0, h1), interval)


#: Stage weights ``[1, A[s, :s]]`` of the extended tableau, 1 weighing the
#: state; row 12 is ``[1, B]``, the 8th-order solution.
_A_ROWS = [np.append(1.0, _DOP853.A[s, :s]) for s in range(_DOP853.N_STAGES_EXTENDED)]
#: Time fractions of stages 1 to 11 and, last, 1: the closing evaluation at
#: ``t + h`` (stage 0 is the derivative at the state, known from the step before).
_C_STEP = _DOP853.C[1:_N_STAGES + 1, None]
#: Time fractions of the interpolant's three extra stages.
_C_EXTRA = _DOP853.C[_N_STAGES + 1:, None]
#: The 5th- and 3rd-order error estimators, one row each.
_E53 = np.stack([_DOP853.E5, _DOP853.E3])
#: Smallest positive double: a floor that leaves every positive value as it is.
_TINY = math.ulp(0.0)


def _workspace(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """An ensemble workspace ``Z`` of shape ``(14, n, m)`` and its flat rows,
    padded with zero columns to a multiple of 16.

    BLAS forms a product's columns in blocks and the last few in a remainder
    loop whose rounding can differ.  Padded, the stage products reach no
    member there, so a member's steps do not depend on which members share
    its ensemble.
    """
    flat = np.zeros((_N_STAGES + 2, -(-n * m // 16) * 16))
    return flat[:, :n * m].reshape(len(flat), n, m), flat


def _ensemble_dop853(
    rhs,
    drive,
    y0: np.ndarray,
    t0,
    t1,
    atol: float,
    rtol: float,
    *,
    box: float = math.inf,
    planes: Sequence[float] = (),
    samples: int = 0,
    state_rows: int | None = None,
    norm_rows: np.ndarray | None = None,
    decisive: int = 0,
    first_step: np.ndarray | None = None,
) -> _EnsembleEnd:
    """Integrate the columns of ``y0`` (shape ``(dim, N)``) from ``t0`` to ``t1``.

    ``t0`` and ``t1`` are floats or ``(N,)`` arrays of per-member times; all
    members run in one time direction.  Every column is one member that
    follows SciPy's DOP853 rules on its own: initial step, error norm, step
    controller and the ``min_step`` failure, so it takes the steps
    :func:`_dop853` would take for it alone, up to rounding.  Member ``j``
    given ``first_step[j]`` (SciPy's ``first_step``, an absolute value)
    starts from it instead, clipped to its interval and capped by the
    initial-step rule's bound 100*h0 = d0/d1 on its ``state_rows``, which
    needs no further right-hand-side call: a step remembered from another
    integration can be far too long where the member now starts.  Each
    member's end reports the step it last tried (see :class:`_EnsembleEnd`).
    The members share each stage's right-hand-side call, ``rhs(d, Y)`` with
    ``Y`` of shape ``(dim, N)`` and ``d = drive(t)``, the flow's drive at
    the stage times ``t`` of shape ``(N,)`` (see :class:`FlowSpec`).  The
    drive is required, as passing the times to a flow that expects its
    drive values gives wrong states without an error.  It is evaluated once
    per step, on the ``(12, N)`` times of the step's stages after the first
    and of its closing evaluation, and once for each other batch of times:
    the start, the initial-step probe and an interpolant's extra stages.
    A member ends at its ``t1``, at its first accepted step whose leading
    ``state_rows`` rows (default all) have ``max|state| > box``, or on step
    failure: a step size below SciPy's ``min_step``, or no end after
    ``_MAX_STEPS`` step attempts.  That budget counts rejected steps too,
    where :func:`_dop853` counts accepted ones, and so costs no work per
    step.  Member ``j``'s
    error norm and initial step count ``norm_rows[j]`` rows (default all),
    and its further rows must stay zero: a plain multiple-shooting leg
    carries zero transition columns, which its Jacobian keeps at zero, and
    so takes the steps it takes without them.  Once one of the first
    ``decisive`` members fails or leaves the box, every member still
    running ends too, as failed where it is: a multiple-shooting trial with
    such a plain leg is rejected whatever its other legs do.
    Plane crossings ``state_3 = c`` are located by ``brentq`` on
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
    Members leave ``Z`` only in a step where one of them ends.  Its flat
    rows are padded (see :func:`_workspace`), so a member's steps do not
    depend on the other members.
    """
    n, count = y0.shape
    state_rows = n if state_rows is None else state_rows
    rows = np.full(count, float(n)) if norm_rows is None else np.asarray(norm_rows, dtype=float)
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
    last_step = np.full(count, math.nan)

    # The workspace and the arrays beside it hold the running members only,
    # in ``live`` order; ``f`` is the derivative at ``Z[0]``.
    live = np.arange(count)
    Z, flat = _workspace(n, count)
    Z[0] = y0
    f = np.array(rhs(drive(t), y0))
    if first_step is None:
        h_abs = _initial_step(rhs, drive, t, y0, f, t_end, direction, atol, rtol, rows)
    else:
        h_abs = _initial_step(rhs, drive, t, y0[:state_rows], f[:state_rows], t_end,
                              direction, atol, rtol, float(state_rows), first_step)
    # A member retrying a rejected step may not grow it (SciPy's factor cap).
    cap = np.full(count, MAX_FACTOR)
    # Every member starts at once, so its step attempts are the loop's.
    attempts = 0
    while live.size:
        m = live.size
        # SciPy's 10 |nextafter(t) - t|; a retried member passed it already.
        min_step = (np.nextafter(t, direction * np.inf) - t) * (10.0 * direction)
        np.maximum(h_abs, min_step, out=h_abs)
        proposed = h_abs
        t_new = clip(t + h_abs if direction > 0 else t - h_abs, t_end)
        h = t_new - t
        d = drive(t + _C_STEP * h)  # row s - 1 drives stage s
        np.multiply(f, h, out=Z[1])
        for s in range(1, _N_STAGES):  # Z[-1] holds each stage's argument
            np.dot(_A_ROWS[s], flat[:s + 1], out=flat[-1])
            np.multiply(rhs(d[s - 1], Z[-1]), h, out=Z[s + 1])
        y_new = np.dot(_A_ROWS[_N_STAGES], flat[:_N_STAGES + 1])[:n * m].reshape(n, m)
        f_new = rhs(d[-1], y_new)
        np.multiply(f_new, h, out=Z[-1])

        abs_new = np.abs(y_new)
        scale = np.maximum(np.abs(Z[0]), abs_new)
        scale *= rtol
        scale += atol
        err53 = np.dot(_E53, flat[1:])[:, :n * m].reshape(2, n, m)
        err53 /= scale
        err53 *= err53
        err5, err3 = np.add.reduce(err53, axis=1)
        # SciPy's norm, whose factor |h| is in the stages.
        err = err5 / np.sqrt(np.maximum(err5 + 0.01 * err3, _TINY) * rows)
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
                sols = _interpolants(rhs, drive, Z, t, t_new, y_new, need)
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
        attempts += 1
        if attempts == _MAX_STEPS:
            stuck |= ~stop
        stop |= stuck
        if box < math.inf:
            out = accept & (np.maximum.reduce(abs_new[:state_rows]) > box)
            stop |= out
        if stop.any():
            states[:, live[stop]] = Z[0][:, stop]
            last_step[live[stop]] = proposed[stop]
            if box < math.inf:
                left_box[live[out]] = True
            failed[live[stuck]] = True
            if (failed[:decisive] | left_box[:decisive]).any():
                states[:, live[~stop]] = Z[0][:, ~stop]
                failed[live[~stop]] = True
                break
            keep = np.flatnonzero(~stop)
            live, t, t_end, h_abs, cap = live[keep], t[keep], t_end[keep], h_abs[keep], cap[keep]
            rows, f = rows[keep], f[:, keep]
            if dense:
                due, g = due[keep], g[:, keep]
            y = Z[0][:, keep]
            Z, flat = _workspace(n, keep.size)
            Z[0] = y
    return _EnsembleEnd(states, left_box, failed, last_step, cuts, paths)


def _interpolants(rhs, drive, Z, t, t_new, y_new, need):
    """SciPy's DOP853 dense output of the step ``t -> t_new`` of members ``need``.

    ``Z`` is the step's ``(14, dim, N)`` workspace (see :func:`_ensemble_dop853`).
    """
    n, k = Z.shape[1], need.size
    tn = t[need]
    hn = t_new[need] - tn
    d = drive(tn + _C_EXTRA * hn)
    ext = np.empty((_DOP853.N_STAGES_EXTENDED + 1, n, k))
    ext[:len(Z)] = Z[:, :, need]
    flat = ext.reshape(-1, n * k)
    for s, ds in zip(range(_N_STAGES + 1, _DOP853.N_STAGES_EXTENDED), d):
        stage = np.dot(_A_ROWS[s], flat[:s + 1]).reshape(n, k)
        np.multiply(rhs(ds, stage), hn, out=ext[s + 1])
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
    end = _dop853(aug_rhs, y0, 0.0, m * flow.period, flow.abs_tol, flow.rel_tol,
                  period=flow.period)
    return float(end[-1])


def liouville_defect(flow: FlowSpec, result: PeriodicOrbitResult) -> float:
    """|log det(monodromy) - integral of divergence| along the orbit.

    Zero in exact arithmetic for any flow; ties the Floquet multipliers to
    the averaged-divergence stability functional.
    """
    prod = 1.0
    for lam in result.multipliers:
        prod *= abs(lam)
    return abs(math.log(prod) - divergence_integral(flow, result.initial_state, result.m))
