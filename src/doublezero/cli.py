"""Command-line interface for the double-zero bifurcation toolkit.

Subcommands
-----------
``reduce``
    Map servo-pendulum parameters to normal-form and rescaled parameters.
``curves``
    Emit predicted bifurcation curves: the unforced skeleton, persistence
    and saddle-node lines in the rescaled parameter plane, or their
    pullbacks to the pendulum gain plane.
``simulate``
    Integrate the rescaled planar flow or the full pendulum and write the
    trajectory (dense samples or strobe-map iterates) as CSV.
``manifolds``
    Locate a saddle orbit of the strobe map and trace its stable/unstable
    manifold branches.
``verify``
    Run one of the built-in verification experiments and write a JSON
    report; exits nonzero when a check fails.

Conventions
-----------
* Exit codes: ``0`` success, ``2`` configuration/domain error, ``3``
  numerical failure, ``4`` verification failure.
* Any subcommand accepts ``--config FILE`` with ``key = value`` lines
  (``#`` comments); explicit flags override file values.
* Outputs are deterministic byte-for-byte: floats carry 17 significant
  digits, rows use LF line endings, and every file embeds the fully
  resolved parameter set (``#`` header comments in CSV, a ``parameters``
  object in JSON).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .bifurcation import (
    heteroclinic_curves,
    homoclinic_curves,
    saddle_node_curves,
    unperturbed_diagram,
)
from .dynamics import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    FlowSpec,
    ManifoldBranch,
    OrbitClass,
    PeriodicOrbitResult,
    detect_saddle_node,
    find_subharmonic,
    pendulum_flow,
    poincare_map,
    scaled_flow,
    scaled_flow_from,
    trace_manifolds,
    trajectory,
)
from .errors import (
    DegeneracyError,
    DegenerateL,
    DomainError,
    DoubleZeroError,
    NewtonDivergence,
    NoFoldInBracket,
    NoResonance,
    NotASaddle,
    ParityError,
    ResonanceViolation,
    StepFailure,
)
from .fourier import TrigPolynomial, cosine
from .melnikov import (
    fourier_weight_het,
    fourier_weight_hom,
    h_hat,
    h_hat_subharmonic,
    j_integrals,
    melnikov_separatrix,
    melnikov_subharmonic,
    separatrix_constants,
)
from .normalform import reduce as reduce_normal_form
from .orbits import (
    FamilyKind,
    FamilyTag,
    evaluate,
    modulus_range,
    period,
    resonant_modulus,
    unperturbed_rhs,
)
from .pendulum import (
    FAMILY_THETA0,
    PendulumParams,
    Theta0,
    _half_period_ratio,
    calibrated_params,
    codim2_locus,
    example_theta_zero,
    prediction_curves,
    reduce_pendulum,
    taylor_coefficients,
)


class ConfigError(DoubleZeroError):
    """Bad command line, config file, or inconsistent options."""


#: Exceptions that signal a configuration/domain problem (exit code 2).
_CONFIG_EXIT = (ConfigError, DomainError, DegeneracyError, ParityError)

#: Exceptions that signal a numerical failure (exit code 3).
_NUMERICAL_EXIT = (
    StepFailure,
    NewtonDivergence,
    NoFoldInBracket,
    NoResonance,
    ResonanceViolation,
    DegenerateL,
    NotASaddle,
)

_SQRT2 = math.sqrt(2.0)

_PERIODIC_TAG_NAMES = ("inside-het", "global", "inside-hom", "outside-hom")
_FAMILY_NAMES = ("het", "hom") + _PERIODIC_TAG_NAMES


# --------------------------------------------------------------------------
# formatting and output helpers
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    """Deterministic text form of one field (17 significant digits)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@contextlib.contextmanager
def _open_output(path: str):
    """Writable text stream for ``path``; ``-`` means standard output."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            yield stream


def _write_csv(stream, fieldnames: Sequence[str], rows: Sequence[dict], params: dict) -> None:
    for key in sorted(params):
        stream.write(f"# {key} = {_fmt(params[key])}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def _write_json(stream, payload: dict) -> None:
    json.dump(_jsonable(payload), stream, indent=2, sort_keys=True)
    stream.write("\n")


def _parse_floats(text: str, what: str, expected: int | None = None) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma-separated numbers, got {text!r}") from exc
    if expected is not None and len(values) != expected:
        raise ConfigError(f"{what} needs {expected} components, got {len(values)}")
    return values


# --------------------------------------------------------------------------
# shared flag groups and object builders
# --------------------------------------------------------------------------


def _add_pendulum_flags(sub: argparse.ArgumentParser, *, require_gains: bool) -> None:
    g = sub.add_argument_group("pendulum parameters")
    g.add_argument("--alpha", type=float, required=require_gains, help="velocity feedback gain")
    g.add_argument("--gamma", type=float, required=require_gains, help="position feedback gain")
    g.add_argument("--theta0", choices=("zero", "pi"), default=None,
                   help="operating configuration (default: zero)")
    g.add_argument("--delta0", type=float, default=None,
                   help="pendulum damping (default from the configuration's study case)")
    g.add_argument("--delta1", type=float, default=None,
                   help="servo damping feedback (default from the study case)")
    g.add_argument("--beta", type=float, default=None,
                   help="command amplitude factor (default from the study case)")
    g.add_argument("--omega", type=float, default=1.0, help="forcing frequency")
    g.add_argument("--eps", type=float, default=0.0, help="forcing strength")


def _pendulum_from(ns: argparse.Namespace, *, default_theta0: Theta0 = Theta0.ZERO) -> PendulumParams:
    theta0 = (
        default_theta0 if ns.theta0 is None
        else (Theta0.ZERO if ns.theta0 == "zero" else Theta0.PI)
    )
    hanging = theta0 is Theta0.ZERO
    delta0 = ns.delta0 if ns.delta0 is not None else (0.2 if hanging else 0.5)
    delta1 = ns.delta1 if ns.delta1 is not None else (-1.2 if hanging else 0.5)
    beta = ns.beta if ns.beta is not None else 5.0
    return PendulumParams(
        alpha=ns.alpha, gamma=ns.gamma, delta0=delta0, delta1=delta1,
        beta=beta, omega=ns.omega, theta0=theta0, eps=ns.eps,
    )


def _pendulum_params_dict(p: PendulumParams) -> dict:
    return {
        "alpha": p.alpha, "gamma": p.gamma, "delta0": p.delta0,
        "delta1": p.delta1, "beta": p.beta, "omega": p.omega,
        "eps": p.eps, "theta0": p.theta0.value,
    }


def _add_scaled_flags(sub: argparse.ArgumentParser) -> None:
    g = sub.add_argument_group("rescaled-flow parameters")
    g.add_argument("--s1", type=int, choices=(-1, 1), default=1,
                   help="sign of the cubic restoring coefficient")
    g.add_argument("--s2", type=int, choices=(-1, 1), default=1,
                   help="sign of the cubic damping coefficient")
    g.add_argument("--nu1-sign", type=int, choices=(-1, 1), default=-1,
                   help="half-plane of the linear coefficient")
    g.add_argument("--eps-hat", type=float, default=0.05, help="rescaling parameter")
    g.add_argument("--nu-hat", type=float, default=0.0, help="rescaled damping coefficient")
    g.add_argument("--omega-hat", type=float, default=1.0, help="rescaled forcing frequency")
    g.add_argument("--delta", type=float, default=1.0, help="rescaled forcing ratio")
    g.add_argument("--amplitude", type=float, default=1.0, help="forcing profile amplitude")
    g.add_argument("--harmonic", type=int, default=1, help="forcing profile harmonic")
    g.add_argument("--phase", type=float, default=0.0, help="forcing phase offset")


def _scaled_flow_from_ns(ns: argparse.Namespace) -> tuple[FlowSpec, dict]:
    forcing = cosine(ns.amplitude, ns.harmonic)
    flow = scaled_flow(
        s1=ns.s1, s2=ns.s2, nu1_sign=ns.nu1_sign, eps_hat=ns.eps_hat,
        nu_hat=ns.nu_hat, omega_hat=ns.omega_hat, delta_big=ns.delta,
        forcing=forcing, phase=ns.phase,
        abs_tol=ns.abs_tol, rel_tol=ns.rel_tol,
    )
    params = {
        "system": "scaled", "s1": ns.s1, "s2": ns.s2, "nu1_sign": ns.nu1_sign,
        "eps_hat": ns.eps_hat, "nu_hat": ns.nu_hat, "omega_hat": ns.omega_hat,
        "delta": ns.delta, "amplitude": ns.amplitude, "harmonic": ns.harmonic,
        "phase": ns.phase, "abs_tol": ns.abs_tol, "rel_tol": ns.rel_tol,
    }
    return flow, params


def _flow_from_ns(ns: argparse.Namespace) -> tuple[FlowSpec, dict]:
    if ns.system == "scaled":
        return _scaled_flow_from_ns(ns)
    if ns.alpha is None or ns.gamma is None:
        raise ConfigError("--alpha and --gamma are required for --system pendulum")
    p = _pendulum_from(ns)
    flow = pendulum_flow(p, abs_tol=ns.abs_tol, rel_tol=ns.rel_tol)
    params = {"system": "pendulum", "abs_tol": ns.abs_tol, "rel_tol": ns.rel_tol}
    params.update(_pendulum_params_dict(p))
    return flow, params


def _family_tag(name: str) -> FamilyTag:
    for tag in FamilyTag:
        if tag.value == name:
            return tag
    raise ConfigError(f"unknown orbit family {name!r}")


def _trig_terms(poly: TrigPolynomial) -> dict:
    return {
        "cos_terms": [[int(j), float(a)] for j, a in poly.cos_terms],
        "sin_terms": [[int(j), float(a)] for j, a in poly.sin_terms],
    }


# --------------------------------------------------------------------------
# reduce
# --------------------------------------------------------------------------


def cmd_reduce(ns: argparse.Namespace) -> int:
    p = _pendulum_from(ns)
    loc = codim2_locus(p)
    scaled = None
    calibration = None
    if ns.calibrate_omega_hat is not None:
        p, eps_hat = calibrated_params(p, ns.calibrate_omega_hat)
        nf, scaled = reduce_pendulum(p)
        calibration = {"target_omega_hat": ns.calibrate_omega_hat, "eps_hat": eps_hat}
    elif p.eps > 0.0:
        nf, scaled = reduce_pendulum(p)
    else:
        # Unforced: only the normal-form block is defined.  The generic
        # Taylor-data route is used here; the closed-form route must agree
        # with it (a consistency the test suite checks at tight tolerance).
        nf = reduce_normal_form(
            taylor_coefficients(p), (loc.alpha1, loc.gamma1), p.omega
        )

    payload = {
        "input": _pendulum_params_dict(p),
        "double_zero_point": {
            "alpha0": loc.alpha0, "gamma0": loc.gamma0,
            "alpha_offset": loc.alpha1, "gamma_offset": loc.gamma1,
        },
        "normal_form": {
            "nu1": nf.nu1, "nu2": nf.nu2, "s1": nf.s1, "s2": nf.s2,
            "omega_bar": nf.omega_bar, "c": nf.c, "d": nf.d,
            "forcing": _trig_terms(nf.h),
        },
        "scaled": None if scaled is None else {
            "eps_hat": scaled.eps_hat, "nu_hat": scaled.nu_hat,
            "omega_hat": scaled.omega_hat, "delta": scaled.delta_big,
            "branch": scaled.branch.value,
        },
    }
    if calibration is not None:
        payload["calibration"] = calibration

    if ns.format == "json":
        with _open_output(ns.output) as stream:
            _write_json(stream, payload)
        return 0

    row = dict(payload["input"])
    row.update({
        "alpha0": loc.alpha0, "gamma0": loc.gamma0,
        "nu1": nf.nu1, "nu2": nf.nu2, "s1": nf.s1, "s2": nf.s2,
        "omega_bar": nf.omega_bar, "c": nf.c, "d": nf.d,
        "forcing_amplitude": dict(nf.h.cos_terms).get(1, 0.0),
    })
    if scaled is not None:
        row.update({
            "eps_hat": scaled.eps_hat, "nu_hat": scaled.nu_hat,
            "omega_hat": scaled.omega_hat, "delta": scaled.delta_big,
            "branch": scaled.branch.value,
        })
    fields = [
        "alpha", "gamma", "delta0", "delta1", "beta", "omega", "eps", "theta0",
        "alpha0", "gamma0", "nu1", "nu2", "s1", "s2", "omega_bar", "c", "d",
        "forcing_amplitude", "eps_hat", "nu_hat", "omega_hat", "delta", "branch",
    ]
    with _open_output(ns.output) as stream:
        _write_csv(stream, fields, [row], payload["input"])
    return 0


# --------------------------------------------------------------------------
# curves
# --------------------------------------------------------------------------

_CURVE_FIELDS = ("kind", "slope", "nu1_sign", "m", "n", "family", "extremum", "note")
_PLANE_FIELDS = ("alpha", "gamma", "kind", "m", "n", "extremum", "curve_set")


def _scaled_plane_records(ns: argparse.Namespace, tag: FamilyTag) -> tuple[list[dict], dict]:
    forcing = cosine(ns.amplitude, ns.harmonic)
    params = {
        "mode": "scaled", "family": tag.value, "s2": ns.s2, "delta": ns.delta,
        "omega_hat": ns.omega_hat, "amplitude": ns.amplitude, "harmonic": ns.harmonic,
    }
    if tag is FamilyTag.HET_PAIR:
        profile = h_hat(forcing, tag, ns.omega_hat)
        curves = heteroclinic_curves(ns.s2, ns.delta, profile)
    elif tag is FamilyTag.HOM_PAIR:
        profile = h_hat(forcing, tag, ns.omega_hat)
        curves = homoclinic_curves(ns.s2, ns.delta, profile)
    else:
        k = resonant_modulus(tag, ns.m, ns.n, ns.omega_hat)
        j = j_integrals(tag, k, ns.n)
        profile = h_hat_subharmonic(forcing, tag, k, ns.m, ns.n, ns.omega_hat)
        curves = saddle_node_curves(ns.s2, ns.delta, ns.m, profile, j)
        params.update({"m": ns.m, "n": ns.n, "modulus": float(k)})
    records = []
    for curve in curves:
        rec = curve.as_record()
        rec["note"] = curve.label.note
        records.append(rec)
    return records, params


def cmd_curves(ns: argparse.Namespace) -> int:
    if ns.unperturbed and ns.family is not None:
        raise ConfigError("--unperturbed and --family are mutually exclusive")
    if not ns.unperturbed and ns.family is None:
        raise ConfigError("choose a curve set: --unperturbed or --family NAME")
    if ns.scaled and ns.unperturbed:
        raise ConfigError("--scaled applies only with --family")

    if ns.unperturbed:
        records = []
        for curve in unperturbed_diagram(ns.s1, ns.s2):
            rec = curve.as_record()
            rec["note"] = curve.label.note
            records.append(rec)
        params = {"mode": "unperturbed", "s1": ns.s1, "s2": ns.s2}
        fields = _CURVE_FIELDS
    else:
        tag = _family_tag(ns.family)
        if ns.scaled:
            records, params = _scaled_plane_records(ns, tag)
            fields = _CURVE_FIELDS
        else:
            if ns.samples < 1:
                raise DomainError(
                    f"the gain-plane sweep needs at least one sample, got {ns.samples}"
                )
            ns.theta0 = ns.theta0 or FAMILY_THETA0[tag].value
            hanging = ns.theta0 == "zero"
            if ns.alpha is None or ns.gamma is None:
                # The ray pullback only needs the study case's constants and
                # its double-zero point, so default the gains to that point.
                alpha0 = 1.0
                gamma0 = alpha0 if not hanging else -alpha0
                ns.alpha = alpha0 if ns.alpha is None else ns.alpha
                ns.gamma = gamma0 if ns.gamma is None else ns.gamma
            p = _pendulum_from(ns)
            curves = prediction_curves(
                p, tag, ns.m, ns.omega_hat, ns.delta,
                extent=ns.extent, samples=ns.samples,
            )
            records = [rec for curve in curves for rec in curve.as_records()]
            params = _pendulum_params_dict(p)
            params.update({
                "mode": "pendulum", "family": tag.value, "m": ns.m,
                "omega_hat": ns.omega_hat, "delta": ns.delta,
                "extent": ns.extent, "samples": ns.samples,
            })
            fields = _PLANE_FIELDS

    if ns.format == "json":
        with _open_output(ns.output) as stream:
            _write_json(stream, {"parameters": params, "records": records})
    else:
        with _open_output(ns.output) as stream:
            _write_csv(stream, fields, records, params)
    return 0


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def cmd_simulate(ns: argparse.Namespace) -> int:
    flow, params = _flow_from_ns(ns)
    state = np.array(_parse_floats(ns.state, "--state", flow.dim))
    if ns.periods < 1:
        raise ConfigError(f"--periods must be >= 1, got {ns.periods}")
    params.update({
        "state": ns.state, "periods": ns.periods, "strobe": ns.strobe,
        "samples_per_period": ns.samples_per_period,
    })
    state_fields = [f"z{i + 1}" for i in range(flow.dim)]

    rows = []
    if ns.strobe:
        fields = ["iterate"] + state_fields
        rows.append({"iterate": 0, **dict(zip(state_fields, state))})
        for i, point in enumerate(poincare_map(flow, state, ns.periods), start=1):
            rows.append({"iterate": i, **dict(zip(state_fields, point))})
    else:
        if ns.samples_per_period < 1:
            raise ConfigError(
                f"--samples-per-period must be >= 1, got {ns.samples_per_period}"
            )
        fields = ["t"] + state_fields
        total = ns.periods * flow.period
        count = ns.periods * ns.samples_per_period + 1
        times, states = trajectory(flow, state, 0.0, total, count)
        for t, row in zip(times, states):
            rows.append({"t": t, **dict(zip(state_fields, row))})

    with _open_output(ns.output) as stream:
        _write_csv(stream, fields, rows, params)
    return 0


# --------------------------------------------------------------------------
# manifolds
# --------------------------------------------------------------------------


def cmd_manifolds(ns: argparse.Namespace) -> int:
    flow, params = _flow_from_ns(ns)
    guess = np.array(_parse_floats(ns.guess, "--guess", flow.dim))
    planes = _parse_floats(ns.planes, "--planes") if ns.planes else []
    if planes and flow.dim != 3:
        raise ConfigError("--planes applies only to the 3-D pendulum system")
    branches = None
    if ns.branches:
        by_value = {b.value: b for b in ManifoldBranch}
        names = [tok.strip() for tok in ns.branches.split(",") if tok.strip()]
        unknown = [name for name in names if name not in by_value]
        if unknown:
            raise ConfigError(
                f"unknown manifold branches {unknown!r}; "
                f"choose from {sorted(by_value)}"
            )
        branches = [by_value[name] for name in names]

    saddle = find_subharmonic(flow, ns.m, guess, tol=ns.tol)
    traces = trace_manifolds(
        flow, saddle, ns.arc, ns.count,
        box=ns.box, planes=planes, max_iterates=ns.max_iterates,
        path_samples=ns.path_samples, branches=branches,
    )

    params.update({
        "m": ns.m, "guess": ns.guess, "arc": ns.arc, "count": ns.count,
        "box": ns.box, "max_iterates": ns.max_iterates,
        "path_samples": ns.path_samples, "tol": ns.tol,
        "saddle_state": ",".join(_fmt(x) for x in saddle.initial_state),
        "saddle_residual": saddle.residual,
        "saddle_multipliers": ";".join(
            f"{lam.real:.17g}{lam.imag:+.17g}j" for lam in saddle.multipliers
        ),
    })
    if planes:
        params["planes"] = ",".join(_fmt(c) for c in planes)

    state_fields = [f"z{i + 1}" for i in range(flow.dim)]
    fields = ["branch", "kind", "iterate", "chain", "plane"] + state_fields
    rows = []
    for trace in traces:
        for (iterate, chain), point in zip(trace.indices, trace.points):
            rows.append({
                "branch": trace.branch.value, "kind": "section",
                "iterate": iterate, "chain": chain,
                **dict(zip(state_fields, point)),
            })
        for c, cut_points in trace.plane_cuts:
            for point in cut_points:
                rows.append({
                    "branch": trace.branch.value, "kind": "plane-cut",
                    "plane": c, **dict(zip(state_fields, point)),
                })
        for point in trace.path:
            rows.append({
                "branch": trace.branch.value, "kind": "path",
                **dict(zip(state_fields, point)),
            })

    with _open_output(ns.output) as stream:
        _write_csv(stream, fields, rows, params)
    return 0


# --------------------------------------------------------------------------
# verification experiments (importable; the acceptance tests reuse them)
# --------------------------------------------------------------------------


def _check(name: str, measured: float, limit: float, passed: bool | None = None) -> dict:
    if passed is None:
        passed = bool(measured <= limit)
    return {"name": name, "measured": float(measured), "limit": float(limit),
            "passed": bool(passed)}


def _report(name: str, parameters: dict, checks: list[dict], **extra) -> dict:
    report = {
        "experiment": name,
        "parameters": parameters,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    report.update(extra)
    return report


def _quad_over(f: Callable[[float], float], lo: float, hi: float) -> float:
    value, _ = quad(f, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-13)
    return value


#: Trapezoid-rule samples per period in ``experiment_jintegrals``.
_QUADRATURE_SAMPLES = 2048


def _periodic_quadrature(values: np.ndarray, period_t: float) -> float:
    """Full-period integral of uniform samples (trapezoid rule, spectrally accurate here)."""
    return float(np.sum(values)) * period_t / values.size


def experiment_jintegrals(*, grid: int = 20, rtol: float = 1e-9) -> dict:
    """Closed-form orbit integrals and splitting constants vs quadrature."""
    if grid < 2:
        raise DomainError(f"grid must be >= 2, got {grid}")
    checks = []
    for name in _PERIODIC_TAG_NAMES:
        tag = _family_tag(name)
        lo, hi = modulus_range(tag)
        inset = 0.03 * (hi - lo)
        worst = 0.0
        for k in np.linspace(lo + inset, hi - inset, grid):
            k = float(k)
            t_k = period(tag, k)
            j = j_integrals(tag, k, 1)
            pt = evaluate(tag, k, np.arange(_QUADRATURE_SAMPLES) * (t_k / _QUADRATURE_SAMPLES))
            z1sq, z2sq = pt.zeta1 ** 2, pt.zeta2 ** 2
            quads = [_periodic_quadrature(v, t_k) for v in (z2sq, z1sq * z2sq, z1sq)]
            for closed, numeric in zip((j.j1, j.j2, j.j3), quads):
                worst = max(worst, abs(closed - numeric) / max(abs(numeric), 1e-300))
        checks.append(_check(f"{name} closed forms vs quadrature", worst, rtol))
        # The n-period integrals must scale exactly linearly in n.
        j1 = j_integrals(tag, 0.5 * (lo + hi), 1)
        j3 = j_integrals(tag, 0.5 * (lo + hi), 3)
        linear = max(
            abs(j3.j1 - 3.0 * j1.j1), abs(j3.j2 - 3.0 * j1.j2), abs(j3.j3 - 3.0 * j1.j3)
        )
        checks.append(_check(f"{name} n-linearity", linear, 1e-12))

    for name in ("het", "hom"):
        tag = _family_tag(name)
        c1, c2 = separatrix_constants(tag)
        q1 = _quad_over(lambda t: evaluate(tag, None, t).zeta2 ** 2, -40.0, 40.0)
        q2 = _quad_over(
            lambda t: (lambda pt: pt.zeta1 ** 2 * pt.zeta2 ** 2)(evaluate(tag, None, t)),
            -40.0, 40.0,
        )
        worst = max(abs(c1 - q1) / abs(q1), abs(c2 - q2) / abs(q2))
        checks.append(_check(f"{name} splitting constants vs quadrature", worst, rtol))
    return _report("jintegrals", {"grid": grid, "rtol": rtol}, checks)


def _closed_subharmonic_amplitude(tag: FamilyTag, k: float, m: int, omega_hat: float) -> float:
    """Closed-form amplitude of the resonant forcing projection (unit cosine)."""
    base = _SQRT2 * math.pi * omega_hat
    r = _half_period_ratio(k)
    if tag is FamilyTag.INSIDE_HET:
        return 2.0 * base / math.sinh(0.5 * m * r)
    if tag is FamilyTag.GLOBAL:
        return 2.0 * base / math.cosh(0.5 * m * r)
    if tag is FamilyTag.INSIDE_HOM:
        return base / math.cosh(m * r)
    if tag is FamilyTag.OUTSIDE_HOM:
        return 2.0 * base / math.cosh(0.5 * m * r)
    raise DomainError(f"no subharmonic closed form for family {tag.value!r}")


def experiment_hhat(
    *,
    chi_count: int = 25,
    weight_tol: float = 1e-8,
    zero_tol: float = 1e-10,
    amp_tol: float = 1e-8,
    max_m: int = 5,
    max_n: int = 3,
) -> dict:
    """Spectral projection weights and resonant selection rules."""
    checks = []
    span = 42.0
    worst_het = 0.0
    worst_hom = 0.0
    for chi in np.linspace(0.1, 5.0, chi_count):
        chi = float(chi)
        wq, _ = quad(
            lambda t: evaluate(FamilyTag.HET_PAIR, None, t).zeta2,
            -span, span, weight="cos", wvar=chi, limit=400,
        )
        worst_het = max(worst_het, abs(fourier_weight_het(chi) - wq))
        uq, _ = quad(
            lambda t: evaluate(FamilyTag.HOM_PAIR, None, t).zeta2,
            -span, span, weight="sin", wvar=chi, limit=400,
        )
        worst_hom = max(worst_hom, abs(fourier_weight_hom(chi) + uq))
    checks.append(_check("saddle-connection weight vs kernel quadrature", worst_het, weight_tol))
    checks.append(_check("saddle-loop weight vs kernel quadrature", worst_hom, weight_tol))

    target_periods = {
        FamilyTag.INSIDE_HET: 9.0,
        FamilyTag.GLOBAL: 4.0,
        FamilyTag.INSIDE_HOM: 9.0,
        FamilyTag.OUTSIDE_HOM: 5.0,
    }
    forcing = cosine(1.0)
    worst_zero = 0.0
    worst_amp = 0.0
    cases = 0
    for tag, t_target in target_periods.items():
        for m in range(1, max_m + 1):
            for n in range(1, max_n + 1):
                if math.gcd(m, n) != 1:
                    continue
                omega_hat = 2.0 * math.pi * m / (n * t_target)
                k = float(resonant_modulus(tag, m, n, omega_hat))
                profile = h_hat_subharmonic(forcing, tag, k, m, n, omega_hat)
                amp = max(abs(profile.hmax), abs(profile.hmin))
                vanishes = n != 1 or (m % 2 == 0 and tag is not FamilyTag.INSIDE_HOM)
                cases += 1
                if vanishes:
                    worst_zero = max(worst_zero, amp)
                else:
                    closed = _closed_subharmonic_amplitude(tag, k, m, omega_hat)
                    worst_amp = max(worst_amp, abs(amp - abs(closed)))
    checks.append(_check("forbidden resonances vanish", worst_zero, zero_tol))
    checks.append(_check("allowed resonances match closed-form amplitudes", worst_amp, amp_tol))
    params = {
        "chi_count": chi_count, "max_m": max_m, "max_n": max_n,
        "resonance_cases": cases, "weight_tol": weight_tol,
        "zero_tol": zero_tol, "amp_tol": amp_tol,
    }
    return _report("hhat", params, checks)


def _profile_zero_phases(poly: TrigPolynomial, samples: int = 720) -> list[float]:
    """Phases in [0, 2*pi) where the profile changes sign (linear refinement)."""
    phis = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    vals = poly(phis)
    step = 2.0 * math.pi / samples
    zeros = []
    for i in range(samples):
        a = vals[i]
        b = vals[(i + 1) % samples]
        if a == 0.0:
            zeros.append(float(phis[i]))
        elif a * b < 0.0:
            zeros.append(float(phis[i] + step * a / (a - b)))
    return zeros


def _ring_seed_states(
    family: FamilyKind | FamilyTag,
    k: float,
    omega_hat: float,
    zero_phases: Sequence[float],
    grid: int = 12,
) -> list[np.ndarray]:
    """Initial states on the resonant orbit at phase-informed and grid times."""
    times: list[float] = []
    for phi in zero_phases:
        times += [phi / omega_hat, -phi / omega_hat, (2.0 * math.pi - phi) / omega_hat]
    t_k = period(family, k)
    times += list(np.linspace(0.0, t_k, grid, endpoint=False))
    pt = evaluate(family, k, np.array(times))
    return list(np.column_stack([pt.zeta1, pt.zeta2]))


def _find_ring_orbit(
    flow: FlowSpec,
    m: int,
    seeds: Sequence[np.ndarray],
    *,
    min_norm: float = 0.3,
) -> PeriodicOrbitResult:
    """First strobe-periodic orbit found away from the central response."""
    last: Exception | None = None
    for seed in seeds:
        try:
            orbit = find_subharmonic(flow, m, seed)
        except (NewtonDivergence, StepFailure) as exc:
            last = exc
            continue
        if float(np.linalg.norm(orbit.initial_state)) >= min_norm:
            return orbit
    if last is not None:
        raise NewtonDivergence(
            f"no resonant orbit found from {len(seeds)} seeds; last failure: {last}"
        )
    raise NewtonDivergence(
        f"all {len(seeds)} seeds converged to the central response orbit"
    )


def _march_to_fold(
    flow_family,
    m: int,
    nu_start: float,
    state: np.ndarray,
    nu_limit: float,
    *,
    step: float,
    floor: float,
    max_jump: float,
) -> tuple[float, np.ndarray, float]:
    """Continue a tracked orbit in the family parameter until it disappears.

    Marches from ``nu_start`` toward ``nu_limit``, halving the step whenever
    Newton loses the orbit (divergence or a jump onto a different orbit), and
    returns ``(last_good, last_good_state, first_bad)`` once the step falls
    below ``floor``.  Small steps keep the tracked state close to the moving
    orbit, so the failure point is the genuine fold rather than a tracking
    dropout.
    """
    nu = float(nu_start)
    good = np.asarray(state, dtype=float)
    first_bad = float(nu_limit)
    step = float(step)
    while step >= floor:
        trial = min(nu + step, nu_limit)
        try:
            res = find_subharmonic(flow_family(trial), m, good)
        except NewtonDivergence:
            res = None
        if res is not None and float(np.max(np.abs(res.initial_state - good))) <= max_jump:
            nu, good = trial, res.initial_state
            if trial >= nu_limit:
                raise NoFoldInBracket(
                    f"orbit still exists at the upper bracket end {nu_limit}"
                )
        else:
            first_bad = trial
            step *= 0.5
    return nu, good, first_bad


def experiment_fold_convergence(
    *,
    case: str = "i",
    m: int = 1,
    n: int = 1,
    omega_hat: float = 0.8,
    eps_hats: Sequence[float] = (0.05, 0.025),
    param_tol: float = 1e-6,
) -> dict:
    """Measured saddle-node location converges to the first-order prediction.

    The resonant-orbit pair exists on a parameter window whose upper edge is
    predicted at first order; for each rescaling parameter the fold is
    bisected on the full flow and its gap to the prediction must shrink as
    the rescaling parameter shrinks.
    """
    if case == "i":
        s1 = s2 = 1
        nu1_sign = -1
        tag = FamilyTag.INSIDE_HET
    elif case == "ii":
        s1 = s2 = -1
        nu1_sign = 1
        tag = FamilyTag.INSIDE_HOM
    else:
        raise ConfigError(f"case must be 'i' or 'ii', got {case!r}")
    if len(eps_hats) < 2:
        raise ConfigError("need at least two rescaling parameters to compare")
    eps_hats = tuple(float(e) for e in eps_hats)
    if any(b >= a for a, b in zip(eps_hats, eps_hats[1:])):
        raise ConfigError(f"eps_hats must be strictly decreasing, got {eps_hats!r}")

    delta = 1.0
    forcing = cosine(1.0)
    k = resonant_modulus(tag, m, n, omega_hat)
    j = j_integrals(tag, k, n)
    profile = h_hat_subharmonic(forcing, tag, k, m, n, omega_hat)
    if profile.is_zero:
        raise ParityError(
            f"the forcing projects to zero on family {tag.value!r} at m={m}, n={n}"
        )
    theory = -(s2 * j.j2 + delta * profile.hmin) / j.j1
    width = delta * (profile.hmax - profile.hmin) / j.j1
    t_hat = 2.0 * math.pi / omega_hat
    mm_poly, _ = melnikov_subharmonic(
        theory - 0.30 * width, s2, delta, j, profile, m, t_hat
    )
    zero_phases = _profile_zero_phases(mm_poly)

    folds = []
    gaps = []
    for eps_hat in eps_hats:
        def family(nu_hat: float, _e: float = eps_hat) -> FlowSpec:
            return scaled_flow(
                s1=s1, s2=s2, nu1_sign=nu1_sign, eps_hat=_e, nu_hat=nu_hat,
                omega_hat=omega_hat, delta_big=delta, forcing=forcing,
            )

        nu_seed = theory - 0.30 * width
        seeds = _ring_seed_states(tag, float(k), omega_hat, zero_phases)
        orbit = _find_ring_orbit(family(nu_seed), m, seeds)
        lo_nu, lo_state, hi_nu = _march_to_fold(
            family, m, nu_seed, orbit.initial_state, theory + 0.45 * width,
            step=0.05 * width, floor=max(param_tol, 0.005 * width), max_jump=0.4,
        )
        fold = detect_saddle_node(
            family, m, (lo_nu, hi_nu), lo_state,
            param_tol=param_tol, max_jump=0.4,
        )
        folds.append(fold)
        gaps.append(abs(fold - theory))

    checks = []
    for (e_coarse, e_fine), (g_coarse, g_fine) in zip(
        zip(eps_hats, eps_hats[1:]), zip(gaps, gaps[1:])
    ):
        checks.append(_check(
            f"fold gap shrinks from eps_hat={e_coarse:g} to {e_fine:g}",
            g_fine, g_coarse, passed=g_fine < g_coarse,
        ))
    params = {
        "case": case, "m": m, "n": n, "omega_hat": omega_hat,
        "eps_hats": list(eps_hats), "param_tol": param_tol,
        "modulus": float(k), "theory": theory, "window_width": width,
    }
    return _report(
        "fold-convergence", params, checks,
        folds=list(folds), gaps=list(gaps), predicted_fold=theory,
    )


def _cross2(ax, ay, bx, by):
    return ax * by - ay * bx


def _polyline_segments(
    trace, window: tuple[float, float, float, float] | None = None
) -> np.ndarray:
    """Ordered section points joined into segments, as an (N, 4) array.

    Consecutive points are joined only when adjacent in the seeding order
    ((iterate, chain) followed by (iterate, chain+1), or the junction from
    one iterate's last chain to the next iterate's first), so holes left by
    terminated chains never produce spurious chords.  ``window`` is an
    optional ``(xmin, xmax, ymin, ymax)`` bounding-box filter.
    """
    points = dict(zip(trace.indices, (p[:2] for p in trace.points)))
    if not points:
        return np.empty((0, 4))
    last_chain = max(chain for iterate, chain in points if iterate == 0)
    keys = sorted(points)
    segs = []
    for a, b in zip(keys, keys[1:]):
        adjacent = b == (a[0], a[1] + 1) or (
            a[1] == last_chain and b == (a[0] + 1, 0)
        )
        if not adjacent:
            continue
        (x1, y1), (x2, y2) = points[a], points[b]
        if window is not None:
            xlo, xhi, ylo, yhi = window
            if max(x1, x2) < xlo or min(x1, x2) > xhi:
                continue
            if max(y1, y2) < ylo or min(y1, y2) > yhi:
                continue
        segs.append((x1, y1, x2, y2))
    return np.array(segs) if segs else np.empty((0, 4))


def _segments_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether any segment of ``a`` properly crosses any segment of ``b``."""
    if len(a) == 0 or len(b) == 0:
        return False
    px = a[:, None, 0]
    py = a[:, None, 1]
    rx = a[:, None, 2] - px
    ry = a[:, None, 3] - py
    qx = b[None, :, 0]
    qy = b[None, :, 1]
    sx = b[None, :, 2] - qx
    sy = b[None, :, 3] - qy
    denom = _cross2(rx, ry, sx, sy)
    dqx = qx - px
    dqy = qy - py
    t_num = _cross2(dqx, dqy, sx, sy)
    u_num = _cross2(dqx, dqy, rx, ry)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t_num / denom
        u = u_num / denom
    hits = (np.abs(denom) > 0.0) & (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0)
    return bool(np.any(hits))


def _transversal_gaps(segs: np.ndarray, q: np.ndarray, normal: np.ndarray, half: float) -> list[float]:
    """Signed offsets where a polyline crosses a short transversal at ``q``."""
    if len(segs) == 0:
        return []
    p0 = q - half * normal
    rx, ry = 2.0 * half * normal
    px = segs[:, 0]
    py = segs[:, 1]
    sx = segs[:, 2] - px
    sy = segs[:, 3] - py
    denom = _cross2(rx, ry, sx, sy)
    dqx = px - p0[0]
    dqy = py - p0[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _cross2(dqx, dqy, sx, sy) / denom
        u = _cross2(dqx, dqy, rx, ry) / denom
    mask = (np.abs(denom) > 0.0) & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
    gaps = []
    for ti in t[mask]:
        point = p0 + ti * np.array([rx, ry])
        gaps.append(float(np.dot(point - q, normal)))
    return gaps


def _separatrix_trace_pair(
    eps_hat: float,
    nu_hat: float,
    omega_hat: float,
    forcing: TrigPolynomial,
    *,
    count: int,
    max_iterates: int,
):
    """Unstable (right saddle) and stable (left saddle) lower-branch traces.

    The connection saddles are strongly hyperbolic (full-period multipliers
    of several hundred), so single shooting from the unforced saddle can
    escape before Newton gets a residual; multiple shooting keeps each leg
    short and converges from the crude seed.
    """
    flow = scaled_flow(
        s1=1, s2=1, nu1_sign=-1, eps_hat=eps_hat, nu_hat=nu_hat,
        omega_hat=omega_hat, delta_big=1.0, forcing=forcing,
    )
    saddle_right = find_subharmonic(flow, 1, (1.0, 0.0), segments=8)
    saddle_left = find_subharmonic(flow, 1, (-1.0, 0.0), segments=8)
    unstable = trace_manifolds(
        flow, saddle_right, 2e-3, count,
        box=2.0, max_iterates=max_iterates,
        branches=(ManifoldBranch.UNSTABLE_LEFT,),
    )[0]
    stable = trace_manifolds(
        flow, saddle_left, 2e-3, count,
        box=2.0, max_iterates=max_iterates,
        branches=(ManifoldBranch.STABLE_RIGHT,),
    )[0]
    return unstable, stable


def experiment_manifold_splitting(
    *,
    omega_hat: float = 1.4,
    eps_hats: Sequence[float] = (0.05, 0.025),
    count: int = 160,
    max_iterates: int = 18,
    min_agreement: float = 0.95,
) -> dict:
    """Manifold crossings vs the splitting-function window and sign.

    Two independent confirmations on the saddle-to-saddle connection: (a)
    inside the predicted parameter window the traced stable and unstable
    manifolds cross transversally, outside they do not; (b) at the window's
    center the signed gap between the manifolds along normals to the
    unforced connection carries the sign the splitting function predicts,
    at two values of the rescaling parameter.
    """
    eps_hats = tuple(float(e) for e in eps_hats)
    forcing = cosine(1.0)
    profile = h_hat(forcing, FamilyTag.HET_PAIR, omega_hat)
    c1, c2 = separatrix_constants(FamilyTag.HET_PAIR)
    center = -(c2 + 0.5 * (profile.hmax + profile.hmin)) / c1
    halfwidth = 0.5 * (profile.hmax - profile.hmin) / c1

    trace_cache: dict[tuple[float, float], tuple] = {}

    def traces_at(eps_hat: float, nu_hat: float):
        key = (eps_hat, nu_hat)
        if key not in trace_cache:
            trace_cache[key] = _separatrix_trace_pair(
                eps_hat, nu_hat, omega_hat, forcing,
                count=count, max_iterates=max_iterates,
            )
        return trace_cache[key]

    # (a) crossing iff inside the window, probed at the coarsest eps_hat.
    window = (-1.25, 1.25, -1.35, -0.04)
    eps0 = eps_hats[0]
    checks = []
    region_results = []
    agree = 0
    offsets = ((-0.6, True), (0.0, True), (0.6, True),
               (-1.45, False), (1.35, False), (1.8, False))
    for offset, inside in offsets:
        nu_hat = center + offset * halfwidth
        unstable, stable = traces_at(eps0, nu_hat)
        crossing = _segments_intersect(
            _polyline_segments(unstable, window),
            _polyline_segments(stable, window),
        )
        region_results.append({
            "nu_hat": nu_hat, "inside_window": inside, "crossing": crossing,
        })
        agree += crossing == inside
    checks.append(_check(
        "crossing iff parameters inside the splitting window",
        float(agree), float(len(offsets)), passed=agree == len(offsets),
    ))

    # (b) signed-gap agreement with the splitting function at the center.
    _, m_minus = melnikov_separatrix(center, 1, 1.0, profile, FamilyTag.HET_PAIR)
    m_amp = max(
        abs(float(m_minus(p))) for p in np.linspace(0.0, 2.0 * math.pi, 256)
    )
    lower = FamilyKind(FamilyTag.HET_PAIR, -1)
    sweep_results = []
    for eps_hat in eps_hats:
        unstable, stable = traces_at(eps_hat, center)
        segs_u = _polyline_segments(unstable)
        segs_s = _polyline_segments(stable)
        used = 0
        good = 0
        for tau in np.linspace(-4.2, 4.2, 15):
            tau = float(tau)
            predicted = float(m_minus(-omega_hat * tau))
            if abs(predicted) < 0.15 * m_amp:
                continue
            pt = evaluate(lower, None, tau)
            q = np.array([pt.zeta1, pt.zeta2])
            f = unperturbed_rhs(lower, q)
            normal = np.array([-f[1], f[0]]) / float(np.linalg.norm(f))
            gaps_u = _transversal_gaps(segs_u, q, normal, 0.3)
            gaps_s = _transversal_gaps(segs_s, q, normal, 0.3)
            if not gaps_u or not gaps_s:
                continue
            s_u = min(gaps_u, key=abs)
            s_s = min(gaps_s, key=abs)
            used += 1
            good += (s_u - s_s > 0.0) == (predicted > 0.0)
        fraction = good / used if used else 0.0
        sweep_results.append({
            "eps_hat": eps_hat, "points_used": used, "sign_matches": good,
        })
        checks.append(_check(
            f"signed gap matches splitting sign at eps_hat={eps_hat:g}",
            fraction, min_agreement,
            passed=used >= 6 and fraction >= min_agreement,
        ))

    params = {
        "omega_hat": omega_hat, "eps_hats": list(eps_hats), "count": count,
        "max_iterates": max_iterates, "window_center": center,
        "window_halfwidth": halfwidth, "min_agreement": min_agreement,
    }
    return _report(
        "manifold-splitting", params, checks,
        region=region_results, sign_sweep=sweep_results,
    )


def experiment_harmonic_count(
    *,
    alpha: float = 1.25,
    gamma: float = -1.2,
    omega_hat: float = 0.8,
    residual_tol: float = 1e-10,
) -> dict:
    """Census of forcing-period orbits at one gain point of the study case.

    The gains are reduced through the full calibration chain, the resonant
    prediction seeds Newton shooting on the rescaled flow, and the census
    must contain at least three distinct orbits including the predicted
    resonant sink/saddle pair and the small central response.
    """
    p, _ = calibrated_params(example_theta_zero(alpha, gamma), omega_hat)
    nf, sp = reduce_pendulum(p)
    flow = scaled_flow_from(sp, nf.s1, nf.s2, nf.h)

    tag = FamilyTag.INSIDE_HET
    k = resonant_modulus(tag, 1, 1, sp.omega_hat)
    j = j_integrals(tag, k, 1)
    profile = h_hat_subharmonic(nf.h, tag, k, 1, 1, sp.omega_hat)
    mm_poly, _ = melnikov_subharmonic(
        sp.nu_hat, nf.s2, sp.delta_big, j, profile, 1, 2.0 * math.pi / sp.omega_hat
    )
    zero_phases = _profile_zero_phases(mm_poly)

    seeds = [np.zeros(2)]
    seeds += _ring_seed_states(tag, float(k), sp.omega_hat, zero_phases)

    orbits: list[PeriodicOrbitResult] = []
    for seed in seeds:
        try:
            orbit = find_subharmonic(flow, 1, seed)
        except (NewtonDivergence, StepFailure):
            continue
        if all(
            float(np.linalg.norm(orbit.initial_state - other.initial_state)) > 1e-3
            for other in orbits
        ):
            orbits.append(orbit)

    ring = [o for o in orbits if float(np.linalg.norm(o.initial_state)) >= 0.3]
    small = [o for o in orbits if float(np.linalg.norm(o.initial_state)) < 0.3]
    ring_sinks = [o for o in ring if o.classification is OrbitClass.SINK]
    ring_saddles = [o for o in ring if o.classification is OrbitClass.SADDLE]
    worst_residual = max((o.residual for o in orbits), default=math.inf)
    sink_radius = max(
        (abs(lam) for o in orbits if o.classification is OrbitClass.SINK
         for lam in o.multipliers),
        default=math.inf,
    )

    checks = [
        _check("at least three distinct forcing-period orbits",
               float(len(orbits)), 3.0, passed=len(orbits) >= 3),
        _check("resonance-born sink present", float(len(ring_sinks)), 1.0,
               passed=len(ring_sinks) >= 1),
        _check("resonance-born saddle present", float(len(ring_saddles)), 1.0,
               passed=len(ring_saddles) >= 1),
        _check("small central orbit present", float(len(small)), 1.0,
               passed=len(small) >= 1),
        _check("shooting residuals", worst_residual, residual_tol),
        _check("sink multipliers inside the unit circle", sink_radius, 1.0,
               passed=sink_radius < 1.0),
    ]
    params = {
        "alpha": alpha, "gamma": gamma, "omega_hat": omega_hat,
        "eps_hat": sp.eps_hat, "nu_hat": sp.nu_hat, "delta": sp.delta_big,
        "forcing_amplitude": dict(nf.h.cos_terms).get(1, 0.0),
        "residual_tol": residual_tol,
    }
    orbit_rows = [
        {
            "state": [float(x) for x in o.initial_state],
            "classification": o.classification.value,
            "multiplier_moduli": [abs(lam) for lam in o.multipliers],
            "residual": o.residual,
        }
        for o in orbits
    ]
    return _report("harmonic-count", params, checks, orbits=orbit_rows)


EXPERIMENTS: dict[str, Callable[..., dict]] = {
    "jintegrals": experiment_jintegrals,
    "hhat": experiment_hhat,
    "fold-convergence": experiment_fold_convergence,
    "manifold-splitting": experiment_manifold_splitting,
    "harmonic-count": experiment_harmonic_count,
}


def cmd_verify(ns: argparse.Namespace) -> int:
    name = ns.experiment
    kwargs: dict = {}
    if name == "jintegrals":
        kwargs["grid"] = ns.grid
    elif name == "fold-convergence":
        kwargs.update(case=ns.case, m=ns.m, n=ns.n,
                      eps_hats=_parse_floats(ns.eps_hats, "--eps-hats"))
        if ns.omega_hat is not None:
            kwargs["omega_hat"] = ns.omega_hat
    elif name == "manifold-splitting":
        kwargs["eps_hats"] = _parse_floats(ns.eps_hats, "--eps-hats")
        if ns.omega_hat is not None:
            kwargs["omega_hat"] = ns.omega_hat
    elif name == "harmonic-count":
        kwargs.update(alpha=ns.alpha, gamma=ns.gamma)
        if ns.omega_hat is not None:
            kwargs["omega_hat"] = ns.omega_hat

    report = EXPERIMENTS[name](**kwargs)
    for check in report["checks"]:
        status = "ok" if check["passed"] else "FAIL"
        print(
            f"{status:4s} {check['name']}: measured {_fmt(check['measured'])}"
            f" (limit {_fmt(check['limit'])})",
            file=sys.stderr,
        )
    with _open_output(ns.output) as stream:
        _write_json(stream, report)
    return 0 if report["passed"] else 4


# --------------------------------------------------------------------------
# parser assembly, config files, entry point
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse contract
        raise ConfigError(message)


def _build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="doublezero",
        description="Bifurcation toolkit for periodically forced symmetric "
                    "double-zero systems and the feedback-controlled pendulum.",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    registry: dict[str, argparse.ArgumentParser] = {}

    def register(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", action="append", default=[], metavar="FILE",
                         help="key=value file of option defaults ('#' comments)")
        sub.add_argument("--output", "-o", default="-", metavar="FILE",
                         help="output file ('-' = standard output)")
        registry[name] = sub
        return sub

    sub = register("reduce", "map pendulum gains to normal-form parameters")
    _add_pendulum_flags(sub, require_gains=True)
    sub.add_argument("--calibrate-omega-hat", type=float, default=None, metavar="W",
                     help="choose forcing frequency/strength so the rescaled "
                          "frequency is W and the forcing ratio is one")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(func=cmd_reduce)

    sub = register("curves", "emit predicted bifurcation curves")
    sub.add_argument("--unperturbed", action="store_true",
                     help="unforced skeleton diagram (needs --s1/--s2)")
    sub.add_argument("--family", choices=_FAMILY_NAMES, default=None,
                     help="orbit family; default output is the gain-plane "
                          "pullback, --scaled switches to reduced-plane lines")
    sub.add_argument("--scaled", action="store_true",
                     help="emit reduced-parameter-plane lines instead of the "
                          "gain-plane pullback")
    sub.add_argument("--m", type=int, default=1, help="subharmonic order")
    sub.add_argument("--n", type=int, default=1, help="periods of the orbit")
    sub.add_argument("--omega-hat", type=float, default=1.0)
    sub.add_argument("--delta", type=float, default=1.0)
    sub.add_argument("--amplitude", type=float, default=1.0)
    sub.add_argument("--harmonic", type=int, default=1)
    sub.add_argument("--s1", type=int, choices=(-1, 1), default=1)
    sub.add_argument("--s2", type=int, choices=(-1, 1), default=1)
    sub.add_argument("--extent", type=float, default=0.5,
                     help="gain-plane sweep half-extent")
    sub.add_argument("--samples", type=int, default=33,
                     help="points per gain-plane curve")
    _add_pendulum_flags(sub, require_gains=False)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(func=cmd_curves)

    def add_flow_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--system", choices=("scaled", "pendulum"), default="scaled")
        _add_scaled_flags(sub)
        _add_pendulum_flags(sub, require_gains=False)
        sub.add_argument("--abs-tol", type=float, default=DEFAULT_ABS_TOL)
        sub.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)

    sub = register("simulate", "integrate a flow and write the trajectory")
    add_flow_flags(sub)
    sub.add_argument("--state", required=True,
                     help="initial state, comma-separated")
    sub.add_argument("--periods", type=int, default=10,
                     help="forcing periods to integrate")
    sub.add_argument("--samples-per-period", type=int, default=64)
    sub.add_argument("--strobe", action="store_true",
                     help="record only once per forcing period")
    sub.set_defaults(func=cmd_simulate)

    sub = register("manifolds", "trace stable/unstable manifolds of a saddle orbit")
    add_flow_flags(sub)
    sub.add_argument("--guess", required=True,
                     help="initial guess for the saddle orbit, comma-separated")
    sub.add_argument("--m", type=int, default=1, help="orbit period in forcing periods")
    sub.add_argument("--arc", type=float, default=1e-3,
                     help="largest seeding offset along the eigendirections")
    sub.add_argument("--count", type=int, default=64, help="seeds per branch")
    sub.add_argument("--box", type=float, default=3.0,
                     help="stop chains leaving max|state| <= box")
    sub.add_argument("--max-iterates", type=int, default=40)
    sub.add_argument("--path-samples", type=int, default=0,
                     help="dense samples per strobe segment (0 = none)")
    sub.add_argument("--planes", default="",
                     help="comma-separated third-coordinate plane constants "
                          "to intersect (pendulum system only)")
    sub.add_argument("--branches", default="",
                     help="comma-separated subset of "
                          "unstable-right,unstable-left,stable-right,stable-left")
    sub.add_argument("--tol", type=float, default=1e-10,
                     help="Newton tolerance for the saddle orbit")
    sub.set_defaults(func=cmd_manifolds)

    sub = register("verify", "run a verification experiment, report JSON")
    sub.add_argument("experiment", choices=sorted(EXPERIMENTS))
    sub.add_argument("--grid", type=int, default=20,
                     help="modulus grid size (jintegrals)")
    sub.add_argument("--case", choices=("i", "ii"), default="i",
                     help="study case (fold-convergence)")
    sub.add_argument("--m", type=int, default=1)
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--omega-hat", type=float, default=None,
                     help="override the experiment's default frequency")
    sub.add_argument("--eps-hats", default="0.05,0.025",
                     help="comma-separated decreasing rescaling parameters")
    sub.add_argument("--alpha", type=float, default=1.25,
                     help="gain point (harmonic-count)")
    sub.add_argument("--gamma", type=float, default=-1.2,
                     help="gain point (harmonic-count)")
    sub.set_defaults(func=cmd_verify)

    return parser, registry


def _expand_config(sub: argparse.ArgumentParser, path: str) -> list[str]:
    """Translate a key=value config file into injected command-line flags."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            lines = stream.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    out: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        option = "--" + key.replace("_", "-")
        action = sub._option_string_actions.get(option)  # noqa: SLF001
        if action is None or option in ("--config", "--help"):
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        if action.nargs == 0:
            flag = value.lower()
            if flag in ("1", "true", "yes", "on"):
                out.append(option)
            elif flag not in ("0", "false", "no", "off"):
                raise ConfigError(
                    f"{path}:{lineno}: switch {key!r} needs a boolean, got {value!r}"
                )
        else:
            out.extend([option, value])
    return out


def _extract_config_paths(args: list[str]) -> tuple[list[str], list[str]]:
    paths: list[str] = []
    rest: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--config":
            if i + 1 >= len(args):
                raise ConfigError("--config needs a file path")
            paths.append(args[i + 1])
            i += 2
        elif arg.startswith("--config="):
            paths.append(arg.split("=", 1)[1])
            i += 1
        else:
            rest.append(arg)
            i += 1
    return paths, rest


def main(argv: Sequence[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser, registry = _build_parser()
    try:
        if raw and raw[0] in registry:
            command = raw[0]
            paths, rest = _extract_config_paths(raw[1:])
            injected: list[str] = []
            for path in paths:
                injected.extend(_expand_config(registry[command], path))
            raw = [command] + injected + rest
        ns = parser.parse_args(raw)
        return ns.func(ns)
    except _CONFIG_EXIT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_EXIT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
