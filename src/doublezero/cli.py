"""Command-line interface for the double-zero bifurcation toolkit.

This module parses arguments and config files and writes outputs; the
computations live in the library modules, and the ``verify`` experiments
in :mod:`.experiments`.

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
    Run one of the verification experiments of :mod:`.experiments` and
    write its JSON report; exits nonzero when a check fails.

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
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from .bifurcation import predicted_curves, unperturbed_diagram
from .dynamics import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    FlowSpec,
    ManifoldBranch,
    find_subharmonic,
    pendulum_flow,
    poincare_map,
    scaled_flow,
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
from .experiments import EXPERIMENTS
from .fourier import TrigPolynomial, cosine
from .normalform import scale
from .orbits import FamilyTag
from .pendulum import (
    FAMILY_THETA0,
    PendulumParams,
    Theta0,
    calibrated_params,
    codim2_locus,
    example_theta_pi,
    example_theta_zero,
    normal_form,
    prediction_curves,
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

_FAMILY_NAMES = ("het", "hom", "inside-het", "global", "inside-hom", "outside-hom")

#: Largest ``--harmonic``.  The forcing's dense spectrum holds one entry per
#: harmonic, and array evaluation is tested up to 1,024 harmonics.
_MAX_HARMONIC = 1024


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


def _pendulum_from(ns: argparse.Namespace) -> PendulumParams:
    """The pendulum of the options; the study case of ``--theta0`` supplies
    each constant they leave unset, and its double-zero point each gain."""
    theta0 = Theta0.ZERO if ns.theta0 is None else Theta0(ns.theta0)
    study = example_theta_zero if theta0 is Theta0.ZERO else example_theta_pi
    given = {name: getattr(ns, name) for name in ("delta0", "delta1", "beta")}
    # The unit gain only stands in until the gains are known.
    p = replace(study(1.0, 0.0), omega=ns.omega, eps=ns.eps,
                **{name: value for name, value in given.items() if value is not None})
    alpha, gamma = ns.alpha, ns.gamma
    if alpha is None or gamma is None:
        loc = codim2_locus(p)
        alpha = loc.alpha0 if alpha is None else alpha
        gamma = loc.gamma0 if gamma is None else gamma
    return replace(p, alpha=alpha, gamma=gamma)


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


def _forcing_from_ns(ns: argparse.Namespace) -> TrigPolynomial:
    if ns.harmonic > _MAX_HARMONIC:
        raise ConfigError(f"--harmonic must be <= {_MAX_HARMONIC}, got {ns.harmonic}")
    return cosine(ns.amplitude, ns.harmonic)


def _scaled_flow_from_ns(ns: argparse.Namespace) -> tuple[FlowSpec, dict]:
    forcing = _forcing_from_ns(ns)
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
    calibration = None
    if ns.calibrate_omega_hat is not None:
        p, eps_hat = calibrated_params(p, ns.calibrate_omega_hat)
        calibration = {"target_omega_hat": ns.calibrate_omega_hat, "eps_hat": eps_hat}
    nf = normal_form(p)
    # Unforced, only the normal-form block is defined.
    scaled = scale(nf, p.eps) if p.eps > 0.0 else None

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
    forcing = _forcing_from_ns(ns)
    params = {
        "mode": "scaled", "family": tag.value, "s2": ns.s2, "delta": ns.delta,
        "omega_hat": ns.omega_hat, "amplitude": ns.amplitude, "harmonic": ns.harmonic,
    }
    curves, profile = predicted_curves(
        forcing, tag, ns.m, ns.n, ns.omega_hat, ns.s2, ns.delta
    )
    if profile.k is not None:
        params.update({"m": ns.m, "n": ns.n, "modulus": profile.k})
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

    # Connection saddles have full-period multipliers in the thousands, where
    # single shooting from a crude guess escapes; eight short legs do not.
    saddle = find_subharmonic(flow, ns.m, guess, tol=ns.tol, segments=8)
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
# verify
# --------------------------------------------------------------------------


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
