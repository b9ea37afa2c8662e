"""The paper's verification experiments, as JSON-ready reports.

Each ``experiment_*`` function checks a group of first-order predictions
against closed forms, quadrature or the full flows, and returns its
parameters, its checks (measured value, limit, verdict) and whether all
passed.  ``EXPERIMENTS`` maps the names ``doublezero verify`` takes to
them.  The saddle-node folds of ``fold-convergence`` are what the paper
checks with AUTO; ``manifold-splitting`` compares manifold crossings with
the splitting window, and ``harmonic-count`` makes a census of resonant
orbits.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    FlowSpec,
    ManifoldBranch,
    OrbitClass,
    PeriodicOrbitResult,
    detect_saddle_node,
    find_subharmonic,
    scaled_flow,
    scaled_flow_from,
    trace_manifolds,
)
from .elliptic import complete_K
from .errors import DomainError, NewtonDivergence, ParityError, StepFailure
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
from .orbits import (
    FamilyKind,
    FamilyTag,
    evaluate,
    modulus_range,
    period,
    resonant_modulus,
    unperturbed_rhs,
)
from .pendulum import calibrated_params, example_theta_zero, reduce_pendulum

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


#: Trapezoid-rule samples per period in ``experiment_jintegrals``.
_QUADRATURE_SAMPLES = 2048

#: Trapezoid-rule nodes for the separatrix kernels.  The kernels decay
#: exponentially, below 1e-25 at +/-42, so the truncation and the end
#: weights are negligible and the rule converges exponentially.
_KERNEL_NODES = np.linspace(-42.0, 42.0, 1025)
_KERNEL_STEP = float(_KERNEL_NODES[1] - _KERNEL_NODES[0])


def experiment_jintegrals(*, grid: int = 20, rtol: float = 1e-9) -> dict:
    """Closed-form orbit integrals and splitting constants vs the trapezoid rule."""
    if grid < 2:
        raise DomainError(f"grid must be >= 2, got {grid}")
    checks = []
    for tag in (t for t in FamilyTag if FamilyKind(t).is_periodic):
        lo, hi = modulus_range(tag)
        inset = 0.03 * (hi - lo)
        worst = 0.0
        for k in np.linspace(lo + inset, hi - inset, grid):
            k = float(k)
            step = period(tag, k) / _QUADRATURE_SAMPLES
            j = j_integrals(tag, k, 1)
            pt = evaluate(tag, k, np.arange(_QUADRATURE_SAMPLES) * step)
            z1sq, z2sq = pt.zeta1 ** 2, pt.zeta2 ** 2
            quads = [float(np.sum(v)) * step for v in (z2sq, z1sq * z2sq, z1sq)]
            for closed, numeric in zip((j.j1, j.j2, j.j3), quads):
                worst = max(worst, abs(closed - numeric) / max(abs(numeric), 1e-300))
        checks.append(_check(f"{tag.value} closed forms vs quadrature", worst, rtol))
        # The n-period integrals must scale exactly linearly in n.
        j1 = j_integrals(tag, 0.5 * (lo + hi), 1)
        j3 = j_integrals(tag, 0.5 * (lo + hi), 3)
        linear = max(
            abs(j3.j1 - 3.0 * j1.j1), abs(j3.j2 - 3.0 * j1.j2), abs(j3.j3 - 3.0 * j1.j3)
        )
        checks.append(_check(f"{tag.value} n-linearity", linear, 1e-12))

    for tag in (FamilyTag.HET_PAIR, FamilyTag.HOM_PAIR):
        c1, c2 = separatrix_constants(tag)
        pt = evaluate(tag, None, _KERNEL_NODES)
        q1 = float(np.sum(pt.zeta2 ** 2)) * _KERNEL_STEP
        q2 = float(np.sum(pt.zeta1 ** 2 * pt.zeta2 ** 2)) * _KERNEL_STEP
        worst = max(abs(c1 - q1) / abs(q1), abs(c2 - q2) / abs(q2))
        checks.append(_check(f"{tag.value} splitting constants vs quadrature", worst, rtol))
    return _report("jintegrals", {"grid": grid, "rtol": rtol}, checks)


def _half_period_ratio(k: float) -> float:
    """pi * K(k') / K(k) for the resonant modulus."""
    kprime = math.sqrt((1.0 - k) * (1.0 + k))
    return math.pi * complete_K(kprime) / complete_K(k)


def _closed_subharmonic_amplitude(tag: FamilyTag, k: float, m: int, omega_hat: float) -> float:
    """Closed-form amplitude of the resonant forcing projection (unit cosine)."""
    base = math.sqrt(2.0) * math.pi * omega_hat
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
    """Spectral projection weights and resonant selection rules.

    The weights are checked against trapezoid-rule transforms of the
    separatrix velocity kernels.  Raises `DomainError` if ``chi_count``,
    ``max_m`` or ``max_n`` is below 1, where a check would test nothing.
    """
    for name, value in (("chi_count", chi_count), ("max_m", max_m), ("max_n", max_n)):
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")
    checks = []
    chis = np.linspace(0.1, 5.0, chi_count)
    phases = np.outer(chis, _KERNEL_NODES)
    het = evaluate(FamilyTag.HET_PAIR, None, _KERNEL_NODES).zeta2
    hom = evaluate(FamilyTag.HOM_PAIR, None, _KERNEL_NODES).zeta2
    wq = np.cos(phases) @ het * _KERNEL_STEP
    uq = np.sin(phases) @ hom * _KERNEL_STEP
    worst_het = max(abs(fourier_weight_het(float(c)) - w) for c, w in zip(chis, wq))
    worst_hom = max(abs(fourier_weight_hom(float(c)) + u) for c, u in zip(chis, uq))
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
    found on the full flow by `detect_saddle_node` and its gap to the
    prediction must shrink as the rescaling parameter shrinks.  Raises
    `DomainError` for an unknown ``case``, or unless ``eps_hats`` holds at
    least two strictly decreasing values.
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
        raise DomainError(f"case must be 'i' or 'ii', got {case!r}")
    if len(eps_hats) < 2:
        raise DomainError("need at least two rescaling parameters to compare")
    eps_hats = tuple(float(e) for e in eps_hats)
    if any(b >= a for a, b in zip(eps_hats, eps_hats[1:])):
        raise DomainError(f"eps_hats must be strictly decreasing, got {eps_hats!r}")

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
        fold = detect_saddle_node(
            family, m, nu_seed, orbit.initial_state, theory + 0.45 * width,
            step=0.05 * width, param_tol=param_tol, max_jump=0.4,
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


def _crossings(p, r, q, s) -> tuple[np.ndarray, np.ndarray]:
    """Where the segments ``p + t*r`` meet the segments ``q + u*s``.

    ``p``, ``r`` are ``(N, 2)`` and ``q``, ``s`` are ``(M, 2)`` starts and
    directions.  Returns ``(t, u)``, each ``(N, M)``: segment ``i`` of the
    first set meets the line of segment ``j`` of the second at parameter
    ``t[i, j]`` along itself and ``u[i, j]`` along the other.  Parallel
    pairs get ``inf`` or ``nan``, which fail every range test.
    """
    rx, ry = r[:, None, 0], r[:, None, 1]
    sx, sy = s[None, :, 0], s[None, :, 1]
    dqx = q[None, :, 0] - p[:, None, 0]
    dqy = q[None, :, 1] - p[:, None, 1]
    denom = rx * sy - ry * sx
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dqx * sy - dqy * sx) / denom
        u = (dqx * ry - dqy * rx) / denom
    return t, u


def _segments_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether any segment of ``a`` properly crosses any segment of ``b``."""
    t, u = _crossings(a[:, :2], a[:, 2:] - a[:, :2], b[:, :2], b[:, 2:] - b[:, :2])
    return bool(np.any((t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0)))


def _transversal_gaps(segs: np.ndarray, q: np.ndarray, normal: np.ndarray, half: float) -> list[float]:
    """Signed offsets where a polyline crosses a short transversal at ``q``."""
    p0 = q - half * normal
    r = 2.0 * half * normal
    t, u = _crossings(p0[None], r[None], segs[:, :2], segs[:, 2:] - segs[:, :2])
    hits = t[(t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)]
    return [float(np.dot(p0 + ti * r - q, normal)) for ti in hits]


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
