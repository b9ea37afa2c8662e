"""Bifurcation toolkit for periodically forced symmetric double-zero systems.

The package analyses two-parameter families of symmetric dynamical systems
near a doubly degenerate equilibrium under weak periodic forcing, and
verifies the first-order predictions on a feedback-controlled pendulum:

``elliptic``
    Complete elliptic integrals (SciPy) and Jacobi functions (Landen).
``fourier``
    Exact-arithmetic trigonometric polynomials for forcing profiles.
``normalform``
    Reduction of Taylor data to the canonical planar form and the
    half-plane rescaling of its parameters.
``orbits``
    Closed-form periodic orbits and saddle connections of the unforced
    cubic host systems, their periods and resonance conditions.
``melnikov``
    Orbit integrals, spectral projection weights and splitting functions
    measuring which orbits persist under forcing.
``bifurcation``
    Predicted bifurcation curves (persistence, saddle-node, stability)
    in the rescaled parameter plane.
``pendulum``
    The servo-pendulum study cases: locating the degenerate gain point,
    its Taylor data, which ``normalform`` reduces, and pulling predictions
    back to the gain plane.
``dynamics``
    Validated numerics on the full flows: strobe maps, Newton shooting
    for periodic orbits, Floquet classification, fold detection and
    invariant-manifold tracing.
``experiments``
    The verification experiments that check the predictions against
    closed forms, quadrature and the full flows, as JSON-ready reports.
``cli``
    The ``doublezero`` command-line interface: argument parsing, config
    files and output.
"""

from __future__ import annotations

from .bifurcation import (
    BifurcationCurve,
    CurveKind,
    CurveLabel,
    Stability,
    StabilityVerdict,
    classify_stability,
    heteroclinic_curves,
    homoclinic_curves,
    predicted_curves,
    saddle_node_curves,
    unperturbed_diagram,
)
from .dynamics import (
    FlowSpec,
    ManifoldBranch,
    ManifoldTrace,
    OrbitClass,
    PeriodicOrbitResult,
    detect_saddle_node,
    find_subharmonic,
    integrate,
    liouville_defect,
    pendulum_flow,
    poincare_map,
    scaled_flow,
    scaled_flow_from,
    trace_manifolds,
    trajectory,
)
from .elliptic import EllipticModulus, complete_E, complete_K, jacobi_sn_cn_dn
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
    JIntegrals,
    MelnikovProfile,
    fourier_weight_het,
    fourier_weight_hom,
    h_hat,
    h_hat_subharmonic,
    j_integrals,
    melnikov_separatrix,
    melnikov_subharmonic,
    separatrix_constants,
)
from .normalform import (
    NormalFormParams,
    ScaledParams,
    ScalingBranch,
    SymmetricSystemCoeffs,
    reduce,
    scale,
)
from .orbits import (
    FamilyKind,
    FamilyTag,
    OrbitPoint,
    cubic_coefficients,
    evaluate,
    modulus_range,
    period,
    resonant_modulus,
    unperturbed_rhs,
)
from .pendulum import (
    Codim2Point,
    PendulumParams,
    Theta0,
    calibrated_params,
    codim2_locus,
    example_theta_pi,
    example_theta_zero,
    prediction_curves,
    reduce_pendulum,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "1.0.0"
