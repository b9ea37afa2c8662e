"""Exception taxonomy for the doublezero package.

Every error raised deliberately by this package derives from
:class:`DoubleZeroError`, so callers can catch the whole family with one
clause while still distinguishing the precise failure mode.
"""

from __future__ import annotations

__all__ = [
    "DoubleZeroError",
    "DomainError",
    "DegeneracyError",
    "NoResonance",
    "ResonanceViolation",
    "DegenerateL",
    "ParityError",
    "StepFailure",
    "NewtonDivergence",
    "NoFoldInBracket",
    "NotASaddle",
]


class DoubleZeroError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DoubleZeroError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegeneracyError(DoubleZeroError):
    """A required non-degeneracy condition fails: a vanishing cubic
    combination of the normal form, a double-zero gain point that is not
    physical, or a singular gain-to-reduced-parameter map."""


class NoResonance(DoubleZeroError):
    """No member of the requested orbit family satisfies the resonance
    condition ``n * period == m * forcing period``."""


class ResonanceViolation(DoubleZeroError):
    """The requested (m, n) pair is invalid for the family: not coprime,
    non-positive, or outside the range where the family's period map can
    be inverted."""


class DegenerateL(DoubleZeroError):
    """The stability discriminant is too close to zero to classify the
    orbit as sink or source."""


class ParityError(DoubleZeroError):
    """The forcing has no harmonic compatible with the family's parity
    selection rule, so the subharmonic Melnikov profile vanishes
    identically."""


class StepFailure(DoubleZeroError):
    """The ODE integrator could not meet its tolerances."""


class NewtonDivergence(DoubleZeroError):
    """Newton iteration on a fixed-point equation failed to converge."""


class NoFoldInBracket(DoubleZeroError):
    """A fold (saddle-node) search reached the end of its parameter range
    with the tracked orbit still found."""


class NotASaddle(DoubleZeroError):
    """Invariant-manifold tracing was asked to start from a fixed point
    that is not of saddle type."""
