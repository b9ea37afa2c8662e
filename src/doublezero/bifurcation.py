"""Bifurcation-curve emitters for the two-parameter plane.

Every predicted bifurcation set is, to leading order, a straight line
``nu2 = slope * nu1`` through the origin of the parameter plane, valid on one
half-plane of ``nu1``.  This module turns splitting data (projected forcing
extrema and orbit integrals) into those lines:

* saddle-to-saddle and saddle-loop connections persisting under forcing
  (four lines each, on the ``nu1`` half-plane of the host's ``a``: ``nu1 <
  0`` and ``nu1 > 0``), both from one emitter, ``_connection_curves``,
  whose public names are `heteroclinic_curves` and `homoclinic_curves`,
* saddle-node bifurcations of resonant subharmonics (two lines per orbit
  family, four for the sign-paired inside-loop family),
* the stability verdict for the orbits born at those saddle-nodes,
* and the unforced skeleton diagram (pitchfork, Hopf, saddle-connection,
  cycle-fold lines) for each sign combination of the cubic terms.

`predicted_curves` is the one route from a forcing profile to a family's
curves: it projects the forcing with :mod:`.melnikov` and hands the
profile to the family's emitter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateL, DomainError
from .fourier import TrigPolynomial
from .melnikov import (
    JIntegrals,
    MelnikovProfile,
    h_hat,
    h_hat_subharmonic,
    j_integrals,
    separatrix_constants,
)
from .orbits import _ATLAS, PAIRED_TAGS, SEPARATRIX_TAGS, FamilyTag, resonant_modulus

__all__ = [
    "CurveKind",
    "CurveLabel",
    "BifurcationCurve",
    "Stability",
    "StabilityVerdict",
    "DEGENERATE_L_TOL",
    "CYCLE_FOLD_SLOPE",
    "family_half_plane",
    "heteroclinic_curves",
    "homoclinic_curves",
    "saddle_node_curves",
    "classify_stability",
    "predicted_curves",
    "unperturbed_diagram",
]

#: |L| below this means the stability functional sits on its zero line.
DEGENERATE_L_TOL = 1e-10

#: Approximate slope magnitude of the unforced cycle-fold line.  Display
#: metadata only; the numerically-continued fold is the authoritative object.
CYCLE_FOLD_SLOPE = 0.752


class CurveKind(enum.Enum):
    HETEROCLINIC = "heteroclinic"
    HOMOCLINIC = "homoclinic"
    SADDLE_NODE = "saddle-node"
    PITCHFORK = "pitchfork"
    HOPF = "hopf"
    UNPERTURBED_SADDLE_CONNECTION = "unperturbed-saddle-connection"
    UNPERTURBED_CYCLE_FOLD = "unperturbed-cycle-fold"


@dataclass(frozen=True)
class CurveLabel:
    """Metadata identifying which object a curve tracks.

    ``family`` names the orbit family (with a branch suffix where a family
    comes in symmetric pairs), ``extremum`` records whether the line comes
    from the forcing projection's maximum or minimum, and ``note`` carries
    free-text qualifiers (approximate constants, degenerate coincidences).
    """

    m: int | None = None
    n: int | None = None
    family: str | None = None
    extremum: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class BifurcationCurve:
    """A line ``nu2 = slope * nu1`` valid on one ``nu1`` half-plane.

    ``nu1_sign`` is -1 or +1 for half-plane curves and 0 for the pitchfork
    line, which is the ``nu1 = 0`` axis itself (``slope`` is ``inf`` there).
    """

    kind: CurveKind
    slope: float
    nu1_sign: int
    label: CurveLabel

    def __post_init__(self) -> None:
        if self.nu1_sign not in (-1, 0, 1):
            raise DomainError(f"nu1_sign must be -1, 0 or +1, got {self.nu1_sign!r}")
        if (self.nu1_sign == 0) != math.isinf(self.slope):
            raise DomainError("only the vertical pitchfork line may have nu1_sign = 0")

    def as_record(self) -> dict:
        """Flat record with the serialization columns."""
        return {
            "kind": self.kind.value,
            "slope": self.slope,
            "nu1_sign": self.nu1_sign,
            "m": self.label.m,
            "n": self.label.n,
            "family": self.label.family,
            "extremum": self.label.extremum,
        }


class Stability(enum.Enum):
    SINK = "sink"
    SOURCE = "source"


@dataclass(frozen=True)
class StabilityVerdict:
    """Stability of one orbit born at a subharmonic saddle-node.

    ``boundary_slope`` is the line in the parameter plane on which the
    verdict flips (the Hopf candidate for the bifurcating orbit).
    """

    sink_or_source: Stability
    boundary_slope: float


def _check_sign(value: int, name: str) -> int:
    if value not in (-1, 1):
        raise DomainError(f"{name} must be -1 or +1, got {value!r}")
    return int(value)


def family_half_plane(tag: FamilyTag) -> int:
    """Sign of ``nu1`` on which a periodic family's predictions live: its host's ``a``."""
    if tag in SEPARATRIX_TAGS:
        raise DomainError(f"family {tag.value!r} has no subharmonic half-plane")
    return int(_ATLAS[tag].a)


#: Curve kind and branch labels (sign +1, then -1) of each connection pair.
_CONNECTIONS = {FamilyTag.HET_PAIR: (CurveKind.HETEROCLINIC, "het-upper", "het-lower"),
                FamilyTag.HOM_PAIR: (CurveKind.HOMOCLINIC, "hom-right", "hom-left")}


def _connection_curves(
    tag: FamilyTag, s2: int, delta_big: float, hhat: MelnikovProfile
) -> list[BifurcationCurve]:
    """Persistence lines of a connection pair, on the ``nu1`` half-plane of its host's ``a``.

    For each connection the splitting function ``c1*nu_hat + c2*s2 ±
    delta_big*h_hat`` crosses zero on a closed interval of ``nu_hat``, and
    the parameter slope is ``a*nu_hat``; the interval's endpoints are the
    lines emitted here, one labeled by the forcing projection's maximum and
    one by its minimum.  Zero forcing collapses all four lines onto ``nu2 =
    -a*s2*(c2/c1) nu1``, the unforced connection line.
    """
    s2 = _check_sign(s2, "s2")
    delta_big = float(delta_big)
    hhat.check_family(tag)
    c1, c2 = separatrix_constants(tag)
    plane = int(_ATLAS[tag].a)
    kind, *branches = _CONNECTIONS[tag]
    base = -plane * s2 * c2 / c1
    coincident = hhat.hmax == hhat.hmin
    note = "coincident pair (zero-splitting forcing)" if coincident else None
    curves = []
    for branch, sign in zip(branches, (1.0, -1.0)):
        for extremum, value in (("max", hhat.hmax), ("min", hhat.hmin)):
            curves.append(
                BifurcationCurve(
                    kind=kind,
                    slope=base - plane * sign * delta_big * value / c1,
                    nu1_sign=plane,
                    label=CurveLabel(family=branch, extremum=extremum, note=note),
                )
            )
    return curves


def heteroclinic_curves(
    s2: int, delta_big: float, hhat: MelnikovProfile
) -> list[BifurcationCurve]:
    """Persistence lines of the two saddle-to-saddle connections (``nu1 < 0``)."""
    return _connection_curves(FamilyTag.HET_PAIR, s2, delta_big, hhat)


def homoclinic_curves(
    s2: int, delta_big: float, hhat: MelnikovProfile
) -> list[BifurcationCurve]:
    """Persistence lines of the two saddle-loop connections (``nu1 > 0``).

    A symmetric forcing projection (``hmax = -hmin``) makes the two branch
    pairs coincide as sets.
    """
    return _connection_curves(FamilyTag.HOM_PAIR, s2, delta_big, hhat)


def saddle_node_curves(
    s2: int,
    delta_big: float,
    m: int,
    hhatmn: MelnikovProfile,
    j: JIntegrals,
) -> list[BifurcationCurve]:
    """Saddle-node lines for the resonant subharmonics of one orbit family.

    The orbit family, modulus and period count are read from the orbit
    integrals ``j`` (and cross-checked against the profile's provenance).
    Families on ``nu1 < 0`` and the outside-loop family yield one max/min
    pair; the inside-loop family exists in symmetric copies whose forcing
    projections differ by an overall sign, so it yields two pairs (the
    passed profile covers one copy, its negation the other).
    """
    s2 = _check_sign(s2, "s2")
    delta_big = float(delta_big)
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    hhatmn.check_orbit(j, m)
    tag = j.family.tag
    plane = family_half_plane(tag)
    j1, j2 = j.j1, j.j2
    if j1 <= 0.0:
        raise DomainError(f"orbit integral j1 must be positive, got {j1!r}")

    coincident = hhatmn.hmax == hhatmn.hmin
    note = "coincident pair (zero-splitting forcing)" if coincident else None

    def window_slopes(hmax: float, hmin: float) -> list[tuple[str, float]]:
        # Zeros of nu_hat*J1 + s2*J2 + delta*h(phi) exist for nu_hat in
        # [-(s2*J2 + delta*hmax)/J1, -(s2*J2 + delta*hmin)/J1]; the parameter
        # slope is -nu_hat on nu1 < 0 and +nu_hat on nu1 > 0.
        return [
            ("max", -plane * (delta_big * hmax + s2 * j2) / j1),
            ("min", -plane * (delta_big * hmin + s2 * j2) / j1),
        ]

    curves: list[BifurcationCurve] = []
    if tag in PAIRED_TAGS:
        own_sign = hhatmn.family.sign if hhatmn.family is not None else 1
        for fam_sign in (own_sign, -own_sign):
            suffix = "right" if fam_sign > 0 else "left"
            hmax = hhatmn.hmax if fam_sign == own_sign else -hhatmn.hmin
            hmin = hhatmn.hmin if fam_sign == own_sign else -hhatmn.hmax
            for extremum, slope in window_slopes(hmax, hmin):
                curves.append(
                    BifurcationCurve(
                        kind=CurveKind.SADDLE_NODE,
                        slope=slope,
                        nu1_sign=plane,
                        label=CurveLabel(
                            m=m, n=j.n, family=f"{tag.value}-{suffix}",
                            extremum=extremum, note=note,
                        ),
                    )
                )
    else:
        for extremum, slope in window_slopes(hhatmn.hmax, hhatmn.hmin):
            curves.append(
                BifurcationCurve(
                    kind=CurveKind.SADDLE_NODE,
                    slope=slope,
                    nu1_sign=plane,
                    label=CurveLabel(
                        m=m, n=j.n, family=tag.value, extremum=extremum, note=note,
                    ),
                )
            )
    return curves


def predicted_curves(
    forcing: TrigPolynomial,
    family: FamilyTag,
    m: int,
    n: int,
    omega_hat: float,
    s2: int,
    delta_big: float,
) -> tuple[list[BifurcationCurve], MelnikovProfile]:
    """Predicted curves of one orbit family, with the projected profile.

    The separatrix pairs project ``forcing`` with `h_hat` and emit their
    persistence lines; ``m`` and ``n`` are ignored for them.  The periodic
    families solve the ``m:n`` resonance for the modulus (read back as
    ``profile.k``), integrate the orbit, project with `h_hat_subharmonic`
    and emit the saddle-node lines.
    """
    if family in SEPARATRIX_TAGS:
        profile = h_hat(forcing, family, omega_hat)
        return _connection_curves(family, s2, delta_big, profile), profile
    k = resonant_modulus(family, m, n, omega_hat)
    j = j_integrals(family, k, n)
    profile = h_hat_subharmonic(forcing, family, k, m, n, omega_hat)
    return saddle_node_curves(s2, delta_big, m, profile, j), profile


def classify_stability(
    s2: int,
    j: JIntegrals,
    m: int,
    t_hat: float,
    nu_hat: float,
) -> StabilityVerdict:
    """Stability of the non-saddle orbit born at a subharmonic saddle-node.

    The verdict is decided by the sign of the averaged divergence functional
    ``L = m * nu_hat * t_hat + s2 * j3``, which is independent of phase:
    negative means a sink, positive a source.

    Raises
    ------
    DegenerateL
        If ``|L| < DEGENERATE_L_TOL`` — the parameters sit on the candidate
        Hopf line and first-order information gives no verdict.
    """
    s2 = _check_sign(s2, "s2")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    t_hat = float(t_hat)
    if not (t_hat > 0.0):
        raise DomainError(f"t_hat must be positive, got {t_hat!r}")
    ell = m * float(nu_hat) * t_hat + s2 * j.j3
    if abs(ell) < DEGENERATE_L_TOL:
        raise DegenerateL(
            f"averaged divergence {ell!r} is too close to zero for a verdict"
        )
    plane = family_half_plane(j.family.tag)
    boundary = -plane * s2 * j.j3 / (m * t_hat)
    verdict = Stability.SINK if ell < 0.0 else Stability.SOURCE
    return StabilityVerdict(sink_or_source=verdict, boundary_slope=boundary)


def unperturbed_diagram(s1: int, s2: int) -> list[BifurcationCurve]:
    """Skeleton bifurcation diagram of the unforced normal form.

    For ``s1 = +1`` the nontrivial equilibria are saddles and the diagram
    has three lines: the pitchfork axis, the Hopf line of the origin and the
    saddle-connection line on ``nu1 < 0``.  For ``s1 = -1`` the nontrivial
    pair undergoes its own simultaneous Hopf, a saddle-loop connection and a
    fold of periodic orbits, all on ``nu1 > 0``, for five lines total.  The
    cycle-fold slope magnitude ``CYCLE_FOLD_SLOPE`` is an approximate
    constant recorded for display.
    """
    s1 = _check_sign(s1, "s1")
    s2 = _check_sign(s2, "s2")
    curves = [
        BifurcationCurve(
            kind=CurveKind.PITCHFORK,
            slope=math.inf,
            nu1_sign=0,
            label=CurveLabel(family="origin"),
        ),
        BifurcationCurve(
            kind=CurveKind.HOPF,
            slope=0.0,
            nu1_sign=-1,
            label=CurveLabel(family="origin"),
        ),
    ]
    if s1 == 1:
        curves.append(
            BifurcationCurve(
                kind=CurveKind.UNPERTURBED_SADDLE_CONNECTION,
                slope=s2 / 5.0,
                nu1_sign=-1,
                label=CurveLabel(family="het"),
            )
        )
    else:
        curves.extend(
            [
                BifurcationCurve(
                    kind=CurveKind.HOPF,
                    slope=-float(s2),
                    nu1_sign=1,
                    label=CurveLabel(family="pair", note="simultaneous for both equilibria"),
                ),
                BifurcationCurve(
                    kind=CurveKind.UNPERTURBED_SADDLE_CONNECTION,
                    slope=-4.0 * s2 / 5.0,
                    nu1_sign=1,
                    label=CurveLabel(family="hom"),
                ),
                BifurcationCurve(
                    kind=CurveKind.UNPERTURBED_CYCLE_FOLD,
                    slope=-CYCLE_FOLD_SLOPE * s2,
                    nu1_sign=1,
                    label=CurveLabel(family="pair", note="slope approximate"),
                ),
            ]
        )
    return curves
