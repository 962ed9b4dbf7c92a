"""Curve networks: kinds, junction frames, reference shapes, JSON round-trip.

A network bundles one to three discrete curves with junction metadata.  At a
constrained junction the admissible outgoing tangent directions are encoded as
a single frame angle plus fixed per-curve offsets, which makes the prescribed
angles exact by construction and cheap to validate.  A network computes its
``clamps``, ``diameter`` and ``curve_terms`` once, on first use; its copies
and pickles are rebuilt through the constructor and carry no cache.

Kinds:

* ``closed``            one closed curve, no junctions
* ``drop``              one open curve with coincident endpoints, free corner
* ``double_drop``       two drops through a shared four-point, free angles
                        (in-memory extension used by the symmetric double-drop
                        minimizer; serialized with the same schema)
* ``theta``             three curves, two triple junctions, 120 degree frames
* ``degenerate_theta``  two curves through a four-point with angles paired
                        60/120 degrees (the zero-length third curve is not
                        stored; it contributes nothing to the energy)
* ``generalized_theta`` three curves, two junctions, prescribed angles
                        (a1, a2, a3) summing to 2*pi
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import reprlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConstructionFailedError,
    InvalidCurveError,
    InvalidInputError,
    NetworkValidationError,
    ParseError,
    SingularAngleError,
)
from .geometry import (
    DiscreteCurve,
    checked_energy,
    endpoint_tangent_array,
    points_diameter,
    resample_uniform,
    rotate_points,
    signed_angle,
    unit,
    vertex_arclengths,
)

__all__ = [
    "KINDS",
    "Junction",
    "Network",
    "ValidationReport",
    "validate",
    "network_diameter",
    "curve_clamps",
    "end_slots",
    "translate_network",
    "rotate_network",
    "scale_network",
    "normalize_to_standard_frame",
    "make_circle",
    "make_ellipse",
    "make_teardrop",
    "make_symmetric_double_drop",
    "make_standard_double_bubble",
    "make_generalized_bubble",
    "make_degenerate_figure_eight",
    "recovery_sequence",
    "generalized_bubble_energy",
    "optimal_bubble_radius",
    "serialize",
    "deserialize",
    "save_json",
    "load_json",
    "read_json",
]

# (curves, junctions) per kind
_SHAPE = {
    "closed": (1, 0),
    "drop": (1, 0),
    "double_drop": (2, 0),
    "theta": (3, 2),
    "degenerate_theta": (2, 1),
    "generalized_theta": (3, 2),
}
KINDS = tuple(_SHAPE)

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
DEGENERATE_LENGTH_FACTOR = 1e-12

# Outgoing-direction offsets relative to the junction frame.  At the second
# junction of a theta the cyclic order of the curves reverses.
THETA_OFFSETS_START = (0.0, _TWO_THIRDS_PI, 2.0 * _TWO_THIRDS_PI)
THETA_OFFSETS_END = (0.0, 2.0 * _TWO_THIRDS_PI, _TWO_THIRDS_PI)

# Four-point slots in order (c0 start, c0 end, c1 start, c1 end); the two
# admissible pairings of 60/120 degree sectors around the point.
DEGENERATE_OFFSET_VARIANTS = (
    (0.0, math.pi / 3.0, 4.0 * math.pi / 3.0, math.pi),
    (0.0, 2.0 * math.pi / 3.0, 5.0 * math.pi / 3.0, math.pi),
)


def _wrap_pi(a):
    """Wrap angle(s) to (-pi, pi]."""
    return np.mod(np.asarray(a) + np.pi, 2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class Junction:
    """Triple (or four-) point with a tangent frame.

    Outgoing direction of slot k is ``frame_angle + offsets[k]``.  Slots are
    curve indices for theta kinds and (c0 start, c0 end, c1 start, c1 end)
    for the degenerate four-point.
    """

    position: np.ndarray
    frame_angle: float
    offsets: tuple[float, ...]

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float).reshape(2)
        if not np.all(np.isfinite(pos)):
            raise InvalidInputError("junction position must be finite")
        try:
            frame = float(self.frame_angle)
            offsets = tuple(float(o) for o in self.offsets)
        except (TypeError, ValueError):
            raise InvalidInputError("junction frame angle and offsets must be numbers") from None
        if not (math.isfinite(frame) and all(math.isfinite(o) for o in offsets)):
            raise InvalidInputError("junction frame angle and offsets must be finite")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "frame_angle", frame)
        object.__setattr__(self, "offsets", offsets)

    def outgoing_dir(self, slot: int) -> np.ndarray:
        return unit(self.frame_angle + self.offsets[slot])


@dataclass(frozen=True)
class Network:
    kind: str
    curves: tuple[DiscreteCurve, ...]
    junctions: tuple[Junction, ...] = ()
    prescribed_angles: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown network kind {reprlib.repr(self.kind)}")
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "junctions", tuple(self.junctions))
        n_curves, n_junctions = _SHAPE[self.kind]
        if len(self.curves) != n_curves:
            raise NetworkValidationError(f"kind {self.kind!r} needs {n_curves} curves, got {len(self.curves)}")
        if len(self.junctions) != n_junctions:
            raise NetworkValidationError(f"kind {self.kind!r} needs {n_junctions} junctions, got {len(self.junctions)}")
        counts = [0] * len(self.junctions)
        for ends in end_slots(self.kind, len(self.curves)):
            for j, slot in ends:
                counts[j] = max(counts[j], slot + 1)
        for j, (junction, count) in enumerate(zip(self.junctions, counts)):
            if len(junction.offsets) != count:
                raise NetworkValidationError(f"junction {j} needs one offset per slot ({count}), got {len(junction.offsets)}")
        if self.kind == "closed":
            if not self.curves[0].closed:
                raise NetworkValidationError("closed network needs a closed curve")
        elif any(c.closed for c in self.curves):
            raise NetworkValidationError(f"{self.kind} networks are built from open curves")
        if self.kind == "generalized_theta":
            if self.prescribed_angles is None:
                raise NetworkValidationError("generalized network needs prescribed angles")
            ang = tuple(float(a) for a in self.prescribed_angles)
            if len(ang) != 3 or any(not (0.0 < a < 2.0 * math.pi) for a in ang):
                raise NetworkValidationError("prescribed angles must lie in (0, 2*pi)")
            if abs(sum(ang) - 2.0 * math.pi) > 1e-9:
                raise NetworkValidationError("prescribed angles must sum to 2*pi")
            object.__setattr__(self, "prescribed_angles", ang)
        elif self.prescribed_angles is not None:
            raise NetworkValidationError("prescribed angles only apply to generalized networks")

    def __reduce__(self):  # copies and pickles are built afresh, with nothing cached
        return Network, (self.kind, self.curves, self.junctions, self.prescribed_angles)

    @cached_property
    def diameter(self) -> float:
        """``points_diameter`` of all the curves' points."""
        return points_diameter([c.points for c in self.curves])

    @cached_property
    def curve_terms(self) -> tuple[tuple[float, float, bool], ...]:
        """Each curve's (elastic, length, degenerate) under its junction clamps: ``penalized_energy`` at any alpha."""
        return _curve_terms(self, [c.points for c in self.curves], self.diameter)

    @cached_property
    def clamps(self):
        """``curve_clamps`` of every curve at once: row i holds curve i's start and end directions."""
        if not self.junctions:
            return ((None, None),) * len(self.curves)
        jn, slots = self.junctions, end_slots(self.kind, len(self.curves))
        angle = np.array([[jn[j].frame_angle + jn[j].offsets[s] for j, s in ends] for ends in slots])
        clamps = np.empty(angle.shape + (2,))
        clamps[..., 0], clamps[..., 1] = np.cos(angle), np.sin(angle)
        clamps[:, 1] *= -1.0  # the frame arriving at each curve's end
        clamps.flags.writeable = False
        return clamps


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    junction_gap: float
    angle_defect: float


def network_diameter(network: Network) -> float:
    return network.diameter


def _curve_terms(network: Network, point_sets, diameter: float) -> tuple[tuple[float, float, bool], ...]:
    """(elastic, length, degenerate) of each curve on ``point_sets``; free curves on their own points read ``kernel``."""
    pairs = zip(network.curves, point_sets, network.clamps)
    kernels = [c.kernel if p is c.points and cl[0] is None else checked_energy(p, c.closed, *cl) for c, p, cl in pairs]
    return tuple((k.elastic, k.length, k.length < DEGENERATE_LENGTH_FACTOR * diameter) for k in kernels)


def end_slots(kind: str, n_curves: int):
    """Per curve, the ``(junction, slot)`` met by its start and by its end.

    This table is the one place that knows how curve ends attach to junction
    slots: theta curve i leaves junction 0 and arrives at junction 1 through
    slot i at both, and degenerate-theta lobe i leaves the four-point through
    slot 2i and returns through slot 2i + 1.  Junction-free kinds give ().
    It takes the kind and curve count rather than a network so that
    ``deserialize`` can read it before the junctions exist.
    """
    if kind in ("theta", "generalized_theta"):
        return tuple(((0, i), (1, i)) for i in range(n_curves))
    if kind == "degenerate_theta":
        return tuple(((0, 2 * i), (0, 2 * i + 1)) for i in range(n_curves))
    return ()


def curve_clamps(network: Network, i: int):
    """Prescribed endpoint travel directions of curve i, or (None, None).

    Returns (start direction, incoming direction at the end); both unit
    vectors for junction-constrained kinds.
    """
    return tuple(network.clamps[i])


def validate(network: Network, tol_pos: float | None = None, tol_ang: float = 1e-6) -> ValidationReport:
    """Check incidence and angle invariants of a network.

    ``tol_pos`` defaults to 1e-9 times the network diameter; ``tol_ang`` is in
    radians.  Junction tangents are estimated to second order from the first
    points of each curve, so exact constructions validate to round-off.
    """
    if tol_pos is None:
        tol_pos = 1e-9 * max(network.diameter, 1e-30)
    if not (0.0 < tol_pos < math.inf and 0.0 < tol_ang < math.inf):
        raise InvalidInputError("tolerances must be positive and finite")

    gap = defect = 0.0
    if network.junctions:
        j = np.array(end_slots(network.kind, len(network.curves)))[..., 0]
        meet = np.array([jn.position for jn in network.junctions])[j]
        # each end's travel direction against its clamp, the same angle as outgoing against the frame
        defect = float(np.abs(signed_angle(network.clamps, endpoint_tangent_array(network.curves))).max())
    else:  # the ends of a drop, and of a double drop, meet at its first point
        meet = network.curves[0].points[0]
    if network.kind != "closed":
        # each end's distance from where it meets, by np.linalg.norm's dot product
        miss = (np.array([[c.points[0], c.points[-1]] for c in network.curves]) - meet)[..., None]
        gap = float(np.sqrt(np.swapaxes(miss, -1, -2) @ miss).max())
    if network.kind == "degenerate_theta":
        defect = max(defect, _degenerate_pattern_defect(network.junctions[0]))
    elif network.kind in ("theta", "generalized_theta"):
        angles = network.prescribed_angles or (_TWO_THIRDS_PI,) * 3
        defect = max(defect, _triple_turn_defect([j.offsets for j in network.junctions], angles))

    return ValidationReport(valid=(gap <= tol_pos and defect <= tol_ang), junction_gap=gap, angle_defect=defect)


def _triple_turn_defect(offsets, angles) -> float:
    """Deviation of the turns from slot i to slot i + 1 from the angles a_i.

    All three turns go the same way round, counterclockwise or clockwise.
    ``offsets`` are one junction's, or one row per junction for the worst.
    """
    turns = np.diff(offsets, axis=-1, append=np.asarray(offsets)[..., :1])
    miss = np.abs(_wrap_pi(np.multiply.outer([1.0, -1.0], turns) - np.asarray(angles)))
    return float(miss.max(axis=-1).min(axis=0).max())


def _degenerate_pattern_defect(j: Junction) -> float:
    """Deviation of the four-point offsets from the 60/120 pairing.

    Each lobe's two slots must be cyclic neighbours around the point: two
    smooth loops crossing there alternate their slots and are at least pi/3
    off, however well the gaps fit.
    """
    angles = np.mod(np.asarray(j.offsets), 2.0 * np.pi)
    order = np.argsort(angles)
    gaps = np.diff(angles[order], append=angles[order[0]] + 2.0 * np.pi)
    best = float(np.abs(gaps - np.array([[1, 2, 1, 2], [2, 1, 2, 1]]) * (np.pi / 3.0)).max(axis=1).min())
    if order[0] // 2 == order[2] // 2:  # slots 2i and 2i + 1 are lobe i's
        best = max(best, np.pi / 3.0)
    return best


# ---------------------------------------------------------------------------
# rigid motions and rescaling


def _map_network(network: Network, point_map, frame_shift: float = 0.0) -> Network:
    curves = tuple(DiscreteCurve(point_map(c.points), c.closed) for c in network.curves)
    junctions = tuple(
        Junction(point_map(j.position[None, :])[0], j.frame_angle + frame_shift, j.offsets)
        for j in network.junctions
    )
    return Network(network.kind, curves, junctions, network.prescribed_angles)


def translate_network(network: Network, delta) -> Network:
    delta = np.asarray(delta, float)
    return _map_network(network, lambda p: p + delta)


def rotate_network(network: Network, angle: float, about=(0.0, 0.0)) -> Network:
    return _map_network(network, lambda p: rotate_points(p, angle, about), frame_shift=angle)


def scale_network(network: Network, factor: float, about=None) -> Network:
    """Dilate the network.  Defaults to scaling about the first junction."""
    if factor <= 0:
        raise InvalidInputError("scale factor must be positive")
    if about is None:
        about = network.junctions[0].position if network.junctions else np.zeros(2)
    about = np.asarray(about, float)
    return _map_network(network, lambda p: about + factor * (p - about))


def normalize_to_standard_frame(network: Network) -> Network:
    """Move the first junction to the origin and align curve 0 to 60 degrees.

    For junction-free kinds this just recenters (drop closure point, or the
    centroid of a closed curve) at the origin.
    """
    if network.junctions:
        j0 = network.junctions[0]
        net = translate_network(network, -j0.position)
        current = j0.frame_angle + j0.offsets[0]
        return rotate_network(net, math.pi / 3.0 - current)
    if network.kind in ("drop", "double_drop"):
        return translate_network(network, -network.curves[0].points[0])
    centroid = np.vstack([c.points for c in network.curves]).mean(axis=0)
    return translate_network(network, -centroid)


# ---------------------------------------------------------------------------
# reference constructions


def _require_representable(radius: float, what: str) -> None:
    """Reject, before any array arithmetic, a shape whose points lie within
    2 ``radius`` of the origin but whose squared lengths could overflow."""
    reach = 8.0 * radius
    if not reach * reach < math.inf:
        raise InvalidInputError(f"{what} {radius:.6g} is too large: squared lengths overflow")


def make_circle(radius: float, n: int) -> Network:
    """Regular counterclockwise n-gon on a circle of the given radius."""
    if not 0.0 < radius < math.inf:
        raise InvalidInputError("radius must be positive and finite")
    _require_representable(radius, "circle radius")
    if n < 8:
        raise InvalidInputError("need n >= 8 points")
    ang = 2.0 * np.pi * np.arange(n) / n
    pts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    return Network("closed", (DiscreteCurve(pts, closed=True),))


def make_ellipse(a: float, b: float, n: int) -> Network:
    """Closed ellipse with semi-axes a, b, near-uniform arclength sampling."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise InvalidInputError("semi-axes must be positive and finite")
    _require_representable(max(a, b), "ellipse semi-axis")
    t = 2.0 * np.pi * np.arange(4 * n) / (4 * n)
    dense = np.column_stack([a * np.cos(t), b * np.sin(t)])
    curve = resample_uniform(DiscreteCurve(dense, closed=True), n)
    return Network("closed", (curve,))


def make_teardrop(n: int, scale: float = 1.0) -> Network:
    """Drop-shaped initializer: one lobe of a Gerono figure eight at the origin."""
    if n < 8:
        raise InvalidInputError("need n >= 8 segments")
    t = np.linspace(0.0, np.pi, 8 * n)
    dense = scale * np.column_stack([0.5 * np.sin(2.0 * t), np.sin(t)])
    dense[0] = 0.0
    dense[-1] = 0.0
    curve = resample_uniform(DiscreteCurve(dense, closed=False), n)
    return Network("drop", (curve,))


def mirror_drop_curve(curve: DiscreteCurve) -> DiscreteCurve:
    """Point reflection through the origin with reversed parametrization."""
    return DiscreteCurve((-curve.points[::-1]).copy(), closed=False)


def make_symmetric_double_drop(drop: Network) -> Network:
    """Pair a drop γ with its point reflection γ2(t) = -γ(1-t)."""
    if drop.kind != "drop":
        raise InvalidInputError("expected a drop network")
    c1 = drop.curves[0]
    c1 = DiscreteCurve(c1.points - c1.points[0], closed=False)
    return Network("double_drop", (c1, mirror_drop_curve(c1)))


def _arc_points(center, radius: float, angle0: float, sweep: float, n: int) -> np.ndarray:
    ang = angle0 + sweep * np.linspace(0.0, 1.0, n)
    return np.asarray(center, float) + radius * np.column_stack([np.cos(ang), np.sin(ang)])


def optimal_bubble_radius() -> float:
    """Arc radius minimizing the standard double-bubble energy."""
    return math.sqrt(8.0 * math.pi / (3.0 * math.sqrt(3.0) + 8.0 * math.pi))


def make_standard_double_bubble(r: float, n: int) -> Network:
    """Two 240 degree arcs of radius r plus the straight middle segment.

    This is the generalized bubble at 120 degrees with a segment of length
    sqrt(3) r, relabelled as a theta: first junction at the origin with
    outgoing directions 60/180/300 degrees, second junction at
    (-sqrt(3) r, 0).  Curve 0 is the upper arc (counterclockwise), curve 1
    the segment, curve 2 the lower arc (clockwise).  The junctions take the
    exact theta frames and offsets, which the generalized formulas give only
    to within an ulp.
    """
    if not 0.0 < r < math.inf:
        raise InvalidInputError("radius must be positive and finite")
    bubble = make_generalized_bubble(_TWO_THIRDS_PI, _TWO_THIRDS_PI, n, math.sqrt(3.0) * r)
    j1 = Junction(np.zeros(2), math.pi / 3.0, THETA_OFFSETS_START)
    j2 = Junction(bubble.junctions[1].position, _TWO_THIRDS_PI, THETA_OFFSETS_END)
    return Network("theta", bubble.curves, (j1, j2))


def generalized_bubble_energy(alpha1: float, alpha2: float) -> float:
    """Optimally rescaled energy of two circular arcs joined by a segment."""
    if not (0.0 < alpha1 <= alpha2) or alpha1 + alpha2 >= 2.0 * math.pi:
        raise InvalidInputError("need 0 < alpha1 <= alpha2 and alpha1 + alpha2 < 2*pi")
    s1, s2 = math.sin(alpha1), math.sin(alpha2)
    if abs(s1) < 1e-12 or abs(s2) < 1e-12:
        raise SingularAngleError("sin(alpha) vanishes; arc construction degenerates")
    r1 = alpha1 + alpha2 * s2 / s1
    r2 = alpha1 + alpha2 * s1 / s2 + s1
    if r1 <= 0.0 or r2 <= 0.0:
        raise SingularAngleError("closed form leaves its real domain for these angles")
    return 4.0 * math.sqrt(r1) * math.sqrt(r2)


def make_generalized_bubble(alpha1: float, alpha2: float, n: int, segment_length: float | None = None) -> Network:
    """Generalized-theta competitor: arcs of central angle 2*alpha joined by a segment.

    With ``segment_length`` omitted the construction uses the optimally
    rescaled size, whose energy matches ``generalized_bubble_energy``.
    """
    if not (0.0 < alpha1 <= alpha2) or alpha1 + alpha2 >= 2.0 * math.pi:
        raise InvalidInputError("need 0 < alpha1 <= alpha2 and alpha1 + alpha2 < 2*pi")
    if alpha2 >= math.pi:
        raise SingularAngleError("arc construction needs alpha < pi on both sides")
    if n < 8:
        raise InvalidInputError("need n >= 8 points per curve")
    s1, s2 = math.sin(alpha1), math.sin(alpha2)
    if segment_length is None:
        # equipartition E = L fixes the scale
        e_unit = 4.0 * (alpha1 * s1 + alpha2 * s2)
        l_unit = 1.0 + alpha1 / s1 + alpha2 / s2
        segment_length = math.sqrt(e_unit / l_unit)
    ell = float(segment_length)
    if not 0.0 < ell < math.inf:
        raise InvalidInputError("segment length must be positive and finite")
    r_up, r_dn = ell / (2.0 * s1), ell / (2.0 * s2)
    _require_representable(max(r_up, r_dn), "bubble arc radius")
    p2 = np.array([-ell, 0.0])
    # upper arc leaves the origin at angle pi - alpha1, counterclockwise
    c_up = r_up * unit(math.pi - alpha1 + math.pi / 2.0)
    a_up0 = math.atan2(-c_up[1], -c_up[0])
    upper = _arc_points(c_up, r_up, a_up0, 2.0 * alpha1, n)
    # lower arc leaves at pi + alpha2, clockwise
    c_dn = r_dn * unit(math.pi + alpha2 - math.pi / 2.0)
    a_dn0 = math.atan2(-c_dn[1], -c_dn[0])
    lower = _arc_points(c_dn, r_dn, a_dn0, -2.0 * alpha2, n)
    seg = np.linspace([0.0, 0.0], p2, n)
    upper[0] = 0.0
    lower[0] = 0.0
    upper[-1] = p2
    lower[-1] = p2

    alpha3 = 2.0 * math.pi - alpha1 - alpha2
    j1 = Junction(np.zeros(2), math.pi - alpha1, (0.0, alpha1, alpha1 + alpha2))
    j2 = Junction(p2, alpha1, (0.0, 2.0 * math.pi - alpha1, 2.0 * math.pi - alpha1 - alpha2))
    curves = (DiscreteCurve(upper), DiscreteCurve(seg), DiscreteCurve(lower))
    return Network("generalized_theta", curves, (j1, j2), (alpha1, alpha2, alpha3))


def make_degenerate_figure_eight(n: int, scale: float | None = None) -> Network:
    """Figure-eight shaped degenerate theta: two mirrored lobes with flat caps.

    The upper lobe leaves the four-point at 60 degrees and returns at -60,
    the lower lobe is its point reflection, so the four tangents realize the
    60/120 pairing exactly.  Each lobe is two circular arcs followed by a
    straight horizontal cap, mirror symmetric about the y-axis: cutting the
    lobe at a horizontal-tangent point (the recovery construction) then
    splits a zero-curvature edge and changes the energy by exactly the
    inserted length.

    With ``scale`` omitted the lobes are optimally rescaled (E = L).
    """
    m = max(12, n // 2)
    r1 = 1.0
    sweep1 = math.pi / 6.0
    r2 = 0.5 * r1 * (1.0 - math.sqrt(3.0) / 2.0)
    sweep2 = math.pi / 2.0
    cap = r1 * (1.0 - math.sqrt(3.0) / 2.0) - r2
    len1 = r1 * sweep1
    len2 = r2 * sweep2
    s_half = len1 + len2 + cap
    c1 = r1 * unit(math.pi / 3.0 + math.pi / 2.0)
    switch = c1 + r1 * unit(-math.pi / 6.0 + sweep1)
    c2 = switch + r2 * unit(math.pi)
    y_apex = 0.5 * r1 + r2

    # sample the right half excluding the apex so the apex sits mid-edge
    step = s_half / (m - 0.5)
    s_vals = np.arange(m) * step
    right = np.empty((m, 2))
    on1 = s_vals <= len1 + 1e-15
    on2 = (~on1) & (s_vals <= len1 + len2 + 1e-15)
    on3 = ~(on1 | on2)
    th1 = -math.pi / 6.0 + s_vals[on1] / r1
    right[on1] = c1 + r1 * np.column_stack([np.cos(th1), np.sin(th1)])
    th2 = (s_vals[on2] - len1) / r2
    right[on2] = c2 + r2 * np.column_stack([np.cos(th2), np.sin(th2)])
    right[on3, 0] = cap - (s_vals[on3] - len1 - len2)
    right[on3, 1] = y_apex
    right[0] = 0.0

    left = right[::-1].copy()
    left[:, 0] = -left[:, 0]
    upper = np.vstack([right, left])

    lobe_up = DiscreteCurve(upper)
    lobe_dn = mirror_drop_curve(lobe_up)
    j = Junction(np.zeros(2), math.pi / 3.0, DEGENERATE_OFFSET_VARIANTS[0])
    net = Network("degenerate_theta", (lobe_up, lobe_dn), (j,))
    if scale is None:
        e_unit = 4.0 * (sweep1 / r1 + sweep2 / r2)
        l_unit = 4.0 * s_half
        scale = math.sqrt(e_unit / l_unit)
    return scale_network(net, float(scale), about=(0.0, 0.0))


# ---------------------------------------------------------------------------
# recovery sequence (degenerate -> theta)


def _first_horizontal_cut(curve: DiscreteCurve) -> float:
    """Arclength of the first horizontal-tangent point, by sign change.

    The tangent's second component is interpolated linearly in arclength
    between edge midpoints, and its first sign change is cut at the root of
    that line.  A run of exactly horizontal edges is cut at its center,
    keeping the cut away from any vertex that carries turning.
    """
    pts = curve.points
    e = pts[1:] - pts[:-1]
    a = np.linalg.norm(e, axis=1)
    ty = e[:, 1] / a
    s = np.concatenate([[0.0], np.cumsum(a)])
    mids = 0.5 * (s[:-1] + s[1:])

    zero = np.nonzero(ty == 0.0)[0]
    change = np.nonzero(ty[:-1] * ty[1:] < 0.0)[0]
    first_zero = zero[0] if len(zero) else None
    first_change = change[0] if len(change) else None
    if first_zero is not None and (first_change is None or first_zero <= first_change):
        j0 = j1 = int(first_zero)
        while j1 + 1 < len(ty) and ty[j1 + 1] == 0.0:
            j1 += 1
        return float(0.5 * (s[j0] + s[j1 + 1]))
    if first_change is None:
        raise ConstructionFailedError("no horizontal tangent: input violates the orientation premise")
    j = int(first_change)
    return float(mids[j] + (mids[j + 1] - mids[j]) * ty[j] / (ty[j] - ty[j + 1]))


def _split_at_arclength(curve: DiscreteCurve, s_cut: float) -> tuple[np.ndarray, np.ndarray]:
    pts = curve.points
    s = vertex_arclengths(curve)
    total = s[-1]
    eps = 1e-12 * total
    j = int(np.searchsorted(s, s_cut)) - 1
    j = max(0, min(j, len(pts) - 2))
    if abs(s_cut - s[j]) < eps:
        return pts[: j + 1].copy(), pts[j:].copy()
    if abs(s_cut - s[j + 1]) < eps:
        return pts[: j + 2].copy(), pts[j + 1 :].copy()
    t = (s_cut - s[j]) / (s[j + 1] - s[j])
    q = pts[j] + t * (pts[j + 1] - pts[j])
    head = np.vstack([pts[: j + 1], q])
    tail = np.vstack([q, pts[j + 1 :]])
    return head, tail


def recovery_sequence(degenerate: Network, n: int) -> Network:
    """Theta-network obtained by cutting a degenerate network and inserting
    three horizontal segments of length 1/n.

    The input must be oriented with curve 0 leaving the four-point at 60
    degrees (frame pi/3, first offset pairing); each curve is cut at its
    first horizontal-tangent point, the trailing halves are shifted left by
    1/n, and the three gaps are bridged by straight horizontal segments, so
    F grows by exactly 3/n up to round-off.
    """
    if degenerate.kind != "degenerate_theta":
        raise InvalidInputError("recovery sequences start from degenerate theta networks")
    if n < 1:
        raise InvalidInputError("n must be a positive integer")
    (j,) = degenerate.junctions
    net = translate_network(degenerate, -j.position)
    (j,) = net.junctions
    want = [math.pi / 3.0 + off for off in DEGENERATE_OFFSET_VARIANTS[0]]
    mism = max(abs(float(signed_angle(unit(j.frame_angle + off), unit(w)))) for off, w in zip(j.offsets, want))
    if mism > 1e-6:
        raise ConstructionFailedError(
            "input must be oriented with curve 0 leaving at 60 degrees (four-point frame pi/3)"
        )

    w = np.array([-1.0 / n, 0.0])
    new_curves = []
    for c in net.curves:
        s_cut = _first_horizontal_cut(c)
        head, tail = _split_at_arclength(c, s_cut)
        pts = np.vstack([head, tail + w])
        new_curves.append(DiscreteCurve(pts, closed=False))
    bridge = DiscreteCurve(np.array([[0.0, 0.0], 0.5 * w, w]), closed=False)
    new_curves.append(bridge)

    j_r = Junction(np.zeros(2), math.pi / 3.0, THETA_OFFSETS_END)
    j_l = Junction(w.copy(), 0.0, THETA_OFFSETS_START[1:] + THETA_OFFSETS_START[:1])
    return Network("theta", tuple(new_curves), (j_r, j_l))


# ---------------------------------------------------------------------------
# serialization


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ParseError(f"missing {key!r}", f"{path}/{key}")
    return doc[key]


def _is_finite_number(x) -> bool:
    """Whether a JSON value is a number that is finite as a float: strings
    and booleans are no numbers."""
    try:
        return not isinstance(x, bool) and isinstance(x, numbers.Real) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _finite_pair(value, path: str) -> np.ndarray:
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_finite_number, value))):
        raise ParseError("expected a finite [x, y] pair", path)
    return np.array(value, dtype=float)


def serialize(network: Network) -> dict:
    """JSON-ready document; coordinates survive a round trip bit for bit."""
    doc: dict = {"kind": network.kind}
    if network.kind == "generalized_theta":
        doc["angles"] = [float(a) for a in network.prescribed_angles]
    doc["curves"] = [{"points": c.points.tolist()} for c in network.curves]
    doc["junctions"] = [
        {"position": j.position.tolist(), "frame_angle": float(j.frame_angle)}
        for j in network.junctions
    ]
    return doc


def deserialize(doc: dict) -> Network:
    """Parse a network document, rebuilding junction slot offsets from geometry."""
    if not isinstance(doc, dict):
        raise ParseError("document must be an object", "/")
    kind = _require(doc, "kind", "")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {reprlib.repr(kind)}", "/kind")

    curves_doc = _require(doc, "curves", "")
    if not isinstance(curves_doc, list) or not curves_doc:
        raise ParseError("curves must be a non-empty list", "/curves")
    curves = []
    for ci, cdoc in enumerate(curves_doc):
        if not isinstance(cdoc, dict):
            raise ParseError("curve must be an object", f"/curves/{ci}")
        pts_doc = _require(cdoc, "points", f"/curves/{ci}")
        if not isinstance(pts_doc, list) or len(pts_doc) < 2:
            raise ParseError("points must list at least 2 pairs", f"/curves/{ci}/points")
        try:  # numbers only: strings give kind "U", and other values kind "O"
            pts = np.asarray(pts_doc)
        except ValueError:
            pts = None
        numeric = pts is not None and pts.dtype.kind in "if" and pts.shape == (len(pts_doc), 2)
        # booleans turn into numbers too: one pass over the value types finds them
        if not (numeric and bool not in set(map(type, itertools.chain.from_iterable(pts_doc)))):
            # pair by pair, to report the first bad one
            pts = np.array([_finite_pair(p, f"/curves/{ci}/points/{pi}") for pi, p in enumerate(pts_doc)])
        try:  # DiscreteCurve checks the coordinates once: finite, with distinct neighbours
            curves.append(DiscreteCurve(pts, closed=(kind == "closed")))
        except InvalidCurveError as exc:
            if not np.isfinite(pts).all():  # pair by pair, to report the first bad one
                for pi, p in enumerate(pts_doc):
                    _finite_pair(p, f"/curves/{ci}/points/{pi}")
            raise ParseError(str(exc), f"/curves/{ci}") from None

    junctions_doc = doc.get("junctions", [])
    if not isinstance(junctions_doc, list):
        raise ParseError("junctions must be a list", "/junctions")
    raw_junctions = []
    for ji, jdoc in enumerate(junctions_doc):
        if not isinstance(jdoc, dict):
            raise ParseError("junction must be an object", f"/junctions/{ji}")
        pos = _finite_pair(_require(jdoc, "position", f"/junctions/{ji}"), f"/junctions/{ji}/position")
        frame = _require(jdoc, "frame_angle", f"/junctions/{ji}")
        if not _is_finite_number(frame):
            raise ParseError("frame_angle must be a finite number", f"/junctions/{ji}/frame_angle")
        raw_junctions.append((pos, float(frame)))

    angles = None
    if kind == "generalized_theta":
        ang_doc = _require(doc, "angles", "")
        if not isinstance(ang_doc, list) or len(ang_doc) != 3:
            raise ParseError("angles must list three numbers", "/angles")
        for ai, a in enumerate(ang_doc):
            if not _is_finite_number(a):
                raise ParseError("angle must be a finite number", f"/angles/{ai}")
        angles = tuple(float(a) for a in ang_doc)
    elif "angles" in doc:
        raise ParseError("angles only apply to generalized networks", "/angles")

    junctions = _rebuild_junctions(kind, curves, raw_junctions, angles)
    return Network(kind, tuple(curves), junctions, angles)


def _rebuild_junctions(kind, curves, raw_junctions, angles):
    n_junctions = _SHAPE[kind][1]
    if len(raw_junctions) != n_junctions:
        if not n_junctions:
            raise ParseError("this kind carries no junctions", "/junctions")
        raise ParseError(f"expected exactly {n_junctions} junction{'s' * (n_junctions > 1)}", "/junctions")
    if not n_junctions:
        return ()
    if kind == "degenerate_theta":
        candidates = sorted(set(DEGENERATE_OFFSET_VARIANTS[0]) | set(DEGENERATE_OFFSET_VARIANTS[1]))
    elif angles is None:
        candidates = list(THETA_OFFSETS_START)
    else:
        a1, a2 = angles[0], angles[1]
        candidates = [0.0, a1, a1 + a2, 2.0 * math.pi - a1, 2.0 * math.pi - a1 - a2]
    # each slot takes the candidate offset closest to the estimated outgoing
    # direction of the curve end that meets it
    j, slot = np.array(end_slots(kind, len(curves))).transpose(2, 0, 1)
    outgoing = endpoint_tangent_array(curves) * np.array([[1.0], [-1.0]])
    frames, candidates = np.array([frame for _, frame in raw_junctions])[j], np.array(candidates)
    est = np.arctan2(outgoing[..., 1], outgoing[..., 0])
    miss = np.abs(_wrap_pi(est[..., None] - (frames[..., None] + candidates)))
    offsets = np.empty((n_junctions, slot.max() + 1))
    offsets[j, slot] = candidates[np.argmin(miss, axis=-1)]
    return tuple(Junction(pos, frame, fit) for (pos, frame), fit in zip(raw_junctions, offsets))


def _reject_constant(name):
    raise ParseError(f"non-finite number {name!r} is not allowed", "/")


def read_json(path):
    """The document of a UTF-8 JSON file, for every file the package reads.

    Undecodable text, malformed JSON, ``NaN``/``Infinity`` and nesting too
    deep to parse raise ``ParseError`` at ``/``; ``OSError`` propagates.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
            raise ParseError(f"invalid JSON: {exc}", "/") from None


def load_json(path) -> Network:
    return deserialize(read_json(path))


def save_json(network: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(serialize(network)) + "\n")
