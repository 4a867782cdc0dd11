"""Lifting circle divisions to higher-dimensional spheres.

A verified division of S^{d-3} by rotations a_1, ..., a_r lifts to a division
of S^{d-1}: act on the last two coordinates by powers of the order-r circle
rotation b, take B the arc of 1/r of a turn, and use the piece C = A' u B'
where A' = A x {(0,0)} is a null set and B' collects the points whose last two
coordinates, normalized, land in B.  Iterating from circle arc divisions gives
explicit measurable divisions of S^3, S^5, ...; a placeholder lower descriptor
stands in for a lower division that exists abstractly but has no evaluable
membership (its null part is reported as such).

The descriptor fixes the rotations: the lower a_i on the first d-2
coordinates, i/r of a turn on the last two.  The lower division decides only
the null set A' and is checked when the descriptor is built or loaded;
`verify_partition` samples the circle-block rule, which an exact rational turn
of the last two coordinates decides, so no decisive test rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circle import ArcSet, verify_arcset
from .serialize import json_entry, json_int, json_list

BOUNDARY_MARGIN = 1e-7
MEMBERSHIP_MARGIN = 1e-9
ANGLE_DENOMINATOR_SCALE = 10 ** 6
GAUSS_CHUNK_ROWS = 8192


@dataclass
class BaseCircleDivision:
    """Arc division of the circle: translates of the arcs by the given rational
    turns partition [0, 1).  Verified exactly on construction unless ``verify``
    is disabled (for exercising the failure-reporting paths); lifting always
    re-verifies."""

    turns: tuple[Fraction, ...]
    arcs: ArcSet
    verify: bool = True

    def __post_init__(self):
        self.turns = tuple(Fraction(t) % 1 for t in self.turns)
        if self.verify and not verify_arcset(list(self.turns), self.arcs):
            raise ValueError("arc translates do not partition the circle")

    @property
    def r(self) -> int:
        return len(self.turns)

    @property
    def dimension(self) -> int:
        return 2

    def to_json(self) -> dict:
        return {"kind": "circle", "turns": [f"{t.numerator}/{t.denominator}" for t in self.turns],
                "arcs": self.arcs.to_json()}


@dataclass
class PlaceholderDivision:
    """Stands in for an abstract division of S^{dimension-1} whose pieces have
    no evaluable membership; every query returns the null-set flag."""

    dimension: int
    r: int

    def to_json(self) -> dict:
        return {"kind": "placeholder", "dimension": self.dimension, "r": self.r}


@dataclass
class LiftedDivision:
    lower: "DivisionDescriptor"
    r: int
    dimension: int

    def to_json(self) -> dict:
        return {"kind": "lifted", "dimension": self.dimension, "r": self.r,
                "lower": self.lower.to_json()}


DivisionDescriptor = BaseCircleDivision | PlaceholderDivision | LiftedDivision


def descriptor_from_json(data) -> DivisionDescriptor:
    """The division descriptor a JSON object describes; any malformed
    structure raises ValueError.  The chain of lifts is walked iteratively,
    so nesting depth is bounded only by the JSON reader."""
    lifts = []
    while isinstance(data, dict) and data.get("kind") == "lifted":
        lifts.append(data)
        data = data.get("lower")
    if not isinstance(data, dict):
        raise ValueError(f"a division descriptor must be a JSON object, "
                         f"got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "circle":
        turns = json_list(data.get("turns"))
        desc = BaseCircleDivision(tuple(json_entry(Fraction, t) for t in turns),
                                  ArcSet.from_json(data.get("arcs")))
    elif kind == "placeholder":
        desc = PlaceholderDivision(dimension=json_int(data, "dimension", 1),
                                   r=json_int(data, "r", 1))
    else:
        raise ValueError(f"unknown descriptor kind {kind!r}")
    for node in reversed(lifts):
        r, dim = node.get("r"), node.get("dimension")
        # a lift keeps the lower division's r and adds two dimensions
        if type(r) is not int or type(dim) is not int or r != desc.r \
                or dim - 2 != desc.dimension:
            raise ValueError(f"lifted descriptor (dimension {dim!r}, r {r!r}) does not "
                             f"match its lower division (dimension {desc.dimension!r}, "
                             f"r {desc.r!r})")
        desc = LiftedDivision(lower=desc, r=r, dimension=dim)
    return desc


def lift(lower: DivisionDescriptor, r: int) -> LiftedDivision:
    """Lift a verified division two dimensions up; the descriptor fixes the
    block rotations (the lower i-th rotation, then i/r of a turn).

    The lower descriptor must carry exactly r pieces; BaseCircleDivision
    re-verifies its arc partition on construction, lifted descriptors were
    verified when built, and placeholders are accepted as declared.
    """
    if lower.r != r:
        raise ValueError(f"lower division has {lower.r} pieces, lift asked for {r}")
    if isinstance(lower, BaseCircleDivision) and not verify_arcset(list(lower.turns), lower.arcs):
        raise ValueError("lower circle division failed verification")
    return LiftedDivision(lower=lower, r=r, dimension=lower.dimension + 2)


def lift_from_circle(turns, arcs: ArcSet, target_dimension: int) -> LiftedDivision:
    """Chain of lifts from a circle division up to an even dimension >= 4."""
    if target_dimension < 4 or target_dimension % 2:
        raise ValueError("lifting a circle division reaches even dimensions >= 4")
    desc: DivisionDescriptor = BaseCircleDivision(tuple(Fraction(t) for t in turns), arcs)
    while desc.dimension < target_dimension:
        desc = lift(desc, desc.r)
    return desc


# -- membership ---------------------------------------------------------------


def _arc_hits(desc: BaseCircleDivision, angle: Fraction) -> list[int]:
    """Every piece index i in [r] with angle - t_i inside the arcs; exact."""
    return [i + 1 for i, t in enumerate(desc.turns) if desc.arcs.contains(angle - t)]


def membership_angle(desc: BaseCircleDivision, angle: Fraction) -> int | None:
    """The piece index holding the angle, or None unless exactly one does."""
    hits = _arc_hits(desc, Fraction(angle))
    return hits[0] if len(hits) == 1 else None


def _circle_piece(turn_angle: Fraction, r: int) -> int:
    """Unique i in [r] with angle - i/r in [0, 1/r); exact on rational turns."""
    k = math.floor((Fraction(turn_angle) % 1) * r)
    return r if k == 0 else k


def membership(desc: DivisionDescriptor, point, margin: float = MEMBERSHIP_MARGIN):
    """Piece index of a point, or None for the null-set / boundary flag.

    Accepts Cartesian coordinates (floats, unit norm within 1e-9), an exact
    rational turn for circle descriptors, or (angle, lower_direction) pairs
    for lifted descriptors with an exact rational angle.
    """
    if isinstance(desc, PlaceholderDivision):
        return None
    if isinstance(desc, BaseCircleDivision):
        if isinstance(point, (Fraction, int)):
            return membership_angle(desc, Fraction(point))
        x, y = float(point[0]), float(point[1])
        _require_unit(x * x + y * y)
        turn = Fraction(math.atan2(y, x) / (2.0 * math.pi)) % 1
        if _near_arc_boundary(desc, turn, margin):
            return None
        return membership_angle(desc, turn)
    if isinstance(point, tuple) and len(point) == 2 and isinstance(point[0], (Fraction, int)):
        return _circle_piece(Fraction(point[0]), desc.r)
    coords = [float(c) for c in point]
    if len(coords) != desc.dimension:
        raise ValueError("point dimension mismatch")
    _require_unit(sum(c * c for c in coords))
    y = coords[-2:]
    y_norm = math.hypot(*y)
    if y_norm > margin:
        turn = Fraction(math.atan2(y[1], y[0]) / (2.0 * math.pi)) % 1
        if _near_cell_boundary(turn, desc.r, margin):
            return None
        return _circle_piece(turn, desc.r)
    x = coords[:-2]
    x_norm = math.sqrt(sum(c * c for c in x))
    if x_norm < margin:
        raise ValueError("point is off the sphere")
    return membership(desc.lower, [c / x_norm for c in x], margin)


def _require_unit(norm_sq: float) -> None:
    if abs(norm_sq - 1.0) > 1e-9:
        raise ValueError(f"point is off the sphere (|x|^2 = {norm_sq})")


def _near_arc_boundary(desc: BaseCircleDivision, turn: Fraction, margin: float) -> bool:
    ends = [e for t in desc.turns for arc in desc.arcs.translate(t).arcs for e in arc]
    x = float(turn)
    return any(min(abs(x - float(e)), 1.0 - abs(x - float(e))) < margin for e in ends)


def _near_cell_boundary(turn: Fraction, r: int, margin: float) -> bool:
    x = float(turn) * r
    frac = x - math.floor(x)
    return min(frac, 1.0 - frac) < margin * r


# -- randomized partition verification -----------------------------------------


@dataclass
class PartitionReport:
    samples_requested: int
    retained: int
    violations: list = field(default_factory=list)
    piece_counts: list[int] = field(default_factory=list)
    seed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"samples_requested": self.samples_requested, "retained": self.retained,
                "violations": self.violations[:20],
                "violation_count": len(self.violations),
                "piece_counts": self.piece_counts, "seed": self.seed}


def verify_partition(desc: DivisionDescriptor, samples: int, seed: int = 0) -> PartitionReport:
    """Sample sphere points and check each lies in exactly one translated piece.

    The circle coordinate is drawn as a uniform rational with denominator
    10^6 * r so the decisive arc tests are exact; points too close to a piece
    boundary (margin 1e-7 of a turn) or with circle block below the margin are
    rejected, matching the null set the construction ignores.  On a lifted
    descriptor the samples test the circle-block rule; the lower division
    decides only that null set and was checked when the descriptor was loaded.
    """
    rng = np.random.default_rng(seed)
    if isinstance(desc, PlaceholderDivision):
        raise ValueError("placeholder divisions have no evaluable membership")
    if isinstance(desc, BaseCircleDivision):
        return _verify_base(desc, samples, rng, seed)
    return _verify_lifted(desc, samples, rng, seed)


def _verify_base(desc: BaseCircleDivision, samples: int, rng, seed: int) -> PartitionReport:
    r = desc.r
    denom = ANGLE_DENOMINATOR_SCALE * r
    margin = Fraction(1, 10 ** 7)
    ends = sorted({(Fraction(e) + t) % 1
                   for t in desc.turns for arc in desc.arcs.arcs for e in arc})
    counts = [0] * r
    violations = []
    retained = 0
    ks = rng.integers(0, denom, size=samples)
    for k in ks:
        angle = Fraction(int(k), denom)
        if any(min((angle - e) % 1, (e - angle) % 1) < margin for e in ends):
            continue
        retained += 1
        hits = _arc_hits(desc, angle)
        if len(hits) != 1:
            violations.append({"angle": str(angle), "pieces": hits})
        else:
            counts[hits[0] - 1] += 1
    return PartitionReport(samples_requested=samples, retained=retained,
                           violations=violations, piece_counts=counts, seed=seed)


def _verify_lifted(desc: LiftedDivision, samples: int, rng, seed: int) -> PartitionReport:
    r = desc.r
    denom = ANGLE_DENOMINATOR_SCALE * r
    cell = ANGLE_DENOMINATOR_SCALE  # integer width of one 1/r-turn cell
    # the Gaussian block in row chunks: the same stream as one call, less memory
    keep = np.empty(samples, dtype=bool)
    for start in range(0, samples, GAUSS_CHUNK_ROWS):
        gauss = rng.normal(size=(min(GAUSS_CHUNK_ROWS, samples - start), desc.dimension))
        norm = np.linalg.norm(gauss, axis=1)
        y_norm = np.hypot(gauss[:, -2], gauss[:, -1]) / np.maximum(norm, 1e-12)
        keep[start:start + len(gauss)] = (norm >= 1e-12) & (y_norm >= BOUNDARY_MARGIN)
    ks = rng.integers(0, denom, size=samples)
    ks = ks[keep & (np.minimum(ks % cell, cell - ks % cell) >= 10 ** -7 * denom)]
    # one translate at a time, so memory stays linear in the samples for any r
    count, piece = np.zeros((2, len(ks)), dtype=np.int64)
    for i in range(1, r + 1):
        inside = _in_cell(ks, i, cell, denom)
        count += inside
        piece[inside] = i
    single = count == 1
    violations = [{"angle": f"{k}/{denom}",
                   "pieces": [i for i in range(1, r + 1) if _in_cell(k, i, cell, denom)]}
                  for k in ks[~single].tolist()]
    counts = np.bincount(piece[single] - 1, minlength=r).tolist()
    return PartitionReport(samples_requested=samples, retained=len(ks),
                           violations=violations, piece_counts=counts, seed=seed)


def _in_cell(k, i: int, cell: int, denom: int):
    """Is the integer angle k (scalar or array) in g_i C?  g_i^{-1} shifts the
    angle by -i/r, and the piece C holds it iff it lands in [0, 1/r)."""
    return (k - i * cell) % denom < cell
