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

The circle coordinate has one cut table per descriptor: the translated arc
ends of a circle division (`circle.arc_cuts`), or the r cells of 1/r turn of a
lift.  `membership` reads it by bisection and `verify_partition` a circle
division's by integer thresholds over whole sample arrays, a lift's cells by
arithmetic.  Only the sampler loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .circle import ArcSet, CutTable, arc_cuts, verify_arcset
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

    @cached_property
    def cuts(self) -> CutTable:
        return arc_cuts(self.turns, self.arcs)

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

    @cached_property
    def cuts(self) -> CutTable:
        """The r cells of 1/r turn: cell j lies in piece j, cell 0 in piece r."""
        return CutTable(self.r, tuple(range(self.r)), ((self.r,),) + tuple(
            (j,) for j in range(1, self.r)))

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


def membership(desc: DivisionDescriptor, point, margin: float = MEMBERSHIP_MARGIN):
    """Piece index of a point, or None for the null-set / boundary flag.

    Accepts Cartesian coordinates (floats, unit norm within 1e-9), an exact
    rational turn for circle descriptors, or (angle, lower_direction) pairs
    for lifted descriptors with an exact rational angle.  Both read the
    descriptor's cut table; a Cartesian point within ``margin`` turns of a cut
    gets the flag.
    """
    if isinstance(desc, PlaceholderDivision):
        return None
    if isinstance(desc, BaseCircleDivision):
        if isinstance(point, (Fraction, int)):
            return desc.cuts.piece(point)
        x, y = float(point[0]), float(point[1])
        _require_unit(x * x + y * y)
        return desc.cuts.piece(_turn(x, y), margin)
    if isinstance(point, tuple) and len(point) == 2 and isinstance(point[0], (Fraction, int)):
        return desc.cuts.piece(point[0])
    coords = [float(c) for c in point]
    if len(coords) != desc.dimension:
        raise ValueError("point dimension mismatch")
    _require_unit(sum(c * c for c in coords))
    if math.hypot(*coords[-2:]) > margin:
        return desc.cuts.piece(_turn(*coords[-2:]), margin)
    x = coords[:-2]
    x_norm = math.sqrt(sum(c * c for c in x))
    if x_norm < margin:
        raise ValueError("point is off the sphere")
    return membership(desc.lower, [c / x_norm for c in x], margin)


def _turn(x: float, y: float) -> Fraction:
    return Fraction(math.atan2(y, x) / (2.0 * math.pi)) % 1


def _require_unit(norm_sq: float) -> None:
    if abs(norm_sq - 1.0) > 1e-9:
        raise ValueError(f"point is off the sphere (|x|^2 = {norm_sq})")


# -- randomized partition verification -----------------------------------------


@dataclass
class PartitionReport:
    samples_requested: int
    retained: int
    violations: list = field(default_factory=list)
    piece_counts: list = field(default_factory=list)  # or pairs, see verify_partition
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

    The circle coordinate is drawn as a uniform rational k / (10^6 r) and its
    piece read off the descriptor's cut table by integer thresholds, so every
    decisive test is exact.  Points within 10^-7 turn of a cut, or with
    circle block below the margin, are rejected, matching the null set the
    construction ignores.  On a lifted descriptor the samples test the
    circle-block rule; the lower division decides only that null set and was
    checked when the descriptor was loaded.  A lift's table is regular (cut j
    at k = j 10^6, cell j in piece j, cell 0 in piece r), so it is read by
    arithmetic on k and nothing of size r is built.  The counts are per
    piece, or, when there are more pieces than samples, [piece, count] pairs
    of the pieces sampled, so the report never outgrows the samples either.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    if isinstance(desc, PlaceholderDivision):
        raise ValueError("placeholder divisions have no evaluable membership")
    r, scale = desc.r, ANGLE_DENOMINATOR_SCALE
    denom = scale * r
    lifted = isinstance(desc, LiftedDivision)
    keep = _circle_block_kept(desc, samples, rng) if lifted else True
    ks = rng.integers(0, denom, size=samples)
    if lifted:
        # cut j sits at k = j 10^6, and 10^-7 turn is r / 10 steps of k
        gap = ks % scale
        np.minimum(gap, scale - gap, out=gap)
        ks = ks[keep & (gap >= -(-r // 10))]
        piece, violations = ks // scale, []
        piece[piece == 0] = r
    else:
        table = desc.cuts
        ks = ks[~_near_cut(ks, table, denom)]
        # the count of cuts at or below k / denom (k >= ceil(c denom / q))
        # picks the interval; a count of 0 is the one wrapping past 0, the last
        below = np.searchsorted([-(-c * denom // table.q) for c in table.cuts], ks, side="right")
        holders = table.holders[-1:] + table.holders
        piece = np.array([hits[0] if len(hits) == 1 else 0 for hits in holders])[below]
        violations = [{"angle": str(Fraction(int(ks[n]), denom)),
                       "pieces": list(holders[below[n]])}
                      for n in np.flatnonzero(piece == 0).tolist()]
    if r <= samples:
        counts = np.bincount(piece, minlength=r + 1)[1:].tolist()
    else:
        sampled, hits = np.unique(piece[piece > 0], return_counts=True)
        counts = [list(pair) for pair in zip(sampled.tolist(), hits.tolist())]
    return PartitionReport(samples_requested=samples, retained=len(ks),
                           violations=violations, piece_counts=counts, seed=seed)


def _near_cut(ks, table: CutTable, denom: int):
    """Is k / denom within 10^-7 turn of a cut c / q, that is
    |k q - c denom| 10^7 < q denom?  Exact: each cut rejects the integers
    lo..hi, and so do its copies one turn either side."""
    import numpy as np

    m, q = 10 ** 7, table.q
    band = np.array([[(c * m - q) * denom // (q * m) + 1 for c in table.cuts],
                     [-(-(c * m + q) * denom // (q * m)) - 1 for c in table.cuts]],
                    dtype=np.int64)
    lo, hi = np.concatenate([band - denom, band, band + denom], axis=1)
    # both ends grow with the cut, so the last band starting at or below k
    # reaches furthest; the leading -1 stands for no band
    return np.concatenate([[-1], hi])[np.searchsorted(lo, ks, side="right")] >= ks


def _circle_block_kept(desc: LiftedDivision, samples: int, rng):
    """Which Gaussian sphere points have a circle block of at least the margin;
    drawn in row chunks, the same stream as one call with less memory."""
    import numpy as np

    keep = np.empty(samples, dtype=bool)
    for start in range(0, samples, GAUSS_CHUNK_ROWS):
        gauss = rng.normal(size=(min(GAUSS_CHUNK_ROWS, samples - start), desc.dimension))
        norm = np.linalg.norm(gauss, axis=1)
        y_norm = np.hypot(gauss[:, -2], gauss[:, -1]) / np.maximum(norm, 1e-12)
        keep[start:start + len(gauss)] = (norm >= 1e-12) & (y_norm >= BOUNDARY_MARGIN)
    return keep
