"""Measurable divisibility of the circle under tuples of rotations.

Angles are measured in turns (fractions of a full revolution), so every
closed form for the least cancelling degree is an exact statement about
rationals: r <= 3 unit vectors sum to zero only as a rotated regular r-gon,
and four only as two antipodal pairs (Lam and Leung, J. Algebra 224, 2000).
An angle may carry a formal transcendental part (a rational combination of
named generators); cancellation of unit vectors is then decided exactly within
each group of angles sharing the same formal part, since algebraically
independent offsets force groupwise cancellation.

Verdicts: "constructive" comes with an explicit arc set whose translates
partition the circle; "fractional_only" means a non-constant fractional
division exists (witness degree attached) but no measurable one; "not_fractional"
means not even a fractional division exists.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import divisors, unit_vectors_sum_is_zero
from .linalg import clear_denominators
from .serialize import json_entry
from .tiling import TileInstance, solve as tiling_solve


@dataclass(frozen=True)
class Angle:
    """Rational turn plus a formal sum of named transcendental generators."""

    turns: Fraction
    formal: tuple[tuple[str, Fraction], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "turns", Fraction(self.turns) % 1)
        cleaned = tuple(sorted((name, Fraction(c)) for name, c in self.formal if Fraction(c)))
        object.__setattr__(self, "formal", cleaned)

    @property
    def is_rational(self) -> bool:
        return not self.formal

    def __add__(self, other: "Angle") -> "Angle":
        coeffs = dict(self.formal)
        for name, c in other.formal:
            coeffs[name] = coeffs.get(name, Fraction(0)) + c
        return Angle(self.turns + other.turns, tuple(coeffs.items()))

    def __sub__(self, other: "Angle") -> "Angle":
        coeffs = dict(self.formal)
        for name, c in other.formal:
            coeffs[name] = coeffs.get(name, Fraction(0)) - c
        return Angle(self.turns - other.turns, tuple(coeffs.items()))

    def __str__(self):
        parts = [str(self.turns)]
        for name, c in self.formal:
            parts.append(f"{c}*{name}")
        return " + ".join(parts)


_TERM_RE = re.compile(r"^(?:(?P<coef>-?\d+(?:/\d+)?)\*)?(?P<name>[A-Za-z_]\w*)$")


def parse_angle(text: str) -> Angle:
    """Parse forms like "1/3", "1/2 + tau", "3/4 - 2*tau1 + 1/2*tau2"."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty angle")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    turns = Fraction(0)
    coeffs: dict[str, Fraction] = {}
    for tok in tokens:
        sign = Fraction(1)
        body = tok
        if body[0] in "+-":
            sign = Fraction(-1) if body[0] == "-" else Fraction(1)
            body = body[1:]
        if re.fullmatch(r"\d+(?:/\d+)?(?:\.\d+)?", body):
            if "." in body:
                raise ValueError(f"angle term {tok!r} is not exact; use p/q turns")
            turns += sign * Fraction(body)
            continue
        m = _TERM_RE.match(body)
        if not m:
            raise ValueError(f"cannot parse angle term {tok!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        name = m.group("name")
        coeffs[name] = coeffs.get(name, Fraction(0)) + sign * coef
    return Angle(turns, tuple(coeffs.items()))


@dataclass(frozen=True)
class ArcSet:
    """Disjoint sorted half-open arcs [a, b) with rational-turn endpoints."""

    arcs: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        norm = tuple(sorted((Fraction(a), Fraction(b)) for a, b in self.arcs))
        for a, b in norm:
            if not (0 <= a < b <= 1):
                raise ValueError(f"arc [{a}, {b}) outside the unit turn")
        for (_, b0), (a1, _) in zip(norm, norm[1:]):
            if a1 < b0:
                raise ValueError("arcs overlap")
        object.__setattr__(self, "arcs", norm)

    @property
    def total_length(self) -> Fraction:
        return sum((b - a for a, b in self.arcs), Fraction(0))

    def to_json(self) -> list[dict[str, str]]:
        return [{"start": f"{a.numerator}/{a.denominator}",
                 "end": f"{b.numerator}/{b.denominator}"} for a, b in self.arcs]

    @classmethod
    def from_json(cls, data) -> "ArcSet":
        """The arc set a JSON list of {"start", "end"} objects describes; any
        malformed structure raises ValueError."""
        if not isinstance(data, list) or not all(isinstance(item, dict) for item in data):
            raise ValueError(f"arcs must be a list of {{start, end}} objects, got {data!r}")
        return cls(tuple((json_entry(Fraction, item.get("start")),
                          json_entry(Fraction, item.get("end"))) for item in data))


class CutTable(NamedTuple):
    """The circle cut at the integers ``cuts`` (sorted, in [0, q)) over one
    denominator q.  ``holders[j]`` are the pieces (1-based translate indices)
    holding the interval from cuts[j] to the next cut; the last interval wraps
    past 0, and with no cuts the one interval is the whole circle."""

    q: int
    cuts: tuple[int, ...]
    holders: tuple[tuple[int, ...], ...]

    def piece(self, turn, margin=0) -> int | None:
        """The piece holding the turn, or None unless exactly one does and the
        turn is at least ``margin`` turns from every cut; exact."""
        x = Fraction(turn) % 1 * self.q
        j = bisect_right(self.cuts, x) - 1
        hits = self.holders[j]
        if len(hits) != 1:
            return None
        if self.cuts:
            after, before = self.cuts[j], self.cuts[(j + 1) % len(self.cuts)]
            if min((x - after) % self.q, (before - x) % self.q) < margin * self.q:
                return None
        return hits[0]


def arc_cuts(turns, arcs: ArcSet) -> CutTable:
    """The cut table of the arcs translated by the rational turns.

    Turns and arc ends are cleared to integers over one denominator q; every
    translated end is a cut.  Arcs are closed on the left, so an interval
    between two cuts is held by the translates holding its left end.
    """
    turns = list(turns)
    nums, q = clear_denominators(turns + [e for arc in arcs.arcs for e in arc])
    shifts, ends = nums[:len(turns)], nums[len(turns):]
    starts, stops = ends[0::2], ends[1::2]

    def held(x: int) -> bool:
        j = bisect_right(starts, x) - 1
        return j >= 0 and x < stops[j]

    cuts = sorted({(e + t) % q for t in shifts for e in ends})
    holders = tuple(tuple(i for i, t in enumerate(shifts, 1) if held((c - t) % q))
                    for c in cuts)
    return CutTable(q, tuple(cuts), holders or ((),))


@dataclass
class CircleClassification:
    verdict: str  # constructive | fractional_only | not_fractional
    r: int
    arcs: ArcSet | None = None
    witness_degree: int | None = None
    reduced_turns: tuple[Fraction, ...] | None = None
    group_order: int | None = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        reduced = None
        if self.reduced_turns is not None:
            reduced = [f"{t.numerator}/{t.denominator}" for t in self.reduced_turns]
        return {
            "verdict": self.verdict,
            "r": self.r,
            "arcs": self.arcs.to_json() if self.arcs else None,
            "witness_degree": self.witness_degree,
            "reduced_turns": reduced,
            "group_order": self.group_order,
            "notes": self.notes,
        }


def _as_angles(angles) -> list[Angle]:
    out = []
    for a in angles:
        if isinstance(a, Angle):
            out.append(a)
        elif isinstance(a, str):
            out.append(parse_angle(a))
        else:
            out.append(Angle(Fraction(a)))
    return out


def _formal_groups(angles: list[Angle]) -> dict[tuple, list[Fraction]]:
    groups: dict[tuple, list[Fraction]] = {}
    for a in angles:
        groups.setdefault(a.formal, []).append(a.turns)
    return groups


def cancellation_at(angles, n: int) -> bool:
    """Exact test whether the unit vectors at n times the angles sum to zero."""
    groups = _formal_groups(_as_angles(angles))
    return all(unit_vectors_sum_is_zero([n * t for t in turns])
               for turns in groups.values())


def fractional_test(angles) -> int | None:
    """Smallest n >= 1 at which the rotated unit vectors cancel, else None.

    Let q be the common denominator of the rational parts.  Each group's sum
    at n lies in Q(zeta_q) and depends on n only mod q.  With g = gcd(n, q),
    some unit u mod q has n = g*u (mod q), since units mod q/g lift to units
    mod q; the automorphism zeta_q -> zeta_q^u then sends every group's sum
    at g to its sum at n, so one vanishes exactly when the other does.  The
    least cancelling n is therefore a divisor of q: walking the divisors in
    ascending order decides the tuple with at most tau(q) zero tests per
    group (tau(q) the number of divisors of q) instead of q.  Groups with a
    single member can never cancel.
    """
    ang = _as_angles(angles)
    if len(ang) < 2:
        raise ValueError("need r >= 2 angles")
    groups = _formal_groups(ang)
    if any(len(turns) == 1 for turns in groups.values()):
        return None
    q = 1
    for a in ang:
        q = q * a.turns.denominator // math.gcd(q, a.turns.denominator)
    for n in divisors(q):
        if all(unit_vectors_sum_is_zero([n * t for t in turns])
               for turns in groups.values()):
            return n
    return None


def necessary_degrees(angles, n_max: int) -> set[int]:
    """All n in 1..n_max at which cancellation holds (for cross-validation)."""
    ang = _as_angles(angles)
    return {n for n in range(1, n_max + 1) if cancellation_at(ang, n)}


def _cyclic_group_data(turns: list[Fraction]) -> tuple[int, list[int]]:
    """Order N of the subgroup generated by the turns and their residues mod N."""
    lcm = 1
    for t in turns:
        lcm = lcm * t.denominator // math.gcd(lcm, t.denominator)
    g = lcm
    for t in turns:
        g = math.gcd(g, int(t * lcm))
    order = lcm // g
    return order, [int(t * order) % order for t in turns]


def _pairing_degree(s: list[Angle]) -> int | None:
    """Least n at which four unit vectors at n times the angles cancel.

    Four unit vectors cancel only as two antipodal pairs, and n*p/q = 1/2
    (mod 1) holds exactly at the odd multiples of q/2.  A pairing therefore
    cancels exactly when its two differences are rational with even
    denominators q_a, q_b carrying the same power of 2, first at
    lcm(q_a/2, q_b/2).
    """
    best = None
    for (i, j), (k, m) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        da, db = s[i] - s[j], s[k] - s[m]
        if not (da.is_rational and db.is_rational):
            continue
        qa, qb = da.turns.denominator, db.turns.denominator
        if qa % 2 == 0 and qa & -qa == qb & -qb:
            n = math.lcm(qa // 2, qb // 2)
            best = n if best is None else min(best, n)
    return best


def _cells(order: int, members) -> ArcSet:
    """The arcs [a/N, (a+1)/N) of the members a of Z_N."""
    cell = Fraction(1, order)
    return ArcSet(tuple((Fraction(a, order), Fraction(a, order) + cell) for a in members))


_REDUCTION_NOTE = ("r>=5 decision via reduction to the generated finite cyclic group; "
                   "sound and complete for rational tuples (extension beyond the "
                   "r<=4 closed-form analysis)")


def classify(angles) -> CircleClassification:
    """Decide the tuple from its differences s_i to the last angle.

    Rational differences generate a cyclic group Z_N, the s_i becoming
    residues k_i.  The least cancelling degree n0 comes from the theorem for
    the tuple's size: r <= 3 unit vectors cancel only as a rotated regular
    r-gon, so n0 = N/r when r | N and the k_i are distinct mod r, and no
    degree cancels otherwise (formal differences included); r = 4 is
    ``_pairing_degree``; r >= 5 walks the divisors (``fractional_test``).  A
    rational tuple divides the circle measurably exactly when Z_N tiles by
    the shifts k_i, and a tiling A gives the arcs of the cells a/N, a in A:
    A = {0, r, 2r, ...} for r <= 3, the exact-cover search for r >= 4.
    A formal difference leaves fractional divisions only: offsets cancel only
    within a class R_c sharing a formal part, so sum_{rho in R_c} 1_A(x - rho)
    has no Fourier mass off 0, and is a.e. |R_c| / r in (0, 1), not an integer.
    """
    ang = _as_angles(angles)
    r = len(ang)
    if r < 2:
        raise ValueError("need r >= 2 angles")
    s = [a - ang[-1] for a in ang]
    rational = all(a.is_rational for a in s)
    turns = tuple(a.turns for a in s)
    order, residues = _cyclic_group_data(turns) if rational else (None, None)
    if r <= 3:
        if not rational or order % r or len({k % r for k in residues}) < r:
            return CircleClassification(verdict="not_fractional", r=r)
        return CircleClassification(verdict="constructive", r=r,
                                    arcs=_cells(order, range(0, order, r)),
                                    witness_degree=order // r, reduced_turns=turns)
    if r == 4:
        n0, notes = _pairing_degree(s), []
    else:
        n0, notes = fractional_test(ang), [_REDUCTION_NOTE] if rational else []
    if n0 is None:
        return CircleClassification(verdict="not_fractional", r=r, notes=notes)
    if not rational:
        return CircleClassification(
            verdict="fractional_only", r=r, witness_degree=n0,
            notes=["irrational offsets force every fractional division to be "
                   "non-measurable"])
    if order % r == 0:
        solution = tiling_solve(TileInstance(order, tuple(residues)))
        if solution is not None:
            return CircleClassification(
                verdict="constructive", r=r, arcs=_cells(order, solution.members),
                witness_degree=n0, reduced_turns=turns, group_order=order, notes=notes)
    if r == 4:
        notes = [f"group order {order} is not divisible by 4" if order % 4
                 else f"Z_{order} admits no exact tiling by these shifts"]
    return CircleClassification(verdict="fractional_only", r=r, witness_degree=n0,
                                reduced_turns=turns, group_order=order, notes=notes)


def verify_arcset(angles, arcs: ArcSet) -> bool:
    """Exact check that the translates of the arcs by the angles partition the
    circle: every interval of their cut table is held exactly once.  Rejects
    tuples with transcendental parts (no exact verification)."""
    ang = _as_angles(angles)
    if any(not a.is_rational for a in ang):
        raise ValueError("exact verification needs purely rational angles")
    return all(len(hits) == 1 for hits in arc_cuts([a.turns for a in ang], arcs).holders)
