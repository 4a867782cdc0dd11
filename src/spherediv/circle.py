"""Measurable divisibility of the circle under tuples of rotations.

Angles are measured in turns (fractions of a full revolution), so every
congruence in the r <= 4 case analysis is an exact statement about rationals.
An angle may carry a formal transcendental part (a rational combination of
named generators); cancellation of unit vectors is then decided exactly within
each group of angles sharing the same formal part, since algebraically
independent offsets force groupwise cancellation.

Verdicts: "constructive" comes with an explicit arc set whose translates
partition the circle; "fractional_only" means a non-constant fractional
division exists (witness degree attached) but no measurable one; "not_fractional"
means not even a fractional division exists; r >= 5 tuples with formal parts
are honestly reported "heuristic_unknown".
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import divisors, unit_vectors_sum_is_zero
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

    def contains(self, x: Fraction) -> bool:
        x = Fraction(x) % 1
        for a, b in self.arcs:
            if a <= x < b:
                return True
        return False

    def translate(self, t: Fraction) -> "ArcSet":
        t = Fraction(t) % 1
        out = []
        for a, b in self.arcs:
            a, b = a + t, b + t
            if b <= 1:
                out.append((a, b))
            elif a >= 1:
                out.append((a - 1, b - 1))
            else:
                out.append((a, Fraction(1)))
                out.append((Fraction(0), b - 1))
        return ArcSet(tuple(out))

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


@dataclass
class CircleClassification:
    verdict: str  # constructive | fractional_only | not_fractional | heuristic_unknown
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


def _solve_turn_congruence(a: Fraction, c: Fraction) -> tuple[int, int] | None:
    """Solutions n of n*a = c (mod 1) as a residue class (n0, period), or None."""
    a, c = Fraction(a) % 1, Fraction(c) % 1
    big_a = a.numerator * c.denominator
    big_b = c.numerator * a.denominator
    big_m = a.denominator * c.denominator
    g = math.gcd(big_a, big_m)
    if big_b % g:
        return None
    m = big_m // g
    if m == 1:
        return 0, 1
    inv = pow((big_a // g) % m, -1, m)
    return (big_b // g) * inv % m, m


def _merge_congruences(first, second) -> tuple[int, int] | None:
    if first is None or second is None:
        return None
    n0, p = first
    n1, q = second
    g = math.gcd(p, q)
    if (n1 - n0) % g:
        return None
    lcm = p // g * q
    # lift n0 to the combined class
    k = ((n1 - n0) // g * pow(p // g, -1, q // g)) % (q // g) if q // g > 1 else 0
    return (n0 + p * k) % lcm, lcm


def _smallest_positive(cls: tuple[int, int] | None) -> int | None:
    if cls is None:
        return None
    n0, period = cls
    n = n0 % period
    return n if n >= 1 else period


def divide_r2(t1, t2) -> ArcSet | None:
    """Arc set whose two translates partition the circle, or None.

    Exists iff the difference of the two angles generates a finite cyclic
    subgroup of even order 2n; the set is n equally spaced arcs of length
    1/(2n) of a turn.
    """
    a1, a2 = _as_angles([t1, t2])
    delta = a1 - a2
    if not delta.is_rational:
        return None
    p, q = delta.turns.numerator, delta.turns.denominator
    if p == 0 or q % 2:
        return None
    n = q // 2
    cell = Fraction(1, q)
    return ArcSet(tuple((Fraction(j, n), Fraction(j, n) + cell) for j in range(n)))


def divide_r3(t1, t2, t3) -> ArcSet | None:
    """Arc set whose three translates partition the circle, or None.

    After translating the third angle to zero, a division exists iff some n
    sends the first two angles to the two non-trivial thirds of a turn; the
    set is n equally spaced arcs of length 1/(3n).
    """
    a1, a2, a3 = _as_angles([t1, t2, t3])
    s1, s2 = a1 - a3, a2 - a3
    if not (s1.is_rational and s2.is_rational):
        return None
    best = None
    for c1, c2 in ((Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3))):
        merged = _merge_congruences(_solve_turn_congruence(s1.turns, c1),
                                    _solve_turn_congruence(s2.turns, c2))
        n = _smallest_positive(merged)
        if n is not None and (best is None or n < best):
            best = n
    if best is None:
        return None
    n = best
    k1 = int(s1.turns * 3 * n) % (3 * n)
    k2 = int(s2.turns * 3 * n) % (3 * n)
    if math.gcd(math.gcd(k1, k2), n) != 1:
        raise ArithmeticError("minimal n should make the residues primitive")
    cell = Fraction(1, 3 * n)
    return ArcSet(tuple((Fraction(j, n), Fraction(j, n) + cell) for j in range(n)))


def _antipodal_pattern_degree(s: list[Angle]) -> int | None:
    """Smallest n splitting the four angles into two pairs at difference 1/2."""
    pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    half = Fraction(1, 2)
    best = None
    for pair_a, pair_b in pairings:
        da = s[pair_a[0]] - s[pair_a[1]]
        db = s[pair_b[0]] - s[pair_b[1]]
        if not (da.is_rational and db.is_rational):
            continue
        merged = _merge_congruences(_solve_turn_congruence(da.turns, half),
                                    _solve_turn_congruence(db.turns, half))
        n = _smallest_positive(merged)
        if n is not None and (best is None or n < best):
            best = n
    return best


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


def divide_r4(t1, t2, t3, t4) -> CircleClassification:
    """Complete classification for four circle rotations.

    No antipodal-pairs pattern at any n: not even fractionally divisible.
    Pattern with genuinely transcendental offsets: fractionally divisible only.
    Otherwise the tuple reduces to a finite cyclic group Z_{4m} and measurable
    divisibility is exactly k-divisibility of Z_{4m}, decided by exact cover;
    a tiling lifts to arcs made of 1/(4m)-turn cells.
    """
    ang = _as_angles([t1, t2, t3, t4])
    s = [a - ang[3] for a in ang]
    n0 = _antipodal_pattern_degree(s)
    if n0 is None:
        return CircleClassification(verdict="not_fractional", r=4)
    if not all(a.is_rational for a in s):
        return CircleClassification(
            verdict="fractional_only", r=4, witness_degree=n0,
            notes=["irrational offsets force every fractional division to be "
                   "non-measurable"])
    turns = [a.turns for a in s]
    order, residues = _cyclic_group_data(turns)
    if order % 4:
        return CircleClassification(
            verdict="fractional_only", r=4, witness_degree=n0,
            reduced_turns=tuple(turns), group_order=order,
            notes=[f"group order {order} is not divisible by 4"])
    solution = tiling_solve(TileInstance(order, tuple(residues)))
    if solution is None:
        return CircleClassification(
            verdict="fractional_only", r=4, witness_degree=n0,
            reduced_turns=tuple(turns), group_order=order,
            notes=[f"Z_{order} admits no exact tiling by these shifts"])
    cell = Fraction(1, order)
    arcs = ArcSet(tuple((Fraction(a, order), Fraction(a, order) + cell)
                        for a in solution.members))
    return CircleClassification(verdict="constructive", r=4, arcs=arcs,
                                witness_degree=n0, reduced_turns=tuple(turns),
                                group_order=order)


def classify(angles) -> CircleClassification:
    """Dispatch to the complete r <= 4 analysis; for r >= 5, rational tuples
    are decided exactly via the finite-cyclic-group reduction (sound and
    complete for rational tuples, beyond the r <= 4 closed-form analysis),
    while tuples with formal parts are honestly reported unknown."""
    ang = _as_angles(angles)
    r = len(ang)
    if r < 2:
        raise ValueError("need r >= 2 angles")
    if r == 2:
        arcs = divide_r2(*ang)
        if arcs is not None:
            return CircleClassification(
                verdict="constructive", r=2, arcs=arcs,
                witness_degree=fractional_test(ang),
                reduced_turns=_reduced_turns(ang))
        if fractional_test(ang) is not None:
            raise ArithmeticError("two-rotation tuples are constructive exactly "
                                  "when fractionally divisible")
        return CircleClassification(verdict="not_fractional", r=2)
    if r == 3:
        arcs = divide_r3(*ang)
        if arcs is not None:
            return CircleClassification(
                verdict="constructive", r=3, arcs=arcs,
                witness_degree=fractional_test(ang),
                reduced_turns=_reduced_turns(ang))
        if fractional_test(ang) is not None:
            raise ArithmeticError("three-rotation tuples are constructive exactly "
                                  "when fractionally divisible")
        return CircleClassification(verdict="not_fractional", r=3)
    if r == 4:
        return divide_r4(*ang)
    # r >= 5
    s = [a - ang[-1] for a in ang]
    if all(a.is_rational for a in s):
        note = ("r>=5 decision via reduction to the generated finite cyclic group; "
                "sound and complete for rational tuples (extension beyond the "
                "r<=4 closed-form analysis)")
        n0 = fractional_test(ang)
        if n0 is None:
            return CircleClassification(verdict="not_fractional", r=r, notes=[note])
        turns = [a.turns for a in s]
        order, residues = _cyclic_group_data(turns)
        if order % r == 0:
            solution = tiling_solve(TileInstance(order, tuple(residues)))
            if solution is not None:
                cell = Fraction(1, order)
                arcs = ArcSet(tuple((Fraction(a, order), Fraction(a, order) + cell)
                                    for a in solution.members))
                return CircleClassification(verdict="constructive", r=r, arcs=arcs,
                                            witness_degree=n0,
                                            reduced_turns=tuple(turns),
                                            group_order=order, notes=[note])
        return CircleClassification(verdict="fractional_only", r=r, witness_degree=n0,
                                    reduced_turns=tuple(turns), group_order=order,
                                    notes=[note])
    return CircleClassification(
        verdict="heuristic_unknown", r=r, witness_degree=fractional_test(ang),
        notes=["r >= 5 with transcendental offsets is outside the decided range"])


def _reduced_turns(ang: list[Angle]) -> tuple[Fraction, ...] | None:
    s = [a - ang[-1] for a in ang]
    if all(a.is_rational for a in s):
        return tuple(a.turns for a in s)
    return None


def verify_arcset(angles, arcs: ArcSet) -> bool:
    """Exact check that the translates of the arcs by the angles partition the
    circle.  Rejects tuples with transcendental parts (no exact verification)."""
    ang = _as_angles(angles)
    if any(not a.is_rational for a in ang):
        raise ValueError("exact verification needs purely rational angles")
    translates = [arcs.translate(a.turns) for a in ang]
    cuts = {Fraction(0), Fraction(1)}
    for t in translates:
        for a, b in t.arcs:
            cuts.add(a)
            cuts.add(b)
    points = sorted(cuts)
    for lo, hi in zip(points, points[1:]):
        mid = (lo + hi) / 2
        count = sum(1 for t in translates if t.contains(mid))
        if count != 1:
            return False
    return True
