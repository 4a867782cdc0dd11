"""Rational points on spheres and exact special orthogonal matrices.

Rational points come from the inverse stereographic projection
w |-> (2w, |w|^2 - 1) / (|w|^2 + 1) over Q^{d-1}, enumerated by coordinate
height; this produces a dense subset of S^{d-1} containing the signed
standard basis.  The enumeration works on integer vectors over a common
denominator and builds Fractions only for the points it returns.  Exact
rotations come from the Cayley transform of rational skew-symmetric matrices,
from circle rotations represented over roots of unity, or from axis rotations
with quadratic-irrational entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cyclotomic import CycloNum
from .errors import BudgetExceeded
from .scalars import QuadExt, is_zero_scalar

MODES = ("exact", "quad", "circle")  # the scalar representations of a tuple
MAX_PARAMETER_HEIGHT = 64  # coordinate height of the stereographic parameters
MAX_PARAMETER_VECTORS = 10 ** 6  # parameter vectors one enumeration may walk


def unit_norm_defect(point) -> Fraction:
    return sum((c * c for c in point), Fraction(0)) - 1


def is_unit_point(point) -> bool:
    return unit_norm_defect(point) == 0


def point_height(point) -> int:
    h = 1
    for c in point:
        h = max(h, abs(c.numerator), c.denominator)
    return h


def _stereographic(w: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    s = sum((x * x for x in w), Fraction(0))
    denom = s + 1
    return tuple(2 * x / denom for x in w) + ((s - 1) / denom,)


def _parameters_up_to_height(h: int) -> list[tuple[int, int]]:
    """The rationals p/q with max(|p|, q) <= h, as reduced pairs (p, q)."""
    vals = [(0, 1)]
    for p in range(1, h + 1):
        for q in range(1, h + 1):
            if math.gcd(p, q) == 1:
                vals += [(p, q), (-p, q)]
    return vals


def parameter_height(d: int, count: int) -> int:
    """The parameter height h that ``enumerate_points(d, count)`` walks.

    h is the least height giving at least max(2 count, count + 2d)
    candidates; BudgetExceeded is raised when h would pass
    MAX_PARAMETER_HEIGHT or the parameter vectors at h pass
    MAX_PARAMETER_VECTORS.  Two counts with the same h walk the same
    candidates, so the points of the smaller count are a prefix of the points
    of the larger.
    """
    if d < 2 or count < 1:
        raise ValueError("need d >= 2 and count >= 1")
    target = max(2 * count, count + 2 * d)
    h = 1
    size = len(_parameters_up_to_height(h))
    while size ** (d - 1) + 1 < target:
        h += 1
        if h > MAX_PARAMETER_HEIGHT:
            raise BudgetExceeded("parameter height budget exhausted")
        size = len(_parameters_up_to_height(h))
    if size ** (d - 1) > MAX_PARAMETER_VECTORS:
        raise BudgetExceeded(f"{size}^{d - 1} parameter vectors exceed the "
                             f"enumeration budget of {MAX_PARAMETER_VECTORS}")
    return h


def enumerate_points(d: int, count: int) -> list[tuple[Fraction, ...]]:
    """First ``count`` rational unit points in dimension d, by increasing height.

    Deterministic; the signed standard basis vectors (the only points of
    height 1) always come first.  Ties are broken lexicographically.

    The candidates are the stereographic images of the parameters w in
    Q^{d-1} with every coordinate of height at most h =
    ``parameter_height(d, count)``, plus e_d (the one signed basis vector the
    map misses).  Each image is the integer vector (2 b m, s - m^2) over
    s + m^2, for w = b / m and s = |b|^2, and its height is read off with
    integer gcds.  The candidates no higher than the count-th lowest are
    sorted on integers, their coordinates brought over one common
    denominator, and Fractions are built only for the points returned.
    """
    if d < 1 or count < 1:
        raise ValueError("need d >= 1 and count >= 1")
    if d == 1:
        if count > 2:
            raise BudgetExceeded("S^0 has only two points")
        return [(Fraction(-1),), (Fraction(1),)][:count]
    vals = _parameters_up_to_height(parameter_height(d, count))
    candidates = []
    for w in itertools.product(vals, repeat=d - 1):
        m = math.lcm(*(q for _, q in w))
        b = [p * (m // q) for p, q in w]
        s = sum(x * x for x in b)
        mm = m * m
        den = s + mm
        xs = [2 * x * m for x in b]
        xs.append(s - mm)
        candidates.append((max(den // math.gcd(x, den) for x in xs), xs, den))
    candidates.append((1, [0] * (d - 1) + [1], 1))  # e_d
    cutoff = sorted(hgt for hgt, _, _ in candidates)[count - 1]
    kept = [c for c in candidates if c[0] <= cutoff]
    common = math.lcm(*(den for _, _, den in kept))
    kept.sort(key=lambda c: (c[0], [x * (common // c[2]) for x in c[1]]))
    return [tuple(Fraction(x, den) for x in xs) for _, xs, den in kept[:count]]


def approximate_point(d: int, target, eps: float,
                      max_denominator: int = 10 ** 6) -> tuple[Fraction, ...]:
    """A rational unit point within Euclidean distance eps of target/|target|.

    The distance test is exact (the float target is a dyadic rational vector).
    Raises BudgetExceeded when no approximation within the denominator budget
    reaches eps.
    """
    if len(target) != d:
        raise ValueError("target dimension mismatch")
    norm = math.sqrt(sum(float(x) ** 2 for x in target))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError("target must lie within 1e-6 of the unit sphere")
    t = [float(x) / norm for x in target]
    if t[-1] > 0.5:
        flipped = approximate_point(d, t[:-1] + [-t[-1]], eps, max_denominator)
        return flipped[:-1] + (-flipped[-1],)
    t_exact = [Fraction(x) for x in t]
    eps_sq = Fraction(eps) * Fraction(eps)
    w_real = [x / (1.0 - t[-1]) for x in t[:-1]]
    bound = 8
    while True:
        w = tuple(Fraction(x).limit_denominator(bound) for x in w_real)
        p = _stereographic(w)
        dist_sq = sum(((a - b) * (a - b) for a, b in zip(p, t_exact)), Fraction(0))
        if dist_sq <= eps_sq:
            return p
        if bound >= max_denominator:
            raise BudgetExceeded(
                f"no rational point within {eps} of target under denominator bound "
                f"{max_denominator}")
        bound = min(bound * 8, max_denominator)


def cayley_rotation(skew) -> list[list[Fraction]]:
    """Exact rotation (I - S)(I + S)^{-1} from a rational skew-symmetric S."""
    d = len(skew)
    s = [[Fraction(x) for x in row] for row in skew]
    for i in range(d):
        for j in range(d):
            if s[i][j] != -s[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    ident = linalg.identity_matrix(d)
    i_minus = linalg.mat_sub(ident, s)
    i_plus = [[ident[i][j] + s[i][j] for j in range(d)] for i in range(d)]
    return linalg.mat_mul(i_minus, linalg.inverse(i_plus))


def random_skew_matrix(rng, d: int, max_num: int = 9, max_den: int = 9):
    """Seeded random rational skew-symmetric matrix (test/CLI sampler)."""
    s = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
            s[i][j] = v
            s[j][i] = -v
    return s


# -- rotation tuples ----------------------------------------------------------


@dataclass
class RotationTuple:
    """r special orthogonal d x d matrices sharing one exact scalar
    representation, checked by ``validate_tuple`` when built.  mode is one of
    ``MODES``: "exact" (Fraction entries), "quad" (Q(sqrt(D)) entries) or
    "circle" (d = 2, entries over roots of unity, built from rational turns).
    """

    dimension: int
    matrices: list
    mode: str = "exact"
    sqrt_d: int | None = None
    turns: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        validate_tuple(self)

    @property
    def r(self) -> int:
        return len(self.matrices)

    def inverse_matrix(self, i: int):
        """Inverse of the i-th rotation: its transpose."""
        return linalg.transpose(self.matrices[i])


def validate_tuple(t: RotationTuple) -> None:
    """Check exact orthonormality and det = 1 (exact and quad modes); a circle
    tuple is accepted on its turns.  Raises ValueError naming every issue."""
    issues = [] if t.matrices else ["the tuple has no rotations"]
    if t.mode not in MODES:
        issues.append(f"unknown mode {t.mode!r}")
    elif t.mode == "circle":
        # circle_rotation_tuple builds exact SO(2) matrices from the turns
        if t.dimension != 2 or t.turns is None or len(t.turns) != t.r:
            issues.append("circle tuple: matrices do not match its turns")
    else:
        d = t.dimension
        for idx, m in enumerate(t.matrices):
            if len(m) != d or any(len(row) != d for row in m):
                issues.append(f"matrix {idx}: wrong shape")
                continue
            gram = linalg.mat_mul(linalg.transpose(m), m)
            bad = [f"{i},{j}" for i in range(d) for j in range(d)
                   if not is_zero_scalar(gram[i][j] - int(i == j))]
            if bad:
                issues.append(f"matrix {idx}: rows not exactly orthonormal (entry {bad[0]})")
            if not is_zero_scalar(linalg.det(m) - 1):
                issues.append(f"matrix {idx}: determinant is not exactly 1")
    if issues:
        raise ValueError("invalid rotation tuple: " + "; ".join(issues))


def exact_tuple(matrices) -> RotationTuple:
    mats = [[[Fraction(x) for x in row] for row in m] for m in matrices]
    return RotationTuple(dimension=len(mats[0]), matrices=mats, mode="exact")


def identity_tuple(d: int, r: int) -> RotationTuple:
    return RotationTuple(dimension=d,
                         matrices=[linalg.identity_matrix(d) for _ in range(r)],
                         mode="exact")


def circle_rotation_tuple(turns) -> RotationTuple:
    """d = 2 rotations by rational turns, exact over the 4q-th roots of unity."""
    fr = [Fraction(t) % 1 for t in turns]
    q = 1
    for t in fr:
        q = q * t.denominator // math.gcd(q, t.denominator)
    order = 4 * q
    mats = []
    for t in fr:
        a = int(t * order)
        half = Fraction(1, 2)
        cos = (CycloNum.root(order, a) + CycloNum.root(order, -a)) * half
        # 1/(2i) = -i/2 and -i = zeta^(3N/4)
        sin = (CycloNum.root(order, a) - CycloNum.root(order, -a)) \
            * CycloNum.root(order, 3 * order // 4) * half
        mats.append([[cos, -sin], [sin, cos]])
    return RotationTuple(dimension=2, matrices=mats, mode="circle",
                         turns=tuple(fr))


_EXACT_COS_SIN = {
    (1, 0): (Fraction(1), Fraction(0), None),
    (2, 1): (Fraction(-1), Fraction(0), None),
    (4, 1): (Fraction(0), Fraction(1), None),
    (4, 3): (Fraction(0), Fraction(-1), None),
    (3, 1): (Fraction(-1, 2), Fraction(1, 2), 3),
    (3, 2): (Fraction(-1, 2), Fraction(-1, 2), 3),
    (6, 1): (Fraction(1, 2), Fraction(1, 2), 3),
    (6, 5): (Fraction(1, 2), Fraction(-1, 2), 3),
    (8, 1): (Fraction(1, 2), Fraction(1, 2), 2),
    (8, 3): (Fraction(-1, 2), Fraction(1, 2), 2),
    (8, 5): (Fraction(-1, 2), Fraction(-1, 2), 2),
    (8, 7): (Fraction(1, 2), Fraction(-1, 2), 2),
    (12, 1): (Fraction(1, 2), Fraction(1, 2), 3),
    (12, 5): (Fraction(-1, 2), Fraction(1, 2), 3),
    (12, 7): (Fraction(-1, 2), Fraction(-1, 2), 3),
    (12, 11): (Fraction(1, 2), Fraction(-1, 2), 3),
}


def _turn_cos_sin(turn: Fraction):
    """(cos, sin, D) of a rational turn when they live in Q or one Q(sqrt(D)).

    For quadratic denominators the table stores the sqrt(D)-coefficient; the
    rational part of those entries is zero except at denominators 3 and 6
    (cosine) and 12 (sine), where the table separates them explicitly.
    """
    t = Fraction(turn) % 1
    key = (t.denominator, t.numerator % t.denominator)
    if key not in _EXACT_COS_SIN:
        raise ValueError(
            f"turn {t} has no representation over a single quadratic extension; "
            "supported denominators: 1, 2, 3, 4, 6, 8, 12")
    c, s, dd = _EXACT_COS_SIN[key]
    if dd is None:
        return c, s, None
    if key[0] in (3, 6):
        return c, QuadExt(0, s, dd), dd
    if key[0] == 8:
        return QuadExt(0, c, dd), QuadExt(0, s, dd), dd
    # denominator 12: cosine is the quadratic part, sine is rational
    return QuadExt(0, c, dd), s, dd


def z_axis_rotation_tuple(turns, d: int = 3) -> RotationTuple:
    """Rotations of the (x1, x2)-plane fixing the remaining axes (for d = 3,
    rotations about the z-axis); exact whenever all turns fit one quadratic
    extension (denominators 1, 2, 3, 4, 6, 8, 12)."""
    if d < 2:
        raise ValueError("need d >= 2")
    ds = set()
    entries = []
    for t in turns:
        c, s, dd = _turn_cos_sin(Fraction(t))
        if dd is not None:
            ds.add(dd)
        entries.append((c, s))
    if len(ds) > 1:
        raise ValueError(f"turns need incompatible quadratic extensions {sorted(ds)}")
    dd = ds.pop() if ds else None
    mats = []
    for c, s in entries:
        if dd is not None:
            if isinstance(c, Fraction):
                c = QuadExt(c, 0, dd)
            if isinstance(s, Fraction):
                s = QuadExt(s, 0, dd)
        m = linalg.identity_matrix(d, like=QuadExt(1, 0, dd) if dd else Fraction(1))
        m[0][0], m[0][1] = c, -s
        m[1][0], m[1][1] = s, c
        mats.append(m)
    return RotationTuple(dimension=d, matrices=mats,
                         mode="quad" if dd else "exact", sqrt_d=dd)
