"""Words, orbits and finite structure of the group generated by a tuple.

Everything here is exact, as every ``RotationTuple`` is: "the orbit is
finite", "the words share a fixed vector" and "w = I" are closed conditions
that no float computation proves.  Covers word evaluation in the generators
(inverse = transpose), the common-fixed-point criterion det(sum A_i^T A_i) = 0,
one breadth-first closure with caps that records the index of every image,
finite groups as permutation groups of the orbit of the signed basis in
Z[sqrt D] integers, splitting R^d into the span of a finite orbit and its
complement (both invariant), and exact-cover division of a single finite
orbit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .points import RotationTuple
from .tiling import DEFAULT_NODE_BUDGET, exact_cover
from .scalars import is_zero_scalar


@dataclass(frozen=True)
class GroupWord:
    """Word in the generators: letters (index in 1..r, exponent +1 or -1)."""

    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for g, e in self.letters:
            if g < 1 or e not in (1, -1):
                raise ValueError(f"bad letter ({g}, {e})")

    @property
    def is_reduced(self) -> bool:
        return all(not (g1 == g2 and e1 == -e2)
                   for (g1, e1), (g2, e2) in zip(self.letters, self.letters[1:]))

    def reduced(self) -> "GroupWord":
        out: list[tuple[int, int]] = []
        for g, e in self.letters:
            if out and out[-1][0] == g and out[-1][1] == -e:
                out.pop()
            else:
                out.append((g, e))
        return GroupWord(tuple(out))

    def __str__(self):
        if not self.letters:
            return "e"
        return " ".join(f"g{g}" if e == 1 else f"g{g}^-1" for g, e in self.letters)


def parse_word(text: str) -> GroupWord:
    """Parse words like "g1 g2 g1^-1"."""
    letters = []
    for tok in text.split():
        m = tok.strip()
        if not m.startswith("g"):
            raise ValueError(f"cannot parse letter {tok!r}")
        if "^" in m:
            gen, exp = m[1:].split("^", 1)
            letters.append((int(gen), int(exp)))
        else:
            letters.append((int(m[1:]), 1))
    expanded = []
    for g, e in letters:
        if e == 0:
            continue
        step = 1 if e > 0 else -1
        expanded.extend([(g, step)] * abs(e))
    return GroupWord(tuple(expanded))


def evaluate_word(word: GroupWord, rotations: RotationTuple):
    """Exact product of the generators and their transposes named by the word."""
    for g, e in word.letters:
        if g > rotations.r:
            raise ValueError(f"bad letter ({g}, {e}): the tuple has {rotations.r} generators")
    like = rotations.matrices[0][0][0] if rotations.matrices else Fraction(1)
    acc = linalg.identity_matrix(rotations.dimension, like=like)
    for g, e in word.letters:
        m = rotations.matrices[g - 1]
        acc = linalg.mat_mul(acc, m if e == 1 else linalg.transpose(m))
    return acc


def minus_identity(m):
    """w - I for an exact word matrix w."""
    d = len(m)
    return [[m[i][j] - (1 if i == j else 0) for j in range(d)] for i in range(d)]


def reduced_words(r: int, max_len: int):
    """All non-trivial reduced words up to the given length, shortest first."""
    alphabet = [(g, e) for g in range(1, r + 1) for e in (1, -1)]

    def extend(prefix: tuple):
        for g, e in alphabet:
            if prefix and prefix[-1][0] == g and prefix[-1][1] == -e:
                continue
            yield prefix + ((g, e),)

    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for w in extend(p):
                nxt.append(w)
                yield GroupWord(w)
        frontier = nxt


# -- common fixed points -------------------------------------------------------


def common_fixed_point_test(matrices):
    """(found, witness): do the kernels share a non-zero vector?

    Exactly when det(sum_i A_i^T A_i) = 0; the witness is a kernel vector of
    that sum, verified to be annihilated by every input matrix.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    gram = None
    for m in matrices:
        term = linalg.mat_mul(linalg.transpose(m), m)
        gram = term if gram is None else [[a + b for a, b in zip(ra, rb)]
                                          for ra, rb in zip(gram, term)]
    if not is_zero_scalar(linalg.det(gram)):
        return False, None
    witness = linalg.kernel_vector(gram)
    for m in matrices:
        image = linalg.mat_vec(m, witness)
        if any(not is_zero_scalar(x) for x in image):
            raise ArithmeticError("kernel vector not annihilated; scalar domain "
                                  "does not embed in the reals?")
    return True, witness


# -- orbits and group closure ---------------------------------------------------


def _closure(starts, moves, cap: int):
    """Breadth-first closure of distinct starts under the moves, deduplicated
    by exact equality (hashable items): (items in discovery order, images,
    complete), where images[k][i] is the index of moves[k](items[i]) for every
    item processed; incomplete once more than cap items are known."""
    queue = list(starts)
    where = {x: i for i, x in enumerate(queue)}
    images: list[list[int]] = [[] for _ in moves]
    head = 0
    while head < len(queue):
        if len(queue) > cap:
            return queue, images, False
        x = queue[head]
        head += 1
        for move, row in zip(moves, images):
            y = move(x)
            j = where.get(y)
            if j is None:
                j = where[y] = len(queue)
                queue.append(y)
            row.append(j)
    return queue, images, True


@dataclass
class OrbitReport:
    """Orbit points in discovery order; for a finite orbit ``images[k][j]`` is
    the index of the k-th move (the generators, then their inverses) applied
    to point j."""

    start: tuple
    points: list
    finite: bool
    cap: int
    mode: str
    images: list = field(default_factory=list, repr=False)

    @property
    def size(self) -> int:
        return len(self.points)


def _generators(rotations: RotationTuple) -> list:
    """The generator matrices followed by their inverses."""
    return list(rotations.matrices) + [rotations.inverse_matrix(i)
                                       for i in range(rotations.r)]


def _act(m, v):
    """The exact point m . v."""
    return tuple(linalg.mat_vec(m, list(v)))


def orbit(start, rotations: RotationTuple, cap: int = 10 ** 4) -> OrbitReport:
    """Exact breadth-first closure of a point under the generators and
    inverses of an exact, quad or circle tuple."""
    if len(start) != rotations.dimension:
        raise ValueError(f"the start point has {len(start)} coordinates, the tuple "
                         f"has dimension {rotations.dimension}")
    v0 = tuple(Fraction(c) if isinstance(c, (int, Fraction)) else c for c in start)
    moves = [functools.partial(_act, m) for m in _generators(rotations)]
    points, images, finite = _closure([v0], moves, cap)
    return OrbitReport(v0, points, finite, cap, rotations.mode, images)


@dataclass
class GroupEnumeration:
    """A finite rotation group as the permutation group of the points
    V = G . {+-e_1, ..., +-e_d}, which it permutes faithfully.

    ``points[j]`` is the primitive integer triple (a, b, den), den > 0, of
    point j = (a + b sqrt(sqrt)) / den (``sqrt`` is 0 over Q, and then b is
    zero); each element is the tuple of the indices of its images of the
    points, in breadth-first order from the identity.
    """

    elements: list
    complete: bool
    cap: int
    dimension: int
    points: list = field(repr=False)
    sqrt: int

    @property
    def order(self) -> int | None:
        return len(self.elements) if self.complete else None


def _integer_image(ga, gb, q: int, dd: int, point):
    """The primitive triple of g . v for g = (ga + gb sqrt(dd)) / q and the
    point v given by its primitive triple."""
    a, b, den = point
    if dd:
        na = [sum(x * y for x, y in zip(ra, a)) + dd * sum(x * y for x, y in zip(rb, b))
              for ra, rb in zip(ga, gb)]
        nb = [sum(x * y for x, y in zip(ra, b)) + sum(x * y for x, y in zip(rb, a))
              for ra, rb in zip(ga, gb)]
    else:
        na, nb = [sum(x * y for x, y in zip(ra, a)) for ra in ga], b
    den *= q
    g = math.gcd(den, *na, *nb)
    return tuple(x // g for x in na), tuple(x // g for x in nb), den // g


def _compose(g: tuple, p: tuple) -> tuple:
    """The permutation g o p."""
    return tuple([g[i] for i in p])


def enumerate_group(rotations: RotationTuple, cap: int = 10 ** 4) -> GroupEnumeration:
    """The group generated by an exact or quad tuple, closed at most cap
    elements deep.

    The generators and their transposes are cleared once to integer matrices
    over Z[sqrt D] with one denominator; the signed basis vectors are closed
    under them as primitive integer triples, which records each generator's
    permutation of the points (past 2d * cap points the group has more than
    cap elements), and those permutations are closed under composition.
    """
    if rotations.mode not in ("exact", "quad"):
        raise ValueError(f"group enumeration needs an exact or quad tuple, "
                         f"got a {rotations.mode} one")
    d = rotations.dimension
    dd = rotations.sqrt_d or 0
    mats = _generators(rotations)
    a, b, q = linalg.clear_quadratic_denominators(
        [x for m in mats for row in m for x in row])
    moves = [functools.partial(_integer_image,
                               [a[k + i * d:k + i * d + d] for i in range(d)],
                               [b[k + i * d:k + i * d + d] for i in range(d)], q, dd)
             for k in range(0, len(a), d * d)]
    zero = (0,) * d
    starts = [(tuple(s * (i == j) for i in range(d)), zero, 1)
              for j in range(d) for s in (1, -1)]
    points, images, complete = _closure(starts, moves, 2 * d * cap)
    if not complete:
        return GroupEnumeration([], False, cap, d, points, dd)
    moves = [functools.partial(_compose, tuple(row)) for row in images]
    elements, _, complete = _closure([tuple(range(len(points)))], moves, cap)
    return GroupEnumeration(elements, complete, cap, d, points, dd)


# -- invariant splitting ---------------------------------------------------------


@dataclass
class InvariantSplit:
    orbit_size: int
    span_basis: list
    complement_basis: list
    span_blocks: list
    complement_blocks: list
    mode: str

    @property
    def span_dimension(self) -> int:
        return len(self.span_basis)


def _restrict(generator, basis):
    """Coordinates of the generator's action on the span of basis; None if the
    span is not invariant."""
    if not basis:
        return []
    cols = []
    bt = linalg.transpose(basis)  # columns are basis vectors
    for vec in basis:
        image = linalg.mat_vec(generator, list(vec))
        c = linalg.solve(bt, image)
        if c is None:
            return None
        cols.append(c)
    # cols[k][j]: coefficient of basis j in the image of basis k
    return linalg.transpose(cols)


def invariant_split(report: OrbitReport, rotations: RotationTuple) -> InvariantSplit:
    """Split R^d into the span of a finite orbit and its orthogonal complement;
    both are invariant under every generator, and the generators restrict to
    block matrices on the two pieces."""
    if not report.finite:
        raise ValueError("invariant splitting needs a finite orbit")
    pts = [list(p) for p in report.points]
    red, pivots = linalg.rref(pts)
    span = [red[i] for i in range(len(pivots))]
    comp = linalg.nullspace(pts)
    span_blocks = []
    comp_blocks = []
    for g in rotations.matrices:
        a = _restrict(g, span)
        b = _restrict(g, comp)
        if a is None or b is None:
            raise ArithmeticError("orbit span or complement is not invariant")
        span_blocks.append(a)
        comp_blocks.append(b)
    return InvariantSplit(orbit_size=report.size, span_basis=span,
                          complement_basis=comp, span_blocks=span_blocks,
                          complement_blocks=comp_blocks, mode=rotations.mode)


# -- dividing a finite orbit ------------------------------------------------------


def divide_finite_orbit(report: OrbitReport, rotations: RotationTuple):
    """Subset A of the orbit whose generator translates partition it, or None.

    An exact cover of the orbit by the rows a -> {g_i . p_a}, read off the
    images the orbit closure recorded and solved by the tiling engine: always
    cover the smallest-index uncovered point (indices in breadth-first
    discovery order), candidates in increasing order.  A row whose images
    repeat a point is never chosen.  Raises BudgetExceeded past the default
    node budget.
    """
    if not report.finite:
        raise ValueError("orbit division needs a finite orbit")
    perms = report.images[:rotations.r]
    size = report.size
    if not perms or size % len(perms) != 0:
        return None
    rows = [[perm[a] for perm in perms] for a in range(size)]
    members = exact_cover(size, rows, DEFAULT_NODE_BUDGET)
    if members is None:
        return None
    return [report.points[a] for a in members]
