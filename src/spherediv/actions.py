"""Words, orbits and finite structure of the group generated by a tuple.

Covers word evaluation in the generators (inverse = transpose), the exact
common-fixed-point criterion det(sum A_i^T A_i) = 0, breadth-first orbit and
group closure with caps, splitting R^d into the span of a finite orbit and its
complement (both invariant), the factorial bound on orbit sizes inside the
span, and exact-cover division of a single finite orbit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .points import RotationTuple
from .tiling import DEFAULT_NODE_BUDGET, exact_cover
from .scalars import is_zero_scalar, scalar_to_float

FLOAT_DEDUP_TOL = 1e-8
FLOAT_SINGULAR_COEFF = 1e-8


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
    """Product of the generators and their transposes named by the word."""
    for g, e in word.letters:
        if g > rotations.r:
            raise ValueError(f"bad letter ({g}, {e}): the tuple has {rotations.r} generators")
    d = rotations.dimension
    if rotations.mode == "floating":
        acc = np.eye(d)
        for g, e in word.letters:
            m = np.array(rotations.matrices[g - 1], dtype=float)
            acc = acc @ (m if e == 1 else m.T)
        return acc.tolist()
    like = rotations.matrices[0][0][0] if rotations.matrices else Fraction(1)
    acc = linalg.identity_matrix(d, like=like)
    for g, e in word.letters:
        m = rotations.matrices[g - 1]
        acc = linalg.mat_mul(acc, m if e == 1 else linalg.transpose(m))
    return acc


def minus_identity(m, floating: bool):
    """w - I for a word matrix w: float entries when floating, exact otherwise."""
    d = len(m)
    if floating:
        return [[float(m[i][j]) - (1.0 if i == j else 0.0) for j in range(d)] for i in range(d)]
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


def common_fixed_point_test(matrices, floating: bool = False):
    """(found, witness): do the kernels share a non-zero vector?

    Exactly when det(sum_i A_i^T A_i) = 0; the witness is a kernel vector of
    that sum, verified to be annihilated by every input matrix.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    if floating:
        mats = [np.array(m, dtype=float) for m in matrices]
        gram = sum(m.T @ m for m in mats)
        detf = float(np.linalg.det(gram))
        norm = float(np.max(np.abs(gram))) or 1.0
        if abs(detf) > FLOAT_SINGULAR_COEFF * norm ** gram.shape[0]:
            return False, None
        _, _, vt = np.linalg.svd(gram)
        witness = vt[-1]
        if any(np.linalg.norm(m @ witness) > 1e-6 for m in mats):
            return False, None
        return True, witness.tolist()
    d = len(matrices[0][0])
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


class _FloatIndex:
    """Tolerance index of float points, or of matrices through ``np.ravel``.

    Items are bucketed by their projection onto a fixed generic direction w;
    two items within 4 * tol in the max norm project less than one bucket
    width apart, so a lookup probes three buckets whatever the length of the
    items, and items farther apart than 4 * tol are never matched.
    """

    def __init__(self, tol: float = FLOAT_DEDUP_TOL):
        self.tol = tol
        self.buckets: dict[int, list[int]] = {}
        self.items: list[np.ndarray] = []
        self.direction: np.ndarray | None = None
        self.width = 0.0

    def _bucket(self, v: np.ndarray) -> int:
        if self.direction is None:
            self.direction = np.cos(np.arange(1.0, v.size + 1.0))
            self.width = 4 * self.tol * float(np.sum(np.abs(self.direction)))
        position = float(self.direction @ v) / self.width
        if not math.isfinite(position):
            raise ValueError("cannot index a float item with non-finite or "
                             "overflowing coordinates")
        return math.floor(position)

    def find(self, x) -> int | None:
        v = np.ravel(x)
        b = self._bucket(v)
        for key in (b, b - 1, b + 1):
            for idx in self.buckets.get(key, ()):
                if np.max(np.abs(self.items[idx] - v)) <= 4 * self.tol:
                    return idx
        return None

    def add(self, x) -> int:
        v = np.ravel(x)
        idx = len(self.items)
        self.items.append(v)
        self.buckets.setdefault(self._bucket(v), []).append(idx)
        return idx


class _ExactIndex:
    """Index of exact points (tuples) by equality; a matrix (a list of rows)
    is keyed as a tuple of row tuples."""

    def __init__(self):
        self.where: dict[tuple, int] = {}
        self.size = 0

    @staticmethod
    def _key(x) -> tuple:
        return x if isinstance(x, tuple) else tuple(map(tuple, x))

    def find(self, x) -> int | None:
        return self.where.get(self._key(x))

    def add(self, x) -> int:
        idx = self.size
        self.where[self._key(x)] = idx
        self.size += 1
        return idx


def dedup_index(mode: str):
    """Empty index (``find``/``add``) for points or matrices of the given mode:
    within tolerance for "floating", by exact equality otherwise."""
    return _FloatIndex() if mode == "floating" else _ExactIndex()


def native(items, mode: str) -> list:
    """Matrices or points in the arithmetic of the mode: float arrays for
    "floating", unchanged otherwise."""
    if mode == "floating":
        return [np.array(x, dtype=float) for x in items]
    return list(items)


def act(m, v):
    """The point m . v: a float array for a float matrix, an exact tuple
    otherwise."""
    if isinstance(m, np.ndarray):
        return m @ v
    return tuple(linalg.mat_vec(m, list(v)))


def _plain(x):
    return x.tolist() if isinstance(x, np.ndarray) else x


def _generators(rotations: RotationTuple) -> list:
    """The generators followed by their inverses."""
    inverses = [rotations.inverse_matrix(i) for i in range(rotations.r)]
    return native(list(rotations.matrices) + inverses, rotations.mode)


def _closure(start, moves, index, cap: int):
    """Breadth-first closure of start under the moves, deduplicated by index:
    (items in discovery order, complete); incomplete once more than cap items
    are known."""
    index.add(start)
    queue = [start]
    head = 0
    while head < len(queue):
        if len(queue) > cap:
            return queue, False
        x = queue[head]
        head += 1
        for move in moves:
            y = move(x)
            if index.find(y) is None:
                index.add(y)
                queue.append(y)
    return queue, True


@dataclass
class OrbitReport:
    start: tuple
    points: list
    finite: bool
    cap: int
    mode: str

    @property
    def size(self) -> int:
        return len(self.points)


def orbit(start, rotations: RotationTuple, cap: int = 10 ** 4) -> OrbitReport:
    """Breadth-first closure of a point under the generators and inverses."""
    if len(start) != rotations.dimension:
        raise ValueError(f"the start point has {len(start)} coordinates, the tuple "
                         f"has dimension {rotations.dimension}")
    if rotations.mode == "floating":
        v0 = np.array([float(c) for c in start], dtype=float)
    else:
        v0 = tuple(Fraction(c) if isinstance(c, (int, Fraction)) else c for c in start)
    moves = [functools.partial(act, m) for m in _generators(rotations)]
    points, finite = _closure(v0, moves, dedup_index(rotations.mode), cap)
    return OrbitReport(tuple(_plain(v0)), [_plain(p) for p in points], finite, cap,
                       rotations.mode)


@dataclass
class GroupEnumeration:
    elements: list
    complete: bool
    cap: int

    @property
    def order(self) -> int | None:
        return len(self.elements) if self.complete else None


def enumerate_group(rotations: RotationTuple, cap: int = 10 ** 4) -> GroupEnumeration:
    """Closure of the generators under multiplication, deduplicated exactly
    (exact modes) or within tolerance (floating)."""
    d = rotations.dimension
    if rotations.mode == "floating":
        ident, product = np.eye(d), np.matmul
    else:
        ident = linalg.identity_matrix(d, like=rotations.matrices[0][0][0])
        product = linalg.mat_mul
    moves = [functools.partial(product, g) for g in _generators(rotations)]
    elements, complete = _closure(ident, moves, dedup_index(rotations.mode), cap)
    return GroupEnumeration([_plain(m) for m in elements], complete, cap)


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


def _restrict(generator, basis, mode: str):
    """Coordinates of the generator's action on the span of basis; None if the
    span is not invariant."""
    if not basis:
        return []
    if mode == "floating":
        b = np.array(basis, dtype=float).T  # columns are basis vectors
        g = np.array(generator, dtype=float)
        coords, res, _, _ = np.linalg.lstsq(b, g @ b, rcond=None)
        if np.max(np.abs(b @ coords - g @ b)) > 1e-8:
            return None
        return coords.tolist()
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
    mode = rotations.mode
    if mode == "floating":
        pts = np.array(report.points, dtype=float)
        u, sing, vt = np.linalg.svd(pts)
        rank = int(np.sum(sing > 1e-9))
        span = vt[:rank].tolist()
        comp = vt[rank:].tolist()
    else:
        pts = [list(p) for p in report.points]
        red, pivots = linalg.rref(pts)
        span = [red[i] for i in range(len(pivots))]
        comp = linalg.nullspace(pts)
    span_blocks = []
    comp_blocks = []
    for g in rotations.matrices:
        a = _restrict(g, span, mode)
        b = _restrict(g, comp, mode)
        if a is None or b is None:
            raise ArithmeticError("orbit span or complement is not invariant; "
                                  "numerical artifact in floating mode")
        span_blocks.append(a)
        comp_blocks.append(b)
    return InvariantSplit(orbit_size=report.size, span_basis=span,
                          complement_basis=comp, span_blocks=span_blocks,
                          complement_blocks=comp_blocks, mode=mode)


@dataclass
class OrbitBoundReport:
    samples: int
    bound: int
    max_observed: int
    ok: bool
    sizes: list = field(default_factory=list)


def orbit_size_bound_check(split: InvariantSplit, rotations: RotationTuple,
                           samples: int = 20, seed: int = 0) -> OrbitBoundReport:
    """Sample unit vectors in the orbit span and check every orbit there has at
    most n! points, n the size of the base orbit."""
    bound = math.factorial(split.orbit_size)
    basis = np.array([[scalar_to_float(c) for c in v] for v in split.span_basis])
    rng = np.random.default_rng(seed)
    float_rotations = RotationTuple(
        dimension=rotations.dimension,
        matrices=[[[scalar_to_float(x) for x in row] for row in m]
                  for m in rotations.matrices],
        mode="floating")
    sizes = []
    for _ in range(samples):
        coeff = rng.normal(size=len(basis))
        v = coeff @ basis
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            continue
        rep = orbit(tuple((v / norm).tolist()), float_rotations, cap=bound + 1)
        sizes.append(rep.size if rep.finite else bound + 1)
    max_seen = max(sizes) if sizes else 0
    return OrbitBoundReport(samples=len(sizes), bound=bound, max_observed=max_seen,
                            ok=max_seen <= bound, sizes=sizes)


# -- dividing a finite orbit ------------------------------------------------------


def _orbit_permutations(report: OrbitReport, rotations: RotationTuple):
    """For each generator, the permutation j -> index of g_i . p_j."""
    index = dedup_index(rotations.mode)
    points = native(report.points, rotations.mode)
    for p in points:
        index.add(p)
    perms = []
    for m in native(rotations.matrices, rotations.mode):
        perm = []
        for p in points:
            j = index.find(act(m, p))
            if j is None:
                raise ArithmeticError("orbit is not closed under a generator")
            perm.append(j)
        perms.append(perm)
    return perms


def divide_finite_orbit(report: OrbitReport, rotations: RotationTuple):
    """Subset A of the orbit whose generator translates partition it, or None.

    An exact cover of the orbit by the rows a -> {g_i . p_a}, solved by the
    tiling engine: always cover the smallest-index uncovered point (indices in
    breadth-first discovery order), candidates in increasing order.  A row
    whose images repeat a point is never chosen.  Raises BudgetExceeded past
    the default node budget.
    """
    if not report.finite:
        raise ValueError("orbit division needs a finite orbit")
    perms = _orbit_permutations(report, rotations)
    size = report.size
    if not perms or size % len(perms) != 0:
        return None
    images = [[perm[a] for perm in perms] for a in range(size)]
    members = exact_cover(size, images, DEFAULT_NODE_BUDGET)
    if members is None:
        return None
    return [report.points[a] for a in members]
