"""Output checks written independently of the code under test.

Nothing here imports ``spherediv``.  Every check parses the report and
compares verdict fields, never bytes, so a field added to a report later does
not fail a check.  A check signals a wrong answer by raising ``CheckFailed``.

Cancellation of unit vectors at rational turns is decided combinatorially:
a vanishing sum of at most five roots of unity (coefficients +1) splits into
rotated regular 2-, 3- and 5-gons, because those are the only minimal
vanishing sums of weight at most 5 (Lam and Leung, J. Algebra 224 (2000);
Poonen and Rubinstein, SIAM J. Discrete Math. 11 (1998)).  This shares no
code or method with the program's cyclotomic canonical form.
"""

from __future__ import annotations

import math
from fractions import Fraction

MAX_POLYGON_WEIGHT = 5
POLYGON_SIDES = (2, 3, 5)


class CheckFailed(Exception):
    """The program's output contradicts the benchmark's own answer."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def lcm_denominators(turns) -> int:
    q = 1
    for t in turns:
        q = math.lcm(q, Fraction(t).denominator)
    return q


# -- unit-vector cancellation ----------------------------------------------------


def vanishes(turns) -> bool:
    """Do the unit vectors at these rational turns sum to zero?"""
    if len(turns) > MAX_POLYGON_WEIGHT:
        raise ValueError("polygon decomposition is only complete up to weight 5")
    pool: dict[Fraction, int] = {}
    for t in turns:
        t = Fraction(t) % 1
        pool[t] = pool.get(t, 0) + 1
    return _splits_into_polygons(pool)


def _splits_into_polygons(pool: dict[Fraction, int]) -> bool:
    if not pool:
        return True
    t = min(pool)
    for p in POLYGON_SIDES:
        vertices = [(t + Fraction(i, p)) % 1 for i in range(p)]
        if all(pool.get(v, 0) >= 1 for v in vertices):
            rest = dict(pool)
            for v in vertices:
                rest[v] -= 1
                if not rest[v]:
                    del rest[v]
            if _splits_into_polygons(rest):
                return True
    return False


def cancels_at(groups, n: int) -> bool:
    """Every formal-offset group of turns vanishes after scaling by n."""
    return all(vanishes([n * t for t in turns]) for turns in groups)


def first_cancelling_degree(groups) -> int | None:
    """Smallest n >= 1 with cancellation, scanning one full period."""
    q = lcm_denominators([t for turns in groups for t in turns])
    for n in range(1, q + 1):
        if cancels_at(groups, n):
            return n
    return None


def z_axis_witness_degrees(turns, n_max: int) -> list[int]:
    """Degrees n <= n_max where some 1 <= j <= n cancels (d = 3 axis tuples)."""
    out = []
    seen = False
    for n in range(1, n_max + 1):
        seen = seen or vanishes([n * t for t in turns])
        if seen:
            out.append(n)
    return out


def circle_witness_degrees(turns, n_max: int) -> list[int]:
    """Degrees n <= n_max where j = n cancels (d = 2 circle tuples)."""
    return [n for n in range(1, n_max + 1) if vanishes([n * t for t in turns])]


# -- arcs and tilings --------------------------------------------------------------


def arcs_partition(turns, arcs) -> bool:
    """Exact endpoint check that the translates of the arcs tile [0, 1) once."""
    pieces = []
    for t in turns:
        t = Fraction(t) % 1
        for a, b in arcs:
            if not (0 <= a < b <= 1):
                return False
            lo, hi = a + t, b + t
            if hi <= 1:
                pieces.append((lo, hi))
            elif lo >= 1:
                pieces.append((lo - 1, hi - 1))
            else:
                pieces.append((lo, Fraction(1)))
                pieces.append((Fraction(0), hi - 1))
    pieces.sort()
    reach = Fraction(0)
    for lo, hi in pieces:
        if lo != reach:
            return False
        reach = hi
    return reach == 1


def covers_exactly_once(modulus: int, shifts, members) -> bool:
    hits = [0] * modulus
    for a in members:
        for k in shifts:
            hits[(a + k) % modulus] += 1
    return all(h == 1 for h in hits)


def four_shift_tileable(m: int, k: int) -> bool:
    """Shifts (k, k+m, m, 0) mod 4m with gcd(k, m) = 1 tile Z_4m iff m is
    even or k = 2 (mod 4)."""
    if math.gcd(k, m) != 1:
        raise ValueError("closed form needs gcd(k, m) = 1")
    return m % 2 == 0 or k % 4 == 2


def tiling_exists(modulus: int, shifts, node_cap: int = 200_000) -> bool:
    """Plain exact-cover backtracking: always cover the smallest free residue.

    Raises RuntimeError past node_cap, so a hard instance is never guessed.
    """
    shifts = sorted(k % modulus for k in shifts)
    r = len(shifts)
    if r == 0 or modulus % r or len(set(shifts)) < r:
        return False  # two equal shifts make two translates of A overlap
    covered = [False] * modulus
    nodes = 0

    def place(a: int) -> bool:
        cells = [(a + k) % modulus for k in shifts]
        if any(covered[c] for c in cells):
            return False
        for c in cells:
            covered[c] = True
        return True

    def unplace(a: int) -> None:
        for k in shifts:
            covered[(a + k) % modulus] = False

    def search(start: int) -> bool:
        nonlocal nodes
        y = start
        while y < modulus and covered[y]:
            y += 1
        if y == modulus:
            return True
        for k in shifts:
            a = (y - k) % modulus
            nodes += 1
            if nodes > node_cap:
                raise RuntimeError("independent tiling search exceeded its cap")
            if place(a):
                if search(y + 1):
                    return True
                unplace(a)
        return False

    return search(0)


def cyclic_order(turns) -> tuple[int, list[int]]:
    """Order N of the group the rational turns generate, and their residues."""
    q = lcm_denominators(turns)
    g = q
    for t in turns:
        g = math.gcd(g, int(Fraction(t) * q) % q)
    order = q // g
    return order, [int(Fraction(t) * order) % order for t in turns]


# -- finite groups -----------------------------------------------------------------


def bipyramid_counts(order: int) -> list[int]:
    """Face counts of the orbit polytope of the signed basis of R^3 under a
    cyclic group of that order about the z-axis: a bipyramid over an L-gon,
    L = lcm(order, 4)."""
    ring = math.lcm(order, 4)
    return [ring + 2, 3 * ring, 2 * ring]


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def word_matrix(word: list[tuple[int, int]], mats):
    d = len(mats[0])
    acc = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for g, e in word:
        m = mats[g - 1]
        acc = mat_mul(acc, m if e == 1 else transpose(m))
    return acc


def rank(rows) -> int:
    """Rank over Q by plain Gaussian elimination."""
    a = [list(r) for r in rows]
    rk = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((i for i in range(rk, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[rk], a[pivot] = a[pivot], a[rk]
        for i in range(len(a)):
            if i != rk and a[i][c] != 0:
                f = a[i][c] / a[rk][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rk])]
        rk += 1
    return rk


def common_fixed_vector(matrices) -> bool:
    """Do the matrices share a nonzero fixed vector?  Rank of stacked M - I."""
    d = len(matrices[0])
    stacked = [[m[i][j] - (1 if i == j else 0) for j in range(d)]
               for m in matrices for i in range(d)]
    return rank(stacked) < d


def orbit_size(point, group) -> int:
    return len({tuple(sum(g[i][j] * point[j] for j in range(len(point)))
                      for i in range(len(point))) for g in group})


def rotation_group_of_cube() -> list[list[list[Fraction]]]:
    """The 24 signed permutation matrices with determinant 1."""
    import itertools

    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = [[Fraction(0)] * 3 for _ in range(3)]
            for i, j in enumerate(perm):
                m[i][j] = Fraction(signs[i])
            if _det3(m) == 1:
                out.append(m)
    return out


def _det3(m) -> Fraction:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
