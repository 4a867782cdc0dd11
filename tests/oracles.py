"""Independent oracles used by the tests.

These deliberately avoid the production code paths they check: the orthogonal
polynomials come from literal Gram-Schmidt over exact rational moments and
from the three-term recurrence, sphere integrals from a Gauss-Legendre x
uniform-angle product rule, common-kernel questions from the rank of the
stacked matrix, determinants from Bareiss elimination on the scalar objects
themselves or, over rings without division (sums of roots of unity), from
cofactor expansion, certificate matrices from entry-by-entry Gegenbauer
evaluation, float word matrices multiplied out letter by letter from the
identity, zonal bases from Schur complements against an explicitly tracked
inverse Gram matrix, rational sphere points from a sorted pool of Fraction
stereographic images, witness residuals from a loop over samples, rotations
and basis points, orbit divisions from a plain recursive DFS over scanned
permutations, finite groups from a breadth-first closure of the generator
matrices under exact matrix products, Z_N tilings from a search that
recomputes every row and image modulo N, the circle's first cancelling degree
from a zero test at every n in one full period, and the circle's
classification from a case analysis by the number of angles (congruence
solvers for r <= 4, the divisor walk for every witness degree but r = 4,
formal r >= 5 tuples never measurable),
circle and lifted partition reports from a Python loop over the samples, arc
partitions from explicit translates counted at every midpoint, and face
lattices of orbit polytopes from an exact nullspace and sign scan over every
d-subset of the vertices, with no use of the group.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from spherediv.circle import (Angle, ArcSet, CircleClassification, _as_angles,
                              fractional_test, parse_angle)
from spherediv.cyclotomic import unit_vectors_sum_is_zero
from spherediv.gegenbauer import (RationalPolynomial, evaluate, gegenbauer,
                                  harmonic_dimension, weighted_inner_product)
from spherediv.errors import BudgetExceeded
from spherediv.euler import MAX_VERTICES, FaceLattice
from spherediv.lifting import (ANGLE_DENOMINATOR_SCALE, BOUNDARY_MARGIN,
                               PartitionReport, _circle_block_kept, _near_cut)
from spherediv.linalg import (identity_matrix, mat_mul, mat_vec, nullspace,
                              one_like, rank, transpose, zero_like)
from spherediv.scalars import is_zero_scalar, scalar_to_float, sign_scalar
from spherediv.tiling import TileInstance, solve as tiling_solve


def gram_schmidt_gegenbauer(d: int, n: int) -> RationalPolynomial:
    """Orthogonalize 1, t, t^2, ... against the normalized even moments and
    rescale to value 1 at t = 1; exact rational arithmetic throughout."""
    basis: list[RationalPolynomial] = []
    for k in range(n + 1):
        coeffs = [Fraction(0)] * k + [Fraction(1)]
        p = RationalPolynomial(tuple(coeffs))
        for q in basis:
            num = weighted_inner_product(d, p, q)
            den = weighted_inner_product(d, q, q)
            p = p - q.scale(num / den)
        basis.append(p)
    target = basis[n]
    at_one = evaluate(target, Fraction(1))
    return target.scale(Fraction(1) / at_one)


def gegenbauer_by_recurrence(d: int, n: int) -> RationalPolynomial:
    """P_n from the three-term recurrence
        (m + d - 2) P_{m+1}(t) = (2m + d - 2) t P_m(t) - m P_{m-1}(t),
    seeded with P_0 = 1 and P_1 = t, one degree at a time."""
    prev, cur = RationalPolynomial((Fraction(1),)), RationalPolynomial((0, 1))
    if n == 0:
        return prev
    for m in range(1, n):
        t_cur = RationalPolynomial((0,) + cur.coefficients)
        nxt = (t_cur.scale(2 * m + d - 2) - prev.scale(m)).scale(Fraction(1, m + d - 2))
        prev, cur = cur, nxt
    return cur


def sphere_average_s2(f, t_nodes: int = 64, phi_nodes: int = 128) -> float:
    """(1/measure) * integral of f over S^2 by Gauss-Legendre x uniform angles.

    Exact (up to roundoff) for integrands polynomial in the coordinates of
    degree below the node counts.
    """
    ts, ws = np.polynomial.legendre.leggauss(t_nodes)
    phis = 2.0 * np.pi * (np.arange(phi_nodes) + 0.5) / phi_nodes
    total = 0.0
    for t, w in zip(ts, ws):
        s = np.sqrt(max(0.0, 1.0 - t * t))
        ring = sum(f(np.array([s * np.cos(p), s * np.sin(p), t])) for p in phis)
        total += w * ring / phi_nodes
    return total / 2.0


def stacked_kernel_intersection(matrices) -> bool:
    """Do the kernels intersect non-trivially?  Rank of the stacked matrix."""
    rows = [list(row) for m in matrices for row in m]
    cols = len(rows[0])
    return rank(rows) < cols


def det_bareiss(m):
    """Determinant by fraction-free elimination over the entries' own field
    arithmetic (Fraction or QuadExt objects, every quotient normalised)."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m]
    sign = 1
    prev = one_like(a[0][0])
    for k in range(n - 1):
        if is_zero_scalar(a[k][k]):
            for i in range(k + 1, n):
                if not is_zero_scalar(a[i][k]):
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return zero_like(a[0][0])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = zero_like(a[i][k])
        prev = a[k][k]
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def det_cofactor(m):
    """Division-free determinant by cofactor expansion along the first row;
    works over any commutative ring, CycloNum included."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def l_matrix_by_evaluate(d: int, n: int, rotations, points):
    """(1/N_n) sum_s P_n(v_i . (g_s v_j)), one Horner evaluation per term over
    the scalar objects of the tuple."""
    poly = gegenbauer(d, n)
    scale = Fraction(1, harmonic_dimension(d, n))
    rows = []
    for v in points:
        row = []
        for u in points:
            total = None
            for g in rotations.matrices:
                w = mat_vec(g, list(u))
                t = sum((a * b for a, b in zip(v[1:], w[1:])), v[0] * w[0])
                term = evaluate(poly, t)
                total = term if total is None else total + term
            row.append(scale * total)
        rows.append(row)
    return rows


def float_word_matrix_by_letters(letters, matrices):
    """The float matrix of a word, multiplied out from the identity, one
    generator or transpose at a time, each converted to an array afresh."""
    acc = np.eye(len(matrices[0]))
    for g, e in letters:
        m = np.array(matrices[g - 1], dtype=float)
        acc = acc @ (m if e == 1 else m.T)
    return acc


def greedy_basis_by_inverse(d: int, n: int, candidates):
    """(points, gram, gram_det) of the greedy zonal basis, tracking the inverse
    Gram matrix in Fractions and accepting a candidate exactly when its Schur
    complement is positive."""
    nn = harmonic_dimension(d, n)
    poly = gegenbauer(d, n)
    accepted, gram, inv = [], [], []
    det = Fraction(1)
    g_diag = Fraction(1, nn)
    for v in candidates:
        if len(accepted) == nn:
            break
        w = [evaluate(poly, sum((a * b for a, b in zip(v, u)), Fraction(0))) / nn
             for u in accepted]
        kw = mat_vec(inv, w) if accepted else []
        schur = g_diag - sum((wi * ki for wi, ki in zip(w, kw)), Fraction(0))
        if schur == 0:
            continue
        assert schur > 0
        k = len(accepted)
        new_inv = [[inv[i][j] + kw[i] * kw[j] / schur for j in range(k)] + [-kw[i] / schur]
                   for i in range(k)]
        new_inv.append([-kw[j] / schur for j in range(k)] + [1 / schur])
        inv = new_inv
        for i in range(k):
            gram[i].append(w[i])
        gram.append(w + [g_diag])
        det *= schur
        accepted.append(v)
    return accepted, gram, det


def _point_height(point) -> int:
    return max([1] + [max(abs(c.numerator), c.denominator) for c in point])


@functools.lru_cache(maxsize=None)
def _stereographic_pool(d: int, h: int) -> list:
    """The signed standard basis plus the stereographic images of the
    parameter grids of heights 1..h in Q^{d-1}, sorted by (height, point)."""
    if h == 0:
        pool = set()
        for i in range(d):
            for sign in (1, -1):
                e = [Fraction(0)] * d
                e[i] = Fraction(sign)
                pool.add(tuple(e))
    else:
        pool = set(_stereographic_pool(d, h - 1))
        vals = {Fraction(sign * p, q) for p in range(h + 1) for q in range(1, h + 1)
                for sign in (1, -1) if math.gcd(p, q) == 1}
        grid = [()]
        for _ in range(d - 1):
            grid = [g + (v,) for g in grid for v in vals]
        for w in grid:
            s = sum((x * x for x in w), Fraction(0))
            pool.add(tuple(2 * x / (s + 1) for x in w) + ((s - 1) / (s + 1),))
    return sorted(pool, key=lambda p: (_point_height(p), p))


def enumerate_points_by_pool(d: int, count: int):
    """First ``count`` points of the Fraction pool of the least height h
    holding max(2 count, count + 2d) distinct points."""
    if d == 1:
        if count > 2:
            raise BudgetExceeded("S^0 has only two points")
        return _stereographic_pool(1, 0)[:count]
    target = max(2 * count, count + 2 * d)
    h = 1
    while len(_stereographic_pool(d, h)) < target:
        h += 1
        if h > 64:
            raise BudgetExceeded("parameter height budget exhausted")
    return _stereographic_pool(d, h)[:count]


def witness_value_by_point(witness, x) -> float:
    """f = 1/r + sum_j c_j P_n(v_j . x) at one float point, by Horner over the
    polynomial's Fraction coefficients, one basis point at a time."""
    poly = gegenbauer(len(witness.points[0]), witness.degree)
    val = 1.0 / witness.r
    for c, v in zip(witness.coefficients, witness.points):
        vf = [float(t) for t in v]
        val += scalar_to_float(c) * float(evaluate(poly, sum(a * b for a, b in zip(vf, x))))
    return val


def witness_residual_by_sample(rotations, witness, samples: int, seed: int) -> float:
    """Largest |sum_i f(g_i^{-1} x) - 1| over the seeded random unit x, one
    sample and rotation at a time."""
    d = rotations.dimension
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(samples, d))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    inv_mats = [np.array([[scalar_to_float(x) for x in row]
                          for row in rotations.inverse_matrix(i)])
                for i in range(rotations.r)]
    worst = 0.0
    for x in xs:
        total = sum(witness_value_by_point(witness, m @ x) for m in inv_mats)
        worst = max(worst, abs(total - 1.0))
    return worst


def _orbit_permutations_by_scan(report, rotations):
    """For each generator, j -> the index of g . p_j among the orbit points,
    found by a scan for the equal point."""
    return [[report.points.index(tuple(mat_vec(m, list(p)))) for p in report.points]
            for m in rotations.matrices]


def enumerate_group_by_matrices(rotations, cap: int):
    """The group generated by an exact or quad tuple as matrices, in
    breadth-first order from the identity under left multiplication by the
    generators and then their transposes; None past cap elements."""
    gens = list(rotations.matrices) + [transpose(m) for m in rotations.matrices]
    queue = [identity_matrix(rotations.dimension, like=rotations.matrices[0][0][0])]
    seen = {tuple(map(tuple, queue[0]))}
    for x in queue:  # the queue grows while it is read
        if len(queue) > cap:
            return None
        for g in gens:
            y = mat_mul(g, x)
            key = tuple(map(tuple, y))
            if key not in seen:
                seen.add(key)
                queue.append(y)
    return queue


def divide_orbit_by_dfs(report, rotations):
    """Subset of a finite orbit whose generator translates partition it, or
    None, by plain recursive DFS: cover the smallest-index uncovered point,
    candidates in increasing order, rows with a repeated image skipped."""
    perms = _orbit_permutations_by_scan(report, rotations)
    size = report.size
    r = len(perms)
    if r == 0 or size % r != 0:
        return None
    inverse = [[0] * size for _ in range(r)]
    for i, perm in enumerate(perms):
        for j, img in enumerate(perm):
            inverse[i][img] = j
    covered = [False] * size
    chosen: list[int] = []

    def dfs() -> bool:
        y = next((i for i in range(size) if not covered[i]), -1)
        if y < 0:
            return True
        for a in sorted({inverse[i][y] for i in range(r)}):
            images = [perms[i][a] for i in range(r)]
            if len(set(images)) != r or any(covered[p] for p in images):
                continue
            for p in images:
                covered[p] = True
            chosen.append(a)
            if dfs():
                return True
            chosen.pop()
            for p in images:
                covered[p] = False
        return False

    if not dfs():
        return None
    return [report.points[a] for a in sorted(chosen)]


class _ModularSearch:
    """Z_N tiling search that computes rows (y - k_i) and images (a + k_i)
    modulo N on every use, with the same propagation and branching order as
    the table-driven engine."""

    def __init__(self, n: int, shifts: tuple, node_budget: int):
        self.n = n
        self.shifts = shifts
        self.r = len(shifts)
        self.node_budget = node_budget
        self.nodes = 0
        self.covered = [False] * n
        self.blocked = [0] * n
        self.cand = [self.r] * n
        self.chosen: list[int] = []
        self.dead = False
        self.forced: list[int] = []

    def rows_of(self, y: int) -> list[int]:
        return [(y - k) % self.n for k in self.shifts]

    def images_of(self, a: int) -> list[int]:
        return [(a + k) % self.n for k in self.shifts]

    def unique_row(self, y: int) -> int:
        return next(a for a in self.rows_of(y) if self.blocked[a] == 0)

    def commit(self, a: int) -> None:
        self.chosen.append(a)
        for p in self.images_of(a):
            self.covered[p] = True
        for p in self.images_of(a):
            for b in self.rows_of(p):
                self.blocked[b] += 1
                if self.blocked[b] == 1:
                    for y in self.images_of(b):
                        self.cand[y] -= 1
                        if not self.covered[y]:
                            if self.cand[y] == 0:
                                self.dead = True
                            elif self.cand[y] == 1:
                                self.forced.append(y)

    def retract(self, a: int) -> None:
        for p in reversed(self.images_of(a)):
            for b in self.rows_of(p):
                if self.blocked[b] == 1:
                    for y in self.images_of(b):
                        self.cand[y] += 1
                self.blocked[b] -= 1
        for p in self.images_of(a):
            self.covered[p] = False
        self.chosen.pop()
        self.dead = False

    def propagate(self) -> list[int]:
        committed = []
        while not self.dead and self.forced:
            y = self.forced.pop()
            if self.covered[y] or self.cand[y] != 1:
                continue
            a = self.unique_row(y)
            self.commit(a)
            committed.append(a)
        return committed

    def search(self) -> bool:
        committed = self.propagate()
        if not self.dead:
            y = next((i for i in range(self.n) if not self.covered[i]), -1)
            if y < 0:
                return True
            for a in sorted(b for b in self.rows_of(y) if self.blocked[b] == 0):
                self.nodes += 1
                if self.nodes > self.node_budget:
                    raise BudgetExceeded(f"tiling search exceeded {self.node_budget} nodes")
                self.commit(a)
                if self.search():
                    return True
                self.forced = []
                self.retract(a)
        for a in reversed(committed):
            self.retract(a)
        self.forced = []
        return False


def tiling_search_by_modulus(modulus: int, shifts, node_budget: int):
    """(members or None, search nodes) for tiling Z_modulus by the shifts,
    with the modular search; raises BudgetExceeded past the budget."""
    shifts = tuple(k % modulus for k in shifts)
    r = len(shifts)
    if r == 0 or modulus % r != 0 or len(set(shifts)) != r:
        return None, 0
    engine = _ModularSearch(modulus, shifts, node_budget)
    found = engine.search()
    return (tuple(sorted(engine.chosen)) if found else None), engine.nodes


def fractional_test_by_scan(angles):
    """Least n >= 1 at which the unit vectors at the n-fold angles cancel
    within every formal group, else None, by testing each n in 1..q, q the
    common denominator of the rational parts (the sums repeat with period q)."""
    ang = [a if isinstance(a, Angle) else parse_angle(a) if isinstance(a, str)
           else Angle(Fraction(a)) for a in angles]
    if len(ang) < 2:
        raise ValueError("need r >= 2 angles")
    groups: dict[tuple, list[Fraction]] = {}
    for a in ang:
        groups.setdefault(a.formal, []).append(a.turns)
    if any(len(turns) == 1 for turns in groups.values()):
        return None
    q = math.lcm(*(a.turns.denominator for a in ang))
    for n in range(1, q + 1):
        if all(unit_vectors_sum_is_zero([n * t for t in turns])
               for turns in groups.values()):
            return n
    return None


# -- the circle's case-by-case classification ---------------------------------


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


def _divide_r2(t1, t2) -> ArcSet | None:
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


def _divide_r3(t1, t2, t3) -> ArcSet | None:
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


def _divide_r4(t1, t2, t3, t4) -> CircleClassification:
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


def _reduced_turns(ang: list[Angle]) -> tuple[Fraction, ...] | None:
    s = [a - ang[-1] for a in ang]
    if all(a.is_rational for a in s):
        return tuple(a.turns for a in s)
    return None


def classify_by_cases(angles) -> CircleClassification:
    """The circle classification case by case: congruence solvers for the
    r = 2 and r = 3 arc sets and the r = 4 antipodal pattern, with the
    divisor walk ``fractional_test`` for every witness degree of r <= 3 and
    r >= 5, and the Z_N tiling reduction for rational r >= 4."""
    ang = _as_angles(angles)
    r = len(ang)
    if r < 2:
        raise ValueError("need r >= 2 angles")
    if r == 2:
        arcs = _divide_r2(*ang)
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
        arcs = _divide_r3(*ang)
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
        return _divide_r4(*ang)
    # r >= 5
    s = [a - ang[-1] for a in ang]
    n0 = fractional_test(ang)
    if not all(a.is_rational for a in s):
        # a formal difference: two or more formal classes, never measurable
        if n0 is None:
            return CircleClassification(verdict="not_fractional", r=r)
        return CircleClassification(
            verdict="fractional_only", r=r, witness_degree=n0,
            notes=["irrational offsets force every fractional division to be "
                   "non-measurable"])
    note = ("r>=5 decision via reduction to the generated finite cyclic group; "
            "sound and complete for rational tuples (extension beyond the "
            "r<=4 closed-form analysis)")
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


def verify_lifted_by_loop(desc, samples: int, seed: int = 0) -> PartitionReport:
    """The lifted partition check one sample at a time: the whole Gaussian
    block, then the integer angles, three rejections and the per-translate
    cell test."""
    rng = np.random.default_rng(seed)
    r = desc.r
    d = desc.dimension
    denom = ANGLE_DENOMINATOR_SCALE * r
    cell = ANGLE_DENOMINATOR_SCALE  # integer width of one 1/r-turn cell
    margin_units = 10 ** -7 * denom
    counts = [0] * r
    violations = []
    retained = 0
    gauss = rng.normal(size=(samples, d))
    ks = rng.integers(0, denom, size=samples)
    for row, k in zip(gauss, ks):
        norm = float(np.linalg.norm(row))
        if norm < 1e-12:
            continue
        y_norm = math.hypot(row[-2], row[-1]) / norm
        if y_norm < BOUNDARY_MARGIN:
            continue
        k = int(k)
        dist_to_cut = min(k % cell, cell - (k % cell))
        if dist_to_cut < margin_units:
            continue
        retained += 1
        # g_i^{-1} shifts the circle angle by -i/r: membership in the piece C
        # holds iff the shifted angle lies in the base cell [0, 1/r).
        hits = [i for i in range(1, r + 1) if (k - i * cell) % denom < cell]
        if len(hits) != 1:
            violations.append({"angle": f"{k}/{denom}", "pieces": hits})
        else:
            counts[hits[0] - 1] += 1
    return PartitionReport(samples_requested=samples, retained=retained,
                           violations=violations, piece_counts=counts, seed=seed)


def verify_lifted_by_table(desc, samples: int, seed: int = 0) -> PartitionReport:
    """The lifted partition check on the lift's materialised cut table
    (``LiftedDivision.cuts``): the circle descriptors' path, with every piece
    counted."""
    rng = np.random.default_rng(seed)
    table, denom = desc.cuts, ANGLE_DENOMINATOR_SCALE * desc.r
    keep = _circle_block_kept(desc, samples, rng)
    ks = rng.integers(0, denom, size=samples)
    ks = ks[keep & ~_near_cut(ks, table, denom)]
    below = np.searchsorted([-(-c * denom // table.q) for c in table.cuts], ks, side="right")
    holders = table.holders[-1:] + table.holders
    piece = np.array([hits[0] if len(hits) == 1 else 0 for hits in holders])[below]
    violations = [{"angle": str(Fraction(int(ks[n]), denom)), "pieces": list(holders[below[n]])}
                  for n in np.flatnonzero(piece == 0).tolist()]
    counts = np.bincount(piece, minlength=desc.r + 1)[1:].tolist()
    return PartitionReport(samples_requested=samples, retained=len(ks),
                           violations=violations, piece_counts=counts, seed=seed)


def _translate_arcs(arcs, t) -> list[tuple[Fraction, Fraction]]:
    """The arcs [a, b) shifted by t turns, an arc wrapped past 1 split in two."""
    t = Fraction(t) % 1
    out = []
    for a, b in arcs.arcs:
        a, b = a + t, b + t
        if b <= 1:
            out.append((a, b))
        elif a >= 1:
            out.append((a - 1, b - 1))
        else:
            out += [(a, Fraction(1)), (Fraction(0), b - 1)]
    return out


def _arcs_contain(arcs, x) -> bool:
    x = Fraction(x) % 1
    return any(a <= x < b for a, b in arcs)


def verify_arcset_by_translates(angles, arcs) -> bool:
    """The arc partition check by explicit translates: cut [0, 1) at 0, 1 and
    every translated arc end, and count the translates holding each midpoint."""
    ang = _as_angles(angles)
    if any(not a.is_rational for a in ang):
        raise ValueError("exact verification needs purely rational angles")
    translates = [_translate_arcs(arcs, a.turns) for a in ang]
    cuts = {Fraction(0), Fraction(1)}
    for t in translates:
        for a, b in t:
            cuts.add(a)
            cuts.add(b)
    points = sorted(cuts)
    for lo, hi in zip(points, points[1:]):
        mid = (lo + hi) / 2
        if sum(1 for t in translates if _arcs_contain(t, mid)) != 1:
            return False
    return True


def verify_base_by_loop(desc, samples: int, seed: int = 0) -> PartitionReport:
    """The circle partition check one Fraction sample at a time, with an exact
    distance to every translated arc end and an arc test per translate."""
    rng = np.random.default_rng(seed)
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
        hits = [i + 1 for i, t in enumerate(desc.turns)
                if _arcs_contain(desc.arcs.arcs, angle - t)]
        if len(hits) != 1:
            violations.append({"angle": str(angle), "pieces": hits})
        else:
            counts[hits[0] - 1] += 1
    return PartitionReport(samples_requested=samples, retained=retained,
                           violations=violations, piece_counts=counts, seed=seed)


def _affine_rank_by_rref(verts, subset) -> int:
    pts = [verts[i] for i in subset]
    base = pts[0]
    rows = [[c - b for c, b in zip(p, base)] for p in pts[1:]]
    if not rows:
        return 0
    return rank(rows)


def _facets_by_every_subset(verts, d: int) -> set[frozenset[int]]:
    nv = len(verts)
    facets: set[frozenset[int]] = set()
    for combo in combinations(range(nv), d):
        base = verts[combo[0]]
        rows = [[verts[i][k] - base[k] for k in range(d)] for i in combo[1:]]
        kern = nullspace(rows) if rows else []
        if len(kern) != 1:
            continue  # affinely dependent subset; spans less than a hyperplane
        normal = kern[0]
        offset = sum((n * c for n, c in zip(normal, base)),
                     normal[0] - normal[0])
        signs = set()
        on_plane = []
        for idx in range(nv):
            val = sum((n * c for n, c in zip(normal, verts[idx])),
                      normal[0] - normal[0]) - offset
            s = sign_scalar(val)
            if s == 0:
                on_plane.append(idx)
            else:
                signs.add(s)
            if len(signs) == 2:
                break
        if len(signs) == 2:
            continue  # not supporting
        facets.add(frozenset(on_plane))
    return facets


def face_lattice_by_brute_force(polytope) -> FaceLattice:
    """All proper faces as vertex subsets, counted per affine dimension.

    Facets come from exhaustive supporting-hyperplane tests; every lower face
    is an intersection of facet vertex sets, so the lattice is the closure of
    the facet family under pairwise intersection.
    """
    verts, d = polytope.vertices, polytope.dimension
    if d < 2:
        raise ValueError(f"face lattices need dimension >= 2, got {d}")
    if len(verts) > MAX_VERTICES:
        raise ValueError(f"vertex count {len(verts)} exceeds the desk-scale cap "
                         f"{MAX_VERTICES}")
    if _affine_rank_by_rref(verts, list(range(len(verts)))) != d:
        raise ValueError("vertex set does not span the ambient space")
    facets = _facets_by_every_subset(verts, d)
    rank_of = lambda s: _affine_rank_by_rref(verts, sorted(s))
    faces: set[frozenset[int]] = set(facets)
    frontier = set(facets)
    while frontier:
        new: set[frozenset[int]] = set()
        for f in frontier:
            for g in facets:
                h = f & g
                if h and h not in faces and h not in new:
                    new.add(h)
        faces |= new
        frontier = new
    by_dim: dict[int, list[frozenset[int]]] = {i: [] for i in range(d)}
    for f in faces:
        k = rank_of(f)
        if k < d:
            by_dim[k].append(f)
    for k in by_dim:
        by_dim[k].sort(key=sorted)
    counts = [len(by_dim[i]) for i in range(d)]
    return FaceLattice(dimension=d, faces=by_dim, counts=counts)
