"""Exact-cover tilings of the cyclic group Z_N by translates of one set.

Given shifts k_1, ..., k_r, decide whether some A subseteq Z_N makes
k_1 + A, ..., k_r + A a partition of Z_N ("k-divisibility").  The solver is a
complete canonical backtracking search: always branch on the smallest
uncovered residue, trying its candidate preimages in increasing order, so the
answer is deterministic and the first solution found is the canonical one.
The search is a general exact-cover engine over a table of rows
(``exact_cover``); ``actions.divide_finite_orbit`` runs it on the orbits of
finite group actions, of which Z_N under translation is the regular case.

For the four-shift family (k, k+m, m, 0) mod 4m with gcd(k, m) = 1 the module
also carries the closed-form decision (m even: always tileable; m odd:
tileable iff k = 2 mod 4) and the explicit constructions, used as mutually
checking implementations against the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded

DEFAULT_NODE_BUDGET = 10 ** 7


@dataclass(frozen=True)
class TileInstance:
    modulus: int
    shifts: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "shifts",
                           tuple(k % self.modulus for k in self.shifts))


@dataclass(frozen=True)
class TileSolution:
    modulus: int
    shifts: tuple[int, ...]
    members: tuple[int, ...]

    def is_valid(self) -> bool:
        return is_tiling(self.modulus, self.shifts, self.members)


def is_tiling(modulus: int, shifts, members) -> bool:
    """Exact check: every residue covered exactly once by {k_i + a}."""
    counts = [0] * modulus
    for a in members:
        for k in shifts:
            counts[(a + k) % modulus] += 1
    return all(c == 1 for c in counts)


class _TilingSearch:
    """Exact cover by backtracking with unit propagation over a row table.

    Row a covers the r cells ``images[a]``; ``rows[y]`` lists the rows covering
    cell y in increasing order.  A row is usable iff none of its cells is
    covered; blocked[a] counts covered cells (plus one, for good, for a row
    that names a cell twice), cand[y] counts usable rows covering y.
    Branching always happens on the smallest uncovered cell with candidates
    in increasing order, so the first solution found is canonical; forced
    moves (cand = 1) are committed without branching, which leaves the
    solution order unchanged and detects long forced chains without search.
    """

    def __init__(self, n: int, images: list[list[int]], node_budget: int):
        self.n = n
        self.images = images
        self.rows: list[list[int]] = [[] for _ in range(n)]
        for a, cells in enumerate(images):
            for y in cells:
                self.rows[y].append(a)
        self.node_budget = node_budget
        self.nodes = 0
        self.covered = [False] * n
        self.blocked = [int(len(set(cells)) != len(cells)) for cells in images]
        self.cand = [sum(1 for a in self.rows[y] if not self.blocked[a])
                     for y in range(n)]
        self.chosen: list[int] = []
        self.dead = False
        self.forced: list[int] = []

    def unique_row(self, y: int) -> int:
        for a in self.rows[y]:
            if self.blocked[a] == 0:
                return a
        raise AssertionError("no usable row despite positive candidate count")

    def commit(self, a: int) -> None:
        self.chosen.append(a)
        cells = self.images[a]
        for p in cells:
            self.covered[p] = True
        for p in cells:
            for b in self.rows[p]:
                self.blocked[b] += 1
                if self.blocked[b] == 1:
                    for y in self.images[b]:
                        self.cand[y] -= 1
                        if not self.covered[y]:
                            if self.cand[y] == 0:
                                self.dead = True
                            elif self.cand[y] == 1:
                                self.forced.append(y)

    def retract(self, a: int) -> None:
        cells = self.images[a]
        for p in reversed(cells):
            for b in self.rows[p]:
                if self.blocked[b] == 1:
                    for y in self.images[b]:
                        self.cand[y] += 1
                self.blocked[b] -= 1
        for p in cells:
            self.covered[p] = False
        self.chosen.pop()
        self.dead = False

    def propagate(self) -> list[int]:
        committed = []
        while not self.dead and self.forced:
            y = self.forced.pop()
            if self.covered[y] or self.cand[y] != 1:
                continue  # stale queue entry
            a = self.unique_row(y)
            self.commit(a)
            committed.append(a)
        return committed

    def first_uncovered(self) -> int:
        for y in range(self.n):
            if not self.covered[y]:
                return y
        return -1

    def search(self) -> bool:
        committed = self.propagate()
        if not self.dead:
            y = self.first_uncovered()
            if y < 0:
                return True
            for a in [b for b in self.rows[y] if self.blocked[b] == 0]:
                self.nodes += 1
                if self.nodes > self.node_budget:
                    raise BudgetExceeded(
                        f"tiling search exceeded {self.node_budget} nodes")
                self.commit(a)
                if self.search():
                    return True
                self.forced = []
                self.retract(a)
        for a in reversed(committed):
            self.retract(a)
        self.forced = []
        return False


def exact_cover(n: int, images: list[list[int]], node_budget: int) -> list[int] | None:
    """Rows whose cells partition {0, ..., n-1}, sorted, or None if none do.

    Row a covers the r cells ``images[a]``.  The search is canonical (see
    ``_TilingSearch``) and raises BudgetExceeded, never a wrong answer, once
    it would branch on more than node_budget nodes.
    """
    engine = _TilingSearch(n, images, node_budget)
    if engine.search():
        return sorted(engine.chosen)
    return None


def solve(instance: TileInstance,
          node_budget: int = DEFAULT_NODE_BUDGET) -> TileSolution | None:
    """Complete search for a tiling; None is a proof that none exists.

    A tiling is an exact cover of Z_N by the rows a -> {a + k_i}.  Raises
    BudgetExceeded (never a wrong answer) if the node budget runs out.
    Duplicate shifts make two translates of any nonempty set overlap, so such
    instances are immediately unsolvable, as are those with r not dividing N.
    """
    n = instance.modulus
    shifts = instance.shifts
    r = len(shifts)
    if r == 0 or n % r != 0:
        return None
    if len(set(shifts)) != r:
        return None
    members = exact_cover(n, [[(a + k) % n for k in shifts] for a in range(n)],
                          node_budget)
    return None if members is None else TileSolution(n, shifts, tuple(members))


def normalize_r4(modulus: int, shifts) -> tuple[int, int] | None:
    """Bring four shifts into the canonical form (k, k+m, m, 0) mod 4m.

    Allowed moves preserve divisibility: translating all shifts, negating all
    shifts, swapping within either pair, swapping the two pairs.  Returns the
    lexicographically smallest admissible (m, k), or None when no image has
    the canonical shape (flagged rather than guessed).
    """
    if modulus % 4:
        return None
    m = modulus // 4
    ks = [k % modulus for k in shifts]
    if len(ks) != 4:
        raise ValueError("normalize_r4 needs exactly four shifts")
    candidates = []
    for signed in (ks, [(-k) % modulus for k in ks]):
        for anchor in range(4):
            rest = [(signed[i] - signed[anchor]) % modulus
                    for i in range(4) if i != anchor]
            # try each of the remaining three as k_3 = m
            for pos3 in range(3):
                if rest[pos3] != m:
                    continue
                pair = [rest[i] for i in range(3) if i != pos3]
                for k1, k2 in (pair, pair[::-1]):
                    if (k1 + m) % modulus == k2:
                        candidates.append((m, k1))
    return min(candidates) if candidates else None


def closed_form_r4(m: int, k: int) -> bool:
    """Decision for shifts (k, k+m, m, 0) mod 4m with gcd(k, m) = 1:
    always tileable for even m; for odd m tileable iff k = 2 (mod 4)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    k %= 4 * m
    if math.gcd(k, m) != 1:
        raise ValueError(f"gcd(k, m) must be 1, got gcd({k}, {m})")
    if m % 2 == 0:
        return True
    return k % 4 == 2


def odd_m_construction(m: int, k: int) -> TileSolution:
    """Explicit tiling of Z_{4m} for odd m, gcd(k, m) = 1, k = 2 (mod 4):
    the elements -2ik for 0 <= i <= (m-1)/2 and -(2i+1)k + 2m for
    0 <= i <= (m-3)/2."""
    n = 4 * m
    k %= n
    if m % 2 == 0:
        raise ValueError("m must be odd")
    if math.gcd(k, m) != 1:
        raise ValueError(f"gcd(k, m) must be 1, got gcd({k}, {m})")
    if k % 4 != 2:
        raise ValueError("construction requires k = 2 (mod 4)")
    members = {(-2 * i * k) % n for i in range((m - 1) // 2 + 1)}
    members |= {(-(2 * i + 1) * k + 2 * m) % n for i in range((m - 3) // 2 + 1)}
    solution = TileSolution(n, ((k) % n, (k + m) % n, m % n, 0), tuple(sorted(members)))
    if len(members) != m or not solution.is_valid():
        raise ArithmeticError("explicit odd-m construction failed validity")
    return solution


def even_m_construction(m: int, k: int) -> TileSolution:
    """Explicit tiling of Z_{4m} for even m = 2s, gcd(k, m) = 1:
    A = S union (2m + S) with S = {2ik mod m : 0 <= i < s}."""
    n = 4 * m
    k %= n
    if m % 2:
        raise ValueError("m must be even")
    if math.gcd(k, m) != 1:
        raise ValueError(f"gcd(k, m) must be 1, got gcd({k}, {m})")
    s = m // 2
    base = {(2 * i * k) % m for i in range(s)}
    members = base | {x + 2 * m for x in base}
    solution = TileSolution(n, (k % n, (k + m) % n, m % n, 0), tuple(sorted(members)))
    if len(members) != m or not solution.is_valid():
        raise ArithmeticError("explicit even-m construction failed validity")
    return solution
