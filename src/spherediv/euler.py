"""Orbit polytopes of finite rotation groups and their face counts.

For a finite group of rotations in odd dimension d, the convex hull of the
group images of the signed standard basis is a full-dimensional polytope whose
boundary is a CW-decomposition of the sphere, so the alternating sum of its
face counts is 2.  Since 2 is not divisible by any r >= 3, some face count
class (a finite invariant subset of the sphere via normalized centroids) is
not divisible by r either, which rules out any division by r rotations
generating the group.

The group permutes the vertices and the faces, and the facet search uses it
(symmetric facet enumeration, as in Bremner, Dutour Sikirić and Schürmann,
"Polyhedral representation conversion up to symmetries", 2009).  The
vertices and their permutations are the points and elements of the
permutation group ``actions.enumerate_group`` builds, with all coordinates
integers of Z[sqrt(D)] over one common denominator.  For the i-th vertex
orbit only d-subsets through its representative, with the other vertices in
orbits >= i, are tested; the normal comes from signed (d-1)-minors and support from integer dot products
with an exact sign, and each facet found is added with all its images.
This is complete: a facet whose least vertex orbit is i has an image through
that orbit's representative with every other vertex in orbits >= i, and d
affinely independent vertices of that image, the representative among them,
form a tested subset.  Lower faces are intersections of facet vertex sets,
closed under the group one orbit at a time.  Groups must be exact (Fraction
or Q(sqrt(D)) entries): a face count read off float support tests would be
a verdict resting on rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import linalg
from .scalars import QuadExt

MAX_VERTICES = 120


@dataclass
class OrbitPolytope:
    """Vertices in discovery order.  ``integer_vertices[j]`` is the pair
    (a, b) of integer tuples with vertex j = (a + b sqrt(sqrt)) / q for one
    common q > 0 (``sqrt`` is 0 over Q, and then b is zero), and every
    permutation sends vertex j to the image of j under one group element."""

    dimension: int
    vertices: list
    group_order: int
    integer_vertices: list = field(default_factory=list, repr=False)
    sqrt: int = 0
    permutations: list = field(default_factory=list, repr=False)


def _combine(coeffs, cols) -> list[int]:
    """sum_k coeffs[k] * cols[k], entry by entry, for equally long integer columns."""
    out = [0] * len(cols[0])
    for c, col in zip(coeffs, cols):
        if c:
            out = [x + c * v for x, v in zip(out, col)]
    return out


def _columns(pts, d: int):
    """Coordinate columns (a parts, then b parts) of integer pair vertices."""
    return ([[p[0][k] for p in pts] for k in range(d)],
            [[p[1][k] for p in pts] for k in range(d)])


def orbit_polytope(group) -> OrbitPolytope:
    """The polytope on the points a complete ``actions.GroupEnumeration``
    permutes, the images of the signed standard basis: the integer triples
    are scaled to one common denominator, and the group's elements are the
    vertex permutations."""
    import math
    from fractions import Fraction

    if not group.complete:
        raise ValueError("orbit polytopes need a complete group enumeration")
    q = math.lcm(*(den for _, _, den in group.points))
    pairs = [(tuple(x * (q // den) for x in a), tuple(y * (q // den) for y in b))
             for a, b, den in group.points]
    if group.sqrt:
        verts = [tuple(QuadExt(Fraction(x, den), Fraction(y, den), group.sqrt)
                       for x, y in zip(a, b)) for a, b, den in group.points]
    else:
        verts = [tuple(Fraction(x, den) for x in a) for a, _, den in group.points]
    return OrbitPolytope(group.dimension, verts, len(group.elements), pairs,
                         group.sqrt, group.elements)


@dataclass
class FaceLattice:
    dimension: int
    faces: dict[int, list[frozenset[int]]]
    counts: list[int]

    @property
    def euler_sum(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.counts))


def _affine_rank(verts) -> int:
    rows = [[c - b for c, b in zip(p, verts[0])] for p in verts[1:]]
    return linalg.rank(rows) if rows else 0


def _sign(x: int, y: int, dd: int) -> int:
    """Exact sign of x + y sqrt(dd) for integers x, y."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    return sx if x * x > dd * y * y else sy


def _supporting_face(pts, cols, subset, dd: int) -> frozenset[int] | None:
    """The vertices on the hyperplane through the d points of subset, if they
    span one and it leaves every vertex on one side; None otherwise."""
    (base_a, base_b), d = pts[subset[0]], len(subset)
    rows_a = [[x - y for x, y in zip(pts[j][0], base_a)] for j in subset[1:]]
    rows_b = [[x - y for x, y in zip(pts[j][1], base_b)] for j in subset[1:]]
    na, nb = [], []
    for col in range(d):  # the normal's entries are the signed (d-1)-minors
        minor_a = [row[:col] + row[col + 1:] for row in rows_a]
        if dd:
            x, y = linalg._bareiss_quad(minor_a, [row[:col] + row[col + 1:]
                                                  for row in rows_b], dd)
        else:
            x, y = linalg._bareiss(minor_a), 0
        na.append(-x if col % 2 else x)
        nb.append(-y if col % 2 else y)
    if not any(na) and not any(nb):
        return None  # affinely dependent: spans less than a hyperplane
    cols_a, cols_b = cols
    # normal . v = (na.va + dd nb.vb) + (na.vb + nb.va) sqrt(dd), for every v
    xs = _combine(na + [dd * y for y in nb], cols_a + cols_b)
    ys = _combine(na + nb, cols_b + cols_a) if dd else [0] * len(xs)
    off_x, off_y = xs[subset[0]], ys[subset[0]]
    on_plane, side = [], 0
    for j, (x, y) in enumerate(zip(xs, ys)):
        s = _sign(x - off_x, y - off_y, dd)
        if s == 0:
            on_plane.append(j)
        elif s == -side:
            return None  # vertices on both sides: not supporting
        else:
            side = s
    return frozenset(on_plane)


def _orbit(face: frozenset[int], perms) -> set[frozenset[int]]:
    return {frozenset(p[j] for j in face) for p in perms}


def _facet_classes(polytope: OrbitPolytope) -> list[tuple[frozenset[int], set]]:
    """Facet orbits as (representative, members), searched once per vertex
    orbit through its representative."""
    pts, perms, dd = polytope.integer_vertices, polytope.permutations, polytope.sqrt
    n, d = len(pts), polytope.dimension
    cols = _columns(pts, d)
    orbit_index = [-1] * n
    reps = []
    for j in range(n):
        if orbit_index[j] < 0:
            for p in perms:
                orbit_index[p[j]] = len(reps)
            reps.append(j)
    through: list[list[frozenset[int]]] = [[] for _ in range(n)]
    classes = []
    for i, rep in enumerate(reps):
        later = [j for j in range(n) if orbit_index[j] >= i and j != rep]
        for rest in combinations(later, d - 1):
            if any(f.issuperset(rest) for f in through[rep]):
                continue  # inside a known facet: spans it or less
            facet = _supporting_face(pts, cols, (rep,) + rest, dd)
            if facet is None:
                continue
            members = _orbit(facet, perms)
            classes.append((facet, members))
            for f in members:
                for j in f:
                    through[j].append(f)
    return classes


def face_lattice(polytope: OrbitPolytope) -> FaceLattice:
    """All proper faces as vertex subsets, counted per affine dimension.

    Facets come from the symmetric supporting-hyperplane search; every lower
    face is an intersection of facet vertex sets, so the lattice is the
    closure of the facet family under intersection, found one group orbit at
    a time.  The face lattice of a polytope is graded, so a face below the
    facets has one dimension less than the smallest face strictly above it.
    """
    verts, d = polytope.vertices, polytope.dimension
    if d < 2:
        raise ValueError(f"face lattices need dimension >= 2, got {d}")
    if len(verts) > MAX_VERTICES:
        raise ValueError(f"vertex count {len(verts)} exceeds the desk-scale cap "
                         f"{MAX_VERTICES}")
    if _affine_rank(verts) != d:
        raise ValueError("vertex set does not span the ambient space")
    perms = polytope.permutations
    classes = _facet_classes(polytope)
    facets = [f for _, members in classes for f in members]
    faces = set(facets)
    frontier = classes
    while frontier:
        # p(f) & g = p(f & p^-1(g)), so one representative per orbit suffices
        new = []
        for rep, _ in frontier:
            for g in facets:
                h = rep & g
                if h and h not in faces:
                    members = _orbit(h, perms)
                    faces |= members
                    new.append((h, members))
        classes = classes + new
        frontier = new
    dim_of: dict[frozenset[int], int] = {}
    by_dim: dict[int, list[frozenset[int]]] = {i: [] for i in range(d)}
    for rep, members in sorted(classes, key=lambda c: -len(c[0])):
        above = [k for f, k in dim_of.items() if f > rep]
        k = min(above) - 1 if above else d - 1
        dim_of.update((f, k) for f in members)
        by_dim[k].extend(members)
    for k in by_dim:
        by_dim[k].sort(key=sorted)
    counts = [len(by_dim[i]) for i in range(d)]
    return FaceLattice(dimension=d, faces=by_dim, counts=counts)


def euler_check(lattice: FaceLattice) -> bool:
    """True iff the alternating face-count sum equals 2 (odd ambient dimension).

    This is a hard internal gate: a CW decomposition of an even-dimensional
    sphere must have Euler characteristic 2, so failure indicates a lattice bug.
    """
    if lattice.dimension % 2 == 0:
        raise ValueError("the Euler gate applies to odd ambient dimension only")
    return lattice.euler_sum == 2


def divisibility_obstruction(lattice: FaceLattice, r: int):
    """(obstructed, witness dimension): smallest i with r not dividing |C_i|.

    An obstruction means no r rotations generating this group can divide the
    sphere: the normalized face centroids of that dimension form a finite
    invariant set of size not divisible by r.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    for i, c in enumerate(lattice.counts):
        if c % r:
            return True, i
    return False, None
