"""Orbit polytopes of finite rotation groups and their face counts.

For a finite group of rotations in odd dimension d, the convex hull of the
group images of the signed standard basis is a full-dimensional polytope whose
boundary is a CW-decomposition of the sphere, so the alternating sum of its
face counts is 2.  Since 2 is not divisible by any r >= 3, some face count
class (a finite invariant subset of the sphere via normalized centroids) is
not divisible by r either, which rules out any division by r rotations
generating the group.

Facets are found by brute force over d-subsets of the vertex set with exact
one-sided support tests; lower faces are intersections of facet vertex sets.
Groups must be exact (Fraction or Q(sqrt(D)) entries): a face count read off
floating support tests would be a verdict resting on rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import linalg
from .actions import act, dedup_index
from .scalars import sign_scalar, scalar_to_float

MAX_VERTICES = 120


@dataclass
class OrbitPolytope:
    dimension: int
    vertices: list
    group_order: int


def _signed_basis(d: int):
    out = []
    for i in range(d):
        for s in (1, -1):
            e = [Fraction(0)] * d
            e[i] = Fraction(s)
            out.append(tuple(e))
    return out


def orbit_polytope(group_elements, d: int) -> OrbitPolytope:
    """Images of the signed standard basis under an exact (Fraction or
    QuadExt) group, deduplicated, with the group-invariance of the vertex set
    verified."""
    mats = list(group_elements)
    seeds = _signed_basis(d)
    index = dedup_index("exact")
    verts: list = []
    for g in mats:
        for v in seeds:
            w = act(g, v)
            if index.find(w) is None:
                index.add(w)
                verts.append(w)
    for g in mats:
        for v in verts:
            if index.find(act(g, v)) is None:
                raise ArithmeticError("vertex set is not group-invariant")
    return OrbitPolytope(d, verts, len(group_elements))


@dataclass
class FaceLattice:
    dimension: int
    faces: dict[int, list[frozenset[int]]]
    counts: list[int]

    @property
    def euler_sum(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.counts))


def _affine_rank_exact(verts, subset) -> int:
    pts = [verts[i] for i in subset]
    base = pts[0]
    rows = [[c - b for c, b in zip(p, base)] for p in pts[1:]]
    if not rows:
        return 0
    return linalg.rank(rows)


def _facets_exact(verts, d: int) -> set[frozenset[int]]:
    nv = len(verts)
    facets: set[frozenset[int]] = set()
    for combo in combinations(range(nv), d):
        base = verts[combo[0]]
        rows = [[verts[i][k] - base[k] for k in range(d)] for i in combo[1:]]
        kern = linalg.nullspace(rows) if rows else []
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


def face_lattice(polytope: OrbitPolytope) -> FaceLattice:
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
    if _affine_rank_exact(verts, list(range(len(verts)))) != d:
        raise ValueError("vertex set does not span the ambient space")
    facets = _facets_exact(verts, d)
    rank_of = lambda s: _affine_rank_exact(verts, sorted(s))
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


def normalized_centroids(polytope: OrbitPolytope, faces: list[frozenset[int]]):
    """Distinct nonzero centroids, normalized to the sphere (float check aid)."""
    verts = polytope.vertices
    out = []
    for f in faces:
        pts = np.array([[scalar_to_float(c) for c in verts[i]] for i in sorted(f)])
        m = pts.mean(axis=0)
        norm = np.linalg.norm(m)
        if norm < 1e-12:
            raise ArithmeticError("face centroid at the origin")
        out.append(tuple((m / norm).tolist()))
    return out
