from fractions import Fraction

import pytest

from spherediv.actions import enumerate_group
from spherediv.euler import (FaceLattice, divisibility_obstruction, euler_check,
                             face_lattice, normalized_centroids, orbit_polytope)
from spherediv.linalg import mat_vec
from spherediv.points import exact_tuple, identity_tuple, z_axis_rotation_tuple

F = Fraction


def cube_group():
    rz = [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    rx = [[F(1), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(1), F(0)]]
    return enumerate_group(exact_tuple([rz, rx]), cap=100)


def test_cube_polytope_is_octahedron():
    g = cube_group()
    assert g.order == 24
    poly = orbit_polytope(g.elements, 3)
    assert len(poly.vertices) == 6
    lat = face_lattice(poly)
    assert lat.counts == [6, 12, 8]
    assert lat.euler_sum == 2
    assert euler_check(lat)


def test_trivial_group_gives_cross_polytope():
    for d in (3, 5):
        poly = orbit_polytope(identity_tuple(d, 1).matrices, d)
        assert len(poly.vertices) == 2 * d
        if d == 3:
            assert face_lattice(poly).counts == [6, 12, 8]


def test_cyclic_three_bipyramid():
    g = enumerate_group(z_axis_rotation_tuple([F(1, 3)]), cap=10)
    assert g.order == 3
    poly = orbit_polytope(g.elements, 3)
    assert len(poly.vertices) == 14
    lat = face_lattice(poly)
    assert lat.counts == [14, 36, 24]
    assert euler_check(lat)


def test_euler_gate_catches_corruption():
    lat = FaceLattice(dimension=3, faces={}, counts=[6, 12, 9])
    assert not euler_check(lat)
    with pytest.raises(ValueError):
        euler_check(FaceLattice(dimension=4, faces={}, counts=[1, 1, 1, 1]))


def test_obstruction_examples():
    lat = FaceLattice(dimension=3, faces={}, counts=[6, 12, 8])
    assert divisibility_obstruction(lat, 3) == (True, 2)
    assert divisibility_obstruction(lat, 2) == (False, None)
    lat = FaceLattice(dimension=3, faces={}, counts=[14, 36, 24])
    assert divisibility_obstruction(lat, 3) == (True, 0)


def test_obstruction_fires_for_every_r_at_least_three():
    for counts in ([6, 12, 8], [14, 36, 24]):
        lat = FaceLattice(dimension=3, faces={}, counts=counts)
        for r in range(3, 10):
            obstructed, _ = divisibility_obstruction(lat, r)
            assert obstructed, (counts, r)


def test_face_classes_group_invariant():
    g = cube_group()
    poly = orbit_polytope(g.elements, 3)
    lat = face_lattice(poly)
    where = {v: i for i, v in enumerate(poly.vertices)}
    for dim, faces in lat.faces.items():
        face_set = set(faces)
        for m in g.elements:
            for f in faces:
                image = frozenset(where[tuple(mat_vec(m, list(poly.vertices[i])))]
                                  for i in f)
                assert image in face_set, (dim, f)


def test_centroids_distinct_and_nonzero():
    poly = orbit_polytope(cube_group().elements, 3)
    lat = face_lattice(poly)
    for dim, faces in lat.faces.items():
        cents = normalized_centroids(poly, faces)
        assert len({tuple(round(c, 9) for c in p) for p in cents}) == len(faces)


def test_quad_mode_lattice():
    g = enumerate_group(z_axis_rotation_tuple([F(1, 6)]), cap=20)
    assert g.order == 6
    poly = orbit_polytope(g.elements, 3)
    lat = face_lattice(poly)
    assert euler_check(lat)
    assert lat.counts[0] == len(poly.vertices)


def test_rejects_degenerate_vertex_set():
    poly = orbit_polytope(identity_tuple(3, 1).matrices, 3)
    poly.vertices = [v for v in poly.vertices if v[2] == 0]
    with pytest.raises(ValueError):
        face_lattice(poly)
