import random
from fractions import Fraction

import pytest

from oracles import face_lattice_by_brute_force
from spherediv.actions import enumerate_group
from spherediv.euler import (FaceLattice, divisibility_obstruction, euler_check,
                             face_lattice, orbit_polytope)
from spherediv.linalg import mat_mul, mat_vec, transpose
from spherediv.points import (RotationTuple, cayley_rotation, exact_tuple,
                              identity_tuple, random_skew_matrix,
                              z_axis_rotation_tuple)

F = Fraction


CUBE_GENERATORS = [[[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]],
                   [[F(1), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(1), F(0)]]]


def cube_group():
    return enumerate_group(exact_tuple(CUBE_GENERATORS), cap=100)


def test_cube_polytope_is_octahedron():
    g = cube_group()
    assert g.order == 24
    poly = orbit_polytope(g)
    assert len(poly.vertices) == 6
    lat = face_lattice(poly)
    assert lat.counts == [6, 12, 8]
    assert lat.euler_sum == 2
    assert euler_check(lat)


def test_trivial_group_gives_cross_polytope():
    for d in (3, 5):
        poly = orbit_polytope(enumerate_group(identity_tuple(d, 1)))
        assert len(poly.vertices) == 2 * d
        if d == 3:
            assert face_lattice(poly).counts == [6, 12, 8]


def test_cyclic_three_bipyramid():
    g = enumerate_group(z_axis_rotation_tuple([F(1, 3)]), cap=10)
    assert g.order == 3
    poly = orbit_polytope(g)
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
    poly = orbit_polytope(cube_group())
    lat = face_lattice(poly)
    where = {v: i for i, v in enumerate(poly.vertices)}
    for dim, faces in lat.faces.items():
        face_set = set(faces)
        for m in CUBE_GENERATORS + [transpose(g) for g in CUBE_GENERATORS]:
            for f in faces:
                image = frozenset(where[tuple(mat_vec(m, list(poly.vertices[i])))]
                                  for i in f)
                assert image in face_set, (dim, f)


def test_centroids_distinct_and_nonzero():
    # both lattices are simplicial, so the faces of one class have equally many
    # vertices and the exact vertex-coordinate sums are the centroids up to one
    # positive factor
    bipyramid = enumerate_group(z_axis_rotation_tuple([F(1, 12)]), cap=20)
    for group in (cube_group(), bipyramid):
        poly = orbit_polytope(group)
        for dim, faces in face_lattice(poly).faces.items():
            sums = {tuple(sum(c) for c in zip(*(poly.vertices[i] for i in f)))
                    for f in faces}
            assert len(sums) == len(faces), dim
            assert all(any(c != 0 for c in s) for s in sums), dim


def _assert_matches_brute_force(group):
    poly = orbit_polytope(group)
    lat, oracle = face_lattice(poly), face_lattice_by_brute_force(poly)
    assert lat.counts == oracle.counts
    assert lat.faces == oracle.faces


@pytest.mark.parametrize("k", range(12))
def test_face_lattice_matches_brute_force_on_axis_groups(k):
    _assert_matches_brute_force(
        enumerate_group(z_axis_rotation_tuple([F(k, 12)]), cap=20))


@pytest.mark.parametrize("ks", [(1, 4), (2, 3), (3, 6), (4, 6), (4, 8), (8, 10)])
def test_face_lattice_matches_brute_force_on_axis_pairs(ks):
    turns = [F(k, 12) for k in ks]
    _assert_matches_brute_force(
        enumerate_group(z_axis_rotation_tuple(turns), cap=20))


def test_face_lattice_matches_brute_force_on_conjugate_cube_groups():
    # conjugating by a signed permutation keeps the group but changes the
    # generators, so the vertices are discovered in another order
    rng = random.Random(11)
    rz = [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    rx = [[F(1), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(1), F(0)]]
    for _ in range(10):
        perm = rng.sample(range(3), 3)
        p = [[F(rng.choice((1, -1))) if perm[i] == j else F(0) for j in range(3)]
             for i in range(3)]
        gens = [mat_mul(mat_mul(p, g), transpose(p)) for g in (rz, rx)]
        group = enumerate_group(exact_tuple(gens), cap=100)
        assert group.order == 24
        _assert_matches_brute_force(group)


@pytest.mark.parametrize("k", [3, 4])
def test_face_lattice_matches_brute_force_off_the_coordinate_axes(k):
    # an axis group conjugated by a rational rotation: every vertex has
    # generic coordinates, and k = 3 has both parts of Q(sqrt 3) nonzero
    rot = cayley_rotation(random_skew_matrix(random.Random(3), 3, 3, 3))
    turn = z_axis_rotation_tuple([F(1, k)])
    g = mat_mul(mat_mul(rot, turn.matrices[0]), transpose(rot))
    group = enumerate_group(RotationTuple(3, [g], turn.mode, turn.sqrt_d), cap=20)
    assert group.order == k
    _assert_matches_brute_force(group)


@pytest.mark.parametrize("quarter", [False, True])
def test_face_lattice_matches_brute_force_about_a_rational_axis(quarter):
    # half and quarter turns about u = (1, 2, 2)/3: the polytopes have
    # quadrilateral facets and vertices that are no intersection of two facets
    u = [F(1, 3), F(2, 3), F(2, 3)]
    cross = [[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]]
    g = [[u[i] * u[j] + cross[i][j] if quarter else 2 * u[i] * u[j] - (i == j)
          for j in range(3)] for i in range(3)]
    group = enumerate_group(exact_tuple([g]), cap=10)
    assert group.order == (4 if quarter else 2)
    _assert_matches_brute_force(group)


def test_face_lattice_matches_brute_force_on_small_and_four_dimensional_groups():
    for d in range(2, 6):
        _assert_matches_brute_force(enumerate_group(identity_tuple(d, 1)))
    quarter = enumerate_group(z_axis_rotation_tuple([F(1, 4)], d=2), cap=10)
    assert quarter.order == 4
    _assert_matches_brute_force(quarter)
    o, i = F(0), F(1)
    turn12 = [[o, -i, o, o], [i, o, o, o], [o, o, i, o], [o, o, o, i]]
    turn34 = [[i, o, o, o], [o, i, o, o], [o, o, o, -i], [o, o, i, o]]
    group = enumerate_group(exact_tuple([turn12, turn34]), cap=100)
    assert group.order == 16
    _assert_matches_brute_force(group)


def test_quad_mode_lattice():
    g = enumerate_group(z_axis_rotation_tuple([F(1, 6)]), cap=20)
    assert g.order == 6
    poly = orbit_polytope(g)
    lat = face_lattice(poly)
    assert euler_check(lat)
    assert lat.counts[0] == len(poly.vertices)


def test_rejects_degenerate_vertex_set():
    poly = orbit_polytope(enumerate_group(identity_tuple(3, 1)))
    poly.vertices = [v for v in poly.vertices if v[2] == 0]
    with pytest.raises(ValueError):
        face_lattice(poly)
