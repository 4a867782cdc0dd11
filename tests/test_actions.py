import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from spherediv.actions import (GroupWord, common_fixed_point_test,
                               divide_finite_orbit, enumerate_group,
                               evaluate_word, invariant_split, orbit,
                               parse_word, reduced_words)
from spherediv.euler import face_lattice, orbit_polytope
from spherediv.linalg import identity_matrix, mat_vec
from spherediv.points import (RotationTuple, cayley_rotation,
                              circle_rotation_tuple, exact_tuple,
                              random_skew_matrix, z_axis_rotation_tuple)
from spherediv.scalars import QuadExt, is_zero_scalar
from spherediv.serialize import tuple_from_json
from spherediv.tiling import exact_cover
from oracles import (divide_orbit_by_dfs, enumerate_group_by_matrices,
                     face_lattice_by_brute_force, stacked_kernel_intersection)

F = Fraction


def signed_permutation_tuple():
    rz = [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    rx = [[F(1), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(1), F(0)]]
    return exact_tuple([rz, rx])


def signed_rotations(d):
    """All signed permutation matrices of determinant +1."""
    out = []
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            m = [[F(0)] * d for _ in range(d)]
            for i, j in enumerate(perm):
                m[i][j] = F(signs[i])
            if round(np.linalg.det(np.array(m, dtype=float))) == 1:
                out.append(m)
    return out


def icosahedral_tuple():
    """(x, y, z) -> (y, z, x) and (1/2)[[1, -phi, 1/phi], [phi, 1/phi, -1],
    [1/phi, 1, phi]] with phi = (1 + sqrt 5)/2: they generate the rotation
    group of the icosahedron, of order 60."""
    phi, inv_phi = QuadExt(F(1, 2), F(1, 2), 5), QuadExt(F(-1, 2), F(1, 2), 5)
    z, one, half = QuadExt(0, 0, 5), QuadExt(1, 0, 5), QuadExt(F(1, 2), 0, 5)
    cycle = [[z, one, z], [z, z, one], [one, z, z]]
    g = [[half, -phi / 2, inv_phi / 2], [phi / 2, inv_phi / 2, -half],
         [inv_phi / 2, half, phi / 2]]
    return RotationTuple(3, [cycle, g], "quad", 5)


def minus_identity(m):
    d = len(m)
    return [[m[i][j] - (1 if i == j else 0) for j in range(d)] for i in range(d)]


def test_word_reduction():
    w = GroupWord(((1, 1), (1, -1), (2, 1)))
    assert w.reduced().letters == ((2, 1),)
    assert GroupWord(((1, 1), (2, 1))).is_reduced
    assert not w.is_reduced


def test_parse_word():
    w = parse_word("g1 g2 g1^-1")
    assert w.letters == ((1, 1), (2, 1), (1, -1))
    assert parse_word("g2^2").letters == ((2, 1), (2, 1))


def test_evaluate_empty_word_is_identity():
    t = signed_permutation_tuple()
    assert evaluate_word(GroupWord(()), t) == identity_matrix(3)


def test_evaluate_unreduced_equals_reduced():
    rng = random.Random(2)
    t = exact_tuple([cayley_rotation(random_skew_matrix(rng, 3)) for _ in range(2)])
    w = GroupWord(((1, 1), (2, 1), (2, -1), (1, 1)))
    assert evaluate_word(w, t) == evaluate_word(w.reduced(), t)


def test_quarter_turn_fourth_power():
    q = [[F(0), F(-1)], [F(1), F(0)]]
    t = exact_tuple([q])
    w = GroupWord(((1, 1),) * 4)
    assert evaluate_word(w, t) == identity_matrix(2)


def test_common_fixed_point_coaxial():
    za = z_axis_rotation_tuple([F(1, 4)]).matrices[0]
    zb = z_axis_rotation_tuple([F(1, 2)]).matrices[0]
    found, witness = common_fixed_point_test([minus_identity(za), minus_identity(zb)])
    assert found
    assert witness[0] == 0 and witness[1] == 0 and witness[2] != 0


def test_common_fixed_point_zero_matrices():
    z = [[F(0)] * 3 for _ in range(3)]
    found, witness = common_fixed_point_test([z])
    assert found and any(x != 0 for x in witness)


def test_common_fixed_point_random_rotations_share_nothing():
    rng = random.Random(4)
    a = cayley_rotation(random_skew_matrix(rng, 3))
    b = cayley_rotation(random_skew_matrix(rng, 3))
    found, _ = common_fixed_point_test([minus_identity(a), minus_identity(b)])
    assert not found


def test_common_fixed_point_agrees_with_stacked_rank_oracle():
    rng = random.Random(12)
    for trial in range(100):
        d = rng.randint(2, 4)
        k = rng.randint(1, 3)
        mats = []
        plant = rng.random() < 0.5
        if plant:
            x = [F(rng.randint(-3, 3)) for _ in range(d)]
            if all(v == 0 for v in x):
                x[0] = F(1)
            for _ in range(k):
                # rows orthogonal to x: rank-deficient by construction
                rows = []
                for _ in range(d):
                    row = [F(rng.randint(-4, 4)) for _ in range(d)]
                    # project out the x-component against a coordinate where x is nonzero
                    pivot = next(i for i, v in enumerate(x) if v != 0)
                    dot = sum(a * b for a, b in zip(row, x))
                    row[pivot] -= dot / x[pivot]
                    rows.append(row)
                mats.append(rows)
        else:
            mats = [[[F(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)]
                    for _ in range(k)]
        found, witness = common_fixed_point_test(mats)
        assert found == stacked_kernel_intersection(mats), (trial, mats)
        if found:
            for m in mats:
                assert all(is_zero_scalar(v) for v in mat_vec(m, witness))


def test_orbit_finite_exact():
    t = z_axis_rotation_tuple([F(1, 3), F(2, 3), F(0)])
    e1 = (F(1), F(0), F(0))
    rep = orbit(e1, t, cap=100)
    assert rep.finite and rep.size == 3
    e3 = (F(0), F(0), F(1))
    assert orbit(e3, t, cap=100).size == 1


def test_floating_tuples_are_refused():
    # a finite orbit, a shared fixed vector and w = I are closed conditions
    # that no float computation proves, so no floating tuple reaches orbit,
    # evaluate_word or invariant_split: none can be built or read
    t = z_axis_rotation_tuple([F(1, 4)], d=3)
    floats = [[[float(x) for x in row] for row in m] for m in t.matrices]
    with pytest.raises(ValueError, match="unknown mode 'floating'"):
        RotationTuple(3, floats, "floating")
    with pytest.raises(ValueError, match="floating tuples are not accepted here"):
        tuple_from_json({"mode": "floating", "dimension": 3, "matrices": floats})


def test_orbit_of_circle_tuples_dedups_rational_images():
    # the identity's image of the start point is a CycloNum tuple equal to it
    for q in (3, 4, 12):
        t = circle_rotation_tuple([Fraction(k, q) for k in range(q)])
        report = orbit((Fraction(1), Fraction(0)), t)
        assert report.finite and report.size == q


def test_orbit_cap_exceeded_random_pair():
    rng = random.Random(6)
    t = exact_tuple([cayley_rotation(random_skew_matrix(rng, 3)) for _ in range(2)])
    rep = orbit((F(1), F(0), F(0)), t, cap=200)
    assert not rep.finite
    assert rep.size > 200


def test_orbit_closure_verified():
    t = signed_permutation_tuple()
    rep = orbit((F(1), F(0), F(0)), t, cap=100)
    assert rep.finite and rep.size == 6  # the six signed basis vectors
    pts = set(rep.points)
    for m in t.matrices:
        for p in rep.points:
            assert tuple(mat_vec(m, list(p))) in pts


def test_enumerate_group_cube():
    g = enumerate_group(signed_permutation_tuple(), cap=100)
    assert g.complete and g.order == 24


def test_enumerate_group_half_turn():
    h = [[F(-1), F(0)], [F(0), F(-1)]]
    g = enumerate_group(exact_tuple([h]), cap=10)
    assert g.complete and g.order == 2


def test_enumerate_group_matches_the_matrix_closure_oracle():
    rng = random.Random(16)
    o, i = F(0), F(1)
    quarter = [[o, -i, o, o], [i, o, o, o], [o, o, i, o], [o, o, o, i]]
    cycle = [[o, -i, o, o], [o, o, i, o], [o, o, o, i], [i, o, o, o]]
    cases = [exact_tuple([quarter, cycle])]  # all 192 signed rotations of R^4
    for d in (2, 3, 4):
        rotations = signed_rotations(d)
        for _ in range(6):
            cases.append(exact_tuple([rng.choice(rotations)
                                      for _ in range(rng.choice((1, 2, 3)))]))
    for _ in range(4):
        cases.append(z_axis_rotation_tuple([F(rng.randrange(12), 12)
                                            for _ in range(rng.choice((1, 2)))]))
    cases.append(icosahedral_tuple())
    orders = set()
    for t in cases:
        d = t.dimension
        group = enumerate_group(t, cap=500)
        oracle = enumerate_group_by_matrices(t, cap=500)
        assert group.complete and group.order == len(oracle)
        orders.add(group.order)
        poly = orbit_polytope(group)
        columns = {tuple(s * row[j] for row in m)
                   for m in oracle for j in range(d) for s in (1, -1)}
        assert set(poly.vertices) == columns and len(poly.vertices) == len(columns)
        # the same breadth-first order: element k permutes the vertices as
        # the k-th oracle matrix moves them
        where = {v: j for j, v in enumerate(poly.vertices)}
        for perm, m in zip(group.elements, oracle):
            assert perm == tuple(where[tuple(mat_vec(m, list(v)))] for v in poly.vertices)
        counts = face_lattice(poly).counts
        if len(poly.vertices) <= 14:
            assert counts == face_lattice_by_brute_force(poly).counts, t.matrices
        else:  # the icosidodecahedron
            assert group.order == 60 and counts == [30, 60, 32]
    assert {192, 60} <= orders


def test_enumerate_group_refuses_floating_and_circle_tuples():
    # a floating tuple cannot be built (test_floating_tuples_are_refused)
    with pytest.raises(ValueError, match="exact or quad"):
        enumerate_group(circle_rotation_tuple([F(1, 3), F(2, 3)]))


def test_enumerate_group_cap_exceeded():
    rng = random.Random(8)
    t = exact_tuple([cayley_rotation(random_skew_matrix(rng, 3)) for _ in range(2)])
    g = enumerate_group(t, cap=50)
    assert not g.complete and g.order is None


def test_orbit_rejects_a_start_point_of_the_wrong_length():
    t = z_axis_rotation_tuple([F(1, 4), F(0)], d=3)
    for start in ((F(1), F(0)), (F(1), F(0), F(0), F(0))):
        with pytest.raises(ValueError, match=f"{len(start)} coordinates, the tuple "
                                             f"has dimension 3"):
            orbit(start, t)


def test_invariant_split_planar_orbit():
    t = z_axis_rotation_tuple([F(1, 3), F(2, 3), F(0)])
    rep = orbit((F(1), F(0), F(0)), t, cap=100)
    split = invariant_split(rep, t)
    assert split.span_dimension == 2
    assert len(split.complement_basis) == 1
    comp = split.complement_basis[0]
    assert comp[0] == 0 and comp[1] == 0 and comp[2] != 0
    for block in split.span_blocks:
        assert len(block) == 2 and len(block[0]) == 2
    for block in split.complement_blocks:
        assert len(block) == 1


def test_invariant_split_axis_orbit():
    t = z_axis_rotation_tuple([F(1, 3), F(2, 3), F(0)])
    rep = orbit((F(0), F(0), F(1)), t, cap=10)
    split = invariant_split(rep, t)
    assert split.span_dimension == 1
    assert len(split.complement_basis) == 2


def test_invariant_split_full_span():
    t = signed_permutation_tuple()
    rep = orbit((F(1), F(0), F(0)), t, cap=100)
    split = invariant_split(rep, t)
    assert split.span_dimension == 3
    assert split.complement_basis == []


def test_divide_finite_orbit_thirds():
    t = z_axis_rotation_tuple([F(1, 3), F(2, 3), F(0)])
    rep = orbit((F(1), F(0), F(0)), t, cap=100)
    division = divide_finite_orbit(rep, t)
    assert division is not None and len(division) == 1
    chosen = division[0]
    images = {tuple(mat_vec(m, list(chosen))) for m in t.matrices}
    assert images == set(rep.points)


def test_divide_finite_orbit_odd_for_two():
    t = z_axis_rotation_tuple([F(1, 3), F(0)])
    rep = orbit((F(1), F(0), F(0)), t, cap=100)
    assert divide_finite_orbit(rep, t) is None


def test_divide_fixed_point_orbit_fails_for_r2():
    t = z_axis_rotation_tuple([F(1, 3), F(0)])
    rep = orbit((F(0), F(0), F(1)), t, cap=10)
    assert divide_finite_orbit(rep, t) is None


def test_divide_finite_orbit_cube_pair_refuted():
    # the two cube generators chain the six signed basis vectors into an odd
    # cycle, so the exhaustive search correctly proves no division exists
    t = signed_permutation_tuple()
    rep = orbit((F(1), F(0), F(0)), t, cap=100)
    assert divide_finite_orbit(rep, t) is None


def test_divide_finite_orbit_hexagon():
    t = z_axis_rotation_tuple([F(1, 6), F(1, 2), F(5, 6)])
    rep = orbit((F(1), F(0), F(0)), t, cap=100)
    assert rep.finite and rep.size == 6
    division = divide_finite_orbit(rep, t)
    assert division is not None and len(division) == 2
    seen = []
    for a in division:
        for m in t.matrices:
            seen.append(tuple(mat_vec(m, list(a))))
    assert sorted(seen) == sorted(rep.points)


def test_divide_finite_orbit_matches_the_dfs_oracle():
    rng = random.Random(4)
    outcomes = set()
    for d in (2, 3, 4):
        rotations = signed_rotations(d)
        starts = [tuple(F(int(i == 0)) for i in range(d)),
                  tuple([F(3, 5), F(4, 5)] + [F(0)] * (d - 2))]
        for _ in range(8):
            t = exact_tuple([rng.choice(rotations) for _ in range(rng.choice((2, 3, 4)))])
            for start in starts:
                rep = orbit(start, t, cap=500)
                assert rep.finite
                got = divide_finite_orbit(rep, t)
                assert got == divide_orbit_by_dfs(rep, t), (d, start)
                outcomes.add(got is None)
    assert outcomes == {True, False}


def test_divide_never_chooses_a_row_with_a_repeated_point():
    # half turns about the z and y axes both send e1 to -e1 (and -e1 to e1),
    # so every candidate subset has overlapping translates
    rz = [[F(-1), F(0), F(0)], [F(0), F(-1), F(0)], [F(0), F(0), F(1)]]
    ry = [[F(-1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(-1)]]
    t = exact_tuple([rz, ry])
    rep = orbit((F(1), F(0), F(0)), t, cap=10)
    assert rep.size == 2
    assert divide_finite_orbit(rep, t) is None
    assert divide_orbit_by_dfs(rep, t) is None
    # cell 0 is covered first by the repeated row 0 unless it starts blocked
    assert exact_cover(4, [[0, 0], [1, 1], [0, 1], [2, 3]], 100) == [2, 3]


def test_reduced_words_counts():
    words = list(reduced_words(2, 3))
    assert len(words) == 4 + 12 + 36
    assert all(w.is_reduced for w in words)


def test_free_word_spot_check_cayley():
    rng = random.Random(10)
    t = exact_tuple([cayley_rotation(random_skew_matrix(rng, 3)) for _ in range(2)])
    ident = identity_matrix(3)
    for w in reduced_words(2, 6):
        assert evaluate_word(w, t) != ident, str(w)
