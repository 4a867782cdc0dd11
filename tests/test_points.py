import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from spherediv.errors import BudgetExceeded
from spherediv.gegenbauer import harmonic_dimension
from spherediv.linalg import det, mat_mul, transpose
from spherediv.obstruction import default_n_max
from spherediv.points import (RotationTuple, approximate_point, cayley_rotation,
                              circle_rotation_tuple, enumerate_points,
                              exact_tuple, identity_tuple, is_unit_point,
                              parameter_height, point_height, random_skew_matrix,
                              validate_tuple, z_axis_rotation_tuple)
from spherediv.scalars import QuadExt
from spherediv.serialize import format_fraction, tuple_from_json, tuple_to_json
from oracles import enumerate_points_by_pool


def test_signed_basis_comes_first():
    for d in (2, 3, 4):
        pts = enumerate_points(d, 2 * d + 3)
        head = set(pts[:2 * d])
        expected = set()
        for i in range(d):
            for s in (1, -1):
                e = [Fraction(0)] * d
                e[i] = Fraction(s)
                expected.add(tuple(e))
        assert head == expected


def test_pythagorean_point_present():
    pts = enumerate_points(2, 12)
    assert (Fraction(3, 5), Fraction(4, 5)) in set(pts)


def test_points_are_unit_and_distinct():
    pts = enumerate_points(3, 50)
    assert len(set(pts)) == 50
    for p in pts:
        assert is_unit_point(p)


def test_ordered_by_height():
    pts = enumerate_points(3, 40)
    heights = [point_height(p) for p in pts]
    assert heights == sorted(heights)


def test_deterministic():
    assert enumerate_points(4, 30) == enumerate_points(4, 30)


def test_dimension_one():
    assert set(enumerate_points(1, 2)) == {(Fraction(1),), (Fraction(-1),)}
    with pytest.raises(BudgetExceeded):
        enumerate_points(1, 3)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_enumerate_points_matches_pool_oracle(d):
    if d == 1:
        counts = [1, 2]
    else:
        # plus the candidate counts build_zonal_basis asks for
        counts = list(range(1, 60)) + [100, 200, 333] + [
            10 * harmonic_dimension(d, n) for n in range(1, default_n_max(d) + 1)]
    for count in counts:
        assert enumerate_points(d, count) == enumerate_points_by_pool(d, count), count


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_counts_of_one_parameter_height_give_prefixes(d):
    counts = sorted(set(range(1, 40)) | {10 * harmonic_dimension(d, n)
                                         for n in range(1, default_n_max(d) + 1)})
    by_height = {}
    for count in counts:
        by_height.setdefault(parameter_height(d, count), []).append(count)
    assert len(by_height) > 1
    for group in by_height.values():
        longest = enumerate_points(d, group[-1])
        for count in group:
            assert enumerate_points(d, count) == longest[:count], count


def test_parameter_height_budget():
    with pytest.raises(BudgetExceeded):
        parameter_height(6, 10 ** 6)
    with pytest.raises(ValueError):
        parameter_height(1, 2)


def test_approximate_axis_is_exact():
    p = approximate_point(3, [1.0, 0.0, 0.0], 1e-12)
    assert p == (Fraction(1), Fraction(0), Fraction(0))


def test_approximate_diagonal():
    target = [1 / math.sqrt(2), 1 / math.sqrt(2)]
    p = approximate_point(2, target, 1e-3)
    assert is_unit_point(p)
    dist = math.sqrt(sum((float(a) - b) ** 2 for a, b in zip(p, target)))
    assert dist <= 1e-3


def test_approximate_near_north_pole():
    target = [0.0, 0.0, 1.0]
    assert approximate_point(3, target, 1e-9) == \
        (Fraction(0), Fraction(0), Fraction(1))
    target = [1e-4, 0.0, math.sqrt(1 - 1e-8)]
    p = approximate_point(3, target, 1e-3)
    assert is_unit_point(p)


def test_approximate_budget_error():
    target = [1 / math.sqrt(2), 1 / math.sqrt(2)]
    with pytest.raises(BudgetExceeded):
        approximate_point(2, target, 1e-30, max_denominator=10 ** 4)


def test_approximate_rejects_off_sphere():
    with pytest.raises(ValueError):
        approximate_point(2, [1.5, 0.0], 1e-3)


def test_cayley_zero_is_identity():
    s = [[Fraction(0)] * 3 for _ in range(3)]
    assert cayley_rotation(s) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_cayley_quarter_turn():
    s = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    assert cayley_rotation(s) == [[Fraction(0), Fraction(-1)],
                                  [Fraction(1), Fraction(0)]]


def test_cayley_random_orthogonal_det_one():
    rng = random.Random(7)
    for d in (2, 3, 4):
        for _ in range(100):
            m = cayley_rotation(random_skew_matrix(rng, d))
            assert det(m) == 1
            gram = mat_mul(transpose(m), m)
            for i in range(d):
                for j in range(d):
                    assert gram[i][j] == (1 if i == j else 0)


def test_cayley_rejects_non_skew():
    with pytest.raises(ValueError):
        cayley_rotation([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])


def test_validate_identity_and_cayley():
    assert validate_tuple(identity_tuple(3, 2)) is None
    rng = random.Random(3)
    t = exact_tuple([cayley_rotation(random_skew_matrix(rng, 3)) for _ in range(2)])
    assert validate_tuple(t) is None


def test_validate_flags_scaled_row():
    m = [[Fraction(1001, 1000), Fraction(0)], [Fraction(0), Fraction(1)]]
    with pytest.raises(ValueError) as info:
        RotationTuple(2, [identity_tuple(2, 1).matrices[0], m])
    assert str(info.value) == ("invalid rotation tuple: matrix 1: rows not exactly "
                               "orthonormal (entry 0,0); matrix 1: determinant is not "
                               "exactly 1")


def test_a_floating_rotation_is_no_tuple():
    # float matrices get no tuple: not as a mode, and not from a tuple file
    a = 0.3
    m = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    with pytest.raises(ValueError, match="invalid rotation tuple: unknown mode 'floating'"):
        RotationTuple(2, [m], "floating")
    with pytest.raises(ValueError, match="floating tuples are not accepted here"):
        tuple_from_json({"mode": "floating", "dimension": 2, "matrices": [m]})


def test_circle_tuple_exact():
    t = circle_rotation_tuple([Fraction(1, 3), Fraction(2, 3), Fraction(0)])
    assert t.mode == "circle" and t.dimension == 2
    assert validate_tuple(t) is None
    with pytest.raises(ValueError, match="circle tuple: matrices do not match its turns"):
        RotationTuple(2, t.matrices, "circle", turns=t.turns[:2])


def test_z_axis_tuple_quad():
    t = z_axis_rotation_tuple([Fraction(1, 3), Fraction(2, 3), Fraction(0)])
    assert t.mode == "quad" and t.sqrt_d == 3
    assert validate_tuple(t) is None
    q = z_axis_rotation_tuple([Fraction(1, 4), Fraction(1, 2)])
    assert q.mode == "exact"
    assert validate_tuple(q) is None


@st.composite
def valid_tuples(draw):
    """Exact Cayley tuples in d = 2..5, or z-axis tuples over Q(sqrt 2) or
    Q(sqrt 3) (quad, or exact when every turn is a multiple of 1/4)."""
    if draw(st.booleans()):
        d = draw(st.integers(2, 5))
        skews = []
        for _ in range(draw(st.integers(1, 3))):
            s = [[Fraction(0)] * d for _ in range(d)]
            for i in range(d):
                for j in range(i + 1, d):
                    v = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7)))
                    s[i][j], s[j][i] = v, -v
            skews.append(s)
        return exact_tuple([cayley_rotation(s) for s in skews])
    q = draw(st.sampled_from([8, 12]))
    turns = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
    return z_axis_rotation_tuple([Fraction(k, q) for k in turns], draw(st.integers(2, 5)))


@seed(2028)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=valid_tuples(), data=st.data())
def test_tuples_are_valid_by_construction(t, data):
    # valid matrices construct, directly and from their wire form
    again = RotationTuple(t.dimension, t.matrices, t.mode, t.sqrt_d)
    assert tuple_to_json(tuple_from_json(tuple_to_json(again))) == tuple_to_json(t)
    # one changed entry makes the matrix invalid (a rotation that differs from
    # another in one entry has that entry negated and determinant -1), and
    # both ways of building the tuple name the matrix
    k = data.draw(st.integers(0, t.r - 1))
    i, j = data.draw(st.integers(0, t.dimension - 1)), data.draw(st.integers(0, t.dimension - 1))
    delta = Fraction(data.draw(st.sampled_from([-1, 1])), data.draw(st.integers(1, 9)))
    mats = [[list(row) for row in m] for m in t.matrices]
    x = mats[k][i][j]
    irrational = isinstance(x, QuadExt) and data.draw(st.booleans())
    mats[k][i][j] = x + (QuadExt(0, delta, x.d) if irrational else delta)
    entry = mats[k][i][j]
    wire = tuple_to_json(t)
    wire["matrices"][k][i][j] = ([format_fraction(entry.a), format_fraction(entry.b)]
                                 if t.mode == "quad" else format_fraction(entry))
    expected = rf"^invalid rotation tuple: matrix {k}: "
    with pytest.raises(ValueError, match=expected):
        RotationTuple(t.dimension, mats, t.mode, t.sqrt_d)
    with pytest.raises(ValueError, match=expected):
        tuple_from_json(wire)


def test_z_axis_rejects_mixed_fields():
    with pytest.raises(ValueError):
        z_axis_rotation_tuple([Fraction(1, 3), Fraction(1, 8)])
    with pytest.raises(ValueError):
        z_axis_rotation_tuple([Fraction(1, 5)])
