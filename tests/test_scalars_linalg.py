import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spherediv.cyclotomic import CycloNum, unit_vectors_sum_is_zero
from spherediv.linalg import (det, inverse, kernel_vector, mat_mul, mat_vec,
                              nullspace, rank, rref, solve)
from spherediv.scalars import QuadExt, is_zero_scalar, scalar_to_float
from oracles import det_bareiss, det_cofactor


def test_quadext_field_ops():
    a = QuadExt(1, 2, 3)          # 1 + 2 sqrt(3)
    b = QuadExt(Fraction(1, 2), -1, 3)
    assert (a * b).a == Fraction(1, 2) - 6
    assert (a + b) - b == a
    assert (a / b) * b == a
    assert (1 / a) * a == QuadExt(1, 0, 3)
    assert a - a == 0


def test_quadext_sign():
    assert QuadExt(1, 2, 3).sign() == 1
    assert QuadExt(-1, -2, 3).sign() == -1
    assert QuadExt(-3, 2, 3).sign() > 0      # 2 sqrt(3) = 3.46 > 3
    assert QuadExt(-4, 2, 3).sign() < 0
    assert QuadExt(3, -2, 3).sign() < 0
    assert QuadExt(0, 0, 3).sign() == 0
    assert QuadExt(2, -1, 3) > 0
    assert QuadExt(1, 0, 2) == 1
    assert hash(QuadExt(5, 0, 7)) == hash(Fraction(5))


def test_quadext_rejects_square_d():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 4)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 3) + QuadExt(1, 1, 2)


def test_cyclo_basics():
    z = CycloNum.root(8, 1)
    assert (z * z * z * z) == -1
    assert (z * z.conjugate()) == 1
    i = CycloNum.root(8, 2)
    assert (i * i) == -1
    total = sum((CycloNum.root(5, k) for k in range(5)), CycloNum(5))
    assert total.is_zero()
    assert not (CycloNum.root(5, 1) + CycloNum.root(5, 2)).is_zero()


def test_cyclo_float_value():
    import math

    c = (CycloNum.root(12, 1) + CycloNum.root(12, -1)) * Fraction(1, 2)
    assert abs(float(c) - math.cos(math.pi / 6)) < 1e-12


def test_cyclo_hash_agrees_with_equal_rationals():
    half = CycloNum.from_rational(8, Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    # a rational value written with non-trivial roots: 1 + z^4 + z^8 = 0 in
    # order 12, so this is 2 - 0 = 2
    two = CycloNum(12, {0: 3, 4: 1, 8: 1})
    assert two == 2 and hash(two) == hash(2)
    assert hash(CycloNum(5)) == hash(0)
    assert {half: 1}.get(Fraction(1, 2)) == 1
    assert hash(CycloNum.root(8, 1)) == hash(CycloNum(8, {1: 1, 9: 0}))


def test_unit_vector_sums():
    assert unit_vectors_sum_is_zero([Fraction(0), Fraction(1, 2)])
    assert unit_vectors_sum_is_zero([Fraction(0), Fraction(1, 3), Fraction(2, 3)])
    assert unit_vectors_sum_is_zero([Fraction(k, 7) for k in range(7)])
    assert not unit_vectors_sum_is_zero([Fraction(0), Fraction(1, 3)])
    assert not unit_vectors_sum_is_zero([Fraction(1, 12)])
    # two antipodal pairs
    assert unit_vectors_sum_is_zero([Fraction(1, 8), Fraction(5, 8),
                                     Fraction(1, 3), Fraction(5, 6)])


@st.composite
def sparse_cyclo_terms(draw):
    """(order, terms): up to nine terms at an order with a prime-power
    factor, part of them whole regular m-gons (which vanish) and part random
    exponents with small coefficients."""
    order = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12])) \
        * draw(st.sampled_from([2, 3, 5, 7, 11, 13, 101])) ** draw(st.integers(1, 2))
    terms, size = [], draw(st.integers(0, 6))
    while len(terms) < size:
        m = draw(st.sampled_from([m for m in (2, 3, 4) if order % m == 0] or [1]))
        base = draw(st.integers(0, order - 1))
        c = Fraction(draw(st.sampled_from([-2, -1, 1, 3])))
        if m > 1 and draw(st.booleans()):
            terms += [(base + j * order // m, c) for j in range(m)]
        else:
            terms.append((base, c))
    return order, terms


@settings(max_examples=300, deadline=None)
@given(case=sparse_cyclo_terms())
def test_cyclo_zero_test_split_matches_canonical_form(case):
    order, terms = case
    assert CycloNum(order, terms).is_zero() == (not CycloNum(order, terms).canonical())


def test_det_and_inverse_exact():
    rng = random.Random(11)
    for n in (2, 3, 4):
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        d = det(m)
        assert det_cofactor(m) == d
        if d != 0:
            inv = inverse(m)
            prod = mat_mul(m, inv)
            assert all(prod[i][j] == (1 if i == j else 0)
                       for i in range(n) for j in range(n))


def test_det_refuses_roots_of_unity():
    z = CycloNum.root(4, 1)
    with pytest.raises(TypeError):
        det([[z, z], [z, z]])


def test_det_quadext():
    a = QuadExt(0, 1, 2)  # sqrt 2
    m = [[a, QuadExt(1, 0, 2)], [QuadExt(1, 0, 2), a]]
    assert det(m) == QuadExt(1, 0, 2)  # 2 - 1


def test_rank_nullspace_solve():
    m = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(6)],
         [Fraction(0), Fraction(1), Fraction(1)]]
    assert rank(m) == 2
    ns = nullspace(m)
    assert len(ns) == 1
    assert all(is_zero_scalar(x) for x in mat_vec(m, ns[0]))
    kv = kernel_vector(m)
    assert kv == ns[0]
    b = mat_vec(m, [Fraction(1), Fraction(1), Fraction(1)])
    x = solve(m, b)
    assert mat_vec(m, x) == b
    assert solve([[Fraction(1)], [Fraction(1)]], [Fraction(0), Fraction(1)]) is None


def test_rref_pivots():
    m = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(0)]]
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert red == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_scalar_to_float():
    assert scalar_to_float(Fraction(1, 4)) == 0.25
    assert abs(scalar_to_float(QuadExt(0, 1, 2)) - 2 ** 0.5) < 1e-12
    with pytest.raises(ValueError):
        scalar_to_float(CycloNum.root(8, 1))  # genuinely complex


# -- det against the object-level Bareiss oracle ---------------------------------

_small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
# zero is drawn often so that pivots vanish and force row swaps
_rationals = st.one_of(st.just(Fraction(0)), _small_fractions)


def _quad_entries(dd: int, mixed: bool):
    quad = st.builds(QuadExt, _rationals, _rationals, st.just(dd))
    return st.one_of(quad, _rationals) if mixed else quad


@st.composite
def _matrices(draw):
    kind = draw(st.sampled_from(["fraction", "quad", "mixed"]))
    dd = draw(st.sampled_from([2, 3, 5]))
    entries = _rationals if kind == "fraction" else _quad_entries(dd, kind == "mixed")
    n = draw(st.integers(1, 5))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["free", "zero_pivot", "singular"]))
    if shape == "zero_pivot":
        for i in range(n - 1):  # the first column is zero down to the last row
            m[i][0] = Fraction(0)
    elif shape == "singular" and n > 1:
        c = draw(_small_fractions)
        m[-1] = [c * x for x in m[0]]
    return kind, m


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_det_matches_oracle_bareiss(case):
    kind, m = case
    got = det(m)
    want = det_bareiss(m)
    assert got == want
    if kind == "fraction":
        assert isinstance(got, Fraction) and str(got) == str(want)
    if kind == "quad":
        assert isinstance(got, QuadExt) and str(got) == str(want)


def test_det_rejects_mixed_fields():
    with pytest.raises(ValueError):
        det([[QuadExt(0, 1, 2), Fraction(0)], [Fraction(0), QuadExt(0, 1, 3)]])
