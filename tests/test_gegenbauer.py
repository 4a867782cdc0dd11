from fractions import Fraction

import pytest

from spherediv.gegenbauer import (RationalPolynomial, T_POLYNOMIAL, evaluate,
                                  gegenbauer, harmonic_dimension,
                                  normalized_moment, weighted_inner_product)
from oracles import gegenbauer_by_recurrence, gram_schmidt_gegenbauer


def test_degree_zero_is_one():
    for d in range(2, 7):
        assert gegenbauer(d, 0).coefficients == (Fraction(1),)


def test_degree_one_is_t():
    for d in range(2, 7):
        assert gegenbauer(d, 1) == T_POLYNOMIAL


def test_legendre_degree_two():
    assert gegenbauer(3, 2).coefficients == (Fraction(-1, 2), Fraction(0), Fraction(3, 2))


def test_chebyshev_degree_three():
    assert gegenbauer(2, 3).coefficients == (Fraction(0), Fraction(-3), Fraction(0), Fraction(4))


def test_recurrence_matches_gram_schmidt_oracle():
    for d in range(2, 7):
        for n in range(11):
            assert gegenbauer(d, n) == gram_schmidt_gegenbauer(d, n), (d, n)


def test_closed_form_matches_the_recurrence_oracle():
    for d in range(2, 8):
        for n in range(60):
            assert gegenbauer(d, n) == gegenbauer_by_recurrence(d, n), (d, n)


def test_exact_orthogonality():
    for d in (2, 3, 4, 5, 6):
        polys = [gegenbauer(d, n) for n in range(11)]
        for i in range(11):
            for j in range(i + 1, 11):
                assert weighted_inner_product(d, polys[i], polys[j]) == 0


def test_value_one_at_one():
    for d in range(2, 7):
        for n in range(11):
            assert evaluate(gegenbauer(d, n), Fraction(1)) == 1


def test_parity():
    for d in (2, 3, 4):
        for n in range(9):
            coeffs = gegenbauer(d, n).coefficients
            for k, c in enumerate(coeffs):
                if (k - n) % 2:
                    assert c == 0, (d, n, k)


def test_degree_is_exact():
    for d in (2, 3, 5):
        for n in range(9):
            p = gegenbauer(d, n)
            assert p.degree == n
            assert p.coefficients[-1] != 0


def test_harmonic_dimension_values():
    for d in range(2, 7):
        assert harmonic_dimension(d, 0) == 1
    for n in range(1, 12):
        assert harmonic_dimension(3, n) == 2 * n + 1
        assert harmonic_dimension(2, n) == 2
    assert harmonic_dimension(2, 4) == 2
    assert harmonic_dimension(4, 2) == 9


def test_moments():
    assert normalized_moment(3, 0) == 1
    assert normalized_moment(3, 1) == 0
    assert normalized_moment(3, 2) == Fraction(1, 3)
    assert normalized_moment(2, 2) == Fraction(1, 2)
    for d in (2, 3, 4):
        for k in range(0, 10, 2):
            assert normalized_moment(d, k + 2) == \
                normalized_moment(d, k) * Fraction(k + 1, k + d)


def test_inner_product_examples():
    one = RationalPolynomial((Fraction(1),))
    assert weighted_inner_product(4, one, T_POLYNOMIAL) == 0
    assert weighted_inner_product(3, T_POLYNOMIAL, T_POLYNOMIAL) == Fraction(1, 3)
    assert weighted_inner_product(3, gegenbauer(3, 1), gegenbauer(3, 2)) == 0


def test_inner_product_bilinear_symmetric():
    p = gegenbauer(3, 2)
    q = gegenbauer(3, 4)
    s = p + q.scale(Fraction(5, 7))
    assert weighted_inner_product(3, s, q) == \
        weighted_inner_product(3, p, q) + Fraction(5, 7) * weighted_inner_product(3, q, q)
    assert weighted_inner_product(3, p, q) == weighted_inner_product(3, q, p)


def test_evaluate_examples():
    assert evaluate(gegenbauer(3, 2), Fraction(0)) == Fraction(-1, 2)
    zero = RationalPolynomial(())
    assert evaluate(zero, Fraction(7, 3)) == 0
    assert evaluate(gegenbauer(2, 5), Fraction(1, 2)) == \
        gram_schmidt_gegenbauer(2, 5)(Fraction(1, 2))


def test_evaluate_is_horner_exact():
    p = gegenbauer(4, 6)
    t = Fraction(-3, 7)
    direct = sum(c * t ** k for k, c in enumerate(p.coefficients))
    assert evaluate(p, t) == direct


def test_json_round_trip():
    p = gegenbauer(3, 4)
    assert RationalPolynomial.from_json(p.to_json()) == p


def test_bad_arguments():
    with pytest.raises(ValueError):
        gegenbauer(1, 2)
    with pytest.raises(ValueError):
        gegenbauer(3, -1)
    with pytest.raises(ValueError):
        harmonic_dimension(3, -2)
