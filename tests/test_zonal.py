import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from spherediv.errors import BudgetExceeded
from spherediv.gegenbauer import evaluate, gegenbauer, harmonic_dimension
from spherediv.linalg import mat_vec
from spherediv.points import cayley_rotation, enumerate_points, random_skew_matrix
from spherediv.zonal import (build_zonal_bases, build_zonal_basis, clear_cache, dot,
                             gram_matrix, zonal_evaluate)
from oracles import greedy_basis_by_inverse, sphere_average_s2


def unit(d, i, sign=1):
    e = [Fraction(0)] * d
    e[i] = Fraction(sign)
    return tuple(e)


def test_zonal_evaluate_at_v_is_one():
    for d, n in ((2, 3), (3, 2), (4, 5)):
        v = enumerate_points(d, 5)[3]
        assert zonal_evaluate(d, n, v, v) == 1


def test_zonal_evaluate_antipode_parity():
    for n in range(5):
        v = (Fraction(3, 5), Fraction(4, 5), Fraction(0))
        minus = tuple(-c for c in v)
        assert zonal_evaluate(3, n, v, minus) == (-1) ** n


def test_zonal_degree_zero_constant():
    v = unit(3, 0)
    x = (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
    assert zonal_evaluate(3, 0, v, x) == 1


def test_gram_diagonal():
    pts = enumerate_points(3, 4)
    g = gram_matrix(3, 2, pts)
    nn = harmonic_dimension(3, 2)
    for i in range(4):
        assert g[i][i] == Fraction(1, nn)


def test_gram_single_point():
    g = gram_matrix(4, 3, [unit(4, 0)])
    assert g == [[Fraction(1, harmonic_dimension(4, 3))]]


def test_gram_orthonormal_points_degree_one():
    pts = [unit(3, 0), unit(3, 1), unit(3, 2)]
    g = gram_matrix(3, 1, pts)
    for i in range(3):
        for j in range(3):
            assert g[i][j] == (Fraction(1, 3) if i == j else 0)


def test_basis_sizes_and_positive_determinant():
    for d, n, expected in ((2, 1, 2), (3, 1, 3), (3, 2, 5)):
        b = build_zonal_basis(d, n)
        assert b.size == expected == harmonic_dimension(d, n)
        assert b.gram_det > 0


def test_basis_budget_failure_is_loud():
    pts = enumerate_points(3, 3)
    with pytest.raises(BudgetExceeded):
        build_zonal_basis(3, 2, points=pts)


def test_basis_gram_consistent():
    b = build_zonal_basis(3, 2)
    assert b.gram == gram_matrix(3, 2, b.points)


def test_basis_independent_of_candidate_order():
    # two different enumeration orders must agree about which degree
    # certificates are singular, for a shared set of test tuples
    from spherediv.linalg import det
    from spherediv.obstruction import l_matrix
    from spherediv.points import exact_tuple, identity_tuple, z_axis_rotation_tuple
    from spherediv.scalars import is_zero_scalar

    base = enumerate_points(3, 60)
    b1 = build_zonal_basis(3, 2, points=base)
    b2 = build_zonal_basis(3, 2, points=list(reversed(base)))
    assert b1.size == b2.size
    assert b1.gram_det > 0 and b2.gram_det > 0
    assert b1.points != b2.points
    rng = random.Random(18)
    tuples = [identity_tuple(3, 2),
              z_axis_rotation_tuple([Fraction(1, 3), Fraction(2, 3), Fraction(0)]),
              exact_tuple([cayley_rotation(random_skew_matrix(rng, 3))
                           for _ in range(2)])]
    for t in tuples:
        z1 = is_zero_scalar(det(l_matrix(3, 2, t, b1)))
        z2 = is_zero_scalar(det(l_matrix(3, 2, t, b2)))
        assert z1 == z2


@pytest.mark.parametrize("d,n", [(2, 3), (3, 1), (3, 2), (3, 5), (3, 8), (4, 2), (4, 5)])
def test_basis_matches_inverse_tracking_oracle(d, n):
    nn = harmonic_dimension(d, n)
    base = enumerate_points(d, 10 * nn)
    orders = [base, list(reversed(base))] if n <= 5 and d < 4 else [base]
    for cands in orders:
        b = build_zonal_basis(d, n, points=cands)
        points, gram, gram_det = greedy_basis_by_inverse(d, n, cands)
        assert b.points == points
        assert b.gram == gram
        assert b.gram_det == gram_det


# sha256 of the canonical JSON of every default basis up to default_n_max(d),
# first 16 hex digits; a change here changes the points `basis` prints and
# needs a new ENUMERATION_ORDER_VERSION (its `order_version`)
DEFAULT_BASIS_DIGESTS = {
    (2, 1): "6367836bad66b860", (2, 2): "83713eb69da4ecdf", (2, 3): "58d886e1f4e3c14a",
    (2, 4): "c56bde1418711908", (2, 5): "49574060a73814d4", (2, 6): "fc02ae5948edb7cc",
    (2, 7): "0fc114b8ce2132b4", (2, 8): "b9065589417dcce2",
    (3, 1): "0e9df1ede4f76a8d", (3, 2): "99ae6dab110a32d3", (3, 3): "9e0361a705dc45a8",
    (3, 4): "86780bea747b74cc", (3, 5): "a46807008fd2c5aa", (3, 6): "5796dea85c7394c2",
    (3, 7): "589968d3b09e47ad", (3, 8): "a58e532ba34f0569",
    (4, 1): "e40e64b78777e372", (4, 2): "eca2ff9f165a0444", (4, 3): "19d1973b21cb278e",
    (4, 4): "0c52898206fcae35", (4, 5): "e93e41291524e198",
    (5, 1): "15c13cf6aad8c4d1", (5, 2): "79aca9d1860e65b4", (5, 3): "cc4ecccc0090fc78",
}


def test_default_bases_unchanged():
    from spherediv.zonal import ENUMERATION_ORDER_VERSION

    assert ENUMERATION_ORDER_VERSION == 1
    clear_cache()
    for (d, n), want in DEFAULT_BASIS_DIGESTS.items():
        text = json.dumps(build_zonal_basis(d, n).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == want, (d, n)


@pytest.mark.parametrize("d,n_max", [(2, 8), (3, 8), (4, 5), (5, 3)])
def test_batch_bases_equal_single_degree_bases(d, n_max):
    from spherediv.obstruction import default_n_max

    assert n_max == default_n_max(d)
    want = []
    for n in range(1, n_max + 1):
        pts = enumerate_points(d, 10 * harmonic_dimension(d, n))
        want.append(build_zonal_basis(d, n, points=pts).to_json())
    clear_cache()
    assert [b.to_json() for b in build_zonal_bases(d, range(1, n_max + 1))] == want
    clear_cache()


def test_batch_builds_the_degrees_before_a_budget_failure():
    clear_cache()
    with pytest.raises(BudgetExceeded):
        build_zonal_bases(6, [1, 40])
    from spherediv.zonal import _cache

    assert (6, 1) in _cache and (6, 40) not in _cache
    clear_cache()


def test_cache_returns_same_object():
    clear_cache()
    assert build_zonal_basis(3, 1) is build_zonal_basis(3, 1)


def test_cache_dir_variable_has_no_effect(tmp_path, monkeypatch, capsys):
    # a sound but non-canonical d = 3, n = 1 basis file, named as the retired
    # disk cache named it: the printed det must still carry the enumeration's
    # det M_1, and the file must be neither read nor rewritten
    from spherediv.cli import main
    from spherediv.linalg import det_rational

    pts = [unit(3, 0), unit(3, 1), (Fraction(0), Fraction(3, 5), Fraction(4, 5))]
    gram = gram_matrix(3, 1, pts)
    planted = {"d": 3, "n": 1, "order_version": 1,
               "points": [[str(c) for c in p] for p in pts],
               "gram": [[str(c) for c in row] for row in gram],
               "gram_det": str(det_rational(gram))}
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "zonal-basis-d3-n1-v1.json").write_text(json.dumps(planted))
    before = {p.name: p.read_bytes() for p in cache.iterdir()}
    turn = {"mode": "exact", "dimension": 3, "matrices": [
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [["3/5", "-4/5", "0"], ["4/5", "3/5", "0"], ["0", "0", "1"]]]}
    path = tmp_path / "turn.json"
    path.write_text(json.dumps(turn))
    monkeypatch.setenv("SPHEREDIV_CACHE_DIR", str(cache))
    clear_cache()
    assert main(["obstruct", "--tuple", str(path), "--nmax", "1"]) == 0
    (degree,) = json.loads(capsys.readouterr().out)["report"]["degrees"]
    assert degree["det"] == "32/135"
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == before
    clear_cache()


def test_rotation_equivariance_exact():
    rng = random.Random(5)
    g = cayley_rotation(random_skew_matrix(rng, 3))
    v = (Fraction(3, 5), Fraction(0), Fraction(4, 5))
    x = (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
    gv = tuple(mat_vec(g, list(v)))
    gx = tuple(mat_vec(g, list(x)))
    for n in range(5):
        assert zonal_evaluate(3, n, gv, gx) == zonal_evaluate(3, n, v, x)


def test_funk_hecke_quadrature():
    rng = np.random.default_rng(0)
    for n in range(1, 5):
        nn = harmonic_dimension(3, n)
        poly = gegenbauer(3, n)
        for _ in range(3):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            estimate = sphere_average_s2(
                lambda x: float(evaluate(poly, float(u @ x)))
                * float(evaluate(poly, float(v @ x))))
            expected = float(evaluate(poly, float(u @ v))) / nn
            assert abs(estimate - expected) < 1e-6


def test_dot_mixed_scalars():
    from spherediv.scalars import QuadExt

    u = (QuadExt(0, 1, 3), QuadExt(1, 0, 3))
    v = (Fraction(1, 2), Fraction(2))
    assert dot(u, v) == QuadExt(2, Fraction(1, 2), 3)
