import dataclasses
import hashlib
import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from spherediv.circle import Angle, necessary_degrees
from spherediv.gegenbauer import evaluate, gegenbauer
from spherediv import linalg
from spherediv.linalg import det
from spherediv.obstruction import (PI_HALF_UPPER, SQRT_SCALE, WITNESS_RESIDUAL_TOL,
                                   WITNESS_SAMPLE_COUNT, _sqrt_upper,
                                   _validate_witness, certify_degrees,
                                   circle_det, default_n_max, extract_witness,
                                   l_matrix, near_identity_certificate, pair_det)
from spherediv.points import (cayley_rotation, circle_rotation_tuple,
                              exact_tuple, floating_tuple, identity_tuple,
                              random_skew_matrix, z_axis_rotation_tuple)
from spherediv.scalars import QuadExt, is_zero_scalar, scalar_to_float
from spherediv.serialize import tuple_from_json
from spherediv.synthesis import complete_rows, draw_upper_entries
from spherediv.zonal import build_zonal_basis
from oracles import (det_cofactor, l_matrix_by_evaluate, witness_residual_by_sample,
                     witness_value_by_point)


def test_l_matrix_identity_law():
    for d in (2, 3):
        for n in range(1, 7):
            basis = build_zonal_basis(d, n)
            for r in (2, 3):
                t = identity_tuple(d, r)
                lm = l_matrix(d, n, t, basis)
                assert det(lm) == Fraction(r) ** basis.size * basis.gram_det
                assert det(lm) != 0


def test_l_matrix_single_identity_is_gram():
    basis = build_zonal_basis(3, 2)
    lm = l_matrix(3, 2, identity_tuple(3, 1), basis)
    assert lm == basis.gram


def test_certify_identity_all_obstructed():
    report = certify_degrees(identity_tuple(3, 2), n_max=6)
    assert not report.witness_degrees
    assert [c.n for c in report.degrees] == list(range(1, 7))
    assert all(c.status == "obstructed" for c in report.degrees)
    assert "no non-constant fractional division supported in degrees 1..6" \
        in report.disclaimer


def test_certify_z_axis_thirds_has_witnesses():
    t = z_axis_rotation_tuple([Fraction(1, 3), Fraction(2, 3), Fraction(0)])
    report = certify_degrees(t, n_max=3)
    assert 3 in report.witness_degrees
    assert "witness" in report.disclaimer


def test_certify_random_cayley_obstructed():
    rng = random.Random(1)
    t = exact_tuple([cayley_rotation(random_skew_matrix(rng, 2)) for _ in range(2)])
    report = certify_degrees(t, n_max=8)
    assert not report.witness_degrees


def test_certify_rejects_invalid_tuple():
    bad = floating_tuple([[[1.001, 0.0], [0.0, 1.0]]])
    with pytest.raises(ValueError):
        certify_degrees(bad, n_max=2)


def test_certify_refuses_floating_tuples():
    with pytest.raises(ValueError, match="not a floating one"):
        certify_degrees(floating_tuple([[[1.0, 0.0], [0.0, 1.0]]]), n_max=2)


def test_default_n_max():
    assert default_n_max(2) == 8
    assert default_n_max(3) == 8
    assert default_n_max(4) == 5
    assert default_n_max(6) == 3


def test_witness_half_turn_matches_cosine():
    t = circle_rotation_tuple([Fraction(1, 2), Fraction(0)])
    w = extract_witness(t, 1)
    assert w.max_residual <= 1e-9
    # the height-ordered basis starts with (-1, 0) then (0, -1); the canonical
    # kernel vector keeps only the first coordinate, so the degree-1 part of f
    # is -cos(t): proportional to the cos(t)/2 of the reference witness
    assert w.points[0] == (Fraction(-1), Fraction(0))
    assert not w.coefficients[0].is_zero()
    assert w.coefficients[1].is_zero()
    for ang in (0.3, 1.2, 2.5):
        x = (np.cos(ang), np.sin(ang))
        got = w.evaluate_fraction(x)
        assert abs(got - (0.5 - np.cos(ang))) < 1e-12


def test_witness_thirds_circle():
    # on the circle the three third-turns admit witnesses exactly at the
    # frequencies not divisible by 3 (degree 3 itself is obstructed: the
    # rotated cosines coincide there, so they sum to 3, not 0)
    t = circle_rotation_tuple([Fraction(1, 3), Fraction(2, 3), Fraction(0)])
    report = certify_degrees(t, n_max=6)
    assert report.witness_degrees == [1, 2, 4, 5]
    for n in (1, 2):
        w = extract_witness(t, n)
        assert w.max_residual <= 1e-9
        assert any(not c.is_zero() for c in w.coefficients)
    with pytest.raises(ValueError):
        extract_witness(t, 3)


def test_witness_quad_mode():
    # in dimension 3 the degree-3 harmonics contain azimuthal frequencies
    # 1 and 2, which do cancel under the three third-turns about the axis
    t = z_axis_rotation_tuple([Fraction(1, 3), Fraction(2, 3), Fraction(0)])
    w = extract_witness(t, 3)
    assert w.max_residual <= 1e-9


WITNESS_CASES = [
    ("quad r=3", z_axis_rotation_tuple([Fraction(1, 3), Fraction(2, 3), Fraction(0)]), 3),
    ("quad r=5", z_axis_rotation_tuple([Fraction(0), Fraction(1, 3), Fraction(2, 3),
                                        Fraction(1, 4), Fraction(3, 4)]), 2),
    ("exact r=4", z_axis_rotation_tuple([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                                         Fraction(0)]), 1),
    ("exact d=4", z_axis_rotation_tuple([Fraction(1, 2), Fraction(0)], d=4), 2),
    ("circle r=3", circle_rotation_tuple([Fraction(1, 3), Fraction(2, 3), Fraction(0)]), 2),
    ("circle r=5", circle_rotation_tuple([Fraction(k, 5) for k in range(5)]), 1),
]


# the quad and d = 4 witnesses put weight on basis points with three or more
# nonzero coordinates, where a reordered dot product changes the rounding
@pytest.mark.parametrize("name,t,n", WITNESS_CASES, ids=[c[0] for c in WITNESS_CASES])
def test_validate_witness_matches_per_sample_oracle(name, t, n):
    w = extract_witness(t, n)
    assert w.max_residual == witness_residual_by_sample(t, w, WITNESS_SAMPLE_COUNT, 0)
    assert _validate_witness(t, w, 300, 7) == witness_residual_by_sample(t, w, 300, 7)
    xs = np.random.default_rng(3).normal(size=(200, t.dimension))
    assert w.evaluate_many(xs).tolist() == [witness_value_by_point(w, x) for x in xs]


def _annihilated(t, n, j) -> bool:
    """Does the tuple sum kill the zonal function of basis point j (column j
    of L is zero)?"""
    lm = l_matrix(t.dimension, n, t, build_zonal_basis(t.dimension, n))
    return all(is_zero_scalar(row[j]) for row in lm)


def test_validation_fails_for_a_perturbed_coefficient():
    t = z_axis_rotation_tuple([Fraction(1, 3), Fraction(2, 3), Fraction(0)])
    w = extract_witness(t, 2)
    j = next(j for j in range(len(w.points)) if not _annihilated(t, 2, j))
    coeffs = list(w.coefficients)
    coeffs[j] = coeffs[j] + Fraction(1, 10 ** 6)
    bad = dataclasses.replace(w, coefficients=coeffs)
    assert _validate_witness(t, bad, WITNESS_SAMPLE_COUNT, 0) > WITNESS_RESIDUAL_TOL


def test_extract_witness_rejects_a_wrong_kernel_vector(monkeypatch):
    t = z_axis_rotation_tuple([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(0)])
    j = next(j for j in range(3) if not _annihilated(t, 1, j))
    real = linalg.kernel_vector

    def wrong(m):
        v = real(m)
        v[j] = v[j] + 1
        return v

    monkeypatch.setattr(linalg, "kernel_vector", wrong)
    with pytest.raises(ArithmeticError):
        extract_witness(t, 1)


def test_witness_refused_when_obstructed():
    with pytest.raises(ValueError, match="degree 2 is obstructed: det L != 0"):
        extract_witness(identity_tuple(2, 2), 2)


def test_witness_requires_exact_mode():
    t = floating_tuple([[[-1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(ValueError):
        extract_witness(t, 1)


def test_obstructed_degrees_reject_near_kernels():
    # exact-mode soundness: at an obstructed degree no coefficient vector has
    # a tiny image; sample random normalized vectors and check the residual
    rng = np.random.default_rng(2)
    t = identity_tuple(2, 2)
    basis = build_zonal_basis(2, 3)
    pts = [np.array([float(c) for c in p]) for p in basis.points]
    poly = gegenbauer(2, 3)
    inv = [np.array([[scalar_to_float(x) for x in row]
                     for row in t.inverse_matrix(i)]) for i in range(t.r)]
    xs = rng.normal(size=(200, 2))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    for _ in range(10):
        c = rng.normal(size=basis.size)
        c /= np.max(np.abs(c))
        worst = 0.0
        for x in xs:
            val = sum(c[j] * sum(float(evaluate(poly, float(v @ (m @ x))))
                                 for m in inv) for j, v in enumerate(pts))
            worst = max(worst, abs(val))
        assert worst > 1e-6


def test_d2_cross_validation_sample():
    rng = random.Random(9)
    for _ in range(6):
        r = rng.choice([2, 3, 4])
        turns = []
        for _ in range(r):
            q = rng.randint(1, 12)
            turns.append(Fraction(rng.randrange(q), q))
        ct = circle_rotation_tuple(turns)
        report = certify_degrees(ct, n_max=8)
        assert set(report.witness_degrees) == \
            necessary_degrees([Angle(t) for t in turns], 8)


@pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3, 4) for n in range(1, 6)])
def test_l_matrix_matches_termwise_evaluation(d, n):
    rng = random.Random(100 * d + n)
    basis = build_zonal_basis(d, n)
    tuples = [exact_tuple([cayley_rotation(random_skew_matrix(rng, d))
                           for _ in range(2 if d == 4 else rng.choice((1, 2, 3)))])]
    quad_turns = {2: [], 3: [["1/3", "2/3", "0"], ["1/12", "5/12"], ["1/8", "3/8"],
                             ["1/6", "1/2"]],
                  4: [["1/12", "5/12"]]}[d]  # the termwise oracle is slow at d = 4
    for turns in quad_turns:
        tuples.append(z_axis_rotation_tuple([Fraction(x) for x in turns], d))
    for t in tuples:
        got = l_matrix(d, n, t, basis)
        want = l_matrix_by_evaluate(d, n, t, basis.points)
        assert got == want
        assert [[type(x) for x in row] for row in got] == \
            [[type(x) for x in row] for row in want]
        assert [[str(x) for x in row] for row in got] == \
            [[str(x) for x in row] for row in want]


def _circle_cases():
    """Every (t, 0) with a denominator of t up to 12, and 60 seeded tuples of
    3 to 5 turns with denominators up to 12."""
    cases = sorted({(Fraction(k, q), Fraction(0)) for q in range(1, 13) for k in range(q)})
    rng = random.Random(2024)
    for _ in range(60):
        turns = []
        for _ in range(rng.randint(3, 5)):
            q = rng.randint(1, 12)
            turns.append(Fraction(rng.randrange(q), q))
        cases.append(tuple(turns))
    return cases


def test_circle_det_is_the_determinant_of_l():
    bases = {n: build_zonal_basis(2, n) for n in range(1, 9)}
    for turns in _circle_cases():
        t = circle_rotation_tuple(turns)
        zeros = set()
        for n, basis in bases.items():
            got = circle_det(t, n, basis)
            assert got == det_cofactor(l_matrix_by_evaluate(2, n, t, basis.points))
            if got.is_zero():
                zeros.add(n)
        assert zeros == necessary_degrees([Angle(x) for x in turns], 8)


def test_circle_certificate_prints_zero_at_witness_degrees():
    t = circle_rotation_tuple([Fraction(1, 3), Fraction(2, 3), Fraction(0)])
    degrees = certify_degrees(t, n_max=3).degrees
    assert [(c.det_value, c.det_float) for c in degrees[:2]] == [("0", 0.0), ("0", 0.0)]
    # degree 3: lambda_3 = 3 and det M_3 = 1/4
    assert (degrees[2].det_value, degrees[2].det_float) == ("CycloNum(12, 9/4*z^0)", 2.25)


def test_l_matrix_refuses_circle_tuples():
    t = circle_rotation_tuple([Fraction(1, 2), Fraction(0)])
    with pytest.raises(ValueError):
        l_matrix(2, 1, t, build_zonal_basis(2, 1))


def _assert_pair_det_is_det_l(t, n_max):
    for n in range(1, n_max + 1):
        basis = build_zonal_basis(t.dimension, n)
        want = det(l_matrix(t.dimension, n, t, basis))
        got = pair_det(t, n, basis)
        assert (str(got), type(got)) == (str(want), type(want)), n
        assert scalar_to_float(got) == scalar_to_float(want), n


@pytest.mark.parametrize("d,n_max", [(3, 6), (4, 4)])
def test_pair_det_matches_det_l_on_cayley_pairs(d, n_max):
    rng = random.Random(23 + d)
    for _ in range(3 if d == 3 else 2):
        t = exact_tuple([cayley_rotation(random_skew_matrix(rng, d)) for _ in range(2)])
        _assert_pair_det_is_det_l(t, n_max)


def _block(c, s):
    return [[c, -s], [s, c]]


def _so4(first, second):
    """The rotation acting by the 2 x 2 blocks first and second on the planes
    (x1, x2) and (x3, x4)."""
    zero = first[0][0] - first[0][0]
    return [first[0] + [zero, zero], first[1] + [zero, zero],
            [zero, zero] + second[0], [zero, zero] + second[1]]


def test_pair_det_matches_det_l_on_special_pairs():
    f = Fraction
    g = cayley_rotation(random_skew_matrix(random.Random(5), 4))
    quarter = _block(f(0), f(1))
    pythagorean = _so4(_block(f(3, 5), f(4, 5)), _block(f(5, 13), f(-12, 13)))
    half_turn = z_axis_rotation_tuple([f(1, 2), f(0)])
    quad_one = linalg.identity_matrix(4, like=QuadExt(1, 0, 3))
    # a sixth turn in one plane of R^4 and a quarter turn in the other
    quad_both = _so4(_block(QuadExt(f(1, 2), 0, 3), QuadExt(0, f(1, 2), 3)),
                     _block(QuadExt(0, 0, 3), QuadExt(1, 0, 3)))
    cases = [
        (z_axis_rotation_tuple([f(1, 12), f(5, 12)]), 5),
        (z_axis_rotation_tuple([f(1, 6), f(2, 3)]), 5),
        (z_axis_rotation_tuple([f(1, 12), f(1, 3)], d=4), 3),
        (tuple_from_json({"mode": "quad", "dimension": 4, "sqrt": 3, "matrices": [
            [[[str(x.a), str(x.b)] for x in row] for row in m]
            for m in (quad_one, quad_both)]}), 3),
        (exact_tuple([g, g]), 4),
        (half_turn, 5),
        (exact_tuple([g, linalg.mat_mul(g, _so4(_block(f(-1), f(0)), _block(f(1), f(0))))]), 3),
        # -I, and isoclinic quarter turns (equal angles: a double root)
        (exact_tuple([linalg.identity_matrix(4),
                      [[f(-int(i == j)) for j in range(4)] for i in range(4)]]), 4),
        (exact_tuple([g, linalg.mat_mul(g, _so4(quarter, quarter))]), 4),
        (exact_tuple([pythagorean, linalg.mat_mul(pythagorean, _so4(quarter, quarter))]), 3),
        # Pythagorean blocks with distinct angles
        (exact_tuple([linalg.identity_matrix(4), pythagorean]), 4),
        (exact_tuple([g, linalg.mat_mul(g, pythagorean)]), 3),
    ]
    assert cases[3][0].mode == "quad"
    for t, n_max in cases:
        _assert_pair_det_is_det_l(t, n_max)
    # a half turn cancels every degree; g_1 = g_2 gives det(2I) = 2^N_n
    assert certify_degrees(half_turn, n_max=5).witness_degrees == [1, 2, 3, 4, 5]
    basis = build_zonal_basis(4, 2)
    assert pair_det(exact_tuple([g, g]), 2, basis) == 2 ** basis.size * basis.gram_det


REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference",
                         "cayley.json")


def test_certificates_of_the_reference_tuples_keep_their_digests():
    with open(REFERENCE, encoding="utf-8") as fh:
        entries = json.load(fh)["tuples"]
    assert len(entries) == 36
    for entry in entries:
        report = certify_degrees(tuple_from_json(entry["tuple"]), n_max=entry["nmax"])
        got = [(c.n, c.status, hashlib.sha256(c.det_value.encode()).hexdigest())
               for c in report.degrees]
        assert got == [(e["n"], e["status"], e["det_sha256"]) for e in entry["degrees"]]


# -- the near-identity bound ------------------------------------------------------


def test_pi_half_upper_bounds_pi_half():
    assert 355 / 226 > math.pi / 2 and PI_HALF_UPPER - Fraction(math.pi / 2) < Fraction(1, 10 ** 6)


def test_sqrt_upper_is_an_exact_and_tight_bound():
    rng = random.Random(4)
    values = [Fraction(rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12)) for _ in range(50)]
    values += [Fraction(2), Fraction(1, 10 ** 40), Fraction(4)]
    values += [QuadExt(Fraction(4), Fraction(-2), 3), QuadExt(Fraction(1, 3), Fraction(1, 5), 2)]
    for s in values:
        u = _sqrt_upper(s)
        assert u * u >= s
        below = u - Fraction(4, SQRT_SCALE)
        assert below < 0 or below * below < s, s
    assert _sqrt_upper(Fraction(0)) == 0


def test_identity_tuples_are_obstructed_in_every_degree():
    cert = near_identity_certificate(identity_tuple(3, 2))
    assert cert.obstructed_through is None
    assert cert.to_json() == {"distance_bounds": ["0/1", "0/1"], "obstructed_through": None}


def test_quad_distance_bound():
    # a twelfth turn about z: ||g - I||_F = 2 sqrt(2) sin(pi/12)
    t = z_axis_rotation_tuple([Fraction(1, 12), Fraction(0)])
    cert = near_identity_certificate(t)
    true = 2 * math.sqrt(2) * math.sin(math.pi / 12)
    assert 0 <= float(cert.distance_bounds[0]) - true < 1e-15
    assert cert.distance_bounds[1] == 0
    # 1 * (355/226) * 0.732 < 2 <= 2 * (355/226) * 0.732
    assert cert.obstructed_through == 1


def test_near_identity_bound_refuses_circle_tuples_and_reflections():
    with pytest.raises(ValueError):
        near_identity_certificate(circle_rotation_tuple([Fraction(1, 3), Fraction(0)]))
    with pytest.raises(ValueError, match="determinant <= 0"):
        near_identity_certificate(floating_tuple([[[1.0, 0.0], [0.0, -1.0]]]))


def _small_skew(draw, d: int):
    s = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = Fraction(draw(st.integers(-1, 1)), draw(st.integers(6, 240)))
            s[i][j], s[j][i] = v, -v
    return s


def _plane_turn(d: int, i: int, j: int, quarter: bool):
    """The quarter or half turn of the (x_i, x_j)-plane."""
    m = [[Fraction(int(a == b)) for b in range(d)] for a in range(d)]
    if quarter:
        m[i][i] = m[j][j] = Fraction(0)
        m[i][j], m[j][i] = Fraction(-1), Fraction(1)
    else:
        m[i][i] = m[j][j] = Fraction(-1)
    return m


@st.composite
def near_identity_tuples(draw):
    """Exact Cayley rotations of skew matrices with entries 0 or +-1/q,
    6 <= q <= 240, or plane quarter turns, half turns and identities."""
    d, r = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    if draw(st.booleans()):
        return exact_tuple([cayley_rotation(_small_skew(draw, d)) for _ in range(r)])
    mats = []
    for _ in range(r):
        kind = draw(st.sampled_from(["identity", "quarter", "half"]))
        i, j = sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2,
                                    unique=True)))
        mats.append(linalg.identity_matrix(d) if kind == "identity"
                    else _plane_turn(d, i, j, kind == "quarter"))
    return exact_tuple(mats)


@seed(2026)
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(t=near_identity_tuples())
def test_near_identity_degrees_are_obstructed_exactly(t):
    bound = near_identity_certificate(t).obstructed_through
    # exact L determinants for d = 4, r = 3 take seconds at degree 5 (30 x 30)
    # and near a minute at degree 6 (49 x 49)
    cap = 4 if (t.dimension, t.r) == (4, 3) else 6
    top = cap if bound is None else min(bound + 1, cap)
    report = certify_degrees(t, n_max=top)
    # every degree the bound covers is obstructed, and N stays below the
    # least witness degree
    for c in report.degrees:
        if bound is None or c.n <= bound:
            assert c.status == "obstructed", (c.n, bound)
    if report.witness_degrees:
        assert bound is not None and bound < report.witness_degrees[0]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_moving_a_synthesized_matrix_off_orthogonality_never_raises_the_bound(d):
    rng = np.random.default_rng(60 + d)
    for r in (2, 3):
        t = complete_rows(draw_upper_entries(rng, d, r)).rotations
        cert = near_identity_certificate(t)
        for g, b in zip(t.matrices, cert.distance_bounds):
            u, _, vt = np.linalg.svd(np.array(g))
            true = float(np.linalg.norm(u @ vt - np.eye(d)))
            # b bounds ||Q - I||_F from above for the polar factor Q = U V^T,
            # up to the float rounding of that norm
            assert true - 1e-14 <= float(b) <= true + 1e-12
        for eps in (1e-12, 1e-9, 1e-6, 1e-3):
            sym = rng.normal(size=(d, d))
            moved = np.array(t.matrices[0]) @ (np.eye(d) + eps * (sym + sym.T))
            off = floating_tuple([moved.tolist()] + t.matrices[1:])
            assert near_identity_certificate(off).obstructed_through \
                <= cert.obstructed_through, eps
