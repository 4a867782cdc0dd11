"""Acceptance suite: every shipped claim, at its stated tolerance.

Each criterion prints one PASS line (visible with ``pytest -s``); a failed
assertion in a criterion is the corresponding FAIL.  Stated runtime budgets
are asserted too.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from spherediv.actions import (common_fixed_point_test, divide_finite_orbit,
                               enumerate_group, invariant_split, orbit)
from spherediv.circle import Angle, classify, necessary_degrees, verify_arcset
from spherediv.cli import main as cli_main
from spherediv.euler import (divisibility_obstruction, euler_check,
                             face_lattice, orbit_polytope)
from spherediv.gegenbauer import (evaluate, gegenbauer, harmonic_dimension,
                                  weighted_inner_product)
from spherediv.lifting import lift_from_circle, verify_partition
from spherediv.linalg import det, mat_vec
from spherediv.obstruction import certify_degrees, extract_witness, l_matrix
from spherediv.points import (circle_rotation_tuple, exact_tuple,
                              identity_tuple, z_axis_rotation_tuple)
from spherediv.scalars import is_zero_scalar
from spherediv.synthesis import (UpperEntries, complete_rows,
                                 draw_upper_entries, identity_distance_target)
from spherediv.tiling import (TileInstance, closed_form_r4, odd_m_construction,
                              solve)
from spherediv.zonal import build_zonal_basis
from oracles import gram_schmidt_gegenbauer, sphere_average_s2, \
    stacked_kernel_intersection

F = Fraction


def report(num, text):
    print(f"PASS criterion {num}: {text}", flush=True)


def test_criterion_01_gegenbauer_against_oracle():
    start = time.time()
    for d in range(2, 7):
        polys = [gegenbauer(d, n) for n in range(11)]
        for n in range(11):
            assert polys[n] == gram_schmidt_gegenbauer(d, n), (d, n)
        for i in range(11):
            for j in range(i + 1, 11):
                assert weighted_inner_product(d, polys[i], polys[j]) == 0
    elapsed = time.time() - start
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    report(1, f"recurrence == Gram-Schmidt oracle and exact orthogonality, "
              f"d=2..6, n<=10 ({elapsed:.2f}s)")


def test_criterion_02_dimensions_and_bases():
    start = time.time()
    for n in range(1, 11):
        assert harmonic_dimension(3, n) == 2 * n + 1
        assert harmonic_dimension(2, n) == 2
    for d in (2, 3, 4):
        for n in range(6):
            basis = build_zonal_basis(d, n)
            assert basis.size == harmonic_dimension(d, n), (d, n)
            assert basis.gram_det > 0, (d, n)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(2, f"harmonic dimensions and zonal bases with positive exact Gram "
              f"determinants, d<=4, n<=5 ({elapsed:.2f}s)")


def test_criterion_03_funk_hecke_quadrature():
    start = time.time()
    rng = np.random.default_rng(0)
    pairs = rng.normal(size=(20, 2, 3))
    checked = 0
    for n in range(1, 5):
        nn = harmonic_dimension(3, n)
        poly = gegenbauer(3, n)
        for k in range(5):
            u, v = pairs[checked % 20]
            u = u / np.linalg.norm(u)
            v = v / np.linalg.norm(v)
            estimate = sphere_average_s2(
                lambda x: float(evaluate(poly, float(u @ x)))
                * float(evaluate(poly, float(v @ x))))
            expected = float(evaluate(poly, float(u @ v))) / nn
            assert abs(estimate - expected) < 1e-6, (n, estimate, expected)
            checked += 1
    assert checked == 20
    elapsed = time.time() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report(3, f"normalized zonal products match the quadrature estimates "
              f"within 1e-6 for 20 pairs, n<=4 ({elapsed:.2f}s)")


def test_criterion_04_identity_tuple_law():
    for d in (2, 3):
        for n in range(1, 7):
            basis = build_zonal_basis(d, n)
            for r in (2, 3):
                lm = l_matrix(d, n, identity_tuple(d, r), basis)
                expected = F(r) ** basis.size * basis.gram_det
                assert det(lm) == expected != 0, (d, n, r)
    report(4, "det L = r^N det M exactly and nonzero for identity tuples, "
              "d in {2,3}, n<=6")


def test_criterion_05_circle_cross_validation():
    rng = random.Random(42)
    for trial in range(20):
        r = rng.choice([2, 3, 4])
        turns = []
        for _ in range(r):
            q = rng.randint(1, 12)
            turns.append(F(rng.randrange(q), q))
        rotations = circle_rotation_tuple(turns)
        zero_set = set(certify_degrees(rotations, n_max=8).witness_degrees)
        expected = necessary_degrees([Angle(t) for t in turns], 8)
        assert zero_set == expected, (turns, zero_set, expected)
    report(5, "degrees with det L = 0 match the exact unit-vector "
              "cancellation set for 20 random rational-turn tuples, n<=8")


def test_criterion_06_witness_validity():
    cases = [
        (circle_rotation_tuple([F(1, 2), F(0)]), 1),
        (circle_rotation_tuple([F(1, 2), F(0)]), 3),
        (circle_rotation_tuple([F(1, 3), F(2, 3), F(0)]), 2),
        (z_axis_rotation_tuple([F(1, 3), F(2, 3), F(0)]), 3),
        (z_axis_rotation_tuple([F(1, 4), F(1, 2), F(3, 4), F(0)]), 1),
    ]
    for rotations, n in cases:
        w = extract_witness(rotations, n, samples=1000)
        assert w.max_residual <= 1e-9, (n, w.max_residual)
    half = extract_witness(circle_rotation_tuple([F(1, 2), F(0)]), 1)
    # reference witness (1 + cos t)/2: degree-1 component proportional to cos t
    assert half.points[0] == (F(-1), F(0)) and half.points[1] == (F(0), F(-1))
    assert not half.coefficients[0].is_zero()
    assert half.coefficients[1].is_zero()
    for ang in np.linspace(0.1, 6.0, 7):
        x = (math.cos(ang), math.sin(ang))
        assert abs(half.evaluate_fraction(x) - (0.5 - math.cos(ang))) < 1e-12
    report(6, "all extracted witnesses satisfy sum g_i.f = 1 within 1e-9 at "
              "1000 points; half-turn witness matches (1 + cos t)/2 up to a "
              "degree-1 scaling")


def test_criterion_07_circle_r_le_4_suite():
    start = time.time()
    values = sorted({F(p, q) for q in range(1, 13) for p in range(q)})
    # r = 2: even-order law and exact arc verification
    for t in values:
        arcs = classify([t, F(0)]).arcs
        expect = t != 0 and t.denominator % 2 == 0
        assert (arcs is not None) == expect, t
        if arcs is not None:
            assert verify_arcset([t, F(0)], arcs)
    # r = 3: every constructive verdict verifies
    for t1, t2 in itertools.combinations_with_replacement(values, 2):
        c = classify([t1, t2, F(0)])
        if c.verdict == "constructive":
            assert verify_arcset([t1, t2, F(0)], c.arcs)
    # r = 4: exhaustive sweep (verdicts are permutation-invariant)
    verdicts = {"constructive": 0, "fractional_only": 0, "not_fractional": 0}
    for t1, t2, t3 in itertools.combinations_with_replacement(values, 3):
        c = classify([t1, t2, t3, F(0)])
        verdicts[c.verdict] += 1
        if c.verdict == "constructive":
            assert verify_arcset([t1, t2, t3, F(0)], c.arcs)
    assert all(verdicts.values()), verdicts
    # normalized four-shift family against the closed form
    for m in range(1, 9):
        for k in range(4 * m):
            if math.gcd(k, m) != 1:
                continue
            inst = TileInstance(4 * m, (k, (k + m) % (4 * m), m, 0))
            found = solve(inst)
            assert (found is not None) == closed_form_r4(m, k), (m, k)
            if found is not None:
                assert found.is_valid()
            if m % 2 and closed_form_r4(m, k):
                assert odd_m_construction(m, k).is_valid()
    elapsed = time.time() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(7, f"denominator-12 sweep: all constructive arc sets verify "
              f"exactly, even-order law holds, normalized four-shift family "
              f"matches the closed form for m<=8 ({elapsed:.2f}s; r=4 "
              f"verdicts {verdicts})")


def test_criterion_08_tiling_spot_values():
    assert solve(TileInstance(4, (2, 3, 1, 0))).members == (0,)
    assert solve(TileInstance(12, (2, 5, 3, 0))).members == (0, 4, 8)
    assert solve(TileInstance(4, (1, 2, 1, 0))) is None
    constructed = odd_m_construction(3, 2)
    assert set(constructed.members) == {0, 8, 4}
    assert constructed.is_valid()
    report(8, "tiling spot values: Z_4 singleton, Z_12 {0,4,8}, duplicate "
              "shifts refuted, explicit odd-m set {0,8,4} valid")


def test_criterion_09_euler_suite():
    rz = [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    rx = [[F(1), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(1), F(0)]]
    cube = enumerate_group(exact_tuple([rz, rx]), cap=100)
    lattices = []
    poly = orbit_polytope(cube)
    lat = face_lattice(poly)
    lattices.append(lat)
    assert lat.counts == [6, 12, 8]
    assert divisibility_obstruction(lat, 3) == (True, 2)
    cyc = enumerate_group(z_axis_rotation_tuple([F(1, 3)]), cap=10)
    lat3 = face_lattice(orbit_polytope(cyc))
    lattices.append(lat3)
    assert lat3.counts == [14, 36, 24]
    assert divisibility_obstruction(lat3, 3) == (True, 0)
    # additional odd-dimension lattices for the hard Euler gate
    lattices.append(face_lattice(orbit_polytope(enumerate_group(identity_tuple(3, 1)))))
    hexa = enumerate_group(z_axis_rotation_tuple([F(1, 6)]), cap=20)
    lattices.append(face_lattice(orbit_polytope(hexa)))
    for lat in lattices:
        assert euler_check(lat), lat.counts
    report(9, "cube group gives (6,12,8) with the r=3 obstruction at faces, "
              "order-3 axis group gives (14,36,24) with it at vertices, and "
              "every computed odd-dimension lattice has Euler sum 2")


def test_criterion_10_common_fixed_points():
    rng = random.Random(12)
    for trial in range(100):
        d = rng.randint(2, 4)
        k = rng.randint(1, 3)
        if rng.random() < 0.5:
            x = [F(rng.randint(-3, 3)) for _ in range(d)]
            if all(v == 0 for v in x):
                x[0] = F(1)
            pivot = next(i for i, v in enumerate(x) if v != 0)
            mats = []
            for _ in range(k):
                rows = []
                for _ in range(d):
                    row = [F(rng.randint(-4, 4)) for _ in range(d)]
                    dot = sum(a * b for a, b in zip(row, x))
                    row[pivot] -= dot / x[pivot]
                    rows.append(row)
                mats.append(rows)
        else:
            mats = [[[F(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)]
                    for _ in range(k)]
        found, witness = common_fixed_point_test(mats)
        assert found == stacked_kernel_intersection(mats), trial
        if found:
            for m in mats:
                assert all(is_zero_scalar(v) for v in mat_vec(m, witness))
    for turns in ([F(1, 4), F(1, 2)], [F(1, 3), F(2, 3)], [F(1, 6), F(1, 2)]):
        t = z_axis_rotation_tuple(turns)
        mats = []
        for m in t.matrices:
            mats.append([[m[i][j] - (1 if i == j else 0) for j in range(3)]
                         for i in range(3)])
        found, witness = common_fixed_point_test(mats)
        assert found
        assert witness[0] == 0 and witness[1] == 0 and witness[2] != 0
        for m in mats:
            assert all(is_zero_scalar(v) for v in mat_vec(m, witness))
    report(10, "determinant criterion agrees with the stacked-kernel oracle "
               "on 100 exact instances (d<=4); coaxial pairs share a "
               "verified axis")


def test_criterion_11_finite_orbit_division():
    t = z_axis_rotation_tuple([F(1, 3), F(2, 3), F(0)])
    rep = orbit((F(1), F(0), F(0)), t, cap=100)
    assert rep.finite and rep.size == 3
    division = divide_finite_orbit(rep, t)
    assert division is not None and len(division) == 1
    covered = []
    for a in division:
        for m in t.matrices:
            covered.append(tuple(mat_vec(m, list(a))))
    assert sorted(covered) == sorted(rep.points)
    pair = z_axis_rotation_tuple([F(1, 3), F(0)])
    rep2 = orbit((F(1), F(0), F(0)), pair, cap=100)
    assert rep2.finite and rep2.size == 3
    assert divide_finite_orbit(rep2, pair) is None
    split = invariant_split(rep, t)
    assert split.span_dimension == 2
    report(11, "order-3 coaxial orbit divides by a verified singleton; two "
               "rotations cannot divide the odd orbit (exhaustively refuted)")


def test_criterion_12_lifting():
    start = time.time()
    arcs = classify([F(1, 3), F(2, 3), F(0)]).arcs
    for target in (4, 6):
        desc = lift_from_circle((F(1, 3), F(2, 3), F(0)), arcs, target)
        for seed in (0, 1, 2):
            rep = verify_partition(desc, samples=100000, seed=seed)
            assert rep.ok, (target, seed, rep.violations[:3])
            se = math.sqrt((1 / 3) * (2 / 3) / rep.retained)
            for count in rep.piece_counts:
                assert abs(count / rep.retained - 1 / 3) <= 5 * se, (target, seed)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(12, f"thirds division lifted to S3 and S5: zero violations in "
               f"100000 samples for seeds 0..2 and piece measures within "
               f"5 standard errors of 1/3 ({elapsed:.2f}s)")


def test_criterion_13_synthesis_bulk():
    for d in (2, 3, 4):
        rng = np.random.default_rng(1000 + d)
        target = identity_distance_target(d)
        for _ in range(1000):
            upper = draw_upper_entries(rng, d, 2)
            result = complete_rows(upper)
            assert result.max_orthonormality_residual <= 1e-12
            assert result.max_determinant_residual <= 1e-10
            assert max(result.identity_distances) < target
    zero = UpperEntries(3, [[[0.0, 0.0], [0.0]] for _ in range(2)])
    for m in complete_rows(zero).matrices:
        assert m == np.eye(3).tolist()
    report(13, "3000 schedule-compliant draws (1000 per dimension 2..4) all "
               "complete within 1e-12 / 1e-10 residuals and the identity-"
               "distance target; zero entries give exact identities")


def test_criterion_14_cli_determinism(tmp_path, capsys):
    argv = ["synth-generic", "--dim", "3", "--r", "2", "--seed", "7",
            "--word-cap", "3"]
    assert cli_main(argv) == 0
    out1 = capsys.readouterr().out
    assert cli_main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    argv = ["circle", "classify", "--angles", "1/9,2/9,0"]
    assert cli_main(argv) == 0
    out3 = capsys.readouterr().out
    assert cli_main(argv) == 0
    out4 = capsys.readouterr().out
    assert out3 == out4
    data = json.loads(out3)
    assert data["classification"]["verdict"] == "constructive"
    report(14, "repeated CLI runs with identical config and seed are "
               "byte-identical")
