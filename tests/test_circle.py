import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spherediv.circle import (Angle, ArcSet, CutTable, arc_cuts, cancellation_at,
                              classify, fractional_test, necessary_degrees,
                              parse_angle, verify_arcset)
from spherediv.cyclotomic import divisors

from oracles import (classify_by_cases, fractional_test_by_scan,
                     verify_arcset_by_translates)


F = Fraction


def test_parse_angle_forms():
    assert parse_angle("1/3") == Angle(F(1, 3))
    assert parse_angle("1/2 + tau") == Angle(F(1, 2), (("tau", F(1)),))
    a = parse_angle("3/4 - 2*tau1 + 1/2*tau2")
    assert a.turns == F(3, 4)
    assert dict(a.formal) == {"tau1": F(-2), "tau2": F(1, 2)}
    assert parse_angle("tau") == Angle(F(0), (("tau", F(1)),))
    with pytest.raises(ValueError):
        parse_angle("0.25")
    with pytest.raises(ValueError):
        parse_angle("")


def test_angle_arithmetic_mod_one():
    a = parse_angle("2/3 + tau")
    b = parse_angle("2/3 + tau")
    assert (a + b).turns == F(1, 3)
    assert not (a - b).formal
    assert (a - b).turns == 0


def test_arcset_invariants():
    arcs = ArcSet(((F(1, 2), F(3, 4)), (F(0), F(1, 4))))
    assert arcs.arcs[0] == (F(0), F(1, 4))  # sorted
    assert arcs.total_length == F(1, 2)
    with pytest.raises(ValueError):
        ArcSet(((F(0), F(1, 2)), (F(1, 4), F(3, 4))))  # overlap
    with pytest.raises(ValueError):
        ArcSet(((F(1, 2), F(5, 4)),))  # outside the unit turn


def test_arc_cuts_wrap_past_one():
    arcs = ArcSet(((F(3, 4), F(1)),))
    assert arc_cuts([F(1, 2)], arcs) == CutTable(4, (1, 2), ((1,), ()))
    # [3/4, 1) shifted by 1/8 holds [7/8, 1) and [0, 1/8): one interval
    # across the origin, which is no cut
    table = arc_cuts([F(1, 8)], arcs)
    assert table == CutTable(8, (1, 7), ((), (1,)))
    for turn in (F(7, 8), F(15, 16), F(0), F(1, 16)):
        assert table.piece(turn) == 1
    for turn in (F(1, 8), F(1, 2), F(7, 8) - F(1, 10 ** 9)):
        assert table.piece(turn) is None


def test_arc_cuts_without_arcs_hold_nothing():
    table = arc_cuts([F(1, 2), F(0)], ArcSet(()))
    assert table.cuts == () and table.holders == ((),)
    assert table.piece(F(1, 3)) is None
    assert not verify_arcset(["1/2", "0"], ArcSet(()))


def test_cut_table_margin_flags_points_near_a_cut():
    table = arc_cuts([F(1, 2), F(0)], ArcSet(((F(0), F(1, 2)),)))
    assert table.piece(F(1, 4), margin=F(1, 5)) == 2
    assert table.piece(F(1, 4), margin=F(1, 3)) is None
    assert table.piece(F(1, 2) - F(1, 10 ** 9), margin=1e-9) is None
    assert table.piece(F(1, 2) - F(2, 10 ** 9), margin=1e-9) == 2
    assert table.piece(F(1) - F(1, 10 ** 10), margin=1e-9) is None


def _random_division(rng):
    """Turns and arcs: a partition of Z_{rm} into the cells of one residue
    per class mod m shifted by multiples of m, often with one turn or one
    cell changed, or random arcs and turns (a few with no arcs at all)."""
    if rng.random() < 0.2:
        q = rng.choice((2, 3, 4, 6, 8, 12, 30, 97))
        ends = sorted(rng.sample(range(q + 1), 2 * rng.randrange(0, min(4, q // 2 + 1))))
        arcs = [(F(a, q), F(b, q)) for a, b in zip(ends[::2], ends[1::2])]
        p = rng.choice((2, 3, 5, 8, 12))
        return [F(rng.randrange(p), p) for _ in range(rng.randrange(1, 5))], ArcSet(tuple(arcs))
    r, m = rng.randrange(1, 5), rng.randrange(1, 7)
    q = r * m
    members = sorted(a + m * rng.randrange(r) for a in range(m))
    turns = [F(m * k, q) for k in range(r)]
    if rng.random() < 0.5:
        turns[rng.randrange(r)] += F(rng.randrange(1, 2 * q), 2 * q)
    if rng.random() < 0.3:
        members.pop(rng.randrange(m))
    rng.shuffle(turns)
    return turns, ArcSet(tuple((F(a, q), F(a + 1, q)) for a in members))


def test_verify_arcset_matches_the_translate_oracle():
    rng = random.Random(14)
    verdicts = set()
    for _ in range(3000):
        turns, arcs = _random_division(rng)
        got = verify_arcset(turns, arcs)
        assert got == verify_arcset_by_translates(turns, arcs), (turns, arcs)
        verdicts.add((got, not arcs.arcs))
    assert verdicts == {(True, False), (False, False), (False, True)}


def test_fractional_test_examples():
    assert fractional_test(["1/2", "0"]) == 1
    assert fractional_test(["tau", "tau + 1/2", "1/2", "0"]) == 1
    assert fractional_test(["1/3", "0"]) is None
    assert fractional_test(["1/3", "2/3", "0"]) == 1
    assert fractional_test(["1/9", "2/9", "0"]) == 3


def test_fractional_test_singleton_group_blocks():
    assert fractional_test(["tau", "1/2", "0"]) is None


def test_divisors_ascending():
    assert divisors(1) == [1]
    assert divisors(20014) == [1, 2, 10007, 20014]
    for n in (12, 97, 360, 2491):
        assert divisors(n) == [k for k in range(1, n + 1) if n % k == 0]


@pytest.mark.parametrize("angles, expected", [
    (["1/20014", "0"], 10007),  # the only cancelling divisor is a large prime
    (["1/47", "1/53", "0"], None),  # a full period of 2491 with no cancellation
    # 75002 = -1/4 mod 100003: at order 4q the exponent lands on the top
    # residue of 100003, which the canonical form expands into 100002 terms
    (["75002/100003", "0"], None),
])
def test_fractional_test_large_period_is_fast(angles, expected):
    start = time.perf_counter()
    assert fractional_test(angles) == expected
    assert time.perf_counter() - start < 0.5


OFFSETS = ["", "", "", " + tau", " - 1/2*sigma"]


@st.composite
def circle_tuples(draw):
    """2..6 angles with denominators <= 30, some with a formal offset.  Part
    of the angles come as whole regular m-gons at a degree k (angles
    (c + j + i_j*m)/(m*k), j < m), so that many tuples cancel."""
    r = draw(st.integers(2, 6))
    angles = []
    while len(angles) < r:
        room = r - len(angles)
        offset = draw(st.sampled_from(OFFSETS))
        if room >= 2 and draw(st.booleans()):
            m = draw(st.integers(2, room))
            q = m * draw(st.integers(1, 30 // m))
            c = draw(st.integers(0, q - 1))
            for j in range(m):
                i = draw(st.integers(0, q // m - 1))
                angles.append(f"{(c + j + i * m) % q}/{q}{offset}")
        else:
            q = draw(st.integers(1, 30))
            angles.append(f"{draw(st.integers(0, q - 1))}/{q}{offset}")
    return draw(st.permutations(angles))


@settings(max_examples=150, deadline=None)
@given(angles=circle_tuples())
def test_fractional_test_matches_the_full_scan(angles):
    assert fractional_test(angles) == fractional_test_by_scan(angles)


def _agrees_with_the_case_analysis(angles):
    c = classify(angles)
    assert c.to_json() == classify_by_cases(angles).to_json(), angles
    if len(angles) <= 4:
        # the closed-form degrees against the divisor walk
        assert c.witness_degree == fractional_test(angles), angles


def test_classify_matches_the_case_analysis_r2_r3():
    values = sorted({F(p, q) for q in range(1, 13) for p in range(q)})
    for t1 in values:
        _agrees_with_the_case_analysis([t1, F(0)])
        for t2 in values:
            _agrees_with_the_case_analysis([t1, t2, F(0)])


def test_classify_matches_the_case_analysis_r4():
    values = sorted({F(p, q) for q in (1, 2, 3, 4, 5, 6, 8, 12) for p in range(q)})
    for t1, t2, t3 in itertools.combinations_with_replacement(values, 3):
        _agrees_with_the_case_analysis([t1, t2, t3, F(0)])


@st.composite
def common_denominator_tuples(draw):
    """2..6 angles over one denominator q <= 30, some with a formal offset,
    part of them as arithmetic progressions (regular m-gons when m | q), so
    that many tuples cancel and the generated group Z_N stays small."""
    r = draw(st.integers(2, 6))
    q = draw(st.integers(1, 30))
    angles = []
    while len(angles) < r:
        room = r - len(angles)
        offset = draw(st.sampled_from(OFFSETS))
        if room >= 2 and draw(st.booleans()):
            m = draw(st.integers(2, room))
            c = draw(st.integers(0, q - 1))
            step = q // m if q % m == 0 else draw(st.integers(1, q))
            angles += [f"{(c + j * step) % q}/{q}{offset}" for j in range(m)]
        else:
            angles.append(f"{draw(st.integers(0, q - 1))}/{q}{offset}")
    return draw(st.permutations(angles))


@settings(max_examples=200, deadline=None)
@given(angles=common_denominator_tuples())
def test_classify_matches_the_case_analysis_with_formal_offsets(angles):
    _agrees_with_the_case_analysis(angles)


def test_necessary_degrees_periodic():
    degs = necessary_degrees([Angle(F(1, 3)), Angle(F(2, 3)), Angle(F(0))], 9)
    assert degs == {1, 2, 4, 5, 7, 8}
    assert cancellation_at([Angle(F(1, 2)), Angle(F(0))], 5)
    assert not cancellation_at([Angle(F(1, 2)), Angle(F(0))], 2)


def test_divide_r2_examples():
    assert classify(["1/2", "0"]).arcs.arcs == ((F(0), F(1, 2)),)
    assert classify(["1/4", "0"]).arcs.arcs == ((F(0), F(1, 4)), (F(1, 2), F(3, 4)))
    assert classify(["1/3", "0"]).arcs is None
    assert classify(["tau", "0"]).arcs is None
    assert classify(["0", "0"]).arcs is None


def test_divide_r2_even_order_law():
    values = sorted({F(p, q) for q in range(1, 25) for p in range(q)})
    for t in values:
        arcs = classify([t, F(0)]).arcs
        even_order = t != 0 and t.denominator % 2 == 0
        assert (arcs is not None) == even_order, t
        if arcs is not None:
            assert verify_arcset([t, F(0)], arcs)
            n = t.denominator // 2
            assert len(arcs.arcs) == n
            assert all(b - a == F(1, 2 * n) for a, b in arcs.arcs)
            # the construction degree equals the smallest cancellation degree
            assert fractional_test([Angle(t), Angle(F(0))]) == n


def test_divide_r3_examples():
    assert classify(["1/3", "2/3", "0"]).arcs.arcs == ((F(0), F(1, 3)),)
    ninth = classify(["1/9", "2/9", "0"]).arcs
    assert ninth.arcs == ((F(0), F(1, 9)), (F(1, 3), F(4, 9)), (F(2, 3), F(7, 9)))
    assert classify(["tau", "2*tau", "0"]).arcs is None
    assert classify(["1/2", "1/4", "0"]).arcs is None


def test_divide_r3_sweep_verifies():
    values = sorted({F(p, q) for q in range(1, 13) for p in range(q)})
    constructive = 0
    for t1, t2 in itertools.combinations_with_replacement(values, 2):
        arcs = classify([t1, t2, F(0)]).arcs
        n = fractional_test([Angle(t1), Angle(t2), Angle(F(0))])
        assert (arcs is not None) == (n is not None), (t1, t2)
        if arcs is not None:
            assert verify_arcset([t1, t2, F(0)], arcs)
            # n equally spaced arcs, n the smallest cancellation degree
            assert len(arcs.arcs) == n
            constructive += 1
    assert constructive > 0


def test_divide_r4_examples():
    c = classify(["1/2", "3/4", "1/4", "0"])
    assert c.verdict == "constructive"
    assert c.arcs.arcs == ((F(0), F(1, 4)),)
    c = classify(["1/4", "1/2", "1/4", "0"])
    assert c.verdict == "fractional_only"
    assert c.witness_degree == 2
    c = classify(["tau", "tau + 1/2", "1/2", "0"])
    assert c.verdict == "fractional_only"
    assert c.witness_degree == 1
    c = classify(["1/5", "1/7", "1/11", "0"])
    assert c.verdict == "not_fractional"


def test_divide_r4_group_order_not_multiple_of_four():
    c = classify(["1/2", "0", "1/2", "0"])
    assert c.verdict == "fractional_only"
    assert c.group_order == 2


def test_divide_r4_smallest_degree_matches_fractional_test():
    values = sorted({F(p, q) for q in (1, 2, 3, 4, 6, 8) for p in range(q)})
    for t1, t2, t3 in itertools.combinations_with_replacement(values, 3):
        c = classify([t1, t2, t3, F(0)])
        n = fractional_test([Angle(t1), Angle(t2), Angle(t3), Angle(F(0))])
        assert c.witness_degree == n or (c.verdict == "not_fractional" and n is None)


def test_translation_invariance_with_formal_offset():
    base = ["1/2", "3/4", "1/4", "0"]
    shifted = [f"{t} + tau" for t in base]
    a = classify(base)
    b = classify(shifted)
    assert a.verdict == b.verdict == "constructive"
    assert a.arcs == b.arcs


def test_classify_r2_r3():
    c = classify(["1/3", "2/3", "0"])
    assert c.verdict == "constructive"
    assert verify_arcset(list(c.reduced_turns), c.arcs)
    assert c.witness_degree == 1
    c = classify(["1/3", "0"])
    assert c.verdict == "not_fractional"
    c = classify(["1/4", "0"])
    assert c.verdict == "constructive"


def test_classify_r5():
    c = classify(["0", "1/5", "2/5", "3/5", "4/5"])
    assert c.verdict == "constructive"
    assert c.arcs.arcs == ((F(0), F(1, 5)),)
    assert verify_arcset(list(c.reduced_turns), c.arcs)
    # "tau" is alone in its formal class, so nothing cancels
    c = classify(["0", "1/5", "2/5", "3/5", "tau"])
    assert c.verdict == "not_fractional"
    assert c.witness_degree is None
    c = classify(["0", "1/7", "2/7", "3/7", "4/7"])
    assert c.verdict in ("fractional_only", "not_fractional")


def test_classify_formal_r5_is_fractional_only():
    # thirds and an antipodal pair under tau cancel groupwise at degree 1,
    # but two formal classes leave no measurable division
    c = classify(["0", "1/3", "2/3", "tau", "1/2 + tau"])
    assert c.verdict == "fractional_only"
    assert c.witness_degree == 1
    assert c.arcs is None and c.reduced_turns is None
    assert c.to_json() == classify_by_cases(["0", "1/3", "2/3", "tau", "1/2 + tau"]).to_json()


def test_classify_common_formal_offset_reduces():
    c = classify(["tau + 1/3", "tau + 2/3", "tau"])
    assert c.verdict == "constructive"
    assert c.reduced_turns == (F(1, 3), F(2, 3), F(0))
    assert verify_arcset(list(c.reduced_turns), c.arcs)


def test_verify_arcset_examples():
    assert verify_arcset(["1/2", "0"], ArcSet(((F(0), F(1, 2)),)))
    assert verify_arcset(["1/3", "2/3", "0"], ArcSet(((F(0), F(1, 3)),)))
    assert not verify_arcset(["1/2", "0"], ArcSet(((F(0), F(1, 4)),)))
    with pytest.raises(ValueError):
        verify_arcset(["tau", "0"], ArcSet(((F(0), F(1, 2)),)))


def test_arcset_json_round_trip():
    arcs = classify(["1/9", "2/9", "0"]).arcs
    assert ArcSet.from_json(arcs.to_json()) == arcs
