"""Fuzz the CLI's input boundaries with valid and malformed inputs: tuple
files, `circle classify` angle strings, `verify-partition` descriptor files
and `synth-generic` upper-entry files.

Every run must end with a documented exit code (0, 2, 3 or 4) and never let
an exception escape ``cli.main``.
"""

import json
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from spherediv.circle import classify
from spherediv.cli import main
from spherediv.lifting import (BaseCircleDivision, PlaceholderDivision,
                               lift_from_circle)
from spherediv.points import (cayley_rotation, circle_rotation_tuple,
                              exact_tuple, z_axis_rotation_tuple)
from spherediv.serialize import tuple_to_json
from spherediv.synthesis import draw_upper_entries

DOCUMENTED_EXITS = {0, 2, 3, 4}
JUNK = [None, 5, -1, 0, 1.5, True, "x", "1/0", "nan", [], [[]], {}, ["1/1", "0/1"]]


@st.composite
def small_skew(draw, d: int):
    s = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            s[i][j], s[j][i] = v, -v
    return s


@st.composite
def valid_tuples(draw):
    kind = draw(st.sampled_from(["exact", "floating", "quad", "circle"]))
    turn = st.builds(lambda q, k: Fraction(k % q, q), st.integers(1, 12), st.integers(0, 11))
    if kind == "circle":
        return tuple_to_json(circle_rotation_tuple(draw(st.lists(turn, min_size=1, max_size=4))))
    if kind == "quad":
        turns = draw(st.lists(st.sampled_from([Fraction(k, 12) for k in range(12)]),
                              min_size=1, max_size=3))
        return tuple_to_json(z_axis_rotation_tuple(turns, draw(st.integers(2, 3))))
    d = draw(st.integers(1, 3))
    mats = [cayley_rotation(draw(small_skew(d))) for _ in range(draw(st.integers(1, 3)))]
    if kind == "floating":  # the wire form `synth-generic` prints
        return {"mode": "floating", "dimension": d,
                "matrices": [[[float(x) for x in row] for row in m] for m in mats]}
    return tuple_to_json(exact_tuple(mats))


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _mutate(draw, data):
    """data with one node replaced or removed, or a junk top level."""
    paths = [p for p in _paths(data) if p]
    path = draw(st.sampled_from(paths))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(JUNK))
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(JUNK))
    return data


@st.composite
def malformed_tuples(draw):
    return _mutate(draw, draw(valid_tuples()))


def _commands(data):
    d = data.get("dimension") if isinstance(data, dict) else None
    point = ",".join(["1"] + ["0"] * (d - 1)) if isinstance(d, int) and 1 <= d <= 3 else "1,0"
    return [["obstruct", "--nmax", "1", "--tuple"],
            ["orbit", "--cap", "30", "--point", point, "--tuple"],
            ["fixed-point-test", "--words", "g1", "--tuple"],
            ["euler-check", "--r", "3", "--cap", "30", "--generators"]]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(st.tuples(st.just(True), valid_tuples()),
                      st.tuples(st.just(False), malformed_tuples())))
def test_tuple_commands_end_with_a_documented_exit_code(tmp_path_factory, case):
    valid, data = case
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "tuple.json"
    path.write_text(json.dumps(data))
    for argv in _commands(data):
        code = main(argv + [str(path), "--output", str(root / "out.json")])
        assert code in DOCUMENTED_EXITS, (argv, data)
        # a failed internal check on a valid tuple would be a program fault
        assert not (valid and code == 4), (argv, data)
        # every tuple command refuses a floating file as an input error
        if valid and data["mode"] == "floating":
            assert code == 2, (argv, data)


def test_non_integer_sqrt_and_boolean_entries_are_input_errors(tmp_path):
    quad = tuple_to_json(z_axis_rotation_tuple([Fraction(1, 12), Fraction(5, 12)]))
    flags = [[True, False], [False, True]]
    cases = [dict(quad, sqrt=3.7), dict(quad, sqrt=True), dict(quad, sqrt="3"),
             {"mode": "exact", "dimension": 2, "matrices": [flags]},
             {"mode": "floating", "dimension": 2, "matrices": [flags]},
             dict(quad, matrices=[[[[x, False] for x in row] for row in flags]],
                  dimension=2)]
    path = tmp_path / "tuple.json"
    for data in cases:
        path.write_text(json.dumps(data))
        code = main(["obstruct", "--nmax", "1", "--tuple", str(path),
                     "--output", str(tmp_path / "out.json")])
        assert code == 2, data


# -- circle classify --angles ----------------------------------------------------

# denominators divide 24, so every r = 4 and rational r >= 5 search is on Z_24
ANGLE_DENOMINATORS = (1, 2, 3, 4, 6, 8, 12)
ANGLE_JUNK = ["", ",", "tau", "1/0,0", "0.5,0", "1/2,,", "nan,0", "1e3,0", "1/2*,0",
              "+,-", "1/2 + ,0", "2*,0", "1/20014,0", "1/47,1/53,0"]


@st.composite
def valid_angles(draw):
    def angle(q, p, offset):
        return f"{p % q}/{q}{offset}"
    one = st.builds(angle, st.sampled_from(ANGLE_DENOMINATORS), st.integers(0, 23),
                    st.sampled_from(["", "", " + tau", " - 2*tau", " + 1/2*sigma"]))
    return ",".join(draw(st.lists(one, min_size=2, max_size=6)))


@st.composite
def malformed_angles(draw):
    """A valid angle string with one character deleted, inserted or replaced
    (never by a digit, so no denominator grows), or a junk string."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(ANGLE_JUNK))
    text = draw(valid_angles())
    i = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from("/+-*., x"))
    how = draw(st.sampled_from(["delete", "insert", "replace"]))
    if how == "insert" or i == len(text):
        return text[:i] + char + text[i:]
    return text[:i] + ("" if how == "delete" else char) + text[i + 1:]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(st.tuples(st.just(True), valid_angles()),
                      st.tuples(st.just(False), malformed_angles())))
def test_circle_classify_ends_with_a_documented_exit_code(tmp_path_factory, case):
    valid, angles = case
    out = tmp_path_factory.mktemp("fuzz") / "out.json"
    code = main(["circle", "classify", "--angles", angles, "--output", str(out)])
    assert code in DOCUMENTED_EXITS, angles
    assert not valid or code == 0, angles


# -- verify-partition --desc -------------------------------------------------------


@st.composite
def valid_descriptors(draw):
    turns = draw(st.sampled_from([
        (Fraction(1, 2), Fraction(0)), (Fraction(1, 4), Fraction(0)),
        (Fraction(1, 3), Fraction(2, 3), Fraction(0)),
        (Fraction(1, 9), Fraction(2, 9), Fraction(0))]))
    arcs = classify(turns).arcs
    kind = draw(st.sampled_from(["circle", "lifted", "over_placeholder"]))
    if kind == "circle":
        desc = BaseCircleDivision(turns, arcs).to_json()
    elif kind == "lifted":
        desc = lift_from_circle(turns, arcs, draw(st.sampled_from([4, 6]))).to_json()
    else:
        desc = {"kind": "lifted", "dimension": 5, "r": len(turns),
                "lower": PlaceholderDivision(dimension=3, r=len(turns)).to_json()}
    # `lift` reports wrap the descriptor, and verify-partition accepts both
    return {"descriptor": desc} if draw(st.booleans()) else desc


@st.composite
def malformed_descriptors(draw):
    return _mutate(draw, draw(valid_descriptors()))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(st.tuples(st.just(True), valid_descriptors()),
                      st.tuples(st.just(False), malformed_descriptors())))
@example(case=(False, [1]))
@example(case=(False, "descriptor"))
@example(case=(False, {"kind": "placeholder", "dimension": True, "r": 2}))
def test_verify_partition_ends_with_a_documented_exit_code(tmp_path_factory, case):
    valid, data = case
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "desc.json"
    path.write_text(json.dumps(data))
    code = main(["verify-partition", "--samples", "50", "--desc", str(path),
                 "--output", str(root / "out.json")])
    assert code in DOCUMENTED_EXITS, data
    assert not valid or code == 0, data


# -- synth-generic --upper ----------------------------------------------------------


@st.composite
def valid_uppers(draw):
    d, r = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    upper = draw_upper_entries(np.random.default_rng(draw(st.integers(0, 99))), d, r)
    return {"dimension": d, "blocks": upper.blocks}


@st.composite
def malformed_uppers(draw):
    data = draw(valid_uppers())
    if draw(st.integers(0, 4)) == 0:
        data["blocks"][0][0][0] = float("nan")
        return data
    return _mutate(draw, data)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(st.tuples(st.just(True), valid_uppers()),
                      st.tuples(st.just(False), malformed_uppers())),
       shape_shift=st.sampled_from([(0, 0), (0, 0), (1, 0), (0, 1)]))
@example(case=(False, [1]), shape_shift=(0, 0))
def test_synth_generic_upper_ends_with_a_documented_exit_code(tmp_path_factory, case,
                                                              shape_shift):
    valid, data = case
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "upper.json"
    path.write_text(json.dumps(data))
    d, r = 3, 2
    if isinstance(data, dict) and isinstance(data.get("blocks"), list):
        d, r = data.get("dimension"), len(data["blocks"])
    d, r = (d if type(d) is int else 3) + shape_shift[0], r + shape_shift[1]
    code = main(["synth-generic", "--dim", str(d), "--r", str(r), "--word-cap", "2",
                 "--upper", str(path), "--output", str(root / "out.json")])
    assert code in DOCUMENTED_EXITS, (data, shape_shift)
    # prescribed entries that disagree with --dim or --r are an input error
    assert code == (0 if shape_shift == (0, 0) else 2) or not valid, (data, shape_shift)
