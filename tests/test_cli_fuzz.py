"""Fuzz the tuple commands of the CLI with valid and malformed tuple files.

Every run must end with a documented exit code (0, 2, 3 or 4) and never let
an exception escape ``cli.main``.
"""

import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from spherediv.cli import main
from spherediv.points import (cayley_rotation, circle_rotation_tuple,
                              exact_tuple, floating_tuple, z_axis_rotation_tuple)
from spherediv.serialize import tuple_to_json

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
    t = exact_tuple(mats) if kind == "exact" else floating_tuple(mats)
    return tuple_to_json(t)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


@st.composite
def malformed_tuples(draw):
    """A valid tuple with one node replaced or removed, or a junk top level."""
    data = draw(valid_tuples())
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
