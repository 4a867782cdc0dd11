"""JSON wire formats: rationals as "p/q" strings, matrices row-major, explicit
mode fields.  Rationals are always serialized with an explicit denominator so
round-trips are canonical byte-for-byte."""

from __future__ import annotations

from fractions import Fraction

from .points import MODES, RotationTuple, circle_rotation_tuple
from .scalars import QuadExt


def format_fraction(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def point_to_json(p) -> list[str]:
    return [format_fraction(c) for c in p]


def tuple_to_json(t: RotationTuple) -> dict:
    if t.mode == "exact":
        mats = [[[format_fraction(x) for x in row] for row in m] for m in t.matrices]
        return {"mode": "exact", "dimension": t.dimension, "matrices": mats}
    if t.mode == "quad":
        mats = [[[[format_fraction(x.a if isinstance(x, QuadExt) else x),
                   format_fraction(x.b if isinstance(x, QuadExt) else 0)]
                  for x in row] for row in m] for m in t.matrices]
        return {"mode": "quad", "dimension": t.dimension, "sqrt": t.sqrt_d,
                "matrices": mats}
    return {"mode": "circle", "dimension": 2, "turns": [format_fraction(x) for x in t.turns]}


def json_list(x, length: int | None = None) -> list:
    """x, if it is a non-empty list (of the given length, if any)."""
    if not isinstance(x, list) or not x or length not in (None, len(x)):
        raise ValueError(f"expected a non-empty list{f' of length {length}' if length else ''}, "
                         f"got {x!r}")
    return x


def json_int(data: dict, key: str, minimum: int) -> int:
    """data[key], if it is an integer >= minimum (a JSON boolean is not)."""
    x = data.get(key)
    if type(x) is not int or x < minimum:
        raise ValueError(f"{key!r} must be an integer >= {minimum}, got {x!r}")
    return x


def json_entry(parse, x):
    """parse(x), with any failure on malformed input reported as ValueError."""
    try:
        return parse(x)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"bad entry {x!r}: {exc}") from None


def json_number(x):
    """x, unless it is a JSON boolean (which Python would read as 0 or 1)."""
    if isinstance(x, bool):
        raise ValueError("a boolean is not a number")
    return x


def tuple_from_json(data: dict) -> RotationTuple:
    """The rotation tuple a JSON object describes; a malformed structure, a
    floating tuple (`synth-generic` prints one, to be read, not decided) and
    matrices that are not exact rotations all raise ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a rotation tuple must be a JSON object, got {type(data).__name__}")
    mode = data.get("mode")
    if mode == "floating":
        raise ValueError(f"floating tuples are not accepted here; accepted modes: "
                         f"{', '.join(MODES)}")
    if mode == "circle":
        if data.get("dimension", 2) != 2:
            raise ValueError("a circle tuple has dimension 2")
        turns = json_list(data.get("turns"))
        return circle_rotation_tuple([json_entry(Fraction, t) for t in turns])
    if mode not in MODES:
        raise ValueError(f"unknown tuple mode {mode!r}")
    d = json_int(data, "dimension", 1)
    dd = json_int(data, "sqrt", 2) if mode == "quad" else None
    parse = {"exact": lambda x: Fraction(json_number(x)),
             "quad": lambda x: QuadExt(Fraction(json_number(json_list(x, 2)[0])),
                                       Fraction(json_number(x[1])), dd)}[mode]
    mats = [[[json_entry(parse, x) for x in json_list(row, d)] for row in json_list(m, d)]
            for m in json_list(data.get("matrices"))]
    return RotationTuple(dimension=d, matrices=mats, mode=mode, sqrt_d=dd)
