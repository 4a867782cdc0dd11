"""JSON wire formats: rationals as "p/q" strings, matrices row-major, explicit
mode fields.  Rationals are always serialized with an explicit denominator so
round-trips are canonical byte-for-byte."""

from __future__ import annotations

from fractions import Fraction

from .points import RotationTuple, circle_rotation_tuple
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
    if t.mode == "floating":
        mats = [[[float(x) for x in row] for row in m] for m in t.matrices]
        return {"mode": "floating", "dimension": t.dimension, "matrices": mats}
    if t.mode == "quad":
        mats = [[[[format_fraction(x.a if isinstance(x, QuadExt) else x),
                   format_fraction(x.b if isinstance(x, QuadExt) else 0)]
                  for x in row] for row in m] for m in t.matrices]
        return {"mode": "quad", "dimension": t.dimension, "sqrt": t.sqrt_d,
                "matrices": mats}
    if t.mode == "circle":
        return {"mode": "circle", "dimension": 2,
                "turns": [format_fraction(x) for x in t.turns]}
    raise ValueError(f"unknown tuple mode {t.mode!r}")


def _list(x, length: int | None = None) -> list:
    """x, if it is a non-empty list (of the given length, if any)."""
    if not isinstance(x, list) or not x or length not in (None, len(x)):
        raise ValueError(f"expected a non-empty list{f' of length {length}' if length else ''}, "
                         f"got {x!r}")
    return x


def _entry(parse, x):
    """parse(x), with any failure on malformed input reported as ValueError."""
    try:
        return parse(x)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"bad tuple entry {x!r}: {exc}") from None


def tuple_from_json(data: dict) -> RotationTuple:
    """The rotation tuple a JSON object describes; any malformed structure
    raises ValueError.  Whether the matrices are rotations is left to
    ``points.validate_tuple``."""
    if not isinstance(data, dict):
        raise ValueError(f"a rotation tuple must be a JSON object, got {type(data).__name__}")
    mode = data.get("mode")
    if mode == "circle":
        if data.get("dimension", 2) != 2:
            raise ValueError("a circle tuple has dimension 2")
        return circle_rotation_tuple([_entry(Fraction, t) for t in _list(data.get("turns"))])
    if mode not in ("exact", "floating", "quad"):
        raise ValueError(f"unknown tuple mode {mode!r}")
    d = data.get("dimension")
    if type(d) is not int or d < 1:
        raise ValueError(f"'dimension' must be an integer >= 1, got {d!r}")
    dd = _entry(int, data.get("sqrt")) if mode == "quad" else None
    parse = {"exact": Fraction, "floating": float,
             "quad": lambda x: QuadExt(Fraction(_list(x, 2)[0]), Fraction(x[1]), dd)}[mode]
    mats = [[[_entry(parse, x) for x in _list(row, d)] for row in _list(m, d)]
            for m in _list(data.get("matrices"))]
    return RotationTuple(dimension=d, matrices=mats, mode=mode, sqrt_d=dd)
