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


def tuple_from_json(data: dict) -> RotationTuple:
    if not isinstance(data, dict):
        raise ValueError(f"a rotation tuple must be a JSON object, got {type(data).__name__}")
    mode = data.get("mode")
    if mode == "exact":
        mats = [[[Fraction(x) for x in row] for row in m] for m in data["matrices"]]
        return RotationTuple(dimension=data["dimension"], matrices=mats, mode="exact")
    if mode == "floating":
        mats = [[[float(x) for x in row] for row in m] for m in data["matrices"]]
        return RotationTuple(dimension=data["dimension"], matrices=mats, mode="floating")
    if mode == "quad":
        dd = int(data["sqrt"])
        mats = [[[QuadExt(Fraction(x[0]), Fraction(x[1]), dd) for x in row]
                 for row in m] for m in data["matrices"]]
        return RotationTuple(dimension=data["dimension"], matrices=mats, mode="quad",
                             sqrt_d=dd)
    if mode == "circle":
        return circle_rotation_tuple([Fraction(t) for t in data["turns"]])
    raise ValueError(f"unknown tuple mode {mode!r}")
