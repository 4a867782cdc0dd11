"""Exact scalar arithmetic beyond the rationals.

Exact linear algebra in this package runs over two scalar domains: plain
``fractions.Fraction`` and the real quadratic field Q(sqrt(D)) implemented
here.  Sums of roots of unity (``cyclotomic.CycloNum``, the circle tuples)
are only multiplied, added and tested for zero, never eliminated over.
Determinants, kernels, zero and sign tests never touch floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction


class QuadExt:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    ``d`` is a fixed positive non-square integer per value; mixing distinct
    d's raises.  Supports exact field arithmetic, exact sign and hashing, and
    interoperates with int / Fraction on either side.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        if d <= 0 or math.isqrt(d) ** 2 == d:
            raise ValueError(f"d must be a positive non-square integer, got {d}")
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d

    # -- coercion -----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(f"mixed quadratic fields: sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a * o.a + self.d * self.b * o.b,
                       self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - self.d * o.b * o.b
        if norm == 0:
            if o.a == 0 and o.b == 0:
                raise ZeroDivisionError("division by zero in Q(sqrt(d))")
            raise ZeroDivisionError("d must be non-square")  # unreachable for non-square d
        # multiply by the conjugate (a - b sqrt(d)) / norm
        return self * QuadExt(o.a / norm, -o.b / norm, self.d)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d) as a real number."""
        a, b = self.a, self.b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with d b^2
        lhs, rhs = a * a, self.d * b * b
        if lhs == rhs:
            return 0  # cannot happen for non-square d, kept for safety
        bigger_is_a = lhs > rhs
        return (1 if a > 0 else -1) if bigger_is_a else (1 if b > 0 else -1)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        return not self.__le__(other)

    def __ge__(self, other):
        return not self.__lt__(other)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, sqrt{self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*sqrt({self.d})"


# -- generic helpers used by the exact linear algebra -------------------------


def is_zero_scalar(x) -> bool:
    """Exact zero test across all scalar domains used in this package."""
    if isinstance(x, (int, Fraction)):
        return x == 0
    if hasattr(x, "is_zero"):
        return x.is_zero()
    raise TypeError(f"no exact zero test for {type(x).__name__}")


def sign_scalar(x) -> int:
    """Exact sign for ordered scalars (Fraction, int, QuadExt)."""
    if isinstance(x, (int, Fraction)):
        return 0 if x == 0 else (1 if x > 0 else -1)
    if isinstance(x, QuadExt):
        return x.sign()
    raise TypeError(f"no exact sign for {type(x).__name__}")


def scalar_to_float(x) -> float:
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, Fraction):
        return x.numerator / x.denominator
    if isinstance(x, QuadExt):
        return float(x)
    if hasattr(x, "__complex__"):
        z = complex(x)
        if abs(z.imag) > 1e-9 * (1.0 + abs(z.real)):
            raise ValueError(f"scalar has non-real value {z}")
        return z.real
    raise TypeError(f"cannot convert {type(x).__name__} to float")
