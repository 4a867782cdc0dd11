"""Gegenbauer polynomials, harmonic-space dimensions, weighted pairings.

For dimension d >= 2 the polynomials P_n are orthogonal on [-1, 1] under the
weight (1 - t^2)^((d-3)/2) and normalized so P_n(1) = 1 (Legendre for d = 3,
Chebyshev for d = 2).  Coefficients are exact rationals throughout; the
weighted inner product is taken against normalized even moments so no
transcendental surface-area constant ever enters an exact decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True)
class RationalPolynomial:
    """Univariate polynomial with exact rational coefficients, ascending degree."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1 if self.coefficients else 0

    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, t):
        return evaluate(self, t)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return RationalPolynomial(tuple(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "RationalPolynomial":
        c = Fraction(c)
        return RationalPolynomial(tuple(c * x for x in self.coefficients))

    def to_json(self) -> list[str]:
        return [f"{c.numerator}/{c.denominator}" for c in self.coefficients]

    @classmethod
    def from_json(cls, data: list[str]) -> "RationalPolynomial":
        return cls(tuple(Fraction(s) for s in data))


T_POLYNOMIAL = RationalPolynomial((Fraction(0), Fraction(1)))


def evaluate(p: RationalPolynomial, t):
    """Horner evaluation; exact for exact scalar arguments."""
    if p.is_zero():
        return Fraction(0) if isinstance(t, (int, Fraction)) else zero_of(t)
    acc = p.coefficients[-1]
    for c in reversed(p.coefficients[:-1]):
        acc = acc * t + c
    return acc


def zero_of(t):
    if isinstance(t, float):
        return 0.0
    return t - t


@lru_cache(maxsize=None)
def gegenbauer(d: int, n: int) -> RationalPolynomial:
    """Degree-n Gegenbauer polynomial for dimension d, with P_n(1) = 1.

    In closed form, with no recursion over the degree: the leading
    coefficient is prod_{m=1}^{n-1} (2m + d - 2) / (m + d - 2), and each next
    coefficient of the parity of n is
        c_{n-2k-2} = -c_{n-2k} (n - 2k)(n - 2k - 1) / (2 (k + 1)(2n - 2k + d - 4)).
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if n < 0:
        raise ValueError("degree must be >= 0")
    c = Fraction(1)
    for m in range(1, n):
        c *= Fraction(2 * m + d - 2, m + d - 2)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = c
    for k in range(n // 2):
        j = n - 2 * k
        c = -c * Fraction(j * (j - 1), 2 * (k + 1) * (2 * n - 2 * k + d - 4))
        coeffs[j - 2] = c
    return RationalPolynomial(tuple(coeffs))


@lru_cache(maxsize=None)
def integer_form(d: int, n: int) -> tuple[tuple[int, ...], int]:
    """(c, q) with P_n(t) = t^p * sum_j c[j] t^(2j) / q, where p = n mod 2.

    P_n has the parity of n, so only every other coefficient is kept; all of
    them are integers over the common denominator q.
    """
    coeffs = gegenbauer(d, n).coefficients[n % 2::2]
    q = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (q // c.denominator) for c in coeffs), q


def harmonic_dimension(d: int, n: int) -> int:
    """Dimension of the space of degree-n spherical harmonics on S^{d-1}."""
    if d < 2 or n < 0:
        raise ValueError("need d >= 2 and n >= 0")
    first = math.comb(d + n - 1, n)
    second = math.comb(d + n - 3, n - 2) if n >= 2 else 0
    return first - second


@lru_cache(maxsize=None)
def normalized_moment(d: int, k: int) -> Fraction:
    """mu_k = m_k / m_0 for the weight (1 - t^2)^((d-3)/2) on [-1, 1].

    mu_0 = 1, odd moments vanish, and mu_{k+2} = mu_k * (k+1) / (k+d).
    """
    if d < 2 or k < 0:
        raise ValueError("need d >= 2 and k >= 0")
    if k % 2 == 1:
        return Fraction(0)
    if k == 0:
        return Fraction(1)
    return normalized_moment(d, k - 2) * Fraction(k - 1, k - 2 + d)


def weighted_inner_product(d: int, p: RationalPolynomial, q: RationalPolynomial) -> Fraction:
    """Exact pairing of p and q in L^2([-1,1], rho dt), normalized by the mass."""
    total = Fraction(0)
    for i, a in enumerate(p.coefficients):
        if a == 0:
            continue
        for j, b in enumerate(q.coefficients):
            if b == 0 or (i + j) % 2 == 1:
                continue
            total += a * b * normalized_moment(d, i + j)
    return total
