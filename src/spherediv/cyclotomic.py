"""Exact arithmetic with rational combinations of roots of unity.

A ``CycloNum`` of order N is a Q-linear combination of the N-th roots of
unity zeta^e, stored as a sparse exponent -> coefficient map.  The zero test
reduces to the canonical tensor basis of Q(zeta_N): exponents are split by CRT
across the prime-power factors of N, and within each factor p^a the relation
1 + zeta^{p^{a-1}} + ... + zeta^{(p-1)p^{a-1}} = 0 rewrites the top block.
This yields an exact, tolerance-free decision for vanishing sums of unit
vectors at rational angles: the circle classifier's cancellation test and the
closed-form circle certificates of ``obstruction.circle_det`` both rest on it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as a list of (p, exponent) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """Positive divisors of n in ascending order."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


class CycloNum:
    """Exact element of Z[zeta_N] tensor Q, as a sparse sum of roots of unity."""

    __slots__ = ("order", "terms", "_canon")

    def __init__(self, order: int, terms=None):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.terms: dict[int, Fraction] = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = Fraction(c)
                if c:
                    e %= order
                    acc = self.terms.get(e)
                    self.terms[e] = c if acc is None else acc + c
                    if not self.terms[e]:
                        del self.terms[e]
        self._canon = None

    @classmethod
    def root(cls, order: int, exponent: int) -> "CycloNum":
        return cls(order, {exponent % order: Fraction(1)})

    @classmethod
    def from_rational(cls, order: int, value) -> "CycloNum":
        return cls(order, {0: Fraction(value)})

    # -- canonical form -------------------------------------------------------

    def canonical(self):
        """Coefficients on the tensor-product integral basis of Q(zeta_N).

        Returns a sorted tuple of ((e mod p1^a1, ...), coeff) with all basis
        exponents reduced below phi(p^a) in each coordinate.  Empty tuple iff
        the value is zero.
        """
        if self._canon is not None:
            return self._canon
        facs = factorize(self.order)
        if not facs:  # order == 1
            total = sum(self.terms.values(), Fraction(0))
            self._canon = (((), total),) if total else ()
            return self._canon
        ppows = [p ** a for p, a in facs]
        cur: dict[tuple, Fraction] = {}
        for e, c in self.terms.items():
            key = tuple(e % pe for pe in ppows)
            cur[key] = cur.get(key, Fraction(0)) + c
        for k, (p, a) in enumerate(facs):
            blk = p ** (a - 1)
            top = (p - 1) * blk
            nxt: dict[tuple, Fraction] = {}
            for key, c in cur.items():
                if not c:
                    continue
                j = key[k]
                if j >= top:
                    t = j - top
                    for i in range(p - 1):
                        nk = key[:k] + (i * blk + t,) + key[k + 1:]
                        nxt[nk] = nxt.get(nk, Fraction(0)) - c
                else:
                    nxt[key] = nxt.get(key, Fraction(0)) + c
            cur = nxt
        self._canon = tuple(sorted((k, c) for k, c in cur.items() if c))
        return self._canon

    def is_zero(self) -> bool:
        """Exact zero test.

        When p^a exactly divides the order N and p exceeds the number of
        terms, the sum vanishes exactly when each class of exponents mod p^a
        vanishes on its own: zeta_N^e = zeta_N^j zeta_M^(e // p^a) for
        j = e mod p^a and M = N / p^a, and over Q(zeta_M) the only relations
        among the p^a-th roots of unity are sums over whole cosets of the
        p-th roots, each of which needs p occupied classes.  The split skips
        the p - 1 term expansion of ``canonical`` for a large prime p.
        """
        if self._canon is None:
            for p, a in factorize(self.order):
                if p > len(self.terms):
                    pe = p ** a
                    classes: dict[int, dict[int, Fraction]] = {}
                    for e, c in self.terms.items():
                        classes.setdefault(e % pe, {})[e // pe] = c
                    return all(CycloNum(self.order // pe, cls).is_zero()
                               for cls in classes.values())
        return not self.canonical()

    # -- arithmetic -----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, CycloNum):
            if other.order != self.order:
                raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            acc = out.get(e, Fraction(0)) + c
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        return CycloNum(self.order, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out: dict[int, Fraction] = {}
        n = self.order
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = (e1 + e2) % n
                acc = out.get(e, Fraction(0)) + c1 * c2
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        return CycloNum(n, out)

    __rmul__ = __mul__

    def __neg__(self):
        return CycloNum(self.order, {e: -c for e, c in self.terms.items()})

    def conjugate(self) -> "CycloNum":
        return CycloNum(self.order, {(-e) % self.order: c for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            o = self._lift(other)
            return (self - o).is_zero()
        return NotImplemented

    def __hash__(self):
        # equal numbers hash equal: a rational value (empty canonical form, or
        # only the all-zero exponent) hashes like the equal Fraction
        canon = self.canonical()
        if len(canon) == 1 and not any(canon[0][0]):
            return hash(canon[0][1])
        return hash((self.order, canon)) if canon else hash(0)

    def __complex__(self):
        tau = 2.0 * cmath.pi / self.order
        return sum((float(c) * cmath.exp(1j * tau * e) for e, c in self.terms.items()),
                   complex(0.0))

    def __float__(self):
        z = complex(self)
        if abs(z.imag) > 1e-9 * (1.0 + abs(z.real)):
            raise ValueError(f"cyclotomic value {z} is not real")
        return z.real

    def __repr__(self):
        if not self.terms:
            return f"CycloNum({self.order}, 0)"
        body = " + ".join(f"{c}*z^{e}" for e, c in sorted(self.terms.items()))
        return f"CycloNum({self.order}, {body})"


def unit_vectors_sum_is_zero(turns: list[Fraction]) -> bool:
    """Exact test: do the unit vectors at the given rational turns sum to 0?

    The sum of exp(2*pi*i*t_k) vanishes in C iff it vanishes as an element of
    the 4q-th cyclotomic integers, q the common denominator of the turns.
    """
    if not turns:
        return True
    q = 1
    for t in turns:
        f = Fraction(t)
        q = q * f.denominator // math.gcd(q, f.denominator)
    order = 4 * q
    acc = CycloNum(order)
    for t in turns:
        f = Fraction(t) % 1
        acc = acc + CycloNum.root(order, int(f * order))
    return acc.is_zero()
