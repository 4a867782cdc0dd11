"""Exact linear algebra over Q and Q(sqrt(D)).

Determinants clear each row's denominators and run fraction-free (Bareiss)
elimination on plain Python ints, or on integer pairs for Z[sqrt(D)].
Kernels, ranks and inverses go through exact reduced row echelon form.
Products and identities also take ``CycloNum`` entries (circle rotations),
but nothing here takes a determinant over roots of unity.  Nothing here ever
rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import QuadExt, is_zero_scalar


def zero_like(x):
    return x - x


def one_like(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(1)
    if isinstance(x, QuadExt):
        return QuadExt(1, 0, x.d)
    from .cyclotomic import CycloNum

    if isinstance(x, CycloNum):
        return CycloNum.from_rational(x.order, 1)
    raise TypeError(f"no multiplicative identity for {type(x).__name__}")


def identity_matrix(n: int, like=Fraction(1)):
    one = one_like(like)
    zero = zero_like(like)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(1, k)), a[i][0] * b[0][j])
             for j in range(m)] for i in range(n)]


def mat_vec(a, v):
    n, k = len(a), len(v)
    return [sum((a[i][t] * v[t] for t in range(1, k)), a[i][0] * v[0]) for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def clear_denominators(values) -> tuple[list[int], int]:
    """(a, q) with values[k] = a[k] / q: ints or Fractions over their least
    common denominator q."""
    q = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (q // x.denominator) for x in values], q


def clear_quadratic_denominators(values) -> tuple[list[int], list[int], int]:
    """(a, b, q) with values[k] = (a[k] + b[k] sqrt(D)) / q for QuadExt, Fraction
    or int values, q the least common denominator of all their parts."""
    parts = [(x.a, x.b) if isinstance(x, QuadExt) else (x, 0) for x in values]
    q = math.lcm(*(c.denominator for pair in parts for c in pair))
    return ([x.numerator * (q // x.denominator) for x, _ in parts],
            [y.numerator * (q // y.denominator) for _, y in parts], q)


def _bareiss(a) -> int:
    """Determinant of a square integer matrix by Bareiss elimination, in place.

    Every entry after step k is a (k+1)-minor of the input, so the division by
    the previous pivot is exact.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            row[k + 1:] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return sign * a[n - 1][n - 1]


def _bareiss_quad(a, b, dd: int):
    """Determinant of the matrix a + b*sqrt(dd) over Z[sqrt(dd)], in place.

    As in ``_bareiss`` every intermediate entry is a minor, hence lies in
    Z[sqrt(dd)]; dividing by the previous pivot p means multiplying by its
    conjugate and dividing both parts by the norm N(p), which is exact.
    """
    n = len(a)
    sign = 1
    pa, pb, norm = 1, 0, 1
    for k in range(n - 1):
        if a[k][k] == 0 and b[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0 or b[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    b[k], b[i] = b[i], b[k]
                    sign = -sign
                    break
            else:
                return 0, 0
        ka, kb = a[k][k], b[k][k]
        tail_a, tail_b = a[k][k + 1:], b[k][k + 1:]
        for i in range(k + 1, n):
            row_a, row_b = a[i], b[i]
            fa, fb = row_a[k], row_b[k]
            new_a, new_b = [], []
            for xa, xb, ya, yb in zip(row_a[k + 1:], row_b[k + 1:], tail_a, tail_b):
                # u = x * pivot - f * y, then u / p = u * conj(p) / N(p)
                ua = xa * ka + dd * xb * kb - fa * ya - dd * fb * yb
                ub = xa * kb + xb * ka - fa * yb - fb * ya
                new_a.append((ua * pa - dd * ub * pb) // norm)
                new_b.append((ub * pa - ua * pb) // norm)
            row_a[k + 1:] = new_a
            row_b[k + 1:] = new_b
        pa, pb = ka, kb
        norm = ka * ka - dd * kb * kb
    return sign * a[n - 1][n - 1], sign * b[n - 1][n - 1]


def det_rational(m) -> Fraction:
    """Exact determinant of a square matrix of ints and Fractions.

    Each row is scaled by its common denominator q_i, the integer determinant
    is taken by Bareiss elimination, and the result is divided by prod q_i.
    """
    rows, scale = [], 1
    for row in m:
        ints, q = clear_denominators(row)
        rows.append(ints)
        scale *= q
    return Fraction(_bareiss(rows), scale)


def det_quadratic(m, dd: int) -> QuadExt:
    """Exact determinant of a square matrix over Q(sqrt(dd)).

    Entries may be QuadExt (of this dd), Fraction or int.  Rows are cleared of
    denominators as in ``det_rational`` and eliminated over Z[sqrt(dd)].
    """
    rows_a, rows_b, scale = [], [], 1
    for row in m:
        a, b, q = clear_quadratic_denominators(row)
        rows_a.append(a)
        rows_b.append(b)
        scale *= q
    da, db = _bareiss_quad(rows_a, rows_b, dd)
    return QuadExt(Fraction(da, scale), Fraction(db, scale), dd)


def det(m):
    """Exact determinant.

    Matrices of ints and Fractions go to ``det_rational``, matrices with
    Q(sqrt(D)) entries to ``det_quadratic`` (the value is a QuadExt); any
    other entry type raises TypeError.
    """
    n = len(m)
    if n == 0:
        return Fraction(1)
    dd = None
    for row in m:
        for x in row:
            if isinstance(x, QuadExt):
                if dd is None:
                    dd = x.d
                elif x.d != dd:
                    raise ValueError(f"mixed quadratic fields: sqrt({dd}) vs sqrt({x.d})")
            elif not isinstance(x, (int, Fraction)):
                raise TypeError(f"no exact determinant over {type(x).__name__} entries")
    if dd is None:
        return det_rational(m)
    return det_quadratic(m, dd)


def rref(m):
    """Exact reduced row echelon form; returns (rows, pivot_columns)."""
    a = [list(row) for row in m]
    if not a:
        return a, []
    rows, cols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if not is_zero_scalar(a[i][c]):
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and not is_zero_scalar(a[i][c]):
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m) -> int:
    return len(rref(m)[1])


def nullspace(m):
    """Exact basis of the right kernel, one vector per free column."""
    if not m:
        return []
    cols = len(m[0])
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    zero = zero_like(m[0][0])
    one = one_like(m[0][0])
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def kernel_vector(m):
    """One exact nonzero kernel vector, or None if the kernel is trivial.

    Deterministic: the first free column (lowest index) gets coefficient 1.
    """
    basis = nullspace(m)
    return basis[0] if basis else None


def solve(a, b):
    """Solve a x = b exactly; returns None when inconsistent (a need not be square)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    zero = zero_like(aug[0][0]) if rows else Fraction(0)
    x = [zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def inverse(m):
    n = len(m)
    aug = [list(m[i]) + list(identity_matrix(n, like=m[0][0])[i]) for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]
