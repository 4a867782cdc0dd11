"""Zonal harmonic machinery: Gram matrices and rational-point bases.

The function x |-> P_n(v . x) spans, over varying unit v, the whole space of
degree-n spherical harmonics.  This module greedily selects rational points
v_1, ..., v_{N_n} whose zonal functions are linearly independent, certified by
exact positivity of Schur complements of the Gram matrix
M_ij = P_n(v_i . v_j) / N_n.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .gegenbauer import evaluate, gegenbauer, harmonic_dimension, integer_form
from .points import BudgetExceeded, enumerate_points, is_unit_point, parameter_height
from .scalars import QuadExt

ENUMERATION_ORDER_VERSION = 1
DEFAULT_BUDGET_FACTOR = 10

_cache: dict[tuple[int, int], "ZonalBasis"] = {}


def dot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def zonal_evaluate(d: int, n: int, v, x):
    """P_n(v . x); exact for exact inputs."""
    return evaluate(gegenbauer(d, n), dot(v, x))


def _homogeneous(coeffs, odd: int, x: int, y: int) -> int:
    """H(x, y) = x^odd * sum_t coeffs[t] x^(2t) y^(2(m - t)), so that
    P_n(x / y) = H(x, y) / (q y^n) for (coeffs, q) = integer_form(d, n)."""
    xx, yy = x * x, y * y
    acc, power = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        power *= yy
        acc = acc * xx + c * power
    return acc * x if odd else acc


def _homogeneous_quadratic(coeffs, odd: int, xa: int, xb: int, y: int, dd: int):
    """``_homogeneous`` at x = xa + xb sqrt(dd), as the pair of integer parts."""
    sa, sb = xa * xa + dd * xb * xb, 2 * xa * xb
    yy = y * y
    acc_a, acc_b, power = coeffs[-1], 0, 1
    for c in reversed(coeffs[:-1]):
        power *= yy
        acc_a, acc_b = acc_a * sa + dd * acc_b * sb + c * power, acc_a * sb + acc_b * sa
    if odd:
        return acc_a * xa + dd * acc_b * xb, acc_a * xb + acc_b * xa
    return acc_a, acc_b


def pairing_matrix(d: int, n: int, pts, matrices) -> list[list]:
    """Entry (i, j) = (1/N_n) sum_s P_n(v_i . (g_s v_j)) for rational points v_i
    and exact matrices g_s over Q or one Q(sqrt(D)).

    Computed on plain ints: with v_i = a_i / q_i and g_s = G_s / den,
    v_i . (g_s v_j) = x / y for x = a_i . (G_s a_j) and y = q_i q_j den, and
    P_n(x / y) = H(x, y) / (c y^n) with H the homogenised integer form of
    P_n.  For Q(sqrt(D)) entries x is an integer pair x_a + x_b sqrt(D).
    Entries are Fractions, or QuadExt when any matrix entry is one.
    """
    fields = {x.d for g in matrices for row in g for x in row if isinstance(x, QuadExt)}
    if len(fields) > 1:
        raise ValueError(f"mixed quadratic fields {sorted(fields)}")
    dd = fields.pop() if fields else None
    flat = [x for g in matrices for row in g for x in row]
    if dd is None:
        flat_a, den = linalg.clear_denominators(flat)
    else:
        flat_a, flat_b, den = linalg.clear_quadratic_denominators(flat)
    vecs = [linalg.clear_denominators(p) for p in pts]

    def images(flat_part):
        """[j][s] -> G_s a_j for one part (rational or sqrt(D)) of the G_s."""
        mats = [[flat_part[k:k + d] for k in range(s, s + d * d, d)]
                for s in range(0, len(flat_part), d * d)]
        return [[[sum(map(operator.mul, row, a)) for row in g] for g in mats]
                for a, _ in vecs]

    images_a = images(flat_a)
    images_b = images(flat_b) if dd is not None else [None] * len(vecs)
    nn = harmonic_dimension(d, n)
    coeffs, c_den = integer_form(d, n)
    odd = n % 2
    out = []
    for a_i, q_i in vecs:
        out_row = []
        for (_, q_j), img_a, img_b in zip(vecs, images_a, images_b):
            y = q_i * q_j * den
            total_den = nn * c_den * y ** n
            xs_a = [sum(map(operator.mul, a_i, w)) for w in img_a]
            if dd is None:
                total = sum(_homogeneous(coeffs, odd, x, y) for x in xs_a)
                out_row.append(Fraction(total, total_den))
                continue
            ta = tb = 0
            for xa, w in zip(xs_a, img_b):
                ha, hb = _homogeneous_quadratic(coeffs, odd, xa,
                                                sum(map(operator.mul, a_i, w)), y, dd)
                ta += ha
                tb += hb
            out_row.append(QuadExt(Fraction(ta, total_den), Fraction(tb, total_den), dd))
        out.append(out_row)
    return out


def gram_matrix(d: int, n: int, pts) -> list[list[Fraction]]:
    """Gram matrix of the zonal functions at pts: entry (i,j) = P_n(v_i.v_j)/N_n."""
    return pairing_matrix(d, n, pts, [linalg.identity_matrix(d)])


@dataclass
class ZonalBasis:
    d: int
    n: int
    points: list[tuple[Fraction, ...]]
    gram: list[list[Fraction]]
    gram_det: Fraction

    @property
    def size(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "order_version": ENUMERATION_ORDER_VERSION,
            "points": [[f"{c.numerator}/{c.denominator}" for c in p] for p in self.points],
            "gram": [[f"{c.numerator}/{c.denominator}" for c in row] for row in self.gram],
            "gram_det": f"{self.gram_det.numerator}/{self.gram_det.denominator}",
        }

    @classmethod
    def from_json(cls, data: dict) -> "ZonalBasis":
        return cls(
            d=data["d"], n=data["n"],
            points=[tuple(Fraction(c) for c in p) for p in data["points"]],
            gram=[[Fraction(c) for c in row] for row in data["gram"]],
            gram_det=Fraction(data["gram_det"]),
        )


def _greedy_select(d: int, n: int, candidates) -> ZonalBasis:
    """Accept each candidate whose zonal function raises the rank of the Gram
    matrix, until there are N_n.

    With v_i = a_i / q_i the Gram matrix is G = S H S / (c N_n) for the
    symmetric integer matrix H_ij = H(a_i . a_j, q_i q_j) and the positive
    diagonal S = diag(q_i^-n), so the sign of the Schur complement of a
    candidate is the sign of det H over the accepted points plus the
    candidate.  That determinant is the last pivot of fraction-free (Bareiss)
    elimination of the candidate's row against the accepted rows; by symmetry
    the candidate's own partially eliminated entries supply the matching new
    column of the accepted rows, which are stored for later candidates.
    """
    nn = harmonic_dimension(d, n)
    coeffs, c_den = integer_form(d, n)
    odd = n % 2
    accepted: list[tuple[Fraction, ...]] = []
    scaled = []     # (a_i, q_i) of the accepted points
    h_rows = []     # h_rows[i][j] = H_ij for j <= i
    pivots = [1]    # pivots[k] = det of the leading k x k block of H
    eliminated = []  # eliminated[k][j - k - 1] = row k of H after k steps, column j
    for v in candidates:
        if len(accepted) == nn:
            break
        a, q = linalg.clear_denominators(v)
        h = [_homogeneous(coeffs, odd, sum(map(operator.mul, a, b)), q * qb)
             for b, qb in scaled]
        h.append(c_den * q ** (2 * n))  # H_vv, i.e. G_vv = 1/N_n as for a unit point
        k_new = len(accepted)
        r = list(h)
        column = []
        for k in range(k_new):
            column.append(r[k])
            pivot, prev, row_k = pivots[k + 1], pivots[k], eliminated[k]
            for j in range(k + 1, k_new):
                r[j] = (r[j] * pivot - r[k] * row_k[j - k - 1]) // prev
            r[k_new] = (r[k_new] * pivot - r[k] * r[k]) // prev
        if r[k_new] == 0:
            continue
        if r[k_new] < 0:
            raise ArithmeticError("Gram matrix lost positive semidefiniteness")
        for k in range(k_new):
            eliminated[k].append(column[k])
        eliminated.append([])
        pivots.append(r[k_new])
        h_rows.append(h)
        scaled.append((a, q))
        accepted.append(v)
    if len(accepted) < nn:
        raise BudgetExceeded(
            f"point budget exhausted with {len(accepted)} of {nn} basis points "
            f"for (d={d}, n={n}); raise the budget factor")
    scale = c_den * nn
    powers = [q ** n for _, q in scaled]
    gram = [[Fraction(h_rows[max(i, j)][min(i, j)], scale * powers[i] * powers[j])
             for j in range(nn)] for i in range(nn)]
    gram_det = Fraction(pivots[-1], scale ** nn * math.prod(powers) ** 2)
    return ZonalBasis(d=d, n=n, points=accepted, gram=gram, gram_det=gram_det)


def build_zonal_basis(d: int, n: int, points=None,
                      budget_factor: int = DEFAULT_BUDGET_FACTOR) -> ZonalBasis:
    """Greedy rational-point basis of the degree-n harmonics on S^{d-1}.

    Candidate points are accepted exactly when they strictly increase the rank
    of the zonal Gram matrix (positive exact Schur complement).  Without
    ``points`` the candidates are the first budget_factor * N_n enumerated
    points, and the result is ``build_zonal_bases(d, [n])[0]``.
    """
    if points is not None:
        return _greedy_select(d, n, points)
    return build_zonal_bases(d, [n], budget_factor)[0]


def build_zonal_bases(d: int, degrees, budget_factor: int = DEFAULT_BUDGET_FACTOR
                      ) -> list[ZonalBasis]:
    """The default bases of the given degrees, in order.

    Each comes from the in-memory cache, else from $SPHEREDIV_CACHE_DIR, else
    is built and stored in both.  The degrees to build are grouped by the
    parameter height their candidate count walks: one enumeration per group,
    at the group's largest count, and each degree takes its own prefix (see
    ``points.parameter_height``).  A degree past the enumeration budget raises
    BudgetExceeded after the degrees before it are built, as a sweep of
    single-degree calls would.
    """
    degrees = list(degrees)
    found = {}
    for n in degrees:
        basis = _cache.get((d, n))
        if basis is None:
            basis = _load_disk_cache(d, n)
        if basis is not None:
            found[n] = _cache[(d, n)] = basis
    groups: dict[int, list[int]] = {}
    failure = None
    for n in dict.fromkeys(n for n in degrees if n not in found):
        try:
            h = parameter_height(d, budget_factor * harmonic_dimension(d, n))
        except BudgetExceeded as exc:
            failure = exc
            break
        groups.setdefault(h, []).append(n)
    for group in groups.values():
        counts = [budget_factor * harmonic_dimension(d, n) for n in group]
        pts = enumerate_points(d, max(counts))
        for n, count in zip(group, counts):
            basis = _greedy_select(d, n, pts[:count])
            _store_disk_cache(basis)
            found[n] = _cache[(d, n)] = basis
    if failure is not None:
        raise failure
    return [found[n] for n in degrees]


def clear_cache() -> None:
    _cache.clear()


def _cache_path(d: int, n: int) -> str | None:
    root = os.environ.get("SPHEREDIV_CACHE_DIR")
    if not root:
        return None
    return os.path.join(root, f"zonal-basis-d{d}-n{n}-v{ENUMERATION_ORDER_VERSION}.json")


def _load_disk_cache(d: int, n: int) -> ZonalBasis | None:
    """The cached basis for (d, n), or None when the file is missing or fails
    any check (it is then rebuilt and overwritten)."""
    path = _cache_path(d, n)
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or data.get("order_version") != ENUMERATION_ORDER_VERSION:
            return None
        basis = ZonalBasis.from_json(data)
        return basis if _is_sound(basis, d, n) else None
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
        return None


def _is_sound(basis: ZonalBasis, d: int, n: int) -> bool:
    """Do the stored points form a basis for (d, n) with the stored Gram data?

    The Gram matrix is recomputed from the points and must equal the stored
    one; its exact determinant must equal the stored, positive gram_det.
    """
    if (basis.d, basis.n) != (d, n) or len(basis.points) != harmonic_dimension(d, n):
        return False
    if any(len(p) != d or not is_unit_point(p) for p in basis.points):
        return False
    if basis.gram_det <= 0:
        return False
    gram = gram_matrix(d, n, basis.points)
    return gram == basis.gram and linalg.det_rational(gram) == basis.gram_det


def _store_disk_cache(basis: ZonalBasis) -> None:
    """Write the basis under a temporary name, then rename it into place, so a
    reader never sees a partly written file."""
    path = _cache_path(basis.d, basis.n)
    if not path:
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(basis.to_json(), fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
