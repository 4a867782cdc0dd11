"""Determinant certificates against fractional divisions, degree by degree.

For a rotation tuple (g_1, ..., g_r) and harmonic degree n, form the N_n x N_n
matrix L_ij = (1/N_n) sum_s P_n(v_i . (g_s v_j)) over a rational zonal basis
v_1, ..., v_{N_n}.  A nonzero exact determinant certifies that every
square-integrable f with sum_i g_i.f = 1 a.e. has vanishing degree-n harmonic
component.  A zero determinant yields an explicit witness: a kernel vector c
gives F = sum_j c_j P_n(v_j . x) with sum_i g_i.F = 0, so f = 1/r + F is a
non-constant fractional division supported at degree n.  For circle tuples
the determinant has a closed form over roots of unity (``circle_det``) that
vanishes exactly when the rotated unit vectors cancel, so the degree is
decided by the cyclotomic zero test without building L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .cyclotomic import CycloNum, unit_vectors_sum_is_zero
from .gegenbauer import gegenbauer, harmonic_dimension
from .points import RotationTuple, validate_tuple
from .scalars import is_zero_scalar, scalar_to_float
from .zonal import ZonalBasis, build_zonal_basis, pairing_matrix

FLOAT_SINGULAR_COEFF = 1e-8
WITNESS_RESIDUAL_TOL = 1e-9
WITNESS_SAMPLE_COUNT = 1000


def default_n_max(d: int) -> int:
    if d <= 3:
        return 8
    if d == 4:
        return 5
    return 3


def l_matrix(d: int, n: int, rotations: RotationTuple, basis: ZonalBasis):
    """Entry (i, j) = (1/N_n) sum_s P_n(v_i . (g_s v_j)).

    Exact and quad tuples are evaluated on integers by ``zonal.pairing_matrix``,
    floating tuples in numpy floats, a column at a time: one dot product
    v_i . (g_s v_j) per entry, and P_n by Horner's rule with float
    coefficients over the column, the same float operations as evaluating
    the rational P_n at each float.  A circle tuple has no L matrix here: its
    determinant has the closed form ``circle_det``.
    """
    if rotations.mode in ("exact", "quad"):
        return pairing_matrix(d, n, basis.points, rotations.matrices)
    if rotations.mode != "floating":
        raise ValueError(f"no L matrix for {rotations.mode} tuples")
    import numpy as np

    nn = harmonic_dimension(d, n)
    coeffs = [float(c) for c in gegenbauer(d, n).coefficients]
    mats = [np.array(m, dtype=float) for m in rotations.matrices]
    vecs = [np.array([float(c) for c in p]) for p in basis.points]
    k = len(vecs)
    out = np.zeros((k, k))
    for j in range(k):
        column = 0
        for w in (m @ vecs[j] for m in mats):
            # a matrix-vector product V w may sum in another order than the
            # dot products and change the last bits
            t = np.array([float(v @ w) for v in vecs])
            acc = np.full(k, coeffs[-1])
            for c in reversed(coeffs[:-1]):
                acc = acc * t + c
            column = column + acc
        out[:, j] = column
    return out / nn


def circle_det(rotations: RotationTuple, n: int, basis: ZonalBasis) -> CycloNum:
    """det L_n of a circle tuple in closed form, as a sum of N-th roots of unity.

    A rotation by t turns multiplies the degree-n harmonics e^{+-in theta} by
    e^{+-2 pi i n t}, so L_n = (1/2) Re(e^{in(phi_j - phi_i)} lambda_n) with
    lambda_n = sum_s zeta^{n a_s}, zeta = e^{2 pi i / N}, N = 4q and
    a_s = N t_s, and det L_n = det M_n |lambda_n|^2 for the Gram matrix M_n.
    The value is that product expanded: sum_{s,u} det M_n zeta^{n(a_s - a_u)}.
    It vanishes exactly when lambda_n does, and then L_n = 0 entrywise.
    """
    order = 4 * math.lcm(*(t.denominator for t in rotations.turns))
    exps = [int(t * order) for t in rotations.turns]
    return CycloNum(order, [(n * (a - b), basis.gram_det) for a in exps for b in exps])


@dataclass
class DegreeCertificate:
    n: int
    status: str  # "obstructed" | "witness_exists"
    det_value: str | float
    det_float: float
    note: str = ""


@dataclass
class ObstructionReport:
    dimension: int
    r: int
    mode: str
    exact: bool
    n_max: int
    degrees: list[DegreeCertificate]
    disclaimer: str
    witness_degrees: list[int] = field(default_factory=list)

    @property
    def all_obstructed(self) -> bool:
        return not self.witness_degrees

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "r": self.r,
            "mode": self.mode,
            "exact": self.exact,
            "n_max": self.n_max,
            "degrees": [{"n": c.n, "status": c.status, "det": c.det_value,
                         "det_float": c.det_float, "note": c.note}
                        for c in self.degrees],
            "witness_degrees": self.witness_degrees,
            "disclaimer": self.disclaimer,
        }


def _certify_one(rotations: RotationTuple, n: int) -> DegreeCertificate:
    d = rotations.dimension
    basis = build_zonal_basis(d, n)
    if rotations.mode == "circle":
        # det L_n = det M_n |lambda_n|^2 with det M_n > 0, so the zero test
        # of lambda_n decides the degree and circle_det only gives the value
        if unit_vectors_sum_is_zero([n * t for t in rotations.turns]):
            return DegreeCertificate(n, "witness_exists", "0", 0.0)
        detv = circle_det(rotations, n, basis)
        return DegreeCertificate(n, "obstructed", str(detv), scalar_to_float(detv))
    lm = l_matrix(d, n, rotations, basis)
    if rotations.mode == "floating":
        import numpy as np

        detf = float(np.linalg.det(lm))
        # norm floored at 1: an all-tiny matrix is as singular as they
        # come, and a bound proportional to norm^size would underflow
        # below the determinant's own rounding noise
        norm = max(1.0, float(np.max(np.abs(lm))) if lm.size else 0.0)
        threshold = FLOAT_SINGULAR_COEFF * norm ** basis.size
        status = "witness_exists" if abs(detf) <= threshold else "obstructed"
        return DegreeCertificate(n, status, detf, detf,
                                 note="inexact - rerun in exact mode")
    detv = linalg.det(lm)
    zero = is_zero_scalar(detv)
    det_float = 0.0 if zero else scalar_to_float(detv)
    status = "witness_exists" if zero else "obstructed"
    return DegreeCertificate(n, status, "0" if zero else str(detv), det_float)


def certify_degrees(rotations: RotationTuple, n_max: int | None = None) -> ObstructionReport:
    """Sweep degrees 1..n_max; exact-mode results are rigorous certificates."""
    report = validate_tuple(rotations)
    if not report.ok:
        raise ValueError("invalid rotation tuple: " + "; ".join(report.issues))
    if n_max is None:
        n_max = default_n_max(rotations.dimension)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    degrees = [_certify_one(rotations, n) for n in range(1, n_max + 1)]
    witness_degrees = [c.n for c in degrees if c.status == "witness_exists"]
    if witness_degrees:
        disclaimer = (f"certificate covers harmonic degrees 1..{n_max} only; "
                      f"fractional-division witnesses exist at degrees {witness_degrees}")
    else:
        disclaimer = (f"no non-constant fractional division supported in degrees "
                      f"1..{n_max}; degrees above {n_max} are not covered by this "
                      f"certificate")
    if rotations.mode == "floating":
        disclaimer += " (floating-point run: not a rigorous certificate)"
    return ObstructionReport(
        dimension=rotations.dimension, r=rotations.r, mode=rotations.mode,
        exact=rotations.is_exact, n_max=n_max, degrees=degrees,
        disclaimer=disclaimer, witness_degrees=witness_degrees)


@dataclass
class FractionalWitness:
    degree: int
    r: int
    coefficients: list
    points: list[tuple[Fraction, ...]]
    max_residual: float

    def evaluate_fraction(self, x) -> float:
        """Float value of f = 1/r + sum_j c_j P_n(v_j . x) at a sphere point."""
        import numpy as np

        return float(self.evaluate_many(np.asarray(x, dtype=float)[None, :])[0])

    def evaluate_many(self, xs):
        """f at each row of the float array xs, as a float array.  The dot
        products are summed coordinate by coordinate, P_n is evaluated by
        Horner's rule with float coefficients and the terms are added in
        basis order, all elementwise over the rows, so every row gets the
        same float operations, in the same order, as a one-point evaluation."""
        import numpy as np

        coeffs = [float(c) for c in gegenbauer(len(self.points[0]), self.degree).coefficients]
        val = np.full(len(xs), 1.0 / self.r)
        for c, v in zip(self.coefficients, self.points):
            t = 0
            for k, a in enumerate(v):
                t = t + float(a) * xs[:, k]
            acc = coeffs[-1]
            for b in reversed(coeffs[:-1]):
                acc = acc * t + b
            val = val + scalar_to_float(c) * acc
        return val

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "r": self.r,
            "coefficients": [str(c) for c in self.coefficients],
            "points": [[f"{c.numerator}/{c.denominator}" for c in p] for p in self.points],
            "max_residual": self.max_residual,
        }


def obstructed_degree_error(n: int) -> ValueError:
    return ValueError(f"degree {n} is obstructed: det L != 0, no witness exists")


def extract_witness(rotations: RotationTuple, n: int,
                    samples: int = WITNESS_SAMPLE_COUNT, seed: int = 0) -> FractionalWitness:
    """Exact kernel witness at degree n; fails when the degree is obstructed.

    The returned coefficients satisfy sum_i g_i.F = 0 for
    F = sum_j c_j P_n(v_j . x); the packaged f = 1/r + F sums to 1 under the
    tuple.  Validated at ``samples`` random sphere points.
    """
    if not rotations.is_exact:
        raise ValueError("witness extraction requires an exact-mode tuple")
    if n < 1:
        raise ValueError("witnesses exist only at degrees n >= 1")
    d = rotations.dimension
    basis = build_zonal_basis(d, n)
    if rotations.mode == "circle":
        if not unit_vectors_sum_is_zero([n * t for t in rotations.turns]):
            raise obstructed_degree_error(n)
        # L_n vanishes entrywise with lambda_n, so the canonical kernel vector
        # keeps only the first basis point
        order = circle_det(rotations, n, basis).order
        coeffs = [CycloNum.from_rational(order, 1), CycloNum(order)]
    else:
        # the kernel is trivial exactly when L is nonsingular
        coeffs = linalg.kernel_vector(l_matrix(d, n, rotations, basis))
        if coeffs is None:
            raise obstructed_degree_error(n)
    witness = FractionalWitness(degree=n, r=rotations.r, coefficients=coeffs,
                                points=basis.points, max_residual=0.0)
    witness.max_residual = _validate_witness(rotations, witness, samples, seed)
    if witness.max_residual > WITNESS_RESIDUAL_TOL:
        raise ArithmeticError(
            f"witness residual {witness.max_residual:.3e} exceeds {WITNESS_RESIDUAL_TOL}")
    return witness


def _validate_witness(rotations: RotationTuple, witness: FractionalWitness,
                      samples: int, seed: int) -> float:
    """Largest |sum_i f(g_i^{-1} x) - 1| over ``samples`` seeded random unit x."""
    import numpy as np

    d = rotations.dimension
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(samples, d))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    total = 0
    for i in range(rotations.r):
        m = np.array([[scalar_to_float(x) for x in row] for row in rotations.inverse_matrix(i)])
        # one matrix-vector product per sample: a matrix product over all
        # samples may sum in another order and change max_residual's digits
        images = np.array([m @ x for x in xs]).reshape(samples, d)
        total = total + witness.evaluate_many(images)
    return float(np.max(np.abs(total - 1.0), initial=0.0))
