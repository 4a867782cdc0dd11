"""Determinant certificates against fractional divisions, degree by degree.

For a rotation tuple (g_1, ..., g_r) and harmonic degree n, form the N_n x N_n
matrix L_ij = (1/N_n) sum_s P_n(v_i . (g_s v_j)) over a rational zonal basis
v_1, ..., v_{N_n}.  A nonzero exact determinant certifies that every
square-integrable f with sum_i g_i.f = 1 a.e. has vanishing degree-n harmonic
component.  A zero determinant yields an explicit witness: a kernel vector c
gives F = sum_j c_j P_n(v_j . x) with sum_i g_i.F = 0, so f = 1/r + F is a
non-constant fractional division supported at degree n.

L_n = M_n [T_n] for the Gram matrix M_n of the basis and the matrix [T_n] of
T_n = sum_s rho_n(g_s) on the degree-n harmonics H_n, so det L_n =
det M_n det T_n.  Two cases have det T_n in closed form, and L is not built
for them.  For circle tuples it is a sum of roots of unity (``circle_det``)
that vanishes exactly when the rotated unit vectors cancel, so the degree is
decided by the cyclotomic zero test.  For exact and quad pairs in d = 3 and
4 it is det(I + rho_n(g_1^T g_2)), a product over the torus weights of H_n
in the cosines of the rotation angles (``pair_det``).  Every other tuple, and
every witness, goes through L.  Float matrices (``synthesis`` completions)
get only the determinant-free ``near_identity_certificate`` near I.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .cyclotomic import CycloNum, unit_vectors_sum_is_zero
from .gegenbauer import gegenbauer
from .points import RotationTuple
from .scalars import QuadExt, is_zero_scalar, scalar_to_float, sign_scalar
from .serialize import format_fraction
from .zonal import ZonalBasis, build_zonal_bases, build_zonal_basis, pairing_matrix

WITNESS_RESIDUAL_TOL = 1e-9
WITNESS_SAMPLE_COUNT = 1000


def default_n_max(d: int) -> int:
    if d <= 3:
        return 8
    if d == 4:
        return 5
    return 3


def l_matrix(d: int, n: int, rotations: RotationTuple, basis: ZonalBasis):
    """Entry (i, j) = (1/N_n) sum_s P_n(v_i . (g_s v_j)), on integers by
    ``zonal.pairing_matrix``; a circle tuple has ``circle_det`` instead."""
    if rotations.mode not in ("exact", "quad"):
        raise ValueError(f"no L matrix for {rotations.mode} tuples")
    return pairing_matrix(d, n, basis.points, rotations.matrices)


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


def pair_det(rotations: RotationTuple, n: int, basis: ZonalBasis):
    """det L_n of an exact or quad pair (g_1, g_2) in d = 3 or 4, in closed form.

    L_n is M_n times the matrix of T_n = rho_n(g_1) + rho_n(g_2) on H_n, and
    T_n = rho_n(g_1)(I + rho_n(h)) with h = g_1^T g_2 and det rho_n(g_1) = 1
    (SO(d) is connected), so det L_n = det M_n det(I + rho_n(h)).  The
    eigenvalues of rho_n(h) are e^{i<w, theta>} over the torus weights w of
    H_n and the rotation angles theta of h, and the product of their
    1 + e^{i<w, theta>} depends only on the cosines of the angles:

    * d = 3: the weights are -n..n, cos theta = c = (tr h - 1) / 2, and the
      product is 2 prod_{m=1..n} (2 + 2 T_m(c)) for the Chebyshev T_m.
    * d = 4: each copy of the weights (+-a, +-b) with a, b > 0 gives
      4 (cos a alpha + cos b beta)^2, each axis pair (+-a, 0) or (0, +-b)
      gives 2 + 2 cos, and (0, 0) gives 2.  cos alpha and cos beta are the
      roots of t^2 - s t + p with s = tr h / 2 and p = (e_2(h) - 2) / 4, so
      the product is taken in Q[x]/(x^2 - s x + p) with x = cos alpha and
      s - x = cos beta.  It is fixed by x -> s - x, so its x-part is zero.

    The value is a Fraction, or a QuadExt over the field of the entries: the
    type ``linalg.det`` gives for L_n.
    """
    d = rotations.dimension
    g1, g2 = rotations.matrices
    h = linalg.mat_mul(linalg.transpose(g1), g2)
    trace = sum((h[i][i] for i in range(1, d)), h[0][0])
    if d == 3:
        c = (trace - 1) / 2
        value, t_prev, t = 2, 1, c
        for _ in range(n):
            value = value * (2 + 2 * t)
            t_prev, t = t, 2 * c * t - t_prev
    elif d == 4:
        value = _so4_pair_product(h, trace, n)
    else:
        raise ValueError(f"no closed form for pairs in dimension {d}")
    value = basis.gram_det * value
    fields = {x.d for g in (g1, g2) for row in g for x in row if isinstance(x, QuadExt)}
    if fields and not isinstance(value, QuadExt):
        value = QuadExt(value, 0, fields.pop())
    return value


@functools.cache
def _so4_weights(n: int) -> tuple[tuple[int, int, int], ...]:
    """(a, b, multiplicity) of the torus weights (a, b) of SO(4) on H_n with
    a, b >= 0.

    H_n = Sym^n - Sym^{n-2} as representations, and the monomial
    z_1^n1 conj(z_1)^n2 z_2^n3 conj(z_2)^n4 of Sym^n has weight
    (n1 - n2, n3 - n4).  Each sign flip fixes the multiset, so the weights
    with a, b >= 0 describe all of it.
    """
    def sym(k: int) -> Counter:
        out: Counter = Counter()
        for n1 in range(k + 1):
            for n2 in range(k + 1 - n1):
                for n3 in range(k + 1 - n1 - n2):
                    out[(n1 - n2, 2 * n3 + n1 + n2 - k)] += 1
        return out

    weights = sym(n)
    weights.subtract(sym(n - 2))
    return tuple((a, b, m) for (a, b), m in sorted(weights.items())
                 if a >= 0 and b >= 0 and m)


def _so4_pair_product(h, trace, n: int):
    """det(I + rho_n(h)) for h in SO(4); see ``pair_det``.  Elements of
    Q[x]/(x^2 - s x + p) are pairs (u, v) meaning u + v x."""
    e2 = sum(h[i][i] * h[j][j] - h[i][j] * h[j][i] for i in range(4) for j in range(i + 1, 4))
    s, p = trace / 2, (e2 - 2) / 4

    def mul(f, g):
        cross = f[1] * g[1]
        return f[0] * g[0] - p * cross, f[0] * g[1] + f[1] * g[0] + s * cross

    def chebyshev(z):
        """T_0(z), ..., T_n(z) by T_{m+1} = 2 z T_m - T_{m-1}."""
        out = [(1, 0), z]
        for _ in range(n - 1):
            u, v = mul(z, out[-1])
            out.append((2 * u - out[-2][0], 2 * v - out[-2][1]))
        return out

    cos_a, cos_b = chebyshev((0, 1)), chebyshev((s, -1))
    value = (1, 0)
    for a, b, m in _so4_weights(n):
        if a and b:
            f = cos_a[a][0] + cos_b[b][0], cos_a[a][1] + cos_b[b][1]
            u, v = mul(f, f)
            f = 4 * u, 4 * v
        elif a or b:
            u, v = cos_a[a] if a else cos_b[b]
            f = 2 + 2 * u, 2 * v
        else:
            f = 2, 0
        for _ in range(m):
            value = mul(value, f)
    if not is_zero_scalar(value[1]):
        raise ArithmeticError("the SO(4) pair product is not symmetric in its angles")
    return value[0]


@dataclass
class DegreeCertificate:
    n: int
    status: str  # "obstructed" | "witness_exists"
    det_value: str
    det_float: float


@dataclass
class ObstructionReport:
    dimension: int
    r: int
    mode: str
    n_max: int
    degrees: list[DegreeCertificate]
    disclaimer: str
    witness_degrees: list[int] = field(default_factory=list)

    def to_json(self) -> dict:
        # "exact" and "note" are constant: every tuple is exact
        return {
            "dimension": self.dimension,
            "r": self.r,
            "mode": self.mode,
            "exact": True,
            "n_max": self.n_max,
            "degrees": [{"n": c.n, "status": c.status, "det": c.det_value,
                         "det_float": c.det_float, "note": ""}
                        for c in self.degrees],
            "witness_degrees": self.witness_degrees,
            "disclaimer": self.disclaimer,
        }


def _certify_one(rotations: RotationTuple, n: int, basis: ZonalBasis) -> DegreeCertificate:
    if rotations.mode == "circle":
        # det L_n = det M_n |lambda_n|^2 with det M_n > 0, so the zero test
        # of lambda_n decides the degree and circle_det only gives the value
        cancels = unit_vectors_sum_is_zero([n * t for t in rotations.turns])
        detv = 0 if cancels else circle_det(rotations, n, basis)
    elif rotations.r == 2 and rotations.dimension in (3, 4):
        detv = pair_det(rotations, n, basis)
    else:
        detv = linalg.det(l_matrix(rotations.dimension, n, rotations, basis))
    if is_zero_scalar(detv):
        return DegreeCertificate(n, "witness_exists", "0", 0.0)
    return DegreeCertificate(n, "obstructed", str(detv), scalar_to_float(detv))


def certify_degrees(rotations: RotationTuple, n_max: int | None = None) -> ObstructionReport:
    """Sweep degrees 1..n_max exactly."""
    if n_max is None:
        n_max = default_n_max(rotations.dimension)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    bases = build_zonal_bases(rotations.dimension, range(1, n_max + 1))
    degrees = [_certify_one(rotations, n, basis) for n, basis in enumerate(bases, 1)]
    witness_degrees = [c.n for c in degrees if c.status == "witness_exists"]
    if witness_degrees:
        disclaimer = (f"certificate covers harmonic degrees 1..{n_max} only; "
                      f"fractional-division witnesses exist at degrees {witness_degrees}")
    else:
        disclaimer = (f"no non-constant fractional division supported in degrees "
                      f"1..{n_max}; degrees above {n_max} are not covered by this "
                      f"certificate")
    return ObstructionReport(
        dimension=rotations.dimension, r=rotations.r, mode=rotations.mode,
        n_max=n_max, degrees=degrees, disclaimer=disclaimer,
        witness_degrees=witness_degrees)


PI_HALF_UPPER = Fraction(355, 226)  # 355/113 exceeds pi by less than 3e-7
SQRT_SCALE = 1 << 64  # a square-root bound is at most 1/SQRT_SCALE above the root


@dataclass
class NearIdentityCertificate:
    """Degrees 1..obstructed_through are obstructed (None: every degree)."""

    distance_bounds: list[Fraction]  # >= ||Q_i - I||_F for each rotation Q_i
    obstructed_through: int | None

    def to_json(self) -> dict:
        return {"obstructed_through": self.obstructed_through,
                "distance_bounds": [format_fraction(b) for b in self.distance_bounds]}


def _sqrt_upper(s) -> Fraction:
    """A rational u >= sqrt(s) for a Fraction or QuadExt s >= 0; u * u >= s is checked."""
    if is_zero_scalar(s):
        return Fraction(0)
    if isinstance(s, QuadExt):  # D / u <= sqrt(D) <= u bound a + b sqrt(D) above
        u = _sqrt_upper(Fraction(s.d))
        s_up = s.a + s.b * (u if s.b > 0 else s.d / u)
    else:
        s_up = s
    u = Fraction(math.isqrt(math.floor(s_up * SQRT_SCALE ** 2)) + 1, SQRT_SCALE)
    if u * u < s:
        raise ArithmeticError("a square-root bound failed its exact check")
    return u


def near_identity_certificate(matrices) -> NearIdentityCertificate:
    """Degrees obstructed because every matrix is near the identity.

    Degree n is obstructed when n (pi/2) sum_s ||Q_s - I||_F < r, Q_s in
    SO(d).  Proof: rho_n(Q) is unitary, with the eigenvalues e^{i<w, theta>}
    of degree-n monomials in complex coordinates adapted to Q's rotation
    angles theta, |w|_1 <= n; by |e^{ix} - 1| <= |x| and Jordan's
    sin(x/2) >= x/pi on [0, pi], ||rho_n(Q) - I|| <= n max|theta_k| <=
    n (pi/2) ||Q - I||_F.  So T_n = sum_s rho_n(Q_s) is closer than r to r I,
    invertible, and det L_n != 0.  Each matrix g is read exactly (a float as
    its dyadic rational) with det g > 0, and Q = g (g^T g)^{-1/2}: singular
    values s of g have |s - 1| <= |s^2 - 1|, so ||g - I||_F + ||g^T g - I||_F
    >= ||Q - I||_F.  N is the largest degree with N (355/226) sum b < r for
    these bounds b; 0 certifies none, None (every b = 0) every degree.
    """
    eye = linalg.identity_matrix(len(matrices[0]))
    bounds = []
    for i, m in enumerate(matrices):
        if not all(isinstance(x, (float, Fraction, QuadExt)) for row in m for x in row):
            raise ValueError(f"matrix {i}: the near-identity bound reads float, Fraction "
                             f"or QuadExt entries")
        g = [[Fraction(x) if isinstance(x, float) else x for x in row] for row in m]
        if sign_scalar(linalg.det(g)) <= 0:
            raise ValueError(f"matrix {i} has determinant <= 0: no rotation is near it")
        off_identity, polar = (sum((x * x for row in linalg.mat_sub(a, eye) for x in row),
                                   Fraction(0))
                               for a in (g, linalg.mat_mul(linalg.transpose(g), g)))
        bounds.append(_sqrt_upper(off_identity) + _sqrt_upper(polar))
    total = sum(bounds, Fraction(0))
    through = None if total == 0 else math.ceil(len(matrices) / (PI_HALF_UPPER * total)) - 1
    return NearIdentityCertificate(bounds, through)


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
