"""Completing prescribed above-diagonal entries to special orthogonal tuples.

Small strictly-upper-triangular entries extend, row by row, to a rotation
matrix near the identity: orthogonality against the previous rows is a linear
system solved by Cramer's rule, and the unit-norm condition leaves a quadratic
in the diagonal entry whose root near 1 is taken.  With every entry within
1/(2^d d!) of the identity the determinant is forced to +1.

Tuples whose entries are algebraically independent over Q admit no rational
polynomial relation, but no finite computation certifies that; the word and
fixed-point diagnostics here (non-trivial words staying away from the
identity, no shared fixed points for non-commuting words in odd dimension)
are necessary-style evidence only, and exact rational tuples are never
labelled generic candidates (their entries satisfy obvious rational
relations).  Those checks are exact for a ``RotationTuple`` (every tuple is
exact) and float thresholds below for a completion's float matrices, which
never become a tuple; the obstructed degrees are exact for both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .actions import common_fixed_point_test, minus_identity, reduced_words
from .obstruction import NearIdentityCertificate, near_identity_certificate
from .points import RotationTuple
from .scalars import is_zero_scalar, scalar_to_float
from .serialize import json_entry, json_int, json_list

COMPLETION_ORTHONORMALITY_TOL = 1e-12
COMPLETION_DETERMINANT_TOL = 1e-10
# float matrices only: word matrices this close entrywise count as equal, a
# word with |det(w - I)| at most FLOAT_SINGULAR_DET counts as fixing a vector
WORD_MARGIN_FLOOR = 1e-12
FLOAT_SINGULAR_DET = 1e-10
FLOAT_SINGULAR_COEFF = 1e-8
SCHEDULE_SHRINK = 4  # each nesting level shrinks the bound by 1/(SHRINK * d)
WORD_CHUNK = 4096  # word matrices stacked at a time for their margins


class CompletionError(ValueError):
    def __init__(self, matrix_index: int, row: int, reason: str):
        super().__init__(f"matrix {matrix_index}, row {row}: {reason}")
        self.matrix_index = matrix_index
        self.row = row
        self.reason = reason


def identity_distance_target(d: int) -> float:
    """Entrywise closeness to the identity that forces determinant +1."""
    return 1.0 / (2 ** d * math.factorial(d))


def epsilon_schedule(d: int, target: float | None = None) -> list[float]:
    """Per-row magnitude bounds for the given upper entries, rows 1..d-1.

    The nested closeness functions are instantiated as x -> x / (4d), so the
    bound for row m is target / (4d)^(d-m): tightest for the first row, whose
    entries feed every later completion.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if target is None:
        target = identity_distance_target(d)
    if target <= 0:
        raise ValueError("target must be positive")
    shrink = SCHEDULE_SHRINK * d
    return [target / shrink ** (d - m) for m in range(1, d)]


@dataclass
class UpperEntries:
    """Strictly-upper-triangular data for r matrices: block[s][m-1] holds the
    row-m entries (columns m+1..d) of the s-th matrix."""

    dimension: int
    blocks: list[list[list[float]]]

    def __post_init__(self):
        d = self.dimension
        for s, block in enumerate(self.blocks):
            if len(block) != d - 1 or any(len(block[m]) != d - 1 - m for m in range(d - 1)):
                raise ValueError(f"block {s} does not match dimension {d}")

    @property
    def r(self) -> int:
        return len(self.blocks)

    def within_schedule(self, bounds: list[float] | None = None) -> bool:
        bounds = bounds or epsilon_schedule(self.dimension)
        return all(abs(e) <= bounds[m] for block in self.blocks
                   for m, row in enumerate(block) for e in row)


def upper_entries_from_json(data) -> UpperEntries:
    """The upper entries a JSON object {"dimension", "blocks"} describes; any
    malformed structure raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"upper entries must be a JSON object, got {type(data).__name__}")
    d = json_int(data, "dimension", 2)

    def entry(x):
        if type(x) not in (int, float) or not math.isfinite(x):
            raise ValueError("an upper entry is a finite number")
        return float(x)

    blocks = [[[json_entry(entry, x) for x in json_list(row)] for row in json_list(block)]
              for block in json_list(data.get("blocks"))]
    return UpperEntries(dimension=d, blocks=blocks)


def draw_upper_entries(rng, d: int, r: int) -> UpperEntries:
    """Uniform draw within the schedule bounds (seeded generator in, data out)."""
    bounds = epsilon_schedule(d)
    blocks = [[list(rng.uniform(-bounds[m], bounds[m], size=d - 1 - m))
               for m in range(d - 1)] for _ in range(r)]
    return UpperEntries(dimension=d, blocks=blocks)


@dataclass
class CompletionResult:
    matrices: list[list[list[float]]]  # checked by complete_rows, never a tuple
    orthonormality_residuals: list[float]
    determinant_residuals: list[float]
    identity_distances: list[float]
    diagonal_roots: list[list[float]]
    target: float

    @property
    def max_orthonormality_residual(self) -> float:
        return max(self.orthonormality_residuals)

    @property
    def max_determinant_residual(self) -> float:
        return max(self.determinant_residuals)

    def tuple_json(self) -> dict:
        """The read-only "floating" tuple `synth-generic` prints."""
        return {"mode": "floating", "dimension": len(self.matrices[0]), "matrices": self.matrices}


def _complete_matrix(upper: list[list[float]], d: int, index: int):
    g = np.eye(d)
    roots = []
    for m in range(d - 1):
        g[m, m + 1:] = upper[m]
    for i in range(d):
        tail = g[i, i + 1:]
        tail_norm_sq = float(tail @ tail)
        if i == 0:
            disc = 1.0 - tail_norm_sq
            if disc <= 0:
                raise CompletionError(index, 1, "first row has no real unit completion")
            z = math.sqrt(disc)
            roots.append(z)
            g[0, 0] = z
            continue
        m_block = g[:i, :i]
        det_m = float(np.linalg.det(m_block))
        if abs(det_m) < 1e-12:
            raise CompletionError(index, i + 1, "leading block is singular; "
                                                "entries violate the schedule")
        col = g[:i, i]
        rhs_fixed = g[:i, i + 1:] @ g[i, i + 1:]
        adj_t = det_m * np.linalg.inv(m_block)  # adjugate, via the inverse
        u = adj_t @ col
        w = adj_t @ rhs_fixed
        a2 = det_m ** 2 + float(u @ u)
        a1 = 2.0 * float(u @ w)
        a0 = float(w @ w) + det_m ** 2 * (tail_norm_sq - 1.0)
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0:
            raise CompletionError(index, i + 1, "no real diagonal root; "
                                                "entries violate the schedule")
        z = (-a1 + math.sqrt(disc)) / (2.0 * a2)
        f = -z * col - rhs_fixed
        x = np.linalg.solve(m_block, f)
        g[i, :i] = x
        g[i, i] = z
        roots.append(z)
    return g, roots


def complete_rows(upper: UpperEntries) -> CompletionResult:
    """Deterministic completion of all matrices; validates the results against
    the orthonormality, determinant and identity-distance requirements."""
    d = upper.dimension
    target = identity_distance_target(d)
    mats = []
    roots_all = []
    orth_res = []
    det_res = []
    dists = []
    for s, block in enumerate(upper.blocks):
        g, roots = _complete_matrix(block, d, s)
        orth = float(np.max(np.abs(g.T @ g - np.eye(d))))
        detr = abs(float(np.linalg.det(g)) - 1.0)
        dist = float(np.max(np.abs(g - np.eye(d))))
        if orth > COMPLETION_ORTHONORMALITY_TOL:
            raise CompletionError(s, d, f"orthonormality residual {orth:.3e}")
        if detr > COMPLETION_DETERMINANT_TOL:
            raise CompletionError(s, d, f"determinant residual {detr:.3e}")
        if dist >= target:
            raise CompletionError(s, d, f"completed matrix strays {dist:.3e} "
                                        f"from the identity (target {target:.3e})")
        mats.append(g.tolist())
        roots_all.append(roots)
        orth_res.append(orth)
        det_res.append(detr)
        dists.append(dist)
    return CompletionResult(matrices=mats, orthonormality_residuals=orth_res,
                            determinant_residuals=det_res, identity_distances=dists,
                            diagonal_roots=roots_all, target=target)


# -- genericity diagnostics -----------------------------------------------------


@dataclass
class GenericityReport:
    words_checked: int
    word_check_pass: bool
    min_word_margin: float
    failing_word: str | None
    fixed_point_pairs_checked: int
    fixed_point_failures: list[tuple[str, str]]
    obstruction: NearIdentityCertificate
    generic_candidate: bool
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "words_checked": self.words_checked,
            "word_check_pass": self.word_check_pass,
            "min_word_margin": self.min_word_margin,
            "failing_word": self.failing_word,
            "fixed_point_pairs_checked": self.fixed_point_pairs_checked,
            "fixed_point_failures": self.fixed_point_failures,
            "obstruction": self.obstruction.to_json(),
            "generic_candidate": self.generic_candidate,
            "notes": self.notes,
        }


class _WordMatrices:
    """Matrices of reduced words: products of the generators and their
    transposes, multiplied out from the identity one letter at a time.
    Exact for exact matrices, numpy floats for float ones."""

    def __init__(self, matrices):
        self.exact = not isinstance(matrices[0][0][0], float)
        self.r = len(matrices)
        self.letters = {}
        if self.exact:
            self.identity = linalg.identity_matrix(len(matrices[0]), like=matrices[0][0][0])
            for g, m in enumerate(matrices, start=1):
                self.letters[g, 1], self.letters[g, -1] = m, linalg.transpose(m)
        else:
            self.identity = np.eye(len(matrices[0]))
            for g, m in enumerate(matrices, start=1):
                a = np.array(m, dtype=float)
                self.letters[g, 1], self.letters[g, -1] = a, a.T

    def __call__(self, letters):
        return self.times(self.identity, letters)

    def times(self, m, letters):
        """m times the generators the letters name, one at a time."""
        for letter in letters:
            g = self.letters[letter]
            m = linalg.mat_mul(m, g) if self.exact else m @ g
        return m

    def walk(self, max_len: int):
        """(word, matrix, float margin max |w - I|) for each word of
        ``reduced_words``, in its order.  A word's matrix is its prefix's
        times one letter, the same products as ``__call__``; only the
        previous length's matrices are kept, and the margins are taken over
        stacks of up to WORD_CHUNK words, so memory stays a fraction of one
        word length."""
        known = {(): self.identity}
        for length, level in itertools.groupby(reduced_words(self.r, max_len),
                                               key=lambda w: len(w.letters)):
            kept = {}
            while chunk := list(itertools.islice(level, WORD_CHUNK)):
                mats = [self.times(known[w.letters[:-1]], w.letters[-1:]) for w in chunk]
                if length < max_len:
                    kept.update(zip((w.letters for w in chunk), mats))
                yield from zip(chunk, mats, _word_margins(mats, self.exact))
            known = kept


def _word_margins(mats, exact: bool) -> list[float]:
    """max |w - I| entrywise, in floats, for each word matrix w."""
    if exact:
        mats = [[[scalar_to_float(x) for x in row] for row in m] for m in mats]
    stack = np.array(mats, dtype=float)
    return np.abs(stack - np.eye(stack.shape[1])).max(axis=(1, 2)).tolist()


def _commute(w1, w2, matrix: _WordMatrices) -> bool:
    """w1 w2 = w2 w1: exactly, or entrywise within WORD_MARGIN_FLOOR."""
    ab = matrix.times(matrix(w1.letters), w2.letters)
    ba = matrix.times(matrix(w2.letters), w1.letters)
    if matrix.exact:
        return ab == ba
    return bool(np.all(np.abs(ab - ba) <= WORD_MARGIN_FLOOR))


def _fixes_a_vector(m, exact: bool) -> bool:
    """Does the word matrix w fix a non-zero vector?  det(w - I) = 0 exactly,
    or |det(w - I)| <= FLOAT_SINGULAR_DET in floats."""
    if exact:
        return is_zero_scalar(linalg.det(minus_identity(m)))
    return abs(float(np.linalg.det(m - np.eye(len(m))))) <= FLOAT_SINGULAR_DET


def _share_a_fixed_vector(words, exact: bool) -> bool:
    """Do the word matrices fix a common non-zero vector?  Exactly by
    ``common_fixed_point_test``; in floats, when det(sum A^T A) for A = w - I
    is small next to its largest entry and the last singular vector of that
    sum is annihilated by every A."""
    if exact:
        return common_fixed_point_test([minus_identity(m) for m in words])[0]
    mats = [m - np.eye(len(m)) for m in words]
    gram = sum(a.T @ a for a in mats)
    norm = float(np.max(np.abs(gram))) or 1.0
    if abs(float(np.linalg.det(gram))) > FLOAT_SINGULAR_COEFF * norm ** gram.shape[0]:
        return False
    witness = np.linalg.svd(gram)[2][-1]
    return not any(np.linalg.norm(a @ witness) > 1e-6 for a in mats)


def genericity_diagnostics(source: RotationTuple | CompletionResult,
                           word_length_cap: int = 6, max_pairs: int = 40) -> GenericityReport:
    """Evidence that a tuple, or a completion's matrices, behave generically.

    (a) every non-trivial reduced word up to the cap evaluates away from the
    identity; (b) in odd dimension, short non-commuting words share no fixed
    point (locally commutative action); in even dimension, short words have no
    fixed point at all; (c) the near-identity bound obstructs at least degree
    1, exactly.  (a) and (b) are necessary-style evidence, none of this proves
    genericity, and exact rational tuples are never generic (their entries
    are algebraically dependent over Q), which the report states explicitly.
    Both sources are valid by construction and are not checked again.
    """
    if word_length_cap < 1:
        raise ValueError(f"the word length cap must be at least 1, got {word_length_cap}")
    matrices = source.matrices
    r, d = len(matrices), len(matrices[0])
    notes = ["word / fixed-point checks are necessary-style evidence, not a proof "
             "of genericity; the obstructed degrees are exact"]
    matrix = _WordMatrices(matrices)
    exact = matrix.exact
    identity = linalg.identity_matrix(d)
    words_checked = 0
    min_margin = math.inf
    failing = None
    for word, m, margin in matrix.walk(word_length_cap):
        words_checked += 1
        if margin < min_margin:
            min_margin = margin
        if m == identity if exact else margin <= WORD_MARGIN_FLOOR:
            failing = str(word)
            break
    word_pass = failing is None
    pairs_checked = 0
    failures: list[tuple[str, str]] = []
    if word_pass:
        short = list(reduced_words(r, 2))
        if d % 2 == 0:
            # a free action on an odd-dimensional sphere: no short word may
            # have a fixed point at all
            for w in short[:max_pairs]:
                pairs_checked += 1
                if _fixes_a_vector(matrix(w.letters), exact):
                    failures.append((str(w), str(w)))
        else:
            # locally commutative action: non-commuting words must not share
            # a fixed point (each single rotation has an axis in odd d)
            for a in range(len(short)):
                for b in range(a + 1, len(short)):
                    if pairs_checked >= max_pairs:
                        break
                    w1, w2 = short[a], short[b]
                    if _commute(w1, w2, matrix):
                        continue  # commuting pair: shared fixed points allowed
                    pairs_checked += 1
                    if _share_a_fixed_vector([matrix(w1.letters), matrix(w2.letters)],
                                             exact):
                        failures.append((str(w1), str(w2)))
                if pairs_checked >= max_pairs:
                    break
    obstruction = near_identity_certificate(matrices)
    candidate = (word_pass and not failures and obstruction.obstructed_through != 0
                 and not exact)
    if exact:
        notes.append("exact tuples are never generic candidates: rational (or "
                     "quadratic) entries satisfy nontrivial rational relations")
    return GenericityReport(
        words_checked=words_checked, word_check_pass=word_pass,
        min_word_margin=min_margin if min_margin < math.inf else 0.0,
        failing_word=failing, fixed_point_pairs_checked=pairs_checked,
        fixed_point_failures=failures, obstruction=obstruction,
        generic_candidate=candidate, notes=notes)
