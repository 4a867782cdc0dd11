"""Seeded input generation and the per-op checks of the four workloads.

Every input is generated here from the seed and written to the run's input
directory; the program only ever sees those files and argument strings.  No
op passes ``--threads``.  The pass of a workload is a fixed, interleaved mix of
input kinds, so every seed runs the same proportions; the seed only varies the
concrete inputs within each kind.

Reasons for each workload:

* ``obstruct`` is the only workload where zonal, gegenbauer, obstruction,
  linalg and the scalars/cyclotomic arithmetic do the work; one op in four
  reads the zonal basis from a disk cache filled during setup, so zonal's
  read path runs beside its build path.
* ``circle`` is dominated by the cyclotomic zero test; its O(q) scan over
  lcm denominators of a few thousand sets the tail.
* ``tile`` is all search, with a fixed node budget; instances past the budget
  end with exit 3 at a bounded cost (the stalled m = 51, k = 2 instance is one).
* ``finite`` is the only workload that runs actions, euler, lifting and
  synthesis.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import checks
from checks import require

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "cayley.json")

WORKLOADS = ("obstruct", "circle", "tile", "finite")
HELD_OUT_SEED = 7919  # reserved for checking a claim on inputs not tuned on
TILE_NODE_BUDGET = 20_000
QUAD_SQRT = 3
WITNESS_RESIDUAL_TOL = 1e-9
PARTITION_SAMPLES = 100_000


@dataclass
class Op:
    """One CLI invocation; ``argv`` excludes ``--output``."""

    kind: str
    argv: list[str]
    check: Callable[[dict], None]
    env: dict[str, str] = field(default_factory=dict)
    budget_limited: bool = False  # instance built to run past the node budget: exit 3 allowed
    then: Callable[[dict], "Op | None"] | None = None  # op that consumes this output


def fmt(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
    return path


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def build(workload: str, seed: int, inputs: str) -> list[Op]:
    """Generate one pass of ops for the workload into the inputs directory."""
    os.makedirs(inputs, exist_ok=True)
    return BUILDERS[workload](rng_for(workload, seed), inputs)


# -- obstruct ------------------------------------------------------------------------

# turn k/12 -> (cos, sin) as (a, b) pairs meaning a + b*sqrt(3)
_HALF = Fraction(1, 2)
_COS12 = [(1, 0), (0, _HALF), (_HALF, 0), (0, 0), (-_HALF, 0), (0, -_HALF),
          (-1, 0), (0, -_HALF), (-_HALF, 0), (0, 0), (_HALF, 0), (0, _HALF)]
_SIN12 = [_COS12[(k - 3) % 12] for k in range(12)]


def _quad_axis_matrix(k: int):
    c, s = _COS12[k % 12], _SIN12[k % 12]
    pair = lambda a, b: [fmt(a), fmt(b)]  # noqa: E731
    zero, one = pair(0, 0), pair(1, 0)
    return [[pair(*c), pair(-s[0], -s[1]), zero],
            [pair(*s), pair(*c), zero],
            [zero, zero, one]]


def load_reference() -> list[dict]:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)["tuples"]


def det_digest(text) -> str:
    return hashlib.sha256(str(text).encode()).hexdigest()


def _check_degrees(report: dict, witness_degrees: list[int], n_max: int) -> None:
    require(report["n_max"] == n_max, f"n_max {report['n_max']} != {n_max}")
    statuses = {d["n"]: d["status"] for d in report["degrees"]}
    require(sorted(statuses) == list(range(1, n_max + 1)), "degree list incomplete")
    for n, status in statuses.items():
        want = "witness_exists" if n in witness_degrees else "obstructed"
        require(status == want, f"degree {n}: status {status}, expected {want}")
    require(report["witness_degrees"] == witness_degrees,
            f"witness degrees {report['witness_degrees']} != {witness_degrees}")


def check_cayley(entry: dict) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        report = out["report"]
        require(report["n_max"] == entry["nmax"], "n_max differs from the reference")
        got = [(d["n"], d["status"], det_digest(d["det"])) for d in report["degrees"]]
        want = [(d["n"], d["status"], d["det_sha256"]) for d in entry["degrees"]]
        require(got == want, "degree status or det string differs from the reference")
        witness = [d["n"] for d in entry["degrees"] if d["status"] == "witness_exists"]
        require(report["witness_degrees"] == witness, "witness degrees inconsistent")
    return check


def check_axis(turns, n_max: int, witness: int | None, circle_mode: bool):
    expected = (checks.circle_witness_degrees(turns, n_max) if circle_mode
                else checks.z_axis_witness_degrees(turns, n_max))

    def check(out: dict) -> None:
        _check_degrees(out["report"], expected, n_max)
        if witness is not None:
            w = out.get("witness")
            require(w is not None, "witness missing")
            require(w["degree"] == witness and w["r"] == len(turns), "witness header wrong")
            require(float(w["max_residual"]) <= WITNESS_RESIDUAL_TOL,
                    f"witness residual {w['max_residual']}")
    return check


QUAD_FIRST_WITNESS = {2: 2, 3: 1}  # similar op cost for the two shapes


def _quad_turns(rng: random.Random, r: int) -> list[int]:
    """Twelfths with some sqrt(3) entry whose first witness degree is
    QUAD_FIRST_WITNESS[r] (witness extraction cost grows with the degree)."""
    while True:
        ks = [rng.randrange(12) for _ in range(r)]
        if not any(k % 3 for k in ks):
            continue  # all entries rational: not a quad tuple
        found = checks.z_axis_witness_degrees([Fraction(k, 12) for k in ks], 2)
        if found and found[0] == QUAD_FIRST_WITNESS[r]:
            return ks


def _circle_turns(rng: random.Random, r: int) -> list[Fraction]:
    turns = []
    for _ in range(r - 1):
        q = rng.randint(1, 12)
        turns.append(Fraction(rng.randrange(q), q))
    return turns + [Fraction(0)]


# One pass, interleaved; "cache" marks the ops that read the zonal basis from
# the disk cache filled during setup.  By cost the pass has three strata:
# cheap (circle-mode and cached d = 3 ops, 5 of 15, all under 0.3 s), middle
# (uncached quad and d = 3, r = 3 Cayley ops, 8 of 15, 0.4-0.7 s) and top
# (d = 4, 2 of 15).  The median (rank 8 of 15) is the third op of the middle
# stratum and the tail of a 20 s run (three or four whole passes, the 11th
# largest op) also falls inside it, so neither sits on an edge between strata.
OBSTRUCT_PASS = [
    ("quad2", False), ("circle2", False), ("cayley3r3", False), ("cayley4", False),
    ("quad3", False), ("cayley3r3", True), ("circle2", True), ("quad2", False),
    ("cayley3r2", True), ("cayley3r3", False), ("quad3", False), ("cayley4", True),
    ("quad2", False), ("circle2", False), ("cayley3r3", False),
]
QUAD_NMAX = 5
# Cayley tuples come from a pool stored with its reference verdicts; the seed
# picks from the pool.  kind -> (d, r, n_max, pool size)
CAYLEY_KINDS = {"cayley3r2": (3, 2, 8, 12), "cayley3r3": (3, 3, 8, 12),
                "cayley4": (4, 2, 5, 12)}


def build_obstruct(rng: random.Random, inputs: str) -> list[Op]:
    pool = load_reference()
    picks = {k: rng.sample([e for e in pool if e["kind"] == k],
                           sum(1 for kind, _ in OBSTRUCT_PASS if kind == k))
             for k in CAYLEY_KINDS}
    cache_dir = os.path.join(inputs, "zonal-cache")
    ops = []
    for i, (kind, cached) in enumerate(OBSTRUCT_PASS):
        path = os.path.join(inputs, f"obstruct-{i}.json")
        if kind.startswith("cayley"):
            entry = picks[kind].pop()
            write_json(path, entry["tuple"])
            n_max = entry["nmax"]
            argv = ["obstruct", "--tuple", path, "--nmax", str(n_max)]
            check = check_cayley(entry)
        elif kind.startswith("quad"):
            ks = _quad_turns(rng, int(kind[-1]))
            turns = [Fraction(k, 12) for k in ks]
            write_json(path, {"mode": "quad", "dimension": 3, "sqrt": QUAD_SQRT,
                              "matrices": [_quad_axis_matrix(k) for k in ks]})
            witness = checks.z_axis_witness_degrees(turns, 2)[0]
            argv = ["obstruct", "--tuple", path, "--nmax", str(QUAD_NMAX),
                    "--witness", str(witness)]
            check = check_axis(turns, QUAD_NMAX, witness, circle_mode=False)
        else:
            turns = _circle_turns(rng, rng.choice((2, 3, 4)))
            write_json(path, {"mode": "circle", "dimension": 2,
                              "turns": [fmt(t) for t in turns]})
            argv = ["obstruct", "--tuple", path, "--nmax", "8"]
            check = check_axis(turns, 8, None, circle_mode=True)
        # an empty value turns the disk cache off whatever the caller has set
        env = {"SPHEREDIV_CACHE_DIR": cache_dir if cached else ""}
        ops.append(Op(kind + ("+cache" if cached else ""), argv, check, env))
    return ops


def cache_keys(ops: list[Op]) -> list[tuple[int, int]]:
    """(d, n) zonal bases the cache-reading ops need."""
    keys = set()
    for op in ops:
        if not op.env.get("SPHEREDIV_CACHE_DIR"):
            continue
        with open(op.argv[op.argv.index("--tuple") + 1], encoding="utf-8") as fh:
            d = json.load(fh)["dimension"]
        n_max = int(op.argv[op.argv.index("--nmax") + 1])
        keys.update((d, n) for n in range(1, n_max + 1))
    return sorted(keys)


# -- circle --------------------------------------------------------------------------


@dataclass
class Draw:
    """Angles as (rational turn, formal label); label '' means rational."""

    angles: list[tuple[Fraction, str]]

    def text(self) -> str:
        return ",".join(fmt(t) + (f" + {name}" if name else "") for t, name in self.angles)

    def groups(self) -> list[list[Fraction]]:
        out: dict[str, list[Fraction]] = {}
        for t, name in self.angles:
            out.setdefault(name, []).append(t)
        return list(out.values())

    def reduced(self) -> list[Fraction] | None:
        last_t, last_name = self.angles[-1]
        if any(name != last_name for _, name in self.angles):
            return None
        return [(t - last_t) % 1 for t, _ in self.angles]


def _expected_tiling(r: int, reduced: list[Fraction]) -> bool:
    if r <= 3:
        return True  # r <= 3: fractional divisibility is measurable divisibility
    order, residues = checks.cyclic_order(reduced)
    if order % r:
        return False
    return checks.tiling_exists(order, residues)


def check_classify(draw: Draw) -> Callable[[dict], None]:
    memo: dict[str, object] = {}

    def expected():
        if not memo:
            memo["n0"] = checks.first_cancelling_degree(draw.groups())
            red = draw.reduced()
            memo["tiles"] = (red is not None and memo["n0"] is not None
                             and _expected_tiling(len(draw.angles), red))
        return memo["n0"], memo["tiles"]

    def check(out: dict) -> None:
        c = out["classification"]
        n0, tiles = expected()
        verdict = c["verdict"]
        require(c["r"] == len(draw.angles), "r differs")
        if n0 is None:
            require(verdict == "not_fractional", f"verdict {verdict}, expected not_fractional")
            return
        require(c["witness_degree"] == n0, f"witness degree {c['witness_degree']} != {n0}")
        if tiles:
            require(verdict == "constructive", f"verdict {verdict}, expected constructive")
            reduced = draw.reduced()
            require([Fraction(t) for t in c["reduced_turns"]] == reduced,
                    "reduced turns differ")
            arcs = [(Fraction(a["start"]), Fraction(a["end"])) for a in c["arcs"]]
            require(checks.arcs_partition(reduced, arcs), "arc translates do not partition")
        else:
            require(verdict == "fractional_only", f"verdict {verdict}, expected fractional_only")
    return check


def check_verify(out: dict) -> None:
    require(out["valid"] is True, "circle verify rejected a partitioning arc set")


def verify_follow_up(inputs: str, index: int) -> Callable[[dict], Op | None]:
    def then(out: dict) -> Op | None:
        c = out["classification"]
        if c["verdict"] != "constructive":
            return None
        arcs_path = write_json(os.path.join(inputs, f"arcs-{index}.json"), c["arcs"])
        angles = ",".join(c["reduced_turns"])
        return Op("verify", ["circle", "verify", "--angles", angles, "--arcs", arcs_path],
                  check_verify)
    return then


def _shuffled(rng: random.Random, angles: list) -> Draw:
    angles = list(angles)
    rng.shuffle(angles)
    return Draw(angles)


def _unit(rng: random.Random, n: int) -> int:
    while True:
        u = rng.randrange(1, n)
        if math.gcd(u, n) == 1:
            return u


def _draw_regular(rng: random.Random, r: int) -> Draw:
    """Constructive by design: for r = 2, 3, 5 a scaled, rotated regular
    r-gon of turns (sum of unit vectors vanishes at the scaling n)."""
    n = rng.randint(1, 4)
    c = Fraction(rng.randrange(12), 12)
    ks = [i + r * rng.randrange(n) for i in range(r)]
    return _shuffled(rng, [(c + Fraction(k, r * n), "") for k in ks])


def _draw_never(rng: random.Random, r: int) -> Draw:
    """One denominator from 7, 11, 13: n * (difference) is never 1/2, 1/3 or
    1/5, so no n cancels; the scan runs one short full period."""
    q = rng.choice((7, 11, 13))
    return Draw([(Fraction(rng.randrange(q), q), "") for _ in range(r)])


def _draw_four_shift(rng: random.Random, tileable: bool) -> Draw:
    """(k, k+m, m, 0)/(4m) for m <= 3, so every denominator divides 12 or 8,
    mapped by a unit scaling and a rotation; the closed form fixes the verdict."""
    while True:
        m = rng.choice((1, 2, 3))
        k = rng.randrange(4 * m)
        if math.gcd(k, m) == 1 and checks.four_shift_tileable(m, k) == tileable:
            break
    n = 4 * m
    u = _unit(rng, n)
    c = Fraction(rng.randrange(n), n)
    return _shuffled(rng, [(c + Fraction(u * x % n, n), "") for x in (k, k + m, m, 0)])


def _never_cancels4(turns: list[Fraction]) -> bool:
    """Four unit vectors vanish only as two antipodal pairs (Lam and Leung).
    n * p/q (reduced) is 1/2 mod 1 exactly for the odd multiples n of q/2, so
    some n makes both differences of a pairing 1/2 iff both denominators are
    even with the same power of 2.  Constant time, where a scan over the
    period costs up to a thousand zero tests and would make the set-up time
    depend on the seed."""
    def power_of_two(q: int) -> int:  # the largest one dividing q
        return q & -q

    a, b, c, d = turns
    for (w, x), (y, z) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        v = power_of_two((w - x).denominator)
        if v > 1 and v == power_of_two((y - z).denominator):
            return False
    return True


def _draw_r4_none(rng: random.Random) -> Draw:
    """Denominator-12 family (acceptance criterion 07) without cancellation."""
    while True:
        draw = Draw([(Fraction(rng.randrange(q), q), "")
                     for q in (rng.randint(1, 12) for _ in range(3))] + [(Fraction(0), "")])
        if _never_cancels4([t for t, _ in draw.angles]):
            return draw


def _draw_wide(rng: random.Random, r: int) -> Draw:
    """Denominators 47 and 53: never cancels, so the program scans a full
    period of 2491 degrees, each with an exact zero test of order 4 * 2491."""
    angles = [(Fraction(rng.randrange(1, 47), 47), ""), (Fraction(rng.randrange(1, 53), 53), "")]
    angles += [(Fraction(rng.randrange(47), 47), "") for _ in range(r - 2)]
    return _shuffled(rng, angles)


def _draw_formal(rng: random.Random, kind: str) -> Draw:
    """Formal offsets: 'formal-build' shares one offset (constructive),
    'formal-split' pairs antipodes under two offsets (fractional only), and
    'formal-none' leaves one angle alone under its offset (not fractional)."""
    if kind == "formal-build":
        return Draw([(t, "tau") for t, _ in _draw_regular(rng, 2).angles])
    a, b = (Fraction(rng.randrange(12), 12) for _ in range(2))
    if kind == "formal-split":
        return _shuffled(rng, [(a, "tau"), (a + Fraction(1, 2), "tau"),
                               (b, ""), (b + Fraction(1, 2), "")])
    return _shuffled(rng, [(a, "tau"), (b, ""), (b + Fraction(1, 2), "")])


# Every kind has a verdict fixed by construction, so each pass holds the same
# number of follow-up verify ops.  The wide draws (2 of 21 classify ops, 2491
# scan steps each) set the tail and most of the op time; everything else
# costs a few milliseconds, mostly CLI overhead.
CIRCLE_PASS = [
    "regular2", "never2", "four-build", "formal-build", "regular3", "r4-none",
    "wide2", "four-refute", "never3", "regular5", "formal-split", "regular2",
    "never5", "four-build", "r4-none", "regular3", "wide3", "four-refute",
    "formal-none", "never2", "never3",
]


def build_circle(rng: random.Random, inputs: str) -> list[Op]:
    ops = []
    for i, kind in enumerate(CIRCLE_PASS):
        if kind.startswith("regular"):
            draw = _draw_regular(rng, int(kind[-1]))
        elif kind.startswith("never"):
            draw = _draw_never(rng, int(kind[-1]))
        elif kind.startswith("four"):
            draw = _draw_four_shift(rng, tileable=kind == "four-build")
        elif kind == "r4-none":
            draw = _draw_r4_none(rng)
        elif kind.startswith("wide"):
            draw = _draw_wide(rng, int(kind[-1]))
        else:
            draw = _draw_formal(rng, kind)
        ops.append(Op(f"classify-{kind}", ["circle", "classify", "--angles", draw.text()],
                      check_classify(draw), then=verify_follow_up(inputs, i)))
    return ops


# -- tile ----------------------------------------------------------------------------


def check_four_shift(m: int, k: int) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        members = out["solution"]
        tileable = checks.four_shift_tileable(m, k)
        if members is None:
            require(not tileable, f"m={m}, k={k} is tileable but no tiling was returned")
        else:
            require(tileable, f"m={m}, k={k} is not tileable by the closed form")
            require(checks.covers_exactly_once(4 * m, (k, k + m, m, 0), members),
                    "returned set does not cover Z_N exactly once")
    return check


def check_shift_set(modulus: int, shifts: list[int]) -> Callable[[dict], None]:
    memo: list[bool] = []

    def check(out: dict) -> None:
        members = out["solution"]
        if members is not None:
            require(checks.covers_exactly_once(modulus, shifts, members),
                    "returned set does not cover Z_N exactly once")
            return
        if not memo:
            memo.append(checks.tiling_exists(modulus, shifts))
        require(not memo[0], "a tiling exists but none was returned")
    return check


def _coprime(rng: random.Random, m: int, residue=None) -> int:
    """A shift k in 1..4m-1 with gcd(k, m) = 1, optionally k = residue mod 4."""
    while True:
        k = rng.randint(1, 4 * m - 1)
        if math.gcd(k, m) == 1 and (residue is None or k % 4 == residue):
            return k


# Node counts swing by an order of magnitude with k, so only ops that stop at
# the budget have a steady cost (TILE_NODE_BUDGET nodes, then exit 3).  They
# are 11 of 16 ops, which puts both the median and the tail among them; the
# refutations within the budget, the constructions and the random shift sets
# are the other 5.  Every m = 35 refutation with odd k exceeds the budget,
# as does the stalled m = 51, k = 2 construction; only these two kinds may
# end with exit 3, which on any other kind is a failed op.
TILE_PASS = [
    "over", "refute", "over", "odd-build", "over", "stall", "random", "over",
    "over", "even-build", "over", "refute", "over", "over", "stall", "over",
]


def build_tile(rng: random.Random, inputs: str) -> list[Op]:
    ops = []
    for kind in TILE_PASS:
        if kind == "random":
            r = rng.choice((2, 3, 4))
            modulus = r * rng.randint(3, 6)
            shifts = sorted(rng.sample(range(modulus), r))
            argv = ["tile", "--modulus", str(modulus),
                    "--shifts", ",".join(map(str, shifts))]
            check = check_shift_set(modulus, shifts)
        else:
            if kind == "stall":
                m, k = 51, 2
            elif kind == "refute":
                m = rng.choice((13, 15, 17))
                k = _coprime(rng, m, residue=rng.choice((1, 3)))
            elif kind == "over":
                m = 35
                k = _coprime(rng, m, residue=rng.choice((1, 3)))
            elif kind == "odd-build":
                m = rng.choice((9, 11, 13, 15))
                k = _coprime(rng, m, residue=2)
            else:
                m = rng.choice((8, 10, 12, 14))
                k = _coprime(rng, m)
            argv = ["tile", "--modulus", str(4 * m),
                    "--shifts", f"{k},{k + m},{m},0"]
            check = check_four_shift(m, k)
        ops.append(Op(f"tile-{kind}", argv + ["--node-budget", str(TILE_NODE_BUDGET)],
                      check, budget_limited=kind in ("over", "stall")))
    return ops


# -- finite --------------------------------------------------------------------------

RZ = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
RX = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]


def _exact_json(mats) -> dict:
    return {"mode": "exact", "dimension": len(mats[0]),
            "matrices": [[[fmt(x) for x in row] for row in m] for m in mats]}


def _cube_generators(rng: random.Random):
    """(rz, rx) conjugated by a random signed permutation: still generates
    the whole rotation group of the cube."""
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    p = [[Fraction(signs[i]) if perm[i] == j else Fraction(0) for j in range(3)]
         for i in range(3)]
    pt = checks.transpose(p)
    to_f = lambda m: [[Fraction(x) for x in row] for row in m]  # noqa: E731
    return [checks.mat_mul(checks.mat_mul(p, to_f(g)), pt) for g in (RZ, RX)]


def check_euler(order: int, counts: list[int], r: int) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        require(out["group_order"] == order, f"group order {out['group_order']} != {order}")
        require(out["face_counts"] == counts, f"face counts {out['face_counts']} != {counts}")
        require(out["chi"] == 2, f"Euler sum {out['chi']} != 2")
        require(out["obstructed"] == any(c % r for c in counts), "obstruction verdict wrong")
    return check


def check_orbit(size: int) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        require(out["finite"] is True and out["size"] == size,
                f"orbit size {out['size']} != {size}")
        require(len(out["points"]) == size, "orbit point list has the wrong length")
    return check


def check_fixed(expected: bool) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        require(out["common_fixed_point"] is expected,
                f"common fixed point {out['common_fixed_point']}, expected {expected}")
    return check


def _check_descriptor(desc: dict, dim: int, r: int, base_turns) -> None:
    require(desc["kind"] == "lifted" and desc["dimension"] == dim and desc["r"] == r,
            "lifted descriptor header wrong")
    lower = desc["lower"]
    if dim > 4:
        _check_descriptor(lower, dim - 2, r, base_turns)
        return
    require(lower["kind"] == "circle", "base descriptor is not a circle division")
    turns = [Fraction(t) for t in lower["turns"]]
    require(turns == base_turns, "base turns differ")
    arcs = [(Fraction(a["start"]), Fraction(a["end"])) for a in lower["arcs"]]
    require(checks.arcs_partition(turns, arcs), "base arcs do not partition the circle")


def check_lift(dim: int, base_turns) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        _check_descriptor(out["descriptor"], dim, len(base_turns), base_turns)
    return check


def check_partition(samples: int) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        rep = out["report"]
        require(rep["violation_count"] == 0, f"{rep['violation_count']} violations")
        require(rep["samples_requested"] == samples, "sample count differs")
        require(0 < rep["retained"] <= samples, "retained count out of range")
        require(sum(rep["piece_counts"]) == rep["retained"], "piece counts do not add up")
    return check


def check_synth(r: int) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        import numpy as np

        mats = out["tuple"]["matrices"]
        require(len(mats) == r, "wrong number of matrices")
        for m in mats:
            a = np.array(m, dtype=float)
            require(float(np.max(np.abs(a.T @ a - np.eye(len(a))))) <= 1e-9,
                    "completed matrix is not orthonormal")
            require(abs(float(np.linalg.det(a)) - 1.0) <= 1e-8, "determinant is not 1")
    return check


def _base_division(rng: random.Random) -> list[Fraction]:
    """Turns c, c + 1/r, ..., c + (r-1)/r: the arc [0, 1/r) divides the circle."""
    r = rng.choice((2, 3))
    q = rng.randint(1, 12)
    c = Fraction(rng.randrange(q), q)
    return [(c + Fraction(i, r)) % 1 for i in range(r)]


def _lifted_json(turns, dim: int) -> dict:
    r = len(turns)
    desc = {"kind": "circle", "turns": [fmt(t) for t in turns],
            "arcs": [{"start": "0/1", "end": fmt(Fraction(1, r))}]}
    for d in range(4, dim + 1, 2):
        desc = {"kind": "lifted", "dimension": d, "r": r, "lower": desc}
    return desc


def _random_point(rng: random.Random) -> list[Fraction]:
    base = rng.choice(([1, 0, 0], [Fraction(3, 5), Fraction(4, 5), 0],
                       [Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)],
                       [Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)]))
    rng.shuffle(base)
    return [Fraction(x) * rng.choice((1, -1)) for x in base]


_WORDS = ["g1, g2", "g1 g2, g2 g1", "g1 g1, g2 g2", "g1 g2 g1^-1, g2"]


def _parse_words(text: str) -> list[list[tuple[int, int]]]:
    out = []
    for word in text.split(","):
        letters = []
        for tok in word.split():
            gen, _, exp = tok[1:].partition("^")
            letters.append((int(gen), int(exp) if exp else 1))
        out.append([(g, 1 if e > 0 else -1) for g, e in letters for _ in range(abs(e))])
    return out


# Cost strata: orbit, fixed-point and lift ops take a few milliseconds (5 of
# 15); euler-check on the cube group always builds the same 24-element group
# and 6-vertex polytope, so its cost hardly depends on the seed (5 of 15, the
# median); the quad euler checks, the partition checks and synthesis take
# 0.2-0.6 s (5 of 15, the tail).
FINITE_PASS = [
    "euler-cube", "orbit", "euler-axis", "fixed", "euler-cube", "partition-s3",
    "lift", "euler-cube", "synth", "orbit", "euler-cube", "partition-s5",
    "fixed", "euler-cube", "euler-axis",
]


def build_finite(rng: random.Random, inputs: str) -> list[Op]:
    cube = checks.rotation_group_of_cube()
    ops = []
    for i, kind in enumerate(FINITE_PASS):
        path = os.path.join(inputs, f"finite-{i}.json")
        if kind == "euler-cube":
            r = rng.choice((3, 4, 5))
            write_json(path, _exact_json(_cube_generators(rng)))
            argv = ["euler-check", "--generators", path, "--r", str(r)]
            check = check_euler(24, [6, 12, 8], r)
        elif kind == "euler-axis":
            ks = [rng.choice((1, 2, 4, 5, 7, 8, 10, 11))]
            if rng.random() < 0.5:
                ks.append(rng.randrange(12))
            r = rng.choice((3, 4, 5))
            write_json(path, {"mode": "quad", "dimension": 3, "sqrt": QUAD_SQRT,
                              "matrices": [_quad_axis_matrix(k) for k in ks]})
            order = checks.cyclic_order([Fraction(k, 12) for k in ks])[0]
            argv = ["euler-check", "--generators", path, "--r", str(r)]
            check = check_euler(order, checks.bipyramid_counts(order), r)
        elif kind == "orbit":
            write_json(path, _exact_json(_cube_generators(rng)))
            point = _random_point(rng)
            argv = ["orbit", "--tuple", path, "--point=" + ",".join(fmt(x) for x in point)]
            check = check_orbit(checks.orbit_size(point, cube))
        elif kind == "fixed":
            if rng.random() < 0.5:
                mats = _cube_generators(rng)
            else:  # quarter and half turns about one axis: a common fixed axis
                q1, q2 = rng.choice(([RZ, RZ], [RZ, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]]))
                mats = [[[Fraction(x) for x in row] for row in m] for m in (q1, q2)]
            write_json(path, _exact_json(mats))
            words = rng.choice(_WORDS)
            expected = checks.common_fixed_vector(
                [checks.word_matrix(w, mats) for w in _parse_words(words)])
            argv = ["fixed-point-test", "--tuple", path, "--words", words]
            check = check_fixed(expected)
        elif kind.startswith("partition"):
            dim = 4 if kind.endswith("s3") else 6
            write_json(path, _lifted_json(_base_division(rng), dim))
            argv = ["verify-partition", "--desc", path, "--samples", str(PARTITION_SAMPLES),
                    "--seed", str(rng.randrange(10 ** 6))]
            check = check_partition(PARTITION_SAMPLES)
        elif kind == "lift":
            turns = _base_division(rng)
            dim = rng.choice((4, 6))
            reduced = [(t - turns[-1]) % 1 for t in turns]
            argv = ["lift", "--base-angles", ",".join(fmt(t) for t in turns),
                    "--target-dim", str(dim)]
            check = check_lift(dim, reduced)
        else:
            argv = ["synth-generic", "--dim", "3", "--r", "2",
                    "--seed", str(rng.randrange(10 ** 6))]
            check = check_synth(2)
        ops.append(Op(kind, argv, check))
    return ops


BUILDERS = {"obstruct": build_obstruct, "circle": build_circle,
            "tile": build_tile, "finite": build_finite}
