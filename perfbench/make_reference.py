"""Regenerate reference/cayley.json: the Cayley-tuple pool of the obstruct
workload with the program's per-degree verdicts and determinant digests.

Run from the repository root, once, on a commit whose verdicts are trusted:

    python3 perfbench/make_reference.py

The tuples are exact Cayley transforms (I - S)(I + S)^-1 of seeded rational
skew-symmetric S, computed here without the program.  Of CANDIDATES tuples
per kind, the pool keeps those whose determinant strings have total length
nearest the median, so that every seed draws tuples of similar exact
arithmetic cost.  A later change must reproduce every status and
determinant string exactly.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import CAYLEY_KINDS, REFERENCE, det_digest, fmt  # noqa: E402

POOL_SEED = 20201214
CANDIDATES = 3  # candidates drawn per kept tuple


def _inverse(m):
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def cayley(rng: random.Random, d: int):
    s = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            s[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            s[j][i] = -s[i][j]
    minus = [[Fraction(int(i == j)) - s[i][j] for j in range(d)] for i in range(d)]
    plus = _inverse([[Fraction(int(i == j)) + s[i][j] for j in range(d)] for i in range(d)])
    return [[sum(minus[i][t] * plus[t][j] for t in range(d)) for j in range(d)]
            for i in range(d)]


def main() -> int:
    from spherediv.cli import main as cli_main

    rng = random.Random(POOL_SEED)
    tuples = []
    with tempfile.TemporaryDirectory() as tmp:
        for kind, (d, r, n_max, size) in CAYLEY_KINDS.items():
            candidates = []
            for _ in range(CANDIDATES * size):
                data = {"mode": "exact", "dimension": d,
                        "matrices": [[[fmt(x) for x in row] for row in cayley(rng, d)]
                                     for _ in range(r)]}
                path = os.path.join(tmp, "t.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                with redirect_stdout(io.StringIO()) as buf:
                    code = cli_main(["obstruct", "--tuple", path, "--nmax", str(n_max)])
                if code != 0:
                    raise SystemExit(f"obstruct failed with exit {code}")
                degrees = json.loads(buf.getvalue())["report"]["degrees"]
                size_proxy = sum(len(str(g["det"])) for g in degrees)
                candidates.append((size_proxy, {"kind": kind, "nmax": n_max, "tuple": data,
                                                "degrees": [
                    {"n": g["n"], "status": g["status"], "det_sha256": det_digest(g["det"])}
                    for g in degrees]}))
            median = sorted(p for p, _ in candidates)[len(candidates) // 2]
            candidates.sort(key=lambda c: abs(c[0] - median))
            tuples += [entry for _, entry in candidates[:size]]
            print(kind, "kept", size, "of", len(candidates), file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": POOL_SEED, "tuples": tuples}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
