import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spherediv import cli
from spherediv.circle import ArcSet, classify
from spherediv.lifting import (BaseCircleDivision, LiftedDivision,
                               PlaceholderDivision, descriptor_from_json, lift,
                               lift_from_circle, membership, verify_partition)

from oracles import verify_base_by_loop, verify_lifted_by_loop, verify_lifted_by_table

F = Fraction

THIRDS = (F(1, 3), F(2, 3), F(0))


def thirds_base():
    return BaseCircleDivision(THIRDS, classify(THIRDS).arcs)


def test_lift_shapes():
    base = thirds_base()
    desc = lift(base, 3)
    assert isinstance(desc, LiftedDivision)
    assert desc.dimension == 4 and desc.r == 3 and desc.lower is base


def test_lift_r_mismatch():
    with pytest.raises(ValueError):
        lift(thirds_base(), 2)


def test_lift_rejects_unverified_lower():
    bad = BaseCircleDivision((F(1, 2), F(0)), ArcSet(((F(0), F(2, 5)),)),
                             verify=False)
    with pytest.raises(ValueError):
        lift(bad, 2)


def test_lift_chain_to_six_dimensions():
    desc = lift_from_circle(THIRDS, classify(THIRDS).arcs, 6)
    assert desc.dimension == 6
    assert isinstance(desc.lower, LiftedDivision)
    assert isinstance(desc.lower.lower, BaseCircleDivision)
    with pytest.raises(ValueError):
        lift_from_circle(THIRDS, classify(THIRDS).arcs, 5)


def test_membership_base():
    base = thirds_base()
    assert membership(base, F(1, 6)) == 3
    assert membership(base, F(1, 2)) == 1
    assert membership(base, F(5, 6)) == 2


FOUR_SHIFTS = (F(1, 8), F(1, 4), F(3, 8), F(0))


@pytest.mark.parametrize("turns", [THIRDS, FOUR_SHIFTS])
def test_exact_membership_is_the_unique_translate(turns):
    base = BaseCircleDivision(turns, classify(turns).arcs)
    for k in range(240):
        angle = F(k, 240)
        hits = [i for i, t in enumerate(base.turns, 1)
                if any(a <= (angle - t) % 1 < b for a, b in base.arcs.arcs)]
        assert len(hits) == 1
        assert membership(base, angle) == hits[0], angle
    assert base.cuts is base.cuts  # built once per descriptor


def test_membership_at_a_wrap_point_that_is_no_cut():
    # the translate by 3/4 runs from 3/4 across the origin to 1/4; the
    # origin is inside it, so a Cartesian point there is decided
    base = BaseCircleDivision((F(1, 4), F(3, 4)), ArcSet(((F(0), F(1, 2)),)))
    assert base.cuts.cuts == (1, 3) and base.cuts.q == 4
    assert membership(base, (1.0, 0.0)) == 2
    assert membership(base, (0.0, 1.0)) is None  # the cut at 1/4
    assert membership(base, (-1.0, 0.0)) == 1


def test_membership_lifted_polar():
    desc = lift(thirds_base(), 3)
    assert membership(desc, (F(1, 2), None)) == 1
    assert membership(desc, (F(1, 6), None)) == 3
    assert membership(desc, (F(7, 9), None)) == 2


def test_circle_block_action_is_exact_turn_shift():
    # applying the i-th lifted rotation adds exactly i/r turns to the circle
    # coordinate, so membership shifts cyclically by i
    desc = lift(thirds_base(), 3)
    r = desc.r
    angles = [F(k, 37) for k in range(37)]
    for theta in angles:
        base_piece = membership(desc, (theta, None))
        for i in range(1, r + 1):
            shifted = (theta + F(i, r)) % 1
            got = membership(desc, (shifted, None))
            assert got == (base_piece + i - 1) % r + 1, (theta, i)


def test_membership_lifted_cartesian():
    desc = lift(thirds_base(), 3)
    ang = 2 * math.pi * 0.5
    p = (0.6, 0.8 * math.sin(0.0), math.cos(ang) * 0.8, math.sin(ang) * 0.8)
    # normalize: x = (0.6, 0), y = 0.8 * (cos pi, sin pi)
    assert abs(sum(c * c for c in p) - 1.0) < 1e-12
    assert membership(desc, p) == 1


def test_membership_null_circle_block_recurses():
    desc = lift(thirds_base(), 3)
    ang = 2 * math.pi / 6
    p = (math.cos(ang), math.sin(ang), 0.0, 0.0)
    assert membership(desc, p) == 3  # angle 1/6 of the base division


def test_membership_placeholder_flag():
    desc = lift(PlaceholderDivision(dimension=3, r=3), 3)
    p = (1.0, 0.0, 0.0, 0.0, 0.0)
    assert membership(desc, p) is None


def test_membership_rejects_off_sphere():
    desc = lift(thirds_base(), 3)
    with pytest.raises(ValueError):
        membership(desc, (1.0, 1.0, 1.0, 1.0))


def test_verify_base_division():
    rep = verify_partition(BaseCircleDivision((F(1, 2), F(0)),
                                              ArcSet(((F(0), F(1, 2)),))),
                           samples=20000, seed=0)
    assert rep.ok
    assert rep.retained > 19000


def test_verify_corrupted_arcs_reports_violations():
    bad = BaseCircleDivision((F(1, 2), F(0)), ArcSet(((F(0), F(2, 5)),)),
                             verify=False)
    rep = verify_partition(bad, samples=2000, seed=0)
    assert not rep.ok
    assert len(rep.violations) > 100


def test_verify_lifted_partitions():
    desc = lift(thirds_base(), 3)
    rep = verify_partition(desc, samples=30000, seed=0)
    assert rep.ok and rep.retained > 29000
    # empirical measures within five standard errors of 1/3
    se = math.sqrt((1 / 3) * (2 / 3) / rep.retained)
    for count in rep.piece_counts:
        assert abs(count / rep.retained - 1 / 3) <= 5 * se


ORACLE_BASES = {2: (F(1, 2), F(0)), 3: THIRDS, 4: (F(1, 4), F(1, 2), F(3, 4), F(0))}


@pytest.mark.parametrize("dim", [4, 6, 10])
@pytest.mark.parametrize("r", sorted(ORACLE_BASES))
def test_lifted_verifier_matches_the_sample_loop(r, dim):
    turns = ORACLE_BASES[r]
    desc = lift_from_circle(turns, classify(turns).arcs, dim)
    runs = [(10 ** 4, seed) for seed in range(30)] + [(10 ** 5, 30), (10 ** 5, 31)]
    for samples, seed in runs:
        assert verify_partition(desc, samples, seed).to_json() == \
            verify_lifted_by_loop(desc, samples, seed).to_json(), (samples, seed)


DIVISIONS = {
    "halves": (F(1, 2), F(0)),
    "thirds": THIRDS,
    "quarters": (F(1, 4), F(1, 2), F(3, 4), F(0)),
    "four-shift": FOUR_SHIFTS,
    "fifths": (F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(0)),
    "Z_60": (F(1, 60), F(1, 30), F(1, 20), F(0)),
}


@pytest.mark.parametrize("name", sorted(DIVISIONS))
def test_circle_verifier_matches_the_sample_loop(name):
    turns = DIVISIONS[name]
    c = classify(turns)
    assert c.verdict == "constructive"
    base = BaseCircleDivision(c.reduced_turns, c.arcs)
    for samples, seed in ((2000, 0), (1000, 1)):
        got = verify_partition(base, samples, seed).to_json()
        assert got == verify_base_by_loop(base, samples, seed).to_json()
        assert got["violation_count"] == 0


def _unchecked(turns, *arcs):
    return BaseCircleDivision(turns, ArcSet(arcs), verify=False)


CORRUPTED = {
    "gap": _unchecked((F(1, 2), F(0)), (F(0), F(2, 5))),
    "overlap": _unchecked((F(1, 2), F(0)), (F(0), F(3, 5))),
    "no arcs": _unchecked((F(1, 2), F(0))),
    "large denominators": _unchecked((F(1, 3), F(2, 3), F(0)),
                                     (F(0), F(1, 3) + F(7919, 1000003)),
                                     (F(1, 2), F(1, 2) + F(1, 2000029))),
    "ends closer than the margin": _unchecked((F(1, 2), F(0)), (F(0), F(1, 2) - F(1, 3 * 10 ** 7)),
                                              (F(1, 2) - F(1, 10 ** 8), F(1, 2) + F(1, 2000))),
    # a cut 1/(3 10^7) below one turn and none at 0: its margin wraps past 0
    "cut just below one turn": _unchecked((F(1, 2) - F(1, 3 * 10 ** 7), F(0)),
                                          (F(1, 4), F(1, 2)), (F(3, 4), F(7, 8))),
}


@pytest.mark.parametrize("name", sorted(CORRUPTED))
def test_corrupted_circle_reports_match_the_sample_loop(name):
    desc = CORRUPTED[name]
    for samples, seed in ((3000, 0), (2000, 5)):
        got = verify_partition(desc, samples, seed).to_json()
        assert got == verify_base_by_loop(desc, samples, seed).to_json()
        assert got["violation_count"] > 0


@pytest.mark.parametrize("r", [1, 7, 10, 20, 100])
def test_placeholder_lift_matches_the_sample_loop(r):
    # the lift's cells are read by arithmetic; the loop and the cut table agree
    desc = lift(PlaceholderDivision(dimension=3, r=r), r)
    for samples, seed in ((3000, 0), (3000, 1)):
        got = verify_partition(desc, samples, seed).to_json()
        assert got == verify_lifted_by_loop(desc, samples, seed).to_json()
        assert got == verify_lifted_by_table(desc, samples, seed).to_json()


@pytest.mark.parametrize("r", [2001, 10 ** 5, 3 * 10 ** 5])
def test_more_pieces_than_samples_list_the_pieces_sampled(r):
    # [piece, count] pairs for the pieces that got a sample, the rest as the
    # cut table counts them (at r = 3 10^5, 6 % of the angles are near a cut)
    desc = lift(PlaceholderDivision(dimension=3, r=r), r)
    got = verify_partition(desc, 2000, 4).to_json()
    want = verify_lifted_by_table(desc, 2000, 4).to_json()
    counts = want.pop("piece_counts")
    assert got.pop("piece_counts") == [[p + 1, c] for p, c in enumerate(counts) if c]
    assert got == want and got["retained"] > 0


def test_lift_verification_memory_does_not_grow_with_r():
    # nothing of size r is built: the table of r = 10^6 cells took 236 MB
    peaks = []
    for r in (10, 10 ** 6, 10 ** 9):
        desc = lift(PlaceholderDivision(dimension=3, r=r), r)
        tracemalloc.start()
        report = verify_partition(desc, 1000, 0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert report.samples_requested == 1000 and report.ok
    assert max(peaks) < 2 * 10 ** 6, peaks


class _FixedAngles:
    """Stands in for the sampler's generator: fixed circle angles, and
    Gaussian rows that keep every circle block."""

    def __init__(self, ks):
        self.ks = np.array(ks, dtype=np.int64)

    def integers(self, low, high, size):
        return self.ks

    def normal(self, size):
        return np.ones(size)


NEAR_CUT_CASES = {name: desc for name, desc in CORRUPTED.items() if desc.arcs.arcs}
NEAR_CUT_CASES["thirds"] = BaseCircleDivision(THIRDS, classify(THIRDS).arcs)
NEAR_CUT_CASES.update({f"placeholder-r{r}": lift(PlaceholderDivision(dimension=3, r=r), r)
                       for r in (7, 20, 100)})


@pytest.mark.parametrize("name", sorted(NEAR_CUT_CASES))
def test_angles_next_to_a_cut_match_the_sample_loop(name, monkeypatch):
    # every integer angle within the margin (plus three) of each cut, where
    # the exact integer thresholds decide which are dropped
    desc = NEAR_CUT_CASES[name]
    denom = 10 ** 6 * desc.r
    width = denom // 10 ** 7 + 3
    cuts = [F(c, desc.cuts.q) for c in desc.cuts.cuts]
    ks = sorted({(round(c * denom) + d) % denom for c in cuts
                 for d in range(-width, width + 1)})
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedAngles(ks))
    oracle = verify_lifted_by_loop if isinstance(desc, LiftedDivision) else verify_base_by_loop
    got = verify_partition(desc, len(ks)).to_json()
    assert got == oracle(desc, len(ks)).to_json()
    assert 0 < got["retained"] < len(ks)


def test_no_arcs_have_no_cut_to_reject_near(monkeypatch):
    desc, ks = CORRUPTED["no arcs"], [0, 1, 10 ** 6, 2 * 10 ** 6 - 1]
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedAngles(ks))
    got = verify_partition(desc, len(ks)).to_json()
    assert got == verify_base_by_loop(desc, len(ks)).to_json()
    assert got["retained"] == got["violation_count"] == len(ks)


@pytest.mark.parametrize("desc", [
    BaseCircleDivision(THIRDS, classify(THIRDS).arcs),
    lift(PlaceholderDivision(dimension=3, r=5000), 5000),
], ids=["thirds", "placeholder-lift-r5000"])
def test_default_sample_count_finishes_quickly(desc, tmp_path, capsys):
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(desc.to_json()))
    start = time.perf_counter()
    code = cli.main(["verify-partition", "--desc", str(path)])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == 0 and report["violation_count"] == 0
    assert report["samples_requested"] == 10 ** 5
    assert elapsed < 1.0


def test_verify_placeholder_rejected():
    with pytest.raises(ValueError):
        verify_partition(PlaceholderDivision(dimension=3, r=3), samples=10)


def test_verify_deterministic():
    desc = lift(thirds_base(), 3)
    a = verify_partition(desc, samples=5000, seed=3)
    b = verify_partition(desc, samples=5000, seed=3)
    assert a.piece_counts == b.piece_counts and a.retained == b.retained


def test_descriptor_json_round_trip():
    desc = lift_from_circle(THIRDS, classify(THIRDS).arcs, 6)
    again = descriptor_from_json(desc.to_json())
    assert again.dimension == 6 and again.r == 3
    assert isinstance(again.lower.lower, BaseCircleDivision)
    assert again.lower.lower.arcs == desc.lower.lower.arcs
    ph = PlaceholderDivision(dimension=5, r=4)
    assert descriptor_from_json(ph.to_json()) == ph


def _placeholder_chain(depth: int) -> dict:
    data, dim = {"kind": "placeholder", "dimension": 3, "r": 2}, 3
    for _ in range(depth):
        dim += 2
        data = {"kind": "lifted", "dimension": dim, "r": 2, "lower": data}
    return data


def test_descriptor_from_json_walks_deep_chains_without_recursion():
    desc = descriptor_from_json(_placeholder_chain(5000))
    assert desc.dimension == 3 + 2 * 5000 and desc.r == 2
    bottom = _placeholder_chain(5000)
    node = bottom
    while node["kind"] == "lifted":
        node = node["lower"]
    node["r"] = 3
    with pytest.raises(ValueError, match="does not match its lower division"):
        descriptor_from_json(bottom)
