"""Tests of the benchmark itself: its checks must be able to fail, its inputs
must follow the seed, and its metric lists must match BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import cmath
import copy
import json
import math
import os
import random
from fractions import Fraction

import pytest

import checks
import run
import tracing
import workloads
from conftest import ROOT

F = Fraction


# -- the independent arithmetic -----------------------------------------------------


def _numeric_vanishes(turns) -> bool:
    return abs(sum(cmath.exp(2j * cmath.pi * float(t)) for t in turns)) < 1e-9


def test_polygon_test_matches_numeric_sum_for_small_denominators():
    values = sorted({F(p, q) for q in range(1, 11) for p in range(q)})
    rng = random.Random(3)
    for _ in range(4000):
        turns = [rng.choice(values) for _ in range(rng.randint(1, 5))]
        assert checks.vanishes(turns) == _numeric_vanishes(turns), turns


def test_polygon_test_refuses_weight_six():
    with pytest.raises(ValueError):
        checks.vanishes([F(i, 6) for i in range(6)])


def test_arcs_partition_and_one_cell_shift():
    turns = [F(1, 3), F(2, 3), F(0)]
    arcs = [(F(0), F(1, 6)), (F(1, 2), F(2, 3))]
    assert checks.arcs_partition(turns, arcs)
    shifted = [(F(0), F(1, 6)), (F(1, 2) + F(1, 6), F(2, 3) + F(1, 6))]
    assert not checks.arcs_partition(turns, shifted)


def test_independent_search_agrees_with_closed_form():
    for m in range(1, 8):
        for k in range(4 * m):
            if math.gcd(k, m) == 1:
                assert (checks.tiling_exists(4 * m, (k, k + m, m, 0))
                        == checks.four_shift_tileable(m, k)), (m, k)


def test_pairing_rule_for_four_turns_matches_the_scan():
    rng = random.Random(4)
    seen = set()
    for _ in range(500):
        turns = [F(rng.randrange(q), q) for q in (rng.randint(1, 12) for _ in range(3))]
        turns.append(F(0))
        never = workloads._never_cancels4(turns)
        assert never == (checks.first_cancelling_degree([turns]) is None), turns
        seen.add(never)
    assert seen == {True, False}


def test_bipyramid_counts_have_euler_sum_two():
    for order in range(1, 25):
        v, e, f = checks.bipyramid_counts(order)
        assert v - e + f == 2


# -- every check can fail -------------------------------------------------------------


@pytest.fixture(scope="module")
def program():
    import spherediv.cli as cli
    from spherediv import zonal
    return cli, zonal


def _runner(program, tmp_path):
    cli, zonal = program
    return run.Runner(cli.main, zonal, str(tmp_path / "out.json"))


def _first(ops, kind):
    return next(op for op in ops if op.kind == kind)


def _rerun_with(runner, op, data) -> str:
    with open(runner.out_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return runner.classify(op, 0, "")[0]


def test_flipped_degree_status_fails(program, tmp_path):
    runner = _runner(program, tmp_path)
    ops = workloads.build("obstruct", 1, str(tmp_path / "in"))
    for kind in ("circle2", "cayley3r3"):
        op = _first(ops, kind)
        _, outcome, data = runner.run(op)
        assert outcome == "ok", runner.problems
        bad = copy.deepcopy(data)
        degree = bad["report"]["degrees"][0]
        degree["status"] = ("obstructed" if degree["status"] == "witness_exists"
                            else "witness_exists")
        assert _rerun_with(runner, op, bad) == "failed"
    bad = copy.deepcopy(data)
    bad["report"]["degrees"][-1]["det"] += "1"
    assert _rerun_with(runner, op, bad) == "failed"


def test_added_report_field_still_passes(program, tmp_path):
    runner = _runner(program, tmp_path)
    op = _first(workloads.build("obstruct", 1, str(tmp_path / "in")), "circle2")
    _, outcome, data = runner.run(op)
    data["report"]["stats"] = {"nodes": 0}
    assert _rerun_with(runner, op, data) == "ok"


def test_arc_shifted_by_one_cell_fails(program, tmp_path):
    runner = _runner(program, tmp_path)
    op = workloads.Op("classify", ["circle", "classify", "--angles", "1/6,1/3,0"],
                      workloads.check_classify(workloads.Draw(
                          [(F(1, 6), ""), (F(1, 3), ""), (F(0), "")])))
    _, outcome, data = runner.run(op)
    assert outcome == "ok" and data["classification"]["verdict"] == "constructive"
    assert len(data["classification"]["arcs"]) == 2
    bad = copy.deepcopy(data)
    arc = bad["classification"]["arcs"][0]
    cell = F(arc["end"]) - F(arc["start"])
    arc["start"] = workloads.fmt(F(arc["start"]) + cell)
    arc["end"] = workloads.fmt(F(arc["end"]) + cell)
    assert _rerun_with(runner, op, bad) == "failed"
    wrong = copy.deepcopy(data)
    wrong["classification"]["verdict"] = "fractional_only"
    assert _rerun_with(runner, op, wrong) == "failed"


def test_tiling_missing_a_residue_fails(program, tmp_path):
    runner = _runner(program, tmp_path)
    op = workloads.Op("tile", ["tile", "--modulus", "12", "--shifts", "2,5,3,0"],
                      workloads.check_four_shift(3, 2))
    _, outcome, data = runner.run(op)
    assert outcome == "ok" and data["solution"]
    bad = dict(data, solution=data["solution"][1:])
    assert _rerun_with(runner, op, bad) == "failed"
    assert _rerun_with(runner, op, dict(data, solution=None)) == "failed"


def test_refutation_claimed_tileable_fails(program, tmp_path):
    runner = _runner(program, tmp_path)
    op = workloads.Op("tile", [], workloads.check_four_shift(3, 1))
    assert _rerun_with(runner, op, {"solution": [0, 1, 2]}) == "failed"
    assert _rerun_with(runner, op, {"solution": None}) == "ok"


def test_wrong_face_count_fails(program, tmp_path):
    runner = _runner(program, tmp_path)
    ops = workloads.build("finite", 1, str(tmp_path / "in"))
    for kind in ("euler-cube", "euler-axis"):
        op = _first(ops, kind)
        _, outcome, data = runner.run(op)
        assert outcome == "ok", runner.problems
        bad = copy.deepcopy(data)
        bad["face_counts"][1] += 1
        assert _rerun_with(runner, op, bad) == "failed"


def test_partition_violation_fails(program, tmp_path):
    runner = _runner(program, tmp_path)
    op = _first(workloads.build("finite", 1, str(tmp_path / "in")), "partition-s3")
    data = {"report": {"violation_count": 1, "samples_requested": 100000,
                       "retained": 99990, "piece_counts": [99990]}}
    assert _rerun_with(runner, op, data) == "failed"


def test_exit_codes_other_than_zero_fail_unless_budget_limited(program, tmp_path):
    runner = _runner(program, tmp_path)
    op = workloads.Op("x", [], lambda out: None)
    assert runner.classify(op, 3, "")[0] == "failed"
    assert runner.classify(op, 2, "")[0] == "failed"
    assert runner.classify(op, None, "")[0] == "failed"
    budget = workloads.Op("x", [], lambda out: None, budget_limited=True)
    assert runner.classify(budget, 3, "")[0] == "budget"


def test_stalled_instance_ends_at_the_budget(program, tmp_path):
    runner = _runner(program, tmp_path)
    ops = workloads.build("tile", 1, str(tmp_path / "in"))
    stall = _first(ops, "tile-stall")
    assert stall.argv[:5] == ["tile", "--modulus", "204", "--shifts", "2,53,51,0"]
    assert runner.run(stall)[1] == "budget"


def test_only_over_budget_tile_kinds_may_stop_at_the_budget(program, tmp_path):
    ops = workloads.build("tile", 1, str(tmp_path / "in"))
    assert {op.kind for op in ops if op.budget_limited} == {"tile-over", "tile-stall"}
    assert sum(op.budget_limited for op in ops) == 11
    runner = _runner(program, tmp_path)
    refute = _first(ops, "tile-refute")
    starved = workloads.Op(refute.kind, refute.argv[:-1] + ["10"], refute.check)
    assert runner.run(starved)[1] == "failed"


def test_traced_budget_stop_must_spend_one_node_past_the_budget(program, tmp_path):
    runner = _runner(program, tmp_path)
    stall = _first(workloads.build("tile", 1, str(tmp_path / "in")), "tile-stall")
    runner.tracer = tracer = tracing.Tracer()
    tracer.install()
    try:
        assert runner.run(stall)[1] == "budget"
    finally:
        tracer.uninstall()
    assert tracer.problems == []
    assert tracer.counts["tiling.nodes"] == workloads.TILE_NODE_BUDGET + 1

    class EarlyStop:  # a search that gave up before reaching its budget
        nodes = 500

    budget_error = type("BudgetExceeded", (Exception,), {})
    tracer.engines.append(EarlyStop())
    tracer._after_solve((None,), {"node_budget": 1000}, None, budget_error())
    assert len(tracer.problems) == 1


def test_uncached_ops_ignore_the_callers_cache_dir(program, tmp_path, monkeypatch):
    cache = tmp_path / "caller-cache"
    cache.mkdir()
    monkeypatch.setenv("SPHEREDIV_CACHE_DIR", str(cache))
    runner = _runner(program, tmp_path)
    op = _first(workloads.build("obstruct", 1, str(tmp_path / "in")), "cayley3r3")
    assert runner.run(op)[1] == "ok"
    assert list(cache.iterdir()) == []


# -- inputs follow the seed -------------------------------------------------------------


def _snapshot(workload, seed, directory):
    ops = workloads.build(workload, seed, directory)
    files = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                files[name] = fh.read()
    return [[a.replace(directory, "<in>") for a in op.argv] for op in ops], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_change_with_it(workload, tmp_path):
    a = _snapshot(workload, 5, str(tmp_path / "a"))
    b = _snapshot(workload, 5, str(tmp_path / "b"))
    c = _snapshot(workload, 6, str(tmp_path / "c"))
    assert a == b
    assert a != c
    assert not any("--threads" in argv for argv in a[0])


# -- metric names --------------------------------------------------------------------------


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["per_layer"] == tracing.per_layer_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_tracer_restores_the_program():
    import spherediv.linalg as linalg
    import spherediv.obstruction as obstruction
    import spherediv.scalars as scalars

    before = (linalg.det, obstruction.build_zonal_basis, scalars.QuadExt.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    assert linalg.det is not before[0]
    assert obstruction.build_zonal_basis is not before[1]
    tracer.uninstall()
    assert (linalg.det, obstruction.build_zonal_basis, scalars.QuadExt.__mul__) == before


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["cli", 0.0, 10.0, None, 1], ["linalg.det", 1.0, 4.0, 0, 1],
                    ["zonal.basis", 5.0, 9.0, 0, 1], ["zonal.enumerate_points", 5.0, 6.0, 2, 1]]
    data = tracer.take_pass()
    assert data["self"]["cli"] == pytest.approx(3.0)
    assert data["self"]["zonal.basis"] == pytest.approx(3.0)
    assert data["inclusive"]["zonal.basis"] == pytest.approx(4.0)
    assert data["ops"] == 1


def test_tail_is_the_highest_percentile_with_ten_ops_above():
    tally = run.Tally()
    for ms in range(1, 101):
        tally.add(ms / 1000.0, "ok")
    value, pct = tally.tail()
    assert value == pytest.approx(90.0) and pct == pytest.approx(90.0)
    assert sum(1 for x in tally.latencies_ms if x > value) == 10


def test_cube_group_and_its_orbits():
    group = checks.rotation_group_of_cube()
    assert len({json.dumps([[str(x) for x in r] for r in g]) for g in group}) == 24
    assert checks.orbit_size([F(1), F(0), F(0)], group) == 6
    assert checks.orbit_size([F(3, 5), F(4, 5), F(0)], group) == 24
    assert checks.orbit_size([F(2, 3), F(2, 3), F(1, 3)], group) == 24
