import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from spherediv import cli, linalg
from spherediv.cli import main
from spherediv.points import (cayley_rotation, exact_tuple, floating_tuple,
                              identity_tuple, random_skew_matrix,
                              z_axis_rotation_tuple)
from spherediv.serialize import tuple_to_json

F = Fraction


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_tuple(tmp_path, t, name="tuple.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tuple_to_json(t)))
    return str(path)


def test_gegenbauer_command(capsys):
    code, out = run(capsys, ["gegenbauer", "--dim", "3", "--degree", "2",
                             "--eval", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == ["-1/2", "0/1", "3/2"]
    assert data["value"] == "-1/2"
    assert data["harmonic_dimension"] == 5
    assert data["tool"] == "spherediv" and "version" in data


def test_points_command(capsys):
    code, out = run(capsys, ["points", "--dim", "2", "--count", "6"])
    assert code == 0
    pts = json.loads(out)["points"]
    assert len(pts) == 6
    assert ["1/1", "0/1"] in pts


def test_basis_command(capsys):
    code, out = run(capsys, ["basis", "--dim", "3", "--degree", "1"])
    assert code == 0
    basis = json.loads(out)["basis"]
    assert len(basis["points"]) == 3


def test_obstruct_command(tmp_path, capsys):
    path = write_tuple(tmp_path, identity_tuple(2, 2))
    code, out = run(capsys, ["obstruct", "--tuple", path, "--nmax", "3"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["witness_degrees"] == []
    assert "no non-constant fractional division supported in degrees 1..3" \
        in report["disclaimer"]


def test_obstruct_witness_flag(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"mode": "circle", "dimension": 2,
                                "turns": ["1/2", "0/1"]}))
    code, out = run(capsys, ["obstruct", "--tuple", str(path), "--nmax", "2",
                             "--witness", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["report"]["witness_degrees"] == [1]
    assert data["witness"]["degree"] == 1
    assert data["witness"]["max_residual"] <= 1e-9


def test_obstruct_rejects_bad_tuple(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mode": "floating", "dimension": 2,
                                "matrices": [[[1.001, 0.0], [0.0, 1.0]]]}))
    assert main(["obstruct", "--tuple", str(path)]) == 2


def test_obstruct_dim_mismatch(tmp_path, capsys):
    path = write_tuple(tmp_path, identity_tuple(3, 2))
    assert main(["obstruct", "--dim", "2", "--tuple", path]) == 2


def test_circle_classify(capsys):
    code, out = run(capsys, ["circle", "classify", "--angles", "1/3,2/3,0"])
    assert code == 0
    cls = json.loads(out)["classification"]
    assert cls["verdict"] == "constructive"
    assert cls["arcs"] == [{"start": "0/1", "end": "1/3"}]


def test_circle_verify(tmp_path, capsys):
    arcs = tmp_path / "arcs.json"
    arcs.write_text(json.dumps([{"start": "0/1", "end": "1/3"}]))
    code, out = run(capsys, ["circle", "verify", "--angles", "1/3,2/3,0",
                             "--arcs", str(arcs)])
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_tile_command(capsys):
    code, out = run(capsys, ["tile", "--modulus", "12", "--shifts", "2,5,3,0"])
    assert code == 0
    assert json.loads(out)["solution"] == [0, 4, 8]
    code, out = run(capsys, ["tile", "--modulus", "4", "--shifts", "1,2,1,0"])
    assert code == 0
    assert json.loads(out)["solution"] is None


def test_tile_budget_exit_code(capsys):
    assert main(["tile", "--modulus", "132", "--shifts", "11,24,55,0",
                 "--node-budget", "2"]) == 3


def test_negative_budgets_are_input_errors(tmp_path, capsys):
    path = write_tuple(tmp_path, z_axis_rotation_tuple([F(1, 4), F(3, 4)], d=3))
    desc = str(tmp_path / "desc.json")
    assert main(["lift", "--base-angles", "1/3,2/3,0", "--target-dim", "4",
                 "--output", desc]) == 0
    for argv in (["tile", "--modulus", "12", "--shifts", "2,5,3,0", "--node-budget", "-1"],
                 ["orbit", "--tuple", path, "--point", "1,0,0", "--cap", "-3"],
                 ["euler-check", "--generators", path, "--r", "3", "--cap", "-1"],
                 ["verify-partition", "--desc", desc, "--samples", "-5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[-2]}: must be non-negative, got {argv[-1]}" in captured.err


def test_orbit_command(tmp_path, capsys):
    path = write_tuple(tmp_path, z_axis_rotation_tuple([F(1, 4), F(0)], d=3))
    code, out = run(capsys, ["orbit", "--tuple", path, "--point", "1,0,0",
                             "--cap", "100"])
    assert code == 0
    data = json.loads(out)
    assert data["finite"] is True and data["size"] == 4


def test_orbit_past_the_cap_is_an_exhausted_budget(tmp_path, capsys):
    # the orbit of e_1 under the 1/4 and 3/4 turns about z has 4 points
    path = write_tuple(tmp_path, z_axis_rotation_tuple([F(1, 4), F(3, 4)], d=3))
    assert main(["orbit", "--tuple", path, "--point", "1,0,0", "--cap", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "orbit closure exceeded the cap 2" in captured.err
    code, out = run(capsys, ["orbit", "--tuple", path, "--point", "1,0,0", "--cap", "4"])
    assert code == 0 and json.loads(out)["size"] == 4


def test_fixed_point_test_command(tmp_path, capsys):
    path = write_tuple(tmp_path, z_axis_rotation_tuple([F(1, 4), F(1, 2)], d=3))
    code, out = run(capsys, ["fixed-point-test", "--tuple", path,
                             "--words", "g1, g2"])
    assert code == 0
    data = json.loads(out)
    assert data["common_fixed_point"] is True


def test_orbit_rejects_a_point_of_the_wrong_dimension(tmp_path, capsys):
    path = write_tuple(tmp_path, z_axis_rotation_tuple([F(1, 4), F(0)], d=3))
    assert main(["orbit", "--tuple", path, "--point", "1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2 coordinates" in captured.err and "dimension 3" in captured.err


def test_fixed_point_test_rejects_a_generator_above_r(tmp_path, capsys):
    path = write_tuple(tmp_path, z_axis_rotation_tuple([F(1, 4)], d=3))
    assert main(["fixed-point-test", "--tuple", path, "--words", "g5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad letter (5, 1)" in captured.err


def test_euler_check_command(tmp_path, capsys):
    rz = [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    rx = [[F(1), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(1), F(0)]]
    path = write_tuple(tmp_path, exact_tuple([rz, rx]))
    code, out = run(capsys, ["euler-check", "--generators", path, "--r", "3",
                             "--cap", "500"])
    assert code == 0
    data = json.loads(out)
    assert data["group_order"] == 24
    assert data["face_counts"] == [6, 12, 8]
    assert data["chi"] == 2
    assert data["obstructed"] is True and data["witness_dim"] == 2


def test_euler_check_cap_counts_group_elements(tmp_path, capsys):
    path = write_tuple(tmp_path, exact_tuple([[[F(x) for x in row] for row in m]
                                              for m in CUBE_GENERATORS]))
    code, out = run(capsys, ["euler-check", "--generators", path, "--r", "3",
                             "--cap", "24"])
    assert code == 0 and json.loads(out)["group_order"] == 24
    assert main(["euler-check", "--generators", path, "--r", "3", "--cap", "23"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "group closure exceeded the cap 23" in captured.err


def test_euler_check_on_an_infinite_group_stops_at_the_default_cap(tmp_path, capsys):
    rng = random.Random(8)
    pair = exact_tuple([cayley_rotation(random_skew_matrix(rng, 3)) for _ in range(2)])
    path = write_tuple(tmp_path, pair)
    start = time.perf_counter()
    assert main(["euler-check", "--generators", path, "--r", "3"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "group closure exceeded the cap 500" in capsys.readouterr().err


def test_euler_check_on_the_icosahedral_group(tmp_path, capsys):
    # (x, y, z) -> (y, z, x) and (1/2)[[1, -phi, 1/phi], [phi, 1/phi, -1],
    # [1/phi, 1, phi]] with phi = (1 + sqrt 5)/2 and 1/phi = (-1 + sqrt 5)/2;
    # the orbit polytope is the icosidodecahedron, with pentagonal facets
    zero, one = ["0", "0"], ["1", "0"]
    half, neg_half = ["1/2", "0"], ["-1/2", "0"]
    phi, neg_phi, inv_phi = ["1/4", "1/4"], ["-1/4", "-1/4"], ["-1/4", "1/4"]
    cycle = [[zero, one, zero], [zero, zero, one], [one, zero, zero]]
    g = [[half, neg_phi, inv_phi], [phi, inv_phi, neg_half], [inv_phi, half, phi]]
    path = tmp_path / "icosahedral.json"
    path.write_text(json.dumps({"mode": "quad", "dimension": 3, "sqrt": 5,
                                "matrices": [cycle, g]}))
    start = time.perf_counter()
    code, out = run(capsys, ["euler-check", "--generators", str(path), "--r", "3"])
    elapsed = time.perf_counter() - start
    assert code == 0
    data = json.loads(out)
    assert data["group_order"] == 60
    assert data["vertex_count"] == 30
    assert data["face_counts"] == [30, 60, 32]
    assert data["chi"] == 2
    assert elapsed < 2.0, elapsed


def test_lift_and_verify_partition(tmp_path, capsys):
    desc_path = tmp_path / "desc.json"
    code, out = run(capsys, ["lift", "--base-angles", "1/3,2/3,0",
                             "--target-dim", "4", "--output", str(desc_path)])
    assert code == 0
    code, out = run(capsys, ["verify-partition", "--desc", str(desc_path),
                             "--samples", "5000", "--seed", "0"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["violation_count"] == 0
    assert report["seed"] == 0


def test_lift_output_wraps_descriptor(tmp_path, capsys):
    out_path = tmp_path / "d.json"
    assert main(["lift", "--base-angles", "1/3,2/3,0", "--target-dim", "6",
                 "--output", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["descriptor"]["dimension"] == 6


def test_lift_rejects_nonconstructive_base(capsys):
    assert main(["lift", "--base-angles", "1/3,0", "--target-dim", "4"]) == 2


def test_synth_generic_command(capsys):
    code, out = run(capsys, ["synth-generic", "--dim", "3", "--r", "2",
                             "--seed", "7", "--word-cap", "3", "--nmax", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["diagnostics"]["word_check_pass"] is True
    assert data["diagnostics"]["generic_candidate"] is True
    assert data["config"]["seed"] == 7
    assert max(data["orthonormality_residuals"]) <= 1e-12


def test_determinism_byte_identical(tmp_path, capsys):
    argv = ["synth-generic", "--dim", "3", "--r", "2", "--seed", "11",
            "--word-cap", "2", "--nmax", "1"]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert out1 == out2
    argv = ["verify-partition"]  # determinism of the sampling commands
    desc = tmp_path / "d.json"
    assert main(["lift", "--base-angles", "1/2,0", "--target-dim", "4",
                 "--output", str(desc)]) == 0
    argv = ["verify-partition", "--desc", str(desc), "--samples", "2000",
            "--seed", "5"]
    _, outa = run(capsys, argv)
    _, outb = run(capsys, argv)
    assert outa == outb


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_missing_file_is_input_error():
    assert main(["obstruct", "--tuple", "/nonexistent/nope.json"]) == 2


def test_malformed_angles_is_input_error():
    assert main(["circle", "classify", "--angles", "0.25,0"]) == 2


def test_obstruct_rejects_non_finite_floating_tuple(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"mode": "floating", "dimension": 2, '
                    '"matrices": [[[NaN, 0.0], [0.0, 1.0]]]}')
    assert main(["obstruct", "--tuple", str(path), "--nmax", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_tuple_file_must_hold_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["obstruct", "--tuple", str(path)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_failed_witness_gate_exits_4(tmp_path, capsys, monkeypatch):
    path = write_tuple(tmp_path, z_axis_rotation_tuple(
        [F(1, 4), F(1, 2), F(3, 4), F(0)]))
    real = linalg.kernel_vector

    def wrong(m):
        v = real(m)
        return [c + 1 for c in v]

    monkeypatch.setattr(linalg, "kernel_vector", wrong)
    assert main(["obstruct", "--tuple", path, "--nmax", "2", "--witness", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal check failed: witness residual")
    assert len(captured.err.splitlines()) == 1


def test_failed_euler_gate_exits_4(tmp_path, capsys, monkeypatch):
    rz = [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    path = write_tuple(tmp_path, exact_tuple([rz]))
    monkeypatch.setattr(cli, "euler_check", lambda lattice: False)
    assert main(["euler-check", "--generators", path, "--r", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal check failed: Euler gate failed: alternating sum 2 != 2\n"


def write_json(tmp_path, data, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


CUBE_GENERATORS = [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, -1], [0, 1, 0]]]
THIRDS = {"mode": "circle", "dimension": 2, "turns": ["1/3", "2/3", "0/1"]}


def test_euler_check_refuses_floating_and_circle_tuples(tmp_path, capsys):
    floating = write_tuple(tmp_path, floating_tuple(CUBE_GENERATORS), "f.json")
    circle = write_json(tmp_path, THIRDS, "c.json")
    for path, mode in ((floating, "floating"), (circle, "circle")):
        assert main(["euler-check", "--generators", path, "--r", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{mode} tuples are not accepted" in captured.err
        assert "accepted modes: exact, quad" in captured.err


def test_euler_check_in_dimension_one_is_an_input_error(tmp_path, capsys):
    # S^0 has no face lattice; this used to fail the Euler gate (exit 4)
    path = write_tuple(tmp_path, exact_tuple([[[1]]]))
    assert main(["euler-check", "--generators", path, "--r", "3"]) == 2
    assert "dimension >= 2" in capsys.readouterr().err


def test_fixed_point_test_refuses_circle_tuples(tmp_path, capsys):
    path = write_json(tmp_path, THIRDS)
    assert main(["fixed-point-test", "--tuple", path, "--words", "g1"]) == 2
    assert capsys.readouterr().err.endswith("accepted modes: exact, quad\n")


def test_orbit_and_fixed_point_test_refuse_floating_tuples(tmp_path, capsys):
    # a finite orbit and a shared fixed vector are closed conditions that no
    # float computation proves
    quarter = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    path = write_tuple(tmp_path, floating_tuple([quarter]))
    for argv, accepted in ((["orbit", "--point", "1,0,0"], "exact, quad, circle"),
                           (["fixed-point-test", "--words", "g1"], "exact, quad")):
        assert main(argv + ["--tuple", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "floating tuples are not accepted" in captured.err
        assert captured.err.endswith(f"accepted modes: {accepted}\n")


def test_malformed_tuple_structures_are_input_errors(tmp_path, capsys):
    cases = [
        (["obstruct"], {"mode": "exact", "dimension": 2, "matrices": 5}),
        (["obstruct"], {"mode": "exact", "dimension": 2,
                        "matrices": [[["1/1", None], ["0/1", "1/1"]]]}),
        (["obstruct"], {"mode": "quad", "dimension": 2, "sqrt": 3,
                        "matrices": [[[None, ["0", "0"]], [["0", "0"], ["1", "0"]]]]}),
        (["euler-check", "--r", "3"], {"mode": "exact", "dimension": 3, "matrices": []}),
        (["obstruct"], {"mode": "circle", "dimension": 2, "turns": []}),
        (["obstruct"], {"mode": "exact", "dimension": "2",
                        "matrices": [[["1/1", "0/1"], ["0/1", "1/1"]]]}),
        (["obstruct"], {"mode": "exact", "dimension": 0, "matrices": [[]]}),
        (["obstruct"], {"mode": "floating", "dimension": 2, "matrices": [[[1.0, 0.0]]]}),
        (["obstruct"], {"mode": "circle", "turns": ["1/3", {}]}),
    ]
    for argv, data in cases:
        path = write_json(tmp_path, data)
        flag = "--generators" if argv[0] == "euler-check" else "--tuple"
        assert main(argv + [flag, path]) == 2, data
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")


def test_orbit_of_a_circle_tuple_counts_each_point_once(tmp_path, capsys):
    for q, size in ((3, 3), (4, 4), (12, 12)):
        turns = [f"{k}/{q}" for k in range(1, q)] + ["0/1"]
        path = write_json(tmp_path, {"mode": "circle", "dimension": 2, "turns": turns})
        code, out = run(capsys, ["orbit", "--tuple", path, "--point", "1,0"])
        assert code == 0
        data = json.loads(out)
        assert data["finite"] is True and data["size"] == size


def test_circle_witness_block_is_the_canonical_kernel_vector(tmp_path, capsys):
    path = write_json(tmp_path, THIRDS)
    code, out = run(capsys, ["obstruct", "--tuple", path, "--nmax", "3",
                             "--witness", "2"])
    assert code == 0
    data = json.loads(out)
    assert [d["det"] for d in data["report"]["degrees"]] == \
        ["0", "0", "CycloNum(12, 9/4*z^0)"]
    assert data["witness"]["coefficients"] == ["CycloNum(12, 1*z^0)", "CycloNum(12, 0)"]


def test_lifted_descriptor_must_match_its_lower_division(tmp_path, capsys):
    base = {"kind": "circle", "turns": ["0/1", "1/3", "2/3"],
            "arcs": [{"start": "0/1", "end": "1/3"}]}
    good = write_json(tmp_path, {"kind": "lifted", "dimension": 4, "r": 3, "lower": base},
                      "good.json")
    assert main(["verify-partition", "--desc", good, "--samples", "200"]) == 0
    capsys.readouterr()
    for dim, r in ((9, 5), (4, 5), (6, 3), (4, "3"), (4, 3.0)):
        path = write_json(tmp_path, {"kind": "lifted", "dimension": dim, "r": r,
                                     "lower": base}, "bad.json")
        assert main(["verify-partition", "--desc", path, "--samples", "200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")


def test_obstruct_witness_at_a_decided_obstructed_degree(tmp_path, capsys, monkeypatch):
    path = write_tuple(tmp_path, identity_tuple(2, 2))

    def unreachable(*args):
        raise AssertionError("the sweep already decided this degree")

    monkeypatch.setattr(cli, "extract_witness", unreachable)
    assert main(["obstruct", "--tuple", path, "--nmax", "3", "--witness", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: degree 2 is obstructed: det L != 0, no witness exists\n"


def test_descriptor_files_are_checked_at_the_boundary(tmp_path, capsys):
    base = {"kind": "circle", "turns": ["0/1", "1/2"], "arcs": [{"start": "0/1", "end": "1/2"}]}
    cases = [[1], "descriptor", {"kind": "lifted", "dimension": 4, "r": 2, "lower": [base]},
             {**base, "turns": "0/1"}, {**base, "arcs": {"start": "0/1", "end": "1/2"}},
             {**base, "arcs": [["0/1", "1/2"]]}, {**base, "turns": [None, "1/2"]},
             {"kind": "placeholder", "dimension": 0, "r": 2},
             {"kind": "placeholder", "dimension": 3, "r": "2"},
             {"kind": "placeholder", "dimension": True, "r": 2}]
    # the lower division is checked at load: arcs that do not partition the
    # circle fail under any number of lifts
    bad_base = {**base, "arcs": [{"start": "0/1", "end": "2/5"}]}
    lifted = {"kind": "lifted", "dimension": 4, "r": 2, "lower": bad_base}
    cases += [lifted, {"kind": "lifted", "dimension": 6, "r": 2, "lower": lifted}]
    for data in cases:
        path = write_json(tmp_path, data)
        assert main(["verify-partition", "--desc", path, "--samples", "50"]) == 2, data
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")
    # nesting deeper than the JSON reader allows is an input error as well
    path = tmp_path / "deep.json"
    path.write_text('{"kind": "lifted", "lower": ' * 50000 + "{}" + "}" * 50000)
    assert main(["verify-partition", "--desc", str(path), "--samples", "50"]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_upper_entry_files_are_checked_at_the_boundary(tmp_path, capsys):
    good = {"dimension": 2, "blocks": [[[0.01]], [[-0.005]]]}
    argv = ["synth-generic", "--dim", "2", "--r", "2", "--word-cap", "2", "--nmax", "1"]
    assert main(argv + ["--upper", write_json(tmp_path, good)]) == 0
    capsys.readouterr()
    cases = [(argv, [1]), (argv, {"dimension": 1, "blocks": [[]]}),
             (argv, {"dimension": "2", "blocks": good["blocks"]}),
             (argv, {"dimension": 2, "blocks": [[0.01], [-0.02]]}),
             (argv, {"dimension": 2, "blocks": [[["0.01"]], [[-0.02]]]}),
             (argv, {"dimension": 2, "blocks": [[[True]], [[-0.02]]]}),
             (argv, {"dimension": 2, "blocks": [[[float("nan")]], [[-0.02]]]}),
             (["synth-generic", "--dim", "3", "--r", "2"], good),
             (["synth-generic", "--dim", "2", "--r", "1"], good)]
    for args, data in cases:
        assert main(args + ["--upper", write_json(tmp_path, data)]) == 2, (args, data)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")


def test_malformed_arc_files_are_input_errors(tmp_path, capsys):
    for data in ([1], {"start": "0/1", "end": "1/2"}, [{"start": None, "end": "1/2"}]):
        path = write_json(tmp_path, data)
        assert main(["circle", "verify", "--angles", "1/2,0", "--arcs", path]) == 2, data
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")


@pytest.mark.parametrize("argv", [
    ["tile", "--modulus", "149460", "--shifts", "50619,28779,84694,0"],
    ["circle", "classify", "--angles", "10/53,2/47,5/12,17/20"],
])
def test_recursion_depth_is_an_exhausted_budget(capsys, argv):
    assert main(argv) == 3
    assert capsys.readouterr().err == "resource budget exceeded: recursion depth\n"


def test_gegenbauer_at_degree_3000_is_answered(capsys):
    start = time.perf_counter()
    assert main(["gegenbauer", "--dim", "3", "--degree", "3000"]) == 0
    assert time.perf_counter() - start < 5.0
    data = json.loads(capsys.readouterr().out)
    assert len(data["coefficients"]) == 3001


@pytest.mark.parametrize("argv", [
    ["points", "--dim", "30", "--count", "1"],
    ["basis", "--dim", "25", "--degree", "1"],
])
def test_high_dimension_point_enumeration_stops_at_its_budget(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("resource budget exceeded: ")


def test_circle_classify_at_a_large_prime_is_fast(capsys):
    start = time.perf_counter()
    assert main(["circle", "classify", "--angles", "75002/100003,0"]) == 0
    assert time.perf_counter() - start < 0.1
    assert json.loads(capsys.readouterr().out)["classification"]["verdict"] == "not_fractional"


# Runs each argv (a JSON list of lists, the first command-line argument)
# through cli.main and prints, as JSON, whether numpy was loaded after the
# import and then the exit code and whether numpy was loaded after each one.
_NUMPY_PROBE = """
import json, sys
import spherediv.cli
seen = ['numpy' in sys.modules]
for argv in json.loads(sys.argv[1]):
    seen.append([spherediv.cli.main(argv), 'numpy' in sys.modules])
print(json.dumps(seen))
"""


def _probe_numpy(commands):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_exact_commands_do_not_load_numpy(tmp_path):
    out = ["--output", str(tmp_path / "out.json")]
    cube = write_json(tmp_path, {"mode": "exact", "dimension": 3,
                                 "matrices": [[[str(x) for x in row] for row in m]
                                              for m in CUBE_GENERATORS]}, "cube.json")
    quad = write_tuple(tmp_path, z_axis_rotation_tuple([F(1, 12), F(5, 12)], d=3), "quad.json")
    circle = write_json(tmp_path, THIRDS, "thirds.json")
    arcs = write_json(tmp_path, [{"start": "0/1", "end": "1/3"}], "arcs.json")
    desc = str(tmp_path / "desc.json")
    exact = [
        ["gegenbauer", "--dim", "3", "--degree", "4", "--eval", "1/3"] + out,
        ["points", "--dim", "3", "--count", "5"] + out,
        ["basis", "--dim", "3", "--degree", "2"] + out,
        ["circle", "classify", "--angles", "1/3,2/3,0"] + out,
        ["circle", "verify", "--angles", "1/3,2/3,0", "--arcs", arcs] + out,
        ["tile", "--modulus", "12", "--shifts", "2,5,3,0"] + out,
        ["orbit", "--tuple", cube, "--point", "3/5,4/5,0"] + out,
        ["orbit", "--tuple", quad, "--point", "1,0,0"] + out,
        ["fixed-point-test", "--tuple", cube, "--words", "g1 g2, g2 g1"] + out,
        ["euler-check", "--generators", cube, "--r", "3"] + out,
        ["lift", "--base-angles", "1/3,2/3,0", "--target-dim", "4", "--output", desc],
        ["obstruct", "--tuple", cube, "--nmax", "2"] + out,
        ["obstruct", "--tuple", quad, "--nmax", "2"] + out,
        ["obstruct", "--tuple", circle, "--nmax", "2"] + out,
    ]
    seen = _probe_numpy(exact + [["verify-partition", "--desc", desc, "--samples", "100"] + out])
    assert seen[0] is False, "importing spherediv.cli loaded numpy"
    assert seen[1:-1] == [[0, False]] * len(exact)
    assert seen[-1] == [0, True]
    synth = ["synth-generic", "--dim", "2", "--r", "2", "--word-cap", "2", "--nmax", "1"]
    assert _probe_numpy([synth + out]) == [False, [0, True]]
