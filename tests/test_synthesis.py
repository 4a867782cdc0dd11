import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from spherediv import synthesis
from spherediv.actions import evaluate_word, reduced_words
from spherediv.cli import main
from spherediv.points import (cayley_rotation, exact_tuple, identity_tuple,
                              random_skew_matrix)
from spherediv.synthesis import (CompletionError, UpperEntries, _WordMatrices,
                                 complete_rows, draw_upper_entries,
                                 epsilon_schedule, genericity_diagnostics,
                                 identity_distance_target)
from oracles import float_word_matrix_by_letters


def test_schedule_values():
    delta = 1.0 / (2 ** 2 * math.factorial(2))
    assert epsilon_schedule(2) == [delta / 8]
    b = epsilon_schedule(3)
    assert len(b) == 2
    assert b[0] == pytest.approx(identity_distance_target(3) / 144)
    assert b[1] == pytest.approx(identity_distance_target(3) / 12)


def test_schedule_positive_decreasing_outward():
    for d in (2, 3, 4, 5):
        b = epsilon_schedule(d)
        assert all(x > 0 for x in b)
        # the outermost (first) row carries the tightest bound
        assert all(b[i] < b[i + 1] for i in range(len(b) - 1))


def test_zero_entries_give_exact_identities():
    d = 3
    upper = UpperEntries(d, [[[0.0] * (d - 1 - m) for m in range(d - 1)]
                             for _ in range(2)])
    result = complete_rows(upper)
    for m in result.matrices:
        assert m == np.eye(d).tolist()
    assert result.max_orthonormality_residual == 0.0


def test_random_draws_complete_within_tolerances():
    for d in (2, 3, 4):
        rng = np.random.default_rng(100 + d)
        for _ in range(50):
            upper = draw_upper_entries(rng, d, 2)
            assert upper.within_schedule()
            result = complete_rows(upper)
            assert result.max_orthonormality_residual <= 1e-12
            assert result.max_determinant_residual <= 1e-10
            assert max(result.identity_distances) < identity_distance_target(d)
            # the residuals are recomputed from the float matrices themselves
            a = np.array(result.matrices)
            assert np.abs(a.transpose(0, 2, 1) @ a - np.eye(d)).max() <= 1e-12
            assert np.abs(np.linalg.det(a) - 1).max() <= 1e-10


def test_halved_bounds_never_fail():
    d = 3
    rng = np.random.default_rng(9)
    bounds = [b / 2 for b in epsilon_schedule(d)]
    for _ in range(25):
        blocks = [[list(rng.uniform(-bounds[m], bounds[m], size=d - 1 - m))
                   for m in range(d - 1)] for _ in range(2)]
        result = complete_rows(UpperEntries(d, blocks))
        assert result.max_orthonormality_residual <= 1e-12


def test_completion_deterministic():
    rng = np.random.default_rng(5)
    upper = draw_upper_entries(rng, 4, 2)
    a = complete_rows(upper)
    b = complete_rows(upper)
    assert a.matrices == b.matrices


def test_large_entry_fails_with_row_diagnostics():
    with pytest.raises(CompletionError) as info:
        complete_rows(UpperEntries(2, [[[0.9]]]))
    assert info.value.row == 2 or info.value.row == 1
    with pytest.raises(ValueError):
        UpperEntries(2, [[[0.1, 0.2]]])  # wrong shape


def test_diagonal_roots_near_one():
    rng = np.random.default_rng(2)
    result = complete_rows(draw_upper_entries(rng, 4, 1))
    for roots in result.diagonal_roots:
        for z in roots:
            assert abs(z - 1.0) < 0.01


def test_identity_tuple_fails_word_check():
    report = genericity_diagnostics(identity_tuple(3, 2), word_length_cap=2)
    assert not report.word_check_pass
    assert report.failing_word == "g1"
    assert not report.generic_candidate


def test_cayley_tuple_passes_checks_but_never_generic_candidate():
    rng = random.Random(3)
    t = exact_tuple([cayley_rotation(random_skew_matrix(rng, 3))
                     for _ in range(2)])
    report = genericity_diagnostics(t, word_length_cap=3)
    assert report.word_check_pass
    assert report.min_word_margin > 0
    assert not report.fixed_point_failures
    assert report.obstruction.obstructed_through == 0  # far from the identity
    assert not report.generic_candidate
    assert any("never generic" in note for note in report.notes)


def test_exact_tuple_near_the_identity_is_checked_exactly():
    # rotations about z and about y by about 2e-7 rad: the commutator
    # g1 g2 g1^-1 g2^-1 and the difference of g1 g2 and g2 g1 are below 1e-12
    # in floats, but neither is zero exactly
    e, z = Fraction(1, 10 ** 7), Fraction(0)
    t = exact_tuple([cayley_rotation(s) for s in ([[z, e, z], [-e, z, z], [z, z, z]],
                                                  [[z, z, e], [z, z, z], [-e, z, z]])])
    report = genericity_diagnostics(t, word_length_cap=4)
    assert report.word_check_pass and report.failing_word is None
    assert 0 < report.min_word_margin < 1e-12
    assert report.fixed_point_pairs_checked == 40
    assert not report.fixed_point_failures
    assert not report.generic_candidate


def test_synthesized_tuple_is_generic_candidate():
    rng = np.random.default_rng(7)
    result = complete_rows(draw_upper_entries(rng, 3, 2))
    report = genericity_diagnostics(result, word_length_cap=4)
    assert report.word_check_pass
    assert report.generic_candidate
    assert report.obstruction.obstructed_through > 100
    assert any("necessary-style evidence" in note for note in report.notes)


def test_even_dimension_free_action_check():
    rng = np.random.default_rng(11)
    result = complete_rows(draw_upper_entries(rng, 2, 2))
    report = genericity_diagnostics(result, word_length_cap=3)
    assert report.word_check_pass
    assert not report.fixed_point_failures
    assert report.fixed_point_pairs_checked > 0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [2, 3])
def test_word_matrices_along_the_tree_match_the_letter_by_letter_oracle(d, r, monkeypatch):
    # the word check's matrices and margins, and the products w1 w2 of the
    # commutation check, must be the same floats as multiplying each word out
    # from the identity; a chunk of 7 splits each word length into stacks
    monkeypatch.setattr(synthesis, "WORD_CHUNK", 7)
    rng = np.random.default_rng(10 * d + r)
    rnd = random.Random(10 * d + r)
    sources = [complete_rows(draw_upper_entries(rng, d, r)).matrices,
               [[[float(x) for x in row]
                 for row in cayley_rotation(random_skew_matrix(rnd, d))]
                for _ in range(r)]]
    for mats in sources:
        matrix = _WordMatrices(mats)
        walked = list(matrix.walk(4))
        assert [w for w, _, _ in walked] == list(reduced_words(r, 4))
        for w, m, margin in walked:
            want = float_word_matrix_by_letters(w.letters, mats)
            assert np.array_equal(m, want)
            assert margin == float(np.max(np.abs(want - np.eye(d))))
        words = [w.letters for w, _, _ in walked]
        for w1, w2 in zip(words, words[::-7]):
            assert np.array_equal(matrix.times(matrix(w1), w2),
                                  float_word_matrix_by_letters(w1 + w2, mats))


def test_exact_word_matrices_along_the_tree_are_the_word_products():
    rnd = random.Random(8)
    t = exact_tuple([cayley_rotation(random_skew_matrix(rnd, 3)) for _ in range(2)])
    walked = list(_WordMatrices(t.matrices).walk(3))
    assert len(walked) == 4 + 12 + 36
    for w, m, _ in walked:
        assert m == evaluate_word(w, t)


def test_a_word_cap_below_one_is_an_input_error(capsys):
    # no word would be checked, and the report would claim a pass
    argv = ["synth-generic", "--dim", "3", "--r", "2", "--word-cap"]
    for cap in ("0", "-5"):
        assert main(argv + [cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"input error: the word length cap must be at least 1, got {cap}\n"
    assert main(argv + ["1"]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"]["words_checked"] == 4


def test_the_printed_floating_tuple_is_read_only(tmp_path, capsys):
    # synth-generic prints its float matrices as a "floating" tuple, and no
    # tuple command accepts that file back
    assert main(["synth-generic", "--dim", "3", "--r", "2", "--word-cap", "2"]) == 0
    printed = json.loads(capsys.readouterr().out)["tuple"]
    assert printed["mode"] == "floating" and printed["dimension"] == 3
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(printed))
    for argv in (["obstruct", "--tuple"], ["orbit", "--point", "1,0,0", "--tuple"],
                 ["fixed-point-test", "--words", "g1", "--tuple"],
                 ["euler-check", "--r", "3", "--generators"]):
        assert main(argv + [str(path)]) == 2
        assert capsys.readouterr().err == ("input error: floating tuples are not accepted "
                                           "here; accepted modes: exact, quad, circle\n")
