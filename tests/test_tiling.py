import math
import random

import pytest

from spherediv import tiling
from spherediv.errors import BudgetExceeded
from spherediv.tiling import (TileInstance, TileSolution, closed_form_r4,
                              even_m_construction, is_tiling, normalize_r4,
                              odd_m_construction, solve)
from oracles import tiling_search_by_modulus

ORACLE_BUDGET = 300


@pytest.fixture
def engines(monkeypatch):
    """Every search engine created while the test runs."""
    made = []
    init = tiling._TilingSearch.__init__

    def record(engine, *args):
        init(engine, *args)
        made.append(engine)

    monkeypatch.setattr(tiling._TilingSearch, "__init__", record)
    return made


def outcome_and_nodes(engines, modulus, shifts, budget):
    engines.clear()
    try:
        found = solve(TileInstance(modulus, shifts), node_budget=budget)
        outcome = None if found is None else found.members
    except BudgetExceeded:
        outcome = "budget"
    return outcome, sum(e.nodes for e in engines)


def oracle_outcome_and_nodes(modulus, shifts, budget):
    try:
        return tiling_search_by_modulus(modulus, shifts, budget)
    except BudgetExceeded:
        return "budget", budget + 1


def assert_matches_oracle(engines, modulus, shifts, budget):
    got = outcome_and_nodes(engines, modulus, shifts, budget)
    assert got == oracle_outcome_and_nodes(modulus, shifts, budget), (modulus, shifts)
    return got[0]


def test_spot_solutions():
    assert solve(TileInstance(4, (2, 3, 1, 0))).members == (0,)
    assert solve(TileInstance(12, (2, 5, 3, 0))).members == (0, 4, 8)
    assert solve(TileInstance(4, (1, 2, 1, 0))) is None
    assert solve(TileInstance(9, (0,))).members == tuple(range(9))


def test_modulus_not_divisible():
    assert solve(TileInstance(10, (0, 1, 2))) is None


def test_solution_validity():
    s = solve(TileInstance(12, (2, 5, 3, 0)))
    assert s.is_valid()
    assert is_tiling(12, (2, 5, 3, 0), (0, 4, 8))
    assert not is_tiling(12, (2, 5, 3, 0), (0, 4, 7))


def test_deterministic():
    a = solve(TileInstance(24, (1, 7, 6, 0)))
    b = solve(TileInstance(24, (1, 7, 6, 0)))
    assert a == b


def test_node_budget():
    with pytest.raises(BudgetExceeded):
        solve(TileInstance(132, (11, 24, 55, 0)), node_budget=2)


def test_hard_instance_refuted():
    # a four-shift instance on Z_132 whose plain backtracking blows up;
    # propagation proves unsolvability quickly
    assert solve(TileInstance(132, (11, 24, 55, 0))) is None


def test_closed_form_examples():
    assert closed_form_r4(2, 1) is True
    assert closed_form_r4(3, 2) is True
    assert closed_form_r4(3, 1) is False
    assert closed_form_r4(1, 2) is True
    with pytest.raises(ValueError):
        closed_form_r4(3, 6)


def test_odd_construction_examples():
    assert odd_m_construction(1, 2).members == (0,)
    assert odd_m_construction(3, 2).members == (0, 4, 8)
    with pytest.raises(ValueError):
        odd_m_construction(3, 6)
    with pytest.raises(ValueError):
        odd_m_construction(3, 1)
    with pytest.raises(ValueError):
        odd_m_construction(2, 1)


def test_even_construction_examples():
    assert even_m_construction(2, 1).members == (0, 4)
    assert even_m_construction(4, 1).members == (0, 2, 8, 10)
    with pytest.raises(ValueError):
        even_m_construction(2, 2)


def test_oracle_agreement_odd_m():
    for m in range(1, 10, 2):
        for k in range(4 * m):
            if math.gcd(k, m) != 1:
                continue
            inst = TileInstance(4 * m, (k, (k + m) % (4 * m), m, 0))
            found = solve(inst)
            assert (found is not None) == closed_form_r4(m, k), (m, k)
            if found is not None:
                assert found.is_valid()
                assert odd_m_construction(m, k).is_valid()


def test_even_m_always_tiles():
    for m in range(2, 9, 2):
        for k in range(4 * m):
            if math.gcd(k, m) != 1:
                continue
            inst = TileInstance(4 * m, (k, (k + m) % (4 * m), m, 0))
            found = solve(inst)
            assert found is not None and found.is_valid(), (m, k)
            assert even_m_construction(m, k).is_valid()


def test_normalize_r4():
    assert normalize_r4(12, (2, 5, 3, 0)) == (3, 2)
    # translated and negated images normalize identically
    assert normalize_r4(12, (5, 8, 6, 3)) == (3, 2)
    assert normalize_r4(12, (10, 7, 9, 0)) == (3, 2)
    # swapped pairs
    assert normalize_r4(12, (3, 0, 2, 5)) == (3, 2)
    # no admissible image
    assert normalize_r4(12, (1, 2, 4, 0)) is None
    assert normalize_r4(10, (1, 2, 3, 4)) is None


def test_duplicate_shifts_unsolvable():
    assert solve(TileInstance(8, (0, 0, 4, 4))) is None


def test_solution_dataclass_shape():
    s = TileSolution(4, (2, 3, 1, 0), (0,))
    assert s.is_valid()
    assert not TileSolution(4, (2, 3, 1, 0), (0, 1)).is_valid()


def test_four_shift_family_matches_the_modular_search(engines):
    outcomes = set()
    for m in range(1, 26):
        for k in range(4 * m):
            found = assert_matches_oracle(engines, 4 * m, (k, k + m, m, 0), ORACLE_BUDGET)
            outcomes.add(found if found in (None, "budget") else "tiling")
    assert outcomes == {None, "budget", "tiling"}


def test_random_shift_sets_match_the_modular_search(engines):
    rng = random.Random(2026)
    for _ in range(300):
        r = rng.randint(1, 5)
        modulus = r * rng.randint(1, 12)
        shifts = tuple(rng.randrange(modulus) for _ in range(r))
        assert_matches_oracle(engines, modulus, shifts, ORACLE_BUDGET)


def test_budget_stop_searches_exactly_one_node_past_the_budget(engines):
    assert outcome_and_nodes(engines, 100, (1, 26, 25, 0), 40) == ("budget", 41)
    with pytest.raises(BudgetExceeded):
        tiling_search_by_modulus(100, (1, 26, 25, 0), 40)
