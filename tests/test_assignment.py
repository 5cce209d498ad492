import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cvrmot import CostMatrix, FORBIDDEN, assignment, solve_lap

from oracles import brute_force_lap, min_cost_max_matching


def M(rows):
    return CostMatrix.from_rows(rows)


def test_diagonal_dominance():
    a = solve_lap(M([[1, 2], [2, 1]]))
    assert a.pairs == ((0, 0), (1, 1))
    assert a.total_cost == 2.0


def test_antidiagonal_optimum():
    # both permutations: diag 4+3=7, anti 1+2=3
    a = solve_lap(M([[4, 1], [2, 3]]))
    assert a.pairs == ((0, 1), (1, 0))
    assert a.total_cost == 3.0


def test_single_row_picks_minimum():
    a = solve_lap(M([[5, 1, 7]]))
    assert a.pairs == ((0, 1),)
    assert a.total_cost == 1.0


def test_identity_cost_matrix():
    rows = [[0 if r == c else 1 for c in range(4)] for r in range(4)]
    a = solve_lap(M(rows))
    assert a.pairs == tuple((i, i) for i in range(4))
    assert a.total_cost == 0.0


def test_all_equal_costs_lexicographic_tie_break():
    a = solve_lap(M([[3, 3], [3, 3]]))
    assert a.pairs == ((0, 0), (1, 1))
    assert a.total_cost == 6.0
    b = brute_force_lap(M([[3, 3], [3, 3]]))
    assert b.pairs == a.pairs and b.total_cost == a.total_cost


def test_float_totals_an_ulp_apart_do_not_tie():
    # 0.1 + 0.2 is 0.30000000000000004 in floats, and more than 0.3 exactly too
    a = solve_lap(M([[0.1, 0.3], [0.0, 0.2]]))
    assert a.pairs == ((0, 1), (1, 0))
    assert a.total_cost == 0.3


def test_all_ties_take_one_core_call(monkeypatch):
    """The core is called once, on ints only: with ``math.inf`` its loop need not end."""
    calls = []
    core = assignment._min_cost_assignment
    monkeypatch.setattr(assignment, "_min_cost_assignment",
                        lambda *args: calls.append(args) or core(*args))
    # the last cell forbidden: row 4 takes column 5, ahead of the diagonal
    rows = [[0.5] * 6 for _ in range(6)]
    rows[5][5] = FORBIDDEN
    a = solve_lap(M(rows))
    assert a.pairs == ((0, 0), (1, 1), (2, 2), (3, 3), (4, 5), (5, 4))
    assert len(calls) == 1
    assert all(type(x) is int for row in calls[0][0] for x in row)


def test_no_feasible_pair_gives_empty_assignment():
    a = solve_lap(M([[FORBIDDEN, FORBIDDEN], [FORBIDDEN, FORBIDDEN]]))
    assert a.pairs == ()
    assert a.total_cost == 0.0


def test_forbidden_pairs_reduce_cardinality():
    a = solve_lap(M([[1, FORBIDDEN], [2, FORBIDDEN]]))
    assert a.pairs == ((0, 0),)
    assert a.total_cost == 1.0


def test_max_cardinality_beats_cheap_short_matching():
    # the cheapest single pair is (0,0) at cost 0, but only (0,1),(1,0) is full
    rows = [[0, 5], [0, FORBIDDEN]]
    a = solve_lap(M(rows))
    assert a.pairs == ((0, 1), (1, 0))
    assert a.total_cost == 5.0
    assert brute_force_lap(M(rows)) == a


@pytest.mark.parametrize("rows", [
    [[0, 5], [5, FORBIDDEN]],  # its own transpose
    [[0, 5, FORBIDDEN], [5, FORBIDDEN, FORBIDDEN]],
    [[0, 5], [5, FORBIDDEN], [FORBIDDEN, FORBIDDEN]],
])
def test_the_two_largest_costs_beat_the_smallest_next_to_a_forbidden_cell(rows):
    """The larger matching wins, though it holds the two largest costs.

    At ``big = high + 1`` the smallest cost plus the forbidden cell would win:
    the 2 x 2 case folds to ``[[-6, 42], [43, big]]``, and 38 < 85.
    """
    a = solve_lap(M(rows))
    assert a.pairs == ((0, 1), (1, 0))
    assert a.total_cost == 10.0
    assert brute_force_lap(M(rows)) == a


def test_solver_picks_the_pairs_of_the_shortest_path_core(monkeypatch):
    """On the folded ints, with forbidden cells as ``FORBIDDEN``, both cores agree."""
    folds = []
    core = assignment._min_cost_assignment
    monkeypatch.setattr(assignment, "_min_cost_assignment",
                        lambda ints: folds.append(ints) or core(ints))
    rng = random.Random(30)
    for _ in range(60):
        R, C = rng.randint(1, 40), rng.randint(1, 60)
        if rng.random() < 0.5:
            R, C = C, R
        density, parts = rng.uniform(0, 0.9), rng.choice([4, 10])  # quarters or tenths
        rows = [[FORBIDDEN if rng.random() < density else rng.randint(0, 2 * parts) / parts
                 for _ in range(C)] for _ in range(R)]
        pairs = solve_lap(M(rows)).pairs
        folded = [[FORBIDDEN if x == FORBIDDEN else n for x, n in zip(row, ints)]
                  for row, ints in zip(rows, folds.pop())]
        assert pairs == tuple(min_cost_max_matching(folded))


def test_brute_force_rejects_large_instances():
    rows = [[1.0] * 9 for _ in range(9)]
    with pytest.raises(ValueError):
        brute_force_lap(M(rows))


def test_cost_matrix_validation():
    with pytest.raises(ValueError):
        CostMatrix.from_rows([])
    with pytest.raises(ValueError):
        CostMatrix.from_rows([[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        CostMatrix.from_rows([[math.nan]])
    with pytest.raises(ValueError):
        CostMatrix.from_rows([[-math.inf]])
    for make in (CostMatrix, CostMatrix.from_rows):  # past the float range
        with pytest.raises(ValueError, match=r"^cost\[0\]\[1\] must be finite or \+inf"):
            make(((0.0, 10**400),))


_entry = st.one_of(
    st.integers(min_value=0, max_value=9).map(float),
    st.just(FORBIDDEN),
)
# Sums of tenths that are equal in decimals can differ in the last float bit.
_tenth = st.one_of(
    st.integers(min_value=0, max_value=9).map(lambda k: k / 10),
    st.just(FORBIDDEN),
)


@st.composite
def small_matrices(draw, entry=_entry):
    r = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=5))
    return M([[draw(entry) for _ in range(c)] for _ in range(r)])


@given(st.one_of(small_matrices(), small_matrices(_tenth)))
@settings(max_examples=300, deadline=None)
def test_solver_matches_brute_force(matrix):
    a = solve_lap(matrix)
    b = brute_force_lap(matrix)
    assert a.total_cost == b.total_cost
    assert a.pairs == b.pairs


@given(small_matrices())
@settings(max_examples=100, deadline=None)
def test_solver_is_deterministic(matrix):
    assert solve_lap(matrix) == solve_lap(matrix)


def test_row_permutation_equivariance():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 6)
        rows = [[rng.random() for _ in range(n)] for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        base = solve_lap(M(rows))
        permuted = solve_lap(M([rows[perm[r]] for r in range(n)]))
        # continuous costs make the optimum unique with probability one
        expected = tuple(sorted((perm.index(r), c) for r, c in base.pairs))
        assert permuted.pairs == expected


def test_row_constant_shift_keeps_pair_set():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 5)
        rows = [[float(rng.randint(0, 9)) for _ in range(n)] for _ in range(n)]
        base = solve_lap(M(rows))
        k = rng.randrange(n)
        shifted = [list(row) for row in rows]
        shifted[k] = [v + 7.0 for v in shifted[k]]
        assert solve_lap(M(shifted)).pairs == base.pairs
