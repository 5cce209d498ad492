"""Exact rectangular linear assignment with a deterministic tie-break.

The solver maximizes matching cardinality over the feasible (finite-cost)
pairs first, then minimizes total cost, via successive shortest augmenting
paths with dual potentials. Among all optimal solutions it returns the
lexicographically smallest pair set, so downstream reports are reproducible
byte for byte. Forbidden pairs are encoded as ``math.inf``.

Tie resolution is exact whenever costs are exactly representable (integers,
dyadic rationals); for arbitrary floats, ties closer than ~1e-9 relative are
resolved by the same deterministic rule but may not coincide with infinite
precision arithmetic.
"""

import math
from typing import Iterable, NamedTuple, Sequence

FORBIDDEN = math.inf

_REL_TOL = 1e-9


class _CostMatrix(NamedTuple):
    costs: tuple[tuple[float, ...], ...]


class CostMatrix(_CostMatrix):
    """Rectangular cost matrix; ``math.inf`` entries mark forbidden pairs."""

    __slots__ = ()

    def __new__(cls, costs: tuple[tuple[float, ...], ...]) -> "CostMatrix":
        if not costs or not costs[0]:
            raise ValueError("cost matrix must have at least one row and one column")
        width = len(costs[0])
        for r, row in enumerate(costs):
            if len(row) != width:
                raise ValueError(f"ragged cost matrix: row {r} has {len(row)} entries")
            for c, value in enumerate(row):
                if math.isnan(value) or value == -math.inf:
                    raise ValueError(f"cost[{r}][{c}] must be finite or +inf, got {value!r}")
        return tuple.__new__(cls, (costs,))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "CostMatrix":
        return cls(tuple(tuple(float(v) for v in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.costs)

    @property
    def cols(self) -> int:
        return len(self.costs[0])


class Assignment(NamedTuple):
    """A partial matching as a sorted pair tuple plus its total cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def _pair_sum(costs: Sequence[Sequence[float]], pairs: Iterable[tuple[int, int]]) -> float:
    # Summed in lexicographic pair order so equal pair sets always produce
    # bit-identical totals regardless of how they were discovered.
    return float(sum(costs[r][c] for r, c in sorted(pairs)))


def _min_cost_max_matching(
    costs: Sequence[Sequence[float]],
    row_ids: Sequence[int],
    col_ids: Sequence[int],
) -> tuple[list[tuple[int, int]], dict[int, float], dict[int, float], float]:
    """Successive-shortest-path solve restricted to the given row/col subsets.

    Returns (pairs in global indices, row duals, col duals, cost shift). The
    duals certify optimality in the shifted cost space: every feasible pair of
    an optimal solution has zero reduced cost.
    """
    R, C = len(row_ids), len(col_ids)
    if R == 0 or C == 0:
        return [], {}, {}, 0.0
    finite = [
        costs[r][c] for r in row_ids for c in col_ids if math.isfinite(costs[r][c])
    ]
    if not finite:
        return [], {}, {}, 0.0
    # Shift to non-negative weights; within a fixed cardinality the shift is a
    # constant offset, so the optimal pair set is unchanged.
    shift = min(finite)
    INF = math.inf
    w = [
        [
            (costs[r][c] - shift) if math.isfinite(costs[r][c]) else INF
            for c in col_ids
        ]
        for r in row_ids
    ]
    u = [0.0] * R
    v = [0.0] * C
    match_row = [-1] * R
    match_col = [-1] * C
    while True:
        free_rows = [r for r in range(R) if match_row[r] == -1]
        if not free_rows:
            break
        dist = [INF] * C
        prev = [-1] * C
        done = [False] * C
        row_dist = [INF] * R
        for r in free_rows:
            row_dist[r] = 0.0
            ur = u[r]
            wr = w[r]
            for c in range(C):
                wc = wr[c]
                if wc == INF:
                    continue
                d = wc - ur - v[c]
                if d < dist[c]:
                    dist[c] = d
                    prev[c] = r
        target = -1
        target_dist = INF
        while True:
            best = -1
            best_dist = INF
            for c in range(C):
                if not done[c] and dist[c] < best_dist:
                    best_dist = dist[c]
                    best = c
            if best == -1:
                break
            done[best] = True
            if match_col[best] == -1:
                target = best
                target_dist = best_dist
                break
            r2 = match_col[best]
            row_dist[r2] = best_dist
            ur2 = u[r2]
            wr2 = w[r2]
            for c in range(C):
                if done[c]:
                    continue
                wc = wr2[c]
                if wc == INF:
                    continue
                nd = best_dist + wc - ur2 - v[c]
                if nd < dist[c]:
                    dist[c] = nd
                    prev[c] = r2
        if target == -1:
            break  # no augmenting path: matching is maximum
        for r in range(R):
            if row_dist[r] <= target_dist:
                u[r] += target_dist - row_dist[r]
        for c in range(C):
            if done[c] and dist[c] <= target_dist:
                v[c] -= target_dist - dist[c]
        col = target
        while col != -1:
            r = prev[col]
            nxt = match_row[r]
            match_row[r] = col
            match_col[col] = r
            col = nxt
    pairs = sorted(
        (row_ids[r], col_ids[match_row[r]]) for r in range(R) if match_row[r] != -1
    )
    u_map = {row_ids[r]: u[r] for r in range(R)}
    v_map = {col_ids[c]: v[c] for c in range(C)}
    return pairs, u_map, v_map, shift


def solve_lap(matrix: CostMatrix) -> Assignment:
    """Minimum-cost maximum partial matching with lexicographic tie-break.

    When no feasible pair exists the assignment is empty with cost 0.
    """
    costs = matrix.costs
    R, C = matrix.rows, matrix.cols
    base_pairs, u, v, shift = _min_cost_max_matching(costs, range(R), range(C))
    if not base_pairs:
        return Assignment((), 0.0)
    cardinality = len(base_pairs)
    target_total = _pair_sum(costs, base_pairs)
    scale = max(
        1.0,
        max(abs(costs[r][c]) for r in range(R) for c in range(C) if math.isfinite(costs[r][c])),
    )
    tight_tol = _REL_TOL * scale
    total_tol = _REL_TOL * max(1.0, abs(target_total))

    # Greedy lexicographic refinement: fix rows in order, preferring the
    # smallest column that still admits an optimal completion. The running
    # witness (an optimal solution consistent with the fixed prefix) lets the
    # common no-tie case skip all probe solves; base duals rule out any pair
    # with positive reduced cost (such a pair is in no optimal solution).
    witness = dict(base_pairs)
    fixed: list[tuple[int, int]] = []
    used_cols: set[int] = set()
    for r in range(R):
        if len(fixed) == cardinality:
            break
        witness_col = witness.get(r)
        chosen = -1
        for c in range(C):
            if c in used_cols or not math.isfinite(costs[r][c]):
                continue
            if witness_col is not None and c >= witness_col:
                chosen = witness_col
                break
            if (costs[r][c] - shift) - u[r] - v[c] > tight_tol:
                continue
            rest_rows = range(r + 1, R)
            rest_cols = [c2 for c2 in range(C) if c2 != c and c2 not in used_cols]
            sub_pairs, _, _, _ = _min_cost_max_matching(costs, list(rest_rows), rest_cols)
            candidate = fixed + [(r, c)] + sub_pairs
            if len(candidate) != cardinality:
                continue
            if abs(_pair_sum(costs, candidate) - target_total) <= total_tol:
                chosen = c
                witness = dict(candidate)
                break
        if chosen != -1:
            fixed.append((r, chosen))
            used_cols.add(chosen)
    return Assignment(tuple(fixed), _pair_sum(costs, fixed))
