"""Exact rectangular linear assignment with a deterministic tie-break.

The solver maximizes matching cardinality over the feasible (finite-cost)
pairs first, then minimizes total cost, via successive shortest augmenting
paths with dual potentials. Among all optimal solutions it returns the
lexicographically smallest pair set, so downstream reports are reproducible
byte for byte. Forbidden pairs are encoded as ``math.inf``.

Costs are compared as the exact dyadic rationals their floats hold, so two
totals tie only when they are equal in exact arithmetic.
"""

import math
from typing import NamedTuple, Sequence

FORBIDDEN = math.inf


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


def _min_cost_max_matching(costs: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Successive-shortest-path solve of a cost matrix of ints and ``FORBIDDEN``.

    Returns the sorted (row, col) pairs of a maximum matching of least total
    cost. On ints every comparison is exact.
    """
    R, C = len(costs), len(costs[0])
    finite = [x for row in costs for x in row if x != FORBIDDEN]
    if not finite:
        return []
    # Shift to non-negative weights; within a fixed cardinality the shift is a
    # constant offset, so the optimal pair set is unchanged.
    shift = min(finite)
    INF = FORBIDDEN
    w = [[INF if x == INF else x - shift for x in row] for row in costs]
    u = [0] * R
    v = [0] * C
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
            row_dist[r] = 0
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
    return [(r, match_row[r]) for r in range(R) if match_row[r] != -1]


def solve_lap(matrix: CostMatrix) -> Assignment:
    """Minimum-cost maximum partial matching with lexicographic tie-break.

    Among the optimal pair sets, the one whose columns read row by row (an
    unmatched row reads as the column count ``C``) are smallest wins. Each
    finite cost is scaled to an int over the largest denominator of the
    costs' dyadic values, and row ``r`` in column ``c`` adds the tie-break
    ``(c - C) * B**(R - 1 - r)`` with ``B = C + 1``. Those terms total less
    than ``B**R`` in magnitude, so the scaled costs, multiplied by ``B**R``,
    decide first, and one shortest-path solve finds the unique optimum.

    ``total_cost`` sums the float costs in pair order, so equal pair sets
    give bit-identical totals. When no feasible pair exists the assignment
    is empty with cost 0.
    """
    costs = matrix.costs
    R, C = matrix.rows, matrix.cols
    ratios = [[None if x == FORBIDDEN else x.as_integer_ratio() for x in row] for row in costs]
    denominator = max((ratio[1] for row in ratios for ratio in row if ratio), default=1)
    base = C + 1
    weight = base**R
    ints = []
    for r, row in enumerate(ratios):
        digit = base ** (R - 1 - r)
        ints.append([
            FORBIDDEN if ratio is None
            else ratio[0] * (denominator // ratio[1]) * weight + (c - C) * digit
            for c, ratio in enumerate(row)
        ])
    pairs = tuple(_min_cost_max_matching(ints))
    return Assignment(pairs, float(sum(costs[r][c] for r, c in pairs)))
