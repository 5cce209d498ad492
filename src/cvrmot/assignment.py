"""Exact rectangular linear assignment with a deterministic tie-break.

The solver maximizes matching cardinality over the feasible (finite-cost)
pairs first, then minimizes total cost, and among all optimal solutions it
returns the lexicographically smallest pair set, so downstream reports are
reproducible byte for byte. Forbidden pairs are encoded as ``math.inf``.
All three rules are folded into one int per cell, and the Hungarian method
(Kuhn 1955; Munkres 1957) finds the one least-cost assignment.

Costs are compared as the exact dyadic rationals their floats hold, so two
totals tie only when they are equal in exact arithmetic.
"""

import math
import sys
from typing import NamedTuple, Sequence

FORBIDDEN = math.inf
_LARGEST = sys.float_info.max


class _CostMatrix(NamedTuple):
    costs: tuple[tuple[float, ...], ...]


class CostMatrix(_CostMatrix):
    """Rectangular cost matrix of floats; ``math.inf`` entries mark forbidden pairs."""

    __slots__ = ()

    def __new__(cls, costs: Sequence[Sequence[float]]) -> "CostMatrix":
        if not costs or not costs[0]:
            raise ValueError("cost matrix must have at least one row and one column")
        width = len(costs[0])
        for r, row in enumerate(costs):
            if len(row) != width:
                raise ValueError(f"ragged cost matrix: row {r} has {len(row)} entries")
            for c, value in enumerate(row):
                if not (-_LARGEST <= value <= _LARGEST or value == FORBIDDEN):  # nan fails both
                    raise ValueError(f"cost[{r}][{c}] must be finite or +inf, got {value!r}")
        return tuple.__new__(cls, (tuple(tuple(map(float, row)) for row in costs),))


class Assignment(NamedTuple):
    """A partial matching as a sorted pair tuple plus its total cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def _min_cost_assignment(costs: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Kuhn–Munkres solve of a matrix of ints: a least-cost assignment of its shorter side.

    Returns the sorted (row, col) pairs. Rows are added one at a time, each
    by a shortest augmenting path under dual potentials ``u`` and ``v`` that
    keep every reduced cost ``costs[r][c] - u[r] - v[c]`` non-negative; on
    ints every comparison is exact.
    """
    flip = len(costs) > len(costs[0])
    if flip:
        costs = list(zip(*costs))
    R, C = len(costs), len(costs[0])
    u, v = [0] * R, [0] * (C + 1)
    owner = [-1] * (C + 1)  # the row in each column; column C roots the row being added
    for row in range(R):
        owner[C] = row
        slack = [x - y for x, y in zip(costs[row], v)]  # u[row] is still 0
        way = [C] * C
        free, used = list(range(C)), [C]
        while True:
            col = min(free, key=slack.__getitem__)
            delta = slack[col]
            for c in used:
                u[owner[c]] += delta
                v[c] -= delta
            free.remove(col)
            for c in free:
                slack[c] -= delta
            used.append(col)
            r = owner[col]
            if r == -1:
                break
            ur, cr = u[r], costs[r]
            for c in free:
                reduced = cr[c] - ur - v[c]
                if reduced < slack[c]:
                    slack[c] = reduced
                    way[c] = col
        while col != C:
            owner[col] = owner[way[col]]
            col = way[col]
    pairs = [(owner[c], c) for c in range(C) if owner[c] != -1]
    return sorted((c, r) for r, c in pairs) if flip else sorted(pairs)


def solve_lap(matrix: CostMatrix) -> Assignment:
    """Minimum-cost maximum partial matching with lexicographic tie-break.

    Among the optimal pair sets, the one whose columns read row by row (an
    unmatched row reads as the column count ``C``) are smallest wins. Each
    finite cost is scaled to an int over the largest denominator of the
    costs' dyadic values, and row ``r`` in column ``c`` adds the tie-break
    ``(c - C) * B**(R - 1 - r)`` with ``B = C + 1``. Those terms total less
    than ``B**R`` in magnitude, so the scaled costs, multiplied by ``B**R``,
    decide first. A forbidden cell costs
    ``big = high + min(R, C) * (high - low) + 1``, where ``high`` and ``low``
    are the largest and smallest finite ints: an assignment of the shorter
    side with ``d`` more finite cells saves ``d * big``, more than those
    cells and the others can add. So cardinality, cost and tie-break are one
    int per cell, one Kuhn–Munkres solve finds the unique optimum, and its
    pairs on forbidden cells are dropped.

    ``total_cost`` sums the float costs in pair order, so equal pair sets
    give bit-identical totals. When no feasible pair exists the assignment
    is empty with cost 0.
    """
    costs = matrix.costs
    R, C = len(costs), len(costs[0])
    ratios = [[None if x == FORBIDDEN else x.as_integer_ratio() for x in row] for row in costs]
    denominator = max((ratio[1] for row in ratios for ratio in row if ratio), default=1)
    base = C + 1
    weight = base**R
    ints = []
    for r, row in enumerate(ratios):
        digit = base ** (R - 1 - r)
        ints.append([
            None if ratio is None
            else ratio[0] * (denominator // ratio[1]) * weight + (c - C) * digit
            for c, ratio in enumerate(row)
        ])
    finite = [x for row in ints for x in row if x is not None] or [0]
    high, low = max(finite), min(finite)
    big = high + min(R, C) * (high - low) + 1
    solved = _min_cost_assignment([[big if x is None else x for x in row] for row in ints])
    pairs = tuple((r, c) for r, c in solved if ints[r][c] is not None)
    return Assignment(pairs, float(sum(costs[r][c] for r, c in pairs)))
