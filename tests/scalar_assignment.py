"""Scalar references for the batched assignment solver, shared by the tests.

``solve_assignment`` is the shortest-augmenting-path method on Python floats,
one cost matrix at a time: ``kernels.solve_assignments`` must match it bit
for bit, row by row.  At covering degrees (d <= 10) it is an order of
magnitude faster per matrix than a batch of one, so per-pair test loops use
it, with ``lex_refine`` and ``distance`` built on it one pair at a time as
``almgren._lex_refine`` and ``almgren.distance`` are built on the batched
solver.  ``matched_value`` is the value of one matching by ``math.fsum`` on
Python floats: ``almgren.matched_values`` must match it bit for bit.
``near_tie_costs`` builds the stacks of near-tied matchings that the
matching certificates must refuse.
"""

import math

import numpy as np

from almqr import kernels
from almqr.almgren import DistanceResult, _check_compatible


def matched_value(P: np.ndarray, Q: np.ndarray, matching) -> float:
    """Exactly rounded value of a matching (order-independent, hence symmetric).

    The coordinates go to Python floats first: the same IEEE operations as on
    numpy scalars, without their per-element cost.
    """
    P, Q = np.asarray(P).tolist(), np.asarray(Q).tolist()
    pair_sq = [
        math.fsum((a - b) * (a - b) for a, b in zip(P[i], Q[j])) for i, j in enumerate(matching)
    ]
    return float(np.sqrt(max(math.fsum(pair_sq), 0.0)))


def solve_assignment(cost: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum-cost perfect matching on a dense square cost matrix.

    Returns ``(value, col_of_row)`` where ``col_of_row[i]`` is the column
    assigned to row ``i`` and ``value = sum(cost[i, col_of_row[i]])``.
    """
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    d = cost.shape[0]
    if cost.shape != (d, d):
        raise ValueError("cost matrix must be square")
    if d == 0:
        return 0.0, np.empty(0, dtype=np.int64)
    if d == 1:
        return float(cost[0, 0]), np.zeros(1, dtype=np.int64)

    # Shortest augmenting path with potentials; 1-based with column 0 as
    # the virtual root, following the standard formulation.
    c = cost.tolist()
    inf = math.inf
    u = [0.0] * (d + 1)
    v = [0.0] * (d + 1)
    p = [0] * (d + 1)  # p[j] = row matched to column j
    way = [0] * (d + 1)
    for i in range(1, d + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (d + 1)
        used = [False] * (d + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = c[i0 - 1]
            u0 = u[i0]
            delta = inf
            j1 = -1
            for j in range(1, d + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(d + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break

    col_of_row = np.empty(d, dtype=np.int64)
    for j in range(1, d + 1):
        col_of_row[p[j] - 1] = j - 1
    value = float(cost[np.arange(d), col_of_row].sum())
    return value, col_of_row


def assignment_value(cost: np.ndarray) -> float:
    """Minimum assignment cost without extracting the matching."""
    return solve_assignment(cost)[0]




def near_tie_costs(rng, d: int, m: int) -> np.ndarray:
    """Cost matrices (m, d, d) whose two cheapest matchings a and b differ on one cycle of all d rows.

    b totals what a does, within a few ulps (factors 1 and 1 +- 1e-15), 1e-13
    apart, or 0.1% apart.  Every other matching takes an entry of at least
    max(1, 0.3 d), above the at most 0.3 d that a totals, so the race is
    between a and b alone.
    """
    rows = np.arange(d)
    a = rng.permutation(d)
    b = a[(rows + 1) % d]
    cost = rng.uniform(1.0, 2.0, size=(m, d, d)) * max(1.0, 0.3 * d)
    cost[:, rows, a] = rng.uniform(0.2, 0.3, size=(m, d))
    cost[:, rows, b] = rng.uniform(0.0, 0.05, size=(m, d))
    excess = cost[:, rows, b].sum(axis=1) - cost[:, rows, a].sum(axis=1)
    cost[:, 0, b[0]] -= excess * rng.choice([1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 1e-13, 0.999], size=m)
    return cost


def lex_refine(cost: np.ndarray, best: float) -> tuple[int, ...]:
    """Lexicographically smallest permutation among optimal assignments.

    Fixes rows in order, taking the smallest column index whose forced
    completion still attains the optimum (within a tiny relative band).
    """
    d = cost.shape[0]
    tol = 1e-12 * (1.0 + abs(best))
    cols = list(range(d))
    fixed_cost = 0.0
    out = [0] * d
    for i in range(d):
        for c in sorted(cols):
            if i + 1 < d:
                completion = solve_assignment(cost[i + 1 :, [x for x in cols if x != c]])[0]
            else:
                completion = 0.0
            if fixed_cost + cost[i, c] + completion <= best + tol:
                out[i] = c
                fixed_cost += cost[i, c]
                cols.remove(c)
                break
        else:
            raise RuntimeError("lexicographic refinement failed to complete")
    return tuple(out)


def distance(p, q) -> DistanceResult:
    """``almgren.distance`` one pair at a time: scalar solve, scalar refinement, exact sum."""
    _check_compatible(p, q)
    P, Q = p.expand(), q.expand()
    cost = kernels.sq_costs(P[None], Q[None])[0]
    best, _ = solve_assignment(cost)
    matching = lex_refine(cost, best)
    return DistanceResult(value=matched_value(P, Q, matching), matching=matching)
