"""Pure-Python (numpy) implementations of the hot assignment kernels.

These are the fallback for :mod:`almqr._fast`.  Both backends expose the
same four functions and must agree to rounding error; the test suite checks
them against each other and against exhaustive permutation enumeration.

The assignment solver is the O(d^3) shortest-augmenting-path method with
row/column potentials (the classical dense Jonker-Volgenant scheme).  Sizes
here are tiny -- d is a covering degree, almost always <= 10 -- so clarity
beats micro-optimisation in this backend.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"


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
    inf = np.inf
    u = np.zeros(d + 1)
    v = np.zeros(d + 1)
    p = np.zeros(d + 1, dtype=np.int64)  # p[j] = row matched to column j
    way = np.zeros(d + 1, dtype=np.int64)
    for i in range(1, d + 1):
        p[0] = i
        j0 = 0
        minv = np.full(d + 1, inf)
        used = np.zeros(d + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = -1
            for j in range(1, d + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
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


def _sq_cost(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    diff = P[:, None, :] - Q[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def dist_sq(P: np.ndarray, Q: np.ndarray) -> float:
    """Squared assignment distance between two expanded tuples of shape (d, n)."""
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    d = P.shape[0]
    if d == 1:
        diff = P[0] - Q[0]
        return float(diff @ diff)
    if d == 2:
        a = P[0] - Q[0]
        b = P[1] - Q[1]
        c = P[0] - Q[1]
        e = P[1] - Q[0]
        return float(min(a @ a + b @ b, c @ c + e @ e))
    return assignment_value(_sq_cost(P, Q))


def _dist_sq_d2(P, Q) -> np.ndarray:
    """Squared assignment distances of d=2 tuples given as coordinate planes.

    ``P[j][c]`` and ``Q[j][c]`` hold coordinate c of point j, as (m,) arrays
    or scalars.  Every per-coordinate difference is an (m,) array, and the
    squares are summed coordinate by coordinate: at n <= 2 that is the order
    of ``einsum("ij,ij->i")``, so the values equal the row-wise form bit for
    bit without its inner loop over a length-n axis.
    """

    def sq(p, q):
        diffs = [pc - qc for pc, qc in zip(p, q)]
        out = diffs[0] * diffs[0]
        for dc in diffs[1:]:
            out = out + dc * dc
        return out

    return np.minimum(sq(P[0], Q[0]) + sq(P[1], Q[1]), sq(P[0], Q[1]) + sq(P[1], Q[0]))


def dist_sq_one_to_many(P: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Squared assignment distances from one tuple (d, n) to a batch (m, d, n)."""
    P = np.asarray(P, dtype=np.float64)
    Qs = np.asarray(Qs, dtype=np.float64)
    d = P.shape[0]
    if d == 1:
        diff = Qs[:, 0, :] - P[0]
        return np.einsum("ij,ij->i", diff, diff)
    if d == 2:
        return _dist_sq_d2(P, Qs.transpose(1, 2, 0))
    return np.array([assignment_value(_sq_cost(P, Q)) for Q in Qs])


def dist_sq_pairs(Ps: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Squared assignment distances between paired batches (m, d, n)."""
    Ps = np.asarray(Ps, dtype=np.float64)
    Qs = np.asarray(Qs, dtype=np.float64)
    d = Ps.shape[1]
    if d == 1:
        diff = Ps[:, 0, :] - Qs[:, 0, :]
        return np.einsum("ij,ij->i", diff, diff)
    if d == 2:
        return _dist_sq_d2(Ps.transpose(1, 2, 0), Qs.transpose(1, 2, 0))
    return np.array([assignment_value(_sq_cost(P, Q)) for P, Q in zip(Ps, Qs)])
