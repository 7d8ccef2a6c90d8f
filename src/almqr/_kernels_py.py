"""The assignment kernels, in numpy (re-exported by :mod:`almqr.kernels`).

The tests check the solver and the distance kernels against exhaustive
permutation enumeration (``tests/test_kernels.py``).

The assignment solver is the O(d^3) shortest-augmenting-path method with
row/column potentials (the classical dense Jonker-Volgenant scheme), run on
Python floats: d is a covering degree, almost always <= 10, and at that size
numpy scalar indexing costs more than the arithmetic.  Batches of small
tuples (3 <= d <= 6) are priced by :func:`enumerate_min`, which takes all d!
matchings of every row at once.  A single pair is priced as a batch of one,
so scalar and batch distances round alike.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


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


# entries of the (rows, d!) totals array priced at once by enumerate_min
ENUMERATION_CHUNK = 1 << 13


@functools.lru_cache(maxsize=None)
def _permutations(d: int) -> np.ndarray:
    """All d! permutations of range(d), (d!, d), in lexicographic order (read-only, shared)."""
    perms = np.array(list(itertools.permutations(range(d))), dtype=np.int64).reshape(math.factorial(d), d)
    perms.setflags(write=False)
    return perms


def enumerate_min(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost permutation of each matrix of ``cost`` (m, d, d), by pricing all d! of them.

    Returns ``(value, perm)``: ``perm[a]`` (m, d) is the first minimum in
    lexicographic order and ``value[a] = sum_i cost[a, i, perm[a, i]]``,
    added from row 0 down.  Totals are accumulated one row of the cost
    matrices at a time, so memory stays at (rows, d!) per chunk of
    ``ENUMERATION_CHUNK`` entries.
    """
    cost = np.asarray(cost, dtype=np.float64)
    m, d = cost.shape[0], cost.shape[1]
    if cost.shape != (m, d, d):
        raise ValueError("cost must have shape (m, d, d)")
    perms = _permutations(d)
    value = np.zeros(m)
    arg = np.zeros(m, dtype=np.int64)
    if d == 0:
        return value, perms[arg]
    step = max(1, ENUMERATION_CHUNK // len(perms))
    for s in range(0, m, step):
        c = cost[s : s + step]
        totals = c[:, 0, perms[:, 0]]
        for i in range(1, d):
            totals += c[:, i, perms[:, i]]
        best = np.argmin(totals, axis=1)
        arg[s : s + step] = best
        value[s : s + step] = totals[np.arange(len(c)), best]
    return value, perms[arg]


def sq_costs(Ps: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Cost matrices (m, d, d) of paired tuples (m, d, n): ``cost[a, i, j] = |Ps[a, i] - Qs[a, j]|^2``.

    Either side may be (1, d, n) and is then shared by every pair.
    """
    diff = Ps[:, :, None, :] - Qs[:, None, :, :]
    return np.einsum("aijk,aijk->aij", diff, diff)


def dist_sq(P: np.ndarray, Q: np.ndarray) -> float:
    """Squared assignment distance between two expanded tuples of shape (d, n): ``dist_sq_pairs`` of one pair."""
    return float(dist_sq_pairs(np.asarray(P)[None], np.asarray(Q)[None])[0])


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
    cost = sq_costs(P[None], Qs)
    if d <= 6:
        return enumerate_min(cost)[0]
    return np.array([assignment_value(c) for c in cost])


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
    cost = sq_costs(Ps, Qs)
    if d <= 6:
        return enumerate_min(cost)[0]
    return np.array([assignment_value(c) for c in cost])
