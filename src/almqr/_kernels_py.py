"""The assignment kernels, in numpy (re-exported by :mod:`almqr.kernels`).

The tests check the solver and the distance kernels against exhaustive
permutation enumeration (``tests/test_kernels.py``).

There is one assignment solver, :func:`solve_assignments`: the O(d^3)
shortest-augmenting-path method with row/column potentials (the classical
dense Jonker-Volgenant scheme), run in lockstep on a stack of cost matrices.
Its float operations are those of the one-matrix method, so each matrix of a
stack gets the value and matching it gets alone; :func:`solve_assignment` is
its batch of one.  A batch of one pays numpy's per-call cost at every step,
so callers gather their matrices into one stack.  Batches of small tuples
(3 <= d <= 6) are priced by :func:`enumerate_min`, which takes all d!
matchings of every row at once; larger d goes to the solver, one stack per
batch.  A single pair is priced as a batch of one, so scalar and batch
distances round alike.  Every route fails closed: a NaN or infinite input,
or squares that overflow, raise ``ValueError`` (the closed forms of d <= 2
check their (m,) result, the others their cost matrices).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def _check_finite(cost: np.ndarray) -> None:
    """ValueError naming the matrices of a stack (m, d, d) with a NaN or infinite entry."""
    bad = np.flatnonzero(~np.isfinite(cost).all(axis=(1, 2)))
    if len(bad):
        raise ValueError(f"cost matrices {bad.tolist()} have non-finite entries")


def solve_assignments(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost perfect matchings of a stack of dense square cost matrices (m, d, d).

    Returns ``(value, col_of_row)``: ``col_of_row[a, i]`` (m, d) is the
    column assigned to row ``i`` of matrix ``a`` and
    ``value[a] = cost[a, arange(d), col_of_row[a]].sum()``.

    The O(d^3) shortest-augmenting-path method with row and column
    potentials (R. Jonker and A. Volgenant, Computing 38, 1987; R. Burkard,
    M. Dell'Amico and S. Martello, Assignment Problems, SIAM 2009), run on
    all matrices in lockstep: the potentials, ``p``, ``way``, ``minv`` and
    ``used`` are (m, d + 1) arrays, 1-based with column 0 as the virtual
    root.  Every float operation is the one the one-matrix method does, and
    the column scan takes the first minimum (``argmin``), as its strict
    ``<`` scan does, so each matrix's value and matching do not depend on
    the rest of the stack.  The method needs finite reduced costs to end:
    a stack with a NaN or infinite entry raises ``ValueError`` naming its
    matrices, and so do costs so large that the potentials overflow.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 3 or cost.shape[1] != cost.shape[2]:
        raise ValueError(f"cost must have shape (m, d, d), got {cost.shape}")
    m, d = cost.shape[0], cost.shape[1]
    _check_finite(cost)
    if d <= 1:
        return cost[:, 0, 0].copy() if d else np.zeros(m), np.zeros((m, d), dtype=np.int64)

    rows = np.arange(m)
    C = np.zeros((m, d + 1, d + 1))  # 1-based rows and columns; row and column 0 unused
    C[:, 1:, 1:] = cost
    u = np.zeros((m, d + 1))
    v = np.zeros((m, d + 1))
    p = np.zeros((m, d + 1), dtype=np.int64)  # p[a, j] = row matched to column j
    way = np.zeros((m, d + 1), dtype=np.int64)
    for i in range(1, d + 1):
        p[:, 0] = i
        j0 = np.zeros(m, dtype=np.int64)
        minv = np.full((m, d + 1), np.inf)
        used = np.zeros((m, d + 1), dtype=bool)  # columns in the tree; a finished matrix's marks are unread
        in_tree = np.zeros((m, d + 1), dtype=bool)  # rows in the tree: p[used]
        active = np.ones(m, dtype=bool)  # matrices still growing their tree
        while True:
            used[rows, j0] = True
            i0 = p[rows, j0]
            in_tree[rows, i0] = True
            cur = C[rows, i0] - u[rows, i0][:, None] - v
            live = active[:, None]
            free = ~used & live
            better = free & (cur < minv)
            np.copyto(minv, cur, where=better)
            np.copyto(way, j0[:, None], where=better)
            scan = np.where(used, np.inf, minv)
            j1 = np.argmin(scan, axis=1)  # the first minimum, as the strict-< scan finds it
            delta = scan[rows, j1]
            if not np.all(np.isfinite(delta[active])):
                raise ValueError("reduced costs overflowed: cost entries too large for the potentials")
            np.add(u, delta[:, None], out=u, where=in_tree & live)
            np.subtract(v, delta[:, None], out=v, where=used & live)
            np.subtract(minv, delta[:, None], out=minv, where=free)
            j0 = np.where(active, j1, j0)
            active &= p[rows, j0] != 0
            if not active.any():
                break
        # augment along way[] back to the root, every matrix at once
        going = np.ones(m, dtype=bool)
        while going.any():
            a = rows[going]
            j1 = way[a, j0[a]]
            p[a, j0[a]] = p[a, j1]
            j0[a] = j1
            going = j0 != 0

    col_of_row = np.empty((m, d), dtype=np.int64)
    np.put_along_axis(col_of_row, p[:, 1:] - 1, np.arange(d)[None], axis=1)
    value = np.take_along_axis(cost, col_of_row[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    return value, col_of_row


def solve_assignment(cost: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum-cost perfect matching on one dense square cost matrix: :func:`solve_assignments` of a batch of one.

    Returns ``(value, col_of_row)`` where ``col_of_row[i]`` is the column
    assigned to row ``i`` and ``value = sum(cost[i, col_of_row[i]])``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost matrix must be square")
    value, col_of_row = solve_assignments(cost[None])
    return float(value[0]), col_of_row[0]


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


def enumerate_min(cost: np.ndarray, runner_up: bool = False):
    """Minimum-cost permutation of each matrix of ``cost`` (m, d, d), by pricing all d! of them.

    Returns ``(value, perm)``: ``perm[a]`` (m, d) is the first minimum in
    lexicographic order and ``value[a] = sum_i cost[a, i, perm[a, i]]``,
    added from row 0 down.  With ``runner_up``, returns ``(value, perm,
    second)``, where ``second[a]`` is the smallest total of the other
    permutations (equal to ``value[a]`` at a tie; inf at d <= 1).  Totals
    are accumulated one row of the cost matrices at a time, so memory stays
    at (rows, d!) per chunk of ``ENUMERATION_CHUNK`` entries.  A NaN or
    infinite total has no minimum to take, so a stack with a non-finite
    entry raises ``ValueError`` naming its matrices, as
    :func:`solve_assignments` does.
    """
    cost = np.asarray(cost, dtype=np.float64)
    m, d = cost.shape[0], cost.shape[1]
    if cost.shape != (m, d, d):
        raise ValueError("cost must have shape (m, d, d)")
    _check_finite(cost)
    perms = _permutations(d)
    value = np.zeros(m)
    arg = np.zeros(m, dtype=np.int64)
    second = np.full(m, np.inf) if runner_up else None
    if d == 0:
        return (value, perms[arg], second) if runner_up else (value, perms[arg])
    step = max(1, ENUMERATION_CHUNK // len(perms))
    for s in range(0, m, step):
        c = cost[s : s + step]
        totals = c[:, 0, perms[:, 0]]
        for i in range(1, d):
            totals += c[:, i, perms[:, i]]
        best = np.argmin(totals, axis=1)
        arg[s : s + step] = best
        value[s : s + step] = totals[np.arange(len(c)), best]
        if runner_up and d == 2:
            second[s : s + step] = np.maximum(totals[:, 0], totals[:, 1])
        elif runner_up and d > 2:
            second[s : s + step] = np.partition(totals, 1, axis=1)[:, 1]
    return (value, perms[arg], second) if runner_up else (value, perms[arg])


def sq_costs(Ps: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Cost matrices (m, d, d) of paired tuples (m, d, n): ``cost[a, i, j] = |Ps[a, i] - Qs[a, j]|^2``.

    Either side may be (1, d, n) and is then shared by every pair.
    """
    diff = Ps[:, :, None, :] - Qs[:, None, :, :]
    return np.einsum("aijk,aijk->aij", diff, diff)


def dist_sq(P: np.ndarray, Q: np.ndarray) -> float:
    """Squared assignment distance between two expanded tuples of shape (d, n): ``dist_sq_pairs`` of one pair."""
    return float(dist_sq_pairs(np.asarray(P)[None], np.asarray(Q)[None])[0])


def _checked(dist: np.ndarray) -> np.ndarray:
    """The closed-form distances (m,) of d <= 2; ValueError naming the pairs whose
    value is NaN or infinite (non-finite input, or squares that overflow), as the
    cost matrices of larger d fail."""
    if not np.isfinite(dist).all():
        raise ValueError(f"pairs {np.flatnonzero(~np.isfinite(dist)).tolist()} have non-finite distances")
    return dist


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
        return _checked(np.einsum("ij,ij->i", diff, diff))
    if d == 2:
        return _checked(_dist_sq_d2(P, Qs.transpose(1, 2, 0)))
    cost = sq_costs(P[None], Qs)
    if d <= 6:
        return enumerate_min(cost)[0]
    return solve_assignments(cost)[0]


def dist_sq_pairs(Ps: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Squared assignment distances between paired batches (m, d, n)."""
    Ps = np.asarray(Ps, dtype=np.float64)
    Qs = np.asarray(Qs, dtype=np.float64)
    d = Ps.shape[1]
    if d == 1:
        diff = Ps[:, 0, :] - Qs[:, 0, :]
        return _checked(np.einsum("ij,ij->i", diff, diff))
    if d == 2:
        return _checked(_dist_sq_d2(Ps.transpose(1, 2, 0), Qs.transpose(1, 2, 0)))
    cost = sq_costs(Ps, Qs)
    if d <= 6:
        return enumerate_min(cost)[0]
    return solve_assignments(cost)[0]
