"""The assignment kernels, in numpy.

The tests check the solver and the distance kernels against exhaustive
permutation enumeration (``tests/test_kernels.py``).

There is one assignment solver, :func:`solve_assignments`: the O(d^3)
shortest-augmenting-path method with row/column potentials (the classical
dense Jonker-Volgenant scheme), run in lockstep on a stack of cost matrices.
Its float operations are those of the one-matrix method, so each matrix of a
stack gets the value and matching it gets alone; :func:`solve_assignment` is
its batch of one.  A batch of one pays numpy's per-call cost at every step,
so callers gather their matrices into one stack.  With ``runner_up`` the
solver also certifies its matchings from its own dual potentials: a lower
bound on the total of every other matching, as :func:`enumerate_min` gives
its runner-up.  The solver route of the metric (``almgren.lex_matchings``)
keeps the matchings that this certifies and refines only the near-ties, and
path lifting certifies its windows with it above the enumerated degrees.

One switch: :func:`min_assignments` prices stacks of degree up to
``ENUMERATED_DEGREE`` with :func:`enumerate_min`, which takes all d!
matchings of every row at once, and larger ones with the solver, one stack
per call.  The distance kernels and fiber matching (``covers._matching``)
both go through it.  One body: :func:`dist_sq`, :func:`dist_sq_one_to_many`
and :func:`dist_sq_pairs` are faces of :func:`_dist_sq` over paired tuples,
so a single pair is priced as a batch of one and scalar and batch distances
round alike.  The faces call the body, not each other: each public kernel
is a span of its own in the benchmark's layer trace.  Every route fails
closed: a NaN or infinite input, or squares that overflow, raise
``ValueError`` (the closed forms of d <= 2 check their (m,) result, the
others their cost matrices).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

BACKEND = "python"

# the largest degree whose stacks are priced by enumerating every permutation
ENUMERATED_DEGREE = 6



def _check_finite(cost: np.ndarray) -> None:
    """ValueError naming the matrices of a stack (m, d, d) with a NaN or infinite entry."""
    bad = np.flatnonzero(~np.isfinite(cost).all(axis=(1, 2)))
    if len(bad):
        raise ValueError(f"cost matrices {bad.tolist()} have non-finite entries")


def solve_assignments(cost: np.ndarray, runner_up: bool = False):
    """Minimum-cost perfect matchings of a stack of dense square cost matrices (m, d, d).

    Returns ``(value, col_of_row)``: ``col_of_row[a, i]`` (m, d) is the
    column assigned to row ``i`` of matrix ``a`` and
    ``value[a] = cost[a, arange(d), col_of_row[a]].sum()``.  With
    ``runner_up``, returns ``(value, col_of_row, second)``, where
    ``second[a]`` is a certified lower bound on the exact total of every
    other matching (inf at d <= 1), read from the final potentials
    (:func:`_runner_up`), as :func:`enumerate_min` returns its runner-up.

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
    if d <= 1 or not m:
        value, col_of_row = cost[:, 0, 0].copy() if d else np.zeros(m), np.zeros((m, d), dtype=np.int64)
        return (value, col_of_row, np.full(m, np.inf)) if runner_up else (value, col_of_row)

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
    if not runner_up:
        return value, col_of_row
    return value, col_of_row, _runner_up(cost, col_of_row, value, u[:, 1:], v[:, 1:])


def _runner_up(cost, col_of_row, value, u, v) -> np.ndarray:
    """Lower bounds (m,) on the exact total of every matching but ``col_of_row`` (m, d), d >= 2.

    ``value`` (m,) is the total of ``col_of_row`` on ``cost`` (m, d, d),
    and u and v (m, d) are the solver's final row and column potentials.

    Write pi for ``col_of_row[a]`` and R_ij = c_ij - u_i - v_j for the
    exact reduced costs.  A matching sigma != pi sends row i to column
    pi(k) for a permutation k = tau(i) of the rows, and

        cost(sigma) - cost(pi) = sum_i W[i, tau(i)],  W[i, k] = R[i, pi(k)] - R[i, pi(i)],

    since the potentials cancel over both matchings.  The sum splits over
    the cycles of tau, so the exact runner-up gap is the lightest cycle of
    the digraph on the rows with edge weights W (R. Burkard, M. Dell'Amico
    and S. Martello, Assignment Problems, SIAM 2009, ch. 4).  The solver's
    final potentials make every edge a reduced cost, nonnegative up to
    rounding.  Floyd-Warshall over the (m, d, d) stack, d ``np.minimum``
    steps, finds the lightest closed walk g^ of the computed edges;
    rounding is monotone, so g^ is at most the float sum of the lightest
    cycle's computed edges.

    The identity holds for any real u and v, so the potentials' own
    rounding does not enter; the rest is bounded with u_r = 2^-53 and
    S = max|c| + max|u| + max|v| per matrix.  Each computed reduced cost is
    within 3 u_r S of R and at most 1.01 S in size; each edge is within
    8.1 u_r S of W and at most 2.03 S.  A cycle has at most d edges: their
    errors add up to 8.1 d u_r S, and their float sum, in any order, is
    within 1.01 (d - 1) u_r 2.03 d S of the sum of the computed edges.
    ``value``, a float sum of d entries, is within 1.01 (d - 1) d u_r S of
    cost(pi).  So far that is less than 3.1 d^2 + 10.3 d units of u_r S.
    Rounding is monotone, so the operations below may take g^ at that float
    sum, at most 2.1 d S in size.  Then they round by at most 5.2 d u_r S
    more, or by 2.1 d^2 + 3.1 d units where the (d // 2) product is taken.
    Either total stays below err = 6 d (d + 3) u_r S.  If lo = g^ - err is
    at least 0, pi is optimal and every other matching costs at least
    cost(pi) + lo; otherwise a matching has at most d // 2 cycles, each
    weighing at least lo.  A NaN (reduced costs that overflow) gives -inf,
    which certifies nothing.
    """
    m, d = col_of_row.shape
    rows = np.arange(d)
    with np.errstate(over="ignore", invalid="ignore"):
        # r[a, i, k]: reduced cost of row i at the column matched to row k
        c_pi = np.take_along_axis(cost, np.broadcast_to(col_of_row[:, None, :], (m, d, d)), axis=2)
        r = c_pi - u[:, :, None] - np.take_along_axis(v, col_of_row, axis=1)[:, None, :]
        w = r - r[:, rows, rows][:, :, None]
        w[:, rows, rows] = np.inf
        for k in range(d):
            np.minimum(w, w[:, :, k, None] + w[:, None, k, :], out=w)
        scale = np.abs(cost).max(axis=(1, 2)) + np.abs(u).max(axis=1) + np.abs(v).max(axis=1)
        lo = w[:, rows, rows].min(axis=1) - 6 * d * (d + 3) * 2.0**-53 * scale
        second = value + np.where(lo >= 0.0, lo, (d // 2) * lo)
    return np.where(np.isnan(second), -np.inf, second)


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
    """Minimum assignment cost of one square matrix, without extracting the matching."""
    return float(solve_assignments(np.asarray(cost, dtype=np.float64)[None])[0][0])


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
        if runner_up and d > 1:
            second[s : s + step] = np.partition(totals, 1, axis=1)[:, 1]
    return (value, perms[arg], second) if runner_up else (value, perms[arg])


def min_assignments(cost: np.ndarray, runner_up: bool = False):
    """Minimum-cost matchings of a stack of cost matrices (m, d, d): the one enumerate-or-solve switch.

    :func:`enumerate_min` up to ``ENUMERATED_DEGREE``, :func:`solve_assignments`
    above; returns what the route returns, ``(value, perm)`` or, with
    ``runner_up``, ``(value, perm, second)``.
    """
    route = enumerate_min if cost.shape[1] <= ENUMERATED_DEGREE else solve_assignments
    return route(cost, runner_up=runner_up)


def sq_costs(Ps: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Cost matrices (m, d, d) of paired tuples (m, d, n): ``cost[a, i, j] = |Ps[a, i] - Qs[a, j]|^2``.

    Either side may be (1, d, n) and is then shared by every pair.
    """
    diff = Ps[:, :, None, :] - Qs[:, None, :, :]
    return np.einsum("aijk,aijk->aij", diff, diff)


def _checked(dist: np.ndarray) -> np.ndarray:
    """The closed-form distances (m,) of d <= 2; ValueError naming the pairs whose
    value is NaN or infinite (non-finite input, or squares that overflow), as the
    cost matrices of larger d fail."""
    if not np.isfinite(dist).all():
        raise ValueError(f"pairs {np.flatnonzero(~np.isfinite(dist)).tolist()} have non-finite distances")
    return dist


def _dist_sq_d2(P, Q) -> np.ndarray:
    """Squared assignment distances of d=2 tuples given as coordinate planes.

    ``P[j][c]`` and ``Q[j][c]`` hold coordinate c of point j, as (m,) or
    (1,) arrays.  Every per-coordinate difference is an (m,) array, and the
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


def _dist_sq(Ps: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Squared assignment distances (m,) of paired float tuples (m, d, n); either side may be (1, d, n).

    Closed forms at d <= 2, :func:`min_assignments` of the cost matrices above.
    """
    d = Ps.shape[1]
    if d == 1:
        diff = Ps[:, 0, :] - Qs[:, 0, :]
        return _checked(np.einsum("ij,ij->i", diff, diff))
    if d == 2:
        return _checked(_dist_sq_d2(Ps.transpose(1, 2, 0), Qs.transpose(1, 2, 0)))
    return min_assignments(sq_costs(Ps, Qs))[0]


def dist_sq(P: np.ndarray, Q: np.ndarray) -> float:
    """Squared assignment distance between two expanded tuples of shape (d, n): a batch of one pair."""
    return float(_dist_sq(np.asarray(P, dtype=np.float64)[None], np.asarray(Q, dtype=np.float64)[None])[0])


def dist_sq_one_to_many(P: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Squared assignment distances from one tuple (d, n) to a batch (m, d, n)."""
    return _dist_sq(np.asarray(P, dtype=np.float64)[None], np.asarray(Qs, dtype=np.float64))


def dist_sq_pairs(Ps: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Squared assignment distances between paired batches (m, d, n)."""
    return _dist_sq(np.asarray(Ps, dtype=np.float64), np.asarray(Qs, dtype=np.float64))
