"""The space of unordered weighted tuples in R^n with the assignment metric.

Points are multisets of d locations (weights = multiplicities).  The metric
is the minimum over pairings of the root-sum-square of Euclidean distances,
computed by optimal assignment on the d x d matrix of squared distances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels

MAX_BRUTEFORCE_D = 8


class TupleSpaceError(ValueError):
    """Invalid construction or incompatible operands."""


def _as_location(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise TupleSpaceError(f"location must be a vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise TupleSpaceError("location has non-finite entries")
    # canonicalize -0.0 so bitwise merging and ordering match numeric equality
    return arr + 0.0


@dataclass(frozen=True)
class AlmgrenPoint:
    """An unordered d-tuple in R^n: merged locations with integer weights.

    ``locations`` has shape (k, n) with distinct (bitwise) rows in
    lexicographic order; ``weights`` are positive integers summing to d.
    Merging uses exact equality only; approximate coincidence is the
    business of :func:`singular_stratum`.
    """

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # the + 0.0 canonicalizes any -0.0 entries (bitwise identity below)
        object.__setattr__(self, "locations", np.ascontiguousarray(self.locations, dtype=np.float64) + 0.0)
        object.__setattr__(self, "weights", np.ascontiguousarray(self.weights, dtype=np.int64))
        if self.locations.ndim != 2:
            raise TupleSpaceError("locations must have shape (k, n)")
        if self.weights.shape != (self.locations.shape[0],):
            raise TupleSpaceError("weights must match locations")
        if len(self.weights) == 0:
            raise TupleSpaceError("empty tuple")
        if np.any(self.weights <= 0):
            raise TupleSpaceError("weights must be positive")
        self.locations.setflags(write=False)
        self.weights.setflags(write=False)

    @classmethod
    def from_points(cls, points: Iterable, weights: Sequence[int] | None = None) -> "AlmgrenPoint":
        """Build from locations (+ optional weights), merging exact duplicates."""
        locs = [_as_location(p) for p in points]
        if not locs:
            raise TupleSpaceError("empty tuple")
        n = len(locs[0])
        if any(len(p) != n for p in locs):
            raise TupleSpaceError("locations have mixed dimensions")
        if weights is None:
            weights = [1] * len(locs)
        if len(weights) != len(locs):
            raise TupleSpaceError("weights must match locations")
        merged: dict[bytes, tuple[np.ndarray, int]] = {}
        for p, w in zip(locs, weights):
            w = int(w)
            if w <= 0:
                raise TupleSpaceError("weights must be positive")
            key = p.tobytes()
            if key in merged:
                merged[key] = (p, merged[key][1] + w)
            else:
                merged[key] = (p, w)
        pts = np.array([pw[0] for pw in merged.values()])
        ws = np.array([pw[1] for pw in merged.values()], dtype=np.int64)
        order = np.lexsort(pts.T[::-1])
        return cls(pts[order], ws[order])

    @classmethod
    def diagonal(cls, x, d: int) -> "AlmgrenPoint":
        """The point d*[[x]]: one location with full multiplicity."""
        return cls.from_points([x], [int(d)])

    @property
    def n(self) -> int:
        return self.locations.shape[1]

    @property
    def d(self) -> int:
        return int(self.weights.sum())

    def expand(self) -> np.ndarray:
        """Flatten weights into repeated rows, shape (d, n), lexicographic order."""
        return np.repeat(self.locations, self.weights, axis=0)

    def barycenter(self) -> np.ndarray:
        """Weighted mean of the locations: :func:`barycenters` of one tuple."""
        return barycenters(self.expand()[None])[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlmgrenPoint):
            return NotImplemented
        return (
            self.locations.shape == other.locations.shape
            and self.locations.tobytes() == other.locations.tobytes()
            and self.weights.tobytes() == other.weights.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.locations.tobytes(), self.weights.tobytes()))

    def __repr__(self) -> str:
        parts = [f"{w}*{loc.tolist()}" for loc, w in zip(self.locations, self.weights)]
        return f"AlmgrenPoint({' + '.join(parts)})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "points": [
                {"x": loc.tolist(), "w": int(w)} for loc, w in zip(self.locations, self.weights)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AlmgrenPoint":
        try:
            n = int(obj["n"])
            pts = [_as_location(e["x"]) for e in obj["points"]]
            ws = [int(e["w"]) for e in obj["points"]]
        except (KeyError, TypeError) as exc:
            raise TupleSpaceError(f"malformed tuple JSON: {exc}") from exc
        if any(len(p) != n for p in pts):
            raise TupleSpaceError("declared dimension does not match locations")
        return cls.from_points(pts, ws)


def sorted_tuples(X) -> np.ndarray:
    """Batch form of ``AlmgrenPoint.from_points(x).expand()`` for tuples X (m, d, n).

    Each tuple's rows in lexicographic order, with -0.0 entries made 0.0.
    """
    X = np.asarray(X, dtype=np.float64) + 0.0
    order = np.lexsort([X[:, :, k] for k in reversed(range(X.shape[2]))], axis=-1)
    return np.take_along_axis(X, order[:, :, None], axis=1)


def _run_weights(X: np.ndarray) -> np.ndarray:
    """Multiplicities (m, d) of tuples X (m, d, n) in ``sorted_tuples`` form, 0 at repeated rows."""
    m, d, _ = X.shape
    # sorted rows put exact duplicates next to each other: a location starts
    # wherever a row differs from the one before it
    first = np.ones((m, d), dtype=bool)
    first[:, 1:] = np.any(X[:, 1:] != X[:, :-1], axis=2)
    starts = np.flatnonzero(first)
    W = np.zeros(m * d, dtype=np.int64)
    W[starts] = np.diff(np.append(starts, m * d))
    return W.reshape(m, d)


def points_of(X) -> list[AlmgrenPoint]:
    """``[AlmgrenPoint.from_points(x) for x in X]`` for tuples X (m, d, n), without the per-point work."""
    X = sorted_tuples(X)
    if not np.all(np.isfinite(X)):
        raise TupleSpaceError("location has non-finite entries")
    W = _run_weights(X)
    first = W > 0
    locations, weights = X[first], W[first]
    ends = np.cumsum(first.sum(axis=1)).tolist()
    return [AlmgrenPoint(locations[a:b], weights[a:b]) for a, b in zip([0] + ends, ends)]


def barycenters(X: np.ndarray) -> np.ndarray:
    """Barycenters (m, n) of tuples X (m, d, n) in ``sorted_tuples`` form; a location of weight w counts as w times it."""
    return (_run_weights(X)[:, :, None] * X).sum(axis=1) / X.shape[1]


def distances_to_diagonal(X: np.ndarray) -> np.ndarray:
    """Distances (m,) of tuples X (m, d, n) in ``sorted_tuples`` form to their diagonal points d*[[b]].

    All columns of the cost matrix coincide, so there is no matching
    freedom: the value is sqrt(sum_j |x_j - b|^2).
    """
    diff = X - barycenters(X)[:, None, :]
    return np.sqrt(np.einsum("pij,pij->p", diff, diff))


@dataclass(frozen=True)
class DistanceResult:
    """Assignment distance value plus a minimizing pairing of the expanded tuples."""

    value: float
    matching: tuple[int, ...]


def _check_compatible(p: AlmgrenPoint, q: AlmgrenPoint):
    if p.n != q.n:
        raise TupleSpaceError(f"ambient dimensions differ: {p.n} vs {q.n}")
    if p.d != q.d:
        raise TupleSpaceError(f"total weights differ: {p.d} vs {q.d}")


def distance_value(p: AlmgrenPoint, q: AlmgrenPoint) -> float:
    """Assignment distance, value only: :func:`distance_values` of one pair, bitwise symmetric in p and q."""
    _check_compatible(p, q)
    return float(distance_values(p.expand()[None], q.expand()[None])[0])


def distance_values(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Assignment distances of paired tuples P, Q (m, d, n) in ``sorted_tuples`` form.

    Each pair is priced in a canonical orientation (the tuple whose bytes
    compare smaller goes first), so the values are bitwise symmetric in P
    and Q.
    """
    P = np.ascontiguousarray(P, dtype=np.float64)
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    m, d, n = P.shape
    a = P.reshape(m, d * n).view(np.uint8)
    b = Q.reshape(m, d * n).view(np.uint8)
    first = np.argmax(a != b, axis=1)  # first differing byte (0 where none differs)
    rows = np.arange(m)
    swap = (b[rows, first] < a[rows, first])[:, None, None]
    return np.sqrt(kernels.dist_sq_pairs(np.where(swap, Q, P), np.where(swap, P, Q)))


# a cascaded sum r is certified by its error bound only from this magnitude up,
# where half the gap to its neighbours is far from underflow; and rows with
# sum |x| from _SUM_LIMIT up go to math.fsum, since below it no partial sum,
# of the cascade or of fsum, can overflow
_CERTIFIED_LOW, _SUM_LIMIT = 2.0**-900, 2.0**1000


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, t)`` with s = fl(a + b) and s + t = a + b exactly, elementwise (Knuth's TwoSum; no overflow)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _cascade_sums(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cascaded sums r (m,) of the rows of X (m, k), and the mask (m,) of rows where r is exactly rounded.

    The running sum s takes the terms with TwoSum, and its residuals t are
    summed into e with TwoSum too (T. Ogita, S. M. Rump and S. Oishi,
    Accurate sum and dot product, SIAM J. Sci. Comput. 26, 2005), so the
    exact row sum is s + e + sum(g), with g the residuals of e.  Then
    r = fl(s + e), and TwoSum gives its error f exactly.  If every g is 0,
    r is the IEEE round-to-nearest-even of the exact sum, ties included,
    which is what ``math.fsum`` returns.  Otherwise the exact sum lies within
    |f| + sum|g| of r, and sum|g| <= 2 fl(sum|g|); the row is certified when
    that is below half the smaller gap from r to its neighbours and |r| is
    at least ``_CERTIFIED_LOW``.  Rows with a non-finite term, or with
    sum |x| of ``_SUM_LIMIT`` or more, are not certified.
    """
    m, k = X.shape
    with np.errstate(over="ignore", invalid="ignore"):
        s = X[:, 0] if k else np.zeros(m)
        e = np.zeros(m)
        g_abs = np.zeros(m)  # fl(sum |g|)
        for i in range(1, k):
            s, t = _two_sum(s, X[:, i])
            e, g = _two_sum(e, t)
            g_abs += np.abs(g)
        # e starts at +0.0 and so is never -0.0: r is never -0.0 either, and
        # a zero sum is +0.0, as in math.fsum
        r, f = _two_sum(s, e)
        a = np.abs(r)
        half_gap = 0.5 * np.minimum(np.spacing(a), a - np.nextafter(a, 0.0))
        bounded = (a >= _CERTIFIED_LOW) & (np.abs(f) + 2.0 * g_abs < half_gap)
        return r, (np.abs(X).sum(axis=1) < _SUM_LIMIT) & ((g_abs == 0.0) | bounded)


def exact_sums(X) -> np.ndarray:
    """Exactly rounded sums (m,) of the rows of X (m, k): ``math.fsum`` of each row, bit for bit.

    :func:`_cascade_sums` prices every row and certifies almost all of them;
    the rest (near ties, non-finite or huge terms) go to ``math.fsum``
    (J. R. Shewchuk, Discrete Comput. Geom. 18, 1997), which also raises
    where it raises (an infinite sum of finite terms, inf - inf).
    """
    X = np.asarray(X, dtype=np.float64)
    r, certified = _cascade_sums(X)
    for i in np.flatnonzero(~certified).tolist():
        r[i] = math.fsum(X[i].tolist())
    return r


def matched_values(P, Q, perms) -> np.ndarray:
    """Values (m,) of the matchings ``perms`` (m, d) of paired expanded tuples P, Q (m, d, n).

    Row i of pair a is matched to row ``perms[a, i]`` of Q[a].  Each squared
    pair distance is the exactly rounded sum of its n squared coordinate
    differences (the same IEEE operations as on Python floats), the total
    the exactly rounded sum of the d pair values, and its square root is
    taken last.  Exact sums do not depend on the order of the terms, so the
    value is symmetric in P and Q, and zero coordinates appended to both
    sides do not change it.
    """
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    m, d, n = P.shape
    with np.errstate(over="ignore"):  # squares that overflow make inf terms, and fsum decides
        diff = P - np.take_along_axis(Q, np.asarray(perms, dtype=np.int64)[:, :, None], axis=1)
        sq = diff * diff
    pair_sq = exact_sums(sq.reshape(m * d, n)).reshape(m, d)
    return np.sqrt(np.maximum(exact_sums(pair_sq), 0.0))


def _lex_refine(cost: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Lexicographically smallest permutation (m, d) among the optimal assignments of each cost matrix (m, d, d).

    Fixes rows in order, taking the smallest column index whose forced
    completion still attains the optimum ``best`` (within a tiny relative
    band).  For each (row, candidate) one batched completion solve prices
    every matrix whose row is still pending.
    """
    m, d = cost.shape[0], cost.shape[1]
    tol = 1e-12 * (1.0 + np.abs(best))
    rows = np.arange(m)
    free = np.tile(np.arange(d), (m, 1))  # each matrix's unfixed columns, ascending
    fixed_cost = np.zeros(m)
    out = np.zeros((m, d), dtype=np.int64)
    for i in range(d):
        pending = np.ones(m, dtype=bool)
        taken = np.zeros(m, dtype=np.int64)  # the position in ``free`` of the column fixed at row i
        for k in range(d - i):
            a = np.flatnonzero(pending)
            if not len(a):
                break
            c = free[a, k]
            if i + 1 < d:
                rest = np.delete(free[a], k, axis=1)
                sub = np.take_along_axis(cost[a, i + 1 :], rest[:, None, :], axis=2)
                completion = kernels.solve_assignments(sub)[0]
            else:
                completion = 0.0
            fits = a[fixed_cost[a] + cost[a, i, c] + completion <= best[a] + tol[a]]
            taken[fits] = k
            pending[fits] = False
        if pending.any():
            raise RuntimeError("lexicographic refinement failed to complete")
        out[:, i] = free[rows, taken]
        fixed_cost += cost[rows, i, out[:, i]]
        free = free[np.arange(d - i) != taken[:, None]].reshape(m, d - i - 1)
    return out


def lex_matchings(cost: np.ndarray) -> np.ndarray:
    """The lexicographically first optimal matching (m, d) of each cost matrix (m, d, d).

    One ``kernels.solve_assignments`` call certifies most rows, and one
    :func:`_lex_refine` call serves the rest; a matrix gets the matching it
    gets alone.  A row keeps the solver's matching pi when its certified
    runner-up bound (``second``) beats ``best`` by more than the refinement's
    band ``tol`` and the rounding of its sums.  At every row i with pi's
    prefix fixed, a candidate column other than pi(i) completes to a
    matching sigma != pi, and the refinement prices it as a float sum of
    sigma's d terms, within (d - 1) u_r d max|c| of cost(sigma) >= second
    (u_r = 2^-53): it lies above fl(best + tol) and is rejected.  The
    candidate pi(i) completes to pi itself, priced within 2 (d - 1) u_r d
    max|c| of ``best``, which the bound ``slack <= tol / 2`` keeps inside
    the band.  So :func:`_lex_refine` would return pi, bit for bit.
    """
    cost = np.asarray(cost, dtype=np.float64)
    d = cost.shape[1]
    best, perm, second = kernels.solve_assignments(cost, runner_up=True)
    tol = 1e-12 * (1.0 + np.abs(best))  # _lex_refine's band
    slack = 2 * d * d * 2.0**-53 * (np.abs(cost).max(axis=(1, 2), initial=0.0) + np.abs(best))
    refine = np.flatnonzero(~((slack <= 0.5 * tol) & (second - best > tol + slack)))
    if len(refine):
        perm[refine] = _lex_refine(cost[refine], best[refine])
    return perm


def _degree_stack(pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cost matrices and tuples of the pairs [(P, Q)] of one degree d: expanded tuples (k, d, n), n free per batch.

    Returns the stacked cost matrices (sum k, d, d), each batch's made by
    ``kernels.sq_costs`` at its own n, and P and Q stacked (sum k, d, N),
    zero-padded to the largest n, N; :func:`matched_values` does not see the
    padding.
    """
    cost = np.concatenate([kernels.sq_costs(P, Q) for P, Q in pairs])
    P = np.zeros((len(cost), cost.shape[1], max(P.shape[2] for P, _ in pairs)))
    Q = np.zeros_like(P)
    start = 0
    for p, q in pairs:
        P[start : start + len(p), :, : p.shape[2]] = p
        Q[start : start + len(q), :, : q.shape[2]] = q
        start += len(p)
    return cost, P, Q


def lex_distances(pairs) -> np.ndarray:
    """:func:`distance` values of the pairs [(P, Q)] of one degree d: expanded tuples (k, d, n), n free per batch.

    The cost matrices do not depend on n, so one :func:`lex_matchings`
    call and one :func:`matched_values` call price them all.
    """
    cost, P, Q = _degree_stack(pairs)
    return matched_values(P, Q, lex_matchings(cost))


def distance(p: AlmgrenPoint, q: AlmgrenPoint) -> DistanceResult:
    """Assignment distance with the lexicographically smallest optimal matching.

    The matching is :func:`lex_matchings` of a batch of one, and the value
    :func:`matched_values` of a batch of one: exactly rounded sums over the
    matched pairs, so it is symmetric in the arguments and agrees bit for bit
    with the enumeration oracle whenever both find the same matching.
    """
    _check_compatible(p, q)
    P, Q = p.expand()[None], q.expand()[None]
    matching = lex_matchings(kernels.sq_costs(P, Q))
    return DistanceResult(value=float(matched_values(P, Q, matching)[0]), matching=tuple(matching[0].tolist()))


def _check_bruteforce(d: int) -> None:
    if d > MAX_BRUTEFORCE_D:
        raise TupleSpaceError(f"brute force limited to d <= {MAX_BRUTEFORCE_D}, got {d}")


def bruteforce_matchings(P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Enumeration oracle on paired expanded tuples P, Q (m, d, n), d <= 8.

    Returns ``(value, matching)``: ``matching[a]`` (m, d) is the first
    minimum-cost permutation in lexicographic order, found by pricing all d!
    of them (``kernels.enumerate_min``), and ``value[a]`` its
    :func:`matched_values`, as in :func:`distance`.  Independent of the
    assignment solver.
    """
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    _check_bruteforce(P.shape[1])
    _, perms = kernels.enumerate_min(kernels.sq_costs(P, Q))
    return matched_values(P, Q, perms), perms


def bruteforce_distances(pairs) -> np.ndarray:
    """:func:`bruteforce_matchings` values of the pairs [(P, Q)] of one degree d <= 8, n free per batch.

    As in :func:`lex_distances`, one ``kernels.enumerate_min`` call and one
    :func:`matched_values` call price them all.
    """
    cost, P, Q = _degree_stack(pairs)
    _check_bruteforce(cost.shape[1])
    return matched_values(P, Q, kernels.enumerate_min(cost)[1])


def distance_bruteforce(p: AlmgrenPoint, q: AlmgrenPoint) -> DistanceResult:
    """Exact minimum by permutation enumeration (test oracle, d <= 8): :func:`bruteforce_matchings` of one pair."""
    _check_compatible(p, q)
    values, perms = bruteforce_matchings(p.expand()[None], q.expand()[None])
    return DistanceResult(value=float(values[0]), matching=tuple(perms[0].tolist()))


def barycenter(p: AlmgrenPoint) -> np.ndarray:
    return p.barycenter()


def singular_stratum(p: AlmgrenPoint, tol: float = 0.0) -> int:
    """Largest k such that some k expanded entries lie pairwise within tol.

    k = 1 means all entries separated; k = d means the diagonal.
    """
    if tol < 0:
        raise TupleSpaceError("tol must be nonnegative")
    X = p.expand()
    d = len(X)
    if tol == 0.0:
        return int(p.weights.max())
    diff = X[:, None, :] - X[None, :, :]
    close = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)) <= tol
    for k in range(d, 1, -1):
        for subset in itertools.combinations(range(d), k):
            idx = np.array(subset)
            if close[np.ix_(idx, idx)].all():
                return k
    return 1
