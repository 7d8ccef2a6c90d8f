"""The step-at-a-time path lifting that ``covers.lift_paths`` replaced, kept as a reference.

Every running path takes one step per iteration: one ``minv_batch`` call,
one matching of the new fiber to the labelled lifts and one distinct-gap
pass over the paths still running.  ``covers.lift_paths`` prices windows of
steps speculatively; it must give each path the same ``LiftedPath``, bit for
bit, or the same error.
"""

from typing import Callable

import numpy as np

from almqr import kernels
from almqr.almgren import sorted_tuples
from almqr.covers import BranchedCoverSpec, CoverError, LiftedPath, LiftError, NumericalError, minv_batch


def _fibers_failing_alone(f: BranchedCoverSpec, Y: np.ndarray) -> tuple[np.ndarray, dict]:
    """``minv_batch`` over Y (A, n), except that a row it rejects fails alone.

    Returns the fibers (A, d, n) and {row: the error minv_batch raises for that
    row by itself}; failed rows of the fibers are NaN.
    """
    try:
        return minv_batch(f, Y), {}
    except (CoverError, NumericalError):
        pass
    F = np.full((len(Y), f.degree, f.n), np.nan)
    errors = {}
    for i, y in enumerate(Y):
        try:
            F[i] = minv_batch(f, y[None])[0]
        except (CoverError, NumericalError) as exc:
            errors[i] = exc
    return F, errors


def match_fibers(X: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Optimal assignment perm (A, d) of the fibers F (A, d, n) to the lifts X, F[a, perm[a]] ~ X[a].

    For d <= 6 every permutation is priced at once (``kernels.enumerate_min``)
    and the first minimum in lexicographic order wins; above that all rows
    go to one ``kernels.solve_assignments`` call.
    """
    cost = ((X[:, :, None, :] - F[:, None, :, :]) ** 2).sum(axis=3)
    if X.shape[1] > 6:
        return kernels.solve_assignments(cost)[1]
    return kernels.enumerate_min(cost)[1]


def _distinct_gaps(X: np.ndarray, merge_tol: float) -> np.ndarray:
    """Per row of X (A, d, n): the smallest distance above merge_tol between two of its points; inf if none."""
    i, j = np.triu_indices(X.shape[1], 1)
    r = np.linalg.norm(X[:, i] - X[:, j], axis=2)
    return np.where(r > merge_tol, r, np.inf).min(axis=1, initial=np.inf)


def lift_paths(
    f: BranchedCoverSpec,
    gamma: Callable[[np.ndarray, np.ndarray], np.ndarray],
    P: int,
    t0: float = 0.0,
    t1: float = 1.0,
    initial_steps: int = 128,
    jump_factor: float = 0.5,
    h_min: float = 1e-8,
    merge_tol: float = 1e-6,
) -> list[LiftedPath | CoverError | NumericalError]:
    """Track the d total lifts of P paths in lockstep by predictor-corrector continuation.

    ``gamma(rows, t)`` maps path indices (A,) and parameters (A,) to base
    points (A, n).  At each step the fiber of the new base point is matched
    to the current lift positions by optimal assignment; the step is halved
    when the matched jump exceeds ``jump_factor`` times the smallest distinct
    fiber gap.  When the halving reaches ``h_min`` and the fiber has
    collapsed below ``merge_tol`` (or the jump is within the larger gap), the
    passage is recorded as a branch crossing.

    Every path keeps its own step size, so it takes the same step decisions
    as when lifted alone; each attempt makes one ``minv_batch`` call, one
    batched matching and one distinct-gap pass over the paths still running.
    The lift labels start in the order of ``minv(f, gamma(t0)).expand()``.
    Entry p of the result is path p's LiftedPath, or the error that stopped
    it alone: CoverError off the image, NumericalError for a non-finite
    fiber, LiftError on step underflow.
    """
    if P == 0:
        return []
    out: list = [None] * P
    rows = np.arange(P)
    t = np.full(P, float(t0))
    y_start = np.asarray(gamma(rows, t), dtype=np.float64)
    X, errors = _fibers_failing_alone(f, y_start)
    X = sorted_tuples(X)
    running = np.ones(P, dtype=bool)
    for i, exc in errors.items():
        out[i] = exc
        running[i] = False
    chunks = [(rows[running], t[running], y_start[running], X[running])]  # accepted points, step by step
    crossings: list[tuple[np.ndarray, np.ndarray]] = []

    base_h = (t1 - t0) / initial_steps
    h = np.full(P, base_h)
    h_try = np.minimum(h, t1 - t)
    max_jump = np.zeros(P)
    running &= t < t1 - 1e-15
    while running.any():
        act = np.flatnonzero(running)
        t_new = t[act] + h_try[act]
        y_new = np.asarray(gamma(act, t_new), dtype=np.float64)
        F, errors = _fibers_failing_alone(f, y_new)
        if errors:
            for i, exc in errors.items():
                out[act[i]] = exc
            ok = np.ones(len(act), dtype=bool)
            ok[list(errors)] = False
            running[act[~ok]] = False
            act, t_new, y_new, F = act[ok], t_new[ok], y_new[ok], F[ok]
        Xa = X[act]
        perm = match_fibers(Xa, F)
        F = np.take_along_axis(F, perm[:, :, None], axis=1)
        jumps = np.linalg.norm(Xa - F, axis=2).max(axis=1)
        gap = _distinct_gaps(Xa, merge_tol)
        accept = jumps <= jump_factor * gap
        halve = ~accept & (h_try[act] > h_min)
        h_try[act[halve]] *= 0.5
        stuck = np.flatnonzero(~accept & ~halve)
        if len(stuck):
            # merged passage through a near-collision of lifts
            gap_new = _distinct_gaps(F[stuck], merge_tol)
            scale = np.maximum(np.linalg.norm(Xa[stuck], axis=2).max(axis=1), 1.0)
            g = gap[stuck]
            cross = (np.minimum(g, gap_new) <= merge_tol * scale * 10) | (jumps[stuck] <= np.maximum(g, gap_new))
            accept[stuck[cross]] = True
            crossings.append((act[stuck[cross]], t_new[stuck[cross]]))
            for i in stuck[~cross]:
                out[act[i]] = LiftError(f"step underflow lifting through t={t_new[i]:.6g} (fiber collision)", float(t_new[i]))
            running[act[stuck[~cross]]] = False
        a = act[accept]
        X[a] = F[accept]
        max_jump[a] = np.maximum(max_jump[a], jumps[accept])
        t[a] = t_new[accept]
        chunks.append((a, t_new[accept], y_new[accept], F[accept]))
        h[a] = np.where(h_try[a] == h[a], np.minimum(h[a] * 2.0, base_h), h_try[a])
        h_try[a] = np.minimum(h[a], t1 - t[a])
        running[a] = t[a] < t1 - 1e-15

    # regroup the accepted points path by path; the stable sort keeps each path's steps in order
    rows_all, ts, base, lifts = (np.concatenate(c) for c in zip(*chunks))
    order = np.argsort(rows_all, kind="stable")
    bounds = np.searchsorted(rows_all[order], np.arange(P + 1))
    ts, base, lifts = ts[order], base[order], lifts[order]
    crossed: dict[int, list[float]] = {}
    for r, tc in crossings:
        for p, tv in zip(r.tolist(), tc.tolist()):
            crossed.setdefault(p, []).append(tv)
    for p in range(P):
        if out[p] is None:
            lo, hi = bounds[p], bounds[p + 1]
            out[p] = LiftedPath(
                ts=ts[lo:hi],
                base=base[lo:hi],
                lifts=lifts[lo:hi],
                max_jump=float(max_jump[p]),
                branch_crossings=crossed.get(p, []),
            )
    return out
