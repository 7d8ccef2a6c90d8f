"""Explicit proper branched covers with exact oracles and their multi-valued inverses.

The catalog: complex polynomials (roots via companion-matrix eigenvalues),
planar power maps z -> z^k, the 3D winding map (r, theta, z) -> (r, k theta, z),
and affine precompositions of these.  Every catalog map carries batch
evaluation, one batch-first forward derivative ``differential`` (its
``det`` is the Jacobian), batch fibers (local indices as repetitions), the
branch differentials at them, and exact distortion constants.

The fiber oracle is batch-first.  ``minv_batch(f, Y)`` evaluates the
multi-valued inverse over points Y (P, n) in one call of the cover's
``fiber_batch`` and returns expanded, index-weighted fibers (P, d, n) in no
promised row order (``almgren.sorted_tuples`` orders them, ``points_of``
merges them); ``minv(f, y)`` is its batch of one, as an AlmgrenPoint.  Path
lifting goes through it too: ``lift_paths`` prices a window of speculative
steps of every curve of a family in one ``minv_batch`` call per round and
commits, per curve, the steps that stepping one at a time would take, bit
for bit; ``lift_path`` is its batch of one.  The oracle fails closed:
CoverError for points of the wrong dimension or outside the image,
NumericalError for a non-finite or miscounted fiber.

The branch differentials Df^{-1} at the fiber points have one batch route,
``fiber_branch_differentials(f, X)``: the cover's ``branch_diff_batch`` on
held fibers X of ``minv_batch``, failing closed on misshapen, non-finite or
singular rows.  ``branch_differentials_batch(f, Y)`` is ``minv_batch`` plus
that step.  A Monte Carlo check evaluates each sample's fiber once: the
ball test and the metric Jacobian (``modulus.metric_jacobian_values``) read
the same fibers, and the branch-differential checks run on them, as does
the batch ``h_function``.  The scalar ``branch_differentials``, the
inverse of ``differential`` at one fiber, is the independent reference.

Every catalog map also bounds its differential over balls:
``df_bound(X, r)`` is an upper bound of sup ||Df|| over B(X[p], r).  By the
mean-value inequality, ``ball_reach(f, Z, r)`` turns a metric ball of
radius r around the fiber Z into a certified disc in the base: a point
whose fiber lies in the ball is within the reach of f(Z).  The metric-ball
test of the Ahlfors and preimage-measure checks (``modulus.rows_in_ball``)
lifts only the samples inside that disc, and the Ahlfors sampling box is a
fixed multiple of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

from . import kernels
from .almgren import AlmgrenPoint, points_of, sorted_tuples
from .util import components


class CoverError(ValueError):
    """Bad query against a branched-cover oracle (e.g. point outside the image)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (root solving, singular fiber, step underflow)."""


class LiftError(NumericalError):
    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


# a branch differential with |det Df| at or below this is treated as singular
SINGULAR_DET = 1e-13


# ---------------------------------------------------------------------------
# small matrix helpers


def _gram_eigs_2x2(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (larger, smaller) of M^T M for M (..., 2, 2)."""
    a = M[..., 0, 0] ** 2 + M[..., 1, 0] ** 2
    c = M[..., 0, 1] ** 2 + M[..., 1, 1] ** 2
    b = M[..., 0, 0] * M[..., 0, 1] + M[..., 1, 0] * M[..., 1, 1]
    disc = np.sqrt(np.maximum(((a - c) / 2) ** 2 + b * b, 0.0))
    return (a + c) / 2 + disc, (a + c) / 2 - disc


def op_norm_sq(M: np.ndarray) -> np.ndarray:
    """Squared operator (spectral) norm over the trailing (n, m) axes; closed form for 2x2."""
    M = np.asarray(M, dtype=np.float64)
    if M.shape[-2:] == (2, 2):
        return np.maximum(_gram_eigs_2x2(M)[0], 0.0)
    return np.linalg.svd(M, compute_uv=False)[..., 0] ** 2


def op_norm(M: np.ndarray) -> np.ndarray:
    """Operator (spectral) norm over the trailing (n, m) axes; closed form for 2x2."""
    return np.sqrt(op_norm_sq(M))


def min_singular(M: np.ndarray) -> np.ndarray:
    """Smallest singular value over the trailing (n, m) axes; closed form for 2x2."""
    M = np.asarray(M, dtype=np.float64)
    if M.shape[-2:] == (2, 2):
        return np.sqrt(np.maximum(_gram_eigs_2x2(M)[1], 0.0))
    return np.linalg.svd(M, compute_uv=False)[..., -1]


def det(M: np.ndarray) -> np.ndarray:
    """Determinant over the trailing (n, n) axes; closed form for 2x2 (a fraction of np.linalg.det)."""
    M = np.asarray(M, dtype=np.float64)
    if M.shape[-2:] == (2, 2):
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return np.linalg.det(M)


def branch_sums(A: np.ndarray) -> np.ndarray:
    """Sums over the branch axis of A (P, d), as numpy sums contiguous rows, whatever A's memory layout.

    numpy adds fewer than 8 terms in order and more pairwise, but only
    along a contiguous row: on planes laid out (d, P), which the power
    maps' fibers give, ``sum(axis=1)`` adds in order at every d.
    """
    return np.ascontiguousarray(A).sum(axis=1)


def _complex(X: np.ndarray) -> np.ndarray:
    """The first two coordinates of points X (..., n) as complex numbers (...)."""
    return X[..., 0] + 1j * X[..., 1]


def _conformal_matrix(w) -> np.ndarray:
    """The real 2x2 matrices (..., 2, 2) of multiplication by each entry of w (...).

    The entries M[..., a, b] are filled as planes of one (2, 2, ...) buffer
    laid out as w is (C or Fortran order), so each plane is contiguous when
    w is; the shape is promised, the memory layout is not.
    """
    w = np.asarray(w)
    if w.flags.f_contiguous and not w.flags.c_contiguous:
        M = np.empty((2, 2) + w.shape[::-1]).transpose(0, 1, *range(w.ndim + 1, 1, -1))
    else:
        M = np.empty((2, 2) + w.shape)
    M[0, 0] = M[1, 1] = w.real
    M[0, 1] = -w.imag
    M[1, 0] = w.imag
    return np.moveaxis(M, (0, 1), (-2, -1))


def _axis_distance(k: int) -> Callable[[np.ndarray], np.ndarray]:
    """branch_value_distance of a degree-k cover branched over {y_1 = y_2 = 0}."""
    if k == 1:
        return lambda ys: np.full(len(ys), np.inf)
    return lambda ys: np.hypot(ys[:, 0], ys[:, 1])


# ---------------------------------------------------------------------------
# the cover description and its oracles


@dataclass
class BranchedCoverSpec:
    """A proper branched cover f with batch oracles.

    ``evaluate(X)`` maps points (P, n) to their images (P, n) and
    ``differential(X)`` to Df (P, n, n), one point (n,) to (n, n), NaN where
    Df does not exist; the Jacobian J_f is its ``det``.  ``fiber_batch(Y)``
    maps points (P, n) to expanded fibers (P, d, n), each row an unordered
    tuple with every location repeated by its local index;
    ``branch_diff_batch(X)`` maps such fibers (P, d, n) to the branch
    differentials (P, d, n, n), Df(X[p, j])^{-1} row by row.  Both promise
    shapes, not memory layouts: a batch oracle may return a transposed view
    of a plane-major buffer, whose (P,) planes are contiguous;
    ``df_bound(X, r)`` maps points (P, n) to upper bounds (P,) of the
    operator norm sup ||Df|| over the closed balls B(X[p], r), which
    ``ball_reach`` turns into a certified reach;
    ``contains_image(Y)`` maps points (P, n) to a (P,) boolean mask and
    ``branch_value_distance(Y)`` to the (P,) distances to the branch values.
    Properness and the stated degree are guaranteed by construction of the
    catalog maps, not re-checked.
    """

    name: str
    n: int
    degree: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    differential: Callable[[np.ndarray], np.ndarray]
    fiber_batch: Callable[[np.ndarray], np.ndarray]
    branch_diff_batch: Callable[[np.ndarray], np.ndarray]
    df_bound: Callable[[np.ndarray, float], np.ndarray]
    K_I: float
    K_O: float
    branch_value_distance: Callable[[np.ndarray], np.ndarray]
    contains_image: Callable[[np.ndarray], np.ndarray]
    spec: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 1:
            raise CoverError("degree must be >= 1")


def minv(f: BranchedCoverSpec, y) -> AlmgrenPoint:
    """The fiber over one point y (n,) counted with local indices, as an
    unordered tuple: ``minv_batch`` of one, merged by ``points_of``."""
    return points_of(minv_batch(f, np.asarray(y, dtype=np.float64).reshape(1, -1)))[0]


def check_points(f: BranchedCoverSpec, Y: np.ndarray) -> np.ndarray:
    """Y as points (P, n) of f's space; CoverError if their dimension is not f.n."""
    if Y.ndim == 0 or Y.shape[-1] != f.n:
        raise CoverError(f"points of shape {Y.shape} do not lie in R^{f.n}, where {f.name} lives")
    return Y.reshape(-1, f.n)


def check_image(f: BranchedCoverSpec, Y) -> np.ndarray:
    """Y as points (P, n) of f's image.

    Fails closed: CoverError if the points are not in R^n or one is outside
    the image, NumericalError if one is non-finite.
    """
    Y = check_points(f, np.asarray(Y, dtype=np.float64))
    # whole-array tests first: the row-wise ones cost ten times as much
    if not np.isfinite(Y).all():
        raise NumericalError(f"non-finite point {Y[np.argmin(np.isfinite(Y).all(axis=1))].tolist()}")
    inside = f.contains_image(Y)
    if not inside.all():
        raise CoverError(f"{Y[np.argmin(inside)].tolist()} is outside the image of {f.name}")
    return Y


def _fiber_rows(f: BranchedCoverSpec, Y: np.ndarray) -> np.ndarray:
    """``f.fiber_batch`` over checked points Y (P, n); NumericalError unless the fibers have shape (P, d, n)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        X = f.fiber_batch(Y)
    if X.shape != (len(Y), f.degree, f.n):
        raise NumericalError(
            f"fibers of {f.name} have shape {X.shape}, expected {(len(Y), f.degree, f.n)} (root clustering failed)"
        )
    return X


def minv_batch(f: BranchedCoverSpec, Y) -> np.ndarray:
    """Expanded fibers (P, d, n) of the multi-valued inverse over points Y (P, n).

    Row i holds the fiber over Y[i], each point repeated by its local index
    as ``expand()`` does, in no promised order.  The shape is promised, the
    memory layout is not: the power maps return a view of plane-major
    (n, d, P) memory.  Fails closed: the checks of
    ``check_image``, then NumericalError if a fiber is non-finite or does
    not have d points.
    """
    Y = check_image(f, Y)
    X = _fiber_rows(f, Y)
    if not np.isfinite(X).all():
        bad = np.argmin(np.isfinite(X).all(axis=(1, 2)))
        raise NumericalError(f"non-finite fiber of {f.name} over {Y[bad].tolist()}")
    return X


def branch_differentials(f: BranchedCoverSpec, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expanded fiber locations, their local indices, and the branch differentials.

    Returns (X (d, n), idx (d,), L (d, n, n)) where X = the expanded fiber,
    idx[j] = local index of the cluster X[j] belongs to, and
    L[j] = Df(X[j])^{-1} is the differential of the local inverse branch
    through X[j] (inverse function theorem), one ``f.differential`` call
    over the merged fiber points.  Rows are repeated at fiber points of
    index > 1 so frame sums always have d terms.  NumericalError where Df is
    non-finite or singular, as on the branch set.
    """
    p = minv(f, y)
    D = f.differential(p.locations)
    finite = np.isfinite(D).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(f"branch differential non-finite at fiber point {p.locations[np.argmin(finite)].tolist()}")
    dets = np.abs(np.linalg.det(D))
    if dets.min() <= SINGULAR_DET:
        raise NumericalError(f"branch differential singular at fiber point {p.locations[np.argmin(dets)].tolist()}")
    return p.expand(), np.repeat(p.weights, p.weights), np.repeat(np.linalg.inv(D), p.weights, axis=0)


def fiber_branch_differentials(f: BranchedCoverSpec, X: np.ndarray) -> np.ndarray:
    """Branch differentials L (P, d, n, n) at held fibers X (P, d, n) of ``minv_batch``.

    L = ``f.branch_diff_batch(X)``, so L[p, j] = Df(X[p, j])^{-1} row by
    row.  Fails closed with NumericalError where a branch differential is
    non-finite, misshapen or |det Df| <= SINGULAR_DET.  Callers that already
    hold the fibers of their samples pass them here, so each fiber is
    evaluated once.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        L = f.branch_diff_batch(X)
    if L.shape != X.shape + (f.n,):
        raise NumericalError(f"branch differentials of {f.name} have shape {L.shape}, expected {X.shape + (f.n,)}")
    if not np.isfinite(L).all():
        bad = np.argmin(np.isfinite(L).all(axis=(1, 2, 3)))
        raise NumericalError(f"non-finite branch differential of {f.name} at fiber {X[bad].tolist()}")
    # L = Df^-1, so |det Df| <= SINGULAR_DET reads |det L| >= 1 / SINGULAR_DET
    dets = np.abs(det(L))  # (P, d)
    if dets.size and dets.max() >= 1.0 / SINGULAR_DET:
        raise NumericalError(f"branch differential of {f.name} singular at fiber {X[np.argmax(dets) // f.degree].tolist()}")
    return L


def h_function(f: BranchedCoverSpec, Y):
    """sqrt of the index-weighted sum of ||Df||^-2 over the fiber: points (P, n) give (P,), one point (n,) a float.

    ||Df(x)||^-1 is the smallest singular value of the branch differential
    Df(x)^-1, so one ``minv_batch`` and one ``fiber_branch_differentials``
    call serve all points; a fiber that meets a critical point fails closed
    there with NumericalError.
    """
    Y = np.asarray(Y, dtype=np.float64)
    L = fiber_branch_differentials(f, minv_batch(f, Y))
    H = np.sqrt(branch_sums(min_singular(L) ** 2))
    return float(H[0]) if Y.ndim == 1 else H


def ball_reach(f: BranchedCoverSpec, Z: np.ndarray, r: float) -> float:
    """Certified reach of the metric ball of radius r around the expanded fiber Z (d, n) of y0 = f(Z).

    reach = r / sqrt(sum_j L_j^-2) with L_j = ``f.df_bound(Z[j], r)``, and
    d_A(minv f(y), Z) < r implies |y - y0| < reach:
    1. take the optimal matching sigma of the fiber x over y to Z, so each
       |x_j - z_sigma(j)| < r and the segment between them lies in B(z_sigma(j), r);
    2. by the mean-value inequality |y - y0| = |f(x_j) - f(z_sigma(j))|
       <= L_sigma(j) |x_j - z_sigma(j)| for each j;
    3. sum the squares: |y - y0|^2 sum_j L_j^-2 <= d_A(minv f(y), Z)^2 < r^2.
    """
    L = f.df_bound(np.asarray(Z, dtype=np.float64), r)
    return float(r / np.sqrt((L**-2.0).sum()))


def branch_differentials_batch(f: BranchedCoverSpec, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branch values X (P, d, n) and branch differentials L (P, d, n, n) at points Y (P, n).

    X = ``minv_batch(f, Y)`` and L = ``fiber_branch_differentials(f, X)``:
    the fibers are evaluated once, and the shape, finiteness and
    SINGULAR_DET checks run on them.  Fails closed like ``minv_batch``
    (CoverError outside the image) and like ``fiber_branch_differentials``.
    """
    X = minv_batch(f, Y)
    return X, fiber_branch_differentials(f, X)


# ---------------------------------------------------------------------------
# catalog maps


def _whole_plane(ys: np.ndarray) -> np.ndarray:
    return np.ones(len(ys), dtype=bool)


def _poly_eval(coeffs: np.ndarray, z: complex) -> complex:
    out = 0j
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _poly_der(coeffs: np.ndarray) -> np.ndarray:
    return np.array([k * coeffs[k] for k in range(1, len(coeffs))], dtype=np.complex128)


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of sum_k coeffs[k] z^k via companion-matrix eigenvalues."""
    c = np.asarray(coeffs, dtype=np.complex128)
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    m = len(c) - 1
    if m < 1:
        raise NumericalError("constant polynomial has no roots")
    monic = c / c[-1]
    C = np.zeros((m, m), dtype=np.complex128)
    if m > 1:
        C[1:, :-1] = np.eye(m - 1)
    C[:, -1] = -monic[:-1]
    return np.linalg.eigvals(C)


def complex_polynomial(coeffs) -> BranchedCoverSpec:
    """z -> sum coeffs[k] z^k as a proper cover of the plane, degree = deg."""
    c = np.array(
        [complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v) for v in coeffs],
        dtype=np.complex128,
    )
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    deg = len(c) - 1
    if deg < 1:
        raise CoverError("polynomial must be nonconstant")
    dc = _poly_der(c)

    # critical values: p at roots of p'
    if len(dc) > 1 or (len(dc) == 1 and deg > 1):
        crit = _companion_roots(dc) if deg > 1 else np.array([], dtype=np.complex128)
    else:
        crit = np.array([], dtype=np.complex128)
    crit_values = np.array([_poly_eval(c, z) for z in crit]) if len(crit) else crit

    def evaluate(X):
        w = _poly_eval(c, _complex(X))
        return np.stack([w.real, w.imag], axis=-1)

    def differential(X):
        return _conformal_matrix(_poly_eval(dc, _complex(X)))

    def fiber_batch(ys):
        """Roots of p - w for every row: stacked companion matrices (m, deg, deg)."""
        w = ys[:, 0] + 1j * ys[:, 1]
        const = c[0] - w
        C = np.zeros((len(w), deg, deg), dtype=np.complex128)
        C[:, 1:, :-1] = np.eye(deg - 1)
        C[:, :, -1] = -c[:-1] / c[-1]
        C[:, 0, -1] = -const / c[-1]
        roots = np.linalg.eigvals(C)
        # Newton polish for well-separated roots
        for _ in range(2):
            pv = _poly_eval(c[1:], roots) * roots + const[:, None]
            dv = _poly_eval(dc, roots)
            ok = np.abs(dv) > 1e-8 * (1 + np.abs(roots))
            roots = np.where(ok, roots - pv / np.where(ok, dv, 1.0), roots)
        # merge near-coincident roots, only in rows that have any
        radius = 1e-7 * (1.0 + np.abs(w))
        gaps = np.abs(roots[:, :, None] - roots[:, None, :])
        gaps[:, np.arange(deg), np.arange(deg)] = np.inf
        for i in np.flatnonzero(gaps.min(axis=(1, 2)) <= radius):
            labels = components(gaps[i] <= radius[i])
            heads, sizes = np.unique(labels, return_counts=True)
            roots[i] = np.repeat([roots[i][labels == g].mean() for g in heads], sizes)
        return np.stack([roots.real, roots.imag], axis=2)

    def branch_diff_batch(X):
        return _conformal_matrix(1.0 / _poly_eval(dc, _complex(X)))

    def df_bound(X, r):
        # |p'(z)| <= sum_{i >= 1} i |c_i| |z|^(i-1), and |z| <= |x| + r on B(x, r)
        return np.polynomial.polynomial.polyval(np.hypot(X[:, 0], X[:, 1]) + r, np.abs(dc))

    def branch_dist(ys):
        if len(crit_values) == 0:
            return np.full(len(ys), np.inf)
        w = ys[:, 0] + 1j * ys[:, 1]
        return np.abs(crit_values - w[:, None]).min(axis=1)

    return BranchedCoverSpec(
        name=f"poly(deg={deg})",
        n=2,
        degree=deg,
        evaluate=evaluate,
        differential=differential,
        fiber_batch=fiber_batch,
        branch_diff_batch=branch_diff_batch,
        df_bound=df_bound,
        K_I=1.0,
        K_O=1.0,
        branch_value_distance=branch_dist,
        contains_image=_whole_plane,
        spec={"map": "poly", "coeffs": [[v.real, v.imag] for v in c]},
    )


def planar_power(k: int) -> BranchedCoverSpec:
    """z -> z^k with explicit k-th-root fibers."""
    if k < 1:
        raise CoverError("power must be >= 1")

    def evaluate(X):
        w = _complex(X) ** k
        return np.stack([w.real, w.imag], axis=-1)

    def differential(X):
        return _conformal_matrix(k * _complex(X) ** (k - 1))

    def fiber_batch(ys):
        """Vectorized fibers for points avoiding the branch value 0: (m, k, 2),
        filled branch by branch from contiguous (m,) angles into the planes
        of a plane-major (2, k, m) buffer, returned as its (m, k, 2) view."""
        w = ys[:, 0] + 1j * ys[:, 1]
        r = np.abs(w) ** (1.0 / k)
        t0 = np.angle(w) / k
        X = np.empty((2, k, len(ys)))
        for j in range(k):
            ang = t0 + 2 * np.pi * j / k
            np.multiply(r, np.cos(ang), out=X[0, j])
            np.multiply(r, np.sin(ang), out=X[1, j])
        return X.T

    def branch_diff_batch(X):
        return _conformal_matrix(1.0 / (k * _complex(X) ** (k - 1)))

    def df_bound(X, r):
        # ||Df(z)|| = k |z|^(k-1), and |z| <= |x| + r on B(x, r)
        return k * (np.hypot(X[:, 0], X[:, 1]) + r) ** (k - 1)

    return BranchedCoverSpec(
        name=f"power(k={k})",
        n=2,
        degree=k,
        evaluate=evaluate,
        differential=differential,
        fiber_batch=fiber_batch,
        branch_diff_batch=branch_diff_batch,
        df_bound=df_bound,
        K_I=1.0,
        K_O=1.0,
        branch_value_distance=_axis_distance(k),
        contains_image=_whole_plane,
        spec={"map": "power", "k": k},
    )


def winding_map_3d(k: int, r_max: float = 2.0, z_half: float = 1.0) -> BranchedCoverSpec:
    """(r, theta, z) -> (r, k theta, z) on a solid cylinder; degree k, branch set = axis."""
    if k < 1:
        raise CoverError("winding number must be >= 1")

    def evaluate(X):
        w = _complex(X)
        r = np.abs(w)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(r > 0, w**k / r ** (k - 1), 0.0)  # the axis maps to itself
        return np.stack([out.real, out.imag, X[..., 2]], axis=-1)

    def differential(X):
        """Df = R_{k theta} diag(1, k) R_{-theta} on the first two coordinates,
        with e^{i theta} = z / |z|; NaN on the branch axis, where Df does not exist."""
        with np.errstate(divide="ignore", invalid="ignore"):
            u = _complex(X) / np.hypot(X[..., 0], X[..., 1])
        out = np.zeros(X.shape + (3,))
        out[..., :2, :2] = _conformal_matrix(u**k) @ np.diag([1.0, float(k)]) @ _conformal_matrix(u.conj())
        out[..., 2, 2] = 1.0
        return out

    def fiber_batch(ys):
        r = np.hypot(ys[:, 0], ys[:, 1])[:, None]
        ang = np.arctan2(ys[:, 1], ys[:, 0])[:, None] / k + 2 * np.pi * np.arange(k) / k
        return np.stack([r * np.cos(ang), r * np.sin(ang), np.repeat(ys[:, 2:], k, axis=1)], axis=2)

    def branch_diff_batch(X):
        """Df^-1 = R_theta diag(1, 1/k) R_{-k theta} on the first two coordinates,
        with e^{i theta} = z / |z|; NaN on the branch axis, where Df is undefined."""
        u = _complex(X) / np.hypot(X[..., 0], X[..., 1])
        out = np.zeros(X.shape + (3,))
        out[..., :2, :2] = _conformal_matrix(u) @ np.diag([1.0, 1.0 / k]) @ _conformal_matrix(u.conj() ** k)
        out[..., 2, 2] = 1.0
        return out

    def df_bound(X, r):
        # ||Df|| = k off the axis: the angular direction is stretched k times, the others kept
        return np.full(len(X), float(k))

    def contains_image(ys):
        return (np.hypot(ys[:, 0], ys[:, 1]) <= r_max) & (np.abs(ys[:, 2]) <= z_half)

    return BranchedCoverSpec(
        name=f"wind3(k={k})",
        n=3,
        degree=k,
        evaluate=evaluate,
        differential=differential,
        fiber_batch=fiber_batch,
        branch_diff_batch=branch_diff_batch,
        df_bound=df_bound,
        K_I=float(k),
        K_O=float(k) ** 2,
        branch_value_distance=_axis_distance(k),
        contains_image=contains_image,
        spec={"map": "wind3", "k": k},
    )


def precomposed(affine: np.ndarray, base: BranchedCoverSpec, shift=None) -> BranchedCoverSpec:
    """base(A x + b): same degree; distortion of A times that of the base.

    The stored K_I/K_O are exact when the base is conformal in the plane
    (the catalog polynomials and powers) and multiplicative upper bounds
    otherwise.
    """
    A = np.asarray(affine, dtype=np.float64)
    n = base.n
    if A.shape != (n, n):
        raise CoverError("affine matrix must match the base dimension")
    if np.linalg.det(A) <= 0:
        raise CoverError("affine part must be orientation-preserving and invertible")
    b = np.zeros(n) if shift is None else np.asarray(shift, dtype=np.float64)
    Ainv = np.linalg.inv(A)
    sv = np.linalg.svd(A, compute_uv=False)
    norm_A = float(sv[0])
    lam = float(sv[0] / sv[-1])

    def affine(X):
        # stacked matrix-vector products: row p is A @ X[p] + b bit for bit, whatever the batch
        return (A @ X[..., None])[..., 0] + b

    def evaluate(X):
        return base.evaluate(affine(X))

    def differential(X):
        return base.differential(affine(X)) @ A

    def fiber_batch(ys):
        return (base.fiber_batch(ys) - b) @ Ainv.T

    def branch_diff_batch(X):
        # D(base o (A x + b)) = Dbase(A x + b) A, inverted
        return Ainv @ base.branch_diff_batch(X @ A.T + b)

    def df_bound(X, r):
        # ||Df(x)|| <= ||Dbase(A x + b)|| ||A||, and A B(x, r) + b lies in B(A x + b, ||A|| r)
        return norm_A * base.df_bound(affine(X), norm_A * r)

    return BranchedCoverSpec(
        name=f"precomposed({base.name}, lambda={lam:.3g})",
        n=n,
        degree=base.degree,
        evaluate=evaluate,
        differential=differential,
        fiber_batch=fiber_batch,
        branch_diff_batch=branch_diff_batch,
        df_bound=df_bound,
        K_I=base.K_I * lam,
        K_O=base.K_O * lam,
        branch_value_distance=base.branch_value_distance,
        contains_image=base.contains_image,
        spec={"map": "precompose", "affine": A.tolist(), "shift": b.tolist(), "base": base.spec},
    )


def build_map(spec: dict) -> BranchedCoverSpec:
    """Construct a catalog map from its JSON description."""
    if not isinstance(spec, dict) or "map" not in spec:
        raise CoverError(f"malformed map spec: {spec!r}")
    kind = spec["map"]
    try:
        if kind == "poly":
            return complex_polynomial(spec["coeffs"])
        if kind == "power":
            return planar_power(int(spec["k"]))
        if kind == "wind3":
            return winding_map_3d(
                int(spec["k"]),
                r_max=float(spec.get("r_max", 2.0)),
                z_half=float(spec.get("z_half", 1.0)),
            )
        if kind == "precompose":
            base = build_map(spec["base"])
            return precomposed(np.array(spec["affine"], dtype=float), base, spec.get("shift"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CoverError):
            raise
        raise CoverError(f"malformed map spec {spec!r}: {exc}") from exc
    raise CoverError(f"unknown map kind {kind!r}")


# ---------------------------------------------------------------------------
# path lifting


@dataclass
class LiftedPath:
    """Total lifts of a sampled base path, with multiplicity-consistent labels."""

    ts: np.ndarray  # (m,)
    base: np.ndarray  # (m, n)
    lifts: np.ndarray  # (m, d, n); row labels are continuation-consistent
    max_jump: float
    branch_crossings: list[float]

    def monodromy(self, tol: float = 1e-9) -> Optional[np.ndarray]:
        """Permutation matching final lift labels to initial ones for closed loops."""
        if np.linalg.norm(self.base[-1] - self.base[0]) > tol:
            return None
        return match_fibers(self.lifts[-1:], self.lifts[:1])[0]


# rows of window steps that one round of ``lift_paths`` prices, over all its paths
LIFT_ROWS = 1 << 12


def _fibers_failing_alone(f: BranchedCoverSpec, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``minv_batch`` over Y (A, n), except that a row it rejects fails alone.

    Returns the fibers (A, d, n), zero in failed rows, and the mask (A,) of
    the rows that ``minv_batch`` rejects by themselves (``_row_error`` gives
    their errors): rows of the wrong dimension, non-finite or outside the
    image, and rows whose fibers are non-finite.
    """
    try:
        return minv_batch(f, Y), np.zeros(len(Y), dtype=bool)
    except (CoverError, NumericalError):
        pass
    F = np.zeros((len(Y), f.degree, f.n))
    bad = np.ones(len(Y), dtype=bool)
    if Y.ndim != 2 or Y.shape[1] != f.n:
        return F, bad
    finite = np.isfinite(Y).all(axis=1)
    bad[finite] = ~f.contains_image(Y[finite])
    good = np.flatnonzero(~bad)
    if not len(good):
        return F, bad
    try:
        X = _fiber_rows(f, Y[good])
    except NumericalError:  # a misshapen batch: each row alone
        X = np.full((len(good), f.degree, f.n), np.nan)
        for i, r in enumerate(good):
            try:
                X[i] = minv_batch(f, Y[r : r + 1])[0]
            except (CoverError, NumericalError):
                pass
    ok = np.isfinite(X).all(axis=(1, 2))
    F[good[ok]] = X[ok]
    bad[good[~ok]] = True
    return F, bad


def _row_error(f: BranchedCoverSpec, y: np.ndarray) -> Exception:
    """The error that ``minv_batch`` raises for the one point y (n,)."""
    try:
        minv_batch(f, y[None])
    except (CoverError, NumericalError) as exc:
        return exc
    return NumericalError(f"the fiber of {f.name} over {y.tolist()} failed in a batch but not alone")


def _fiber_costs(X: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Squared distances cost (A, d, d), cost[a, i, j] = |X[a, i] - F[a, j]|^2, for tuples X and F (A, d, n).

    Below 8 coordinates the squares are added in order, plane by plane: the
    bits of numpy's sum of a row that short, and of ``np.linalg.norm``.
    """
    D = X[:, :, None, :] - F[:, None, :, :]
    if D.shape[-1] >= 8:
        return (D * D).sum(axis=-1)
    cost = D[..., 0] ** 2
    for k in range(1, D.shape[-1]):
        cost += D[..., k] ** 2
    return cost


def _matching(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal assignments perm (A, d) of cost matrices (A, d, d), and which of them are certified (A,).

    All rows go to one ``kernels.min_assignments`` call: up to
    ``kernels.ENUMERATED_DEGREE`` every permutation is priced at once and
    the first minimum in lexicographic order wins, above it the solver
    matches them.  Both routes return a runner-up: the enumeration the
    second smallest total, the solver a certified lower bound on the exact
    total of every other matching, from its own potentials.  A matching is
    certified by one rule on either: when the runner-up beats it by more
    than the rounding of its d-term totals, so that it is the unique optimum
    however the rows of the cost matrix are ordered.
    """
    d = cost.shape[1]
    value, perm, second = kernels.min_assignments(cost, runner_up=True)
    # a total of two terms rounds alike in either order; a sum of d >= 3 nonnegative
    # terms lies within (d - 1) u of the exact one in any order (u = 2^-53), and the
    # solver's runner-up is already below the exact totals
    return perm, second > value * (1.0 if d <= 2 else 1.0 + 8 * d * 2.0**-53)


def match_fibers(X: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Optimal assignment perm (A, d) of the fibers F (A, d, n) to the lifts X, F[a, perm[a]] ~ X[a] (``_matching``)."""
    return _matching(_fiber_costs(X, F))[0]


def _distinct_gaps(X: np.ndarray, merge_tol: float) -> np.ndarray:
    """Per row of X (A, d, n): the smallest distance above merge_tol between two of its points; inf if none."""
    i, j = np.triu_indices(X.shape[1], 1)
    r = np.linalg.norm(X[:, i] - X[:, j], axis=2)
    return np.where(r > merge_tol, r, np.inf).min(axis=1, initial=np.inf)


def _window(t, h, h_try, width, t1, t_end, base_h):
    """The steps that paths at (t, h, h_try) (A,) take while every step is accepted, at most width[a] each.

    Returns (path, step, h, h_try, t_to) per step, path by path, and the
    steps per path (A,).  The parameters are the sums that the step
    rule adds, in its order: after a step at h_try == h the step doubles
    toward base_h, after a shorter one it keeps that length.  A window ends
    at the step that reaches t_end, at the first later step clipped to t1,
    or at its width.
    """
    A, W = len(t), int(width.max())
    H = np.empty((A, W))
    H[:, 0] = h
    if W > 1:
        h1 = np.where(h_try == h, np.minimum(h * 2.0, base_h), h_try)
        with np.errstate(over="ignore"):
            H[:, 1:] = np.minimum(h1[:, None] * 2.0 ** np.arange(W - 1), base_h)
    # cumsum adds in order, so each start is the sum the step rule makes up to the first clip
    T = np.cumsum(np.column_stack([t, h_try, H[:, 1:]]), axis=1)[:, :W]
    HT = np.minimum(H, t1 - T)
    HT[:, 0] = h_try
    T_to = T + HT
    end = ~(T_to < t_end) | (np.arange(W) >= width[:, None] - 1)
    end[:, 1:] |= HT[:, 1:] < H[:, 1:]
    steps = np.argmax(end, axis=1) + 1
    inside = np.arange(W) < steps[:, None]
    path, step = np.nonzero(inside)
    return path, step, H[inside], HT[inside], T_to[inside], steps


def _window_labels(q: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Labels (R, d) along windows of rows laid out path by path, each window opened where ``first`` holds.

    q[r] maps each point of the fiber before row r to its match in row r's
    fiber (the first row of a window: each label of the lifts).  Row r's
    labels compose the matchings of its window up to r.  An inclusive
    (Hillis-Steele) scan composes only the rows whose matching moves a
    point; every other row keeps the labels of the row before it.
    """
    moves = first.copy()
    for j in range(q.shape[1]):
        moves |= q[:, j] != j
    c = q[moves]
    heads = np.flatnonzero(first[moves])
    rank = np.arange(len(c)) - np.repeat(heads, np.diff(np.append(heads, len(c))))
    off = 1
    while off <= rank.max():
        later = np.flatnonzero(rank >= off)
        c[later] = np.take_along_axis(c[later], c[later - off], axis=1)
        off *= 2
    return c[np.cumsum(moves) - 1]


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
    """Track the d total lifts of P paths by predictor-corrector continuation, a window of steps at a time.

    ``gamma(rows, t)`` maps path indices (A,) and parameters (A,) to base
    points (A, n).  At each step the fiber of the new base point is matched
    to the current lift positions by optimal assignment; the step is halved
    when the matched jump exceeds ``jump_factor`` times the smallest distinct
    fiber gap.  When the halving reaches ``h_min`` and the fiber has
    collapsed below ``merge_tol`` (or the jump is within the larger gap), the
    passage is recorded as a branch crossing.  Every path keeps its own step
    size, which doubles back toward its first one after a halving.

    The steps are speculative.  In each round every running path prices a
    window of its next steps (``_window``) as if each were accepted, all
    paths in one ``gamma`` call, one fiber batch and one matching, each
    fiber matched to the one before it and the labels composed along the
    window.  A path commits the longest prefix of accepted steps whose
    matchings are certified (``_matching``), so that they are the
    matchings of the labelled lifts too.  The first other step is settled as
    a lone step: matched to the labelled lifts, then accepted, halved,
    crossed or failed; the rest of the window is dropped.  So each path gets
    the lift and the error that stepping one step at a time gives, bit for
    bit, and an error is reported only at a point such stepping reaches.
    A round prices at most ``LIFT_ROWS`` rows; a path's window shrinks
    after a rejection and doubles with each full commit.  After ``gamma``
    raises in a window, every window is one step.

    The lift labels start in the order of ``minv(f, gamma(t0)).expand()``.
    Entry p of the result is path p's LiftedPath, or the error that stopped
    it alone: CoverError off the image, NumericalError for a non-finite
    fiber, LiftError on step underflow.  ValueError, before any work, if
    ``initial_steps`` is not an integer of at least 1 or t0 <= t1 are not
    finite.
    """
    if isinstance(initial_steps, bool) or not isinstance(initial_steps, Integral) or initial_steps < 1:
        raise ValueError(f"initial_steps must be an integer of at least 1, got {initial_steps!r}")
    if not (isinstance(t0, Real) and isinstance(t1, Real) and math.isfinite(t0) and math.isfinite(t1) and t0 <= t1):
        raise ValueError(f"t0 <= t1 must be finite numbers, got t0={t0!r}, t1={t1!r}")
    if P == 0:
        return []
    out: list = [None] * P
    rows = np.arange(P)
    t = np.full(P, float(t0))
    y_start = np.asarray(gamma(rows, t), dtype=np.float64)
    X, bad = _fibers_failing_alone(f, y_start)
    X = sorted_tuples(X)
    for i in np.flatnonzero(bad):
        out[i] = _row_error(f, y_start[i])
    running = ~bad
    chunks = [(rows[running], t[running], y_start[running], X[running])]  # accepted points, round by round
    crossings: list[tuple[np.ndarray, np.ndarray]] = []

    base_h = (t1 - t0) / initial_steps
    h = np.full(P, base_h)
    h_try = np.minimum(h, t1 - t)
    max_jump = np.zeros(P)
    t_end = t1 - 1e-15
    cap = LIFT_ROWS
    window = np.full(P, cap)
    running &= t < t_end
    while running.any():
        act = np.flatnonzero(running)
        path, step, hs, hts, ts1, steps = _window(
            t[act], h[act], h_try[act], np.minimum(window[act], max(1, cap // len(act))), t1, t_end, base_h
        )
        p = act[path]
        try:
            Y = np.asarray(gamma(p, ts1), dtype=np.float64)
        except Exception:
            if len(path) == len(act):  # one step per path: the points a lone step evaluates
                raise
            cap = 1  # gamma may be undefined past a point a lone step never reaches: step one at a time
            continue
        F, bad = _fibers_failing_alone(f, Y)
        first = step == 0
        prev = np.empty_like(F)  # the fiber each step leaves: the lifts, then the window's previous step
        prev[1:] = F[:-1]
        prev[first] = X[act]
        cost = _fiber_costs(prev, F)
        q, certified = _matching(cost)
        R, d = q.shape
        # the matched costs are the squared jumps, bit for bit
        jumps = np.sqrt(np.take(cost, q + (np.arange(R) * d * d)[:, None] + np.arange(0, d * d, d)).max(axis=1))
        gap = _distinct_gaps(prev, merge_tol)
        ok = ~bad & (jumps <= jump_factor * gap) & (first | certified)
        k = np.minimum.reduceat(np.where(ok, steps[path], step), np.flatnonzero(first))  # committed steps per path
        labels = _window_labels(q, first) + (np.arange(R) * d)[:, None]
        lifts = np.take(F.reshape(R * d, -1), labels, axis=0)  # F[r, labels[r]], a flat gather
        accepted = step < k[path]

        # the first step past the prefix, settled as a lone step against the labelled lifts
        edge = np.flatnonzero(step == k[path])
        for r in edge[bad[edge]]:
            out[p[r]] = _row_error(f, Y[r])
            running[p[r]] = False
        edge = edge[~bad[edge]]
        Xe = X[p[edge]]
        inner = step[edge] > 0
        Xe[inner] = lifts[edge[inner] - 1]
        Fe = np.take_along_axis(F[edge], match_fibers(Xe, F[edge])[:, :, None], axis=1)
        jumps[edge] = np.linalg.norm(Xe - Fe, axis=2).max(axis=1)
        accept = jumps[edge] <= jump_factor * gap[edge]
        halve = ~accept & (hts[edge] > h_min)
        stuck = np.flatnonzero(~accept & ~halve)
        if len(stuck):
            # merged passage through a near-collision of lifts
            gap_new = _distinct_gaps(Fe[stuck], merge_tol)
            scale = np.maximum(np.linalg.norm(Xe[stuck], axis=2).max(axis=1), 1.0)
            g = gap[edge[stuck]]
            cross = (np.minimum(g, gap_new) <= merge_tol * scale * 10) | (jumps[edge[stuck]] <= np.maximum(g, gap_new))
            accept[stuck[cross]] = True
            crossings.append((p[edge[stuck[cross]]], ts1[edge[stuck[cross]]]))
            for r in edge[stuck[~cross]]:
                out[p[r]] = LiftError(f"step underflow lifting through t={ts1[r]:.6g} (fiber collision)", float(ts1[r]))
                running[p[r]] = False
        accepted[edge[accept]] = True
        lifts[edge[accept]] = Fe[accept]

        acc = np.flatnonzero(accepted)
        chunks.append((p[acc], ts1[acc], Y[acc], lifts[acc]))
        np.maximum.at(max_jump, p[acc], jumps[acc])
        last = np.full(len(act), -1)
        np.maximum.at(last, path[acc], acc)
        r = last[last >= 0]
        a = p[r]
        X[a] = lifts[r]
        t[a] = ts1[r]
        h[a] = np.where(hts[r] == hs[r], np.minimum(hs[r] * 2.0, base_h), hts[r])
        h_try[a] = np.minimum(h[a], t1 - t[a])
        running[a] &= t[a] < t_end
        h_try[p[edge[halve]]] *= 0.5
        window[act] = np.minimum(np.where(k < steps, 2 * k + 2, 2 * window[act]), LIFT_ROWS)

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


def lift_path(
    f: BranchedCoverSpec,
    gamma: Callable[[float], np.ndarray],
    t0: float = 0.0,
    t1: float = 1.0,
    initial_steps: int = 128,
    jump_factor: float = 0.5,
    h_min: float = 1e-8,
    merge_tol: float = 1e-6,
) -> LiftedPath:
    """``lift_paths`` for the one path ``gamma(t)``; raises the error that stops it."""
    (lp,) = lift_paths(
        f,
        lambda rows, t: np.array([np.asarray(gamma(tv), dtype=np.float64).reshape(f.n) for tv in t]),
        1,
        t0=t0,
        t1=t1,
        initial_steps=initial_steps,
        jump_factor=jump_factor,
        h_min=h_min,
        merge_tol=merge_tol,
    )
    if isinstance(lp, Exception):
        raise lp
    return lp


def polyline_paths(polylines) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Arclength-ish parametrizations of polylines on [0, 1], vectorized over curves.

    ``gamma(rows, t)`` evaluates polyline ``rows[i]`` at ``t[i]`` for every i
    and returns (len(rows), n); a polyline of zero length stays at its first
    vertex.
    """
    curves = [np.asarray(p, dtype=np.float64) for p in polylines]
    P, m = len(curves), max(len(p) for p in curves)
    pts = np.zeros((P, m + 1, curves[0].shape[1]))
    cum = np.full((P, m), np.inf)  # padding past the last vertex is never <= s
    seg = np.zeros((P, m))
    last = np.empty(P, dtype=np.int64)  # index of the last segment
    for c, p in enumerate(curves):
        s = np.linalg.norm(np.diff(p, axis=0), axis=1)
        pts[c, : len(p)] = p
        cum[c, : len(p)] = np.concatenate([[0.0], np.cumsum(s)])
        seg[c, : len(s)] = s
        last[c] = len(s) - 1
    total = cum[np.arange(P), last + 1]
    vertices = pts.reshape(P * (m + 1), -1)
    still = total == 0

    def gamma(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        # flat np.take gathers: several times cheaper than fancy indexing with two index arrays
        s = np.clip(t, 0.0, 1.0) * total[rows]
        # count the vertices with cum <= s by bisecting each row's sorted cum, in O(rows) memory
        lo, hi = np.zeros(len(rows), dtype=np.int64), np.full(len(rows), m)
        for _ in range(m.bit_length()):
            mid = (lo + hi) // 2
            below = np.take(cum, rows * m + np.minimum(mid, m - 1)) <= s
            lo, hi = np.where((lo < hi) & below, mid + 1, lo), np.where((lo < hi) & ~below, mid, hi)
        i = np.minimum(np.maximum(lo - 1, 0), last[rows])
        seg_i = np.take(seg, rows * m + i)
        u = np.where(seg_i > 0, (s - np.take(cum, rows * m + i)) / np.where(seg_i > 0, seg_i, 1.0), 0.0)[:, None]
        v = rows * (m + 1) + i
        y = np.take(vertices, v, axis=0) * (1 - u) + np.take(vertices, v + 1, axis=0) * u
        if still[rows].any():
            y = np.where(still[rows][:, None], np.take(vertices, rows * (m + 1), axis=0), y)
        return y

    return gamma
