"""Discrete conformal modulus, curve-wise upper gradients, the area formula,
Ahlfors-regularity sampling, the preimage measure and metric quasiconformality:
measurements that the checks of ``runner`` decide on.

The discrete modulus problem

    minimize sum_c V_c rho_c^n   s.t.   sum_c a_{gc} rho_c >= 1 per curve g

is solved through its concave dual by accelerated projected gradient ascent;
the primal density recovered from the dual variables is rescaled to exact
feasibility, so the reported value is a true upper bound for the discrete
optimum and the dual value a lower bound.  The solver stops when their
relative gap is at most ``TOL_GAP``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .almgren import sorted_tuples
from .covers import (
    BranchedCoverSpec,
    CoverError,
    LiftedPath,
    NumericalError,
    ball_reach,
    check_image,
    check_points,
    det,
    fiber_branch_differentials,
    h_function,
    lift_paths,
    match_fibers,
    minv,
    minv_batch,
    polyline_paths,
)
from .regions import Annulus, Box, region_quadrature
from .util import SpecError, row_norms


# ---------------------------------------------------------------------------
# curve families


def _segments(polylines: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The segments of all polylines at once, in curve order: their curves (S,),
    start points (S, 2), vectors (S, 2) and lengths (S,)."""
    pts = [np.asarray(p, dtype=np.float64) for p in polylines]
    V = np.concatenate(pts)
    curve = np.repeat(np.arange(len(pts)), [len(p) - 1 for p in pts])
    # segment s starts at vertex s + curve[s]: each earlier curve has one vertex more than segments
    start = np.arange(len(curve)) + curve
    seg = V[start + 1] - V[start]
    return curve, V[start], seg, np.linalg.norm(seg, axis=1)


@dataclass
class CurveFamily:
    """A finite family of rectifiable curves given as polylines."""

    polylines: list[np.ndarray]
    name: str = "polylines"

    def __post_init__(self):
        if not self.polylines:
            raise ValueError("empty curve family")
        curve, _, _, seg_len = _segments(self.polylines)
        if np.any(np.bincount(curve, weights=seg_len, minlength=len(self.polylines)) <= 0):
            raise ValueError("curve with zero length rejected")

    def __len__(self) -> int:
        return len(self.polylines)


def radial_family(ann: Annulus, count: int) -> CurveFamily:
    """Segments joining the two boundary circles of an annulus."""
    thetas = 2 * np.pi * np.arange(count) / count
    u = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    ends = np.stack([ann.center + ann.r_in * u, ann.center + ann.r_out * u], axis=1)  # (count, 2, 2)
    return CurveFamily(list(ends), name="radial")


def circle_family(ann: Annulus, count: int, vertices: int = 720) -> CurveFamily:
    """Concentric circles separating the two boundary components."""
    rs = np.linspace(ann.r_in, ann.r_out, count + 2)[1:-1]
    t = np.linspace(0, 2 * np.pi, vertices + 1)
    lines = [
        ann.center + np.stack([r * np.cos(t), r * np.sin(t)], axis=1) for r in rs
    ]
    return CurveFamily(lines, name="circles")


def build_family(spec, region, count: int) -> CurveFamily:
    """Family DSL: 'radial' | 'circles' | {'family': 'radial' | 'circles', 'count': n >= 1 (default ``count``)}
    on an annulus | {'family': 'polylines', 'paths': [...]}; SpecError for any other spec."""
    if isinstance(spec, str):
        spec = {"family": spec}
    kind = spec.get("family") if isinstance(spec, dict) else None
    if kind in ("radial", "circles"):
        count = spec.get("count", count)
        if isinstance(count, bool) or not isinstance(count, Integral) or count < 1 or not isinstance(region, Annulus):
            raise SpecError(f"a {kind} family needs a count of at least 1 and an annulus, got {count!r} on {region!r}")
        return (radial_family if kind == "radial" else circle_family)(region, int(count))
    if kind == "polylines":
        try:
            paths = [np.asarray(p, dtype=float) for p in spec["paths"]]
            if not all(p.ndim == 2 and p.shape[1] == 2 and np.isfinite(p).all() for p in paths):
                raise ValueError("each path must be a list of finite planar points")
            return CurveFamily(paths)
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad polyline family {spec!r}: {exc}") from exc
    raise SpecError(f"bad family spec {spec!r}")


# ---------------------------------------------------------------------------
# discrete modulus


@dataclass
class Grid2D:
    box: Box
    ncells: int  # per axis

    @property
    def h(self) -> np.ndarray:
        return (self.box.hi - self.box.lo) / self.ncells

    def cell_of(self, pts: np.ndarray) -> np.ndarray:
        ij = np.floor((pts - self.box.lo) / self.h).astype(np.int64)
        ij = np.clip(ij, 0, self.ncells - 1)
        return ij[:, 0] * self.ncells + ij[:, 1]

    def centers(self, flat_idx: np.ndarray) -> np.ndarray:
        i, j = np.divmod(flat_idx, self.ncells)
        return self.box.lo + (np.stack([i, j], axis=1) + 0.5) * self.h

    def cell_volume(self) -> float:
        return float(np.prod(self.h))


# sub-samples rasterized at once: curves go in groups of about this many, which bounds the merge's memory
RASTER_CHUNK = 1 << 12


def _rasterize(
    polylines: Sequence[np.ndarray],
    grid: Grid2D,
    seg_values: Optional[Sequence[np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deposit per-curve arclength (or supplied per-segment mass) onto cells.

    Returns COO triplets (curve_row, cell_col, value) with duplicates merged,
    sorted by (row, col).  The segments of all curves are measured at once;
    their sub-samples are made and merged for a group of whole curves at a
    time, in curve order, each group starting within its own window of
    ``RASTER_CHUNK`` sub-samples.  A group's merge is the whole family's
    merge restricted to its rows, and every sub-sample and per-cell sum is
    formed as in a per-segment loop, so the bytes do not depend on grouping.
    """
    hmin = float(grid.h.min())
    curve, origin, seg, seg_len = _segments(polylines)
    mass = seg_len if seg_values is None else np.concatenate([np.asarray(v, dtype=np.float64) for v in seg_values])
    if mass.shape != seg_len.shape:
        raise ValueError(f"seg_values give {mass.shape[0]} segment masses for {len(seg_len)} segments")
    k = np.flatnonzero(seg_len != 0)
    nsub = np.maximum(1, np.ceil(seg_len[k] / (hmin / 3.0)).astype(np.int64))
    first = np.cumsum(nsub) - nsub
    kc = curve[k]
    window = first[np.searchsorted(kc, kc)] // RASTER_CHUNK  # the window of each curve's first sub-sample
    cuts = np.flatnonzero(np.diff(window)) + 1
    out_rows, out_cols, out_vals = [], [], []
    for a, b in zip([0, *cuts], [*cuts, len(k)]):
        ks, ns = k[a:b], nsub[a:b]
        k_of = np.repeat(ks, ns)
        t = (np.arange(ns.sum()) - np.repeat(first[a:b] - first[a], ns) + 0.5) / np.repeat(ns, ns)
        cols = grid.cell_of(origin[k_of] + t[:, None] * seg[k_of])
        rows = np.repeat(kc[a:b], ns)
        vals = np.repeat(mass[ks] / ns, ns)
        # merge duplicate (row, col) pairs
        key = rows * (grid.ncells**2) + cols
        order = np.argsort(key, kind="stable")
        key, rows, cols, vals = key[order], rows[order], cols[order], vals[order]
        boundary = np.concatenate([[True], key[1:] != key[:-1]])
        head = np.flatnonzero(boundary)
        out_rows.append(rows[head])
        out_cols.append(cols[head])
        out_vals.append(np.bincount(np.cumsum(boundary) - 1, weights=vals))
    return np.concatenate(out_rows), np.concatenate(out_cols), np.concatenate(out_vals)


@dataclass
class DensityField:
    """An admissible density on the touched grid cells.

    ``admissibility_residual`` is 1 minus the smallest curve integral; the
    stored density is rescaled to make it exactly nonnegative.
    """

    grid: Grid2D
    cells: np.ndarray  # flat indices of touched cells
    values: np.ndarray  # density per touched cell, >= 0
    exponent: float
    curve_integrals: np.ndarray

    @property
    def admissibility_residual(self) -> float:
        return float(1.0 - self.curve_integrals.min())


@dataclass
class ModulusResult:
    value: float
    dual_value: float
    gap: float
    iterations: int
    converged: bool  # stopped on a relative gap certified at most TOL_GAP, not at max_iters
    n_curves: int
    n_cells: int
    min_curve_integral: float
    grid: int
    density: Optional[DensityField] = None

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "dual_value": self.dual_value,
            "gap": self.gap,
            "iterations": self.iterations,
            "converged": self.converged,
            "n_curves": self.n_curves,
            "n_cells": self.n_cells,
            "min_curve_integral": self.min_curve_integral,
            "grid": self.grid,
        }


# the solver stops once the relative duality gap (value - dual_value) / value is at most
# TOL_GAP; it evaluates that certificate every GAP_EVERY iterations
TOL_GAP = 1e-6
GAP_EVERY = 10
# the backtracking test allows this rounding relative to h(y); a smaller step fails it by noise alone
ROUNDING = 8 * np.finfo(np.float64).eps


def discrete_modulus(
    family: CurveFamily,
    region,
    grid: int = 256,
    n: float = 2.0,
    cell_weight: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    seg_values: Optional[Sequence[np.ndarray]] = None,
    max_iters: int = 4000,
) -> ModulusResult:
    """Discrete n-modulus of a curve family on a grid over the region's bbox.

    ``cell_weight`` rescales the cell volumes (the density of the measure
    against Lebesgue); ``seg_values`` overrides the per-segment admissibility
    mass (the length element along the curves).

    The dual ascends by projected FISTA (Beck and Teboulle 2009) at every
    exponent.  Its step 1/L backtracks: the step from the extrapolated point
    y to x is taken when the Bregman divergence of the dual's convex part
    h = (n - 1) sum_c V_c s_c^q, s = A^T lam / (n V), from y to x is at most
    (L/2) |x - y|^2, else L doubles; each step then shrinks L by 0.9.  The
    momentum restarts whenever the projected step turns against it (the
    gradient restart of O'Donoghue and Candes 2015).  Every ``GAP_EVERY``
    iterations the dual iterate gives a lower bound and its density,
    rescaled to feasibility, an upper bound; ``converged`` means that the
    solver stopped on their relative gap certified at most ``TOL_GAP``
    within ``max_iters``.  A non-finite gradient, divergence or step raises
    ``NumericalError``.
    """
    g2 = Grid2D(region.bbox(), grid)
    rows, cols, vals = _rasterize(family.polylines, g2, seg_values=seg_values)
    # restrict to touched cells
    touched, cols_c = np.unique(cols, return_inverse=True)
    ncells = len(touched)
    M = len(family)
    V = np.full(ncells, g2.cell_volume())
    if cell_weight is not None:
        V = V * np.asarray(cell_weight(g2.centers(touched)), dtype=np.float64)
    if np.any(V <= 0):
        raise ValueError("nonpositive cell weights")

    q = n / (n - 1.0)
    per_row = np.bincount(rows, minlength=M)  # rows is sorted, so lam[rows] is np.repeat(lam, per_row)

    def a_t(lam: np.ndarray) -> np.ndarray:  # A^T lam over touched cells
        return np.bincount(cols_c, weights=vals * np.repeat(lam, per_row), minlength=ncells)

    def a(rho: np.ndarray) -> np.ndarray:  # A rho over curves
        return np.bincount(rows, weights=vals * rho[cols_c], minlength=M)

    def rho_of(s: np.ndarray) -> np.ndarray:  # the density of a dual point lam from s = A^T lam / (n V)
        # an extrapolated point may have s < 0: off n = 2 that cell's density is 0
        return s if n == 2.0 else np.maximum(s, 0.0) ** (1.0 / (n - 1.0))

    def dual(lam: np.ndarray, s: np.ndarray) -> float:  # the dual objective at lam, s = A^T lam / (n V)
        return float(lam.sum() - (n - 1.0) * (V * s**q).sum())

    def certificate(lam: np.ndarray, s: np.ndarray) -> tuple[float, float, np.ndarray]:
        """(value, dual value, curve integrals of rho_of(s)) at the dual iterate lam, s = A^T lam / (n V);
        the value is the mass of the density rescaled to feasibility, inf when a curve has no mass."""
        rho = rho_of(s)
        integrals = a(rho)
        mu = float(integrals.min())
        value = float((V * (rho / mu) ** n).sum()) if mu > 0 else np.inf
        return value, dual(lam, s), integrals

    def certified(cert) -> bool:
        return cert[0] < np.inf and cert[0] - cert[1] <= TOL_GAP * cert[0]

    lam = np.full(M, 1e-3)
    s_lam = a_t(lam) / (n * V)
    y, s_y = lam, s_lam
    L, t = 1.0, 1.0
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        rho_y = rho_of(s_y)  # h(y) = (n - 1) sum_c V_c s_y rho_y
        grad = 1.0 - a(rho_y)
        slack = ROUNDING * (n - 1.0) * float((V * s_y * rho_y).sum())
        while True:  # double L until the Bregman divergence of h from y to x is at most (L/2) |x - y|^2
            x = np.maximum(0.0, y + grad / L)
            s_x = a_t(x) / (n * V)
            step = x - y
            # summed cell by cell, in closed form at n = 2; a non-finite gradient makes it non-finite
            div = float((V * ((s_x - s_y) ** 2 if n == 2.0 else
                              (n - 1.0) * (s_x**q - s_y * rho_y) - n * rho_y * (s_x - s_y))).sum())
            if not np.isfinite([div, L]).all():
                raise NumericalError(f"non-finite dual gradient, divergence or step at iteration {it}")
            if div <= 0.5 * L * np.dot(step, step) + slack:
                break
            L *= 2.0
        L *= 0.9  # let L fall back to the local curvature
        if np.dot(step, x - lam) < 0:  # the projected step turns against the momentum: restart
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        # A^T is linear, so the extrapolated point's s comes from the stored ones
        y, s_y = x + beta * (x - lam), s_x + beta * (s_x - s_lam)
        lam, s_lam, t = x, s_x, t_next
        if it % GAP_EVERY == 0 and certified(cert := certificate(lam, s_lam)):
            converged = True
            break
    if not converged:
        cert = certificate(lam, s_lam)
    primal, dval, integrals = cert
    mu = float(integrals.min())
    if mu <= 0:
        raise NumericalError("dual iterate left a curve with zero mass")
    return ModulusResult(
        value=primal,
        dual_value=dval,
        gap=primal - dval,
        iterations=it,
        converged=converged,
        n_curves=M,
        n_cells=ncells,
        min_curve_integral=mu,
        grid=grid,
        density=DensityField(
            grid=g2,
            cells=touched,
            values=rho_of(s_lam) / mu,
            exponent=float(n),
            curve_integrals=integrals / mu,
        ),
    )


def ring_modulus_exact(r_in: float, r_out: float, n: float = 2.0) -> float:
    """Continuum n-modulus of the radial (connecting) family of a round planar annulus:
    2 pi / log(r_out / r_in) at n = 2, and 2 pi (int_{r_in}^{r_out} r^(-1/(n-1)) dr)^(1-n) in general."""
    if n == 2.0:
        return float(2 * np.pi / np.log(r_out / r_in))
    p = (n - 2.0) / (n - 1.0)
    return float(2 * np.pi * ((r_out**p - r_in**p) / p) ** (1.0 - n))


# ---------------------------------------------------------------------------
# push-forward modulus (geometric quasiconformality)


def metric_jacobian_values(f: BranchedCoverSpec, X: np.ndarray) -> np.ndarray:
    """Metric Jacobian of the multi-valued inverse over m points, from their
    fibers X (m, d, n) as ``minv_batch`` returns them.

    sqrt of the Gram determinant of the stacked branch differentials,
    sqrt(det(sum_j L_j^T L_j)); for conformal branches this is H(y)^2.  The
    caller passes the fibers it already holds, and the branch-differential
    checks of ``fiber_branch_differentials`` run on them.
    """
    L = fiber_branch_differentials(f, X)
    P, d, n = X.shape
    # G entry by entry (rows k, then branches j) on contiguous (d, P) planes
    Lt = np.ascontiguousarray(L.transpose(2, 3, 1, 0))
    G = np.empty((n, n, P))
    for i, l in zip(*np.triu_indices(n)):
        col = Lt[0, i] * Lt[0, l]
        for k in range(1, n):
            col += Lt[k, i] * Lt[k, l]
        # summed down axis 0, the d terms add in order, as numpy adds a row of
        # fewer than 8; from 8 terms on it adds a contiguous row pairwise
        G[i, l] = G[l, i] = col.sum(axis=0) if d < 8 else np.ascontiguousarray(col.T).sum(axis=1)
    return np.sqrt(np.maximum(det(G.transpose(2, 0, 1)), 0.0))


def pushforward_modulus_check(
    f: BranchedCoverSpec,
    family: CurveFamily,
    region,
    grid: int,
    lift_steps: int,
) -> dict:
    """Two-sided modulus comparison between a base family and its image under
    the multi-valued inverse.

    The image modulus is computed on the same base grid: curve mass uses the
    tuple-space arclength of the lifted frames and cell volumes use the
    metric Jacobian of the inverse (the area formula for the Hausdorff
    measure of the image set).  Curves that fail to lift are counted in
    ``lift_failures``, and each solve's diagnostics (``converged`` among
    them) are in ``base_diag`` and ``image_diag``.
    """
    base = discrete_modulus(family, region, grid=grid)

    lifts = lift_paths(f, polyline_paths(family.polylines), len(family), initial_steps=lift_steps)
    lifted = [lp for lp in lifts if isinstance(lp, LiftedPath)]
    failures = len(lifts) - len(lifted)
    if not lifted:
        raise NumericalError("all lifts failed")
    polylines = [lp.base for lp in lifted]
    seg_values = []
    for lp in lifted:
        d_lift = np.diff(lp.lifts, axis=0)  # (steps, d, n)
        seg_values.append(np.sqrt(np.einsum("sjk,sjk->s", d_lift, d_lift)))
    lifted_family = CurveFamily(polylines, name=f"{family.name}-lifted")
    image = discrete_modulus(
        lifted_family,
        region,
        grid=grid,
        cell_weight=lambda ys: metric_jacobian_values(f, minv_batch(f, ys)),
        seg_values=seg_values,
    )

    return {
        "mod_base": base.value,
        "mod_image": image.value,
        "ratio": image.value / base.value,
        "K_I_K_O": f.K_I * f.K_O,
        "lift_failures": failures,
        "base_diag": base.to_json(),
        "image_diag": image.to_json(),
    }


# ---------------------------------------------------------------------------
# curve-wise upper gradient check


def upper_gradient_check(
    f: BranchedCoverSpec,
    family: CurveFamily,
    samples_per_curve: int,
    tol: float,
    fd_step: float = 1e-5,
    margin: float = 1e-3,
) -> dict:
    """Sampled two-sided comparison of the tuple-space speed of lifted curves
    against H * base speed (lower) and (K_I K_O)^{1/n} H * base speed (upper).

    Speeds are central differences of assignment-matched fibers at parameter
    offsets +-fd_step; samples too close to the branch values, or where the
    base curve does not move, are excluded.  All curves are sampled at once:
    the fibers over the samples and over their two offsets take one
    ``minv_batch`` call each.  A sample below (1 - tol) times its lower
    bound, or above (1 + tol) times its upper bound, is a violation.  A
    sweep with no sample left raises NumericalError, since it has checked
    nothing.
    """
    n = f.n
    Kfac = (f.K_I * f.K_O) ** (1.0 / n)
    gamma = polyline_paths(family.polylines)
    rows = np.repeat(np.arange(len(family)), samples_per_curve)
    ts = np.tile((np.arange(samples_per_curve) + 0.5) / samples_per_curve, len(family))
    ys, yp, ym = gamma(rows, ts), gamma(rows, ts + fd_step), gamma(rows, ts - fd_step)
    base_speed = row_norms(yp - ym) / (2 * fd_step)
    keep = ~(f.branch_value_distance(ys) < margin) & (base_speed != 0.0)
    used = int(keep.sum())
    excluded = len(ys) - used
    if used == 0:
        raise NumericalError(f"upper-gradient check used no sample: all {excluded} were excluded")
    ys, yp, ym, base_speed = ys[keep], yp[keep], ym[keep], base_speed[keep]
    X = sorted_tuples(minv_batch(f, ys))
    Fp, Fm = minv_batch(f, yp), minv_batch(f, ym)
    Fp = np.take_along_axis(Fp, match_fibers(X, Fp)[:, :, None], axis=1)
    Fm = np.take_along_axis(Fm, match_fibers(X, Fm)[:, :, None], axis=1)
    vel = (Fp - Fm) / (2 * fd_step)
    frame_speed = np.sqrt(np.einsum("pjk,pjk->p", vel, vel))
    H = h_function(f, ys)
    lower = H * base_speed
    upper = Kfac * H * base_speed
    low = frame_speed < lower * (1 - tol)
    high = frame_speed > upper * (1 + tol)
    violations = int(low.sum() + high.sum())
    return {
        "n_samples": used,
        "excluded": excluded,
        "violation_fraction": violations / used,
        "worst_low_gap": float(np.max((lower[low] - frame_speed[low]) / lower[low], initial=0.0)),
        "worst_high_gap": float(np.max((frame_speed[high] - upper[high]) / upper[high], initial=0.0)),
        "K_factor": Kfac,
    }


# ---------------------------------------------------------------------------
# area formula


def area_formula_check(
    f: BranchedCoverSpec,
    gs: dict[str, Callable[[np.ndarray], np.ndarray]],
    image_region,
    preimage_region,
    order: int,
) -> dict[str, dict]:
    """Quadrature comparison of the push-forward integral of each g in ``gs`` with the domain-side
    integral of g * Jf over the exact preimage region, which keeps the integrands smooth.

    Each g is batch-first: points (M, n) to values (M,).  The fibers of all
    image-side nodes come from one ``minv_batch`` call and the preimage
    nodes and Jacobian det Df from one quadrature and one ``f.differential``
    call, shared by every g.  Returns
    {name: {"lhs", "rhs", "rel_discrepancy"}} in the order of ``gs``.
    """
    pts, w = region_quadrature(image_region, order)
    fibers = minv_batch(f, pts).reshape(-1, f.n)  # (M * d, n), index-weighted by repetition
    pts2, w2 = region_quadrature(preimage_region, order)
    jac = det(f.differential(pts2))  # J_f = det Df
    rows = {}
    for name, g in gs.items():
        lhs = float(w @ g(fibers).reshape(len(pts), f.degree).sum(axis=1))
        rhs = float(w2 @ (g(pts2) * jac))
        rows[name] = {"lhs": lhs, "rhs": rhs, "rel_discrepancy": abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)}
    return rows


def energy_bound_check(f: BranchedCoverSpec, image_region, preimage_region, order: int) -> dict:
    """The energy int_E H^n dy and its bound d^{n/2-1} K_I K_O |f^{-1} E|, with the slack (bound - energy).

    H takes one batch ``h_function`` call over all quadrature nodes.
    """
    n = f.n
    pts, w = region_quadrature(image_region, order)
    lhs = float(w @ h_function(f, pts) ** n)
    rhs = f.degree ** (n / 2.0 - 1.0) * f.K_I * f.K_O * preimage_region.volume()
    return {"energy": lhs, "bound": rhs, "slack": rhs - lhs}


# ---------------------------------------------------------------------------
# metric balls in the image of the multi-valued inverse


# the relative slack on the squared certified reach within which rows are lifted
REACH_SLACK = 1e-6


def rows_in_ball(f: BranchedCoverSpec, y0: np.ndarray, Z: np.ndarray, r: float, Y) -> tuple[np.ndarray, np.ndarray]:
    """The rows of points Y (P, n) whose fibers lie in the metric ball B(Z, r), Z (d, n) the expanded
    fiber over y0, and those fibers (m, d, n), gathered plane by plane for a Jacobian of contiguous planes.

    Every row is checked against f's image (``check_image``), so the test
    fails closed on any row, but only the rows within the certified reach of
    y0 (``covers.ball_reach``) can lie in the ball, and only they are lifted,
    in one ``minv_batch`` call.  A relative slack of ``REACH_SLACK`` on the
    squared reach absorbs rounding in the bounds and in fibers computed to
    within about 1e-7 r, so the lifted rows hold every row the ball test
    accepts.
    """
    Y = check_image(f, Y)
    reach_sq = ball_reach(f, Z, r) ** 2 * (1.0 + REACH_SLACK)
    near = np.flatnonzero(sum((Y[:, c] - y0[c]) ** 2 for c in range(f.n)) < reach_sq)
    fibers = minv_batch(f, Y.take(near, axis=0))
    inside = kernels.dist_sq_one_to_many(Z, fibers) < r * r
    return near[inside], fibers.T.compress(inside, axis=-1).T


# ---------------------------------------------------------------------------
# Ahlfors regularity sampling


UNIT_BALL_VOLUME = {1: 2.0, 2: float(np.pi), 3: 4.0 * np.pi / 3.0}

# the half-width of the sampling box in units of the certified reach: the reach
# square, which holds every point whose fiber lies in the ball, is 1 / BOX_FACTOR^2,
# 30.5%, of the box, and only the draws that land in it are made. The factor keeps
# the box, and so the law of the estimate, of a sampler that draws the whole box;
# a larger box widens the confidence interval
BOX_FACTOR = 1.81


@dataclass
class OmegaFSample:
    center: dict
    radius: float
    measure: float
    ci_halfwidth: float
    ratio: float
    ratio_ci: float
    in_ball: int  # the draws whose fibers lie in the ball

    def to_json(self) -> dict:
        return asdict(self)


def ahlfors_sampler(
    f: BranchedCoverSpec,
    centers: Sequence[np.ndarray],
    radii: Sequence[float],
    n_samples: int,
    seed: int = 0,
) -> list[OmegaFSample]:
    """Monte Carlo estimates of the Hausdorff measure of metric balls in the
    image of the multi-valued inverse, via the area formula, compared with
    the upper-regularity constant vol(B^n) d^{n/2} K_I K_O r^n.

    The ball of radius r around minv(y0) is estimated from ``n_samples``
    uniform draws on a box around y0, of half-width ``BOX_FACTOR`` times the
    certified reach (``covers.ball_reach``, with the slack of
    ``rows_in_ball``).  Every point whose fiber lies in the ball lies in the
    reach square [y0 - reach, y0 + reach]^2, so no box truncates a ball, and
    the reach is finite at branch values.  Only the draws in the reach
    square are made: their number is Binomial(``n_samples``, 1 /
    BOX_FACTOR^2), given which they are uniform on the square, so the
    estimate, box volume times the mean density over all ``n_samples``
    draws, has the law of one from the whole box.  Each ball's stream draws
    that number with ``Generator.binomial``, then ``Generator.random((m,
    2))`` scaled column by column in place, col * (hi - lo) + lo.
    ``rows_in_ball`` finds the draws in the ball, and the metric Jacobian
    reads their fibers; the other draws have density 0.  A ball with no draw
    in it raises NumericalError, and a cover that is not planar CoverError.
    """
    n = f.n
    if n != 2:
        raise CoverError(f"the Ahlfors sampler needs a planar cover; {f.name} has n = {n}")
    const = UNIT_BALL_VOLUME[n] * f.degree ** (n / 2.0) * f.K_I * f.K_O
    out: list[OmegaFSample] = []
    for ic, y0 in enumerate(centers):
        y0 = np.asarray(y0, dtype=np.float64)
        z = minv(f, y0)
        zC = z.expand()
        for ir, r in enumerate(radii):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 11, ic, ir]))
            reach = float(np.sqrt(ball_reach(f, zC, r) ** 2 * (1.0 + REACH_SLACK)))
            lo, hi = y0 - reach, y0 + reach
            span = hi - lo
            ys = rng.random((rng.binomial(n_samples, 1.0 / BOX_FACTOR**2), 2))
            for c in range(2):
                col = ys[:, c]
                col *= span[c]
                col += lo[c]
            rows, fibers = rows_in_ball(f, y0, zC, r, ys)
            if not len(rows):
                raise NumericalError(f"no draw of {n_samples} falls in the ball of radius {r} around {y0.tolist()}")
            vals = metric_jacobian_values(f, fibers)
            mean = float(vals.sum()) / n_samples
            # the sample variance over all n_samples draws, the n_samples - len(vals) outside the ball at 0
            var = (float(((vals - mean) ** 2).sum()) + (n_samples - len(vals)) * mean**2) / (n_samples - 1)
            vol_box = (2.0 * BOX_FACTOR * reach) ** 2
            est = vol_box * mean
            sd = vol_box * float(np.sqrt(var / n_samples))
            denom = const * r**n
            out.append(
                OmegaFSample(
                    center=z.to_json(),
                    radius=float(r),
                    measure=est,
                    ci_halfwidth=3.0 * sd,
                    ratio=est / denom,
                    ratio_ci=3.0 * sd / denom,
                    in_ball=len(rows),
                )
            )
    return out


# ---------------------------------------------------------------------------
# preimage measure comparison


def preimage_measure_check(
    f: BranchedCoverSpec,
    center_y: np.ndarray,
    radius: float,
    domain_region,
    image_region,
    n_samples: int,
    seed: int = 0,
) -> dict:
    """Monte Carlo comparison of |(minv o f)^{-1} E| against the Hausdorff
    measure of the metric ball E = B(minv(center_y), radius) in the image of
    the multi-valued inverse.

    The Hausdorff side is computed through the area formula (density =
    metric Jacobian of the inverse).  Both sides find their samples in the
    ball with ``rows_in_ball``, which checks every sample against f's image
    and lifts only those within the certified reach of ``center_y``.
    Returns both estimates, their standard deviations and the ratio.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    y0 = np.asarray(center_y, dtype=np.float64)
    zC = minv(f, y0).expand()

    # LHS: Lebesgue measure of {x in domain : d_A(minv(f(x)), z) < r}
    xs = check_points(f, domain_region.sample(rng, n_samples))
    hits = len(rows_in_ball(f, y0, zC, radius, f.evaluate(xs))[0])
    if not hits:
        raise NumericalError(f"no domain sample of {n_samples} falls in the ball of radius {radius}")
    vol = domain_region.volume()
    p_hat = hits / n_samples
    lhs = vol * p_hat
    lhs_sd = vol * float(np.sqrt(max(p_hat * (1 - p_hat), 0.0) / n_samples))

    # RHS: integral of the indicator times the metric Jacobian over the image
    rows, fibers = rows_in_ball(f, y0, zC, radius, image_region.sample(rng, n_samples))
    if not len(rows):
        raise NumericalError(f"no image sample of {n_samples} falls in the ball of radius {radius}")
    vals = np.zeros(n_samples)
    vals[rows] = metric_jacobian_values(f, fibers)
    rhs = image_region.volume() * float(vals.mean())
    rhs_sd = image_region.volume() * float(vals.std(ddof=1) / np.sqrt(n_samples))

    ratio = lhs / rhs if rhs > 0 else np.inf
    rel_sd = (
        abs(ratio) * np.sqrt((lhs_sd / lhs) ** 2 + (rhs_sd / rhs) ** 2)
        if lhs > 0 and rhs > 0
        else np.inf
    )
    return {
        "lhs_measure": lhs,
        "lhs_sd": lhs_sd,
        "rhs_measure": rhs,
        "rhs_sd": rhs_sd,
        "ratio": ratio,
        "ratio_sd": rel_sd,
    }


# ---------------------------------------------------------------------------
# metric quasiconformality at a point


def metric_qc_check(
    f: BranchedCoverSpec,
    y0: np.ndarray,
    radii: Sequence[float],
    n_boundary: int = 512,
) -> dict:
    """Compare the finite-radius distortion of the multi-valued inverse with
    the fiberwise distortion of the normal neighborhoods U(x, r).

    The circle of radius r around y0 is sampled at ``n_boundary`` half-step
    angles and lifted in one ``minv_batch`` call, and both sides read those
    fibers.  Their distances to minv(y0) bound the distortion of minv f.
    Each of their points belongs to the nearest location x of minv(y0), so
    the points of x trace the boundary of U(x, r), and the largest and
    smallest of their distances to x are L*(x) and l*(x).  Fails closed with
    CoverError for a cover that is not planar, for a circle sample that does
    not give some x exactly its local index of points, and for a radius with
    2 L* above the gap between fiber locations: the neighborhoods may merge.
    """
    if f.n != 2:
        raise CoverError(f"the metric-qc check needs a planar cover; {f.name} has n = {f.n}")
    y0 = np.asarray(y0, dtype=np.float64)
    z0 = minv(f, y0)
    z0e = z0.expand()
    fiber = z0.locations
    i, j = np.triu_indices(len(fiber), 1)
    gap = float(np.min(np.linalg.norm(fiber[i] - fiber[j], axis=1), initial=np.inf))

    def dist_to_z0(X):
        """Distances from the fibers X (m, d, n) to z0."""
        X = sorted_tuples(X)
        return np.sqrt(kernels.dist_sq_pairs(X, np.broadcast_to(z0e, X.shape)))

    rows = []
    for r in radii:
        phis = 2 * np.pi * (np.arange(n_boundary) + 0.5) / n_boundary
        ring = y0 + r * np.stack([np.cos(phis), np.sin(phis)], axis=1)
        held = minv_batch(f, ring)
        dists = dist_to_z0(held)
        # interior sampling for the sup
        unit = np.stack([np.cos(phis[::8]), np.sin(phis[::8])], axis=1)
        interior = np.concatenate([y0 + u * r * unit for u in (0.25, 0.5, 0.75)])
        sup_int = float(np.max(dist_to_z0(minv_batch(f, interior))))
        L_minv = max(float(dists.max()), sup_int)
        l_minv = float(dists.min())
        lhs = (L_minv / l_minv) ** 2

        radial = np.linalg.norm(held[:, :, None, :] - fiber, axis=-1)  # (m, d, locations)
        owner = np.argmin(radial, axis=2)
        counts = (owner[:, :, None] == np.arange(len(fiber))).sum(axis=1)
        if np.any(counts != z0.weights):
            raise CoverError(f"radius {r} too large: a circle point has the wrong number of preimages near a fiber point")
        own = radial.min(axis=2)
        rhs = 0.0
        for x in range(len(fiber)):
            mine = own[owner == x]
            Lstar = float(mine.max())
            lstar = float(mine.min())
            if 2 * Lstar > gap:
                raise CoverError(f"radius {r} too large: fiber neighborhoods may merge")
            rhs += (Lstar / lstar) ** 2
        rows.append({"radius": float(r), "H_minv_sq": lhs, "sum_H_star_sq": rhs, "slack": rhs - lhs})
    return {"rows": rows}
