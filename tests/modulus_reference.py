"""The projected dual ascent that ``modulus.discrete_modulus`` replaced, kept as a reference.

Its iterates differ from the accelerated solver's, but both report a
certified interval [dual_value, value] around the same discrete optimum, so
their intervals must overlap.
"""

import numpy as np

from almqr.modulus import DensityField, Grid2D, ModulusResult, _rasterize


def discrete_modulus(
    family,
    region,
    grid: int = 256,
    n: float = 2.0,
    cell_weight=None,
    seg_values=None,
    max_iters: int = 4000,
    tol: float = 1e-9,
):
    """The old ascent: ``n * V`` formed per call, ``** 1.0`` at n = 2, and the old stopping rules.

    At n = 2 it takes projected gradient steps of one over the 40-step power
    estimate and stops when the dual rose by less than ``tol`` (relative) in
    50 iterations.  Other exponents take backtracking steps and stop, after
    100 iterations, on an improvement below ``tol``, so there ``tol = 0``
    runs all ``max_iters``.  ``converged`` means that its rule held, not that
    a gap was certified.
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

    def rho_of(lam: np.ndarray) -> np.ndarray:
        return (a_t(lam) / (n * V)) ** (1.0 / (n - 1.0))

    def dual(lam: np.ndarray) -> float:
        s = a_t(lam) / (n * V)
        return float(lam.sum() - (n - 1.0) * (V * s**q).sum())

    # Lipschitz estimate of the dual gradient at n = 2 via power iteration
    lam = np.full(M, 1e-3)
    converged = False
    if n == 2.0:
        v = np.ones(M)
        for _ in range(40):
            w = a(a_t(v) / (2.0 * V))
            nv = np.linalg.norm(w)
            if nv == 0:
                break
            v = w / nv
        Lg = max(nv, 1e-30)
        step = 1.0 / Lg
        it = 0
        prev = -np.inf
        for it in range(1, max_iters + 1):
            grad = 1.0 - a(rho_of(lam))
            lam = np.maximum(0.0, lam + step * grad)
            if it % 50 == 0:
                cur = dual(lam)
                if cur - prev < tol * max(1.0, abs(cur)):
                    converged = True
                    break
                prev = cur
    else:
        # backtracking projected gradient for general exponents
        step = 1.0
        cur = dual(lam)
        it = 0
        for it in range(1, max_iters + 1):
            grad = 1.0 - a(rho_of(lam))
            while step > 1e-18:
                trial = np.maximum(0.0, lam + step * grad)
                val = dual(trial)
                if val >= cur - 1e-14:
                    break
                step *= 0.5
            improved = val - cur
            lam, cur = trial, val
            step *= 1.3
            if 0 <= improved < tol * max(1.0, abs(cur)) and it > 100:
                converged = True
                break

    rho = rho_of(lam)
    integrals = a(rho)
    mu = float(integrals.min())
    if mu <= 0:
        raise AssertionError("dual iterate left a curve with zero mass")
    rho_feasible = rho / mu
    primal = float((V * rho_feasible**n).sum())
    dval = dual(lam)
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
            values=rho_feasible,
            exponent=float(n),
            curve_integrals=integrals / mu,
        ),
    )
