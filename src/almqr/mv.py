"""Calculus of multi-valued maps into the unordered-tuple space.

A multi-valued map answers in batches: points (P, m) go to tuples
(P, d, n) in ``almgren.sorted_tuples`` form, and ``F(x)`` is the batch of
one as an AlmgrenPoint.  Differentials are per-branch linear maps with one
batch-first route, ``branches(F, X)``: exact where the map knows them
(inverse function theorem for inverses of covers, stored matrices for
synthetic affine maps), else matched central differences, all (2m+1) P
rows in one evaluation, matched to their centers by
``covers.match_fibers``.  ``differential`` is its batch of one.
Pull-backs of forms are batch-first too: ``pullback`` and
``MultiValuedPair.pullback`` price all P points at once through
``forms.pullback_coeffs``, and a pulled-back row equals its batch of one
bit for bit.  The frame norm |Df|^2 = sum_j ||L_j||^2 is the quantity used
throughout the verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Optional

import numpy as np

from .almgren import AlmgrenPoint, barycenters, distances_to_diagonal, points_of, sorted_tuples
from .covers import (
    BranchedCoverSpec,
    NumericalError,
    branch_differentials_batch,
    branch_sums,
    det,
    match_fibers,
    minv_batch,
    op_norm,
    op_norm_sq,
)
from .forms import KCovector, KForm, exterior_derivative, pullback_coeffs
from .util import components


class PullbackError(ValueError):
    """Form/map mismatch: e.g. a non-invariant form against an undecomposed map."""


# ---------------------------------------------------------------------------
# multi-valued maps


@dataclass
class MultiValuedMap:
    """A map from an open region of R^m into the space of unordered d-tuples.

    ``evaluate`` is batch-first: points (P, m) go to tuples (P, d, n) in
    ``sorted_tuples`` form, row p equal to ``F(X[p]).expand()`` bit for bit;
    ``F(x)``, for one point (m,), is its batch of one as an AlmgrenPoint.
    ``exact_branches``, when known, is batch-first too: points (P, m) go to
    branch values (P, d, n) and branch differentials (P, d, n, m).
    """

    domain: object
    m: int
    n: int
    d: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    provenance: str = "synthetic-lipschitz"
    exact_branches: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None
    lipschitz_bound: Optional[float] = None
    cover: Optional[BranchedCoverSpec] = None
    info: dict = field(default_factory=dict)

    def __call__(self, x) -> AlmgrenPoint:
        return points_of(self.evaluate(np.asarray(x, dtype=np.float64).reshape(1, self.m)))[0]


def from_cover(f: BranchedCoverSpec, domain) -> MultiValuedMap:
    """The multi-valued inverse of a catalog cover as a map on image coordinates.

    Branches come from ``covers.branch_differentials_batch``, which fails
    closed outside the image and at singular or non-finite differentials.
    """
    return MultiValuedMap(
        domain=domain,
        m=f.n,
        n=f.n,
        d=f.degree,
        evaluate=lambda Y: sorted_tuples(minv_batch(f, Y)),
        provenance="inverse-of-cover",
        exact_branches=lambda Y: branch_differentials_batch(f, Y),
        cover=f,
    )


def from_affine_branches(branches: list[tuple[np.ndarray, np.ndarray]], domain, m: int) -> MultiValuedMap:
    """[[A_1 x + b_1, ..., A_d x + b_d]] with exact constant branch differentials."""
    As = [np.asarray(A, dtype=np.float64) for A, _ in branches]
    bs = [np.asarray(b, dtype=np.float64) for _, b in branches]
    n = As[0].shape[0]
    if any(A.shape != (n, m) for A in As) or any(b.shape != (n,) for b in bs):
        raise ValueError("inconsistent branch shapes")
    L = np.stack(As)
    lip = float(np.sqrt(sum(op_norm(A) ** 2 for A in As)))

    def values(X: np.ndarray) -> np.ndarray:
        # a stack of matrix-vector products: row p is A @ X[p] + b bit for bit, whatever the batch
        X = np.asarray(X, dtype=np.float64).reshape(-1, m, 1)
        return np.stack([(A @ X)[:, :, 0] + b for A, b in zip(As, bs)], axis=1)

    def branches_fn(X: np.ndarray):
        vals = values(X)
        return vals, np.broadcast_to(L, (len(vals),) + L.shape).copy()

    return MultiValuedMap(
        domain=domain,
        m=m,
        n=n,
        d=len(As),
        evaluate=lambda X: sorted_tuples(values(X)),
        provenance="synthetic-lipschitz",
        exact_branches=branches_fn,
        lipschitz_bound=lip,
    )


@dataclass
class MVDifferential:
    """Branch values and branch linear maps at one point."""

    values: np.ndarray  # (d, n)
    L: np.ndarray  # (d, n, m)
    on_singular_set: bool = False

    @property
    def frame_norm(self) -> float:
        """|Df| = sqrt(sum of squared branch operator norms)."""
        return float(np.sqrt(sum(op_norm(Lj) ** 2 for Lj in self.L)))


def branches(F: MultiValuedMap, X, h: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch values (P, d, n), differentials (P, d, n, m) and on-singular-set flags (P,) at the rows of X (P, m).

    Exact maps answer through ``F.exact_branches``.  The others take matched
    central differences: the (2m+1) P rows x, x + h e_i, x - h e_i go to
    ``F.evaluate`` in one call, and ``covers.match_fibers`` matches each
    shifted fiber to its center.  Where branches coincide (within
    1e-8 (1 + max|value|)), their differentials are averaged over the
    coincident group (differentiability condition (ii)) and the row is flagged.
    """
    X = np.asarray(X, dtype=np.float64).reshape(-1, F.m)
    if F.exact_branches is not None:
        values, L = F.exact_branches(X)
        # C order whatever the cover's layout, so the callers' reshapes are views
        values = np.ascontiguousarray(values, dtype=np.float64)
        L = np.array(L, dtype=np.float64, order="C")
    else:
        P, m = X.shape
        E = h * np.eye(m)
        T = F.evaluate(np.concatenate([X, (X[:, None] + E).reshape(-1, m), (X[:, None] - E).reshape(-1, m)]))
        values = T[:P]
        centers = np.repeat(values, m, axis=0)
        plus, minus = T[P : P * (m + 1)], T[P * (m + 1) :]
        plus = np.take_along_axis(plus, match_fibers(centers, plus)[:, :, None], axis=1)
        minus = np.take_along_axis(minus, match_fibers(centers, minus)[:, :, None], axis=1)
        # row p * m + i holds the i-th partial derivatives of point p
        L = np.moveaxis(((plus - minus) / (2.0 * h)).reshape(P, m, *values.shape[1:]), 1, 3)
    tol = 1e-8 * (1.0 + np.max(np.abs(values), axis=(1, 2)))
    gaps = np.linalg.norm(values[:, :, None, :] - values[:, None, :, :], axis=-1)
    close = gaps <= tol[:, None, None]
    # rows where two distinct branches coincide (every branch is close to itself)
    on_sing = close.sum(axis=(1, 2)) > values.shape[1]
    for p in np.flatnonzero(on_sing):
        labels = components(close[p])
        for g in np.unique(labels):
            grp = labels == g
            L[p, grp] = L[p, grp].mean(axis=0)
    return values, L, on_sing


def differential(F: MultiValuedMap, x, h: float = 1e-5) -> MVDifferential:
    """Branch values and differentials at one point x (m,): the batch of one of ``branches``."""
    values, L, on_sing = branches(F, np.asarray(x, dtype=np.float64).reshape(1, F.m), h=h)
    return MVDifferential(values[0], L[0], bool(on_sing[0]))


# ---------------------------------------------------------------------------
# pull-backs


@dataclass
class PullbackSample:
    """Pulled-back rows (P, C(m, k)) over ``forms.basis(m, k)``, one per point, and the largest relabeling gap."""

    rows: np.ndarray
    relabeling_deviation: float = 0.0


def _pullback(
    omega: KForm,
    maps: list[MultiValuedMap],
    X,
    h: float,
    verify_relabelings: int,
    rng: Optional[np.random.Generator],
) -> PullbackSample:
    """omega pulled back at the rows of X (P, m) by the map whose branches are those of ``maps`` in turn.

    A point (m,) is the batch of one, and every row equals its batch of one
    bit for bit.  The computation picks the branch labeling ``branches``
    gives; with ``verify_relabelings`` > 0 it recomputes under random
    relabelings, each row permuting the branches of every map among
    themselves by a permutation of its own, and raises NumericalError when a
    row moves by more than rounding.
    """
    m = maps[0].m
    X = np.asarray(X, dtype=np.float64).reshape(-1, m)
    parts = [branches(f, X, h=h) for f in maps]
    values = np.concatenate([v for v, _, _ in parts], axis=1)
    L = np.concatenate([Lf for _, Lf, _ in parts], axis=1)
    P, d, n = values.shape

    def price(values: np.ndarray, L: np.ndarray) -> np.ndarray:
        return pullback_coeffs(omega.coeffs(values.reshape(P, d * n)), L.reshape(P, d * n, m), omega.degree)

    rows = price(values, L)
    dev = 0.0
    if verify_relabelings > 0:
        rng = rng or np.random.default_rng(0)
        starts = np.cumsum([0] + [f.d for f in maps[:-1]])
        tol = 1e-10 * (1.0 + np.max(np.abs(rows), axis=1, initial=0.0))
        for _ in range(verify_relabelings):
            perm = np.concatenate(
                [s + rng.permuted(np.tile(np.arange(f.d), (P, 1)), axis=1) for s, f in zip(starts, maps)], axis=1
            )
            moved = price(
                np.take_along_axis(values, perm[:, :, None], axis=1),
                np.take_along_axis(L, perm[:, :, None, None], axis=1),
            )
            gap = np.max(np.abs(moved - rows), axis=1, initial=0.0)
            dev = max(dev, float(np.max(gap, initial=0.0)))
            if np.any(gap > tol):
                raise NumericalError(f"pullback not labeling-invariant (deviation {dev:.3e})")
    return PullbackSample(rows=rows, relabeling_deviation=dev)


def pullback(
    F: MultiValuedMap,
    omega: KForm,
    X,
    h: float = 1e-5,
    verify_relabelings: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> PullbackSample:
    """(F*omega)_x = omega_{F(x)} o D_x F at the rows x of X (P, m), well-defined by invariance.

    A point (m,) is the batch of one.  The computation picks an arbitrary
    branch labeling; with ``verify_relabelings`` > 0 it recomputes under
    random relabelings and records the maximum deviation, which must be at
    rounding level for invariant forms (NumericalError otherwise).
    """
    if omega.invariance != "full":
        raise PullbackError(
            "only fully invariant forms can be pulled back by an undecomposed map; "
            "split-invariant forms need an explicit pair"
        )
    if omega.n != F.n or omega.d != F.d:
        raise PullbackError("form and map have incompatible shapes")
    return _pullback(omega, [F], X, h, verify_relabelings, rng)


@dataclass
class MultiValuedPair:
    """An explicitly decomposed map [[f0, f1]], supporting split-invariant pullbacks."""

    f0: MultiValuedMap
    f1: MultiValuedMap

    def __post_init__(self):
        if self.f0.m != self.f1.m or self.f0.n != self.f1.n:
            raise ValueError("pair components live on different spaces")

    @property
    def d(self) -> int:
        return self.f0.d + self.f1.d

    def pullback(
        self,
        omega: KForm,
        X,
        h: float = 1e-5,
        verify_relabelings: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> PullbackSample:
        """Pull back a split-invariant (or fully invariant) form by the pair at the rows of X; relabelings stay within each component."""
        d0, d1 = self.f0.d, self.f1.d
        if omega.invariance not in ("full", ("split", d0, d1)):
            raise PullbackError(f"form invariance {omega.invariance!r} incompatible with pair ({d0},{d1})")
        return _pullback(omega, [self.f0, self.f1], X, h, verify_relabelings, rng)


def hodge_star_top(alpha: KCovector) -> float:
    """Coefficient of a top-degree covector against the volume covector."""
    if alpha.degree != alpha.dim:
        raise ValueError(f"hodge star implemented for top degree only (k={alpha.degree}, m={alpha.dim})")
    return float(alpha.row[0])


def generalized_inverse(f: BranchedCoverSpec, Y) -> np.ndarray:
    """Index-weighted sum of the fiber locations; equals d times the fiber barycenter.

    Points (P, n) give sums (P, n) from one ``minv_batch`` call; a single
    point (n,) gives (n,).
    """
    Y = np.asarray(Y, dtype=np.float64)
    return minv_batch(f, Y).sum(axis=1).reshape(Y.shape)


# ---------------------------------------------------------------------------
# the quasiregular-curve ratio check


def qr_curve_check(
    f: BranchedCoverSpec,
    region,
    n_samples: int,
    seed: int = 0,
    margin_frac: float = 1e-3,
) -> dict:
    """Sampled ratio |D minv f|^n / (d^{n/2-1} K_I * star(minv f)* omega_n).

    The natural n-form has unit comass, so the bound states ratio <= 1.
    Samples within ``margin_frac`` of the branch values (relative to the
    region diameter) are excluded and counted.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    ys = region.sample(rng, n_samples)
    margin = margin_frac * region.diameter()
    n, d = f.n, f.degree
    const = d ** (n / 2.0 - 1.0) * f.K_I

    keep = f.branch_value_distance(ys) > margin
    ys_used = ys[keep]
    excluded = int((~keep).sum())

    _, L = branch_differentials_batch(f, ys_used)
    ratios = branch_sums(op_norm_sq(L)) ** (n / 2.0) / (const * branch_sums(det(L)))

    spread = float(ratios.max() - ratios.min())
    if spread < 64 * np.finfo(float).eps * max(1.0, abs(float(ratios.max()))):
        pad = max(1e-12, abs(float(ratios[0])) * 1e-9)
        hist, edges = np.histogram(ratios, bins=32, range=(float(ratios[0]) - pad, float(ratios[0]) + pad))
    else:
        hist, edges = np.histogram(ratios, bins=32)
    return {
        "n_used": int(len(ys_used)),
        "excluded": excluded,
        "max_ratio": float(ratios.max()),
        "min_ratio": float(ratios.min()),
        "mean_ratio": float(ratios.mean()),
        "constant": const,
        "histogram": {"counts": hist.tolist(), "edges": edges.tolist()},
    }


# ---------------------------------------------------------------------------
# weak Stokes verification


@dataclass
class BumpTestForm:
    """Compactly supported polynomial bump (degree-0 test form) on a box.

    phi = amp * prod_i (1 - u_i^2)^q with u the box-normalized coordinates;
    C^{q-1} on R^m, smooth inside the box, vanishing to order q on the
    boundary.  The gradient is analytic.  Both take one point (m,) or the
    rows of an array (P, m).
    """

    lo: np.ndarray
    hi: np.ndarray
    q: int = 3
    amp: float = 1.0

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        box_ok = self.lo.ndim == 1 and self.lo.shape == self.hi.shape and np.all(self.lo < self.hi)
        if not (box_ok and np.isfinite(self.hi - self.lo).all() and self.q >= 1 and np.isfinite(self.amp)):
            raise ValueError("a bump needs finite corners lo < hi, q >= 1 and a finite amp")

    def _u(self, x: np.ndarray) -> np.ndarray:
        return (2.0 * x - (self.lo + self.hi)) / (self.hi - self.lo)

    def value(self, x: np.ndarray):
        u = self._u(np.asarray(x, dtype=np.float64))
        inside = np.all(np.abs(u) < 1.0, axis=-1)
        out = np.where(inside, self.amp * np.prod((1.0 - u * u) ** self.q, axis=-1), 0.0)
        return out if out.ndim else float(out)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        u = self._u(np.asarray(x, dtype=np.float64))
        inside = np.all(np.abs(u) < 1.0, axis=-1, keepdims=True)
        total = self.amp * np.prod((1.0 - u * u) ** self.q, axis=-1, keepdims=True)
        dui = 2.0 / (self.hi - self.lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = total / (1.0 - u**2) * (-2.0 * self.q * u) * dui
        return np.where(inside, grad, 0.0)


def weak_stokes_check(
    F: MultiValuedMap,
    omega: KForm,
    alpha: BumpTestForm,
    orders: tuple[int, ...],
    fd_step: float = 1e-5,
) -> dict:
    """Quadrature comparison of int dalpha ^ F*omega with (-1)^{k+1} int alpha ^ F*(d omega).

    Implemented for scalar (degree-0) test forms, i.e. forms omega of degree
    m-1 on maps from R^m; top-degree closed forms degenerate to the 0 = 0
    identity and are reported as such.  Tensor Gauss-Legendre rules of the
    given orders are used on the support box of alpha; each level evaluates
    the branches, omega, d omega and the bump at all its nodes in one batch.

    The discrepancy is reported per level, relative to the larger side, but
    never to less than sqrt(eps) times the integrand mass S: the weighted
    sum of the sizes of the terms both integrands add up, |dalpha| |omega|
    k! |DF|^k and |alpha| |d omega| (k+1)! |DF|^(k+1) (coefficient 1-norms,
    largest entry of the stacked branch differentials).  Where both sides
    cancel to rounding noise (a closed or vanishing pull-back) the level is
    flagged ``degenerate`` instead of failing on noise / noise.
    """
    from .regions import Box, box_quadrature

    m = F.m
    k = omega.degree
    if k not in (m - 1, m):
        raise PullbackError("scalar test forms require deg(omega) in {m-1, m}")
    box = Box(alpha.lo, alpha.hi)
    domega = exterior_derivative(omega, fd_step=fd_step)
    # integration by parts: int dalpha ^ beta = (-1)^(m-k) int alpha ^ dbeta
    sign = (-1.0) ** (m - k)
    floor = float(np.sqrt(np.finfo(np.float64).eps))

    levels = []
    for order in orders:
        pts, wts = box_quadrature(box, order)
        values, L, _ = branches(F, pts, h=fd_step)
        if k == m:
            # both integrands vanish identically by degree
            I1 = I2 = S = 0.0
        else:
            flat = values.reshape(len(pts), -1)
            T = L.reshape(len(pts), F.d * F.n, m)
            A, dA = omega.coeffs(flat), domega.coeffs(flat)
            grad, val = alpha.gradient(pts), alpha.value(pts)
            # F*omega over the (m-1)-tuples; the one leaving out j sits in column m-1-j
            cov = pullback_coeffs(A, T, k)
            dcov = pullback_coeffs(dA, T, k + 1)[:, 0]
            # dalpha ^ F*omega and alpha F*(d omega), on the volume covector
            f1 = ((-1.0) ** np.arange(m) * grad * cov[:, ::-1]).sum(axis=1)
            f2 = val * dcov
            I1, I2 = float(wts @ f1), float(wts @ f2)
            # the size of the terms summed before they cancel: a k x k minor of T
            # is at most k! max|T|^k
            t = np.abs(T).max(axis=(1, 2))
            size1 = np.abs(grad).sum(axis=1) * np.abs(A).sum(axis=1) * factorial(k) * t**k
            size2 = np.abs(val) * np.abs(dA).sum(axis=1) * factorial(k + 1) * t ** (k + 1)
            S = float(wts @ (size1 + size2))
            if not np.isfinite(S):
                raise NumericalError(f"weak Stokes integrands not finite at order {order}")
        disc = abs(I1 - sign * I2)
        side = max(abs(I1), abs(I2))
        scale = max(side, floor * S, 1e-30)
        levels.append(
            {
                "order": order,
                "lhs": I1,
                "rhs": I2,
                "abs_discrepancy": disc,
                "rel_discrepancy": disc / scale,
                "S": S,
                "degenerate": side < floor * S,
            }
        )
    finest = levels[-1]
    return {
        "degree": k,
        "levels": levels,
        "abs_discrepancy": finest["abs_discrepancy"],
        "rel_discrepancy": finest["rel_discrepancy"],
        "S": finest["S"],
        "degenerate": finest["degenerate"],
    }


# ---------------------------------------------------------------------------
# interpolation toward the diagonal

# (row, cloud point) pairs priced together by interpolate_feps; bounds their memory
CLOUD_BLOCK = 1 << 18


def interpolate_feps(
    F: MultiValuedMap,
    eps: float,
    L: Optional[float] = None,
    cloud_size: int = 10_000,
    seed: int = 0,
) -> tuple[MultiValuedMap, dict]:
    """Interpolate F toward the diagonal map d[[b(F)]] near its coincidence set.

    The blending weight is 1 where the tuple lies within eps of the diagonal
    (exact membership test) and decays linearly with the distance to a
    quasi-random sample cloud of that sublevel set; the sampled distance
    over-estimates the true one, so the interpolation region never grows.
    Returns the interpolated map and an info dict.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if L is None:
        L = F.lipschitz_bound
    if L is None:
        raise ValueError("need a Lipschitz bound for the interpolation radius bookkeeping")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 271]))
    pts = F.domain.sample(rng, cloud_size)
    member = distances_to_diagonal(F.evaluate(pts)) < eps
    cloud = pts[member]
    all_member = bool(member.all())
    info = {
        "member_fraction": float(member.mean()),
        "covers_domain": all_member,
        "cloud_size": int(len(cloud)),
        "eps": eps,
        "lipschitz_bound": float(L),
    }

    # the cloud sorted by its first coordinate: a block of rows only prices
    # the cloud points within reach of it along that axis
    cloud = cloud[np.argsort(cloud[:, 0], kind="stable")]
    reach = 1.01 * eps  # a point within eps differs by less in each coordinate; 1% absorbs rounding

    def nearest(X: np.ndarray) -> np.ndarray:
        """Distance from each row of X (P, m) to the nearest cloud point where it is below eps; at least eps elsewhere."""
        out = np.full(len(X), np.inf)
        rows = np.argsort(X[:, 0], kind="stable")
        step = max(1, CLOUD_BLOCK // len(cloud))
        for a in range(0, len(X), step):
            block = X[rows[a : a + step]]
            lo, hi = np.searchsorted(cloud[:, 0], [block[0, 0] - reach, block[-1, 0] + reach])
            if hi > lo:
                diff = cloud[None, lo:hi, :] - block[:, None, :]
                out[rows[a : a + step]] = np.sqrt(np.einsum("bcm,bcm->bc", diff, diff).min(axis=1))
        return out

    def ev(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64).reshape(-1, F.m)
        T = F.evaluate(X)
        # the blending weight: 1 on the sublevel set, else decaying with the cloud distance
        e = np.ones(len(X))
        off = ~(distances_to_diagonal(T) < eps)
        e[off] = np.maximum(0.0, 1.0 - nearest(X[off]) / eps) if len(cloud) else 0.0
        e = e[:, None, None]
        return sorted_tuples((1.0 - e) * T + e * barycenters(T)[:, None, :])

    G = MultiValuedMap(
        domain=F.domain,
        m=F.m,
        n=F.n,
        d=F.d,
        evaluate=ev,
        provenance="interpolated",
        lipschitz_bound=(3.0 + 2.0 * F.d) * L,
        info=info,
    )
    return G, info
