"""Exterior algebra of k-forms on (R^n)^d with group symmetrization.

Elementary covectors dx_I are indexed by strictly increasing index tuples
over the flat coordinates of (R^n)^d (block j occupying positions
[j*n, (j+1)*n)).  An elementary covector evaluates as the determinant of the
selected components, so dx_1^dx_2 applied to (e_1, e_2) is 1 and the wedge
of elementary covectors is the signed merge of their index tuples.

Forms are array-backed and batch-first: the coefficient function of a
``KForm`` maps points (P, N) to an array (P, C(N, k)) over the lexicographic
basis ``combinations(range(N), k)``, and so does its analytic derivative.
Sums, wedges, traces, symmetrization, tensor products, the exterior
derivative and pull-backs act on all P points at once through index tables
that are built on first use.  ``KCovector``, one coefficient row over the
same basis, is the pointwise type: ``KForm.at`` returns one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import numpy as np

from .util import row_norms


def _sort_with_sign(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning the parity sign; 0 on repeats."""
    idx = tuple(idx)
    arr = list(idx)
    sign = 1
    # insertion sort, counting swaps; tuples here have length <= 4
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(arr)):
        if arr[i - 1] == arr[i]:
            return tuple(arr), 0
    return tuple(arr), sign


# ---------------------------------------------------------------------------
# the lexicographic basis and its index tables


@functools.lru_cache(maxsize=None)
def basis(N: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The increasing index tuples of length k over range(N), in lexicographic order."""
    return tuple(itertools.combinations(range(N), k))


@functools.lru_cache(maxsize=None)
def _position(N: int, k: int) -> dict[tuple[int, ...], int]:
    return {I: i for i, I in enumerate(basis(N, k))}


def _frozen(*arrays: np.ndarray):
    """Read-only arrays: the cached tables are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


@functools.lru_cache(maxsize=None)
def _basis_array(N: int, k: int) -> np.ndarray:
    return _frozen(np.array(basis(N, k), dtype=np.int64).reshape(-1, k))


@functools.lru_cache(maxsize=None)
def _wedge_table(N: int, k1: int, k2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c, sign) with dx_{I_a} ^ dx_{J_b} = sign dx_{K_c}, over the pairs that do not vanish."""
    pos = _position(N, k1 + k2)
    rows = []
    for a, I in enumerate(basis(N, k1)):
        for b, J in enumerate(basis(N, k2)):
            K, sign = _sort_with_sign(I + J)
            if sign:
                rows.append((a, b, pos[K], sign))
    a, b, c, sign = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return _frozen(a, b, c, sign.astype(np.float64))


@functools.lru_cache(maxsize=None)
def _signed_permutation(N: int, k: int, gather: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(cols, sign): pulling coefficients A back along v -> v[gather] puts sign * A in columns cols."""
    pos = _position(N, k)
    cols, signs = [], []
    for I in basis(N, k):
        J, sign = _sort_with_sign(tuple(gather[i] for i in I))
        cols.append(pos[J])
        signs.append(sign)
    return _frozen(np.array(cols, dtype=np.int64), np.array(signs, dtype=np.float64))


@functools.lru_cache(maxsize=None)
def _shift_columns(n_src: int, k: int, N: int, shift: int) -> np.ndarray:
    """The basis columns of R^N that dx_I on R^{n_src} lands in when its indices shift by ``shift``."""
    pos = _position(N, k)
    return _frozen(np.array([pos[tuple(i + shift for i in I)] for I in basis(n_src, k)], dtype=np.int64))


def wedge_rows(A: np.ndarray, B: np.ndarray, N: int, k1: int, k2: int) -> np.ndarray:
    """Pointwise wedge of coefficient rows (P, C(N,k1)) and (P, C(N,k2))."""
    a, b, c, sign = _wedge_table(N, k1, k2)
    out = np.zeros((len(A), comb(N, k1 + k2)))
    np.add.at(out, (slice(None), c), sign * A[:, a] * B[:, b])
    return out


def pullback_coeffs(A: np.ndarray, T: np.ndarray, k: int) -> np.ndarray:
    """Pull coefficient rows A (P, C(N,k)) back along linear maps T (P, N, m): (P, C(m,k)).

    k = 1 is a batched matrix product; for k >= 2 each coefficient is a sum
    of k x k minors of T over the basis columns where A is not zero, added
    column by column in basis order, so a row is its batch of one bit for bit.
    """
    P, N, m = T.shape
    if k == 0:
        return np.array(A, dtype=np.float64)
    if k == 1:
        return np.einsum("pi,pij->pj", A, T)
    used = np.flatnonzero(np.any(A != 0.0, axis=0))
    cols = _basis_array(m, k)
    if len(used) == 0 or len(cols) == 0:
        return np.zeros((P, len(cols)))
    rows = _basis_array(N, k)[used]
    M = T[:, rows[:, None, :, None], cols[None, :, None, :]]  # (P, used, C(m,k), k, k)
    minors = np.linalg.det(M)
    # not an einsum: with one output column, a one-row einsum takes a dot
    # product that rounds differently from the many-row reduction
    out = np.zeros((P, len(cols)))
    for u, col in enumerate(used):
        out += A[:, col, None] * minors[:, u]
    return out


# ---------------------------------------------------------------------------
# covectors


@dataclass(frozen=True)
class KCovector:
    """A k-covector on R^N: its read-only coefficient row over ``basis(dim, degree)``."""

    dim: int
    degree: int
    row: np.ndarray

    def __post_init__(self):
        # + 0.0 copies the row and makes every zero +0.0, whatever sign the coefficient
        # function gave it: hodge_star_top and the k = 1 comass frame read zeros as they are
        row = np.asarray(self.row, dtype=np.float64) + 0.0
        size = comb(self.dim, self.degree)
        if row.shape != (size,):
            raise ValueError(f"a {self.degree}-covector on R^{self.dim} has {size} coefficients, got shape {row.shape}")
        object.__setattr__(self, "row", _frozen(row))

    @classmethod
    def elementary(cls, dim: int, indices, c: float = 1.0) -> "KCovector":
        """c dx_I for a strictly increasing index tuple I over range(dim)."""
        I = tuple(indices)
        pos = _position(dim, len(I)).get(I)
        if pos is None:
            raise ValueError(f"index tuple {I} is not strictly increasing in range({dim})")
        row = np.zeros(comb(dim, len(I)))
        row[pos] = c
        return cls(dim, len(I), row)

    @functools.cached_property
    def terms(self) -> list[tuple[tuple[int, ...], float]]:
        """(I, c) over the nonzero coefficients, in basis order: the order every sum over terms adds in."""
        B = basis(self.dim, self.degree)
        return [(B[i], float(self.row[i])) for i in np.flatnonzero(self.row)]

    @functools.cached_property
    def term_columns(self) -> np.ndarray:
        """The index tuples I of ``terms`` as one read-only array (T, k)."""
        return _frozen(np.array([I for I, _ in self.terms], dtype=np.int64).reshape(-1, self.degree))

    def __call__(self, vectors: np.ndarray) -> float:
        """Evaluate on k row vectors, shape (k, N): the batch of one."""
        V = np.asarray(vectors, dtype=np.float64)
        if V.shape != (self.degree, self.dim):
            raise ValueError(f"expected {self.degree} vectors of length {self.dim}")
        return float(self.evaluate(V[None])[0])

    def evaluate(self, frames: np.ndarray) -> np.ndarray:
        """Evaluate on a stack of frames (S, k, N): one value per frame, (S,)."""
        V = np.asarray(frames, dtype=np.float64)
        if V.ndim != 3 or V.shape[1:] != (self.degree, self.dim):
            raise ValueError(f"expected frames of shape (S, {self.degree}, {self.dim}), got {V.shape}")
        if self.degree == 0:
            return np.full(len(V), self.row[0])
        # every term's k x k block in one stack (T, S, k, k): det factors each matrix on its
        # own, so a value does not depend on the stack; the terms add in ``terms`` order
        M = V[:, :, self.term_columns].transpose(2, 0, 1, 3)
        values = np.linalg.det(M) if self.degree > 1 else M[:, :, 0, 0]
        total = np.zeros(len(V))
        for (_, c), value in zip(self.terms, values):
            total += c * value
        return total

    def add(self, other: "KCovector", scale: float = 1.0) -> "KCovector":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("incompatible covectors")
        return KCovector(self.dim, self.degree, self.row + scale * other.row)

    def scaled(self, a: float) -> "KCovector":
        return KCovector(self.dim, self.degree, a * self.row)

    def wedge(self, other: "KCovector") -> "KCovector":
        if self.dim != other.dim:
            raise ValueError("mixed ambient dimensions")
        k = self.degree + other.degree
        if k > self.dim:
            raise ValueError("degree overflow")
        row = wedge_rows(self.row[None], other.row[None], self.dim, self.degree, other.degree)[0]
        return KCovector(self.dim, k, row)

    def pullback_linear(self, T: np.ndarray) -> "KCovector":
        """Pull back along a linear map R^m -> R^N given as an (N, m) matrix."""
        T = np.asarray(T, dtype=np.float64)
        return KCovector(T.shape[1], self.degree, pullback_coeffs(self.row[None], T[None], self.degree)[0])

    def l2(self) -> float:
        return float(np.sqrt(sum(c * c for _, c in self.terms)))


def cov_max_dev(a: KCovector, b: KCovector) -> float:
    """The largest coefficient gap between two covectors (0 when both vanish)."""
    return float(np.max(np.abs(a.row - b.row), initial=0.0))


def volume_covector(n: int) -> KCovector:
    return KCovector.elementary(n, range(n))


# ---------------------------------------------------------------------------
# group actions


class GroupAction:
    """A finite group of block permutations of (R^n)^d acting on flat coordinates.

    Each element is stored as a gather array g with (gamma v)[i] = v[g[i]].
    ``invariance`` is the tag ``symmetrize`` gives the forms it projects:
    "full" for the symmetric group, ("split", d0, d1) for the split one.
    """

    def __init__(self, n: int, d: int, gathers: list[np.ndarray], invariance: object):
        self.n = n
        self.d = d
        self.gathers = [np.asarray(g, dtype=np.int64) for g in gathers]
        self.invariance = invariance

    def __len__(self) -> int:
        return len(self.gathers)

    @staticmethod
    def _gather_from_block_perm(sigma: tuple[int, ...], n: int) -> np.ndarray:
        # (sigma x)_j = x_{sigma^-1(j)}; flat gather g[j*n + a] = sigma^-1(j)*n + a
        d = len(sigma)
        inv = [0] * d
        for i, s in enumerate(sigma):
            inv[s] = i
        g = np.empty(n * d, dtype=np.int64)
        for j in range(d):
            g[j * n : (j + 1) * n] = np.arange(inv[j] * n, inv[j] * n + n)
        return g

    @classmethod
    def full(cls, n: int, d: int) -> "GroupAction":
        """The full symmetric group permuting the d blocks."""
        if d > 7:
            raise ValueError("full symmetric group enumeration limited to d <= 7")
        gathers = [
            cls._gather_from_block_perm(sigma, n) for sigma in itertools.permutations(range(d))
        ]
        return cls(n, d, gathers, "full")

    @classmethod
    def split(cls, n: int, d0: int, d1: int) -> "GroupAction":
        """The product group permuting the first d0 and last d1 blocks separately."""
        if d0 + d1 > 8:
            raise ValueError("split group enumeration limited to d0 + d1 <= 8")
        gathers = []
        for s0 in itertools.permutations(range(d0)):
            for s1 in itertools.permutations(range(d1)):
                sigma = tuple(s0) + tuple(d0 + j for j in s1)
                gathers.append(cls._gather_from_block_perm(sigma, n))
        return cls(n, d0 + d1, gathers, ("split", d0, d1))


# ---------------------------------------------------------------------------
# forms

Coeffs = Callable[[np.ndarray], np.ndarray]


@dataclass
class KForm:
    """A k-form on (R^n)^d with batch-first coefficients.

    ``coeff_fn`` maps points (P, N) to coefficients (P, C(N, k)) over
    ``basis(N, k)``; ``analytic_derivative``, when known, maps them to the
    coefficients (P, C(N, k+1)) of d(form).  ``invariance`` is a bookkeeping
    tag ("full", ("split", d0, d1) or "none"); it is set by the
    constructors that guarantee it and checked by sampling in the test
    suite, not enforced pointwise.
    """

    degree: int
    n: int
    d: int
    coeff_fn: Coeffs
    analytic_derivative: Optional[Coeffs] = None
    invariance: object = "none"

    @property
    def dim(self) -> int:
        return self.n * self.d

    def coeffs(self, X: np.ndarray) -> np.ndarray:
        """Coefficients at the rows of X (P, N): an array (P, C(N, k))."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (P, {self.dim}), got {X.shape}")
        return self.coeff_fn(X)

    def at(self, x: np.ndarray) -> KCovector:
        """The covector at one point: the batch of one."""
        row = self.coeffs(np.asarray(x, dtype=np.float64).reshape(1, self.dim))[0]
        return KCovector(self.dim, self.degree, row)

    def __call__(self, x: np.ndarray, vectors: np.ndarray) -> float:
        return self.at(x)(vectors)

    @classmethod
    def constant(cls, cov: KCovector, n: int, d: int, invariance="none") -> "KForm":
        """The form with coefficient row ``cov.row`` at every point; its derivative is zero."""
        if cov.dim != n * d:
            raise ValueError("covector dimension mismatch")
        row, C_next = cov.row, comb(n * d, cov.degree + 1)
        return cls(
            degree=cov.degree,
            n=n,
            d=d,
            coeff_fn=lambda X: np.tile(row, (len(X), 1)),
            analytic_derivative=lambda X: np.zeros((len(X), C_next)),
            invariance=invariance,
        )

    @classmethod
    def zero(cls, degree: int, n: int, d: int) -> "KForm":
        return cls.constant(KCovector(n * d, degree, np.zeros(comb(n * d, degree))), n, d, invariance="full")

    def add(self, other: "KForm", scale: float = 1.0) -> "KForm":
        if (self.degree, self.n, self.d) != (other.degree, other.n, other.d):
            raise ValueError("incompatible forms")
        inv = self.invariance if self.invariance == other.invariance else "none"
        a, b = self.coeff_fn, other.coeff_fn
        deriv = None
        if self.analytic_derivative and other.analytic_derivative:
            da, db = self.analytic_derivative, other.analytic_derivative
            deriv = lambda X: da(X) + scale * db(X)
        return KForm(
            degree=self.degree,
            n=self.n,
            d=self.d,
            coeff_fn=lambda X: a(X) + scale * b(X),
            analytic_derivative=deriv,
            invariance=inv,
        )

    def scaled(self, a: float) -> "KForm":
        base = self.coeff_fn
        deriv = None
        if self.analytic_derivative:
            base_d = self.analytic_derivative
            deriv = lambda X: a * base_d(X)
        return KForm(
            degree=self.degree,
            n=self.n,
            d=self.d,
            coeff_fn=lambda X: a * base(X),
            analytic_derivative=deriv,
            invariance=self.invariance,
        )


def symmetrize(form: KForm, action: GroupAction) -> KForm:
    """Group-average projection onto invariant forms: average of the pullbacks."""
    if action.n != form.n or action.d != form.d:
        raise ValueError("action and form live on different spaces")
    N, k = form.dim, form.degree
    G = np.stack(action.gathers)

    def average(fn: Coeffs, degree: int) -> Coeffs:
        perms = [_signed_permutation(N, degree, tuple(g.tolist())) for g in action.gathers]
        C, m = comb(N, degree), len(perms)

        def avg(X: np.ndarray) -> np.ndarray:
            P = len(X)
            # every group element's point in one batch: (m * P, N)
            Y = fn(X[:, G].transpose(1, 0, 2).reshape(m * P, N)).reshape(m, P, C)
            acc = np.zeros((P, C))
            pulled = np.empty((P, C))
            for (cols, sign), Yg in zip(perms, Y):
                pulled[:, cols] = sign * Yg
                acc += (1.0 / m) * pulled
            return acc

        return avg

    deriv = None
    if form.analytic_derivative is not None:
        deriv = average(form.analytic_derivative, k + 1)
    return KForm(
        degree=k,
        n=form.n,
        d=form.d,
        coeff_fn=average(form.coeff_fn, k),
        analytic_derivative=deriv,
        invariance=action.invariance,
    )


def trace_form(alpha: KForm, d: int) -> KForm:
    """Sum of the block-projection pullbacks of a form on R^n; S_d-invariant."""
    if alpha.d != 1:
        raise ValueError("trace takes a form on R^n (d = 1)")
    n, k, N = alpha.n, alpha.degree, alpha.n * d

    def blocks(fn: Coeffs, degree: int) -> Coeffs:
        cols = [_shift_columns(n, degree, N, j * n) for j in range(d)]
        C = comb(N, degree)

        def coeff(X: np.ndarray) -> np.ndarray:
            P = len(X)
            A = fn(X.reshape(P * d, n)).reshape(P, d, -1)  # every block in one batch
            out = np.zeros((P, C))
            for j in range(d):
                out[:, cols[j]] += A[:, j]
            return out

        return coeff

    deriv = None
    if alpha.analytic_derivative is not None:
        deriv = blocks(alpha.analytic_derivative, k + 1)
    return KForm(
        degree=k, n=n, d=d, coeff_fn=blocks(alpha.coeff_fn, k), analytic_derivative=deriv, invariance="full"
    )


def natural_volume_form(n: int, d: int) -> KForm:
    """Trace of the volume form of R^n: the canonical n-form on the tuple space."""
    vol = KForm.constant(volume_covector(n), n, 1, invariance="full")
    return trace_form(vol, d)


def _leibniz(a: Coeffs, da: Coeffs, b: Coeffs, db: Coeffs, N: int, ka: int, kb: int) -> Coeffs:
    """d(a ^ b) = da ^ b + (-1)^ka a ^ db, on coefficient functions."""
    sign = -1.0 if ka % 2 else 1.0
    return lambda X: wedge_rows(da(X), b(X), N, ka + 1, kb) + sign * wedge_rows(a(X), db(X), N, ka, kb + 1)


def wedge(f1: KForm, f2: KForm) -> KForm:
    """Pointwise wedge (signed index merge of elementary covectors)."""
    if f1.n != f2.n or f1.d != f2.d:
        raise ValueError("wedge requires the same ambient space")
    if f1.degree + f2.degree > f1.dim:
        raise ValueError("degree overflow")
    N, k1, k2 = f1.dim, f1.degree, f2.degree
    a, b = f1.coeff_fn, f2.coeff_fn
    deriv = None
    if f1.analytic_derivative and f2.analytic_derivative:
        deriv = _leibniz(a, f1.analytic_derivative, b, f2.analytic_derivative, N, k1, k2)
    return KForm(
        degree=k1 + k2,
        n=f1.n,
        d=f1.d,
        coeff_fn=lambda X: wedge_rows(a(X), b(X), N, k1, k2),
        analytic_derivative=deriv,
        invariance="none",
    )


def tensor_product(f0: KForm, f1: KForm) -> KForm:
    """P0* f0 ^ P1* f1 on (R^n)^{d0+d1}; split-invariant when the factors are."""
    if f0.n != f1.n:
        raise ValueError("tensor product requires the same base dimension")
    n, d0, d1 = f0.n, f0.d, f1.d
    d = d0 + d1
    N, k0, k1 = n * d, f0.degree, f1.degree
    tag = ("split", d0, d1) if f0.invariance == "full" and f1.invariance == "full" else "none"

    def lift(fn: Coeffs, degree: int, offset_blocks: int, nblocks: int) -> Coeffs:
        # reinterpret coefficients on (R^n)^{nblocks} inside (R^n)^d
        lo, hi = offset_blocks * n, (offset_blocks + nblocks) * n
        cols = _shift_columns(hi - lo, degree, N, lo)
        C = comb(N, degree)

        def coeff(X: np.ndarray) -> np.ndarray:
            out = np.zeros((len(X), C))
            out[:, cols] = fn(X[:, lo:hi])
            return out

        return coeff

    at0 = lift(f0.coeff_fn, k0, 0, d0)
    at1 = lift(f1.coeff_fn, k1, d0, d1)
    deriv = None
    if f0.analytic_derivative and f1.analytic_derivative:
        d_at0 = lift(f0.analytic_derivative, k0 + 1, 0, d0)
        d_at1 = lift(f1.analytic_derivative, k1 + 1, d0, d1)
        deriv = _leibniz(at0, d_at0, at1, d_at1, N, k0, k1)
    return KForm(
        degree=k0 + k1,
        n=n,
        d=d,
        coeff_fn=lambda X: wedge_rows(at0(X), at1(X), N, k0, k1),
        analytic_derivative=deriv,
        invariance=tag,
    )


# ---------------------------------------------------------------------------
# comass


@dataclass
class ComassSettings:
    n_starts: int = 64
    max_iters: int = 10_000
    tol: float = 1e-9


@dataclass
class ComassResult:
    value: float
    frame: np.ndarray
    converged: bool
    n_starts: int
    sweeps: int


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def _halton_gaussian(index: int, dim: int) -> np.ndarray:
    """Deterministic quasi-random Gaussian vector via Halton + Box-Muller."""
    m = (dim + 1) // 2
    out = np.empty(2 * m)
    for j in range(m):
        b1 = _PRIMES[(2 * j) % len(_PRIMES)]
        b2 = _PRIMES[(2 * j + 1) % len(_PRIMES)]
        u1 = min(max(_halton(index + 1, b1), 1e-12), 1 - 1e-12)
        u2 = _halton(index + 1, b2)
        r = np.sqrt(-2.0 * np.log(u1))
        out[2 * j] = r * np.cos(2 * np.pi * u2)
        out[2 * j + 1] = r * np.sin(2 * np.pi * u2)
    return out[:dim]


@functools.lru_cache(maxsize=None)
def _halton_frames(k: int, N: int, count: int) -> np.ndarray:
    """The first ``count`` quasi-random starts (count, k, N): Halton-Gaussian frames with unit rows."""
    frames = np.empty((count, k, N))
    for idx in range(count):
        V = _halton_gaussian(idx * k * N + 7, k * N).reshape(k, N)
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        frames[idx] = V / norms
    return _frozen(frames)


@functools.lru_cache(maxsize=None)
def _cofactor_layout(k: int, a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, signs) of the cofactors of row a of a k x k matrix.

    The minor of entry (a, b) keeps ``rows`` (every row but a) and ``cols[b]``
    (every column but b); its sign is ``signs[b]`` = (-1)^(a+b).
    """
    rows = np.array([r for r in range(k) if r != a], dtype=np.int64)
    cols = np.array([[x for x in range(k) if x != b] for b in range(k)], dtype=np.int64).reshape(k, k - 1)
    return _frozen(rows, cols, (-1.0) ** (a + np.arange(k)))


def _row_gradients(cov: KCovector, V: np.ndarray, a: int) -> np.ndarray:
    """Gradients (S, N) of cov over frames V (S, k, N) with respect to row a (cofactor expansion).

    For each (I, c) of ``cov.terms``, column b of I gains c (-1)^(a+b) times the
    minor of V[:, :, I] without row a and column b; k >= 2.  The minors of
    all terms are one stack (S, T, k, k-1, k-1) and one ``det`` call, which
    factors each matrix on its own, so no value depends on the stack.  The
    gains add into zeros in ``terms`` order: ``bincount`` adds its weights in
    the order given, as a loop over the terms would.
    """
    S, k, N = V.shape
    rows, cols, signs = _cofactor_layout(k, a)
    I = cov.term_columns  # (T, k)
    minors = V.reshape(S, k * N)[:, rows[:, None] * N + I[:, cols][:, :, None, :]]
    dets = np.linalg.det(minors) if k > 2 else minors[..., 0, 0]  # (S, T, k)
    gains = dets * (np.array([c for _, c in cov.terms]).reshape(-1, 1) * signs)
    at = (np.arange(S)[:, None] * N + I.ravel()).ravel()
    return np.bincount(at, weights=gains.ravel(), minlength=S * N).reshape(S, N)


def comass(form: KForm, x: np.ndarray, settings: ComassSettings | None = None) -> ComassResult:
    """Certified lower bound for the comass of a form at a point.

    Maximizes the covector over frames of unit vectors by multi-start
    blockwise ascent: each row update replaces v_a with the normalized
    gradient, which solves the restricted (linear) problem exactly, so the
    objective never decreases.  Starts include the elementary frames of the
    covector's support (exact for single elementary covector forms) plus
    quasi-random frames.  All starts climb in lockstep as one (S, k, N)
    stack; a start stops at its first sweep that gains at most ``tol``, and
    the first start of the largest value wins.  A covector with a non-finite
    coefficient gives an unconverged NaN result without any sweep.

    Each row update normalizes the gradients of all running starts at once
    with ``util.row_norms``, a stacked vector-vector ``matmul`` that makes the
    same BLAS dot product per row as the 1-D ``np.linalg.norm`` of that row;
    an axis norm, ``einsum`` or ``(g * g).sum(1)`` would round differently and
    move frames.  A gradient row of norm zero (or NaN) leaves its frame row.
    """
    settings = settings or ComassSettings()
    if settings.n_starts < 1:
        raise ValueError(f"comass needs at least one start, got n_starts={settings.n_starts}")
    cov = form.at(x)
    k, N = cov.degree, cov.dim
    if not np.all(np.isfinite(cov.row)):
        # no ascent can converge on a non-finite objective: fail closed before climbing
        return ComassResult(float("nan"), np.full((k, N), np.nan), False, 0, 0)
    if k == 0:
        return ComassResult(abs(cov((np.zeros((0, N))))), np.zeros((0, N)), True, 0, 0)
    if k == 1:
        g = np.array(cov.row)
        norm = float(np.linalg.norm(g))
        frame = (g / norm)[None, :] if norm > 0 else np.zeros((1, N))
        return ComassResult(norm, frame, True, 1, 1)

    elementary = []
    by_mag = sorted(cov.terms, key=lambda t: -abs(t[1]))
    for I, c in by_mag[: max(4, settings.n_starts // 4)]:
        V = np.zeros((k, N))
        V[np.arange(k), I] = 1.0
        if c < 0:
            V[0] *= -1.0
        elementary.append(V)
    count = max(0, settings.n_starts - len(elementary))
    V = np.concatenate([np.reshape(elementary, (-1, k, N)), _halton_frames(k, N, count)])

    S = len(V)
    val = cov.evaluate(V)
    converged = np.zeros(S, dtype=bool)
    sweeps = np.zeros(S, dtype=np.int64)
    running = np.arange(S)
    for sweep in range(settings.max_iters):
        if len(running) == 0:
            break
        sweeps[running] = sweep + 1
        W = V[running]
        for a in range(k):
            g = _row_gradients(cov, W, a)
            norm = row_norms(g)
            pos = norm > 0
            W[pos, a] = g[pos] / norm[pos, None]
        new = cov.evaluate(W)
        done = new - val[running] <= settings.tol
        V[running] = W
        val[running] = new
        converged[running[done]] = True
        running = running[~done]
    best = int(np.argmax(val))
    return ComassResult(float(val[best]), V[best], bool(converged[best]), S, int(sweeps[best]))


# ---------------------------------------------------------------------------
# exterior derivative


def exterior_derivative(form: KForm, fd_step: float = 1e-5) -> KForm:
    """d of a form: analytic if available, else Richardson-refined central FD."""
    N = form.dim
    k = form.degree
    if form.analytic_derivative is not None:
        return KForm(
            degree=k + 1, n=form.n, d=form.d, coeff_fn=form.analytic_derivative, invariance=form.invariance
        )

    base = form.coeff_fn
    steps = np.array([fd_step, -fd_step, fd_step / 2.0, -fd_step / 2.0])
    offsets = steps[:, None, None] * np.eye(N)  # (4, N, N): the step along each axis
    a, b, c, sign = _wedge_table(N, 1, k)
    C = comb(N, k + 1)

    def coeff(X: np.ndarray) -> np.ndarray:
        P = len(X)
        # all 4N shifted copies of every point in one batch
        vals = base((X[:, None, None, :] + offsets).reshape(-1, N)).reshape(P, 4, N, -1)
        d1 = (vals[:, 0] - vals[:, 1]) * (1.0 / (2.0 * fd_step))
        d2 = (vals[:, 2] - vals[:, 3]) * (1.0 / fd_step)
        partials = (4.0 / 3.0) * d2 - (1.0 / 3.0) * d1  # (P, N, C(N, k)): d/dx_i of each coefficient
        # d form = sum_i dx_i ^ (d/dx_i form)
        out = np.zeros((P, C))
        np.add.at(out, (slice(None), c), sign * partials[:, a, b])
        return out

    return KForm(degree=k + 1, n=form.n, d=form.d, coeff_fn=coeff, invariance=form.invariance)


# ---------------------------------------------------------------------------
# polynomial coefficient helpers (used by the DSL and tests)


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial on R^m: exponent tuple -> coefficient."""

    nvars: int
    terms: dict[tuple[int, ...], float]

    def __call__(self, x: np.ndarray):
        """The value at x (m,), or the values at the rows of x (P, m)."""
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros(x.shape[:-1])
        for exps, c in self.terms.items():
            v = c
            for i, e in enumerate(exps):
                if e:
                    v = v * x[..., i] ** e
            total = total + v
        return total if total.ndim else float(total)

    def partial(self, i: int) -> "MultiPoly":
        out: dict[tuple[int, ...], float] = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, 0.0) + c * exps[i]
        return MultiPoly(self.nvars, out)


def polynomial_one_form(n: int, components: list[MultiPoly]) -> KForm:
    """sum_b p_b dx_b on R^n with exact exterior derivative."""
    if len(components) != n:
        raise ValueError("need one polynomial per coordinate")
    partials = [[components[b].partial(i) for i in range(n)] for b in range(n)]
    pairs = basis(n, 2)

    def coeff(X: np.ndarray) -> np.ndarray:
        return np.stack([p(X) for p in components], axis=1)

    def deriv(X: np.ndarray) -> np.ndarray:
        # coefficient of dx_i ^ dx_b, i < b
        cols = [partials[b][i](X) - partials[i][b](X) for i, b in pairs]
        return np.stack(cols, axis=1) if cols else np.zeros((len(X), 0))

    return KForm(degree=1, n=n, d=1, coeff_fn=coeff, analytic_derivative=deriv, invariance="none")
