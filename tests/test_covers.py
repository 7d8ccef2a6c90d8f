"""Catalog branched covers: batch oracles, fibers, indices, distortion."""

import dataclasses

import numpy as np
import pytest
from scalar_assignment import solve_assignment as scalar_solve

from almqr import kernels
from almqr.almgren import distance_value, distance_values, points_of, sorted_tuples
from almqr.covers import (
    CoverError,
    NumericalError,
    _conformal_matrix,
    ball_reach,
    branch_differentials,
    branch_sums,
    build_map,
    complex_polynomial,
    det,
    h_function,
    min_singular,
    minv,
    minv_batch,
    op_norm,
    op_norm_sq,
    planar_power,
    precomposed,
    winding_map_3d,
)
from almqr.modulus import metric_jacobian_values
from almqr.mv import qr_curve_check
from almqr.regions import Annulus


def test_minv_square_examples():
    f = planar_power(2)
    p = minv(f, [1.0, 0.0])
    assert p.d == 2
    assert np.allclose(sorted(p.locations[:, 0]), [-1.0, 1.0], atol=1e-12)
    p0 = minv(f, [0.0, 0.0])
    assert p0.weights.tolist() == [2]
    assert np.allclose(p0.locations, 0.0)


def test_minv_shifted_square():
    g = complex_polynomial([-1, 0, 1])  # z^2 - 1
    q = minv(g, [0.0, 0.0])
    assert sorted(np.round(q.locations[:, 0], 10).tolist()) == [-1.0, 1.0]


def test_minv_outside_image_rejected():
    w = winding_map_3d(2, r_max=1.0, z_half=0.5)
    with pytest.raises(CoverError):
        minv(w, [5.0, 0.0, 0.0])


def test_degree_sum_invariant_random():
    rng = np.random.default_rng(0)
    maps = [
        planar_power(3),
        complex_polynomial([0.3, -1.0, 0.5, 1.0]),
        precomposed(np.array([[1.2, 0.1], [0.0, 0.9]]), planar_power(2)),
    ]
    for f in maps:
        for _ in range(300):
            y = rng.normal(scale=1.5, size=2)
            p = minv(f, y)
            assert p.d == f.degree
            # fiber points map back to y
            assert np.linalg.norm(f.evaluate(p.locations) - y, axis=1).max() < 1e-9 * (1 + np.linalg.norm(y))


def test_h_function_values():
    f = planar_power(2)
    assert h_function(f, [1.0, 0.0]) == pytest.approx(1 / np.sqrt(2))
    for d in (2, 3, 4):
        g = planar_power(d)
        r = 1.37
        expect = np.sqrt(r ** (-2 * (d - 1) / d) / d)
        assert h_function(g, [r, 0.0]) == pytest.approx(expect, rel=1e-12)
    assert h_function(planar_power(1), [0.3, -0.4]) == pytest.approx(1.0)


def test_h_function_singular_fiber():
    f = planar_power(2)
    with pytest.raises(NumericalError):
        h_function(f, [0.0, 0.0])
    with pytest.raises(NumericalError):
        h_function(f, [[1.0, 0.0], [0.0, 0.0]])  # one critical fiber fails the batch


@pytest.mark.parametrize("kind", ["power3", "poly", "precompose-power", "wind3"])
def test_h_function_batch_matches_scalar_differentials(kind):
    # reference: the index-weighted sum of ||Df||^-2 from the scalar differential at the merged fiber points
    f = {**HELD_FIBER_MAPS, "wind3": winding_map_3d(3)}[kind]
    ys = np.random.default_rng(14).uniform(0.2, 0.9, size=(60, f.n))
    H = h_function(f, ys)
    assert H.shape == (60,)
    ref = []
    for y in ys:
        p = minv(f, y)
        ref.append(np.sqrt(sum(w / op_norm(f.differential(x)) ** 2 for x, w in zip(p.locations, p.weights))))
    assert H == pytest.approx(ref, rel=1e-12)
    assert [h_function(f, y) for y in ys[:5]] == H[:5].tolist()  # one point is the batch of one


def test_metric_jacobian_conformal_equals_H_squared():
    f = planar_power(3)
    ys = np.random.default_rng(2).normal(size=(30, 2))
    ys = ys[np.hypot(ys[:, 0], ys[:, 1]) >= 0.1]
    J = metric_jacobian_values(f, minv_batch(f, ys))
    assert J == pytest.approx([h_function(f, y) ** 2 for y in ys], rel=1e-10)


@pytest.mark.parametrize(
    "f",
    [precomposed(np.array([[1.4, 0.3], [-0.1, 0.8]]), planar_power(2), [0.2, -0.1]), winding_map_3d(3)],
    ids=["precompose", "wind3"],
)
def test_metric_jacobian_values_matches_scalar_gram(f):
    # not conformal: sqrt(det sum_j L_j^T L_j) from the scalar branch differentials
    ys = np.random.default_rng(4).uniform(0.2, 0.9, size=(40, f.n))
    ref = []
    for y in ys:
        _, _, L = branch_differentials(f, y)
        ref.append(np.sqrt(np.linalg.det(np.einsum("jki,jkl->il", L, L))))
    assert metric_jacobian_values(f, minv_batch(f, ys)) == pytest.approx(ref, rel=1e-12)



HELD_FIBER_MAPS = {
    "power2": planar_power(2),
    "power3": planar_power(3),
    "poly": complex_polynomial([0.0, -3.0, 0.0, 1.0]),  # z^3 - 3z
    "precompose-power": precomposed(np.array([[1.4, 0.3], [-0.1, 0.8]]), planar_power(2), [0.2, -0.1]),
}


@pytest.mark.parametrize("kind", list(HELD_FIBER_MAPS))
def test_metric_jacobian_from_held_fibers_is_bitwise_fresh(kind):
    # the Monte Carlo checks pass the rows of fibers they already hold; the
    # Jacobian must equal the one from a second minv_batch on those points
    f = HELD_FIBER_MAPS[kind]
    ys = np.random.default_rng(8).uniform(-1.5, 1.5, size=(3000, 2))
    X = minv_batch(f, ys)
    mask = kernels.dist_sq_one_to_many(minv(f, [0.7, 0.4]).expand(), X) < 0.8**2
    assert 0 < mask.sum() < len(ys)
    assert np.array_equal(metric_jacobian_values(f, X[mask]), metric_jacobian_values(f, minv_batch(f, ys[mask])))


@pytest.mark.parametrize("k", range(1, 8))
def test_power_fiber_batch_equals_broadcast_formula(k):
    # the broadcast-and-stack form that the branch-by-branch fill replaced
    def reference(ys):
        w = ys[:, 0] + 1j * ys[:, 1]
        r = np.abs(w) ** (1.0 / k)
        t0 = np.angle(w) / k
        ang = t0[:, None] + 2 * np.pi * np.arange(k)[None, :] / k
        return np.stack([r[:, None] * np.cos(ang), r[:, None] * np.sin(ang)], axis=2)

    rng = np.random.default_rng(9)
    for m in (0, 1, 7, 1001):
        for scale in (1e-8, 1.0, 1e6):
            ys = rng.normal(size=(m, 2)) * scale
            assert np.array_equal(planar_power(k).fiber_batch(ys), reference(ys))

def _stacked_conformal_matrix(w):
    """The (..., 2, 2) matrices of multiplication by w, stacked entry by entry along the last axis."""
    w = np.asarray(w)
    return np.stack([w.real, -w.imag, w.imag, w.real], axis=-1).reshape(w.shape + (2, 2))


def test_conformal_matrix_equals_the_stacked_form():
    # the plane-major fill gives the stacked form's values and signed zeros, in any layout of w
    rng = np.random.default_rng(21)
    w = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    w[0, 0], w[1, 1], w[2, 2] = 0.0, complex(-0.0, 0.0), complex(0.0, -0.0)
    for case in (w, np.asfortranarray(w), w[::2, ::-1], w[3], w[4, 1], complex(2.5, -0.0), w[None]):
        got, ref = _conformal_matrix(case), _stacked_conformal_matrix(case)
        assert got.shape == ref.shape and np.ascontiguousarray(got).tobytes() == ref.tobytes()
    M = _conformal_matrix(np.asfortranarray(w))
    assert M[..., 0, 1].flags.f_contiguous  # planes laid out as w is


@pytest.mark.parametrize("k", [1, 2, 3, 9])
def test_power_fiber_batch_equals_the_row_major_fill(k):
    # the branch-by-branch fill into a (m, k, 2) buffer that the plane-major fill replaced
    def reference(ys):
        w = ys[:, 0] + 1j * ys[:, 1]
        r = np.abs(w) ** (1.0 / k)
        t0 = np.angle(w) / k
        X = np.empty((len(ys), k, 2))
        for j in range(k):
            ang = t0 + 2 * np.pi * j / k
            X[:, j, 0] = r * np.cos(ang)
            X[:, j, 1] = r * np.sin(ang)
        return X

    rng = np.random.default_rng(22)
    for m in (0, 1, 1001):
        ys = rng.normal(size=(m, 2))
        got = planar_power(k).fiber_batch(ys)
        assert got.shape == (m, k, 2) and np.ascontiguousarray(got).tobytes() == reference(ys).tobytes()
        assert got.T.flags.c_contiguous  # (2, k, m) planes
        # the branch differentials of plane-major fibers against the stacked form on C-ordered ones
        X = minv_batch(planar_power(k), ys[np.hypot(ys[:, 0], ys[:, 1]) > 1e-3])
        Xc = np.ascontiguousarray(X)
        ref = _stacked_conformal_matrix(1.0 / (k * (Xc[..., 0] + 1j * Xc[..., 1]) ** (k - 1)))
        assert np.ascontiguousarray(planar_power(k).branch_diff_batch(X)).tobytes() == ref.tobytes()


@pytest.mark.parametrize("k", [2, 7, 8, 9, 12])
def test_branch_sums_over_plane_major_fibers_equal_row_sums(k):
    # numpy sums a contiguous row of 8 or more terms pairwise, but adds in
    # order down the (d, P) planes of the power maps' fibers; h_function and
    # the qr-curve ratios sum C-ordered rows at every degree
    f = planar_power(k)
    ys = np.random.default_rng(23).uniform(-2, 2, size=(3000, 2))
    X = minv_batch(f, ys)
    L = np.ascontiguousarray(f.branch_diff_batch(np.ascontiguousarray(X)))
    assert h_function(f, ys).tobytes() == np.sqrt((min_singular(L) ** 2).sum(axis=1)).tobytes()
    assert branch_sums(np.asfortranarray(L[..., 0, 0])).tobytes() == L[..., 0, 0].sum(axis=1).tobytes()
    # the qr-curve ratios, |L|^2 summed over / det L summed over (n = 2, K_I = 1), from the same samples
    region = Annulus(np.zeros(2), 0.3, 1.5)
    rep = qr_curve_check(f, region, n_samples=2000, seed=3)
    ys = region.sample(np.random.default_rng(np.random.SeedSequence([3, 7])), 2000)
    ys = ys[f.branch_value_distance(ys) > 1e-3 * region.diameter()]
    L = np.ascontiguousarray(f.branch_diff_batch(np.ascontiguousarray(minv_batch(f, ys))))
    ratios = op_norm_sq(L).sum(axis=1) / det(L).sum(axis=1)
    assert [rep["max_ratio"], rep["min_ratio"], rep["mean_ratio"]] == [ratios.max(), ratios.min(), ratios.mean()]


def test_catalog_distortion_invariants():
    rng = np.random.default_rng(3)
    # holomorphic maps: conformal off the branch set
    f = complex_polynomial([0.0, -0.5, 0.0, 1.0])
    for _ in range(100):
        x = rng.normal(size=2)
        D = f.differential(x)
        J = f.jacobian(x[None])[0]
        if J < 1e-12:
            continue
        assert op_norm(D) ** 2 <= f.K_O * J * (1 + 1e-9)
        assert J <= f.K_I * min_singular(D) ** 2 * (1 + 1e-9)
    # affine precomposition carries the affine distortion exactly
    A = np.array([[2.0, 0.3], [0.0, 0.7]])
    sv = np.linalg.svd(A, compute_uv=False)
    lam = sv[0] / sv[1]
    g = precomposed(A, planar_power(2))
    assert g.K_I == pytest.approx(lam)
    assert g.K_O == pytest.approx(lam)
    for _ in range(100):
        x = rng.normal(size=2)
        D = g.differential(x)
        J = g.jacobian(x[None])[0]
        if J < 1e-12:
            continue
        assert op_norm(D) ** 2 <= g.K_O * J * (1 + 1e-9)
        assert J <= g.K_I * min_singular(D) ** 2 * (1 + 1e-9)
    # the winding map: singular values (1, k, 1)
    w = winding_map_3d(3)
    for _ in range(50):
        x = rng.normal(size=3)
        if np.hypot(x[0], x[1]) < 0.1:
            continue
        D = w.differential(x)
        assert op_norm(D) == pytest.approx(3.0, rel=1e-10)
        assert min_singular(D) == pytest.approx(1.0, rel=1e-10)
        J = w.jacobian(x[None])[0]
        assert op_norm(D) ** 3 <= w.K_O * J * (1 + 1e-12)
        assert J <= w.K_I * min_singular(D) ** 3 * (1 + 1e-12)


def test_minv_sampled_continuity():
    # shrinking radii: fiber distance decreases to zero, bounded by the
    # square-root modulus of continuity of the power map
    f = planar_power(2)
    y0 = np.array([0.09, 0.0])  # near-ish the branch value at 0
    p0 = minv(f, y0)
    radii = 0.05 * 2.0 ** -np.arange(10)
    prev = np.inf
    for r in radii:
        worst = 0.0
        for phi in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            y = y0 + r * np.array([np.cos(phi), np.sin(phi)])
            worst = max(worst, distance_value(minv(f, y), p0))
        assert worst <= prev * (1 + 1e-9)
        prev = worst
        # explicit normal-neighborhood bound for z^2: diam U(x, r) bound
        assert worst**2 <= 2 * (np.sqrt(2) * np.sqrt(r)) ** 2 * (1 + 1e-6)
    assert prev < 1e-3


def _diameter(points):
    """Largest distance between two of the tuple points, all pairs priced in one batch."""
    X = np.array([p.expand() for p in points])
    i, j = np.triu_indices(len(X), 1)
    return float(np.max(distance_values(X[i], X[j])))


def test_pseudomonotone_spot_check():
    # diam F(B(y, r)) <= sqrt(d) diam dF(B(y, r)) via boundary sampling
    f = planar_power(2)
    rng = np.random.default_rng(4)
    for _ in range(10):
        y0 = rng.normal(size=2)
        if np.hypot(*y0) < 0.3:
            continue
        r = 0.2 * np.hypot(*y0)
        ring = [minv(f, y0 + r * np.array([np.cos(t), np.sin(t)])) for t in np.linspace(0, 2 * np.pi, 48, endpoint=False)]
        disk = ring + [minv(f, y0 + u * r * np.array([np.cos(t), np.sin(t)])) for u in (0.3, 0.7) for t in np.linspace(0, 2 * np.pi, 16, endpoint=False)] + [minv(f, y0)]
        diam_boundary = _diameter(ring)
        diam_full = _diameter(disk)
        assert diam_full <= np.sqrt(2) * diam_boundary + 1e-9


def test_build_map_dsl_and_errors():
    m = build_map({"map": "poly", "coeffs": [[-1.0, 0.0], 0, 1]})
    assert m.degree == 2
    m2 = build_map({"map": "precompose", "affine": [[2, 0], [0, 0.5]], "base": {"map": "power", "k": 3}})
    assert m2.degree == 3
    with pytest.raises(CoverError):
        build_map({"map": "nope"})
    with pytest.raises(CoverError):
        build_map({"map": "poly"})
    with pytest.raises(CoverError):
        build_map({"coeffs": [1, 2]})
    with pytest.raises(CoverError):
        build_map({"map": "poly", "coeffs": [3.0]})  # constant
    with pytest.raises(CoverError):
        build_map({"map": "precompose", "affine": [[1, 0], [0, -1]], "base": {"map": "power", "k": 2}})


def test_power_fiber_batch_rows_match_their_batches_of_one():
    # minv is minv_batch of one, so this checks that a row does not depend on its batch;
    # the independent references are the test_minv_batch_*_matches_* tests
    f = planar_power(3)
    rng = np.random.default_rng(5)
    ys = rng.normal(size=(50, 2))
    batch = f.fiber_batch(ys)
    for y, fib in zip(ys, batch):
        expect = minv(f, y).expand()
        got = fib[np.lexsort(fib.T[::-1])]
        assert np.allclose(got, expect, atol=1e-12)


BRANCH_DIFF_MAPS = {
    "poly": complex_polynomial([0.3, -1.0, 0.5, 1.0]),
    "power": planar_power(3),
    "identity": planar_power(1),
    "wind3": winding_map_3d(3),
    "precompose-power": precomposed(np.array([[1.4, 0.2], [0.0, 0.8]]), planar_power(2), [0.3, -0.1]),
    "precompose-poly": precomposed(np.array([[1.2, -0.3], [0.1, 0.9]]), complex_polynomial([0.5, -1.0, 0.0, 1.0])),
}


def _branch_values(spec):
    """The branch values of a catalog map as complex numbers, from its spec."""
    if spec["map"] == "precompose":
        return _branch_values(spec["base"])
    if spec["map"] == "poly":
        p = np.polynomial.Polynomial([complex(*c) for c in spec["coeffs"]])
        return p(p.deriv().roots())
    return np.zeros(1 if spec["k"] > 1 else 0)  # power and wind3: over the axis


@pytest.mark.parametrize("kind", list(BRANCH_DIFF_MAPS))
def test_branch_diff_batch_matches_differential(kind):
    f = BRANCH_DIFF_MAPS[kind]
    ys = np.random.default_rng(6).uniform(-0.9, 0.9, size=(40, f.n))
    X = minv_batch(f, ys)
    L = f.branch_diff_batch(X)
    assert L.shape == X.shape + (f.n,)
    for row, Ls in zip(X, L):
        for x, Lj in zip(row, Ls):
            Dinv = np.linalg.inv(f.differential(x))
            assert np.abs(Lj - Dinv).max() <= 1e-10 * max(1.0, np.abs(Dinv).max())
    # branch_value_distance is batch-first too: min |b - y| over the branch values b
    bvals = _branch_values(f.spec)
    expect = [np.abs(bvals - complex(y[0], y[1])).min(initial=np.inf) for y in ys]
    np.testing.assert_allclose(f.branch_value_distance(ys), expect, rtol=1e-12)


@pytest.mark.parametrize("kind", list(BRANCH_DIFF_MAPS))
def test_df_bound_bounds_the_differential_over_the_ball(kind):
    f = BRANCH_DIFF_MAPS[kind]
    rng = np.random.default_rng(21)
    for _ in range(30):
        x = rng.uniform(-1.5, 1.5, size=f.n)
        r = 10.0 ** rng.uniform(-6, 0.3)
        bound = f.df_bound(x[None], r)[0]
        u = rng.normal(size=(20, f.n))
        u *= (r * rng.uniform(size=20) / np.linalg.norm(u, axis=1))[:, None]  # points of B(x, r)
        for xp in x + u:
            # wind3 attains its bound everywhere: allow the rounding of the computed norm
            assert op_norm(f.differential(xp)) <= bound * (1 + 4 * np.finfo(float).eps)
    # one bound per row of a batch
    X = rng.uniform(-1.5, 1.5, size=(7, f.n))
    np.testing.assert_array_equal(f.df_bound(X, 0.3), [f.df_bound(x[None], 0.3)[0] for x in X])


@pytest.mark.parametrize(
    "f",
    [planar_power(2), planar_power(3), complex_polynomial([0.0, -3.0, 0.0, 1.0])],
    ids=["z2", "z3", "z3-3z"],
)
def test_ball_reach_bounds_the_base_distance_of_the_ball(f):
    # d_A(minv f(y), Z) < r implies |y - y0| < reach, also around a branch value
    rng = np.random.default_rng(22)
    centers = [rng.uniform(-1.5, 1.5, size=2) for _ in range(4)] + [np.array([0.0, 0.0]), np.array([-2.0, 0.0])]
    for y0 in centers:
        Z = minv(f, y0).expand()
        for r in (0.5, 0.1, 1e-3, 1e-6):
            reach = ball_reach(f, Z, r)
            # distances log-uniform up to twice the reach: the ball at a branch value is far smaller
            rho = 2 * reach * 10.0 ** rng.uniform(-8, 0, size=4000)
            phi = rng.uniform(0, 2 * np.pi, size=4000)
            ys = y0 + rho[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
            inside = kernels.dist_sq_one_to_many(Z, minv_batch(f, ys)) < r * r
            assert inside.any() and not inside.all()
            assert np.linalg.norm(ys[inside] - y0, axis=1).max() < reach


def _with_bad_row(f, block):
    """f whose branch_diff_batch returns ``block`` for every branch of one row."""

    def branch_diff_batch(X):
        L = f.branch_diff_batch(X)
        L[len(L) // 2] = block
        return L

    return dataclasses.replace(f, branch_diff_batch=branch_diff_batch)


@pytest.mark.parametrize("block", [np.full((2, 2), np.nan), 1e7 * np.eye(2)], ids=["nan", "singular"])
def test_branch_diff_batch_fails_closed(block):
    # 1e7 * I has |det L| = 1e14 >= 1 / SINGULAR_DET: Df is singular there
    bad = _with_bad_row(planar_power(2), block)
    with pytest.raises(NumericalError):
        qr_curve_check(bad, Annulus(np.zeros(2), 0.3, 1.5), n_samples=200, seed=0)
    with pytest.raises(NumericalError):
        metric_jacobian_values(bad, minv_batch(bad, np.random.default_rng(0).uniform(0.3, 1.0, size=(20, 2))))


def test_jacobian_positive_off_branch_set():
    rng = np.random.default_rng(7)
    for f in (planar_power(2), complex_polynomial([1.0, -2.0, 0.0, 1.0]), winding_map_3d(3)):
        for _ in range(200):
            if f.n == 3:
                x = np.array([*rng.normal(scale=0.6, size=2), rng.uniform(-0.9, 0.9)])
                if np.hypot(x[0], x[1]) > 1.9:
                    continue
            else:
                x = rng.normal(size=2)
            # x is off the branch set iff its fiber point has index 1
            p = minv(f, f.evaluate(x[None])[0])
            if p.weights[np.argmin(np.linalg.norm(p.locations - x, axis=1))] == 1:
                assert f.jacobian(x[None])[0] > 0.0


# ---------------------------------------------------------------------------
# minv_batch against routes that share no code with the catalog oracles

EPS = np.finfo(float).eps


def _match_ulps(row, ref):
    """Largest coordinate gap between two expanded fibers (d, n) after the
    optimal matching, in units of eps * max(1, |ref|)."""
    cost = ((row[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
    _, perm = scalar_solve(cost)
    return float(np.abs(row - ref[perm]).max() / (EPS * max(1.0, np.abs(ref).max())))


def _as_points(z):
    return np.stack([z.real, z.imag], axis=-1)


def _kth_roots(w, k):
    """All complex k-th roots of each w, from numpy's principal power."""
    return w[:, None] ** (1.0 / k) * np.exp(2j * np.pi * np.arange(k) / k)


@pytest.mark.parametrize("coeffs", [[0.3, -1.0, 0.5, 1.0], [[0.2, 0.1], 0, [1, -0.5], 0, 2.0], [0, 0, 0, 0, 1]])
def test_minv_batch_poly_matches_np_roots(coeffs):
    f = build_map({"map": "poly", "coeffs": coeffs})
    c = np.array([complex(*v) if isinstance(v, list) else complex(v) for v in coeffs])
    ys = np.random.default_rng(3).normal(scale=1.5, size=(300, 2))
    X = minv_batch(f, ys)
    assert X.shape == (300, f.degree, 2)
    for y, row in zip(ys, X):
        p = c[::-1].copy()  # np.roots / np.polyval order: highest degree first
        p[-1] -= complex(*y)
        r = np.roots(p)
        r = r - np.polyval(p, r) / np.polyval(np.polyder(p), r)  # one Newton step on the reference
        assert _match_ulps(row, _as_points(r)) <= 4
        assert np.allclose(f.evaluate(row), y, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_minv_batch_power_matches_complex_roots(k):
    f = planar_power(k)
    ys = np.random.default_rng(k).normal(scale=1.5, size=(300, 2))
    ref = _as_points(_kth_roots(ys[:, 0] + 1j * ys[:, 1], k))
    for y, row, r in zip(ys, minv_batch(f, ys), ref):
        assert _match_ulps(row, r) <= 4
        assert np.allclose(f.evaluate(row), y, atol=1e-12)


def test_minv_batch_wind3_matches_complex_roots():
    k = 3
    f = winding_map_3d(k, r_max=2.0, z_half=1.0)
    rng = np.random.default_rng(11)
    ys = np.column_stack([rng.uniform(-1.4, 1.4, size=(300, 2)), rng.uniform(-1.0, 1.0, 300)])
    w = ys[:, 0] + 1j * ys[:, 1]
    # (r, k theta) -> (r, theta): unit k-th roots of the direction, scaled by r
    z = np.abs(w)[:, None] * _kth_roots(w / np.abs(w), k)
    ref = np.concatenate([_as_points(z), np.repeat(ys[:, None, 2:], k, axis=1)], axis=2)
    for y, row, r in zip(ys, minv_batch(f, ys), ref):
        assert _match_ulps(row, r) <= 4
        assert np.allclose(f.evaluate(row), y, atol=1e-12)
    with pytest.raises(CoverError):
        minv_batch(f, np.vstack([ys[:5], [[5.0, 0.0, 0.0]]]))
    with pytest.raises(CoverError):
        minv_batch(f, [[0.1, 0.1, 1.5]])


def test_minv_batch_precompose_matches_affine_preimage():
    A = np.array([[1.4, 0.2], [0.0, 0.8]])
    b = np.array([0.3, -0.1])
    f = precomposed(A, planar_power(3), b)
    ys = np.random.default_rng(12).normal(scale=1.5, size=(300, 2))
    roots = _as_points(_kth_roots(ys[:, 0] + 1j * ys[:, 1], 3))
    for y, row, r in zip(ys, minv_batch(f, ys), roots):
        ref = np.linalg.solve(A, (r - b).T).T  # x with A x + b = root
        assert _match_ulps(row, ref) <= 8
        assert np.allclose(f.evaluate(row), y, atol=1e-12)


def test_minv_batch_rows_match_their_batches_of_one():
    # minv is minv_batch of one, so this checks that a row does not depend on its batch
    rng = np.random.default_rng(13)
    maps = [
        planar_power(3),
        complex_polynomial([0.3, -1.0, 0.5, 1.0]),
        precomposed(np.array([[1.2, 0.1], [0.0, 0.9]]), complex_polynomial([-1, 0, 1])),
        winding_map_3d(2),
    ]
    for f in maps:
        ys = rng.uniform(-0.9, 0.9, size=(100, f.n))
        for y, row in zip(ys, minv_batch(f, ys)):
            assert _match_ulps(row, minv(f, y).expand()) <= 4


def test_minv_batch_double_root_at_critical_value():
    f = complex_polynomial([0.0, -3.0, 0.0, 1.0])  # z^3 - 3z: p(1) = -2 with p'(1) = 0
    row = minv_batch(f, [[-2.0, 0.0], [0.5, 0.0]])[0]
    double = row[np.linalg.norm(row - [1.0, 0.0], axis=1) < 1e-6]
    assert len(double) == 2 and np.array_equal(double[0], double[1])  # one merged cluster
    # a double root is only known to about sqrt(eps); the simple root to rounding
    assert np.allclose(double[0], [1.0, 0.0], atol=1e-8)
    assert np.allclose(row[np.linalg.norm(row - [1.0, 0.0], axis=1) >= 1e-6], [[-2.0, 0.0]], atol=1e-12)
    p = minv(f, [-2.0, 0.0])
    assert sorted(p.weights.tolist()) == [1, 2]
    # the power map's branch value: the origin with full index
    assert np.array_equal(minv_batch(planar_power(3), [[0.0, 0.0]])[0], np.zeros((3, 2)))


def test_minv_batch_fails_closed():
    with pytest.raises(NumericalError):
        minv_batch(planar_power(2), [[1.0, 0.0], [np.nan, 0.0]])
    with pytest.raises(NumericalError):
        minv_batch(complex_polynomial([0.3, -1.0, 1.0]), [[np.inf, 0.0]])
    f = planar_power(2)

    def nan_row(ys):
        X = f.fiber_batch(ys)
        X[-1, 0, 0] = np.nan
        return X

    with pytest.raises(NumericalError):
        minv_batch(dataclasses.replace(f, fiber_batch=nan_row), [[1.0, 0.0], [0.5, 0.5]])
    # a fiber batch that lost a point (failed clustering) is not padded or accepted
    short = dataclasses.replace(f, fiber_batch=lambda ys: f.fiber_batch(ys)[:, :1])
    with pytest.raises(NumericalError):
        minv_batch(short, [[1.0, 0.0]])


# ---------------------------------------------------------------------------
# batch evaluate and Jacobian against scalar Python-complex references


def _horner(coeffs, z):
    out = 0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _poly_reference(coeffs):
    c = [complex(*v) if isinstance(v, list) else complex(v) for v in coeffs]
    dc = [k * c[k] for k in range(1, len(c))]

    def evaluate(x):
        w = _horner(c, complex(x[0], x[1]))
        return [w.real, w.imag]

    return evaluate, lambda x: abs(_horner(dc, complex(x[0], x[1]))) ** 2


def _power_reference(k):
    def evaluate(x):
        w = complex(x[0], x[1]) ** k
        return [w.real, w.imag]

    return evaluate, lambda x: (k * abs(complex(x[0], x[1])) ** (k - 1)) ** 2


def _wind3_reference(k):
    # (r, theta, z) -> (r, k theta, z), which has Jacobian k off the axis
    def evaluate(x):
        w = complex(x[0], x[1])
        out = abs(w) * (w / abs(w)) ** k if w else 0j
        return [out.real, out.imag, x[2]]

    return evaluate, lambda x: float(k)


def _precomposed_reference(A, b, base):
    base_eval, base_jac = base
    return (lambda x: base_eval(A @ x + b)), (lambda x: base_jac(A @ x + b) * np.linalg.det(A))


A_AFF, B_AFF = np.array([[1.3, 0.2], [-0.1, 0.7]]), np.array([0.2, -0.3])
CATALOG_REFERENCES = {
    "poly": (complex_polynomial([[0.2, 0.1], -1.0, 0, 1.0]), _poly_reference([[0.2, 0.1], -1.0, 0, 1.0])),
    "power1": (planar_power(1), _power_reference(1)),
    "power2": (planar_power(2), _power_reference(2)),
    "power5": (planar_power(5), _power_reference(5)),
    "wind3": (winding_map_3d(3), _wind3_reference(3)),
    "precompose-power": (
        precomposed(A_AFF, planar_power(3), B_AFF),
        _precomposed_reference(A_AFF, B_AFF, _power_reference(3)),
    ),
    "precompose-poly": (
        precomposed(A_AFF, complex_polynomial([0.5, -1.0, 0.0, 1.0]), B_AFF),
        _precomposed_reference(A_AFF, B_AFF, _poly_reference([0.5, -1.0, 0.0, 1.0])),
    ),
}


@pytest.mark.parametrize("kind", list(CATALOG_REFERENCES))
def test_batch_evaluate_and_jacobian_match_scalar_references(kind):
    f, (evaluate, jacobian) = CATALOG_REFERENCES[kind]
    X = np.random.default_rng(15).uniform(-1.2, 1.2, size=(200, f.n))
    X[0, :2] = 0.0  # on the branch axis of the power and winding maps
    Y, J = f.evaluate(X), f.jacobian(X)
    assert Y.shape == X.shape and J.shape == (len(X),)
    ref_Y = np.array([evaluate(x) for x in X])
    ref_J = np.array([jacobian(x) for x in X])
    np.testing.assert_allclose(Y, ref_Y, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(J, ref_J, rtol=1e-13, atol=1e-14)
    # a row's value does not depend on the batch it is in
    for x, y, j in zip(X, Y, J):
        assert np.array_equal(f.evaluate(x[None])[0], y) and f.jacobian(x[None])[0] == j


# ---------------------------------------------------------------------------
# minv is the batch of one, merged exactly where local indices exceed 1


MERGING_FIBERS = {
    "power-origin": (planar_power(3), [0.0, 0.0], [3]),
    "wind3-axis": (winding_map_3d(4), [0.0, 0.0, 0.3], [4]),
    "poly-double-root": (complex_polynomial([0.0, -3.0, 0.0, 1.0]), [-2.0, 0.0], [1, 2]),  # z^3 - 3z at p(1) = -2
    "precompose-branch-value": (precomposed(A_AFF, planar_power(2), B_AFF), [0.0, 0.0], [2]),
}


@pytest.mark.parametrize("kind", list(MERGING_FIBERS))
def test_minv_is_merged_batch_of_one_at_branch_values(kind):
    f, y, weights = MERGING_FIBERS[kind]
    p = minv(f, y)
    assert p == points_of(sorted_tuples(minv_batch(f, np.array([y]))))[0]
    assert sorted(p.weights.tolist()) == weights
    # the same point inside a larger batch, next to points off the branch values
    Y = np.vstack([np.full(f.n, 0.3), y, np.full(f.n, -0.2)])
    assert points_of(minv_batch(f, Y))[1] == p
    assert np.array_equal(sorted_tuples(minv_batch(f, Y))[1], p.expand())


def test_points_of_the_wrong_dimension_are_a_cover_error():
    with pytest.raises(CoverError, match="R\\^3"):
        minv_batch(winding_map_3d(2), np.zeros((4, 2)))
    with pytest.raises(CoverError):
        minv(planar_power(2), [1.0, 0.0, 0.0])
    with pytest.raises(CoverError):
        h_function(winding_map_3d(2), [0.5, 0.5])
