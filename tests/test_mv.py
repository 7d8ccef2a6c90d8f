"""Multi-valued calculus: differentials, pull-backs, interpolation, ratios."""

import dataclasses
from functools import partial
from math import comb

import numpy as np
import pytest

from almqr.almgren import distance_values, distances_to_diagonal, sorted_tuples
from almqr.covers import NumericalError, branch_differentials, planar_power, precomposed, winding_map_3d
from almqr.forms import GroupAction, KCovector, KForm, MultiPoly, natural_volume_form, polynomial_one_form, symmetrize, tensor_product, trace_form, wedge_rows
from almqr.mv import (
    MultiValuedMap,
    MultiValuedPair,
    PullbackError,
    differential,
    from_affine_branches,
    from_cover,
    generalized_inverse,
    hodge_star_top,
    interpolate_feps,
    pullback,
    qr_curve_check,
)
from almqr.modulus import metric_jacobian_values
from almqr.regions import Annulus, Box
from almqr import runner
from almqr.runner import run_check


BOX = Box([-1.0, -1.0], [1.0, 1.0])


def test_differential_of_inverse_square():
    F = from_cover(planar_power(2), Annulus(np.zeros(2), 0.5, 2.0))
    D = differential(F, [1.0, 0.0])
    for v, L in zip(D.values, D.L):
        s = 0.5 if v[0] > 0 else -0.5
        assert np.allclose(L, [[s, 0.0], [0.0, s]], atol=1e-12)
    assert D.frame_norm == pytest.approx(np.sqrt(0.5))
    assert metric_jacobian_values(F.cover, D.values[None])[0] == pytest.approx(0.5)


def test_differential_diagonal_affine_map():
    # d copies of one affine map: all branch differentials must coincide
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    b = np.array([0.3, 0.4])
    F = MultiValuedMap(
        domain=BOX,
        m=2,
        n=2,
        d=3,
        evaluate=lambda X: np.repeat((X @ A.T + b)[:, None, :], 3, axis=1),
    )
    D = differential(F, [0.1, 0.2], h=1e-6)
    assert D.on_singular_set
    for L in D.L:
        assert np.allclose(L, A, atol=1e-6)
        assert np.array_equal(L, D.L[0])  # shared exactly after averaging


def test_fd_differential_second_order():
    F_exact = from_cover(planar_power(2), Annulus(np.zeros(2), 0.5, 2.0))
    F_fd = MultiValuedMap(domain=F_exact.domain, m=2, n=2, d=2, evaluate=F_exact.evaluate)
    x = np.array([1.1, 0.4])
    D0 = differential(F_exact, x)
    for h in (1e-3, 1e-4):
        D1 = differential(F_fd, x, h=h)
        # match rows by value
        for v, L in zip(D1.values, D1.L):
            i = int(np.argmin(np.linalg.norm(D0.values - v, axis=1)))
            assert np.abs(L - D0.L[i]).max() <= 10 * h * h + 1e-12


def test_pullback_relabeling_invariant_and_rejections():
    F = from_cover(planar_power(2), Annulus(np.zeros(2), 0.5, 2.0))
    om = natural_volume_form(2, 2)
    s = pullback(F, om, [1.0, 0.0], verify_relabelings=5)
    assert s.rows.shape == (1, 1)  # a point is the batch of one
    assert s.relabeling_deviation < 1e-12
    noninv = KForm.constant(om.at(np.zeros(4)), 2, 2, invariance="none")
    with pytest.raises(PullbackError):
        pullback(F, noninv, [1.0, 0.0])
    w0 = natural_volume_form(2, 1)
    with pytest.raises(PullbackError):
        pullback(F, tensor_product(w0, w0), [1.0, 0.0])  # split form, undecomposed map


def test_pullback_of_inverse_power_star():
    # star of the pulled-back volume trace = sum of branch Jacobians
    ys = np.array([[1.0, 0.3], [-0.6, 0.9], [0.2, -1.4]])
    for d in (2, 3):
        F = from_cover(planar_power(d), Annulus(np.zeros(2), 0.5, 2.0))
        s = pullback(F, natural_volume_form(2, d), ys)
        r = np.hypot(ys[:, 0], ys[:, 1])
        expect = r ** (-2 * (d - 1) / d) / d  # sum |g_j'|^2
        assert s.rows.shape == (3, 1)
        assert s.rows[:, 0] == pytest.approx(expect, rel=1e-10)


def test_pullback_single_valued_classical():
    F = from_cover(planar_power(1), BOX)
    alpha = polynomial_one_form(2, [MultiPoly(2, {(0, 1): 1.0}), MultiPoly(2, {})])  # y dx
    om = trace_form(alpha, 1)
    X = np.array([[0.3, 0.7], [-0.2, 0.1]])
    rows = pullback(F, om, X).rows
    assert rows[:, 0] == pytest.approx(X[:, 1]) and np.all(rows[:, 1] == 0.0)


def test_pullback_comass_bound():
    rng = np.random.default_rng(0)
    F = from_cover(planar_power(2), Annulus(np.zeros(2), 0.5, 2.0))
    om = natural_volume_form(2, 2)  # comass 1
    r = rng.uniform(0.6, 1.8, size=50)
    t = rng.uniform(0, 2 * np.pi, size=50)
    ys = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    lhs = np.abs(pullback(F, om, ys, verify_relabelings=0).rows[:, 0])  # comass of a 2-covector on R^2
    frame_norms = np.array([differential(F, y).frame_norm for y in ys])
    assert np.all(lhs <= frame_norms**2 * 1.0 + 1e-9)


def _one_form(d, c0, c1):
    return symmetrize(trace_form(polynomial_one_form(2, [MultiPoly(2, c0), MultiPoly(2, c1)]), d), GroupAction.full(2, d))


def test_split_pullback_identity_random():
    rng = np.random.default_rng(1)
    for d0, d1 in [(1, 1), (2, 1), (2, 2)]:
        pair = split_pair(rng, d0, d1)
        w0 = _one_form(d0, {(1, 0): 1.0}, {(0, 1): -0.5})
        w1 = _one_form(d1, {(0, 0): 1.0}, {(1, 1): 2.0})
        X = BOX.sample(rng, 25)
        lhs = pair.pullback(tensor_product(w0, w1), X).rows
        rhs = wedge_rows(pullback(pair.f0, w0, X).rows, pullback(pair.f1, w1, X).rows, 2, 1, 1)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_split_pullback_check_at_the_degree_cap():
    record = runner.run_check("split-pullback", {"points": 100, "shapes": [[16, 16]]}, 0)
    assert record.passed and record.metrics["max_deviation"] <= 1e-10


def split_pair(rng, d0, d1):
    return MultiValuedPair(*(from_affine_branches([(rng.normal(size=(2, 2)), rng.normal(size=2)) for _ in range(dj)], BOX, m=2) for dj in (d0, d1)))


def _assert_pullback_rows_are_batches_of_one(pull, omega, X):
    # every pulled-back row equals the pull-back of its point alone, bit for bit
    rows = pull(omega, X, verify_relabelings=0).rows
    assert rows.shape == (len(X), comb(X.shape[1], omega.degree))
    for x, row in zip(X, rows):
        assert np.array_equal(pull(omega, x, verify_relabelings=0).rows, row[None])
    return rows


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "finite-differences"])
def test_pullback_rows_are_batches_of_one(exact):
    F = from_cover(planar_power(3), Annulus(np.zeros(2), 0.5, 2.0))
    if not exact:
        F = MultiValuedMap(domain=F.domain, m=2, n=2, d=3, evaluate=F.evaluate)
    X = BOX.sample(np.random.default_rng(6), 40) + [1.2, 0.0]  # off the branch value
    for omega in (natural_volume_form(2, 3), _one_form(3, {(1, 0): 1.0, (0, 2): 0.3}, {(1, 1): -0.7})):
        rows = _assert_pullback_rows_are_batches_of_one(partial(pullback, F), omega, X)
        # and the per-point route: the covector at the branch values pulled back along the stacked differentials
        for x, row in zip(X[:5], rows):
            D = differential(F, x)
            assert np.array_equal(omega.at(D.values.reshape(-1)).pullback_linear(D.L.reshape(-1, 2)).row, row)


def test_pair_pullback_rows_are_batches_of_one():
    rng = np.random.default_rng(7)
    pair = split_pair(rng, 2, 2)
    tp = tensor_product(_one_form(2, {(1, 0): 1.0}, {(0, 1): -0.5}), _one_form(2, {(0, 0): 1.0}, {(1, 1): 2.0}))
    _assert_pullback_rows_are_batches_of_one(pair.pullback, tp, BOX.sample(rng, 30))


def test_pair_pulls_back_a_split_symmetrized_form():
    rng = np.random.default_rng(2)
    pair = split_pair(rng, 2, 1)
    w0 = trace_form(polynomial_one_form(2, [MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(0, 1): -0.5})]), 2)
    w1 = trace_form(polynomial_one_form(2, [MultiPoly(2, {(0, 0): 1.0}), MultiPoly(2, {(1, 1): 2.0})]), 1)
    tp = tensor_product(w0, w1)
    projected = symmetrize(tp, GroupAction.split(2, 2, 1))
    assert projected.invariance == ("split", 2, 1)
    X = BOX.sample(rng, 5)
    # tp is split-invariant already, so the projection fixes it
    assert np.abs(pair.pullback(projected, X).rows - pair.pullback(tp, X).rows).max() < 1e-12


def test_pair_pullback_of_a_non_invariant_form_fails_closed():
    rng = np.random.default_rng(3)
    pair = split_pair(rng, 2, 1)
    form = KForm.constant(KCovector(6, 2, rng.normal(size=15)), 2, 3, invariance=("split", 2, 1))
    X = BOX.sample(rng, 40)
    assert pair.pullback(form, X, verify_relabelings=0).relabeling_deviation == 0.0
    with pytest.raises(NumericalError, match="labeling-invariant"):
        pair.pullback(form, X, verify_relabelings=8)
    # each row draws its own relabeling: one round shared by all 40 rows would be
    # the identity, and pass, half the time
    for seed in range(20):
        with pytest.raises(NumericalError, match="labeling-invariant"):
            pair.pullback(form, X, verify_relabelings=1, rng=np.random.default_rng(seed))


def test_hodge_star_top():
    from almqr.forms import KCovector, volume_covector

    assert hodge_star_top(volume_covector(2)) == 1.0
    assert hodge_star_top(KCovector.elementary(2, (0, 1), -2.5)) == -2.5
    with pytest.raises(ValueError):
        hodge_star_top(KCovector.elementary(3, (0, 1)))


def test_generalized_inverse():
    for d in (2, 3, 4):
        f = planar_power(d)
        rng = np.random.default_rng(d)
        for _ in range(100):
            y = rng.normal(size=2)
            g = generalized_inverse(f, y)
            assert np.linalg.norm(g) < 1e-10
        # identity linking the generalized inverse to the fiber barycenter
        y = np.array([0.7, -0.2])
        from almqr.covers import minv

        assert np.allclose(generalized_inverse(f, y), f.degree * minv(f, y).barycenter(), atol=1e-12)
    assert np.allclose(generalized_inverse(planar_power(1), [0.3, 0.4]), [0.3, 0.4])


def test_gen_inverse_fd_gradient_stable():
    # difference quotients of the generalized inverse stay bounded under refinement
    f = precomposed(np.array([[1.4, 0.2], [0.0, 0.8]]), planar_power(2))
    base = np.array([0.9, 0.1])
    prev = None
    for h in (1e-3, 1e-4, 1e-5):
        gx = (generalized_inverse(f, base + [h, 0]) - generalized_inverse(f, base - [h, 0])) / (2 * h)
        gy = (generalized_inverse(f, base + [0, h]) - generalized_inverse(f, base - [0, h])) / (2 * h)
        grad = np.linalg.norm(np.stack([gx, gy]))
        assert np.isfinite(grad)
        if prev is not None:
            assert abs(grad - prev) < 1e-3 * max(1.0, prev)
        prev = grad


def test_qr_curve_equality_for_powers():
    # a conformal map: the verdict holds the ratio to 1 +- 1e-9 on the annulus 0.3 < |y| < 1.5
    for d in (2, 3):
        record = run_check("qr-curve", {"map": {"map": "power", "k": d}, "samples": 1000}, 0)
        assert record.passed
        assert record.thresholds == {"upper": 1 + 1e-9, "lower_if_sharp": 1 - 1e-9}
        assert record.metrics["max_ratio"] <= 1 + 1e-9
        assert record.metrics["min_ratio"] >= 1 - 1e-9


def test_qr_curve_affine_bounded():
    affine = {"map": "precompose", "affine": [[1.5, 0.2], [0.0, 0.8]], "base": {"map": "power", "k": 2}}
    record = run_check("qr-curve", {"map": affine, "samples": 500}, 1)
    assert record.passed
    assert record.thresholds == {"upper": 1 + 1e-6, "lower_if_sharp": None}


def test_qr_curve_default_config_with_numpy_distortion_constants(monkeypatch):
    # a K_I of numpy's float type derives a numpy boolean for sharp, which the schema must take as a flag
    stub = dataclasses.replace(planar_power(2), K_I=np.float64(1.2), K_O=np.float64(1.2))
    monkeypatch.setattr(runner, "build_map", lambda spec: stub)
    record = run_check("qr-curve", {}, 0)
    assert record.passed
    assert record.thresholds == {"upper": 1 + 1e-6, "lower_if_sharp": None}


def _qr_ratios_per_point(f, region, n_samples, seed, margin_frac=1e-3):
    """qr_curve_check's ratios from the scalar branch differentials, one point at a time."""
    ys = region.sample(np.random.default_rng(np.random.SeedSequence([seed, 7])), n_samples)
    const = f.degree ** (f.n / 2 - 1) * f.K_I
    ratios = []
    for y in ys[f.branch_value_distance(ys) > margin_frac * region.diameter()]:
        _, _, L = branch_differentials(f, y)
        frame_sq = sum(np.linalg.svd(Lj, compute_uv=False)[0] ** 2 for Lj in L)
        star = sum(np.linalg.det(Lj) for Lj in L)
        ratios.append(frame_sq ** (f.n / 2) / (const * star))
    return np.array(ratios)


@pytest.mark.parametrize(
    "f, region",
    [
        (winding_map_3d(2), Box([-1.4, -1.4, -0.9], [1.4, 1.4, 0.9])),
        (precomposed(np.array([[1.5, 0.2], [0.0, 0.8]]), planar_power(2)), Annulus(np.zeros(2), 0.3, 1.5)),
    ],
    ids=["wind3", "affine"],
)
def test_qr_curve_batch_matches_per_point(f, region):
    rep = qr_curve_check(f, region, n_samples=400, seed=3)
    ref = _qr_ratios_per_point(f, region, 400, 3)
    assert rep["n_used"] == len(ref)
    for key, value in (("max_ratio", ref.max()), ("min_ratio", ref.min()), ("mean_ratio", ref.mean())):
        assert rep[key] == pytest.approx(value, rel=1e-12)


def test_qr_curve_identity():
    rep = qr_curve_check(planar_power(1), Annulus(np.zeros(2), 0.3, 1.5), n_samples=200, seed=2)
    assert rep["max_ratio"] == pytest.approx(1.0, abs=1e-12)


def _synthetic(d=2, rho=0.5):
    dirs = np.array([[np.cos(2 * np.pi * j / d), np.sin(2 * np.pi * j / d)] for j in range(d)])

    def ev(X):
        c = np.stack([X[:, 0], 0.5 * X[:, 1]], axis=1)
        s = np.maximum(0.0, (X * X).sum(axis=1) - rho * rho)
        return sorted_tuples(c[:, None, :] + s[:, None, None] * dirs)

    return MultiValuedMap(domain=BOX, m=2, n=2, d=d, evaluate=ev)


def test_interpolation_properties():
    rng = np.random.default_rng(2)
    F = _synthetic(2)
    X = BOX.sample(rng, 1500)
    Y = BOX.sample(rng, 1500)
    norm = np.linalg.norm(X - Y, axis=1)
    L = np.max(distance_values(F.evaluate(X), F.evaluate(Y)) / norm) * 1.05
    F.lipschitz_bound = L
    eps = 0.1
    G, info = interpolate_feps(F, eps, cloud_size=3000, seed=0)
    assert G.provenance == "interpolated"
    assert 0 < info["member_fraction"] < 1
    # diagonal on the coincidence sublevel set
    members = X[:400][distances_to_diagonal(sorted_tuples(F.evaluate(X[:400]))) < eps]
    assert len(members) and all(len(G(x).weights) == 1 for x in members)
    # uniform closeness and Lipschitz inflation
    dev = np.max(distance_values(G.evaluate(X[:800]), F.evaluate(X[:800])))
    assert dev <= 2 * L * eps * (1 + 1e-9)
    lipG = np.max(distance_values(G.evaluate(X[:800]), G.evaluate(Y[:800])) / norm[:800])
    assert lipG <= (3 + 2 * 2) * L * (1 + 1e-9)


def test_interpolation_large_eps_covers_domain():
    F = _synthetic(2)
    F.lipschitz_bound = 10.0
    G, info = interpolate_feps(F, 100.0, cloud_size=500, seed=0)
    assert info["covers_domain"]
    # globally diagonal
    assert len(G(np.array([0.9, 0.9])).weights) == 1


def test_interpolation_requires_lipschitz_bound():
    F = _synthetic(2)
    with pytest.raises(ValueError):
        interpolate_feps(F, 0.1)
    with pytest.raises(ValueError):
        interpolate_feps(F, -1.0, L=1.0)


def _assert_rows_are_batches_of_one(F, X):
    # evaluate (P, m) -> (P, d, n) in sorted_tuples form, and F(x) its batch of one, bit for bit
    T = F.evaluate(X)
    assert T.shape == (len(X), F.d, F.n)
    assert np.array_equal(T, sorted_tuples(T))
    for x, row in zip(X, T):
        assert np.array_equal(F(x).expand(), row)
        assert np.array_equal(F.evaluate(x[None])[0], row)


def test_affine_branches_evaluate_in_batches():
    rng = np.random.default_rng(3)
    F = from_affine_branches([(rng.normal(size=(2, 2)), rng.normal(size=2)) for _ in range(3)], BOX, m=2)
    X = BOX.sample(rng, 50)
    _assert_rows_are_batches_of_one(F, X)
    # the values are the exact branches, reordered
    assert np.array_equal(F.evaluate(X), sorted_tuples(F.exact_branches(X)[0]))
    # coincident branches merge into one location of weight 2
    A, b = rng.normal(size=(2, 2)), rng.normal(size=2)
    G = from_affine_branches([(A, b), (A, b), (-A, b)], BOX, m=2)
    assert sorted(G(X[0]).weights.tolist()) == [1, 2]


def test_interpolated_map_evaluates_in_batches():
    rng = np.random.default_rng(5)
    F = _synthetic(3)
    F.lipschitz_bound = 2.0
    G, info = interpolate_feps(F, 0.1, cloud_size=800, seed=1)
    assert 0 < info["member_fraction"] < 1
    X = BOX.sample(rng, 300)
    _assert_rows_are_batches_of_one(G, X[:60])
    # rows blended toward the diagonal, rows left alone, and rows on the sublevel set
    GX, FX = G.evaluate(X), F.evaluate(X)
    same = np.all(GX == FX, axis=(1, 2))
    diagonal = np.all(GX == GX[:, :1], axis=(1, 2))
    assert same.any() and (~same & ~diagonal).any() and (diagonal & ~same).any()
