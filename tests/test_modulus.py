"""Discrete modulus, geometric quasiconformality and measure checks."""

import dataclasses
import json

import modulus_reference
import numpy as np
import pytest
from ahlfors_reference import ahlfors_box_sampler

from almqr import modulus, runner
from almqr import kernels
from almqr.covers import (
    CoverError,
    NumericalError,
    complex_polynomial,
    ball_reach,
    det,
    minv,
    minv_batch,
    build_map,
    planar_power,
    precomposed,
)
from almqr.modulus import (
    TOL_GAP,
    CurveFamily,
    Grid2D,
    _rasterize,
    ahlfors_sampler,
    area_formula_check,
    build_family,
    circle_family,
    discrete_modulus,
    metric_jacobian_values,
    metric_qc_check,
    preimage_measure_check,
    pushforward_modulus_check,
    radial_family,
    ring_modulus_exact,
)
from almqr.regions import Annulus, Box

ANN = Annulus(np.zeros(2), 1.0, np.e)
Z2 = {"map": "power", "k": 2}


def _affine(a):
    """The spec of the map z^2 after the linear map a."""
    return {"map": "precompose", "affine": a, "base": Z2}


def test_ring_modulus_converges():
    vals = {}
    for grid, M in [(64, 256), (128, 512)]:
        res = discrete_modulus(radial_family(ANN, M), ANN, grid=grid)
        vals[grid] = res.value
        assert res.gap < 1e-3 * res.value  # duality certificate
    exact = ring_modulus_exact(1.0, np.e)
    assert abs(vals[128] - exact) / exact < 0.05
    # stabilization between the two finest grids
    assert abs(vals[128] - vals[64]) / exact < 0.05


def test_circle_family_conjugate_value():
    # separating circles: continuum modulus log(R) / (2 pi)
    res = discrete_modulus(circle_family(ANN, 128), ANN, grid=128)
    exact = np.log(np.e) / (2 * np.pi)
    assert abs(res.value - exact) / exact < 0.05


def test_modulus_monotone_in_family():
    fam_small = radial_family(ANN, 64)
    fam_big = CurveFamily(fam_small.polylines + radial_family(ANN, 128).polylines)
    a = discrete_modulus(fam_small, ANN, grid=64)
    b = discrete_modulus(fam_big, ANN, grid=64)
    assert b.value >= a.value - 1e-6 * a.value


def test_single_segment_tube_modulus():
    # one straight segment: the optimal density is the tube around it,
    # value ~ h / len under refinement
    box = Box([0.0, 0.0], [1.0, 1.0])
    seg = CurveFamily([np.array([[0.1, 0.5], [0.9, 0.5]])])
    prev = None
    for grid in (32, 64, 128):
        res = discrete_modulus(seg, box, grid=grid)
        h = 1.0 / grid
        hand = h / 0.8
        assert res.value == pytest.approx(hand, rel=0.2)
        if prev is not None:
            assert res.value < prev
        prev = res.value


def test_zero_length_curve_rejected():
    with pytest.raises(ValueError):
        CurveFamily([np.array([[0.5, 0.5], [0.5, 0.5]])])


def test_family_dsl():
    fam = build_family({"family": "radial", "count": 32}, ANN, 8)
    assert len(fam) == 32
    fam2 = build_family("circles", ANN, 8)
    assert fam2.name == "circles"
    assert len(fam2) == 8  # no count in the spec: the caller's
    fam3 = build_family({"family": "polylines", "paths": [[[1.0, 0.0], [2.0, 0.0]]]}, ANN, 8)
    assert len(fam3) == 1
    with pytest.raises(ValueError):
        build_family({"family": "bogus"}, ANN, 8)


# geom-qc on the radial family of ANN (its default region), smaller than the defaults
GEOM_QC = {"family": {"family": "radial", "count": 256}, "grid": 96, "lift_steps": 64}


def test_pushforward_modulus_identity_and_square():
    rep = pushforward_modulus_check(planar_power(1), radial_family(ANN, 256), ANN, grid=96, lift_steps=64)
    assert abs(rep["ratio"] - 1.0) < 0.05
    record = runner.run_check("geom-qc", {"map": Z2, **GEOM_QC})
    assert record.passed
    m = record.metrics
    assert abs(m["ratio"] - 1.0) < 0.05
    # the report carries what the verdict reads: the lift failures and both solves' certificates
    assert m["lift_failures"] == 0 and record.thresholds["tol_gap"] == TOL_GAP
    for solve, value in (("base_diag", m["mod_base"]), ("image_diag", m["mod_image"])):
        assert sorted(m[solve]) == ["converged", "gap", "iterations"]
        assert m[solve]["converged"] is True and 0 < m[solve]["iterations"] < 4000
        assert m[solve]["gap"] <= TOL_GAP * value


def test_pushforward_modulus_affine_band():
    lam = 1.3
    record = runner.run_check("geom-qc", {"map": _affine([[lam, 0.0], [0.0, 1.0 / lam]]), **GEOM_QC})
    K = record.metrics["K_I_K_O"]
    assert K == pytest.approx(lam**4)
    assert record.passed


def _rasterize_reference(polylines, grid, seg_values=None):
    """The per-segment loop: one cell_of call per segment."""
    hmin = float(grid.h.min())
    rows, cols, vals = [], [], []
    for ci, pts in enumerate(polylines):
        seg = np.diff(pts, axis=0)
        seg_len = np.linalg.norm(seg, axis=1)
        mass = seg_len if seg_values is None else seg_values[ci]
        for k in range(len(seg)):
            if seg_len[k] == 0:
                continue
            nsub = max(1, int(np.ceil(seg_len[k] / (hmin / 3.0))))
            t = (np.arange(nsub) + 0.5) / nsub
            rows.append(np.full(nsub, ci, dtype=np.int64))
            cols.append(grid.cell_of(pts[k] + t[:, None] * seg[k]))
            vals.append(np.full(nsub, mass[k] / nsub))
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    key = rows * (grid.ncells**2) + cols
    order = np.argsort(key, kind="stable")
    key, rows, cols, vals = key[order], rows[order], cols[order], vals[order]
    boundary = np.concatenate([[True], key[1:] != key[:-1]])
    first = np.flatnonzero(boundary)
    return rows[first], cols[first], np.bincount(np.cumsum(boundary) - 1, weights=vals)


def test_rasterize_matches_per_segment_loop():
    rng = np.random.default_rng(5)
    grid = Grid2D(ANN.bbox(), 64)
    curves = radial_family(ANN, 16).polylines + circle_family(ANN, 3, vertices=90).polylines
    curves.append(np.array([[1.0, 0.0], [1.5, 0.5], [1.5, 0.5], [2.0, -1.0], [2.0, -1.0001]]))  # a zero-length segment
    values = [rng.uniform(0.5, 2.0, len(p) - 1) for p in curves]
    for seg_values in (None, values):
        got = _rasterize(curves, grid, seg_values=seg_values)
        ref = _rasterize_reference(curves, grid, seg_values=seg_values)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 64, 400, 1 << 16])
def test_rasterize_groups_of_curves_keep_the_bytes(monkeypatch, chunk):
    # groups of whole curves, each starting in its own window of `chunk`
    # sub-samples: every grouping gives the per-segment loop's bytes
    rng = np.random.default_rng(6)
    grid = Grid2D(ANN.bbox(), 32)
    curves = radial_family(ANN, 9).polylines + circle_family(ANN, 2, vertices=40).polylines
    # zero-length segments first and last in a curve, so they sit on a group's edge,
    # and a curve of only zero-length segments, which deposits nothing
    curves.insert(3, np.array([[1.0, 0.0], [1.0, 0.0], [1.5, 0.5], [2.0, -1.0], [2.0, -1.0]]))
    curves.insert(5, np.array([[0.5, 0.5], [0.5, 0.5]]))
    curves.append(np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.2, 1.3]]))
    values = [rng.uniform(0.5, 2.0, len(p) - 1) for p in curves]
    monkeypatch.setattr(modulus, "RASTER_CHUNK", chunk)
    for seg_values in (None, values):
        got = _rasterize(curves, grid, seg_values=seg_values)
        ref = _rasterize_reference(curves, grid, seg_values=seg_values)
        assert 5 not in got[0] and 3 in got[0]
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    with pytest.raises(ValueError, match="segment masses"):
        _rasterize(curves, grid, seg_values=values[:-1] + [values[-1][:1]])


def _weight(ys):
    return 1.0 + 0.1 * ys[:, 0] ** 2


SEG_FAMILY = radial_family(ANN, 40)
# each long curve holds a short one, so its constraint is slack and its multiplier tends to 0; the
# extrapolated dual point then has A^T y < 0 in the cells that only long curves cross
NESTED_FAMILY = CurveFamily(
    [np.array([[-1.5, y], [-0.5, y]]) for y in np.linspace(-1.5, 1.5, 8)]
    + [np.array([[-1.5, y], [1.5, y + 0.1]]) for y in np.linspace(-1.5, 1.5, 8)]
)
INTERVAL_CASES = {
    "radial-48@32": (radial_family(ANN, 48), 32, {}),
    "radial-48@32-weighted": (radial_family(ANN, 48), 32, {"cell_weight": _weight}),
    "radial-256@64": (radial_family(ANN, 256), 64, {}),
    "circles-12@48": (circle_family(ANN, 12, vertices=180), 48, {}),
    "radial-40@40-seg-values": (
        SEG_FAMILY, 40, {"seg_values": [np.array([1.0 + 0.5 * np.sin(i)]) for i in range(len(SEG_FAMILY))]}
    ),
    "radial-48@32-n3": (radial_family(ANN, 48), 32, {"n": 3.0}),
    "radial-48@32-n1.5": (radial_family(ANN, 48), 32, {"n": 1.5}),
    "nested-16@32-n3": (NESTED_FAMILY, 32, {"n": 3.0}),
}


@pytest.mark.parametrize("case", list(INTERVAL_CASES))
def test_certified_intervals_of_the_old_and_new_ascent_overlap(case):
    # each solver brackets the same discrete optimum by [dual_value, value], the dual
    # value of a nonnegative iterate below it and the mass of a feasible density above,
    # so each interval holds the optimum that certifies the other's, and they overlap
    family, grid, kwargs = INTERVAL_CASES[case]
    new = discrete_modulus(family, ANN, grid=grid, **kwargs)
    old = modulus_reference.discrete_modulus(family, ANN, grid=grid, **kwargs)
    for res in (new, old):
        assert res.dual_value <= res.value and res.gap == res.value - res.dual_value
    assert old.dual_value <= new.value and new.dual_value <= old.value
    assert new.converged and new.gap <= TOL_GAP * new.value


def test_modulus_of_curves_sharing_no_cell_is_the_closed_form():
    # curves in disjoint cells decouple: each is admissible alone, with density
    # l_c / V_c scaled to integral 1, so Mod = sum over curves of 1 / sum_c (l_c^2 / V_c)
    box = Box([0.0, 0.0], [1.0, 1.0])
    ys = (np.arange(8) + 0.5) / 8
    family = CurveFamily(
        [np.array([[0.1, y], [0.3 + 0.08 * i, y + 0.02 * (i % 3)]]) for i, y in enumerate(ys)]
        + [np.array([[0.95, 0.05], [0.95, 0.5], [0.9, 0.9]])]
    )
    grid = Grid2D(box, 64)
    rows, cols, vals = _rasterize(family.polylines, grid)
    assert len(np.unique(cols)) == len(cols)  # no cell is shared
    for kwargs, weight in (({}, np.ones(len(cols))), ({"cell_weight": _weight}, _weight(grid.centers(cols)))):
        V = grid.cell_volume() * weight
        closed = float((1.0 / np.bincount(rows, weights=vals**2 / V)).sum())
        res = discrete_modulus(family, box, grid=64, **kwargs)
        assert res.converged and res.gap <= TOL_GAP * res.value
        assert res.dual_value * (1 - 1e-12) <= closed <= res.value * (1 + 1e-12)


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0])
def test_every_exponent_is_certified_within_100_iterations(n):
    # one loop serves every exponent; the old backtracking branch (n != 2) never stopped before 110
    for kwargs in ({}, {"cell_weight": _weight}):
        res = discrete_modulus(radial_family(ANN, 48), ANN, grid=32, n=n, **kwargs)
        assert res.converged and res.iterations < 100
        assert res.gap <= TOL_GAP * res.value


def test_non_finite_cell_weight_fails_closed():
    # a NaN weight makes the dual gradient NaN: a numerical failure, not max_iters of NaN steps
    def weight(ys):
        return np.where(ys[:, 0] > 2.0, np.nan, 1.0)

    for n in (2.0, 3.0):
        with pytest.raises(NumericalError):
            discrete_modulus(radial_family(ANN, 48), ANN, grid=32, n=n, cell_weight=weight)


@pytest.mark.parametrize("n", [1.5, 3.0, 4.0])
def test_ring_modulus_exact_is_the_quadrature_of_the_radial_density(n):
    # the radial family's n-modulus is 2 pi (int r^(-1/(n-1)) dr)^(1-n) over r_in < r < r_out
    for r_in, r_out in ((1.0, np.e), (0.5, 2.0)):
        x, w = np.polynomial.legendre.leggauss(60)
        r = 0.5 * (r_out - r_in) * x + 0.5 * (r_out + r_in)
        integral = 0.5 * (r_out - r_in) * float(w @ r ** (-1.0 / (n - 1.0)))
        assert ring_modulus_exact(r_in, r_out, n) == pytest.approx(2 * np.pi * integral ** (1.0 - n), rel=1e-12)
    # at n = 2 it stays 2 pi / log R, and n -> 2 tends to it
    assert ring_modulus_exact(1.0, np.e, 2.0) == ring_modulus_exact(1.0, np.e) == 2 * np.pi
    assert ring_modulus_exact(1.0, np.e, 2.0 + 1e-7) == pytest.approx(2 * np.pi, rel=1e-6)


@pytest.mark.parametrize("grid", [64, 128])
def test_dense_radial_families_converge_within_max_iters(grid):
    # 1,024 curves over 64^2 or 128^2 cells: the old ascent stopped unconverged at 4,000 iterations
    res = discrete_modulus(radial_family(ANN, 1024), ANN, grid=grid)
    assert res.converged and res.iterations < 4000
    assert res.gap <= TOL_GAP * res.value


def test_pushforward_modulus_fails_closed_on_lift_failures(monkeypatch):
    f = planar_power(2)

    def fiber_batch(ys):  # the stub cannot invert a band of the plane: NaN fibers there
        return np.where((ys[:, 1] > 1.5)[:, None, None], np.nan, f.fiber_batch(ys))

    stub = dataclasses.replace(f, fiber_batch=fiber_batch)
    monkeypatch.setattr(runner, "build_map", lambda spec: stub)
    config = {"family": {"family": "radial", "count": 64}, "grid": 64, "slack": 10.0, "lift_steps": 32}
    record = runner.run_check("geom-qc", config)
    assert 0 < record.excluded < 64  # the lift failures
    m = record.metrics
    assert m["bound_lo"] <= m["ratio"] <= m["bound_hi"]  # the ratio alone would pass
    assert not record.passed


def test_modulus_verdicts_fail_closed_on_non_convergence(monkeypatch):
    fam = radial_family(ANN, 64)
    res = discrete_modulus(fam, ANN, grid=64)
    assert res.converged and res.to_json()["converged"] is True
    # every unconverged case stops far from the tolerance (a relative gap of about 2.5e-2
    # after 3 iterations here), so a solver that certifies sooner leaves it unconverged
    short = discrete_modulus(fam, ANN, grid=64, max_iters=3)
    assert not short.converged and short.iterations == 3 and short.gap > 100 * TOL_GAP * short.value
    # 1,024 curves at n = 3 leave a relative gap of about 2e-2 after 10 iterations
    dense = discrete_modulus(radial_family(ANN, 1024), ANN, grid=64, n=3.0, max_iters=10)
    assert not dense.converged and dense.iterations == 10 and dense.gap > 1e-3 * dense.value
    # both verdicts that rest on the solver need it converged, however loose the tolerance
    solves = []

    def stopped_early(*args, **kwargs):
        solves.append(discrete_modulus(*args, max_iters=3, **kwargs))
        return solves[-1]

    monkeypatch.setattr(runner, "discrete_modulus", stopped_early)
    monkeypatch.setattr(modulus, "discrete_modulus", stopped_early)
    family = {"family": "radial", "count": 64}
    ring = runner.run_check("modulus", {"grid": 64, "family": family, "tol": 10.0})
    assert ring.metrics["converged"] is False and not ring.passed
    qc = runner.run_check("geom-qc", {"grid": 64, "family": family, "slack": 10.0, "lift_steps": 32})
    assert not qc.passed
    assert len(solves) == 3 and all(r.gap > 100 * TOL_GAP * r.value for r in solves)


def test_upper_gradient_conformal_and_distorted():
    # 8 radial curves of the default region 0.5 < |y| < 1.5, at the default tol 1e-6
    small = {"family": {"family": "radial", "count": 8}, "samples_per_curve": 32}
    for k in (1, 2, 3):
        record = runner.run_check("upper-gradient", {"map": {"map": "power", "k": k}, **small})
        assert record.passed
        assert record.metrics["violation_fraction"] == 0.0
    assert runner.run_check("upper-gradient", {"map": _affine([[1.4, 0.1], [0.0, 0.75]]), **small}).passed


def test_area_formula_and_energy():
    E = Annulus(np.zeros(2), 1.0, 4.0)
    for d in (2, 3):
        f = planar_power(d)
        pre = Annulus(np.zeros(2), 1.0 ** (1 / d), 4.0 ** (1 / d))
        rep = area_formula_check(f, lambda X: np.ones(len(X)), E, pre, orders=(16, 32))
        assert rep["rel_discrepancy"] < 1e-6
        rep2 = area_formula_check(f, lambda X: np.einsum("ij,ij->i", X, X), E, pre, orders=(16, 32))
        assert rep2["rel_discrepancy"] < 1e-6
    # the image annulus E and its preimage 1 < |x| < 2 under z^2
    eb = runner.run_check("energy", {"map": Z2, "image_annulus": [1.0, 4.0], "order": 32})
    assert eb.passed
    # the conformal case is sharp: the bound is attained up to quadrature error
    assert abs(eb.metrics["slack"]) < 1e-6 * eb.metrics["bound"]


def test_area_formula_identity_exact():
    E = Annulus(np.zeros(2), 0.5, 1.5)
    rep = area_formula_check(planar_power(1), lambda X: X[:, 0] ** 2 + 1.0, E, E, orders=(8, 16))
    assert rep["rel_discrepancy"] < 1e-12


def test_ahlfors_identity_and_square():
    outs = ahlfors_sampler(planar_power(1), [np.array([0.6, 0.1])], [0.05, 0.1], n_samples=20000, seed=0)
    for s in outs:
        # d = 1: the measure is exactly pi r^2, the ratio exactly 1 in expectation
        assert s.ratio == pytest.approx(1.0, abs=4 * s.ratio_ci / 3 + 1e-3)
    outs2 = ahlfors_sampler(planar_power(2), [np.array([1.0, 0.0])], [0.05], n_samples=20000, seed=1)
    for s in outs2:
        assert s.ratio <= 1.0 + s.ratio_ci


def _square_draws(f, y0, r, N, seed, ic=0, ir=0):
    """The draws of the sampler's ball (ic, ir), from its stream: the binomial count of the
    box draws in the reach square, then that many points on the square; and its half-width."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11, ic, ir]))
    half = float(np.sqrt(ball_reach(f, minv(f, y0).expand(), r) ** 2 * (1.0 + modulus.REACH_SLACK)))
    m = rng.binomial(N, 1.0 / modulus.BOX_FACTOR**2)
    return rng.uniform(y0 - half, y0 + half, size=(m, 2)), half


def test_ahlfors_density_reads_the_fibers_of_its_own_samples():
    # one ball recomputed from the sampler's own draws with the closed-form
    # density of z^2, H(y)^2 = 1 / (2|y|): a Jacobian taken from other rows moves it.
    # The box draws outside the reach square are never made; their density is 0
    f, y0, r, N = planar_power(2), np.array([1.0, 0.0]), 0.05, 20000
    (s,) = ahlfors_sampler(f, [y0], [r], n_samples=N, seed=1)
    ys, half = _square_draws(f, y0, r, N, 1)
    inside = kernels.dist_sq_one_to_many(minv(f, y0).expand(), minv_batch(f, ys)) < r * r
    density = np.zeros(N)
    density[: len(ys)] = np.where(inside, 0.5 / np.hypot(ys[:, 0], ys[:, 1]), 0.0)
    vol_box = (2 * modulus.BOX_FACTOR * half) ** 2
    assert s.in_ball == inside.sum() > 0
    assert s.measure == pytest.approx(vol_box * density.mean(), rel=1e-12)
    assert s.ci_halfwidth == pytest.approx(3 * vol_box * density.std(ddof=1) / np.sqrt(N), rel=1e-12)


def _metric_jacobian_reference(L: np.ndarray) -> np.ndarray:
    """The Gram route on C-ordered (P, d) products, each summed along its row."""
    L = np.ascontiguousarray(L)
    n = L.shape[-1]
    G = np.empty((len(L), n, n))
    for i, l in zip(*np.triu_indices(n)):
        col = L[..., 0, i] * L[..., 0, l]
        for k in range(1, n):
            col += L[..., k, i] * L[..., k, l]
        G[:, i, l] = G[:, l, i] = col.sum(axis=1)
    return np.sqrt(np.maximum(det(G), 0.0))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", range(1, 10))
def test_metric_jacobian_values_equal_the_row_sum_route_bit_for_bit(d, n):
    # planes summed down axis 0 for d < 8, (P, d) rows summed pairwise from 8 on:
    # both equal the row sums of C-ordered products, whatever the layout of L
    rng = np.random.default_rng(10 * d + n)
    P = 600
    L = rng.normal(size=(P, d, n, n)) * 10.0 ** rng.integers(-3, 4, size=(P, d, 1, 1))
    ref = _metric_jacobian_reference(L)
    X = rng.normal(size=(P, d, n))
    layouts = {
        "C": L,
        "plane-major": np.ascontiguousarray(L.transpose(2, 3, 1, 0)).transpose(3, 2, 0, 1),
        "(P, d) planes": np.ascontiguousarray(L.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1),
        "Fortran": np.asfortranarray(L),
    }
    for name, Ll in layouts.items():
        assert np.array_equal(Ll, L)
        stub = dataclasses.replace(planar_power(1), n=n, degree=d, branch_diff_batch=lambda X, Ll=Ll: Ll)
        got = metric_jacobian_values(stub, X)
        assert got.tobytes() == ref.tobytes(), name


MAPS = {
    "identity": planar_power(1),
    "z2": planar_power(2),
    "z3": planar_power(3),
    "z3-3z": complex_polynomial([0.0, -3.0, 0.0, 1.0]),
    "precompose": precomposed(np.array([[1.4, 0.2], [0.0, 0.8]]), planar_power(2), [0.3, -0.1]),
}
CENTERS = [[0.6, 0.1], [-1.3, 0.9], [-1.9, 0.05]]


def _ahlfors_lifting_every_row(f, centers, radii, N, seed):
    """``OmegaFSample.to_json()`` of each ball, from the sampler's draws with every row lifted."""
    const = modulus.UNIT_BALL_VOLUME[2] * f.degree ** 1.0 * f.K_I * f.K_O
    out = []
    for ic, y0 in enumerate(centers):
        z = minv(f, y0)
        zC = z.expand()
        for ir, r in enumerate(radii):
            ys, half = _square_draws(f, y0, r, N, seed, ic, ir)
            fibers = minv_batch(f, ys)
            inside = kernels.dist_sq_one_to_many(zC, fibers) < r * r
            vals = metric_jacobian_values(f, fibers[inside])
            mean = float(vals.sum()) / N
            var = (float(((vals - mean) ** 2).sum()) + (N - len(vals)) * mean**2) / (N - 1)
            vol_box = (2.0 * modulus.BOX_FACTOR * half) ** 2
            est, sd = vol_box * mean, vol_box * float(np.sqrt(var / N))
            out.append(
                {
                    "center": z.to_json(),
                    "radius": float(r),
                    "measure": est,
                    "ci_halfwidth": 3.0 * sd,
                    "ratio": est / (const * r**2),
                    "ratio_ci": 3.0 * sd / (const * r**2),
                    "in_ball": int(inside.sum()),
                }
            )
    return out


@pytest.mark.parametrize("f", list(MAPS.values()), ids=list(MAPS))
def test_ahlfors_lifting_the_certified_reach_equals_lifting_every_row(f):
    # the sampler lifts only the rows within ball_reach of the center; the
    # reference lifts every row of the same draws, so the bytes must agree
    centers = [np.array(y0) for y0 in CENTERS]
    radii = [0.2, 0.05, 1e-3, 1e-6]
    lifted = []

    def fiber_batch(ys):
        lifted.append(len(ys))
        return f.fiber_batch(ys)

    got = ahlfors_sampler(dataclasses.replace(f, fiber_batch=fiber_batch), centers, radii, n_samples=4000, seed=3)
    ref = _ahlfors_lifting_every_row(f, centers, radii, 4000, 3)
    for s, sample in zip(got, ref, strict=True):
        assert sample["in_ball"] > 0
        assert json.dumps(s.to_json()) == json.dumps(sample)
    assert sum(lifted) < len(ref) * 4000  # some rows were never lifted


def _within(radius):
    return lambda ys: np.hypot(ys[:, 0], ys[:, 1]) < radius


def test_ahlfors_reach_square_leaving_the_image_fails_closed():
    # the reach square of the ball of radius 0.05 around minv(1, 0) reaches |y| = 1.077
    # at its corners, and the box around it |y| = 1.13
    f, y0 = planar_power(2), np.array([1.0, 0.0])
    with pytest.raises(CoverError, match="outside the image"):
        ahlfors_sampler(dataclasses.replace(f, contains_image=_within(1.06)), [y0], [0.05], n_samples=2000, seed=0)
    # an image boundary that cuts only the box outside the square: no point there can be in
    # the ball, and none is drawn, so the estimate is the whole plane's
    got = ahlfors_sampler(dataclasses.replace(f, contains_image=_within(1.1)), [y0], [0.05], n_samples=2000, seed=0)
    assert [s.to_json() for s in got] == [s.to_json() for s in ahlfors_sampler(f, [y0], [0.05], 2000, seed=0)]


def test_ahlfors_estimate_has_the_law_of_the_box_sampler():
    # the square draws against the whole-box reference over 200 seeds of one ball:
    # the mean measure, interval and in-ball count agree within 4 standard errors
    f, centers, radii, N = planar_power(2), [np.array([1.0, 0.3])], [0.1], 1000
    new = [ahlfors_sampler(f, centers, radii, N, seed)[0] for seed in range(200)]
    old = [ahlfors_box_sampler(f, centers, radii, N, seed)[0] for seed in range(200)]
    for key in ("measure", "ci_halfwidth", "in_ball"):
        a, b = (np.array([getattr(s, key) for s in side], dtype=float) for side in (new, old))
        se = np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        assert abs(a.mean() - b.mean()) <= 4 * se, key


REACH_CASES = [(name, y0) for name in MAPS for y0 in CENTERS] + [("z2", [0, 0]), ("z3-3z", [2, 0]), ("z3-3z", [-2, 0])]


@pytest.mark.parametrize("name, y0", REACH_CASES, ids=[f"{name}@{y0[0]:g},{y0[1]:g}" for name, y0 in REACH_CASES])
def test_every_sample_in_the_ball_lies_in_the_reach_disc(name, y0):
    # the certificate behind the sampling box: draws over a box 4 times the reach,
    # every row lifted, and each row whose fiber is in the ball lies within the reach.
    # At the critical values +-2 of z^3 - 3z the global df_bound of a polynomial gives a
    # reach far beyond the ball, so only the largest radius lands draws in it there
    f, y0 = MAPS[name], np.array(y0, dtype=float)
    zC = minv(f, y0).expand()
    n_inside = 0
    for i, r in enumerate([0.2, 0.05, 1e-3]):
        reach = ball_reach(f, zC, r)
        ys = y0 + 4.0 * reach * np.random.default_rng(i).uniform(-1.0, 1.0, size=(20000, 2))
        inside = kernels.dist_sq_one_to_many(zC, minv_batch(f, ys)) < r * r
        n_inside += inside.sum()
        assert (((ys[inside] - y0) ** 2).sum(axis=1) < reach**2).all()
    assert n_inside > 0


@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_ahlfors_at_a_branch_value(seed):
    # at the branch value 0 of z^k the ball of radius r is {|y| < r^k / k^(k/2)}, of measure
    # pi r^2 / k under the area formula against the bound pi k r^2: the ratio is 1 / k^2 exactly.
    # The density, proportional to |y|^-(2 - 2/k), has infinite variance there, so ratio_ci does
    # not bound the error; 15% is pinned against a worst of 11.2% over 24 seeds at these radii
    record = runner.run_check("ahlfors", {"center_points": [[0, 0]], "radii_list": [0.2, 0.1, 0.05]}, seed)
    assert record.passed
    for row in record.metrics["rows"]:
        assert row["ratio"] == pytest.approx(0.25, rel=0.15)
    z3 = {"map": {"map": "power", "k": 3}, "center_points": [[0, 0]], "radii_list": [0.2, 0.1, 0.05]}
    assert runner.run_check("ahlfors", z3, seed).passed


AFFINE = np.array([[1.5, 0.2], [0.0, 0.8]])


@pytest.mark.parametrize(
    "spec, h_limit",
    [
        (Z2, 1.0),
        ({"map": "poly", "coeffs": [0, -3, 0, 1]}, 1.0),
        # a conformal base: the squared distortion of the affine part
        (_affine(AFFINE.tolist()), np.linalg.cond(AFFINE) ** 2),
    ],
    ids=["z2", "z3-3z", "affine"],
)
def test_metric_qc_rows(spec, h_limit):
    f = build_map(spec)
    record = runner.run_check("metric-qc", {"map": spec, "y": [1.0, 0.0], "radii": [0.1, 0.05, 0.02]})
    assert record.passed
    rep = record.metrics
    assert all(row["pass"] for row in rep["rows"])
    hs = [row["H_minv_sq"] for row in rep["rows"]]
    # the branches are locally linear: the distortion tends to that of Df^-1 as r shrinks
    assert hs[-1] < hs[0]
    assert hs[-1] == pytest.approx(h_limit, rel=0.05)
    # one term per distinct fiber point, none below 1
    assert all(row["sum_H_star_sq"] >= len(minv(f, [1.0, 0.0]).locations) for row in rep["rows"])


def test_metric_qc_identity():
    rid = metric_qc_check(planar_power(1), np.array([0.3, 0.2]), [0.1])
    assert rid["rows"][0]["H_minv_sq"] == pytest.approx(1.0, abs=1e-6)
    assert rid["rows"][0]["sum_H_star_sq"] == pytest.approx(1.0, abs=1e-6)


def test_metric_qc_at_a_branch_value():
    # one fiber point of local index 2: each circle point lifts to two points near it
    record = runner.run_check("metric-qc", {"map": Z2, "y": [0.0, 0.0], "radii": [0.1]})
    assert record.passed
    assert record.metrics["rows"][0]["sum_H_star_sq"] == pytest.approx(1.0, abs=1e-12)


def test_metric_qc_radius_guard():
    # the circle around 0.1 reaches past the branch value 0: the two neighborhoods merge
    with pytest.raises(CoverError, match="may merge"):
        metric_qc_check(planar_power(2), np.array([0.1, 0.0]), [0.5])
    # the circle around 1.9 encloses the critical value 2 of z^3 - 3z, so near
    # the two close roots it lifts to one curve through both
    with pytest.raises(CoverError, match="wrong number of preimages"):
        metric_qc_check(complex_polynomial([0, -3, 0, 1]), np.array([1.9, 0.0]), [0.2])


def test_preimage_measure_identity_and_square():
    f1 = planar_power(1)
    rep = preimage_measure_check(
        f1, np.array([0.5, 0.0]), 0.3, Box([-1.5, -1.5], [1.5, 1.5]), Box([-1.5, -1.5], [1.5, 1.5]),
        n_samples=20000, seed=0,
    )
    assert rep["ratio"] == pytest.approx(1.0, abs=3 * rep["ratio_sd"] + 0.02)
    f2 = planar_power(2)
    rep2 = preimage_measure_check(
        f2, np.array([1.0, 0.0]), 0.3, Box([-2.0, -2.0], [2.0, 2.0]), Box([0.2, -0.8], [1.8, 0.8]),
        n_samples=20000, seed=1,
    )
    assert rep2["ratio"] <= 2 * (1 + 3 * rep2["ratio_sd"])


def _preimage_measure_lifting_every_row(f, y0, radius, domain, image, N, seed):
    """(lhs, rhs) of ``preimage_measure_check`` with every sample of both sides lifted."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    zC = minv(f, y0).expand()
    ind = kernels.dist_sq_one_to_many(zC, minv_batch(f, f.evaluate(domain.sample(rng, N)))) < radius**2
    fibers = minv_batch(f, image.sample(rng, N))
    inside = kernels.dist_sq_one_to_many(zC, fibers) < radius**2
    vals = np.zeros(N)
    vals[inside] = metric_jacobian_values(f, fibers[inside])
    return domain.volume() * ind.mean(), image.volume() * float(vals.mean())


@pytest.mark.parametrize("name", ["identity", "z2", "z3", "z3-3z"])
@pytest.mark.parametrize("seed", [0, 1])
def test_preimage_measure_lifting_the_certified_reach_equals_lifting_every_row(name, seed):
    # the preimage-measure defaults: a ball of radius 0.3 around minv(1, 0)
    f, y0 = MAPS[name], np.array([1.0, 0.0])
    domain, image = Box([-2.0, -2.0], [2.0, 2.0]), Box([0.2, -0.8], [1.8, 0.8])
    lifted = []

    def fiber_batch(ys):
        lifted.append(len(ys))
        return f.fiber_batch(ys)

    rep = preimage_measure_check(dataclasses.replace(f, fiber_batch=fiber_batch), y0, 0.3, domain, image, 5000, seed)
    lhs, rhs = _preimage_measure_lifting_every_row(f, y0, 0.3, domain, image, 5000, seed)
    assert (rep["lhs_measure"], rep["rhs_measure"]) == (lhs, rhs)
    assert sum(lifted) < 1 + 2 * 5000  # the center, then only the rows within the reach


def test_density_field_admissibility():
    res = discrete_modulus(radial_family(ANN, 128), ANN, grid=64)
    rho = res.density
    assert rho is not None
    assert np.all(rho.values >= 0)
    # rescaled density is exactly admissible: every curve integral >= 1
    assert rho.admissibility_residual <= 1e-12
    assert rho.curve_integrals.min() == pytest.approx(1.0, abs=1e-12)
    # mass recomputed from the field matches the reported value
    centers = rho.grid.centers(rho.cells)
    V = rho.grid.cell_volume()
    assert (V * rho.values**rho.exponent).sum() == pytest.approx(res.value, rel=1e-12)
