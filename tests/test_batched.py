"""Batch-first forms and the batched weak-Stokes quadrature against pointwise references."""

import warnings

import numpy as np
import pytest
from scalar_assignment import solve_assignment as scalar_solve

from almqr.covers import (
    CoverError,
    NumericalError,
    branch_differentials,
    complex_polynomial,
    planar_power,
    precomposed,
    winding_map_3d,
)
from almqr.forms import (
    GroupAction,
    KCovector,
    KForm,
    MultiPoly,
    basis,
    exterior_derivative,
    natural_volume_form,
    polynomial_one_form,
    pullback_coeffs,
    symmetrize,
    tensor_product,
    trace_form,
    wedge,
)
from almqr.mv import (
    BumpTestForm,
    MultiValuedMap,
    branches,
    differential,
    from_affine_branches,
    from_cover,
    weak_stokes_check,
)
from almqr.regions import Annulus, Box, box_quadrature
from almqr.runner import run_check
from almqr.util import components

SUPPORT = Box([0.4, 0.4], [1.8, 1.8])
BUMP = BumpTestForm(lo=[0.55, 0.6], hi=[1.65, 1.5], q=3, amp=1.3)
ORDERS = (16, 32, 64)  # the stokes check's default levels


def rand_poly(rng, nvars, deg=2, terms=3):
    return MultiPoly(nvars, {tuple(int(e) for e in rng.integers(0, deg + 1, size=nvars)): float(rng.normal()) for _ in range(terms)})


def rand_one_form(rng, N):
    return polynomial_one_form(N, [rand_poly(rng, N) for _ in range(N)])


def on_tuples(base, n, d):
    """A polynomial 1-form on R^{n d} read as a (non-invariant) form on (R^n)^d."""
    return KForm(degree=1, n=n, d=d, coeff_fn=base.coeff_fn, analytic_derivative=base.analytic_derivative)


def rand_const(rng, N, k, n, d):
    row = rng.normal(size=len(basis(N, k)))
    row[rng.random(len(row)) < 0.3] = 0.0
    return KForm.constant(KCovector(N, k, row), n, d)


def forms_under_test():
    rng = np.random.default_rng(20)
    n, d = 2, 2
    G = GroupAction.full(n, d)
    alpha = rand_one_form(rng, n)
    tr = trace_form(alpha, d)
    w = on_tuples(rand_one_form(rng, n * d), n, d)
    w2 = on_tuples(rand_one_form(rng, n * d), n, d)
    sym_tr = symmetrize(tr, G)
    return {
        "constant": rand_const(rng, 4, 2, n, d),
        "polynomial_one_form": rand_one_form(rng, 3),
        "trace_form": tr,
        "trace_form_d3": trace_form(alpha, 3),
        "natural_volume_form": natural_volume_form(2, 3),
        "symmetrize_trace": sym_tr,
        "symmetrize_non_trace": symmetrize(w, G),
        "symmetrize_split": symmetrize(on_tuples(rand_one_form(rng, 6), 2, 3), GroupAction.split(2, 2, 1)),
        "symmetrize_constant": symmetrize(rand_const(rng, 4, 2, n, d), G),
        "add": w.add(w2, -0.7),
        "scaled": w.scaled(1.9),
        "wedge": wedge(w, w2),
        "wedge_constant": wedge(rand_const(rng, 4, 1, n, d), w),
        "tensor_product": tensor_product(sym_tr, trace_form(alpha, 1)),
        # the FD route of test_fd_derivative_route: the symmetrized trace without its derivative
        "fd_exterior_derivative": exterior_derivative(KForm(degree=1, n=2, d=2, coeff_fn=sym_tr.coeff_fn, invariance="full")),
        "analytic_exterior_derivative": exterior_derivative(w),
    }


@pytest.mark.parametrize("name", sorted(forms_under_test()))
def test_batched_coefficients_match_at(name):
    form = forms_under_test()[name]
    rng = np.random.default_rng(21)
    X = rng.normal(size=(7, form.dim))
    batch = form.coeffs(X)
    assert batch.shape == (7, len(basis(form.dim, form.degree)))
    for x, row in zip(X, batch):
        cov = form.at(x)
        assert cov.degree == form.degree and cov.dim == form.dim
        assert np.abs(row - cov.row).max() <= 1e-12 * (1.0 + np.abs(row).max())
    if form.analytic_derivative is not None:
        dX = form.analytic_derivative(X)
        for x, row in zip(X, dX):
            assert np.abs(row - exterior_derivative(form).at(x).row).max() <= 1e-12 * (1.0 + np.abs(row).max())


def test_operations_match_pointwise_covector_algebra():
    rng = np.random.default_rng(22)
    n, d = 2, 2
    G = GroupAction.full(n, d)
    alpha = rand_one_form(rng, n)
    w = on_tuples(rand_one_form(rng, n * d), n, d)
    w2 = on_tuples(rand_one_form(rng, n * d), n, d)
    tr = trace_form(alpha, d)
    for x in rng.normal(size=(5, n * d)):
        gap = lambda a, b: np.abs(a.row - b.row).max()
        assert gap(w.add(w2, 0.3).at(x), w.at(x).add(w2.at(x), 0.3)) <= 1e-14
        assert gap(w.scaled(-2.5).at(x), w.at(x).scaled(-2.5)) <= 1e-14
        assert gap(wedge(w, w2).at(x), w.at(x).wedge(w2.at(x))) <= 1e-14
        blocks = KCovector(n * d, 1, np.zeros(n * d))
        for j in range(d):
            cov = alpha.at(x[j * n : (j + 1) * n])
            blocks = blocks.add(KCovector(n * d, 1, np.pad(cov.row, (j * n, (d - 1 - j) * n))))
        assert gap(tr.at(x), blocks) <= 1e-14
        # the projection evaluated on vectors: average of w at the permuted point and vectors
        V = rng.normal(size=(1, n * d))
        expect = np.mean([w.at(x[g])(V[:, g]) for g in G.gathers])
        assert symmetrize(w, G).at(x)(V) == pytest.approx(expect, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize(
    "N, m, k",
    [(5, 3, 0), (5, 3, 1), (5, 3, 2), (5, 3, 3), (4, 2, 2), (8, 2, 2), (6, 3, 3)],
    ids=["0", "1", "2", "3", "top-N4-m2", "top-N8-m2", "top-N6-m3"],
)
def test_pullback_coeffs_evaluates_on_pushed_vectors(N, m, k):
    rng = np.random.default_rng((23 + k, N, m))
    P = 16
    A = rng.normal(size=(P, len(basis(N, k))))
    A[:, ::2] = 0.0  # columns that vanish everywhere are skipped
    T = rng.normal(size=(P, N, m))
    pulled = pullback_coeffs(A, T, k)
    for p in range(P):
        cov = KCovector(N, k, A[p])
        back = KCovector(m, k, pulled[p])
        # a row is its batch of one, bit for bit, top degree included
        assert np.array_equal(back.row, cov.pullback_linear(T[p]).row)
        V = rng.normal(size=(k, m))
        assert back(V) == pytest.approx(cov(V @ T[p].T), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "cover",
    [
        planar_power(3),
        complex_polynomial([0.5, -1.0, 0.0, 1.0]),
        winding_map_3d(2),
        precomposed(np.array([[1.3, 0.2], [-0.1, 0.9]]), planar_power(2), [0.1, 0.0]),
    ],
)
def test_cover_branches_batch_matches_branch_differentials(cover):
    # the batch route (minv_batch, then branch_diff_batch) against the scalar one
    rng = np.random.default_rng(27)
    Y = rng.uniform(0.3, 0.9, size=(6, cover.n))
    values, L = from_cover(cover, None).exact_branches(Y)
    assert values.shape == (6, cover.degree, cover.n) and L.shape == (6, cover.degree, cover.n, cover.n)
    for y, vals, Ls in zip(Y, values, L):
        X, _, Lref = branch_differentials(cover, y)
        order = [int(np.argmin(np.linalg.norm(X - v, axis=1))) for v in vals]
        assert sorted(order) == list(range(cover.degree))
        assert np.abs(vals - X[order]).max() <= 1e-12 and np.abs(Ls - Lref[order]).max() <= 1e-10


def test_cover_branches_fail_closed_outside_the_image():
    with pytest.raises(CoverError):
        from_cover(winding_map_3d(2), None).exact_branches(np.array([[0.5, 0.5, 0.0], [3.0, 0.0, 0.0]]))


def test_branches_share_differentials_at_coincident_branches():
    A1 = np.array([[1.0, 2.0], [0.0, -1.0]])
    A2 = np.array([[0.5, 0.0], [1.0, 1.0]])
    b = np.array([0.3, 0.4])
    F = from_affine_branches([(A1, b), (A2, b)], Box([-1, -1], [1, 1]), m=2)
    X = np.array([[0.0, 0.0], [0.5, -0.2]])  # the branches meet at the origin only
    values, L, on_sing = branches(F, X)
    assert np.array_equal(L[0, 0], L[0, 1]) and np.allclose(L[0, 0], (A1 + A2) / 2)
    assert np.array_equal(L[1, 0], A1) and np.array_equal(L[1, 1], A2)
    assert on_sing.tolist() == [True, False]
    D = differential(F, X[0])
    assert D.on_singular_set and np.array_equal(D.L, L[0])
    assert not differential(F, X[1]).on_singular_set


def test_components_label_each_vertex_by_its_components_first_member():
    rng = np.random.default_rng(28)
    for _ in range(200):
        d = int(rng.integers(1, 8))
        close = rng.random((d, d)) < 0.25
        close = close | close.T
        # reference: grow each component from its smallest unlabelled vertex
        ref = -np.ones(d, dtype=int)
        for start in range(d):
            if ref[start] < 0:
                stack = [start]
                while stack:
                    i = stack.pop()
                    if ref[i] < 0:
                        ref[i] = start
                        stack.extend(np.flatnonzero(close[i]))
        assert components(close).tolist() == ref.tolist()
    # a chain links its ends although they are not close themselves
    chain = np.eye(4, k=1, dtype=bool) | np.eye(4, k=-1, dtype=bool)
    assert components(chain).tolist() == [0, 0, 0, 0]


# -- finite-difference branches against the former per-point loop ---------------


def fd_reference(F, x, h=1e-5):
    """Matched central differences at one point, as computed one point at a time before the batch path.

    Each shifted fiber is matched to the center by the scalar assignment solver
    on an einsum cost, and coincident branches are grouped by a union-find over
    1-D norms: both independent of ``covers.match_fibers`` and ``util.components``.
    """
    E = h * np.eye(F.m)
    T = F.evaluate(np.concatenate([x[None], x + E, x - E]))
    X = T[0]
    L = np.zeros(X.shape + (F.m,))

    def match(other):
        diff = X[:, None, :] - other[None, :, :]
        return scalar_solve(np.einsum("ijk,ijk->ij", diff, diff))[1]

    for i in range(F.m):
        Xp, Xm = T[1 + i], T[1 + F.m + i]
        L[:, :, i] = (Xp[match(Xp)] - Xm[match(Xm)]) / (2.0 * h)
    tol = 1e-8 * (1.0 + float(np.max(np.abs(X))))
    parent = list(range(len(X)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            if np.linalg.norm(X[i] - X[j]) <= tol:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(X)):
        groups.setdefault(find(i), []).append(i)
    for grp in groups.values():
        L[grp] = L[grp].mean(axis=0)
    return X, L, any(len(grp) > 1 for grp in groups.values())


def fd_copy(F):
    """F without its exact branches: differentials by central differences only."""
    return MultiValuedMap(domain=F.domain, m=F.m, n=F.n, d=F.d, evaluate=F.evaluate)


def fd_cases():
    rng = np.random.default_rng(26)
    ring = Annulus(np.zeros(2), 0.3, 1.5)
    cases = {f"z{k}": (from_cover(planar_power(k), ring), ring.sample(rng, 1024)) for k in (2, 3, 4)}
    A1, A2, A3 = rng.normal(size=(3, 2, 2))
    b = rng.normal(size=2)
    meeting = from_affine_branches([(A1, b), (A2, b), (A3, b + 1.0)], Box([-1, -1], [1, 1]), m=2)
    # A1 and A2 agree at the origin only: the branches meet there
    cases["affine-meeting"] = (meeting, np.concatenate([np.zeros((1, 2)), rng.uniform(-1, 1, size=(255, 2))]))
    return cases


@pytest.mark.parametrize("case", sorted(fd_cases()))
def test_fd_branches_match_the_per_point_reference_bit_for_bit(case):
    F, X = fd_cases()[case]
    values, L, on_sing = branches(fd_copy(F), X)
    for p, x in enumerate(X):
        ref_values, ref_L, ref_sing = fd_reference(F, x)
        assert np.array_equal(values[p], ref_values) and on_sing[p] == ref_sing
        if ref_sing:
            # coincident centers tie in the matching, and the two matchers may pair the
            # +h and -h rows of the group differently: the group mean moves by rounding
            assert np.abs(L[p] - ref_L).max() <= 4 * np.finfo(float).eps * np.abs(ref_L).max()
        else:
            assert np.array_equal(L[p], ref_L)
    if case == "affine-meeting":
        assert on_sing.tolist() == [True] + [False] * (len(X) - 1)
        A = F.exact_branches(X[:1])[1][0]
        assert np.allclose(L[0, 0], (A[0] + A[1]) / 2) and np.allclose(L[0, 2], A[2])


def test_weak_stokes_on_fd_branches_matches_the_exact_map():
    F = from_cover(planar_power(3), SUPPORT)
    omega = symmetrize(on_tuples(rand_one_form(np.random.default_rng(27), 6), 2, 3), GroupAction.full(2, 3))
    orders = (16, 32, 64)
    exact = weak_stokes_check(F, omega, BUMP, orders=orders)
    fd = weak_stokes_check(fd_copy(F), omega, BUMP, orders=orders)
    for a, b in zip(exact["levels"], fd["levels"]):
        assert not a["degenerate"] and not b["degenerate"]
        # central differences at h = 1e-5: error about h^2 plus rounding eps / h, relative
        for side in ("lhs", "rhs"):
            assert b[side] == pytest.approx(a[side], rel=1e-8)
        assert b["rel_discrepancy"] == pytest.approx(a["rel_discrepancy"], abs=1e-8)


# -- weak Stokes: the batched levels against a per-node reference -----------------


def per_node_levels(F, omega, alpha, orders):
    """(lhs, rhs) per level, node by node, from parts independent of the batched path.

    Branches come from the scalar ``branch_differentials`` in its lex-sorted
    order, not the batch oracles' order: the forms are invariant, so the sums
    do not depend on it, and the branches themselves are matched against the
    batch in ``test_cover_branches_batch_matches_branch_differentials``. Each
    pulled-back coefficient is the covector ``omega.at(flat)`` evaluated on the
    pushed-forward basis vectors.
    """
    m, k = F.m, omega.degree
    domega = exterior_derivative(omega)
    out = []
    for order in orders:
        pts, wts = box_quadrature(Box(alpha.lo, alpha.hi), order)
        I1 = I2 = 0.0
        for x, w in zip(pts, wts):
            if k == m:
                continue
            X, _, L = branch_differentials(F.cover, x)
            flat, T = X.reshape(-1), L.reshape(-1, m)
            cov, dcov = omega.at(flat), domega.at(flat)
            g = alpha.gradient(x)
            I1 += w * sum((-1.0) ** j * g[j] * cov(np.delete(T.T, j, axis=0)) for j in range(m))
            I2 += w * alpha.value(x) * dcov(T.T)
        out.append((I1, I2))
    return out


def stokes_cases():
    rng = np.random.default_rng(24)
    G = GroupAction.full(2, 2)
    sq = from_cover(planar_power(2), SUPPORT)
    return {
        "z2-symmetrized-trace": (sq, symmetrize(trace_form(rand_one_form(rng, 2), 2), G)),
        "z2-symmetrized-non-trace": (sq, symmetrize(on_tuples(rand_one_form(rng, 4), 2, 2), G)),
        "identity": (from_cover(planar_power(1), SUPPORT), trace_form(rand_one_form(rng, 2), 1)),
        "z2-top-degree": (sq, natural_volume_form(2, 2)),
    }


@pytest.mark.parametrize("case", sorted(stokes_cases()))
def test_weak_stokes_matches_per_node_reference(case):
    F, omega = stokes_cases()[case]
    orders = (6, 11)
    rep = weak_stokes_check(F, omega, BUMP, orders=orders)
    for level, (I1, I2) in zip(rep["levels"], per_node_levels(F, omega, BUMP, orders)):
        scale = max(abs(I1), abs(I2))
        assert abs(level["lhs"] - I1) <= 1e-12 * scale
        assert abs(level["rhs"] - I2) <= 1e-12 * scale
        if omega.degree == F.m:
            assert level["lhs"] == level["rhs"] == level["S"] == 0.0
        else:
            assert scale > 1e-3 and not level["degenerate"]


def test_quadrature_node_on_branch_value_raises():
    # odd order puts the box centre, the branch value 0 of z^2, on a node
    F = from_cover(planar_power(2), SUPPORT)
    bump = BumpTestForm(lo=[-0.5, -0.5], hi=[0.5, 0.5])
    omega = symmetrize(trace_form(rand_one_form(np.random.default_rng(25), 2), 2), GroupAction.full(2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no inf or nan on the way
        for form in (omega, natural_volume_form(2, 2)):
            with pytest.raises(NumericalError):
                weak_stokes_check(F, form, bump, orders=(4, 5))
            with pytest.raises(NumericalError):
                differential(F, [0.0, 0.0])


# -- the verdict rule: closed pull-backs are degenerate, not failures, but not a check either ----


@pytest.mark.parametrize("seed", [7, 23, 1137836843])
def test_closed_pullback_seeds_are_degenerate_and_fail_closed_alone(seed):
    config = {"map": {"map": "power", "k": 2}, "forms": 1, "testforms": 1, "orders": [16, 32, 64], "tol": 0.001}
    rec = run_check("stokes", config, seed)
    (row,) = rec.metrics["rows"]
    assert row["degenerate"] and row["S"] > 0.1
    assert row["rel"] < 1e-3
    assert not rec.passed  # a sweep of degenerate rows certified only 0 = 0
    # beside a row that is not degenerate, the same degenerate row passes
    rec = run_check("stokes", {**config, "forms": 2}, seed)
    assert rec.metrics["rows"][0] == row and not rec.metrics["rows"][1]["degenerate"]
    assert rec.passed


def test_wrong_analytic_derivative_still_fails():
    F = from_cover(planar_power(2), SUPPORT)
    # tr(x dx + y dy) is exact, so its pull-back is closed and both sides vanish
    exact = trace_form(polynomial_one_form(2, [MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(0, 1): 1.0})]), 2)
    rep = weak_stokes_check(F, exact, BUMP, orders=ORDERS)
    assert rep["degenerate"] and rep["rel_discrepancy"] < 1e-3
    vol = natural_volume_form(2, 2)
    wrong = KForm(degree=1, n=2, d=2, coeff_fn=exact.coeff_fn, analytic_derivative=vol.coeff_fn, invariance="full")
    rep = weak_stokes_check(F, wrong, BUMP, orders=ORDERS)
    assert not rep["degenerate"] and rep["rel_discrepancy"] > 0.5
    # and on a form whose pull-back is not closed
    omega = symmetrize(trace_form(rand_one_form(np.random.default_rng(26), 2), 2), GroupAction.full(2, 2))
    doubled = KForm(
        degree=1, n=2, d=2, coeff_fn=omega.coeff_fn, analytic_derivative=omega.scaled(2.0).analytic_derivative, invariance="full"
    )
    assert weak_stokes_check(F, omega, BUMP, orders=ORDERS)["rel_discrepancy"] < 1e-9
    # the right-hand side doubles: |I - 2I| / |2I|
    assert weak_stokes_check(F, doubled, BUMP, orders=ORDERS)["rel_discrepancy"] == pytest.approx(0.5, rel=1e-9)
