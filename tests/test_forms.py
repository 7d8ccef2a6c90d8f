"""Exterior algebra: wedge, trace, symmetrization, comass, exterior derivative."""

import numpy as np
import pytest

from almqr import forms
from almqr.dsl import build_form
from almqr.forms import (
    ComassSettings,
    GroupAction,
    KCovector,
    KForm,
    MultiPoly,
    comass,
    cov_max_dev,
    exterior_derivative,
    natural_volume_form,
    polynomial_one_form,
    symmetrize,
    tensor_product,
    trace_form,
    volume_covector,
    wedge,
)


def rand_covector(rng, dim, k, terms=4):
    row = np.zeros(len(forms.basis(dim, k)))
    for idx in rng.choice(len(row), size=min(terms, len(row)), replace=False):
        row[idx] = float(rng.normal())
    return KCovector(dim, k, row)


# -- covectors and wedge -------------------------------------------------------


def test_elementary_wedge_unit():
    c1 = KCovector.elementary(4, (0,))
    c2 = KCovector.elementary(4, (1,))
    V = np.zeros((2, 4))
    V[0, 0] = 1.0
    V[1, 1] = 1.0
    assert c1.wedge(c2)(V) == 1.0
    # antisymmetry in arguments
    assert c1.wedge(c2)(V[::-1]) == -1.0


def test_wedge_self_vanishes_odd_degree():
    rng = np.random.default_rng(0)
    w = rand_covector(rng, 5, 1)
    ww = w.wedge(w)
    for _ in range(10):
        V = rng.normal(size=(2, 5))
        assert ww(V) == pytest.approx(0.0, abs=1e-12)


def test_wedge_associative_numerically():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rand_covector(rng, 6, 1)
        b = rand_covector(rng, 6, 1)
        c = rand_covector(rng, 6, 2)
        lhs = a.wedge(b).wedge(c)
        rhs = a.wedge(b.wedge(c))
        assert cov_max_dev(lhs, rhs) < 1e-12


def test_wedge_degree_overflow():
    a = KCovector.elementary(2, (0, 1))
    with pytest.raises(ValueError):
        a.wedge(KCovector.elementary(2, (0,)))


def _shuffle_wedge_value(a, b, V):
    """(a ^ b)(v_1..v_{p+q}) = sum over (p,q)-shuffles s of sgn(s) a(v_s(1..p)) b(v_s(p+1..p+q)).

    Each factor is evaluated as a sum of determinants over its coefficient row,
    so no index table of ``forms`` is involved.
    """
    import itertools

    def value(cov, W):
        if cov.degree == 0:
            return float(cov.row[0])
        return sum(float(c) * float(np.linalg.det(W[:, I])) for I, c in zip(forms.basis(cov.dim, cov.degree), cov.row))

    p, q = a.degree, b.degree
    total = 0.0
    for first in itertools.combinations(range(p + q), p):
        rest = [i for i in range(p + q) if i not in first]
        inversions = sum(1 for i in first for j in rest if j < i)
        total += (-1) ** inversions * value(a, V[list(first)]) * value(b, V[rest])
    return total


@pytest.mark.parametrize("N", [4, 5])
def test_wedge_matches_the_shuffle_formula(N):
    rng = np.random.default_rng(30 + N)
    for k1 in range(5):
        for k2 in range(5 - k1):
            for terms in (2, 10):
                a, b = rand_covector(rng, N, k1, terms), rand_covector(rng, N, k2, terms)
                ab = a.wedge(b)
                assert (ab.dim, ab.degree) == (N, k1 + k2)
                for V in rng.normal(size=(3, k1 + k2, N)):
                    expect = _shuffle_wedge_value(a, b, V)
                    assert ab(V) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_covector_row_is_checked_and_read_only():
    with pytest.raises(ValueError):
        KCovector(4, 2, np.zeros(5))
    for bad in [(1, 0), (0, 0), (0, 4), (-1, 0)]:
        with pytest.raises(ValueError):
            KCovector.elementary(4, bad)
    cov = KCovector.elementary(4, (1, 3), -2.0)
    assert cov.terms == [((1, 3), -2.0)]
    with pytest.raises(ValueError):
        cov.add(KCovector.elementary(4, (0,)))  # both rows have 4 coefficients, the degrees differ
    with pytest.raises(ValueError):
        cov.row[0] = 1.0


def test_alternating_multilinear_eval():
    rng = np.random.default_rng(2)
    w = rand_covector(rng, 5, 3)
    V = rng.normal(size=(3, 5))
    swapped = V[[1, 0, 2]]
    assert w(swapped) == pytest.approx(-w(V), rel=1e-12, abs=1e-12)
    scaled = V.copy()
    scaled[1] *= 2.5
    assert w(scaled) == pytest.approx(2.5 * w(V), rel=1e-12, abs=1e-12)


# -- trace forms ---------------------------------------------------------------


def test_trace_of_volume_is_blockwise():
    om = natural_volume_form(2, 3)
    cov = om.at(np.zeros(6))
    assert cov.terms == [((0, 1), 1.0), ((2, 3), 1.0), ((4, 5), 1.0)]


def test_trace_d1_is_identity():
    alpha = polynomial_one_form(2, [MultiPoly(2, {(0, 1): 2.0}), MultiPoly(2, {(1, 0): -1.0})])
    tr = trace_form(alpha, 1)
    x = np.array([0.3, 0.7])
    assert cov_max_dev(tr.at(x), alpha.at(x)) == 0.0


def test_trace_on_single_block_vectors():
    om = natural_volume_form(2, 3)
    x = np.zeros(6)
    V = np.zeros((2, 6))
    V[0, 2] = 1.0
    V[1, 3] = 1.0  # block 1 only
    assert om(x, V) == 1.0


# -- symmetrization ------------------------------------------------------------


def test_projection_fixes_invariant_form():
    G = GroupAction.full(2, 2)
    om = natural_volume_form(2, 2)
    P = symmetrize(om, G)
    assert cov_max_dev(P.at(np.array([1.0, 2.0, 3.0, 4.0])), om.at(np.zeros(4))) < 1e-12


def test_projection_idempotent_and_linear():
    rng = np.random.default_rng(3)
    G = GroupAction.full(2, 2)

    def rand_form():
        cov = rand_covector(rng, 4, 2)
        return KForm.constant(cov, 2, 2)

    w1, w2 = rand_form(), rand_form()
    P1 = symmetrize(w1, G)
    PP1 = symmetrize(P1, G)
    x = rng.normal(size=4)
    assert cov_max_dev(P1.at(x), PP1.at(x)) < 1e-14
    a, b = 1.7, -0.3
    lhs = symmetrize(w1.scaled(a).add(w2, b), G)
    rhs = symmetrize(w1, G).scaled(a).add(symmetrize(w2, G), b)
    assert cov_max_dev(lhs.at(x), rhs.at(x)) < 1e-14


def test_projection_invariance_sampled():
    rng = np.random.default_rng(4)
    G = GroupAction.full(2, 3)
    w = KForm.constant(rand_covector(rng, 6, 2), 2, 3)
    P = symmetrize(w, G)
    for _ in range(100):
        x = rng.normal(size=6)
        V = rng.normal(size=(2, 6))
        g = G.gathers[rng.integers(len(G.gathers))]
        lhs = P.at(x)(V)
        rhs = P.at(x[g])(V[:, g])
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_projection_nonexpansive_l2():
    rng = np.random.default_rng(5)
    G = GroupAction.full(2, 2)
    for _ in range(50):
        w = KForm.constant(rand_covector(rng, 4, 1), 2, 2)
        P = symmetrize(w, G)
        x = np.zeros(4)
        # for 1-forms the l2 coefficient norm IS the comass
        assert P.at(x).l2() <= w.at(x).l2() * (1 + 1e-12)


def test_split_projection_of_tensor_product():
    # projecting a tensor product equals the tensor product of the projections
    rng = np.random.default_rng(6)
    n, d0, d1 = 2, 2, 1
    w0 = KForm.constant(rand_covector(rng, n * d0, 1), n, d0)
    w1 = KForm.constant(rand_covector(rng, n * d1, 1), n, d1)
    lhs = symmetrize(tensor_product(w0, w1), GroupAction.split(n, d0, d1))
    rhs = tensor_product(symmetrize(w0, GroupAction.full(n, d0)), symmetrize(w1, GroupAction.full(n, d1)))
    x = rng.normal(size=n * (d0 + d1))
    assert cov_max_dev(lhs.at(x), rhs.at(x)) < 1e-12


def test_tensor_product_degree_and_zero():
    w0 = natural_volume_form(2, 1)
    z = KForm.zero(2, 2, 1)
    tp = tensor_product(w0, z)
    assert tp.degree == 4
    assert tp.at(np.zeros(4)).terms == []


# -- comass ---------------------------------------------------------------------


def test_comass_of_natural_form_is_one():
    rng = np.random.default_rng(7)
    for n, d in [(2, 2), (2, 3), (3, 2)]:
        om = natural_volume_form(n, d)
        x = rng.normal(size=n * d)
        res = comass(om, x, ComassSettings(n_starts=32))
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.converged


def test_comass_witness_frame():
    n, d = 2, 2
    om = natural_volume_form(n, d)
    V = np.zeros((n, n * d))
    for ell in range(n):
        V[ell, ell] = 1.0  # (e_l, 0, ..., 0)
    assert om(np.zeros(n * d), V) == 1.0


def test_comass_homogeneity():
    om = natural_volume_form(2, 2)
    scaled = om.scaled(-3.0)
    x = np.zeros(4)
    a = comass(om, x, ComassSettings(n_starts=16)).value
    b = comass(scaled, x, ComassSettings(n_starts=16)).value
    assert b == pytest.approx(3.0 * a, rel=1e-9)


def test_comass_k1_closed_form():
    rng = np.random.default_rng(8)
    w = KForm.constant(rand_covector(rng, 4, 1), 2, 2)
    res = comass(w, np.zeros(4))
    assert res.value == pytest.approx(w.at(np.zeros(4)).l2(), rel=1e-12)


def test_comass_is_upper_bound_on_frames():
    rng = np.random.default_rng(9)
    om = natural_volume_form(2, 2)
    x = rng.normal(size=4)
    val = comass(om, x).value
    for _ in range(200):
        V = rng.normal(size=(2, 4))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        assert om(x, V) <= val + 1e-9


# The per-start ascent that the batched comass replaced, kept as a reference:
# one frame at a time, one determinant per minor.


def _ref_terms(cov):
    """(I, c) over the nonzero coefficients, in basis order."""
    return [(I, float(c)) for I, c in zip(forms.basis(cov.dim, cov.degree), cov.row) if c != 0.0]


def _ref_eval(cov, V):
    total = 0.0
    for I, c in _ref_terms(cov):
        total += c * float(np.linalg.det(V[:, I]))
    return total


def _ref_grad_row(cov, V, a):
    k, N = V.shape
    g = np.zeros(N)
    rows = [r for r in range(k) if r != a]
    for I, c in _ref_terms(cov):
        sub = V[:, I][rows, :]
        for b, i in enumerate(I):
            minor = sub[:, [x for x in range(k) if x != b]]
            det = float(np.linalg.det(minor)) if k > 2 else float(minor[0, 0])
            g[i] += c * ((-1) ** (a + b)) * det
    return g


def _ref_comass(form, x, settings):
    cov = form.at(x)
    k, N = cov.degree, cov.dim
    starts = []
    by_mag = sorted(_ref_terms(cov), key=lambda kv: -abs(kv[1]))
    for I, c in by_mag[: max(4, settings.n_starts // 4)]:
        V = np.zeros((k, N))
        for b, i in enumerate(I):
            V[b, i] = 1.0
        if c < 0:
            V[0] *= -1.0
        starts.append(V)
    idx = 0
    while len(starts) < settings.n_starts:
        V = forms._halton_gaussian(idx * k * N + 7, k * N).reshape(k, N).copy()
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        starts.append(V / norms)
        idx += 1
    best = (-np.inf, starts[0], False, 0)
    for V0 in starts:
        val, V, converged, sweeps = _ref_ascend(cov, V0, settings)
        if val > best[0]:
            best = (val, V, converged, sweeps)
    return best[0], best[1], best[2], len(starts), best[3]


def _ref_ascend(cov, V0, settings):
    V = V0.copy()
    val = _ref_eval(cov, V)
    converged, sweeps = False, 0
    for sweep in range(settings.max_iters):
        sweeps = sweep + 1
        improved = val
        for a in range(len(V)):
            g = _ref_grad_row(cov, V, a)
            norm = float(np.linalg.norm(g))
            if norm > 0:
                V[a] = g / norm
        val = _ref_eval(cov, V)
        if val - improved <= settings.tol:
            converged = True
            break
    return val, V, converged, sweeps


def _assert_matches_reference(form, x, settings):
    res = comass(form, x, settings)
    val, frame, converged, n_starts, sweeps = _ref_comass(form, x, settings)
    assert res.value == val
    assert res.frame.tobytes() == frame.tobytes()
    assert (res.converged, res.n_starts, res.sweeps) == (converged, n_starts, sweeps)
    return res


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_comass_matches_per_start_reference(n, d):
    rng = np.random.default_rng(100 + 10 * n + d)
    om = natural_volume_form(n, d)
    for _ in range(2):
        res = _assert_matches_reference(om, rng.normal(size=n * d), ComassSettings())
        assert res.converged and res.n_starts == 64


# dx01 = -2, dx13 = 0.7, dx23 = 1
MIXED_FORM = build_form(
    {
        "kind": "sum",
        "terms": [
            {"kind": "elementary", "n": 2, "d": 2, "indices": [0, 1], "c": -3.0},
            {"kind": "elementary", "n": 2, "d": 2, "indices": [1, 3], "c": 0.7},
            {"kind": "trace_vol", "n": 2, "d": 2},
        ],
    }
)


def test_comass_reference_negative_leading_coefficient():
    # the largest coefficient is negative: its elementary start has row 0 flipped
    x = np.random.default_rng(11).normal(size=4)
    assert max(MIXED_FORM.at(x).row.tolist(), key=abs) == -2.0
    for n_starts in (64, 9, 1):
        res = _assert_matches_reference(MIXED_FORM, x, ComassSettings(n_starts=n_starts))
        assert res.converged


def test_comass_reference_zero_gradient_rows():
    # a form that vanishes at the point: every gradient row is zero, no row moves
    spec = {
        "kind": "sum",
        "terms": [
            {"kind": "elementary", "n": 2, "d": 2, "indices": [0, 1], "c": 1.0},
            {"kind": "elementary", "n": 2, "d": 2, "indices": [0, 1], "c": -1.0},
        ],
    }
    res = _assert_matches_reference(build_form(spec), np.zeros(4), ComassSettings(n_starts=8))
    assert res.value == 0.0 and res.converged and res.sweeps == 1


def test_comass_reference_partly_unconverged():
    # one sweep: the elementary starts of the volume form finish, the others stop unconverged
    rng = np.random.default_rng(12)
    om = natural_volume_form(3, 2)
    x = rng.normal(size=6)
    settings = ComassSettings(max_iters=1)
    cov = om.at(x)
    elementary = np.zeros((3, 6))
    elementary[[0, 1, 2], [0, 1, 2]] = 1.0
    halton = forms._halton_frames(3, 6, 1)[0]
    assert _ref_ascend(cov, elementary, settings)[2]
    assert not _ref_ascend(cov, halton, settings)[2]
    res = _assert_matches_reference(om, x, settings)
    assert res.sweeps == 1
    _assert_matches_reference(om, x, ComassSettings(n_starts=5, max_iters=3, tol=0.0))
    # the best start is still climbing when the sweeps run out
    for max_iters in (1, 2, 3):
        res = _assert_matches_reference(MIXED_FORM, x[:4], ComassSettings(max_iters=max_iters))
        assert not res.converged and res.sweeps == max_iters


# The lockstep ascent as it was before its steps were batched, kept as a
# reference: one determinant call per term, the terms added one at a time,
# and each gradient row normalized by its own 1-D np.linalg.norm.


def _loop_evaluate(cov, V):
    if cov.degree == 0:
        return np.full(len(V), cov.row[0])
    total = np.zeros(len(V))
    for I, c in cov.terms:
        M = V[:, :, I]
        total += c * (np.linalg.det(M) if cov.degree > 1 else M[:, 0, 0])
    return total


def _loop_row_gradients(cov, V, a):
    S, k, N = V.shape
    rest = V[:, [r for r in range(k) if r != a]]
    cols = [[x for x in range(k) if x != b] for b in range(k)]
    signs = (-1.0) ** (a + np.arange(k))
    g = np.zeros((S, N))
    for I, c in cov.terms:
        minors = rest[:, :, I][:, :, cols].transpose(0, 2, 1, 3)
        det = np.linalg.det(minors) if k > 2 else minors[:, :, 0, 0]
        g[:, I] += (c * signs) * det
    return g


def _loop_comass(form, x, settings):
    cov = form.at(x)
    k, N = cov.degree, cov.dim
    if k == 1:
        g = np.array(cov.row)
        norm = float(np.linalg.norm(g))
        frame = (g / norm)[None, :] if norm > 0 else np.zeros((1, N))
        return norm, frame, True, 1, 1
    elementary = []
    for I, c in sorted(cov.terms, key=lambda t: -abs(t[1]))[: max(4, settings.n_starts // 4)]:
        V = np.zeros((k, N))
        V[np.arange(k), I] = 1.0
        if c < 0:
            V[0] *= -1.0
        elementary.append(V)
    count = max(0, settings.n_starts - len(elementary))
    V = np.concatenate([np.reshape(elementary, (-1, k, N)), forms._halton_frames(k, N, count)])
    S = len(V)
    val = _loop_evaluate(cov, V)
    converged = np.zeros(S, dtype=bool)
    sweeps = np.zeros(S, dtype=np.int64)
    running = np.arange(S)
    for sweep in range(settings.max_iters):
        if len(running) == 0:
            break
        sweeps[running] = sweep + 1
        W = V[running]
        for a in range(k):
            g = _loop_row_gradients(cov, W, a)
            for j, row in enumerate(g):
                norm = float(np.linalg.norm(row))
                if norm > 0:
                    W[j, a] = row / norm
        new = _loop_evaluate(cov, W)
        done = new - val[running] <= settings.tol
        V[running] = W
        val[running] = new
        converged[running[done]] = True
        running = running[~done]
    best = int(np.argmax(val))
    return float(val[best]), V[best], bool(converged[best]), S, int(sweeps[best])


def _assert_matches_loop(form, x, settings=ComassSettings()):
    res = comass(form, x, settings)
    val, frame, converged, n_starts, sweeps = _loop_comass(form, x, settings)
    assert np.float64(res.value).tobytes() == np.float64(val).tobytes()
    assert res.frame.tobytes() == frame.tobytes()
    assert (res.converged, res.n_starts, res.sweeps) == (converged, n_starts, sweeps)
    return res


def _random_constant_form(rng, n, d, k, scale=1.0):
    """A constant k-form on (R^n)^d with 1 to 12 random coefficients."""
    size = len(forms.basis(n * d, k))
    terms = int(rng.integers(1, min(size, 12) + 1))
    row = np.zeros(size)
    row[rng.choice(size, size=terms, replace=False)] = scale * rng.normal(size=terms)
    return KForm.constant(KCovector(n * d, k, row), n, d)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_comass_equals_the_row_by_row_loop(n, d):
    rng = np.random.default_rng(200 + 10 * n + d)
    vol = natural_volume_form(n, d)
    for _ in range(2):
        _assert_matches_loop(vol, rng.normal(size=n * d))
    N = n * d
    for k in sorted({1, n, min(2, N)}):
        for scale in (1e-5, 1.0, 1e5):
            form = _random_constant_form(rng, n, d, k, scale)
            _assert_matches_loop(form, np.zeros(N), ComassSettings(n_starts=int(rng.integers(1, 65))))
        # the zero covector: no term, every gradient row is zero and no frame row moves
        res = _assert_matches_loop(KForm.zero(k, n, d), np.zeros(N), ComassSettings(n_starts=8))
        assert res.value == 0.0 and res.converged


def test_comass_equals_the_row_by_row_loop_on_mixed_and_unconverged_forms():
    x = np.random.default_rng(13).normal(size=4)
    for settings in (ComassSettings(), ComassSettings(n_starts=9), ComassSettings(max_iters=2, tol=0.0)):
        _assert_matches_loop(MIXED_FORM, x, settings)
    # a symmetrized wedge of a non-constant and a constant 1-form on (R^2)^2
    a = KForm(degree=1, n=2, d=2, coeff_fn=lambda X: np.stack([X[:, 0], X[:, 3] ** 2, -X[:, 1], X[:, 2]], axis=1))
    b = KForm.constant(KCovector(4, 1, [0.3, -1.0, 0.0, 2.0]), 2, 2)
    _assert_matches_loop(symmetrize(wedge(a, b), GroupAction.full(2, 2)), x)


def test_batched_covector_steps_equal_their_term_loops():
    rng = np.random.default_rng(14)
    for _ in range(150):
        N = int(rng.integers(1, 10))
        k = int(rng.integers(1, min(N, 5) + 1))
        size = len(forms.basis(N, k))
        terms = int(rng.integers(0, size + 1))  # 0: the zero covector
        row = np.zeros(size)
        row[rng.choice(size, size=terms, replace=False)] = rng.normal(size=terms) * 10.0 ** rng.integers(-5, 6)
        cov = KCovector(N, k, row)
        V = rng.normal(size=(int(rng.integers(1, 70)), k, N)) * 10.0 ** rng.integers(-3, 4)
        assert cov.evaluate(V).tobytes() == _loop_evaluate(cov, V).tobytes()
        if k >= 2:
            for a in range(k):
                assert forms._row_gradients(cov, V, a).tobytes() == _loop_row_gradients(cov, V, a).tobytes()
        # a gradient row normalized in the stack equals its 1-D norm
        g = V.reshape(len(V), -1)
        assert forms.row_norms(g).tobytes() == np.array([np.linalg.norm(r) for r in g]).tobytes()


def test_comass_rejects_empty_start_set():
    with pytest.raises(ValueError):
        comass(natural_volume_form(2, 2), np.zeros(4), ComassSettings(n_starts=0))


# -- exterior derivative ---------------------------------------------------------


def test_d_of_constant_form_is_zero():
    om = natural_volume_form(2, 2)
    dom = exterior_derivative(om)
    assert dom.at(np.array([1.0, 2.0, 3.0, 4.0])).terms == []


def test_d_of_linear_trace_form():
    # tr(x1 dx2) on (R^2)^2; d = tr(dx1 ^ dx2)
    alpha = polynomial_one_form(2, [MultiPoly(2, {}), MultiPoly(2, {(1, 0): 1.0})])
    tr = trace_form(alpha, 2)
    x = np.array([0.1, -0.2, 0.5, 0.7])
    for form in (tr, KForm(degree=1, n=2, d=2, coeff_fn=tr.coeff_fn)):  # analytic and FD routes
        coeff = dict(zip(forms.basis(4, 2), exterior_derivative(form, fd_step=1e-5).at(x).row))
        assert coeff[(0, 1)] == pytest.approx(1.0, abs=1e-8)
        assert coeff[(2, 3)] == pytest.approx(1.0, abs=1e-8)
        others = {k: v for k, v in coeff.items() if k not in {(0, 1), (2, 3)}}
        assert all(abs(v) < 1e-8 for v in others.values())


def test_dd_zero_on_polynomial_form():
    rng = np.random.default_rng(10)
    comps = [MultiPoly(3, {(2, 0, 0): 0.5, (0, 1, 1): -1.0}), MultiPoly(3, {(1, 1, 0): 2.0}), MultiPoly(3, {(0, 0, 2): 1.0})]
    alpha = polynomial_one_form(3, comps)
    # strip the analytic derivative to exercise the FD route twice
    f = KForm(degree=1, n=3, d=1, coeff_fn=alpha.coeff_fn)
    df = exterior_derivative(f, fd_step=1e-4)
    ddf = exterior_derivative(df, fd_step=1e-3)
    x = rng.normal(size=3)
    assert all(abs(v) < 1e-6 for v in ddf.at(x).row)


def test_d_commutes_with_projection():
    rng = np.random.default_rng(11)
    G = GroupAction.full(2, 2)
    comps = [MultiPoly(4, {(1, 0, 0, 0): 1.0, (0, 2, 0, 0): 0.3}) for _ in range(4)]
    base = polynomial_one_form(4, comps)
    w = KForm(degree=1, n=2, d=2, coeff_fn=base.coeff_fn)
    dP = exterior_derivative(symmetrize(w, G), fd_step=1e-4)
    Pd = symmetrize(exterior_derivative(w, fd_step=1e-4), G)
    for _ in range(5):
        x = rng.normal(size=4)
        assert cov_max_dev(dP.at(x), Pd.at(x)) < 1e-6


def test_trace_form_invariance_sampled():
    rng = np.random.default_rng(12)
    n, d = 2, 3
    alpha = polynomial_one_form(n, [MultiPoly(n, {(1, 0): 1.0, (0, 2): -0.5}), MultiPoly(n, {(1, 1): 2.0})])
    tr = trace_form(alpha, d)
    G = GroupAction.full(n, d)
    assert tr.invariance == "full"
    for _ in range(100):
        x = rng.normal(size=n * d)
        V = rng.normal(size=(1, n * d))
        g = G.gathers[rng.integers(len(G.gathers))]
        assert tr.at(x)(V) == pytest.approx(tr.at(x[g])(V[:, g]), rel=1e-10, abs=1e-10)
