"""Backend parity and oracle tests for the assignment kernels."""

import itertools

import numpy as np
import pytest

from almqr import _kernels_py, kernels


def _backends():
    out = [("python", _kernels_py)]
    try:
        from almqr import _fast

        out.append(("compiled", _fast))
    except ImportError:
        pass
    return out


BACKENDS = _backends()


def brute_min_cost(cost):
    d = cost.shape[0]
    best = np.inf
    best_perm = None
    for perm in itertools.permutations(range(d)):
        total = cost[np.arange(d), perm].sum()
        if total < best:
            best = total
            best_perm = perm
    return best, best_perm


@pytest.mark.parametrize("name,impl", BACKENDS)
def test_solver_matches_enumeration(name, impl):
    rng = np.random.default_rng(0)
    for trial in range(300):
        d = int(rng.integers(1, 8))
        cost = rng.normal(size=(d, d)) ** 2
        value, perm = impl.solve_assignment(cost)
        ref, _ = brute_min_cost(cost)
        assert value == pytest.approx(ref, abs=1e-12)
        assert sorted(perm.tolist()) == list(range(d))
        assert cost[np.arange(d), perm].sum() == pytest.approx(value, abs=1e-12)


def test_backends_agree():
    if len(BACKENDS) < 2:
        pytest.skip("compiled backend not built")
    rng = np.random.default_rng(1)
    impls = [impl for _, impl in BACKENDS]
    for trial in range(200):
        d = int(rng.integers(1, 9))
        cost = rng.normal(size=(d, d)) ** 2
        vals = [impl.solve_assignment(cost)[0] for impl in impls]
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)


@pytest.mark.parametrize("name,impl", BACKENDS)
def test_dist_sq_consistent_with_solver(name, impl):
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        P = rng.normal(size=(d, n))
        Q = rng.normal(size=(d, n))
        diff = P[:, None, :] - Q[None, :, :]
        cost = np.einsum("ijk,ijk->ij", diff, diff)
        assert impl.dist_sq(P, Q) == pytest.approx(impl.assignment_value(cost), abs=1e-12)


def _full_cost_value(impl, P, Q):
    diff = P[:, None, :] - Q[None, :, :]
    return impl.assignment_value(np.einsum("ijk,ijk->ij", diff, diff))


@pytest.mark.parametrize("name,impl", BACKENDS)
def test_batch_paths_match_scalar(name, impl):
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for d in (1, 2, 3, 5):
            P = rng.normal(size=(d, n))
            Qs = rng.normal(size=(40, d, n))
            batch = np.asarray(impl.dist_sq_one_to_many(P, Qs))
            ref = np.array([impl.dist_sq(P, Q) for Q in Qs])
            np.testing.assert_allclose(batch, ref, rtol=0, atol=1e-12)
            full = np.array([_full_cost_value(impl, P, Q) for Q in Qs])
            np.testing.assert_allclose(batch, full, rtol=0, atol=1e-12)
            Ps = rng.normal(size=(40, d, n))
            pairs = np.asarray(impl.dist_sq_pairs(Ps, Qs))
            ref2 = np.array([impl.dist_sq(p, q) for p, q in zip(Ps, Qs)])
            np.testing.assert_allclose(pairs, ref2, rtol=0, atol=1e-12)
            full2 = np.array([_full_cost_value(impl, p, q) for p, q in zip(Ps, Qs)])
            np.testing.assert_allclose(pairs, full2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name,impl", BACKENDS)
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6])
def test_d2_batch_kernels_ties_and_scales(name, impl, scale):
    # d = 2 with coincident points (both matchings tie) and coordinates near
    # 1e-8 and 1e6, against the solver on the full cost matrix
    rng = np.random.default_rng(4)
    eps = np.finfo(float).eps
    for n in (1, 2, 3):
        P = rng.normal(size=(2, n)) * scale
        Qs = rng.normal(size=(60, 2, n)) * scale
        Qs[:10] = P[::-1]  # the same tuple in the other order: distance 0
        Qs[10:20, 1] = Qs[10:20, 0]  # a doubled point
        Qs[20:30] = P[0]  # both points on P's first point
        Qs[30:40] = 0.5 * (P[0] + P[1])  # the midpoint twice: the matchings tie
        Ps = np.repeat(P[None], len(Qs), axis=0)
        Ps[40:50, 1] = Ps[40:50, 0]
        one = np.asarray(impl.dist_sq_one_to_many(P, Qs))
        pairs = np.asarray(impl.dist_sq_pairs(Ps, Qs))
        full = np.array([_full_cost_value(impl, P, Q) for Q in Qs])
        full2 = np.array([_full_cost_value(impl, p, q) for p, q in zip(Ps, Qs)])
        np.testing.assert_allclose(one, full, rtol=8 * eps, atol=0)
        np.testing.assert_allclose(pairs, full2, rtol=8 * eps, atol=0)
        assert np.all(one[:10] == 0.0) and np.all(pairs[:10] == 0.0)


def test_selected_backend_exposed():
    assert kernels.BACKEND in {"python", "compiled"}
    assert "python" in kernels.available_backends()
