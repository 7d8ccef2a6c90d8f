"""Oracle tests for the assignment kernels."""

import itertools

import numpy as np
import pytest

from almqr import _kernels_py, almgren, kernels
from almqr.almgren import AlmgrenPoint


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


def test_solver_matches_enumeration():
    rng = np.random.default_rng(0)
    for trial in range(300):
        d = int(rng.integers(1, 8))
        cost = rng.normal(size=(d, d)) ** 2
        value, perm = kernels.solve_assignment(cost)
        ref, _ = brute_min_cost(cost)
        assert value == pytest.approx(ref, abs=1e-12)
        assert sorted(perm.tolist()) == list(range(d))
        assert cost[np.arange(d), perm].sum() == pytest.approx(value, abs=1e-12)


def test_dist_sq_consistent_with_solver():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        P = rng.normal(size=(d, n))
        Q = rng.normal(size=(d, n))
        diff = P[:, None, :] - Q[None, :, :]
        cost = np.einsum("ijk,ijk->ij", diff, diff)
        assert kernels.dist_sq(P, Q) == pytest.approx(kernels.assignment_value(cost), abs=1e-12)


def _full_cost_value(P, Q):
    diff = P[:, None, :] - Q[None, :, :]
    return kernels.assignment_value(np.einsum("ijk,ijk->ij", diff, diff))


def test_batch_paths_match_scalar():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for d in (1, 2, 3, 5):
            P = rng.normal(size=(d, n))
            Qs = rng.normal(size=(40, d, n))
            batch = kernels.dist_sq_one_to_many(P, Qs)
            ref = np.array([kernels.dist_sq(P, Q) for Q in Qs])
            np.testing.assert_allclose(batch, ref, rtol=0, atol=1e-12)
            full = np.array([_full_cost_value(P, Q) for Q in Qs])
            np.testing.assert_allclose(batch, full, rtol=0, atol=1e-12)
            Ps = rng.normal(size=(40, d, n))
            pairs = kernels.dist_sq_pairs(Ps, Qs)
            ref2 = np.array([kernels.dist_sq(p, q) for p, q in zip(Ps, Qs)])
            np.testing.assert_allclose(pairs, ref2, rtol=0, atol=1e-12)
            full2 = np.array([_full_cost_value(p, q) for p, q in zip(Ps, Qs)])
            np.testing.assert_allclose(pairs, full2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6])
def test_d2_batch_kernels_ties_and_scales(scale):
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
        one = kernels.dist_sq_one_to_many(P, Qs)
        pairs = kernels.dist_sq_pairs(Ps, Qs)
        full = np.array([_full_cost_value(P, Q) for Q in Qs])
        full2 = np.array([_full_cost_value(p, q) for p, q in zip(Ps, Qs)])
        np.testing.assert_allclose(one, full, rtol=8 * eps, atol=0)
        np.testing.assert_allclose(pairs, full2, rtol=8 * eps, atol=0)
        assert np.all(one[:10] == 0.0) and np.all(pairs[:10] == 0.0)


def test_selected_backend_exposed():
    assert kernels.BACKEND == "python"


def _pairs_with_ties(rng, d, n):
    """Pairs of (d, n) tuples: random ones, then P against itself, a permutation
    of itself and a tuple with a doubled point, in both orders."""
    pairs = [(rng.normal(size=(d, n)), rng.normal(size=(d, n))) for _ in range(12)]
    P = rng.normal(size=(d, n))
    doubled = rng.normal(size=(d, n))
    doubled[-1] = doubled[0]
    return pairs + [(P, P.copy()), (P, P[rng.permutation(d)]), (P, doubled), (doubled, P)]


@pytest.mark.parametrize("d", range(1, 9))  # d > 6 prices each pair with the solver
def test_scalar_distance_is_a_batch_of_one(d):
    rng = np.random.default_rng(20 + d)
    for n in (1, 2, 3, 4):
        for P, Q in _pairs_with_ties(rng, d, n):
            assert kernels.dist_sq(P, Q) == kernels.dist_sq_pairs(P[None], Q[None])[0]
            p, q = AlmgrenPoint.from_points(P), AlmgrenPoint.from_points(Q)
            batch = almgren.distance_values(p.expand()[None], q.expand()[None])[0]
            assert almgren.distance_value(p, q) == batch


def _tie_costs(rng, d, n):
    """Cost matrices (m, d, d) with exact ties: P against itself reordered, a
    doubled point, the midpoint of two points twice, and plain random pairs."""
    P = rng.normal(size=(d, n))
    Qs = [P[rng.permutation(d)] for _ in range(4)]
    for _ in range(4):
        Q = rng.normal(size=(d, n))
        Q[-1] = Q[0]
        Qs.append(Q)
    if d >= 2:
        mid = 0.5 * (P[0] + P[1])
        Qs.append(np.concatenate([[mid, mid], P[2:]]))
    Qs += list(rng.normal(size=(8, d, n)))
    Qs = np.array(Qs)
    Ps = np.repeat(P[None], len(Qs), axis=0)
    Ps[:3, -1] = Ps[:3, 0]  # doubled points on both sides
    return _kernels_py.sq_costs(Ps, Qs)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_enumerate_min_matches_brute_min_cost(d):
    rng = np.random.default_rng(10 + d)
    for n in (1, 2, 3):
        cost = _tie_costs(rng, d, n)
        value, perm = kernels.enumerate_min(cost)
        assert value.shape == (len(cost),) and perm.shape == (len(cost), d)
        for c, v, p in zip(cost, value, perm):
            ref, ref_perm = brute_min_cost(c)
            assert v == ref  # bit for bit, the same left-to-right sum
            assert tuple(p.tolist()) == ref_perm  # the first minimum in lexicographic order


def test_enumerate_min_empty_and_chunked(monkeypatch):
    for d in (0, 1, 3):
        value, perm = kernels.enumerate_min(np.zeros((0, d, d)))
        assert value.shape == (0,) and perm.shape == (0, d)
    rng = np.random.default_rng(11)
    cost = rng.normal(size=(300, 6, 6)) ** 2  # several chunks at d = 6
    cost[::7] = cost[::7, :, ::-1]
    whole = kernels.enumerate_min(cost)
    assert len(cost) * 720 > _kernels_py.ENUMERATION_CHUNK
    monkeypatch.setattr(_kernels_py, "ENUMERATION_CHUNK", 1)  # one row per chunk
    for a, b in zip(whole, kernels.enumerate_min(cost)):
        assert a.tobytes() == b.tobytes()
    for c, v, p in zip(cost[:40], *whole):
        ref, ref_perm = brute_min_cost(c)
        assert v == ref and tuple(p.tolist()) == ref_perm


def _solve_assignment_numpy_scalars(cost):
    """The solver as it ran on numpy scalar indexing: the bit-for-bit reference."""
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    d = cost.shape[0]
    if d == 0:
        return 0.0, np.empty(0, dtype=np.int64)
    if d == 1:
        return float(cost[0, 0]), np.zeros(1, dtype=np.int64)
    inf = np.inf
    u = np.zeros(d + 1)
    v = np.zeros(d + 1)
    p = np.zeros(d + 1, dtype=np.int64)
    way = np.zeros(d + 1, dtype=np.int64)
    for i in range(1, d + 1):
        p[0] = i
        j0 = 0
        minv = np.full(d + 1, inf)
        used = np.zeros(d + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = -1
            for j in range(1, d + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(d + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    col_of_row = np.empty(d, dtype=np.int64)
    for j in range(1, d + 1):
        col_of_row[p[j] - 1] = j - 1
    return float(cost[np.arange(d), col_of_row].sum()), col_of_row


def test_solver_on_python_floats_equals_numpy_scalar_solver():
    rng = np.random.default_rng(12)
    for d in range(2, 10):
        for trial in range(60):
            n = int(rng.integers(1, 4))
            P = rng.normal(size=(d, n)) * 10.0 ** rng.integers(-6, 7)
            Q = rng.normal(size=(d, n)) * 10.0 ** rng.integers(-6, 7)
            if trial % 3 == 0:
                Q[-1] = Q[0]  # tied matchings
            if trial % 5 == 0:
                Q = P[rng.permutation(d)]
            cost = _kernels_py.sq_costs(P[None], Q[None])[0]
            for c in (cost, rng.normal(size=(d, d))):  # also negative entries
                value, perm = _kernels_py.solve_assignment(c)
                ref, ref_perm = _solve_assignment_numpy_scalars(c)
                assert value == ref and perm.dtype == ref_perm.dtype and np.array_equal(perm, ref_perm)
