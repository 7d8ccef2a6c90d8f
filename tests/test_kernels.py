"""Oracle tests for the assignment kernels."""

import itertools

import numpy as np
import pytest
from scalar_assignment import lex_refine, near_tie_costs
from scalar_assignment import solve_assignment as scalar_solve

from almqr import _kernels_py, almgren, kernels
from almqr.almgren import AlmgrenPoint
from almqr.covers import match_fibers


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
    # 300 random trials, solved in one stack per degree against the exhaustive
    # enumeration (itself checked against brute_min_cost below)
    rng = np.random.default_rng(0)
    by_d = {}
    for _ in range(300):
        d = int(rng.integers(1, 8))
        by_d.setdefault(d, []).append(rng.normal(size=(d, d)) ** 2)
    assert sum(map(len, by_d.values())) == 300
    for d, costs in by_d.items():
        cost = np.array(costs)
        value, perm = kernels.solve_assignments(cost)
        ref, _ = kernels.enumerate_min(cost)
        for c, v, p, r in zip(cost, value, perm, ref):
            assert v == pytest.approx(r, abs=1e-12)
            assert sorted(p.tolist()) == list(range(d))
            assert c[np.arange(d), p].sum() == pytest.approx(v, abs=1e-12)


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


def _full_cost_values(Ps, Qs):
    """The solver's values on the full cost matrices of the pairs (Ps, Qs) (m, d, n), in one stack."""
    diff = Ps[:, :, None, :] - Qs[:, None, :, :]
    return kernels.solve_assignments(np.einsum("aijk,aijk->aij", diff, diff))[0]


def test_batch_paths_match_scalar():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for d in (1, 2, 3, 5):
            P = rng.normal(size=(d, n))
            Qs = rng.normal(size=(40, d, n))
            batch = kernels.dist_sq_one_to_many(P, Qs)
            ref = np.array([kernels.dist_sq(P, Q) for Q in Qs])
            np.testing.assert_allclose(batch, ref, rtol=0, atol=1e-12)
            full = _full_cost_values(np.broadcast_to(P, Qs.shape), Qs)
            np.testing.assert_allclose(batch, full, rtol=0, atol=1e-12)
            Ps = rng.normal(size=(40, d, n))
            pairs = kernels.dist_sq_pairs(Ps, Qs)
            ref2 = np.array([kernels.dist_sq(p, q) for p, q in zip(Ps, Qs)])
            np.testing.assert_allclose(pairs, ref2, rtol=0, atol=1e-12)
            full2 = _full_cost_values(Ps, Qs)
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
        full = _full_cost_values(np.broadcast_to(P, Qs.shape), Qs)
        full2 = _full_cost_values(Ps, Qs)
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


@pytest.mark.parametrize("d", range(1, 9))  # d > 6 prices the pairs with the solver
def test_scalar_distance_is_a_batch_of_one(d):
    # each scalar value equals its row of a batch of all the pairs, which is
    # the batch of one of that row
    rng = np.random.default_rng(20 + d)
    for n in (1, 2, 3, 4):
        pairs = _pairs_with_ties(rng, d, n)
        batch = kernels.dist_sq_pairs(np.array([P for P, _ in pairs]), np.array([Q for _, Q in pairs]))
        points = [(AlmgrenPoint.from_points(P), AlmgrenPoint.from_points(Q)) for P, Q in pairs]
        values = almgren.distance_values(
            np.array([p.expand() for p, _ in points]), np.array([q.expand() for _, q in points])
        )
        for (P, Q), (p, q), b, v in zip(pairs, points, batch, values):
            assert kernels.dist_sq(P, Q) == b
            assert almgren.distance_value(p, q) == v


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


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 6])
def test_enumerate_min_runner_up_is_the_second_smallest_total(d):
    rng = np.random.default_rng(30 + d)
    cost = _tie_costs(rng, d, 2) if d else np.zeros((4, 0, 0))
    value, perm, second = kernels.enumerate_min(cost, runner_up=True)
    plain = kernels.enumerate_min(cost)
    assert value.tobytes() == plain[0].tobytes() and perm.tobytes() == plain[1].tobytes()
    for c, v, s in zip(cost, value, second):
        totals = sorted(sum(c[i, p[i]] for i in range(d)) for p in itertools.permutations(range(d)))
        # the same left-to-right sums; ties give second == value, a single matching inf
        assert s == (totals[1] if len(totals) > 1 else np.inf) and v == totals[0]


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
    # the Python-float solver is the tests' fast per-matrix reference
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
                value, perm = scalar_solve(c)
                ref, ref_perm = _solve_assignment_numpy_scalars(c)
                assert value == ref and perm.dtype == ref_perm.dtype and np.array_equal(perm, ref_perm)


def _solver_stack(rng, d):
    """Cost matrices (m, d, d) for the solver: squared distances of tuples at
    scales 10^-6 to 10^6 (with a doubled point, or against a permutation of
    themselves: tied matchings), Gaussian entries (negative ones too), small
    integers (many tied optima), and each of those again with its rows and
    columns permuted, elsewhere in the stack."""
    costs = []
    for trial in range(8):
        n = int(rng.integers(1, 4))
        P = rng.normal(size=(d, n)) * 10.0 ** rng.integers(-6, 7)
        Q = rng.normal(size=(d, n)) * 10.0 ** rng.integers(-6, 7)
        if trial % 2 == 0:
            Q[-1] = Q[0]
        if trial % 4 == 1:
            Q = P[rng.permutation(d)]
        costs.append(_kernels_py.sq_costs(P[None], Q[None])[0])
        costs.append(rng.normal(size=(d, d)) * 10.0 ** rng.integers(-6, 7))
        costs.append(rng.integers(-2, 3, size=(d, d)).astype(np.float64))
    costs += [c[rng.permutation(d)][:, rng.permutation(d)] for c in costs[::2]]
    return np.array(costs)[rng.permutation(len(costs))]


@pytest.mark.parametrize("d", range(1, 13))
def test_batched_solver_equals_scalar_solver_bit_for_bit(d):
    cost = _solver_stack(np.random.default_rng(30 + d), d)
    value, perm = kernels.solve_assignments(cost)
    assert value.shape == (len(cost),) and perm.shape == (len(cost), d) and perm.dtype == np.int64
    for c, v, p in zip(cost, value, perm):
        ref, ref_perm = _solve_assignment_numpy_scalars(c)
        assert v.tobytes() == np.float64(ref).tobytes()  # signed zeros included
        assert np.array_equal(p, ref_perm)
        one, one_perm = kernels.solve_assignment(c)  # each row is its batch of one
        assert np.float64(one).tobytes() == v.tobytes() and np.array_equal(one_perm, p)


def test_solver_on_empty_and_tiny_stacks():
    for d in (0, 1, 3, 8):
        value, perm = kernels.solve_assignments(np.zeros((0, d, d)))
        assert value.shape == (0,) and perm.shape == (0, d)
        value, perm, second = kernels.solve_assignments(np.zeros((0, d, d)), runner_up=True)
        assert value.shape == second.shape == (0,) and perm.shape == (0, d)
    for d in (0, 1):  # one matching: no runner-up, as the enumeration says
        cost = np.arange(3.0 * d * d).reshape(3, d, d)
        ours, theirs = kernels.solve_assignments(cost, runner_up=True), kernels.enumerate_min(cost, runner_up=True)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, theirs)) and np.all(ours[2] == np.inf)
    value, perm = kernels.solve_assignments(np.array([[[-0.0]], [[2.5]]]))
    assert value.tobytes() == np.array([-0.0, 2.5]).tobytes() and perm.tolist() == [[0], [0]]
    assert kernels.solve_assignment(np.zeros((0, 0)))[0] == 0.0
    with pytest.raises(ValueError):
        kernels.solve_assignments(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        kernels.solve_assignment(np.zeros((3, 4)))


def _solver_runner_up(cost, monkeypatch):
    """``solve_assignments(cost, runner_up=True)`` and the rounding bound its docstring states,
    err = 6 d (d + 3) 2^-53 S, S = max|c| + max|u| + max|v|, with the potentials the solve ends with."""
    scales = []
    original = _kernels_py._runner_up

    def spy(cost, col_of_row, value, u, v):
        scales.append(np.abs(cost).max(axis=(1, 2)) + np.abs(u).max(axis=1) + np.abs(v).max(axis=1))
        return original(cost, col_of_row, value, u, v)

    monkeypatch.setattr(_kernels_py, "_runner_up", spy)
    value, perm, second = kernels.solve_assignments(cost, runner_up=True)
    d = cost.shape[1]
    return value, perm, second, 6 * d * (d + 3) * 2.0**-53 * scales[0]


def _exact_totals(cost, perms):
    """Exactly rounded totals (m, k) of the permutations perms (k, d) on cost matrices (m, d, d), as ``math.fsum``."""
    terms = cost[:, np.arange(cost.shape[1]), perms]  # (m, k, d)
    return almgren.exact_sums(terms.reshape(-1, terms.shape[2])).reshape(terms.shape[:2])


@pytest.mark.parametrize("d", range(2, 9))
def test_solver_runner_up_agrees_with_enumeration(d, monkeypatch):
    # the certificate reads the solver's potentials only; the enumeration (d <= 6) or a full
    # scan of the d! permutations (d = 7, 8) checks it from outside
    rng = np.random.default_rng(70 + d)
    m = 40 if d <= 6 else 12
    cost = np.concatenate([
        kernels.sq_costs(rng.normal(size=(m, d, 2)), rng.normal(size=(m, d, 2))),
        _tie_costs(rng, d, 2)[:m] if d <= 6 else rng.integers(0, 3, size=(m, d, d)).astype(np.float64),
        near_tie_costs(rng, d, m),
    ])
    value, perm, second, err = _solver_runner_up(cost, monkeypatch)
    plain = kernels.solve_assignments(cost)
    assert value.tobytes() == plain[0].tobytes() and perm.tobytes() == plain[1].tobytes()
    perms = _kernels_py._permutations(d)
    exact = _exact_totals(cost, perms)
    mine = (perms[None] == perm[:, None]).all(axis=2)
    assert mine.sum(axis=1).tolist() == [1] * len(cost)
    runner = np.where(mine, np.inf, exact).min(axis=1)  # every other matching, exactly rounded
    # a lower bound on every other matching, however close the race ...
    assert np.all(second <= runner)
    # ... and within the stated rounding of the exact gap: the d // 2 cycles of a tie at most
    rounding = (d - 1) * d * 2.0**-53 * np.abs(cost).max(axis=(1, 2))  # of value, a d-term float sum
    gap = runner - exact[mine]
    assert np.all((second - value) >= np.minimum(gap, (d // 2) * gap) - (d // 2 + 1) * (err + rounding))
    if d <= 6:
        ve, pe, se = kernels.enumerate_min(cost, runner_up=True)
        same = (pe == perm).all(axis=1)
        assert same.mean() > 0.8
        off = np.abs((second - value) - (se - ve))
        np.testing.assert_array_less(off[same], (d // 2 + 1) * (err + rounding)[same])
    # near ties within a few ulps are never certified: the bound sits at or below the value
    close = np.abs(gap) <= 1e-14 * exact[mine]
    assert close.sum() >= m // 2 and np.all(second[close] <= value[close])


def test_solver_fails_closed_on_non_finite_costs():
    # each of these ran forever: a row of NaN or inf costs leaves the
    # augmenting-path scan without a column to take
    with pytest.raises(ValueError, match=r"cost matrices \[0\] have non-finite entries"):
        kernels.solve_assignment(np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        kernels.dist_sq_pairs(np.full((1, 7, 2), np.nan), np.zeros((1, 7, 2)))
    # the enumeration route (3 <= d <= 6) has no minimum of NaN totals to take
    with pytest.raises(ValueError, match=r"cost matrices \[0\] have non-finite entries"):
        kernels.dist_sq_pairs(np.full((1, 6, 2), np.nan), np.zeros((1, 6, 2)))
    with pytest.raises(ValueError, match=r"cost matrices \[0\] have non-finite entries"):
        match_fibers(np.zeros((1, 4, 2)), np.full((1, 4, 2), np.nan))
    cost = np.random.default_rng(13).normal(size=(6, 4, 4))
    cost[1, 2] = np.inf
    cost[4, 0, 3] = -np.inf
    with pytest.raises(ValueError, match=r"\[1, 4\]"):
        kernels.solve_assignments(cost)
    with pytest.raises(ValueError, match=r"\[1, 4\]"):
        kernels.enumerate_min(cost)
    # two valid, finite d = 7 tuples whose squared distances overflow to inf
    rng = np.random.default_rng(14)
    p = AlmgrenPoint.from_points(rng.normal(size=(7, 2)) * 1e200)
    q = AlmgrenPoint.from_points(rng.normal(size=(7, 2)) * 1e200)
    assert np.all(np.isfinite(p.expand())) and np.all(np.isfinite(q.expand()))
    with pytest.raises(ValueError, match="non-finite"):
        almgren.distance_value(p, q)
    # finite costs near the float limit: where the potentials overflow the
    # solve raises too, and either way it ends
    big, mid = 1.7e308, 1e308
    overflowing = np.array(
        [[big, -mid, big, mid], [big, -big, mid, big], [-big, -mid, mid, -big], [0.0, mid, mid, big]]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="overflowed"):
            kernels.solve_assignment(overflowing)
        for c in np.random.default_rng(15).choice([-big, -mid, 0.0, mid, big], size=(60, 5, 5)):
            try:
                kernels.solve_assignment(c)
            except ValueError as exc:
                assert "overflowed" in str(exc)


@pytest.mark.parametrize("d", [1, 2])
def test_closed_form_kernels_fail_closed(d):
    # the closed forms of d <= 2 raise as the cost matrices of d >= 3 do, naming the pairs
    rng = np.random.default_rng(60 + d)
    Ps, Qs = rng.normal(size=(5, d, 2)), rng.normal(size=(5, d, 2))
    good = kernels.dist_sq_pairs(Ps, Qs)
    assert np.isfinite(good).all()
    for bad in (np.nan, np.inf, -np.inf):
        P = Ps.copy()
        P[3, 0, 1] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=r"pairs \[3\] have non-finite distances"):
                kernels.dist_sq_pairs(P, Qs)
            with pytest.raises(ValueError, match=r"pairs \[3\] have non-finite distances"):
                kernels.dist_sq_one_to_many(Qs[0], P)
            with pytest.raises(ValueError, match="non-finite"):
                kernels.dist_sq(P[3], Qs[3])
    with pytest.raises(ValueError, match=r"pairs \[0\] have non-finite distances"):
        kernels.dist_sq_pairs(np.full((1, d, 2), np.nan), np.zeros((1, d, 2)))
    # finite tuples whose squared distances overflow to inf
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"pairs \[0, 1, 2, 3, 4\]"):
            kernels.dist_sq_pairs(Ps * 1e200, -Qs * 1e200)
        with pytest.raises(ValueError, match="non-finite"):
            almgren.distance_value(AlmgrenPoint.from_points(Ps[0] * 1e200), AlmgrenPoint.from_points(-Qs[0] * 1e200))
    # the check reads the result only: finite input keeps its bytes
    assert kernels.dist_sq_one_to_many(Ps[0], Qs).tobytes() == _kernels_py._checked(
        kernels.dist_sq_one_to_many(Ps[0], Qs)
    ).tobytes()


@pytest.mark.parametrize("d", range(2, 8))
def test_lex_matchings_are_the_first_optimal_matching(d):
    # integer points on a small grid: many tied optimal matchings, priced exactly
    rng = np.random.default_rng(40 + d)
    P = rng.integers(-2, 3, size=(60, d, 2)).astype(np.float64)
    Q = rng.integers(-2, 3, size=(60, d, 2)).astype(np.float64)
    Q[::4] = P[::4][:, rng.permutation(d)]
    Q[1::4, -1] = Q[1::4, 0]
    Q[2::4] = Q[2::4, :1]  # one point d times: every matching ties
    values, perms = almgren.bruteforce_matchings(P, Q)
    assert np.array_equal(almgren.lex_matchings(kernels.sq_costs(P, Q)), perms)
    assert almgren.lex_distances([(P[:25], Q[:25]), (P[25:], Q[25:])]).tobytes() == values.tobytes()
    for a in range(0, 60, 15):  # the scalar distance is a batch of one
        p, q = AlmgrenPoint.from_points(P[a]), AlmgrenPoint.from_points(Q[a])
        ref = almgren.distance_bruteforce(p, q)
        assert almgren.distance(p, q) == ref
    # certified rows skip the refinement and keep what it returns: on these ties, the near
    # ties within a few ulps and plain random tuples, row by row as the scalar reference does
    cost = np.concatenate([
        kernels.sq_costs(P, Q),
        near_tie_costs(rng, d, 60),
        kernels.sq_costs(rng.normal(size=(60, d, 2)), rng.normal(size=(60, d, 2))),
    ])
    got = almgren.lex_matchings(cost)
    assert np.array_equal(got, almgren._lex_refine(cost, kernels.solve_assignments(cost)[0]))
    for c, g in zip(cost, got):
        assert tuple(g.tolist()) == lex_refine(c, scalar_solve(c)[0])


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_lex_matchings_refine_only_the_uncertified_rows(d, monkeypatch):
    rng = np.random.default_rng(80 + d)
    gaussian = kernels.sq_costs(rng.normal(size=(1500, d, 2)), rng.normal(size=(1500, d, 2)))
    ties = near_tie_costs(rng, d, 100)  # 4 in 5 within the refinement's band
    original = almgren._lex_refine
    for cost, least, most in ((gaussian, 0, 15), (ties, 60, 100)):
        seen = []
        monkeypatch.setattr(almgren, "_lex_refine", lambda c, best: seen.append(len(c)) or original(c, best))
        got = almgren.lex_matchings(cost)
        assert least <= sum(seen) <= most  # at most 1% of the Gaussian rows
        assert np.array_equal(got, original(cost, kernels.solve_assignments(cost)[0]))


@pytest.mark.parametrize("d", [7, 8])
def test_solver_routes_equal_per_row_solves(d):
    rng = np.random.default_rng(50 + d)
    P = rng.normal(size=(d, 2))
    Ps = rng.normal(size=(30, d, 2))
    Qs = rng.normal(size=(30, d, 2))
    Qs[::5] = Ps[::5][:, rng.permutation(d)]  # distance 0, tied matchings
    Qs[1::5, -1] = Qs[1::5, 0]
    pairs = [scalar_solve(c)[0] for c in kernels.sq_costs(Ps, Qs)]
    assert kernels.dist_sq_pairs(Ps, Qs).tobytes() == np.array(pairs).tobytes()
    one = [scalar_solve(c)[0] for c in kernels.sq_costs(P[None], Qs)]
    assert kernels.dist_sq_one_to_many(P, Qs).tobytes() == np.array(one).tobytes()
    perms = [scalar_solve(((x[:, None, :] - f[None, :, :]) ** 2).sum(axis=2))[1] for x, f in zip(Ps, Qs)]
    assert np.array_equal(match_fibers(Ps, Qs), np.array(perms))
