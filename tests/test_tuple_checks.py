"""The batched tuple-space checks against the scalar loops they replaced.

``metric-oracle``, ``metric-axioms`` and ``barycenter-lipschitz`` draw by
one law (``runner._draw_groups``): every sample's d, then every sample's n,
then per (d, n) in lexicographic order one normal draw for the group's
samples in index order.  They sort each tuple's rows and price each group at
once (the solver route of ``metric-oracle`` takes all samples of one degree
at once); ``interp`` prices each of its per-pair loops in one batch.  The
per-sample loops below are the references: they draw by the same law one
sample at a time, and price one ``AlmgrenPoint`` per tuple, one distance
per pair (``metric-oracle``'s by the scalar solver of ``scalar_assignment``),
the enumeration oracle one permutation at a time.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from scalar_assignment import distance as scalar_distance
from scalar_assignment import matched_value

from almqr import kernels, runner
from almqr.almgren import (
    AlmgrenPoint,
    barycenter,
    distance_value,
    distance_values,
    lex_distances,
    points_of,
    sorted_tuples,
)
from almqr.mv import interpolate_feps
from almqr.util import seeded_rng


def _law_groups(rng, count, d_hi, n_hi):
    """The draw law's labels: every d in [2, d_hi), then every n in [1, n_hi); the
    (d, n) pairs drawn in lexicographic order, each with its sample indices ascending."""
    ds = rng.integers(2, d_hi, size=count).tolist()
    ns = rng.integers(1, n_hi, size=count).tolist()
    for d, n in sorted(set(zip(ds, ns))):
        yield d, n, [s for s in range(count) if (ds[s], ns[s]) == (d, n)]


def _law_samples(rng, n_samples, tuples, spread=2.0):
    """(sample index, d, [AlmgrenPoint] * tuples) in the law's order, one ``rng.normal`` per sample."""
    for d, n, idx in _law_groups(rng, n_samples, 7, 5):
        for s in idx:
            yield s, d, [AlmgrenPoint.from_points(x) for x in rng.normal(scale=spread, size=(tuples, d, n))]


def _distance_value_reference(p, q):
    kp = (p.locations.tobytes(), p.weights.tobytes())
    kq = (q.locations.tobytes(), q.weights.tobytes())
    a, b = (p, q) if kp <= kq else (q, p)
    return float(np.sqrt(kernels.dist_sq(a.expand(), b.expand())))


def _bruteforce_reference(p, q):
    P, Q = p.expand(), q.expand()
    diff = P[:, None, :] - Q[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    d = len(P)
    best, best_perm = np.inf, tuple(range(d))
    for perm in itertools.permutations(range(d)):
        total = cost[np.arange(d), perm].sum()
        if total < best:
            best, best_perm = total, perm
    return matched_value(P, Q, best_perm)


def _metric_oracle_reference(n_samples, seed, distance=scalar_distance):
    gaps = {}
    for s, _, (p, q) in _law_samples(seeded_rng(seed, 1), n_samples, 2):
        gaps[s] = abs(distance(p, q).value - _bruteforce_reference(p, q))
    first = [gaps[s] for s in range(n_samples) if gaps[s] != 0.0][:1]  # the first gap in sample order
    return {"n_samples": n_samples, "worst_abs_gap": first[0] if first else 0.0}


def _metric_axioms_reference(n_samples, seed):
    rng = seeded_rng(seed, 2)
    worst_tri = -np.inf
    worst_sym = 0.0
    for _, _, (p, q, r) in _law_samples(rng, n_samples, 3):
        dpq = _distance_value_reference(p, q)
        dqr = _distance_value_reference(q, r)
        dpr = _distance_value_reference(p, r)
        worst_tri = max(worst_tri, dpr - (dpq + dqr))
        worst_sym = max(worst_sym, abs(dpq - _distance_value_reference(q, p)))
    ident_ok = True
    for d, n, idx in _law_groups(rng, 200, 6, 4):
        pts = [rng.normal(size=(d, n)) for _ in idx]
        for x in pts:  # the group's shuffles after its points
            p = AlmgrenPoint.from_points(x)
            q = AlmgrenPoint.from_points(x[rng.permutation(d)])
            ident_ok = ident_ok and p == q and _distance_value_reference(p, q) == 0.0
    return {
        "n_samples": n_samples,
        "worst_triangle_excess": float(worst_tri),
        "worst_symmetry_gap": worst_sym,
        "indiscernible_ok": ident_ok,
    }


def _barycenter_lipschitz_reference(n_samples, seed):
    rng = seeded_rng(seed, 3)
    worst = 0.0
    for _, d, (p, q) in _law_samples(rng, n_samples, 2):
        dv = _distance_value_reference(p, q)
        if dv == 0:
            continue
        worst = max(worst, np.sqrt(d) * np.linalg.norm(barycenter(p) - barycenter(q)) / dv)
    eq_gap = 0.0
    for d, n, idx in _law_groups(rng, 100, 7, 5):
        for _ in idx:
            a, b = rng.normal(size=(2, n))
            p = AlmgrenPoint.diagonal(a, d)
            q = AlmgrenPoint.diagonal(b, d)
            ratio = np.sqrt(d) * np.linalg.norm(barycenter(p) - barycenter(q)) / _distance_value_reference(p, q)
            eq_gap = max(eq_gap, abs(ratio - 1.0))
    return {"n_samples": n_samples, "max_ratio": float(worst), "diagonal_equality_gap": eq_gap}


REFERENCES = {
    "metric-oracle": _metric_oracle_reference,
    "metric-axioms": _metric_axioms_reference,
    "barycenter-lipschitz": _barycenter_lipschitz_reference,
}


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("check", sorted(REFERENCES))
def test_batched_check_equals_scalar_loop(check, seed, monkeypatch):
    monkeypatch.setattr(runner, "SAMPLE_BLOCK", 8)  # 20 groups of about 15 samples, each in blocks
    record = runner.run_check(check, {"samples": 300}, seed)
    ref = REFERENCES[check](300, seed)
    assert record.metrics == ref
    assert {k: repr(v) for k, v in record.metrics.items()} == {k: repr(v) for k, v in ref.items()}
    assert record.passed and record.excluded == 0


@pytest.mark.parametrize("check", sorted(REFERENCES))
def test_sample_block_bounds_memory_only(check, monkeypatch):
    # 20 groups of about 100 samples: one block each by default, two at 64
    default = runner.run_check(check, {"samples": 2000}, 1).metrics
    monkeypatch.setattr(runner, "SAMPLE_BLOCK", 64)
    assert repr(runner.run_check(check, {"samples": 2000}, 1).metrics) == repr(default)


def _drawn(n_samples, tuples, seed):
    """{(d, n): (indices, [batch] * tuples)} of ``_draw_groups``, its blocks joined, and the keys in yield order."""
    groups, keys = {}, []
    for idx, batches in runner._draw_groups(seeded_rng(seed), n_samples, tuples):
        _, d, n = batches[0].shape
        assert len(batches) == tuples and all(B.shape == (len(idx), d, n) for B in batches)
        if (d, n) not in groups:
            keys.append((d, n))
            groups[(d, n)] = ([], [[] for _ in range(tuples)])
        groups[(d, n)][0].append(idx)
        for joined, B in zip(groups[(d, n)][1], batches):
            joined.append(B)
    return {key: (np.concatenate(idx), [np.concatenate(B) for B in bs]) for key, (idx, bs) in groups.items()}, keys


def test_draw_law_groups_labels_in_lexicographic_order(monkeypatch):
    monkeypatch.setattr(runner, "SAMPLE_BLOCK", 7)
    groups, keys = _drawn(400, 3, 5)
    # every (d, n) of the range occurs at 400 samples, once each, in lexicographic order
    assert keys == sorted(keys) == [(d, n) for d in range(2, 7) for n in range(1, 5)]
    for idx, _ in groups.values():
        assert np.all(np.diff(idx) > 0)
    assert np.array_equal(np.sort(np.concatenate([idx for idx, _ in groups.values()])), np.arange(400))
    # the labels are the first two draws of the stream
    rng = seeded_rng(5)
    ds, ns = rng.integers(2, 7, size=400), rng.integers(1, 5, size=400)
    for (d, n), (idx, _) in groups.items():
        assert np.array_equal(idx, np.flatnonzero((ds == d) & (ns == n)))
    # the block size bounds memory only: the default draws the same values
    monkeypatch.setattr(runner, "SAMPLE_BLOCK", 500)
    whole, _ = _drawn(400, 3, 5)
    for key, (idx, batches) in groups.items():
        assert np.array_equal(whole[key][0], idx)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(whole[key][1], batches))


def _skew(d):
    """A gap that names the sample's d."""
    return 1e-9 * d if d >= 4 else 0.0


@pytest.mark.parametrize("d", [2, 3, 6])
def test_permuted_rows_equal_successive_permutations(d):
    # metric-axioms shuffles a group's multisets with one rng.permuted over a
    # (k, d) stack; the reference draws one rng.permutation(d) per multiset
    for seed in range(5):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        k = 1 + 7 * seed
        rows = batched.permuted(np.tile(np.arange(d), (k, 1)), axis=1)
        assert np.array_equal(rows, [scalar.permutation(d) for _ in range(k)])
        assert batched.normal() == scalar.normal()  # and the stream is left at the same place


def test_metric_oracle_reports_the_first_gap_in_sample_order(monkeypatch):
    def skewed(p, q):  # the scalar reference, off by the gap
        res = scalar_distance(p, q)
        return dataclasses.replace(res, value=res.value + _skew(p.d))

    def skewed_route(pairs):  # the batched solver route of one degree, off by the same gap
        return lex_distances(pairs) + _skew(pairs[0][0].shape[1])

    monkeypatch.setattr(runner, "lex_distances", skewed_route)
    monkeypatch.setattr(runner, "SAMPLE_BLOCK", 8)
    for seed in (0, 1):
        record = runner.run_check("metric-oracle", {"samples": 300}, seed)
        assert not record.passed
        assert record.metrics == _metric_oracle_reference(300, seed, distance=skewed)


def _tuples_with_ties(rng, m, d, n):
    X = rng.normal(size=(m, d, n))
    X[::3, -1] = X[::3, 0]  # exact duplicate rows
    X[1::4, 0, 0] = -0.0
    X[2::4, :, -1] = 0.0
    X[2::8, :, -1] = -0.0  # ties broken on a later coordinate, with signed zeros
    X[5::7] = np.round(X[5::7])  # many equal coordinates
    return X


def test_sorted_tuples_and_points_of_equal_from_points():
    rng = np.random.default_rng(20)
    for d, n in itertools.product(range(1, 7), range(1, 4)):
        X = _tuples_with_ties(rng, 40, d, n)
        S = sorted_tuples(X)
        pts = points_of(X)
        for x, s, p in zip(X, S, pts):
            ref = AlmgrenPoint.from_points(x)
            assert s.tobytes() == ref.expand().tobytes()
            assert p == ref and p.weights.tolist() == ref.weights.tolist()
    assert points_of(np.zeros((0, 3, 2))) == [] and sorted_tuples(np.zeros((0, 3, 2))).shape == (0, 3, 2)


def test_distance_values_orientation_and_symmetry():
    rng = np.random.default_rng(21)
    for d, n in itertools.product(range(1, 7), range(1, 4)):
        P = sorted_tuples(_tuples_with_ties(rng, 40, d, n))
        Q = sorted_tuples(_tuples_with_ties(rng, 40, d, n))
        Q[::5] = P[::5]  # equal pairs
        got = distance_values(P, Q)
        assert got.tobytes() == distance_values(Q, P).tobytes()
        # the smaller expanded tuple by bytes goes first, as in distance_value
        pairs = [(p, q) if p.tobytes() <= q.tobytes() else (q, p) for p, q in zip(P, Q)]
        ref = np.sqrt(kernels.dist_sq_pairs(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])))
        assert got.tobytes() == ref.tobytes()
        if d >= 3:  # the solver and the enumeration find the same matchings here
            scalar = [distance_value(p, q) for p, q in zip(points_of(P), points_of(Q))]
            np.testing.assert_allclose(got, scalar, rtol=4 * np.finfo(float).eps, atol=0)
        assert np.all(got[::5] == 0.0)


def test_distance_value_orientation_keeps_old_rule_without_duplicates():
    rng = np.random.default_rng(22)
    for _ in range(200):
        d, n = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        p = AlmgrenPoint.from_points(rng.normal(size=(d, n)))
        q = AlmgrenPoint.from_points(rng.normal(size=(d, n)))
        assert distance_value(p, q) == _distance_value_reference(p, q)
    # diagonal points keep the old orientation as well
    a, b = rng.normal(size=(2, 3))
    p, q = AlmgrenPoint.diagonal(a, 4), AlmgrenPoint.diagonal(b, 4)
    assert distance_value(p, q) == _distance_value_reference(p, q) == distance_value(q, p)


def _forced_groups(P, Q):
    def draw(rng, n_samples, tuples):
        return [(np.arange(len(P)), [sorted_tuples(P), sorted_tuples(Q)])]

    return draw


def test_barycenter_lipschitz_counts_coincident_pairs(monkeypatch):
    rng = np.random.default_rng(23)
    P = rng.normal(size=(6, 3, 2))
    Q = rng.normal(size=(6, 3, 2))
    Q[2] = P[2][::-1]  # the same tuple reordered: distance 0, the ratio is 0/0
    ratio, coincident = runner._lipschitz_ratios(sorted_tuples(P), sorted_tuples(Q))
    assert coincident == 1 and len(ratio) == 5 and np.all(ratio > 0)
    monkeypatch.setattr(runner, "_draw_groups", _forced_groups(P, Q))
    record = runner.run_check("barycenter-lipschitz", {"samples": 6}, 0)
    assert record.passed and record.excluded == 1
    assert record.metrics["max_ratio"] == float(np.max(ratio))
    # the report says so: the same pairs without the coincident one exclude nothing
    keep = [0, 1, 3, 4, 5]
    monkeypatch.setattr(runner, "_draw_groups", _forced_groups(P[keep], Q[keep]))
    clean = runner.run_check("barycenter-lipschitz", {"samples": 5}, 0)
    assert clean.excluded == 0 and clean.metrics["max_ratio"] == record.metrics["max_ratio"]


def test_tuple_checks_fail_closed_on_nan_distances(monkeypatch):
    P = np.random.default_rng(24).normal(size=(4, 3, 2))
    monkeypatch.setattr(runner, "_draw_groups", _forced_groups(P, P + 1.0))
    monkeypatch.setattr(runner, "distance_values", lambda P, Q: np.full(len(P), np.nan))
    assert not runner.run_check("barycenter-lipschitz", {"samples": 4}, 0).passed
    monkeypatch.setattr(runner, "_draw_groups", lambda rng, n_samples, tuples: [(np.arange(4), [P, P + 1.0, P + 2.0])])
    assert not runner.run_check("metric-axioms", {"samples": 4}, 0).passed


def _interp_reference(config, seed):
    """(L, lip_feps, sup_dev) of each degree, one ``distance_value`` per pair."""
    rng = seeded_rng(seed, 11)
    rows = []
    for d in config["ds"]:
        F = runner._synthetic_map(d)
        X = F.domain.sample(rng, config["pairs"])
        Y = F.domain.sample(rng, config["pairs"])
        apart = [(a, b) for a, b in zip(X, Y) if np.linalg.norm(a - b) > 1e-12]
        L = float(max(distance_value(F(a), F(b)) / np.linalg.norm(a - b) for a, b in apart)) * 1.05
        F.lipschitz_bound = L
        G, _ = interpolate_feps(F, config["eps"], cloud_size=config["cloud"], seed=seed)
        lip_eps = max(distance_value(G(a), G(b)) / np.linalg.norm(a - b) for a, b in apart)
        dev = max(distance_value(G(x), F(x)) for x in X)
        rows.append((L, float(lip_eps), float(dev)))
    return rows


@pytest.mark.parametrize("seed", [0, 7919])
def test_interp_equals_per_pair_loops(seed):
    config = {"ds": [2, 3], "eps": 0.1, "pairs": 300, "cloud": 500}
    record = runner.run_check("interp", config, seed)
    rows = [(r["L"], r["lip_feps"], r["sup_dev"]) for r in record.metrics["rows"]]
    assert repr(rows) == repr(_interp_reference(config, seed))
