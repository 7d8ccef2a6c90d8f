"""Tuple space: construction, metric, barycenter, strata."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_assignment import distance as scalar_distance

from almqr.almgren import (
    AlmgrenPoint,
    TupleSpaceError,
    barycenter,
    distance,
    distance_bruteforce,
    distance_value,
    distances_to_diagonal,
    singular_stratum,
)


def pt(*locs, weights=None):
    return AlmgrenPoint.from_points([np.atleast_1d(np.asarray(x, dtype=float)) for x in locs], weights)


# -- construction ------------------------------------------------------------


def test_merge_and_expand():
    p = pt([0.0], weights=[2])
    assert p.expand().tolist() == [[0.0], [0.0]]
    q = pt([1.0], [-1.0])
    assert q.expand().tolist() == [[-1.0], [1.0]]  # lexicographic
    r = pt([0.0, 0.0], weights=[3])
    assert r.d == 3 and r.n == 2
    assert r.expand().shape == (3, 2)


def test_duplicates_merge_exactly():
    p = pt([1.0, 2.0], [1.0, 2.0], [3.0, 4.0])
    assert len(p.weights) == 2
    assert p.weights.tolist() == [2, 1]
    assert p.d == 3


def test_invalid_construction():
    with pytest.raises(TupleSpaceError):
        pt([0.0], weights=[0])
    with pytest.raises(TupleSpaceError):
        pt([np.inf])
    with pytest.raises(TupleSpaceError):
        AlmgrenPoint.from_points([])
    with pytest.raises(TupleSpaceError):
        pt([0.0], [1.0, 2.0])  # mixed dims


def test_json_round_trip():
    p = pt([0.5, -1.0], [0.5, -1.0], [2.0, 3.0])
    q = AlmgrenPoint.from_json(p.to_json())
    assert p == q
    with pytest.raises(TupleSpaceError):
        AlmgrenPoint.from_json({"n": 2, "points": [{"x": [1.0], "w": 1}]})


# -- distance ----------------------------------------------------------------


def test_distance_single_point_is_euclidean():
    assert distance_value(pt([0.0, 0.0]), pt([3.0, 4.0])) == pytest.approx(5.0)


def test_distance_equal_multisets_is_zero():
    p = pt([0.0], [1.0])
    q = pt([1.0], [0.0])
    assert p == q
    assert distance_value(p, q) == 0.0


def test_distance_matches_bruteforce_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        p = AlmgrenPoint.from_points(rng.normal(size=(d, n)))
        q = AlmgrenPoint.from_points(rng.normal(size=(d, n)))
        a = scalar_distance(p, q)  # almgren.distance, one scalar solve at a time
        b = distance_bruteforce(p, q)
        assert a.value == pytest.approx(b.value, abs=0.0)
        assert a.matching == b.matching


def test_distance_tie_break_deterministic():
    # both pairings of [[0,2]] vs [[1,1]] cost 2 exactly; identity wins
    p = pt([0.0], [2.0])
    q = pt([1.0], weights=[2])
    a = distance(p, q)
    b = distance_bruteforce(p, q)
    assert a.value == pytest.approx(np.sqrt(2.0))
    assert a.matching == b.matching == (0, 1)


def test_bruteforce_guard():
    p = AlmgrenPoint.from_points(np.random.default_rng(0).normal(size=(9, 1)))
    with pytest.raises(TupleSpaceError):
        distance_bruteforce(p, p)


def test_incompatible_operands():
    with pytest.raises(TupleSpaceError):
        distance_value(pt([0.0]), pt([0.0, 1.0]))  # n mismatch
    with pytest.raises(TupleSpaceError):
        distance_value(pt([0.0]), pt([0.0], [1.0]))  # d mismatch


# -- hypothesis property tests ------------------------------------------------

coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@st.composite
def tuple_points(draw, d=None, n=None):
    d = d or draw(st.integers(min_value=1, max_value=5))
    n = n or draw(st.integers(min_value=1, max_value=3))
    locs = draw(
        st.lists(st.lists(coords, min_size=n, max_size=n), min_size=d, max_size=d)
    )
    return AlmgrenPoint.from_points(np.asarray(locs, dtype=float))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_metric_axioms_property(data):
    d = data.draw(st.integers(min_value=1, max_value=5))
    n = data.draw(st.integers(min_value=1, max_value=3))
    p = data.draw(tuple_points(d=d, n=n))
    q = data.draw(tuple_points(d=d, n=n))
    r = data.draw(tuple_points(d=d, n=n))
    dpq = distance_value(p, q)
    assert dpq == distance_value(q, p)
    assert dpq >= 0.0
    assert distance_value(p, r) <= dpq + distance_value(q, r) + 1e-12


@settings(max_examples=80, deadline=None)
@given(tuple_points())
def test_permutation_invariance_property(p):
    rng = np.random.default_rng(0)
    X = p.expand()
    q = AlmgrenPoint.from_points(X[rng.permutation(len(X))])
    assert p == q
    assert distance_value(p, q) == 0.0


@settings(max_examples=80, deadline=None)
@given(tuple_points())
def test_barycenter_diagonal_distance_identity(p):
    b = barycenter(p)
    direct = np.sqrt(((p.expand() - b) ** 2).sum())
    assert distances_to_diagonal(p.expand()[None])[0] == pytest.approx(direct, abs=1e-12)
    full = distance_value(p, AlmgrenPoint.diagonal(b, p.d))
    assert full == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_barycenter_examples():
    assert np.allclose(barycenter(AlmgrenPoint.diagonal([2.0, -1.0], 4)), [2.0, -1.0])
    assert np.allclose(barycenter(pt([0.0, 0.0], [2.0, 0.0])), [1.0, 0.0])


def test_barycenter_lipschitz_sampled():
    rng = np.random.default_rng(11)
    for _ in range(500):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        p = AlmgrenPoint.from_points(rng.normal(size=(d, n)))
        q = AlmgrenPoint.from_points(rng.normal(size=(d, n)))
        dv = distance_value(p, q)
        assert np.linalg.norm(barycenter(p) - barycenter(q)) <= dv / np.sqrt(d) + 1e-12


def test_diagonal_is_closest_diagonal_point():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = AlmgrenPoint.from_points(rng.normal(size=(4, 2)))
        base = distances_to_diagonal(p.expand()[None])[0]
        for _ in range(100):
            c = rng.normal(size=2)
            assert base <= distance_value(p, AlmgrenPoint.diagonal(c, 4)) + 1e-12


# -- singular strata -----------------------------------------------------------


def test_singular_stratum_examples():
    assert singular_stratum(pt([1.0], [2.0], [3.0])) == 1
    assert singular_stratum(pt([0.0], [0.0], [1.0])) == 2
    assert singular_stratum(pt([5.0], weights=[3])) == 3
    p = pt([0.0], [1e-9], [1.0])
    assert singular_stratum(p, tol=0.0) == 1
    assert singular_stratum(p, tol=1e-8) == 2
    with pytest.raises(TupleSpaceError):
        singular_stratum(p, tol=-1.0)
