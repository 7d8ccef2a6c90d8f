"""Path lifting through branched covers: continuation, monodromy, collisions."""

import numpy as np
import pytest

from almqr.almgren import distance_value
from almqr.covers import (
    CoverError,
    LiftedPath,
    NumericalError,
    lift_path,
    lift_paths,
    minv,
    planar_power,
    polyline_paths,
    winding_map_3d,
)


def circle(t):
    return np.array([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)])


def test_monodromy_of_square_on_unit_circle():
    f = planar_power(2)
    lp = lift_path(f, circle)
    perm = lp.monodromy()
    assert perm is not None and perm.tolist() == [1, 0]
    # lifts are the two half circles
    for ti, Xi in zip(lp.ts[::13], lp.lifts[::13]):
        z = np.exp(1j * np.pi * ti)
        explicit = {(round(z.real, 8), round(z.imag, 8)), (round(-z.real, 8), round(-z.imag, 8))}
        got = {(round(a, 8), round(b, 8)) for a, b in Xi}
        assert explicit == got
    # the multi-valued curve is a closed loop even though the lifts swap
    assert distance_value(minv(f, circle(0.0)), minv(f, circle(1.0))) < 1e-12


def test_monodromy_of_cube():
    f = planar_power(3)
    lp = lift_path(f, circle, initial_steps=256)
    perm = lp.monodromy()
    assert perm is not None
    assert not np.array_equal(perm, np.arange(3))  # a 3-cycle


def test_identity_lift_is_path_itself():
    f = planar_power(1)
    gamma = lambda t: np.array([t, t * t])
    lp = lift_path(f, gamma)
    assert np.allclose(lp.lifts[:, 0, :], lp.base, atol=1e-12)
    assert lp.monodromy() is None  # not closed


def test_constant_path():
    f = planar_power(2)
    y0 = np.array([0.5, 0.5])
    lp = lift_path(f, lambda t: y0, initial_steps=16)
    fib = minv(f, y0).expand()
    for X in lp.lifts:
        assert np.allclose(np.sort(X, axis=0), np.sort(fib, axis=0), atol=1e-12)
    assert lp.max_jump < 1e-12


def test_lift_consistency_with_fibers():
    f = planar_power(2)
    gamma = lambda t: np.array([1.0 + 0.5 * np.sin(2 * np.pi * t), 0.3 * np.cos(2 * np.pi * t)])
    lp = lift_path(f, gamma)
    for t, y, X in zip(lp.ts[::7], lp.base[::7], lp.lifts[::7]):
        # lifted tuple must equal the fiber as a multiset
        fib = minv(f, y).expand()
        diff = X[:, None, :] - fib[None, :, :]
        cost = np.einsum("ijk,ijk->ij", diff, diff)
        from almqr.kernels import assignment_value

        assert assignment_value(cost) < 1e-18
        # and each lift maps forward to the base point
        for x in X:
            assert np.linalg.norm(f.evaluate(x) - y) < 1e-9


def test_lift_through_branch_point():
    f = planar_power(2)
    path = lambda t: np.array([2.0 * t - 1.0, 0.0])  # crosses the branch value at t = 0.5
    lp = lift_path(f, path)
    res = max(
        np.linalg.norm(f.evaluate(x) - b)
        for X, b in zip(lp.lifts, lp.base)
        for x in X
    )
    assert res < 1e-8


def test_polyline_parametrization():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    gamma = polyline_paths([pts])
    # arclength: first segment is 1/3 of the total length 3
    ends = gamma(np.zeros(3, dtype=np.int64), np.array([0.0, 1.0, 1.0 / 3.0]))
    assert np.allclose(ends, [[0, 0], [1, 2], [1.0, 0.0]], atol=1e-12)


def _batch_gamma(paths):
    return lambda rows, t: np.stack([paths[r](tr) for r, tr in zip(rows, t)])


def _assert_same_lift(got, ref):
    for a, b in ((got.ts, ref.ts), (got.base, ref.base), (got.lifts, ref.lifts)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.branch_crossings == ref.branch_crossings
    assert got.max_jump == ref.max_jump


def test_lockstep_rows_equal_their_own_lifts():
    f = planar_power(3)
    paths = [
        lambda t: np.array([2.0 * t - 1.0, 1e-9]),  # passes the branch value: halving, then a crossing
        lambda t: np.array([0.5, 0.5]),  # constant
        circle,  # the unit loop: d = 3 matching, monodromy a 3-cycle
        lambda t: np.array([t, np.inf if t > 0.5 else 0.3]),  # fails alone on a non-finite point
        lambda t: np.array([1.0 + 0.5 * np.sin(2 * np.pi * t), 0.3 * np.cos(2 * np.pi * t)]),
    ]
    out = lift_paths(f, _batch_gamma(paths), len(paths), initial_steps=64)
    assert isinstance(out[3], NumericalError) and "non-finite" in str(out[3])
    for p in (0, 1, 2, 4):
        assert isinstance(out[p], LiftedPath)
        _assert_same_lift(out[p], lift_path(f, paths[p], initial_steps=64))
        # labels start in the lexicographic order of minv(f, y).expand()
        assert np.lexsort(out[p].lifts[0].T[::-1]).tolist() == [0, 1, 2]
    assert out[0].branch_crossings and len(np.unique(np.diff(out[0].ts))) > 1
    assert out[1].max_jump == 0.0
    perm = out[2].monodromy()
    assert sorted(perm.tolist()) == [0, 1, 2] and not np.any(perm == np.arange(3))
    # the failed row changes nothing: the others lifted without it
    rest = lift_paths(f, _batch_gamma([paths[p] for p in (0, 1, 2, 4)]), 4, initial_steps=64)
    for got, ref in zip(rest, (out[0], out[1], out[2], out[4])):
        _assert_same_lift(got, ref)


def test_lockstep_row_leaving_the_image_fails_alone():
    f = winding_map_3d(2)  # image: the solid cylinder r <= 2, |z| <= 1
    paths = [lambda t: np.array([0.5 + 3.0 * t, 0.2, 0.1]), lambda t: np.array([0.5 + t, 0.2, 0.1 - 0.5 * t])]
    out = lift_paths(f, _batch_gamma(paths), 2)
    assert isinstance(out[0], CoverError)
    with pytest.raises(CoverError):
        lift_path(f, paths[0])
    _assert_same_lift(out[1], lift_path(f, paths[1]))
    assert lift_paths(f, _batch_gamma(paths), 0) == []


def _polyline_reference(points):
    """The scalar parametrization, one searchsorted per call."""
    pts = np.asarray(points, dtype=np.float64)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total == 0:
        return lambda t: pts[0]

    def gamma(t):
        s = np.clip(t, 0.0, 1.0) * total
        i = int(np.searchsorted(cum, s, side="right")) - 1
        i = min(max(i, 0), len(seg) - 1)
        u = (s - cum[i]) / seg[i] if seg[i] > 0 else 0.0
        return pts[i] * (1 - u) + pts[i + 1] * u

    return gamma


def test_polyline_paths_match_scalar_reference():
    rng = np.random.default_rng(3)
    curves = [rng.normal(size=(m, 2)) for m in (2, 5, 9)]
    curves.append(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 2.0]]))  # a zero-length segment
    curves.append(np.array([[0.3, -0.2], [0.3, -0.2]]))  # zero length
    gamma = polyline_paths(curves)
    ts = np.concatenate([rng.uniform(-0.1, 1.1, 200), [0.0, 1.0, 1.0 / 3.0, 0.5]])
    for c, pts in enumerate(curves):
        ref = _polyline_reference(pts)
        got = gamma(np.full(len(ts), c), ts)
        assert got.tobytes() == np.array([ref(t) for t in ts]).tobytes()
