"""Path lifting through branched covers: continuation, monodromy, collisions."""

import lift_reference
import numpy as np
import pytest
from scalar_assignment import near_tie_costs

from almqr import covers
from almqr.almgren import distance_value
from almqr.covers import (
    CoverError,
    LiftedPath,
    NumericalError,
    complex_polynomial,
    lift_path,
    lift_paths,
    minv,
    planar_power,
    polyline_paths,
    precomposed,
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


# ---------------------------------------------------------------------------
# speculative windows against the step-at-a-time reference (tests/lift_reference.py)

Z3_3Z = complex_polynomial([0, -3, 0, 1])  # critical values +-2, over the critical points -+1
AFFINE_Z2 = precomposed(np.array([[1.3, 0.0], [0.0, 0.7692307692307693]]), planar_power(2))


def _assert_matches_reference(f, gamma, P, **kwargs):
    """lift_paths and the reference give every path the same LiftedPath bytes, or the same error."""
    got = lift_paths(f, gamma, P, **kwargs)
    ref = lift_reference.lift_paths(f, gamma, P, **kwargs)
    assert len(got) == len(ref) == P
    for a, b in zip(got, ref):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b)
        else:
            assert isinstance(a, LiftedPath)
            _assert_same_lift(a, b)
    return got


def _curves(rng, count, scale, through=None):
    """Random polylines of 2-5 vertices; with ``through``, every third passes that point."""
    curves = []
    for c in range(count):
        pts = rng.normal(size=(int(rng.integers(2, 6)), 2)) * scale
        if through is not None and c % 3 == 0:
            pts[len(pts) // 2] = through
        curves.append(pts)
    return curves


@pytest.mark.parametrize(
    "f, through",
    [
        (planar_power(2), [0.0, 0.0]),
        (planar_power(3), [0.0, 0.0]),
        (Z3_3Z, [2.0, 0.0]),
        (Z3_3Z, [-2.0, 1e-9]),
        (AFFINE_Z2, [0.0, 0.0]),
        (planar_power(7), [0.0, 0.0]),
    ],
    ids=["z2", "z3", "z3-3z-at-2", "z3-3z-near-minus-2", "affine-z2", "z7-solver"],
)
@pytest.mark.parametrize("steps", [4, 32, 128])
def test_windows_equal_the_step_at_a_time_reference(f, through, steps):
    rng = np.random.default_rng(steps)
    curves = _curves(rng, 9, 1.5, through)
    out = _assert_matches_reference(f, polyline_paths(curves), len(curves), initial_steps=steps)
    # paths of unequal length: the ones through the branch value halve
    assert len({len(lp.ts) for lp in out if isinstance(lp, LiftedPath)}) > 1


@pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (0.25, 0.8), (-0.5, 2.0), (0.3, 0.3), (3.0, 1000.0)])
def test_windows_equal_the_reference_on_other_intervals(t0, t1):
    rng = np.random.default_rng(5)
    curves = _curves(rng, 6, 1.0, [0.0, 0.0])
    _assert_matches_reference(planar_power(3), polyline_paths(curves), len(curves), t0=t0, t1=t1, initial_steps=24)

    def loops(rows, t):  # circles about the branch value, once around over [t0, t1]
        angle = 2 * np.pi * (t - t0) / max(t1 - t0, 1.0)
        return (0.5 + 0.3 * rows)[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)

    _assert_matches_reference(planar_power(3), loops, 4, t0=t0, t1=t1, initial_steps=24)


def test_windows_equal_the_reference_for_failing_paths():
    f = winding_map_3d(2)  # image: the solid cylinder r <= 2, |z| <= 1
    paths = [
        lambda t: np.array([0.5 + 3.0 * t, 0.2, 0.1]),  # leaves the image partway
        lambda t: np.array([0.5 + t, 0.2, 0.1 - 0.5 * t]),
        lambda t: np.array([1e-9 + t - 0.5, 1e-9, 0.0]),  # passes the branch axis
        lambda t: np.array([0.4, np.inf if t > 0.6 else 0.3, 0.0]),  # turns non-finite
        lambda t: np.array([3.0, 0.0, 0.0]),  # outside from the start
        lambda t: np.array([4.0 * t - 1.5, 1e-9, 0.0]),  # halves by the axis, then leaves the image
    ]
    out = _assert_matches_reference(f, _batch_gamma(paths), len(paths), initial_steps=40)
    assert isinstance(out[5], CoverError)
    # after a crossing the steps leave the grid of the first window, so an error at a point
    # of that window, past the rejection, would name a point a lone step never reaches
    paths = [lambda t: np.array([2.0 * t - 1.0, 1e-9 if t <= 0.7 else np.inf])]
    (lp,) = _assert_matches_reference(planar_power(2), _batch_gamma(paths), 1, initial_steps=64)
    assert isinstance(lp, NumericalError) and "non-finite point" in str(lp)
    assert isinstance(out[0], CoverError) and isinstance(out[3], NumericalError) and isinstance(out[4], CoverError)
    assert _assert_matches_reference(f, _batch_gamma(paths), 0) == []


def test_windows_equal_the_reference_when_every_round_is_capped(monkeypatch):
    rng = np.random.default_rng(11)
    curves = _curves(rng, 7, 1.2, [0.0, 0.0])
    rounds = []
    original = covers._window
    monkeypatch.setattr(covers, "_window", lambda *a: rounds.append(1) or original(*a))
    monkeypatch.setattr(covers, "LIFT_ROWS", 9)
    _assert_matches_reference(planar_power(2), polyline_paths(curves), len(curves), initial_steps=64)
    assert len(rounds) > 64  # at most 9 rows a round: many rounds


def test_windows_equal_the_reference_at_exact_and_near_ties():
    # the fibers of z^2 turn by a right angle each step, so both matchings tie exactly; a loose
    # jump factor accepts them, and the tie is broken in label order, as a lone step breaks it
    def turning(phase):
        return lambda t: np.array([np.cos(np.pi * (4 * t + phase)), np.sin(np.pi * (4 * t + phase))])

    paths = [turning(phase) for phase in (0.0, 0.5, 1.0, 1e-12)]
    paths += [lambda t: np.array([0.0, 0.0]), lambda t: np.array([2.0, 0.0])]  # constant at branch values
    for f in (planar_power(2), Z3_3Z, planar_power(3)):
        for jump_factor in (0.5, 1.0, 2.0):
            _assert_matches_reference(f, _batch_gamma(paths), len(paths), initial_steps=8, jump_factor=jump_factor)


def test_uncertified_steps_are_settled_as_lone_steps(monkeypatch):
    # with no speculative matching certified, every window commits one step and settles the next alone
    original = covers._matching
    monkeypatch.setattr(covers, "_matching", lambda cost: (original(cost)[0], np.zeros(len(cost), dtype=bool)))
    rng = np.random.default_rng(2)
    for f in (planar_power(2), Z3_3Z):
        curves = _curves(rng, 5, 1.5, [0.0, 0.0])
        _assert_matches_reference(f, polyline_paths(curves), len(curves), initial_steps=32)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 7, 8])  # d > 6: the solver's certificate
def test_certified_matchings_are_the_optimum_in_any_row_order(d):
    # near ties: the two cheapest matchings a and b, which differ on one cycle, total within a few ulps
    rng = np.random.default_rng(d)
    cost = near_tie_costs(rng, d, 2000)
    perm, certified = covers._matching(cost)
    assert certified.any() and not certified.all()
    for sigma in (rng.permutation(d) for _ in range(6)):
        # in any row order a certified row keeps its pairs; the label-order route serves the rest
        again = covers._matching(cost[:, sigma])[0]
        assert np.array_equal(again[certified], perm[certified][:, sigma])
    if d > 2:
        # the certificate is needed: some uncertified rows do change pairs with the row order
        changed = [
            ~(covers._matching(cost[:, sigma])[0] == perm[:, sigma]).all(axis=1)
            for sigma in (rng.permutation(d) for _ in range(20))
        ]
        assert np.any(changed) and not np.any(np.array(changed)[:, certified])


@pytest.mark.parametrize(
    "kwargs",
    [{"initial_steps": -1}, {"initial_steps": 0}, {"initial_steps": 2.5}, {"initial_steps": True},
     {"t0": 1.0, "t1": 0.0}, {"t1": float("nan")}, {"t0": -float("inf")}, {"t1": "1"}],
)
def test_bad_lifting_inputs_fail_before_any_work(kwargs):
    calls = []
    with pytest.raises(ValueError):
        lift_paths(planar_power(2), lambda rows, t: calls.append(1), 3, **kwargs)
    with pytest.raises(ValueError):
        lift_paths(planar_power(2), lambda rows, t: calls.append(1), 0, **kwargs)
    assert not calls


def test_gamma_raising_past_a_failure_is_not_reported():
    # the path leaves the image before t = 0.5; a window reaches past it, where gamma raises
    def gamma(rows, t):
        if np.any(t > 0.5):
            raise RuntimeError("gamma is undefined past t = 0.5")
        return np.stack([0.5 + 4.0 * t, np.full(len(t), 0.2), np.zeros(len(t))], axis=1)

    out = _assert_matches_reference(winding_map_3d(2), gamma, 1, initial_steps=16)
    assert isinstance(out[0], CoverError)
    # where a lone step evaluates gamma, its error is raised as before
    with pytest.raises(RuntimeError):
        lift_paths(planar_power(2), lambda rows, t: gamma(rows, t)[:, :2], 1, initial_steps=16)


def test_lift_path_evaluates_gamma_at_every_parameter():
    seen = []

    def gamma(t):
        seen.append(float(t))
        return circle(t)

    lp = lift_path(planar_power(2), gamma, initial_steps=32)
    assert sorted(set(seen)) == sorted(set([0.0] + lp.ts.tolist()))
