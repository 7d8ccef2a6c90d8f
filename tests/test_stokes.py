"""Weak exterior-derivative identity under quadrature refinement."""

import numpy as np
import pytest

from almqr.covers import planar_power
from almqr.forms import GroupAction, KForm, MultiPoly, natural_volume_form, polynomial_one_form, symmetrize, trace_form
from almqr.mv import BumpTestForm, from_cover, weak_stokes_check
from almqr.regions import Box, gl_nodes, legendre_rule
from almqr.runner import run_check

SUPPORT = Box([0.4, 0.4], [1.8, 1.8])
BUMP = BumpTestForm(lo=[0.5, 0.5], hi=[1.7, 1.7], q=3)


def invariant_one_form(d, coeffs=((0, 1, 1.0), (1, 0, -0.5))):
    p = MultiPoly(2, {(i, j): c for i, j, c in coeffs[:1]})
    q = MultiPoly(2, {(i, j): c for i, j, c in coeffs[1:]})
    return symmetrize(trace_form(polynomial_one_form(2, [p, q]), d), GroupAction.full(2, d))


def stokes_row(k, orders):
    """The one row of the stokes check of z^k on SUPPORT, with BUMP and the trace of y dx - x/2 dy."""
    form = {"kind": "trace_1form", "n": 2, "d": k, "c0": {"0,1": 1.0}, "c1": {"1,0": -0.5}}
    testform = {"lo": [0.5, 0.5], "hi": [1.7, 1.7], "q": 3}
    config = {"map": {"map": "power", "k": k}, "form": form, "testform": testform, "forms": 1, "testforms": 1,
              "orders": orders}
    record = run_check("stokes", config)
    (row,) = record.metrics["rows"]
    return record, row


def test_closed_top_degree_form_vanishes():
    F = from_cover(planar_power(2), SUPPORT)
    rep = weak_stokes_check(F, natural_volume_form(2, 2), BUMP, orders=(8,))
    assert rep["abs_discrepancy"] == 0.0
    assert rep["degree"] == 2


def test_classical_single_valued_oracle():
    F = from_cover(planar_power(1), SUPPORT)
    om = invariant_one_form(1)
    rep = weak_stokes_check(F, om, BUMP, orders=(4, 8, 16))
    discs = [l["abs_discrepancy"] for l in rep["levels"]]
    assert discs[-1] < 1e-12
    assert stokes_row(1, [4, 8, 16])[1]["decreasing"]


def test_inverse_square_one_form():
    F = from_cover(planar_power(2), SUPPORT)
    om = invariant_one_form(2)
    rep = weak_stokes_check(F, om, BUMP, orders=(8, 16, 32))
    assert rep["rel_discrepancy"] < 1e-3
    record, row = stokes_row(2, [8, 16, 32])
    assert record.passed and record.thresholds == {"tol": 1e-3}  # rel <= 1e-3 on decreasing levels
    assert row["decreasing"] and row["rel"] < 1e-3


def test_fd_derivative_route():
    # strip the analytic derivative: the check must fall back to FD of the coefficients
    F = from_cover(planar_power(2), SUPPORT)
    om = invariant_one_form(2)
    om_fd = KForm(degree=1, n=2, d=2, coeff_fn=om.coeff_fn, invariance="full")
    rep = weak_stokes_check(F, om_fd, BUMP, orders=(8, 16))
    assert rep["rel_discrepancy"] < 1e-3


def test_bump_gradient_consistency():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0.55, 1.65, size=2)
        g = BUMP.gradient(x)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (BUMP.value(x + e) - BUMP.value(x - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)
    assert BUMP.value([0.0, 0.0]) == 0.0
    assert np.allclose(BUMP.gradient(np.array([0.0, 0.0])), 0.0)


def test_degree_restriction():
    F = from_cover(planar_power(2), SUPPORT)
    om = KForm.zero(0, 2, 2)  # a 0-form: m - k - 1 = 1 test forms unsupported
    with pytest.raises(Exception):
        weak_stokes_check(F, om, BUMP, orders=(4,))


@pytest.mark.parametrize("order", [1, 2, 16, 64, 129])
def test_gauss_legendre_rules_are_cached_read_only_leggauss(order):
    x, w = legendre_rule(order)
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
    assert legendre_rule(order) is legendre_rule(order)
    for a in (x, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    # gl_nodes maps the shared rule into new arrays, as it mapped a fresh leggauss
    nodes, weights = gl_nodes(0.4, 1.8, order)
    mid, half = 0.5 * (0.4 + 1.8), 0.5 * (1.8 - 0.4)
    assert nodes.tobytes() == (mid + half * ref_x).tobytes()
    assert weights.tobytes() == (half * ref_w).tobytes()
    nodes[0] = 5.0
    assert legendre_rule(order)[0].tobytes() == ref_x.tobytes()
