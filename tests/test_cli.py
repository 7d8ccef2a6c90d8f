"""CLI dispatch, report determinism, suite aggregation, exit codes, verdict rules."""

import dataclasses
import json

import numpy as np
import pytest

from almqr import kernels, runner
from almqr.cli import load_manifest, main
from almqr.dsl import SpecError
from almqr.modulus import ring_modulus_exact
from almqr.reports import stable_body
from almqr.runner import CHECKS, run_check


def run_cli(*argv):
    return main(list(argv))


def test_inverse_command(capsys):
    code = run_cli("inverse", "--map", '{"map":"poly","coeffs":[-1,0,1]}', "--y", "[0,0]")
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["n"] == 2
    xs = sorted(round(p["x"][0], 8) for p in out["points"])
    assert xs == [-1.0, 1.0]


def test_inverse_malformed_map(capsys):
    assert run_cli("inverse", "--map", '{"map":"bogus"}', "--y", "[0,0]") == 2
    assert run_cli("inverse", "--map", "not json", "--y", "[0,0]") == 2


def test_form_comass_command(capsys):
    code = run_cli(
        "form", "comass", "--form", '{"kind":"trace_vol","n":2,"d":2}', "--point", "[0.1,0.2,0.3,0.4]"
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == pytest.approx(1.0, abs=1e-6)


def test_form_comass_rejects_empty_start_set(capsys):
    vanishing = (
        '{"kind":"sum","terms":[{"kind":"elementary","n":2,"d":2,"indices":[0,1],"c":1.0},'
        '{"kind":"elementary","n":2,"d":2,"indices":[0,1],"c":-1.0}]}'
    )
    assert run_cli("form", "comass", "--form", vanishing, "--point", "[0,0,0,0]", "--starts", "0") == 2
    assert "--starts" in capsys.readouterr().err


def test_form_comass_non_finite_coefficient_fails_at_once(capsys):
    nan_form = '{"kind":"elementary","n":2,"d":2,"indices":[0,1],"c":NaN}'
    assert run_cli("form", "comass", "--form", nan_form, "--point", "[0,0,0,0]", "--starts", "8") == 3
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is False and out["sweeps"] == 0 and np.isnan(out["value"])


def test_form_comass_empty_sum_exit_code(capsys):
    assert run_cli("form", "comass", "--form", '{"kind":"sum","terms":[]}', "--point", "[0,0,0,0]") == 2
    assert "at least one term" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["[0.1,0.2,0.3]", "[0.1,0.2,0.3,0.4,0.5]", "[[0.1,0.2],[0.3,0.4]]", "0.1", '["a",0,0,0]'])
def test_form_comass_point_of_the_wrong_shape_exit_code(point, capsys):
    assert run_cli("form", "comass", "--form", '{"kind":"trace_vol","n":2,"d":2}', "--point", point) == 2
    assert "--point" in capsys.readouterr().err


@pytest.mark.parametrize("indices", [[1, 0], [0, 0], [0, 4], [-1, 0]])
def test_form_comass_bad_elementary_indices_exit_code(indices, capsys):
    form = json.dumps({"kind": "elementary", "n": 2, "d": 2, "indices": indices})
    assert run_cli("form", "comass", "--form", form, "--point", "[0,0,0,0]") == 2


def test_unconverged_comass_check_is_numerical_failure(monkeypatch, capsys):
    real = runner.comass

    def stopped(form, x, settings=None):
        return dataclasses.replace(real(form, x, settings), converged=False)

    monkeypatch.setattr(runner, "comass", stopped)
    assert run_cli("verify", "comass", "--config", '{"ns":[2],"ds":[2],"points":1}') == 3
    assert "did not converge" in capsys.readouterr().err


def test_verify_writes_report_and_csv(tmp_path, capsys):
    report = tmp_path / "r.json"
    csvf = tmp_path / "r.csv"
    code = run_cli(
        "verify",
        "qr-curve",
        "--map",
        '{"map":"power","k":2}',
        "--samples",
        "500",
        "--seed",
        "3",
        "--out",
        str(report),
        "--csv",
        str(csvf),
    )
    assert code == 0
    rec = json.loads(report.read_text())
    assert rec["check"] == "qr-curve"
    assert rec["claim_id"] == "qr-curve-bound"
    assert rec["pass"] is True
    assert csvf.exists() and "bin_lo" in csvf.read_text()
    capsys.readouterr()


def test_report_determinism(tmp_path, capsys):
    args = [
        "verify",
        "monodromy",
        "--seed",
        "9",
    ]
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    assert run_cli(*args, "--out", str(r1)) == 0
    assert run_cli(*args, "--out", str(r2)) == 0
    capsys.readouterr()
    assert stable_body(r1.read_text()) == stable_body(r2.read_text())


def test_report_timing_carries_env_outside_the_stable_body():
    record = run_check("metric-axioms", {"samples": 20}, 3)
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    assert record.timing["env"] == {
        "backend": kernels.BACKEND,
        "numpy": np.__version__,
        "simd": {"baseline": simd["baseline"], "found": simd["found"]},
    }
    before = dataclasses.replace(record, timing={k: record.timing[k] for k in ("runtime_s", "timestamp")})
    assert stable_body(record.dumps()) == stable_body(before.dumps())
    assert '"env"' not in stable_body(record.dumps())


def test_stable_body_ignores_the_simd_level():
    # the same (config, seed) on a CPU with other SIMD extensions keeps its stable body
    record = run_check("metric-axioms", {"samples": 20}, 3)
    env = {**record.timing["env"], "simd": {"baseline": [], "found": ["NO_SUCH_EXTENSION"]}}
    other = dataclasses.replace(record, timing={**record.timing, "env": env})
    assert other.dumps() != record.dumps()
    assert stable_body(other.dumps()) == stable_body(record.dumps())
    assert '"simd"' not in stable_body(record.dumps())


def test_verify_failure_exit_code(tmp_path, capsys):
    # an impossible tolerance forces a check failure -> exit 1
    code = run_cli(
        "verify",
        "modulus",
        "--config",
        json.dumps({"grid": 32, "tol": 1e-9, "family": {"family": "radial", "count": 64}}),
    )
    capsys.readouterr()
    assert code == 1


def test_preimage_measure_empty_ball_exit_code(capsys):
    # no sample falls in a ball this small: a numerical failure (exit 3), not a traceback
    code = run_cli("verify", "preimage-measure", "--config", json.dumps({"radius": 1e-6, "samples": 2000}))
    assert code == 3
    assert "falls in the ball" in capsys.readouterr().err


def test_ahlfors_empty_ball_exit_code(capsys):
    # at the critical value 2 of z^3 - 3z the global df_bound of a polynomial makes the reach far
    # larger than the ball, and no draw of 200 falls in the ball of radius 0.02:
    # a numerical failure (exit 3), not a ball of measure 0 that passes
    poly = json.dumps({"map": "poly", "coeffs": [0, -3, 0, 1]})
    code = run_cli(
        "sample", "ahlfors", "--map", poly, "--centers", "[[2, 0]]", "--radii", "0.02", "--N", "200", "--seed", "0"
    )
    assert code == 3
    assert "no draw of 200 falls in the ball" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"centers": 0},
        {"radii": 0},
        {"map": {"map": "wind3", "k": 2}},
        {"samples": 0},
        {"samples": 1},
        {"radii_list": [0.0]},
        {"radii_list": [-0.1]},
        {"radii_list": [float("nan")]},
        {"samples": "abc"},
        {"radii_list": 0.1},
        {"center_points": 5},
    ],
    ids=["no-centers", "no-radii", "wind3", "no-samples", "one-sample", "zero-radius", "negative-radius",
         "nan-radius", "samples-not-an-integer", "radii-not-a-list", "centers-not-a-list"],
)
def test_ahlfors_bad_config_exit_code(config, capsys):
    # a config the sampler cannot run is a usage error (exit 2), not a FAIL verdict (exit 1)
    assert run_cli("verify", "ahlfors", "--config", json.dumps(config)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "check, config",
    [
        ("interp", {"pairs": 0}),
        ("upper-gradient", {"samples_per_curve": 0}),
        ("gen-inverse", {"samples": 0}),
        ("energy", {"order": 0}),
        ("area", {"orders": []}),
        ("metric-qc", {"radii": []}),
        ("metric-qc", {"radii": [0.1, 0.0]}),
        ("metric-qc", {"map": {"map": "wind3", "k": 2}, "y": [1.0, 0.0, 0.0]}),
        ("qr-curve", {"map": {"map": "wind3", "k": 2}}),
        ("preimage-measure", {"map": {"map": "wind3", "k": 2}}),
        ("metric-qc", {"y": "ab"}),
        ("metric-qc", {"y": [1.0, float("nan")]}),
        ("metric-qc", {"y": [[1.0, 0.0]]}),
        ("metric-qc", {"y": []}),
        ("preimage-measure", {"center_y": "ab"}),
        ("preimage-measure", {"center_y": [1.0, "0"]}),
        ("preimage-measure", {"center_y": [float("inf"), 0.0]}),
        ("preimage-measure", {"center_y": [True, False]}),
        ("preimage-measure", {"center_y": [10**400, 0]}),
        ("stokes", {"orders": []}),
        ("stokes", {"orders": [0]}),
        ("stokes", {"orders": [16, "a"]}),
        ("stokes", {"orders": [100000]}),
        ("stokes", {"orders": [16.0]}),
        ("stokes", {"orders": [True]}),
        ("stokes", {"orders": 16}),
        ("stokes", {"forms": 0}),
        ("stokes", {"testforms": 2.5}),
        ("stokes", {"tol": "ab"}),
        ("stokes", {"tol": None}),
        ("stokes", {"tol": float("inf")}),
        ("area", {"orders": [32, 1025]}),
        ("area", {"orders": ["32"]}),
        ("energy", {"order": 100000}),
        ("energy", {"order": 2.5}),
        ("energy", {"order": "64"}),
        ("metric-oracle", {"samples": 0}),
        ("metric-axioms", {"samples": 0}),
        ("barycenter-lipschitz", {"samples": 0}),
        ("metric-oracle", {"samples": 2.5}),
        ("metric-axioms", {"tol": "ab"}),
        ("metric-axioms", {"tol": -1e-12}),
        ("barycenter-lipschitz", {"tol": float("nan")}),
        ("barycenter-lipschitz", {"tol": None}),
        ("gen-inverse", {"degrees": []}),
        ("gen-inverse", {"degrees": [2.5]}),
        ("gen-inverse", {"degrees": [2, "3"]}),
        ("gen-inverse", {"degrees": 3}),
        ("gen-inverse", {"degrees": [0]}),
        ("interp", {"ds": []}),
        ("interp", {"ds": [True]}),
        ("interp", {"ds": [0]}),
        ("area", {"image_annulus": [4, 1]}),
        ("energy", {"image_annulus": [4, 1]}),
        ("area", {"image_annulus": [1.0]}),
        ("energy", {"image_annulus": [-1.0, 2.0]}),
        ("area", {"image_annulus": [1.0, float("nan")]}),
        ("energy", {"image_annulus": "ab"}),
        ("geom-qc", {"map": {"map": "wind3", "k": 2}}),
        ("monodromy", {"map": {"map": "wind3", "k": 2}}),
        ("stokes", {"map": {"map": "wind3", "k": 2}}),
        ("stokes", {"form": {"kind": "trace_vol", "n": 3, "d": 2}}),
        ("stokes", {"testform": {"lo": [0.5, 0.5, 0.5], "hi": [1, 1, 1]}}),
        ("stokes", {"testform": {"lo": [1, 1], "hi": [0.5, 0.5]}}),
        ("modulus", {"region": "disk:1"}),
        ("modulus", {"region": "annulus:1,inf"}),
        ("modulus", {"n": 1}),
        ("modulus", {"family": {"family": "polylines", "paths": [[1.1, 0]]}}),
        ("modulus", {"family": "circles"}),
        ("upper-gradient", {"region": "disk:1"}),
        ("interp", {"eps": 0}),
        ("preimage-measure", {"samples": 50}),
        ("ahlfors", {"center_points": [[1.0, 0.0]], "centers": 5}),
        ("ahlfors", {"radii_list": [0.1], "radii": 7}),
    ],
    ids=["interp-no-pairs", "upper-gradient-no-samples", "gen-inverse-no-samples", "energy-order-0", "area-no-orders",
         "metric-qc-no-radii", "metric-qc-zero-radius", "metric-qc-wind3", "qr-curve-wind3-planar-region",
         "preimage-measure-wind3-planar-points", "metric-qc-y-a-string", "metric-qc-y-nan", "metric-qc-y-nested",
         "metric-qc-y-empty", "preimage-measure-center-a-string", "preimage-measure-center-a-string-entry",
         "preimage-measure-center-inf", "preimage-measure-center-booleans", "preimage-measure-center-huge-integer",
         "stokes-no-orders", "stokes-order-0", "stokes-order-a-string", "stokes-order-too-large",
         "stokes-order-a-float", "stokes-order-a-boolean", "stokes-orders-not-a-list", "stokes-no-forms",
         "stokes-testforms-not-an-integer", "stokes-tol-a-string", "stokes-tol-null", "stokes-tol-inf",
         "area-order-too-large", "area-order-a-string", "energy-order-too-large", "energy-order-not-an-integer",
         "energy-order-a-string", "metric-oracle-no-samples", "metric-axioms-no-samples",
         "barycenter-lipschitz-no-samples", "metric-oracle-samples-not-an-integer", "metric-axioms-tol-a-string",
         "metric-axioms-tol-negative", "barycenter-lipschitz-tol-nan", "barycenter-lipschitz-tol-null",
         "gen-inverse-no-degrees", "gen-inverse-degree-a-float", "gen-inverse-degree-a-string",
         "gen-inverse-degrees-not-a-list", "gen-inverse-degree-0", "interp-no-ds", "interp-d-a-boolean", "interp-d-0",
         "area-annulus-reversed", "energy-annulus-reversed", "area-annulus-one-radius", "energy-annulus-negative",
         "area-annulus-nan", "energy-annulus-a-string", "geom-qc-wind3", "monodromy-wind3", "stokes-wind3",
         "stokes-form-of-another-dimension", "stokes-testform-3d", "stokes-testform-reversed", "modulus-disk",
         "modulus-infinite-annulus", "modulus-n-1", "modulus-polyline-not-a-path",
         "modulus-circles", "upper-gradient-radial-on-a-disk",
         "interp-eps-0", "preimage-measure-too-few-samples", "ahlfors-center-points-and-centers",
         "ahlfors-radii-list-and-radii"],
)
def test_bad_config_exit_code(check, config, capsys):
    # no samples, no levels, or points of the wrong dimension: a usage error (exit 2), not a traceback
    assert run_cli("verify", check, "--config", json.dumps(config)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "check, config",
    [
        ("geom-qc", {"lift_steps": -1}),
        ("geom-qc", {"lift_steps": 0}),
        ("geom-qc", {"lift_steps": 2.5}),
        ("geom-qc", {"lift_steps": "ab"}),
        ("geom-qc", {"grid": 0}),
        ("geom-qc", {"grid": None}),
        ("geom-qc", {"slack": -0.05}),
        ("geom-qc", {"slack": float("nan")}),
        ("geom-qc", {"slack": "ab"}),
        ("monodromy", {"steps": -1}),
        ("monodromy", {"steps": 0}),
        ("monodromy", {"steps": True}),
        ("gen-inverse", {"degrees": [1]}),
        ("gen-inverse", {"degrees": [2, 1]}),
        ("gen-inverse", {"tol": "ab"}),
        ("invariant-projection", {"tol_ratio": None}),
        ("invariant-projection", {"tol_fd": -1.0}),
        ("split-pullback", {"tol": None}),
        ("qr-curve", {"tol": "ab"}),
        ("qr-curve", {"samples": 0}),
        ("qr-curve", {"samples": "ab"}),
        ("qr-curve", {"sharp": "no"}),
        ("qr-curve", {"sharp": 1}),
        ("upper-gradient", {"tol": float("nan")}),
        ("upper-gradient", {"tol": -1e-6}),
        ("area", {"tol": "ab"}),
        ("modulus", {"tol": float("inf")}),
        ("interp", {"tol": None}),
    ],
    ids=["geom-qc-lift-steps-negative", "geom-qc-lift-steps-0", "geom-qc-lift-steps-a-float",
         "geom-qc-lift-steps-a-string", "geom-qc-grid-0", "geom-qc-grid-null", "geom-qc-slack-negative",
         "geom-qc-slack-nan", "geom-qc-slack-a-string", "monodromy-steps-negative", "monodromy-steps-0",
         "monodromy-steps-a-boolean", "gen-inverse-degree-1", "gen-inverse-degrees-with-1", "gen-inverse-tol-a-string",
         "invariant-projection-tol-ratio-null", "invariant-projection-tol-fd-negative", "split-pullback-tol-null",
         "qr-curve-tol-a-string", "qr-curve-no-samples", "qr-curve-samples-a-string", "qr-curve-sharp-a-string",
         "qr-curve-sharp-an-integer", "upper-gradient-tol-nan", "upper-gradient-tol-negative", "area-tol-a-string",
         "modulus-tol-inf", "interp-tol-null"],
)
def test_bad_lifting_and_tolerance_config_exit_code(check, config, capsys):
    # bad step counts end before any lifting (lift_steps -1 used to hang), bad tolerances
    # before any work, and a degree outside the root-sum claim is a usage error, not a FAIL
    assert run_cli("verify", check, "--config", json.dumps(config)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, known",
    [
        (["verify", "stokes", "--config", '{"box": [[-0.5, -0.5], [0.5, 0.5]]}'], "'testforms'"),
        (["verify", "comass", "--samples", "5"], "'points'"),
        (["verify", "modulus", "--map", '{"map": "power", "k": 2}'], "'grid'"),
    ],
    ids=["stokes-box", "comass-samples-flag", "modulus-map"],
)
def test_unknown_key_exit_code(argv, known, capsys):
    # a key the check does not read is a usage error naming the known keys, not ignored and echoed
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config key") and known in err


@pytest.mark.parametrize("argv", [["modulus", "--region", "foo"], ["modulus", "--count", "0"],
                                  ["modulus", "--family", "circles", "--grid", "32"],
                                  ["verify", "modulus", "--family", "radial", "--count", "-1"]])
def test_bad_region_or_family_exit_code(argv, capsys):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("config", ["[1, 2]", '"ab"', "null"])
def test_config_that_is_not_an_object_exit_code(config, capsys):
    assert run_cli("verify", "comass", "--config", config) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_non_default_tolerances_are_marked():
    # a tolerance off its schema default says so in the thresholds; at the default, nothing is added
    small = {"grid": 32, "family": {"family": "radial", "count": 64}}
    loose = run_check("modulus", {**small, "tol": 1e9})
    assert loose.passed and loose.thresholds["non_default"] == {"tol": {"default": 0.05, "given": 1e9}}
    assert "non_default" not in run_check("modulus", {**small, "tol": 0.05}).thresholds
    marked = run_check("upper-gradient", {"tol": 1e9}).thresholds["non_default"]
    assert marked == {"tol": {"default": 1e-6, "given": 1e9}}
    # qr-curve's default follows the map: 1e-9 for a conformal one
    assert run_check("qr-curve", {"samples": 200, "tol": 1e-6}).thresholds["non_default"]["tol"]["default"] == 1e-9


def test_geom_qc_reports_the_validated_slack():
    config = {"grid": 16, "family": {"family": "radial", "count": 8}, "lift_steps": 8, "slack": 1}
    slack = run_check("geom-qc", config).thresholds["slack"]
    assert slack == 1.0 and isinstance(slack, float)


def test_qr_curve_sharp_false_is_read_as_false():
    # a real boolean is taken as given: the lower bound is dropped, not read as truthy
    config = {"map": {"map": "power", "k": 2}, "samples": 2000, "sharp": False}
    assert run_check("qr-curve", config, seed=0).thresholds["lower_if_sharp"] is None


@pytest.mark.parametrize(
    "config",
    [
        {"points": 0},
        {"points": -5},
        {"points": 2.5},
        {"points": 2},
        {"shapes": []},
        {"shapes": [[0, 1]]},
        {"shapes": [[2]]},
        {"shapes": [[8, 1]]},
        {"shapes": [[1.5, 1]]},
        {"shapes": "2,1"},
    ],
    ids=["no-points", "negative-points", "points-not-an-integer", "fewer-points-than-shapes", "no-shapes",
         "zero-degree", "one-degree", "degree-above-7", "degree-not-an-integer", "shapes-not-a-list"],
)
def test_split_pullback_bad_config_exit_code(config, capsys):
    # a config that checks nothing, or shapes it cannot build, is a usage error (exit 2), not a PASS or a traceback
    assert run_cli("verify", "split-pullback", "--config", json.dumps(config)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "config",
    [
        {"points": 0},
        {"points": 1.5},
        {"ns": []},
        {"ds": []},
        {"ns": [0]},
        {"form": {"kind": "trace_vol", "n": 2, "d": 2}, "ns": [3]},
        {"form": {"kind": "trace_vol", "n": 2, "d": 2}, "ds": [2, 3]},
        {"tol": "ab"},
        {"tol": None},
        {"tol": -1e-6},
        {"tol": float("nan")},
        {"expected": "x"},
        {"expected": float("inf")},
        {"expected": 10**400},
    ],
    ids=["no-points", "points-not-an-integer", "no-ns", "no-ds", "zero-n", "form-with-other-ns", "form-with-other-ds",
         "tol-a-string", "tol-null", "tol-negative", "tol-nan", "expected-a-string", "expected-inf",
         "expected-huge-integer"],
)
def test_comass_bad_config_exit_code(config, capsys):
    assert run_cli("verify", "comass", "--config", json.dumps(config)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_quadrature_order_bounds():
    # the largest accepted order is MAX_ORDER; the rule cache keeps one rule per order
    order = [runner.Field("order", runner.ORDER, 64)]
    assert runner.validate(order, {"order": 1})[0] == {"order": 1}
    assert runner.validate(order, {"order": runner.MAX_ORDER})[0] == {"order": runner.MAX_ORDER}
    for bad in (0, runner.MAX_ORDER + 1, -3, 2.0, "8", None, True):
        with pytest.raises(SpecError):
            runner.validate(order, {"order": bad})
    assert runner.validate([runner.Field("orders", runner.ORDERS, [16, 32])], {})[0] == {"orders": [16, 32]}
    assert runner.validate([runner.Field("orders", runner.ORDERS, [16])], {"orders": [64]})[0] == {"orders": [64]}


def test_comass_check_of_a_form_runs_at_its_own_dimension(capsys):
    # the points are drawn in R^{n d} of the form, whatever the default ns and ds
    code = run_cli("verify", "comass", "--form", '{"kind":"trace_vol","n":2,"d":2}', "--config", '{"points":3}')
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["pass"] and out["metrics"]["max_abs_error"] <= 1e-6
    same = {"points": 3, "ns": [2], "ds": [2]}
    assert run_check("comass", {**same, "form": {"kind": "trace_vol", "n": 2, "d": 2}}, 1).metrics == (
        run_check("comass", same, 1).metrics
    )


def test_upper_gradient_with_every_sample_excluded_exit_code(capsys):
    # every sample lies within the exclusion margin of the branch value: nothing was checked (exit 3)
    config = {"map": {"map": "power", "k": 2}, "region": "annulus:0.0001,0.0005", "samples_per_curve": 8}
    assert run_cli("verify", "upper-gradient", "--config", json.dumps(config)) == 3
    assert "used no sample" in capsys.readouterr().err

def test_suite_empty_manifest(tmp_path, capsys):
    mf = tmp_path / "m.json"
    mf.write_text(json.dumps({"runs": []}))
    assert run_cli("suite", "--manifest", str(mf)) == 0
    capsys.readouterr()


def test_suite_aggregation_and_summary(tmp_path, capsys):
    mf = tmp_path / "m.json"
    mf.write_text(
        json.dumps(
            {
                "runs": [
                    {"id": "mono", "check": "monodromy", "config": {}},
                    {
                        "id": "bad-modulus",
                        "check": "modulus",
                        "config": {"grid": 32, "tol": 1e-9, "family": {"family": "radial", "count": 64}},
                    },
                ]
            }
        )
    )
    outdir = tmp_path / "reports"
    summary = tmp_path / "summary.md"
    code = run_cli("suite", "--manifest", str(mf), "--out", str(outdir), "--summary", str(summary))
    capsys.readouterr()
    assert code == 1  # one row fails
    text = summary.read_text()
    assert "| mono | monodromy | monodromy-loop | PASS |" in text
    assert "FAIL" in text
    assert (outdir / "mono.json").exists()
    assert (outdir / "bad-modulus.json").exists()


def test_builtin_manifest_loads():
    runs = load_manifest("builtin")["runs"]
    assert {entry["check"] for entry in runs} == set(CHECKS)
    ids = [entry["id"] for entry in runs]
    assert len(ids) == len(set(ids))


def test_run_check_unknown():
    with pytest.raises(KeyError):
        run_check("no-such-check", {})


def test_invariant_projection_catches_wrong_derivative(monkeypatch):
    # d(P w) comes from finite differences, so a wrong analytic d w shows
    poly_kform = runner._poly_kform

    def wrong_derivative(rng, n, d):
        w = poly_kform(rng, n, d)
        return dataclasses.replace(w, analytic_derivative=lambda X: 2.0 * w.analytic_derivative(X))

    monkeypatch.setattr(runner, "_poly_kform", wrong_derivative)
    assert not run_check("invariant-projection", {}).passed


def test_preimage_measure_degree_one_is_two_sided(monkeypatch):
    # for the identity the ratio is 1: 0.8 +- 0.01 is below the bound but still wrong
    rep = {"lhs_measure": 0.8, "rhs_measure": 1.0, "ratio": 0.8, "ratio_sd": 0.01}
    monkeypatch.setattr(runner, "preimage_measure_check", lambda *args, **kwargs: rep)
    assert not run_check("preimage-measure", {"map": {"map": "power", "k": 1}}).passed


def test_sample_ahlfors_cli(tmp_path, capsys):
    code = run_cli(
        "sample",
        "ahlfors",
        "--map",
        '{"map":"power","k":2}',
        "--centers",
        "[[1.0, 0.0]]",
        "--radii",
        "0.05,0.1",
        "--N",
        "5000",
        "--seed",
        "7",
        "--csv",
        str(tmp_path / "a.csv"),
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["metrics"]["n_balls"] == 2
    # only the given flags enter the config
    assert out["config"] == {"map": {"map": "power", "k": 2}, "center_points": [[1.0, 0.0]],
                             "radii_list": [0.05, 0.1], "samples": 5000}
    assert (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("radii", ["0.05,abc", "0.05,0", "-0.1"])
def test_sample_ahlfors_bad_radii_exit_code(radii, capsys):
    assert run_cli("sample", "ahlfors", "--radii", radii, "--N", "100") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_modulus_cli(capsys):
    code = run_cli("modulus", "--grid", "64", "--count", "256", "--seed", "1")
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["metrics"]["rel_error"] < 0.05
    # only the given flags enter the config; --count alone counts radial curves
    assert out["config"] == {"grid": 64, "family": {"family": "radial", "count": 256}}


@pytest.mark.parametrize("n", [1.5, 3, 4])
def test_verify_modulus_off_n_2_compares_with_the_n_modulus(n, capsys):
    # at builtin size the n-modulus reads -2.3%, -1.4% and -1.2% off its closed form, not 2 pi / log R
    assert run_cli("verify", "modulus", "--config", json.dumps({"n": n})) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics["exact"] == ring_modulus_exact(1.0, np.e, n) and metrics["converged"]
    assert -0.03 < (metrics["value"] - metrics["exact"]) / metrics["exact"] < 0


def test_format_csv_stdout(capsys):
    code = run_cli(
        "verify", "qr-curve", "--map", '{"map":"power","k":2}', "--samples", "100", "--format", "csv"
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("bin_lo,bin_hi,count")
