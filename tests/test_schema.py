"""The config schema: every field of every check, set alone to a bad value, is a spec error before any work runs.

Also: every config the builtin manifest and the benchmark's workloads run
validates, at its defaults, so a schema that rejected one fails here and
not as a failed benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from almqr.cli import load_manifest
from almqr.dsl import SpecError
from almqr.runner import CHECKS, run_check, validate

ROOT = Path(__file__).resolve().parents[1]
BAD = {"ab": "ab", "null": None, "nan": float("nan"), "-1": -1, "true": True, "[]": [], "{}": {}}
# the bad values that are valid for a field: each runs to a verdict
VALID = {("qr-curve", "sharp", "true"), ("gen-inverse", "use_power", "true"), ("comass", "expected", "-1")}
CASES = [(name, field.name, label) for name, (_, _, fields) in CHECKS.items() for field in fields for label in BAD]


def _no_work(seed, **values):
    raise AssertionError("the check ran on a config that should not validate")


@pytest.mark.parametrize("name, field, label", CASES, ids=["-".join(case) for case in CASES])
def test_config_probe(name, field, label, monkeypatch):
    config = {field: BAD[label]}
    if (name, field, label) in VALID:
        assert isinstance(run_check(name, config, 1).passed, bool)
        return
    claim_id, _, fields = CHECKS[name]
    monkeypatch.setitem(CHECKS, name, (claim_id, _no_work, fields))
    with pytest.raises(SpecError, match=f"^{field} must be "):
        run_check(name, config, 1)


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_builtin_and_benchmark_configs_validate(workloads):
    entries = load_manifest("builtin")["runs"]
    entries += [entry for name in workloads.WORKLOADS for entry in workloads.build_inputs(name, str(ROOT / "src"))]
    assert len(entries) > len(CHECKS)
    for entry in entries:
        _, non_default = validate(CHECKS[entry["check"]][2], entry.get("config", {}))
        # every tolerance at its default: the reports keep their bytes
        assert non_default == {}, entry["id"]


def test_a_valid_config_is_echoed_as_given():
    # defaults are not filled into the report's config echo
    record = run_check("metric-axioms", {"samples": 20}, 3)
    assert record.config == {"samples": 20}


@pytest.mark.parametrize("name, curves", [("modulus", 1024), ("geom-qc", 512), ("upper-gradient", 16)])
def test_a_family_without_a_count_takes_the_checks_own(name, curves):
    values, _ = validate(CHECKS[name][2], {"family": "radial"})
    assert len(values["family"]) == curves
    if name != "modulus":  # the modulus check takes only the radial family
        values, _ = validate(CHECKS[name][2], {"family": {"family": "circles"}})
        assert len(values["family"]) == curves
