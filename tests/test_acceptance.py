"""Acceptance suite: every entry of the builtin manifest passes, with its golden bytes.

One test per manifest id, run as ``almqr suite --manifest builtin --jobs 1``
runs it: ``cli._run_manifest_entry`` at the suite's default seed.  The
criteria and their tolerances live in ``runner.CHECKS``, the sample budgets
in the manifest; this module holds neither.

The byte contract: with the numpy version and the SIMD extensions (the
report's ``timing.env.simd``) that ``tests/data/golden_bodies.json`` was made
at, each entry's ``stable_body`` equals the golden one byte for byte; with
others, the last digits may round differently, and the verdict must equal
the golden one.  ``tests/make_golden_bodies.py`` writes the file.
"""

import json
from pathlib import Path

import pytest
from make_golden_bodies import MISSING, leaf_moves

from almqr.cli import SUITE_SEED, _run_manifest_entry, load_manifest
from almqr.reports import stable_body

RUNS = load_manifest("builtin")["runs"]
GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "golden_bodies.json").read_text())


def test_golden_bodies_cover_the_manifest():
    assert GOLDEN["seed"] == SUITE_SEED
    assert sorted(GOLDEN["bodies"]) == sorted(entry["id"] for entry in RUNS)


@pytest.mark.parametrize("entry", RUNS, ids=[entry["id"] for entry in RUNS])
def test_manifest_entry(entry):
    rid, record = _run_manifest_entry((entry, SUITE_SEED, None))
    assert record.passed, f"{record.check}: metrics={record.metrics} thresholds={record.thresholds}"
    body, golden = stable_body(record.dumps()), GOLDEN["bodies"][rid]
    env = record.timing["env"]
    if (env["numpy"], env["simd"]) == (GOLDEN["numpy"], GOLDEN["simd"]):
        assert body == golden
    else:
        assert json.loads(body)["pass"] == json.loads(golden)["pass"]


def test_leaf_moves_split_float_moves_from_other_changes():
    old = {"a": [1.0, 2, "x"], "b": {"c": 0.5, "n": float("nan")}, "e": []}
    new = {"a": [1.5, 2, "y"], "b": {"c": 0.5, "n": float("nan"), "k": True}, "e": []}
    floats, others = leaf_moves(old, new)
    assert floats == [("a.0", 1.0, 1.5)]
    assert others == [("a.2", "x", "y"), ("b.k", MISSING, True)]
    assert leaf_moves({"i": 1, "t": True}, {"i": 1.0, "t": 1}) == ([], [("i", 1, 1.0), ("t", True, 1)])
