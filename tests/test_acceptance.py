"""Acceptance suite: every entry of the builtin manifest passes.

One test per manifest id, run as ``almqr suite --manifest builtin --jobs 1``
runs it: ``cli._run_manifest_entry`` at the suite's default seed.  The
criteria and their tolerances live in ``runner.CHECKS``, the sample budgets
in the manifest; this module holds neither.
"""

import pytest

from almqr.cli import SUITE_SEED, _run_manifest_entry, load_manifest

RUNS = load_manifest("builtin")["runs"]


@pytest.mark.parametrize("entry", RUNS, ids=[entry["id"] for entry in RUNS])
def test_manifest_entry(entry):
    _, record = _run_manifest_entry((entry, SUITE_SEED, None))
    assert record.passed, f"{record.check}: metrics={record.metrics} thresholds={record.thresholds}"
