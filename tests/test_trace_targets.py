"""The benchmark's layer trace names almqr functions; every name must resolve.

``perfbench/layertrace.py`` wraps the functions and methods it lists, and a
traced run stops with LookupError on a target almqr no longer has.  This
test reads that list (it changes nothing under ``perfbench/``), so a
deletion or rename in ``src`` fails here instead of in a later traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from almqr import covers

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(layertrace):
    for module, attr, name, _, _ in layertrace.FUNCTIONS:
        assert callable(layertrace._lookup(importlib.import_module(module), attr, name))
    for module, cls_name, attr, name in layertrace.METHODS:
        cls = layertrace._lookup(importlib.import_module(module), cls_name, name)
        layertrace._lookup(cls, attr, name)
    # the counters wrap these constructors and the per-cover batch oracles
    layertrace._post_init("almqr.forms", "KCovector", "forms.KCovector.created")
    layertrace._post_init("almqr.covers", "BranchedCoverSpec", "covers.fiber_batch")
    fields = covers.BranchedCoverSpec.__dataclass_fields__
    assert "fiber_batch" in fields and "branch_diff_batch" in fields


def test_installed_trace_counts_a_cover_query(layertrace):
    tracer = layertrace.Tracer()
    with layertrace.installed(tracer):
        f = covers.planar_power(2)
        covers.h_function(f, [[1.0, 0.0], [0.0, 1.0]])
    assert tracer.calls["covers.h_function"] == 1
    assert tracer.counts["covers.fiber_batch.rows"] == 2
    assert tracer.counts["covers.branch_diff_batch.rows"] == 2
    assert not layertrace.wrapped_sites()  # every original is restored
