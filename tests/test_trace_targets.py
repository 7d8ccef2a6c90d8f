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

import numpy as np

from almqr import covers, kernels

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


def test_each_public_kernel_is_its_own_span(layertrace):
    # the faces share private bodies, so a call counts once, in its own span
    rng = np.random.default_rng(0)
    P, Qs = rng.normal(size=(4, 2)), rng.normal(size=(3, 4, 2))
    calls = {
        "kernels.dist_sq": lambda: kernels.dist_sq(P, Qs[0]),
        "kernels.dist_sq_one_to_many": lambda: kernels.dist_sq_one_to_many(P, Qs),
        "kernels.assignment_value": lambda: kernels.assignment_value(rng.normal(size=(7, 7))),
    }
    for name, call in calls.items():
        tracer = layertrace.Tracer()
        with layertrace.installed(tracer):
            call()
        assert dict(tracer.calls) == {name: 1}
    assert not layertrace.wrapped_sites()
