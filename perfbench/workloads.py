"""The benchmark's workloads: lists of entries of the builtin manifest.

Each entry keeps the manifest's config, so every tolerance and verdict rule
stays as shipped; an override only shrinks a sample count (or the number of
Stokes form pairs, or the number of curves lifted) so that one repetition of
a workload takes a few seconds, or fixes the Stokes form (see STOKES_FORM).
Why each workload exists, and which layer it stresses or bypasses, is
recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import json
import os

# The seed the sizes below were tuned on, and a second one nobody tuned
# against: gains and verdicts are checked on both.
TUNING_SEED = 1
HELD_OUT_SEED = 7919

# stokes-z2 draws a random form per seed unless its config names one. About
# one random form in twenty has a pull-back by the z^2 inverse that is
# closed (only odd terms survive the two branches), so both sides of the
# identity vanish and the check's relative discrepancy of rounding noise fails
# it (seed 1137836843, for one). That is a defect of the check's verdict
# rule, left open here; a workload must pass on every seed, so the benchmark
# fixes the form to one whose pulled-back curl, 2 + 0.4x^2 + 0.5y^2 per
# branch, keeps both sides away from 0. The test bump still comes from the seed.
STOKES_FORM = {
    "kind": "trace_1form",
    "n": 2,
    "d": 2,
    "c0": {"0,1": -1.0, "2,1": -0.4, "1,1": 0.7},
    "c1": {"1,0": 1.0, "1,2": 0.5, "2,0": -0.3},
}

# workload -> [(manifest id, config overrides)]
WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "tuple-metric": [
        ("metric-oracle", {"samples": 1500}),
        ("metric-axioms", {"samples": 1000}),
        ("barycenter-lipschitz", {"samples": 2000}),
    ],
    "stokes": [
        ("stokes-z2", {"forms": 1, "testforms": 1, "form": STOKES_FORM}),
        ("split-pullback", {"points": 300}),
        ("comass-trace-vol", {"points": 3}),
    ],
    "cover-scalar": [
        ("geom-qc-z2", {"family": {"family": "radial", "count": 64}}),
        ("preimage-measure-z2", {"samples": 5000}),
        ("area-z2", {}),
        ("gen-inverse", {"samples": 500}),
    ],
    "cover-batch": [
        ("ahlfors-z2", {}),
        ("qr-curve-z2", {}),
        ("qr-curve-z3", {}),
        ("qr-curve-z4", {}),
        ("ring-modulus", {}),
    ],
}

# What the trace must show on each workload (checked by selftest.py):
# the stressed layer registers work, the bypassed layers stay at zero.
STRESSED = {
    "tuple-metric": ["kernels.solve_assignment.calls", "almgren.distance.calls"],
    "stokes": ["forms.KForm.at.calls", "mv.differential.calls", "mv.weak_stokes_check.nodes"],
    "cover-scalar": ["covers.lift_path.calls", "covers.minv.calls", "modulus.discrete_modulus.calls"],
    "cover-batch": ["covers.fiber_batch.rows", "covers.branch_diff_batch.rows", "modulus.ahlfors_sampler.calls"],
}
BYPASSED = {
    "tuple-metric": ["covers.minv.calls", "forms.KForm.at.calls", "mv.differential.calls", "modulus.discrete_modulus.calls"],
    "stokes": ["kernels.solve_assignment.calls", "covers.lift_path.calls", "modulus.discrete_modulus.calls"],
    "cover-scalar": ["forms.KForm.at.calls", "mv.weak_stokes_check.calls", "covers.fiber_batch.rows"],
    "cover-batch": ["covers.lift_path.calls", "forms.KForm.at.calls", "mv.differential.calls"],
}


def build_inputs(name: str, src: str) -> list[dict]:
    """The workload's manifest entries ({id, check, config}), configs from the manifest."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    with open(os.path.join(src, "almqr", "data", "acceptance_manifest.json")) as fh:
        runs = {run["id"]: run for run in json.load(fh)["runs"]}
    entries = []
    for entry_id, overrides in WORKLOADS[name]:
        run = runs[entry_id]
        entries.append({"id": entry_id, "check": run["check"], "config": {**run.get("config", {}), **overrides}})
    return entries


def all_entry_ids() -> list[str]:
    """Entry ids of every workload, in order; each gets a runner.run_check metric."""
    return [entry_id for entries in WORKLOADS.values() for entry_id, _ in entries]
