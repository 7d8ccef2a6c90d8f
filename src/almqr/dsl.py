"""JSON descriptions of forms and test forms used by the CLI and manifests."""

from __future__ import annotations

import numpy as np

from .forms import KCovector, KForm, MultiPoly, natural_volume_form, polynomial_one_form, trace_form
from .mv import BumpTestForm
from .util import SpecError


def _poly_from_dict(n: int, terms: dict) -> MultiPoly:
    out = {}
    for key, c in terms.items():
        exps = tuple(int(e) for e in str(key).split(","))
        if len(exps) != n:
            raise SpecError(f"exponent key {key!r} does not have {n} entries")
        out[exps] = float(c)
    return MultiPoly(n, out)


def build_form(spec: dict) -> KForm:
    """{"kind": "trace_vol" | "trace_1form" | "elementary" | "sum", ...}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError(f"malformed form spec: {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "trace_vol":
            return natural_volume_form(int(spec["n"]), int(spec["d"]))
        if kind == "trace_1form":
            n, d = int(spec["n"]), int(spec["d"])
            comps = [_poly_from_dict(n, spec.get(f"c{i}", {})) for i in range(n)]
            return trace_form(polynomial_one_form(n, comps), d)
        if kind == "elementary":
            n, d = int(spec["n"]), int(spec["d"])
            idx = [int(i) for i in spec["indices"]]
            return KForm.constant(KCovector.elementary(n * d, idx, float(spec.get("c", 1.0))), n, d)
        if kind == "sum":
            terms = [build_form(t) for t in spec["terms"]]
            if not terms:
                raise SpecError(f"a sum needs at least one term: {spec!r}")
            out = terms[0]
            for t in terms[1:]:
                out = out.add(t)
            return out
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"malformed form spec {spec!r}: {exc}") from exc
    raise SpecError(f"unknown form kind {kind!r}")


def build_testform(spec: dict) -> BumpTestForm:
    """{"lo": [...], "hi": [...], "q": 3, "amp": 1.0}."""
    try:
        return BumpTestForm(
            lo=np.asarray(spec["lo"], dtype=float),
            hi=np.asarray(spec["hi"], dtype=float),
            q=int(spec.get("q", 3)),
            amp=float(spec.get("amp", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed test form spec {spec!r}: {exc}") from exc
