"""Per-layer call counts and self time, taken by wrapping almqr's public
functions from the benchmark's side; no file of almqr is changed.

A function is wrapped in the module that defines it and in every almqr
module that imported it by name (``runner`` imports ``distance_value``,
``minv`` and ``discrete_modulus`` by name, ``modulus`` imports ``lift_path``,
``minv`` and ``h_function``, ``mv`` imports ``branch_differentials``), so a
call is counted whichever import site it goes through. ``installed()``
swaps the wrappers in and restores every original on exit. A target that
almqr no longer has raises ``LookupError``, so the run stops without a result.

A span's self time is its duration minus the time of the traced spans it
called. Spans are aggregated per name as they close, not kept one by one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# The kernel backends are counted at their public face, almqr.kernels: calls
# between a backend's own functions are not calls into the layer, and the
# compiled backend makes none.
BACKEND_MODULES = ("almqr._kernels_py", "almqr._fast")
MARK = "__perfbench_span__"


class Tracer:
    """Call counts, self time and named counters of one traced repetition."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[float] = []  # time spent in traced children, per open span

    def wrap(self, name, fn, pre=None, post=None):
        """``fn`` as a span called ``name``; ``pre``/``post`` derive counters."""
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            token = pre(self) if pre is not None else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[name] += 1
                self_s[name] += dur - child
            if post is not None:
                post(self, fn, args, kwargs, out, token)
            return out

        setattr(span, MARK, name)
        return span


# ---------------------------------------------------------------------------
# counters derived from arguments and results; post(tracer, fn, args, kwargs,
# result, token) runs after the span closes, token is what pre(tracer) returned


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _per_d(name, key):
    """Histogram of the tuple size d of a scalar kernel's first argument (d, .)."""

    def post(tr, fn, args, kwargs, out, _):
        tr.counts[f"{name}.calls.d{len(_arg(args, kwargs, 0, key))}"] += 1

    return post


def _batch(name, i, key):
    """Rows and per-d calls of a batch kernel whose argument i is (m, d, n)."""

    def post(tr, fn, args, kwargs, out, _):
        m, d = np.shape(_arg(args, kwargs, i, key))[:2]
        tr.counts[f"{name}.rows"] += m
        tr.counts[f"{name}.calls.d{d}"] += 1

    return post


def _rows(name):
    def post(tr, fn, args, kwargs, out, _):
        tr.counts[f"{name}.rows"] += len(out)

    return post


def _nodes(name):
    def post(tr, fn, args, kwargs, out, _):
        tr.counts[f"{name}.nodes"] += len(out[0])

    return post


def _calls_of(name):
    def pre(tr):
        return tr.calls[name]

    return pre


def _stokes(tr, fn, args, kwargs, out, differential_before):
    a = _bound(fn, args, kwargs)
    tr.counts["mv.weak_stokes_check.nodes"] += sum(order ** a["F"].m for order in a["orders"])
    tr.counts["mv.weak_stokes_check.differential_calls"] += tr.calls["mv.differential"] - differential_before


def _lift(tr, fn, args, kwargs, out, minv_before):
    # one minv for the start point, then one per attempted step
    tr.counts["covers.lift_path.attempts"] += tr.calls["covers.minv"] - minv_before - 1
    tr.counts["covers.lift_path.steps"] += len(out.ts) - 1


def _modulus(tr, fn, args, kwargs, out, _):
    tr.counts["modulus.discrete_modulus.iterations"] += out.iterations
    tr.counts["modulus.discrete_modulus.converged"] += out.iterations < _bound(fn, args, kwargs)["max_iters"]
    gap = tr.counts.get("modulus.discrete_modulus.gap_max")
    tr.counts["modulus.discrete_modulus.gap_max"] = out.gap if gap is None else max(gap, out.gap)


def _pushforward(tr, fn, args, kwargs, out, _):
    tr.counts["modulus.pushforward_modulus_check.lift_failures"] += out["lift_failures"]


def _ahlfors(tr, fn, args, kwargs, out, fiber_batch_before):
    # each box draw evaluates the fibers of all its samples in one batch call
    tr.counts["modulus.ahlfors_sampler.balls"] += len(out)
    tr.counts["modulus.ahlfors_sampler.box_draws"] += tr.calls["covers.fiber_batch"] - fiber_batch_before


# ---------------------------------------------------------------------------
# what is wrapped

# (module, attribute, span name, pre, post)
FUNCTIONS = [
    ("almqr.kernels", "solve_assignment", "kernels.solve_assignment", None, _per_d("kernels.solve_assignment", "cost")),
    ("almqr.kernels", "assignment_value", "kernels.assignment_value", None, _per_d("kernels.assignment_value", "cost")),
    ("almqr.kernels", "dist_sq", "kernels.dist_sq", None, _per_d("kernels.dist_sq", "P")),
    ("almqr.kernels", "dist_sq_one_to_many", "kernels.dist_sq_one_to_many", None, _batch("kernels.dist_sq_one_to_many", 1, "Qs")),
    ("almqr.kernels", "dist_sq_pairs", "kernels.dist_sq_pairs", None, _batch("kernels.dist_sq_pairs", 0, "Ps")),
    ("almqr.almgren", "distance", "almgren.distance", None, None),
    ("almqr.almgren", "distance_value", "almgren.distance_value", None, None),
    ("almqr.almgren", "distance_bruteforce", "almgren.distance_bruteforce", None, None),
    ("almqr.forms", "comass", "forms.comass", None, None),
    ("almqr.mv", "differential", "mv.differential", None, None),
    ("almqr.mv", "weak_stokes_check", "mv.weak_stokes_check", _calls_of("mv.differential"), _stokes),
    ("almqr.mv", "pullback", "mv.pullback", None, None),
    ("almqr.mv", "qr_curve_check", "mv.qr_curve_check", None, None),
    ("almqr.mv", "generalized_inverse", "mv.generalized_inverse", None, None),
    ("almqr.covers", "minv", "covers.minv", None, None),
    ("almqr.covers", "branch_differentials", "covers.branch_differentials", None, None),
    ("almqr.covers", "h_function", "covers.h_function", None, None),
    ("almqr.covers", "lift_path", "covers.lift_path", _calls_of("covers.minv"), _lift),
    ("almqr.modulus", "discrete_modulus", "modulus.discrete_modulus", None, _modulus),
    ("almqr.modulus", "pushforward_modulus_check", "modulus.pushforward_modulus_check", None, _pushforward),
    ("almqr.modulus", "metric_jacobian_values", "modulus.metric_jacobian_values", None, _rows("modulus.metric_jacobian_values")),
    ("almqr.modulus", "ahlfors_sampler", "modulus.ahlfors_sampler", _calls_of("covers.fiber_batch"), _ahlfors),
    ("almqr.modulus", "area_formula_check", "modulus.area_formula_check", None, None),
    ("almqr.regions", "box_quadrature", "regions.box_quadrature", None, _nodes("regions.box_quadrature")),
    ("almqr.regions", "annulus_quadrature", "regions.annulus_quadrature", None, _nodes("regions.annulus_quadrature")),
    ("almqr.reports", "write_report", "reports.write_report", None, None),
]

# (module, class, attribute, span name); the attribute is a method or classmethod
METHODS = [
    ("almqr.almgren", "AlmgrenPoint", "from_points", "almgren.AlmgrenPoint.from_points"),
    ("almqr.forms", "KForm", "at", "forms.KForm.at"),
    ("almqr.forms", "KCovector", "pullback_linear", "forms.KCovector.pullback_linear"),
]


def _almqr_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if (name == "almqr" or name.startswith("almqr.")) and name not in BACKEND_MODULES and m is not None
    ]


def _rebind(undo, owner, attr, new):
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, new)


def _lookup(owner, attr, name):
    """``owner``'s own attribute ``attr``. A target that almqr no longer has
    stops the run: its metrics would read 0 and look like a gain."""
    try:
        return vars(owner)[attr]
    except KeyError:
        raise LookupError(f"trace target {name} not found: {owner.__name__} has no {attr}") from None


def _install_function(tracer, undo, module, attr, name, pre, post):
    orig = _lookup(importlib.import_module(module), attr, name)
    span = tracer.wrap(name, orig, pre=pre, post=post)
    for mod in _almqr_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                _rebind(undo, mod, key, span)


def _install_method(tracer, undo, module, cls_name, attr, name):
    cls = _lookup(importlib.import_module(module), cls_name, name)
    raw = _lookup(cls, attr, name)
    if isinstance(raw, classmethod):
        _rebind(undo, cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
    else:
        _rebind(undo, cls, attr, tracer.wrap(name, raw))


def _post_init(module, cls_name, name):
    cls = _lookup(importlib.import_module(module), cls_name, name)
    return cls, _lookup(cls, "__post_init__", name)


def _install_counters(tracer, undo):
    """Count KCovector constructions, and wrap the batch oracles of every
    cover built while tracing (they are per-instance closures)."""
    counts = tracer.counts
    cls, cov_init = _post_init("almqr.forms", "KCovector", "forms.KCovector.created")

    def counted_init(self):
        counts["forms.KCovector.created"] += 1
        cov_init(self)

    setattr(counted_init, MARK, "forms.KCovector.created")
    _rebind(undo, cls, "__post_init__", counted_init)

    cls, spec_init = _post_init("almqr.covers", "BranchedCoverSpec", "covers.fiber_batch")

    def spec_with_traced_batches(spec):
        spec_init(spec)
        for attr in ("fiber_batch", "branch_diff_batch"):
            fn = getattr(spec, attr)  # a cover without it fails its check
            object.__setattr__(spec, attr, tracer.wrap(f"covers.{attr}", fn, post=_rows(f"covers.{attr}")))

    setattr(spec_with_traced_batches, MARK, "covers.BranchedCoverSpec")
    _rebind(undo, cls, "__post_init__", spec_with_traced_batches)


@contextmanager
def installed(tracer: Tracer):
    """Route every traced almqr function through ``tracer`` for the block."""
    undo: list = []
    try:
        for module, attr, name, pre, post in FUNCTIONS:
            _install_function(tracer, undo, module, attr, name, pre, post)
        for module, cls_name, attr, name in METHODS:
            _install_method(tracer, undo, module, cls_name, attr, name)
        _install_counters(tracer, undo)
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def wrapped_sites() -> list[str]:
    """Every almqr module attribute or class attribute that is a benchmark span now."""
    found = []
    for mod in _almqr_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    if hasattr(getattr(raw, "__func__", raw), MARK):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


# ---------------------------------------------------------------------------
# the per-layer metrics

# spans reported with calls and self time, layer by layer; the regions and
# reports spans are reported by their node counts and write time instead
LAYERS = ("kernels", "almgren", "forms", "mv", "covers", "modulus")
SPANS = sorted(
    (name for name in [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS] if name.split(".")[0] in LAYERS),
    key=lambda name: LAYERS.index(name.split(".")[0]),
)
PER_D = ("kernels.solve_assignment", "kernels.assignment_value", "kernels.dist_sq")
DS = range(1, 7)  # the checks solve assignments of size d <= 6


def metric_specs(check_ids) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in SPANS:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    for name in PER_D:
        specs += [(f"{name}.calls.d{d}", "count", "lower") for d in DS]
    specs += [
        ("kernels.dist_sq_one_to_many.rows", "count", "higher"),
        ("kernels.dist_sq_pairs.rows", "count", "higher"),
        ("forms.KCovector.created", "count", "lower"),
        ("mv.weak_stokes_check.nodes", "count", "lower"),
        ("mv.differential.cache_hit_ratio", "ratio", "higher"),
        ("covers.lift_path.steps", "count", "lower"),
        ("covers.lift_path.accept_ratio", "ratio", "higher"),
        ("covers.fiber_batch.rows", "count", "higher"),
        ("covers.fiber_batch.self_s", "s", "lower"),
        ("covers.branch_diff_batch.rows", "count", "higher"),
        ("covers.branch_diff_batch.self_s", "s", "lower"),
        ("modulus.discrete_modulus.iterations", "count", "lower"),
        ("modulus.discrete_modulus.converged_frac", "ratio", "higher"),
        ("modulus.discrete_modulus.gap_max", "1", "lower"),
        ("modulus.pushforward_modulus_check.lift_failures", "count", "lower"),
        ("modulus.metric_jacobian_values.rows", "count", "higher"),
        ("modulus.ahlfors_sampler.useful_draw_ratio", "ratio", "higher"),
        ("regions.box_quadrature.nodes", "count", "lower"),
        ("regions.annulus_quadrature.nodes", "count", "lower"),
    ]
    specs += [(f"runner.run_check.{cid}_s", "s", "lower") for cid in check_ids]
    specs += [
        ("runner.excluded", "count", "lower"),
        ("reports.write_report.self_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return specs


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tr: Tracer) -> dict[str, float]:
    """The metrics one traced repetition gives (all but the runner and trace ones)."""
    c, calls = tr.counts, tr.calls
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = tr.self_s.get(name, 0.0)
    for name in PER_D:
        for d in DS:
            out[f"{name}.calls.d{d}"] = c.get(f"{name}.calls.d{d}", 0)
    nodes = c.get("mv.weak_stokes_check.nodes", 0)
    out.update(
        {
            "kernels.dist_sq_one_to_many.rows": c.get("kernels.dist_sq_one_to_many.rows", 0),
            "kernels.dist_sq_pairs.rows": c.get("kernels.dist_sq_pairs.rows", 0),
            "forms.KCovector.created": c.get("forms.KCovector.created", 0),
            "mv.weak_stokes_check.nodes": nodes,
            "mv.differential.cache_hit_ratio": (
                1.0 - c.get("mv.weak_stokes_check.differential_calls", 0) / nodes if nodes else 0.0
            ),
            "covers.lift_path.steps": c.get("covers.lift_path.steps", 0),
            "covers.lift_path.accept_ratio": _ratio(c.get("covers.lift_path.steps", 0), c.get("covers.lift_path.attempts", 0)),
            "covers.fiber_batch.rows": c.get("covers.fiber_batch.rows", 0),
            "covers.fiber_batch.self_s": tr.self_s.get("covers.fiber_batch", 0.0),
            "covers.branch_diff_batch.rows": c.get("covers.branch_diff_batch.rows", 0),
            "covers.branch_diff_batch.self_s": tr.self_s.get("covers.branch_diff_batch", 0.0),
            "modulus.discrete_modulus.iterations": c.get("modulus.discrete_modulus.iterations", 0),
            "modulus.discrete_modulus.converged_frac": _ratio(
                c.get("modulus.discrete_modulus.converged", 0), calls.get("modulus.discrete_modulus", 0)
            ),
            "modulus.discrete_modulus.gap_max": c.get("modulus.discrete_modulus.gap_max", 0.0),
            "modulus.pushforward_modulus_check.lift_failures": c.get("modulus.pushforward_modulus_check.lift_failures", 0),
            "modulus.metric_jacobian_values.rows": c.get("modulus.metric_jacobian_values.rows", 0),
            "modulus.ahlfors_sampler.useful_draw_ratio": _ratio(
                c.get("modulus.ahlfors_sampler.balls", 0), c.get("modulus.ahlfors_sampler.box_draws", 0)
            ),
            "regions.box_quadrature.nodes": c.get("regions.box_quadrature.nodes", 0),
            "regions.annulus_quadrature.nodes": c.get("regions.annulus_quadrature.nodes", 0),
            "reports.write_report.self_s": tr.self_s.get("reports.write_report", 0.0),
        }
    )
    return out


def histograms(tr: Tracer) -> dict:
    """Every per-d call count and batch row count seen, including d > 6."""
    return {k: v for k, v in sorted(tr.counts.items()) if k.startswith("kernels.")}
