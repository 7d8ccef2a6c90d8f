"""Named verification checks with pinned thresholds.

Each check maps a config dict to a ReportRecord; the CLI subcommands and the
suite manifest both dispatch here.  Claim ids name the mathematical
statement a check exercises, forming the coverage matrix of the suite.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Any, Callable, NamedTuple

import numpy as np

from .almgren import (
    barycenters,
    bruteforce_distances,
    distance_value,
    distance_values,
    distances_to_diagonal,
    lex_distances,
    points_of,
    sorted_tuples,
)
from .covers import NumericalError, build_map, lift_path, minv, planar_power
from .dsl import SpecError, build_form, build_testform
from .forms import (
    GroupAction,
    KForm,
    MultiPoly,
    comass,
    cov_max_dev,
    exterior_derivative,
    natural_volume_form,
    polynomial_one_form,
    symmetrize,
    tensor_product,
    trace_form,
    wedge_rows,
)
from .modulus import (
    TOL_GAP,
    ahlfors_sampler,
    area_formula_check,
    build_family,
    discrete_modulus,
    energy_bound_check,
    metric_qc_check,
    preimage_measure_check,
    pushforward_modulus_check,
    ring_modulus_exact,
    upper_gradient_check,
)
from .mv import (
    BumpTestForm,
    MultiValuedMap,
    MultiValuedPair,
    from_affine_branches,
    from_cover,
    generalized_inverse,
    interpolate_feps,
    pullback,
    qr_curve_check,
    weak_stokes_check,
)
from .regions import Annulus, Box, parse_region
from .reports import ReportRecord, timed
from .util import row_dots, row_norms, seeded_rng


# ---------------------------------------------------------------------------
# config schema: each check declares its fields (a name, a kind and a default),
# and ``validate`` turns a config into the typed values the check runs on

# the largest Gauss-Legendre order a check accepts: a tensor rule of order q on a
# box has q^2 nodes, so 1024 gives about a million, and each order's rule is cached
MAX_ORDER = 1024


class Kind(NamedTuple):
    what: str  # what a valid value is, for the error message
    # (raw value, typed values of the fields declared before) -> typed value; TypeError or ValueError if invalid
    parse: Callable[[Any, dict], Any]


class Field(NamedTuple):
    name: str
    kind: Kind
    default: Any = None  # None: a key left out reaches the check as None; a callable derives it from earlier fields


def count(lo: int = 1, hi: int | None = None) -> Kind:
    """An integer from ``lo`` to ``hi`` (no upper bound if None); a boolean, float or string is not a count."""

    def parse(raw, _):
        if isinstance(raw, bool) or not isinstance(raw, Integral) or raw < lo or (hi is not None and raw > hi):
            raise ValueError
        return int(raw)

    return Kind(f"an integer from {lo} to {hi}" if hi is not None else f"an integer of at least {lo}", parse)


def number(lo: float = -math.inf, above: bool = False) -> Kind:
    """A finite number of at least ``lo`` (above it, if ``above``)."""

    def parse(raw, _):
        if isinstance(raw, bool) or not isinstance(raw, Real):
            raise TypeError
        value = float(raw)  # OverflowError for an integer beyond the float range
        if not (math.isfinite(value) and (value > lo if above else value >= lo)):
            raise ValueError
        return value

    bound = "" if lo == -math.inf else f" {'above' if above else 'of at least'} {lo:g}"
    return Kind(f"a finite number{bound}", parse)


def _seq(raw, length: int | None = None):
    if not isinstance(raw, (list, tuple)) or not raw or (length is not None and len(raw) != length):
        raise ValueError
    return raw


def listof(item: Kind, length: int | None = None) -> Kind:
    """A non-empty list (of ``length`` entries, if given) of the ``item`` kind: an empty sweep checks nothing."""
    size = "non-empty" if length is None else f"{length}-entry"
    return Kind(f"a {size} list, each entry {item.what}", lambda raw, v: [item.parse(x, v) for x in _seq(raw, length)])


def _numbers(raw, length: int | None = None) -> np.ndarray:
    return np.array([NUMBER.parse(x, None) for x in _seq(raw, length)])


def _flag(raw, _):
    if not isinstance(raw, bool):
        raise TypeError
    return raw


def _map(raw, _, dim=None):
    f = build_map(raw)
    if dim is not None and f.n != dim:
        raise ValueError(f"a map of dimension {f.n}")
    return f


def _box(raw, values) -> Box:
    lo, hi = _seq(raw, 2)
    return Box(_numbers(lo, values["map"].n), _numbers(hi, values["map"].n))


def _image_annuli(raw, values) -> tuple[Annulus, Annulus]:
    """An image annulus E and its preimage under z^d, d the degree of the map."""
    r_in, r_out = map(float, _numbers(raw, 2))
    d = values["map"].degree
    E = Annulus(np.zeros(2), r_in, r_out)
    return E, Annulus(np.zeros(2), E.r_in ** (1.0 / d), E.r_out ** (1.0 / d))


def _annulus(raw, _) -> Annulus:
    region = parse_region(raw)
    if not isinstance(region, Annulus):
        raise ValueError("not an annulus")
    return region


NUMBER = number()
TOL = number(0.0)  # a tolerance or slack: a value off the field's default is marked in the report
POSITIVE = number(0.0, above=True)
COUNT = count()
COUNTS = listof(COUNT)
ORDER = count(1, MAX_ORDER)
ORDERS = listof(ORDER)
FLAG = Kind("true or false", _flag)
POINT = Kind("a list of finite numbers, one per coordinate of the map", lambda raw, v: _numbers(raw, v["map"].n))
RADII = listof(POSITIVE)
BOX = Kind("a pair [lo, hi] of points of the map's dimension with lo < hi", _box)
IMAGE_ANNULUS = Kind("radii [r_in, r_out] with 0 <= r_in < r_out whose d-th roots stay apart", _image_annuli)
REGION = Kind("a region 'annulus:r0,r1', 'disk:r' or 'box:x0,x1,y0,y1'", lambda raw, _: parse_region(raw))
ANNULUS = Kind("an annulus region 'annulus:r0,r1'", _annulus)
MAP = Kind("a catalog map spec", _map)
PLANAR_MAP = Kind("a catalog map spec of dimension 2", lambda raw, v: _map(raw, v, dim=2))
FORM = Kind("a form spec", lambda raw, _: build_form(raw))
TESTFORM = Kind("a test form spec {'lo': [...], 'hi': [...], 'q': ..., 'amp': ...}", lambda raw, _: build_testform(raw))


def family_field(curves: int) -> Field:
    """The ``family`` field on the check's ``region``: a radial family of ``curves`` curves by default, as is
    the count of a radial or circles spec that gives none."""
    kind = Kind("a curve family 'radial', 'circles' or {'family': ...}",
                lambda raw, v: build_family(raw, v["region"], curves))
    return Field("family", kind, {"family": "radial", "count": curves})


def validate(fields: list[Field], config: dict) -> tuple[dict, dict]:
    """The typed value of each field, and {name: {"default", "given"}} of each tolerance off its default.

    SpecError for a config that is not a dict, an unknown key, or a value (given or default) outside its kind.
    """
    known = [f.name for f in fields]
    if not isinstance(config, dict):
        raise SpecError(f"a config must be a JSON object, got {config!r}")
    unknown = sorted(set(config) - set(known))
    if unknown:
        raise SpecError(f"unknown config key(s) {unknown}; the known keys are {known}")
    values, non_default = {}, {}
    for f in fields:
        default = f.default(values) if callable(f.default) else f.default
        raw = config.get(f.name, default)
        try:
            values[f.name] = f.kind.parse(raw, values) if f.name in config or default is not None else None
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"{f.name} must be {f.kind.what}, got {raw!r}" + (f" ({exc})" if str(exc) else "")) from exc
        if f.kind is TOL and values[f.name] != default:
            non_default[f.name] = {"default": default, "given": values[f.name]}
    return values, non_default


# name -> (claim id, check, fields); ``run_check`` calls the check with the
# seed and the typed value of each field
CHECKS: dict[str, tuple[str, Callable, list[Field]]] = {}


def _check(name: str, claim_id: str, *fields: Field):
    """Register the decorated function as check ``name`` of claim ``claim_id``, with its config fields."""

    def register(run):
        CHECKS[name] = (claim_id, run, list(fields))
        return run

    return register


Z2 = {"map": "power", "k": 2}
ANY_MAP = Field("map", MAP, Z2)
PLANAR = Field("map", PLANAR_MAP, Z2)
SAMPLES = Field("samples", COUNT, 10_000)
IMAGE_ANNULI = Field("image_annulus", IMAGE_ANNULUS, [1.0, 4.0])
E_ANNULUS = "annulus:1,2.718281828459045"  # 1 < |x| < e, whose ring modulus is 2 pi


# samples drawn and priced together by the tuple-space checks; a block's
# tuples are held at once, so this bounds their memory (the solver route of
# metric-oracle keeps every block until it prices each degree at once, on both
# of its routes)
SAMPLE_BLOCK = 500


def _draw_groups(rng, n_samples: int, tuples: int, spread: float = 2.0):
    """Random samples of ``tuples`` d-tuples in R^n each, grouped by (d, n).

    Sample s draws d in [2, 6], n in [1, 4], then its tuples in one
    ``rng.normal(scale=spread, size=(tuples, d, n))``, in that order.  Block
    by block of ``SAMPLE_BLOCK`` samples, yields (sample indices (k,),
    [tuple batch (k, d, n) in ``sorted_tuples`` form] * tuples) for each
    (d, n) drawn; one ``sorted_tuples`` call sorts every tuple of a group.
    """
    for start in range(0, n_samples, SAMPLE_BLOCK):
        draws: dict = {}
        for s in range(start, min(start + SAMPLE_BLOCK, n_samples)):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(1, 5))
            idx, samples = draws.setdefault((d, n), ([], []))
            idx.append(s)
            samples.append(rng.normal(scale=spread, size=(tuples, d, n)))
        for (d, n), (idx, samples) in draws.items():
            slots = np.array(samples).swapaxes(0, 1).reshape(tuples * len(idx), d, n)  # tuple slot major
            yield np.array(idx), list(sorted_tuples(slots).reshape(tuples, len(idx), d, n))


# ---------------------------------------------------------------------------
# tuple-space checks


@_check("metric-oracle", "assignment-metric-oracle", SAMPLES)
def _check_metric_oracle(seed, samples):
    oracle = np.zeros(samples)
    solver = np.zeros(samples)
    by_degree: dict[int, list] = {}
    for idx, (P, Q) in _draw_groups(seeded_rng(seed, 1), samples, 2):
        by_degree.setdefault(P.shape[1], []).append((idx, (P, Q)))
    # one pass per degree on both routes: the enumeration oracle, and one solve
    # with one lexicographic refinement
    for blocks in by_degree.values():
        idx = np.concatenate([idx for idx, _ in blocks])
        pairs = [pq for _, pq in blocks]
        oracle[idx] = bruteforce_distances(pairs)
        solver[idx] = lex_distances(pairs)
    gaps = np.abs(solver - oracle)
    first = np.flatnonzero(gaps != 0.0)[:1]  # the first gap in sample order, NaN included
    worst = float(gaps[first[0]]) if len(first) else 0.0
    passed = worst == 0.0
    return passed, {"n_samples": samples, "worst_abs_gap": worst}, {"exact": 0.0}, 0


@_check("metric-axioms", "assignment-metric-axioms", SAMPLES, Field("tol", TOL, 1e-12))
def _check_metric_axioms(seed, samples, tol):
    rng = seeded_rng(seed, 2)
    excess = [np.full(1, -np.inf)]
    asym = [np.zeros(1)]
    for _, (P, Q, R) in _draw_groups(rng, samples, 3):
        dpq, dqr, dpr, dqp = distance_values(np.concatenate([P, Q, P, Q]), np.concatenate([Q, R, R, P])).reshape(4, -1)
        excess.append(dpr - (dpq + dqr))
        asym.append(np.abs(dpq - dqp))
    # np.max keeps a NaN, so a NaN distance fails the check
    worst_tri = np.max(np.concatenate(excess))
    worst_sym = float(np.max(np.concatenate(asym)))
    # identity of indiscernibles on shuffled multisets: the draws one by one
    # (they define the stream), the points and distances per (d, n)
    shuffled: dict = {}
    for _ in range(200):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        pts = rng.normal(size=(d, n))
        group = shuffled.setdefault((d, n), ([], []))
        group[0].append(pts)
        group[1].append(pts[rng.permutation(d)])
    ident_ok = True
    for X, Y in shuffled.values():
        X, Y = np.array(X), np.array(Y)
        same = all(p == q for p, q in zip(points_of(X), points_of(Y)))
        ident_ok = ident_ok and same and bool(np.all(distance_values(sorted_tuples(X), sorted_tuples(Y)) == 0.0))
    passed = worst_tri <= tol and worst_sym == 0.0 and ident_ok
    metrics = {
        "n_samples": samples,
        "worst_triangle_excess": float(worst_tri),
        "worst_symmetry_gap": worst_sym,
        "indiscernible_ok": ident_ok,
    }
    return passed, metrics, {"triangle_tol": tol}, 0


def _lipschitz_ratios(P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, int]:
    """sqrt(d) |b(p) - b(q)| / dist(p, q) for paired tuples (k, d, n) in ``sorted_tuples`` form.

    A coincident pair (distance 0) gives 0/0 and bounds nothing: it has no
    ratio and is counted in the second return value.
    """
    d = P.shape[1]
    dv = distance_values(P, Q)
    keep = dv != 0.0
    norm = row_norms(P[keep].sum(axis=1) / d - Q[keep].sum(axis=1) / d)
    return np.sqrt(d) * norm / dv[keep], int(np.count_nonzero(~keep))


@_check("barycenter-lipschitz", "barycenter-lipschitz", SAMPLES, Field("tol", TOL, 1e-12))
def _check_barycenter_lipschitz(seed, samples, tol):
    rng = seeded_rng(seed, 3)
    ratios = [np.zeros(1)]
    excluded = 0
    for _, (P, Q) in _draw_groups(rng, samples, 2):
        ratio, coincident = _lipschitz_ratios(P, Q)
        ratios.append(ratio)
        excluded += coincident
    worst = np.max(np.concatenate(ratios))  # a NaN ratio stays NaN and fails
    # equality witness on diagonal pairs d*[[a]], d*[[b]]: the draws one by one,
    # the barycenters and distances per (d, n)
    ends: dict = {}
    for _ in range(100):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        ends.setdefault((d, n), []).append(rng.normal(size=(2, n)))
    gaps = []
    for (d, _), ab in ends.items():
        P, Q = (sorted_tuples(np.repeat(x[:, None, :], d, axis=1)) for x in np.array(ab).swapaxes(0, 1))
        ratio = np.sqrt(d) * row_norms(barycenters(P) - barycenters(Q)) / distance_values(P, Q)
        gaps.append(np.abs(ratio - 1.0))
    eq_gap = np.max(np.concatenate(gaps), initial=0.0)  # a NaN ratio stays NaN and fails
    passed = worst <= 1.0 + tol and eq_gap <= tol
    metrics = {"n_samples": samples, "max_ratio": float(worst), "diagonal_equality_gap": eq_gap}
    return passed, metrics, {"ratio_bound": 1.0 + tol}, excluded


# ---------------------------------------------------------------------------
# form checks


@_check("comass", "natural-form-comass", Field("form", FORM), Field("tol", TOL, 1e-6), Field("points", COUNT, 10),
        Field("expected", NUMBER, 1.0),
        # alongside a form, ns and ds default to its own n and d
        Field("ns", COUNTS, lambda v: [2, 3] if v["form"] is None else [v["form"].n]),
        Field("ds", COUNTS, lambda v: [2, 3] if v["form"] is None else [v["form"].d]))
def _check_comass(seed, form, tol, points, expected, ns, ds):
    if form is not None:
        # one pass at the form's own dimension
        if (ns, ds) != ([form.n], [form.d]):
            raise SpecError(f"ns and ds must be [{form.n}] and [{form.d}] (or left out) with this form, got {ns}, {ds}")
        passes = [(form.n, form.d, form)]
    else:
        passes = [(n, d, natural_volume_form(n, d)) for n in ns for d in ds]
    rng = seeded_rng(seed, 4)
    worst = 0.0
    values = []
    for n, d, form in passes:
        for _ in range(points):
            x = rng.normal(size=n * d)
            res = comass(form, x)
            if not res.converged:
                raise NumericalError(
                    f"comass ascent did not converge in {res.sweeps} sweeps at n={n}, d={d}, x={x.tolist()}"
                )
            values.append(res.value)
            worst = max(worst, abs(res.value - expected))
    passed = worst <= tol
    metrics = {"max_abs_error": worst, "min_value": min(values), "max_value": max(values)}
    return passed, metrics, {"expected": expected, "tol": tol}, 0


def _rand_poly(rng, n, deg=2) -> MultiPoly:
    terms = {}
    for _ in range(3):
        exps = tuple(int(rng.integers(0, deg + 1)) for _ in range(n))
        terms[exps] = float(rng.normal())
    return MultiPoly(n, terms)


def _poly_kform(rng, n: int, d: int) -> KForm:
    """Random polynomial-coefficient 1-form living on (R^n)^d."""
    N = n * d
    base = polynomial_one_form(N, [_rand_poly(rng, N) for _ in range(N)])
    return KForm(
        degree=1,
        n=n,
        d=d,
        coeff_fn=base.coeff_fn,
        analytic_derivative=base.analytic_derivative,
        invariance="none",
    )


@_check("invariant-projection", "invariant-projection", Field("tol_ratio", TOL, 1e-12), Field("tol_fd", TOL, 1e-6))
def _check_invariant_projection(seed, tol_ratio, tol_fd):
    tol_gap = 1e-12
    rng = seeded_rng(seed, 5)
    n, d = 2, 2
    G = GroupAction.full(n, d)
    N = n * d

    # idempotence and linearity on random polynomial-coefficient 1-forms
    base0 = _poly_kform(rng, n, d)
    base1 = _poly_kform(rng, n, d)
    P0 = symmetrize(base0, G)
    P1 = symmetrize(base1, G)
    PP0 = symmetrize(P0, G)
    a, b = 0.7, -1.3
    lin_lhs = symmetrize(base0.add(base1, b).scaled(a), G)
    xs = rng.normal(size=(50, N))
    idem = max(cov_max_dev(P0.at(x), PP0.at(x)) for x in xs)
    lin = 0.0
    for x in xs:
        lin = max(lin, cov_max_dev(lin_lhs.at(x), P0.at(x).add(P1.at(x), b).scaled(a)))

    # sup-norm non-expansion via the exact closed-form comass of 1-forms
    nonexp = 0.0
    for x in xs[:20]:
        val_p = P0.at(x).l2()
        orbit_max = max(base0.at(x[g]).l2() for g in G.gathers)
        if orbit_max > 0:
            nonexp = max(nonexp, val_p / orbit_max)
    # trace of the volume form is fixed by the projection (already invariant)
    om = natural_volume_form(n, d)
    Pom = symmetrize(om, G)
    x0 = rng.normal(size=N)
    fixed = cov_max_dev(om.at(x0), Pom.at(x0))

    # d commutes with the projection: d(P w) by finite differences of a copy of
    # w without its analytic derivative, P(d w) from the analytic one
    base0_fd = KForm(degree=1, n=n, d=d, coeff_fn=base0.coeff_fn, invariance=base0.invariance)
    dP = exterior_derivative(symmetrize(base0_fd, G), fd_step=1e-4)
    Pd = symmetrize(exterior_derivative(base0), G)
    comm = 0.0
    for x in xs[:10]:
        comm = max(comm, cov_max_dev(dP.at(x), Pd.at(x)))

    passed = (
        idem <= tol_gap and lin <= tol_gap and nonexp <= 1.0 + tol_ratio and fixed <= tol_gap and comm <= tol_fd
    )
    metrics = {
        "idempotence_gap": idem,
        "linearity_gap": lin,
        "nonexpansion_ratio": nonexp,
        "fixed_point_gap": fixed,
        "d_commutation_gap": comm,
    }
    return passed, metrics, {"ratio_bound": 1.0 + tol_ratio, "fd_tol": tol_fd, "gap_tol": tol_gap}, 0


# factors of degree at most 7, the largest whose symmetric group GroupAction.full enumerates
@_check("split-pullback", "split-pullback-product", Field("points", COUNT, 1000), Field("tol", TOL, 1e-9),
        Field("shapes", listof(listof(count(1, 7), 2)), [[1, 1], [2, 1], [2, 2]]))
def _check_split_pullback(seed, points, tol, shapes):
    if points < len(shapes):
        raise SpecError(f"points must be at least the number of shapes ({len(shapes)}), got {points}")
    rng = seeded_rng(seed, 6)
    box = Box([-1.5, -1.5], [1.5, 1.5])
    worst = 0.0
    per = points // len(shapes)
    for d0, d1 in shapes:
        f0 = from_affine_branches(
            [(rng.normal(size=(2, 2)), rng.normal(size=2)) for _ in range(d0)], box, m=2
        )
        f1 = from_affine_branches(
            [(rng.normal(size=(2, 2)), rng.normal(size=2)) for _ in range(d1)], box, m=2
        )
        # trace forms are S_d-invariant as built: no projection
        w0 = trace_form(polynomial_one_form(2, [_rand_poly(rng, 2, 1), _rand_poly(rng, 2, 1)]), d0)
        w1 = trace_form(polynomial_one_form(2, [_rand_poly(rng, 2, 1), _rand_poly(rng, 2, 1)]), d1)
        X = box.sample(seeded_rng(seed, 6, d0, d1), per)
        lhs = MultiValuedPair(f0, f1).pullback(tensor_product(w0, w1), X, verify_relabelings=0).rows
        rhs = wedge_rows(
            pullback(f0, w0, X, verify_relabelings=0).rows,
            pullback(f1, w1, X, verify_relabelings=0).rows,
            2,
            w0.degree,
            w1.degree,
        )
        worst = max(worst, float(np.max(np.abs(lhs - rhs), initial=0.0)))
    passed = worst <= tol
    return passed, {"n_points": points, "max_deviation": worst}, {"tol": tol}, 0


# ---------------------------------------------------------------------------
# cover / mv checks


# the sharp lower bound and the tighter tolerance hold for conformal maps
@_check("qr-curve", "qr-curve-bound", ANY_MAP, Field("region", REGION, "annulus:0.3,1.5"), SAMPLES,
        Field("tol", TOL, lambda v: 1e-9 if v["map"].K_I == 1.0 else 1e-6),
        Field("sharp", FLAG, lambda v: bool(v["map"].K_I == 1.0)))
def _check_qr_curve(seed, map, region, samples, tol, sharp):
    rep = qr_curve_check(map, region, n_samples=samples, seed=seed)
    passed = rep["max_ratio"] <= 1.0 + tol
    if sharp:
        passed = passed and rep["min_ratio"] >= 1.0 - tol
    metrics = {k: rep[k] for k in ("max_ratio", "min_ratio", "mean_ratio", "n_used", "constant")}
    metrics["histogram"] = rep["histogram"]
    return passed, metrics, {"upper": 1.0 + tol, "lower_if_sharp": 1.0 - tol if sharp else None}, rep["excluded"]


# a quadrature level's discrepancy may exceed the coarser level's by this factor, plus
# this absolute floor for discrepancies at rounding level, and still count as decreasing
STOKES_GROWTH = 1.5
STOKES_FLOOR = 1e-14


@_check("stokes", "weak-stokes", PLANAR, Field("form", FORM), Field("testform", TESTFORM),
        # a given form or test form is one row of its sweep, a drawn one five
        Field("forms", COUNT, lambda v: 5 if v["form"] is None else 1),
        Field("testforms", COUNT, lambda v: 5 if v["testform"] is None else 1),
        Field("orders", ORDERS, [16, 32, 64]), Field("tol", TOL, 1e-3))
def _check_stokes(seed, map, form, testform, forms, testforms, orders, tol):
    # the pull-back by the inverse lives on (R^2)^d, and scalar test forms take forms of degree 1 and 2
    if form is not None and not (form.n == 2 and form.d == map.degree and form.degree in (1, 2)):
        raise SpecError(f"form must be of degree 1 or 2 on (R^2)^{map.degree}, got degree {form.degree} on "
                        f"(R^{form.n})^{form.d}")
    if testform is not None and len(testform.lo) != 2:
        raise SpecError(f"testform must be planar, got corners {testform.lo.tolist()} and {testform.hi.tolist()}")
    F = from_cover(map, Box([0.4, 0.4], [1.8, 1.8]))
    rng = seeded_rng(seed, 8)
    worst = 0.0
    all_decreasing = True
    rows = []
    for i in range(forms):
        if form is not None:
            omega = form
        else:
            # S_d-invariant as built: no projection
            omega = trace_form(polynomial_one_form(2, [_rand_poly(rng, 2), _rand_poly(rng, 2)]), map.degree)
        for j in range(testforms):
            if testform is not None:
                alpha = testform
            else:
                c = rng.uniform(0.7, 1.3, size=2)
                w = rng.uniform(0.25, 0.55, size=2)
                alpha = BumpTestForm(lo=c - w, hi=c + w, q=3, amp=float(rng.uniform(0.5, 2.0)))
            rep = weak_stokes_check(F, omega, alpha, orders=orders)
            levels = [level["abs_discrepancy"] for level in rep["levels"]]
            decreasing = all(b <= a * STOKES_GROWTH + STOKES_FLOOR for a, b in zip(levels, levels[1:]))
            worst = max(worst, rep["rel_discrepancy"])
            all_decreasing = all_decreasing and decreasing
            rows.append(
                {
                    "form": i,
                    "testform": j,
                    "rel": rep["rel_discrepancy"],
                    "decreasing": decreasing,
                    "S": rep["S"],
                    "degenerate": rep["degenerate"],
                }
            )
    # fails closed: a sweep whose every row is degenerate certified only 0 = 0
    passed = worst <= tol and all_decreasing and not all(row["degenerate"] for row in rows)
    metrics = {"worst_rel_discrepancy": worst, "decreasing": all_decreasing, "rows": rows}
    return passed, metrics, {"tol": tol}, 0


@_check("upper-gradient", "upper-gradient-sandwich", ANY_MAP, Field("region", REGION, "annulus:0.5,1.5"),
        family_field(16), Field("samples_per_curve", COUNT, 64), Field("tol", TOL, 1e-6))
def _check_upper_gradient(seed, map, region, family, samples_per_curve, tol):
    rep = upper_gradient_check(map, family, samples_per_curve=samples_per_curve, tol=tol)
    metrics = {k: rep[k] for k in ("violation_fraction", "worst_low_gap", "worst_high_gap", "n_samples", "K_factor")}
    return rep["violation_fraction"] == 0.0, metrics, {"tol": tol}, rep["excluded"]


@_check("area", "area-formula", PLANAR, IMAGE_ANNULI, Field("tol", TOL, 1e-3), Field("orders", ORDERS, [32, 64]))
def _check_area(seed, map, image_annulus, tol, orders):
    d = map.degree
    E, pre = image_annulus
    gs = {
        "one": lambda X: np.ones(len(X)),
        "sq_norm": lambda X: np.einsum("ij,ij->i", X, X),
        "inv_grad_sq": lambda X: 1.0 / np.maximum(np.hypot(X[:, 0], X[:, 1]) ** (2 * (d - 1)) * d * d, 1e-300),
    }
    worst = 0.0
    rows = {}
    for name, g in gs.items():
        rep = area_formula_check(map, g, E, pre, orders=orders)
        rows[name] = rep["rel_discrepancy"]
        worst = max(worst, rep["rel_discrepancy"])
    passed = worst <= tol
    return passed, {"rel_discrepancy": rows, "worst": worst}, {"tol": tol}, 0


# the relative slack on the energy bound, for quadrature rounding
ENERGY_SLACK = 1e-9


@_check("energy", "inverse-energy-bound", PLANAR, IMAGE_ANNULI, Field("order", ORDER, 64))
def _check_energy(seed, map, image_annulus, order):
    E, pre = image_annulus
    rep = energy_bound_check(map, E, pre, order=order)
    return rep["energy"] <= rep["bound"] * (1 + ENERGY_SLACK), rep, {"bound_slack": ENERGY_SLACK}, 0


# the root sum of z^d - y vanishes only from d = 2 on: at d = 1 it is y
@_check("gen-inverse", "generalized-inverse-root-sum", Field("degrees", listof(count(2)), [2, 3, 4]), SAMPLES,
        Field("tol", TOL, 1e-8), Field("use_power", FLAG, False))
def _check_gen_inverse(seed, degrees, samples, tol, use_power):
    region = Annulus(np.zeros(2), 0.2, 2.0)
    worst = 0.0
    for ix, d in enumerate(degrees):
        f = planar_power(d) if use_power else build_map(
            {"map": "poly", "coeffs": [0.0] * d + [1.0]}
        )
        ys = region.sample(seeded_rng(seed, 9, ix), samples)
        worst = max(worst, float(np.linalg.norm(generalized_inverse(f, ys), axis=1).max()))
    passed = worst <= tol
    return passed, {"max_norm": worst, "n_samples": samples, "degrees": degrees}, {"tol": tol}, 0


# the dual exponent n / (n - 1) needs n > 1
@_check("modulus", "ring-modulus", Field("region", ANNULUS, E_ANNULUS), family_field(1024),
        Field("grid", COUNT, 256), Field("n", number(1.0, above=True), 2.0), Field("tol", TOL, 0.05))
def _check_modulus(seed, region, family, grid, n, tol):
    if family.name != "radial":
        raise SpecError(f"the exact n-modulus is the radial family's, got a {family.name} family")
    res = discrete_modulus(family, region, grid=grid, n=n)
    exact = ring_modulus_exact(region.r_in, region.r_out, n)
    rel = abs(res.value - exact) / exact
    passed = rel <= tol and res.converged
    metrics = {"value": res.value, "exact": exact, "rel_error": rel, **res.to_json()}
    return passed, metrics, {"rel_tol": tol, "tol_gap": TOL_GAP}, 0


@_check("geom-qc", "modulus-two-sided", PLANAR, Field("region", REGION, E_ANNULUS),
        family_field(512), Field("grid", COUNT, 256),
        Field("slack", TOL, 0.05), Field("lift_steps", COUNT, 128))
def _check_geom_qc(seed, map, region, family, grid, slack, lift_steps):
    rep = pushforward_modulus_check(map, family, region, grid=grid, lift_steps=lift_steps)
    K, ratio = rep["K_I_K_O"], rep["ratio"]
    lo, hi = 1.0 / K - slack, K + slack
    # fails closed: every curve lifted and both modulus solves converged
    solved = rep["lift_failures"] == 0 and rep["base_diag"]["converged"] and rep["image_diag"]["converged"]
    metrics = {
        **{k: rep[k] for k in ("mod_base", "mod_image", "ratio", "K_I_K_O", "lift_failures")},
        "bound_lo": lo,
        "bound_hi": hi,
        # each solve's certificate: its converged flag, gap and iterations
        **{diag: {k: rep[diag][k] for k in ("converged", "gap", "iterations")} for diag in ("base_diag", "image_diag")},
    }
    return lo <= ratio <= hi and solved, metrics, {"slack": slack, "tol_gap": TOL_GAP}, rep["lift_failures"]


# a confidence interval needs two samples; given points and radii replace the drawn centers and the
# radius sweep, so the counts default to 10 only without them, and giving both of a pair is an error
@_check("ahlfors", "ahlfors-upper-bound", PLANAR, Field("samples", count(2), 100_000),
        Field("center_points", listof(POINT)),
        Field("centers", COUNT, lambda v: 10 if v["center_points"] is None else None),
        Field("radii_list", RADII), Field("radii", COUNT, lambda v: 10 if v["radii_list"] is None else None))
def _check_ahlfors(seed, map, samples, center_points, centers, radii_list, radii):
    if center_points is not None and centers is not None:
        raise SpecError("give center_points or centers, not both")
    if radii_list is not None and radii is not None:
        raise SpecError("give radii_list or radii, not both")
    if center_points is None:
        rng = seeded_rng(seed, 10)
        angles = 2 * np.pi * rng.uniform(size=centers)
        mags = rng.uniform(0.6, 1.4, size=centers)
        center_points = [np.array([m * np.cos(a), m * np.sin(a)]) for m, a in zip(mags, angles)]
    if radii_list is None:
        radii_list = np.linspace(0.02, 0.2, radii)
    balls = ahlfors_sampler(map, center_points, radii_list, n_samples=samples, seed=seed)
    worst = max(s.ratio for s in balls)
    margin = max(s.ratio - (1.0 + s.ratio_ci) for s in balls)
    passed = all(s.ratio <= 1.0 + s.ratio_ci for s in balls)
    metrics = {
        "n_balls": len(balls),
        "max_ratio": worst,
        "worst_margin": margin,
        "rows": [s.to_json() for s in balls],
    }
    return passed, metrics, {"bound": "1 + 3 sigma"}, 0


def _synthetic_map(d: int, rho: float = 0.5) -> MultiValuedMap:
    """Points x (P, 2) to the d-tuples c + s u_j: c = (x_1, x_2 / 2), s = max(0, |x|^2 - rho^2), u_j unit directions."""
    box = Box([-1.0, -1.0], [1.0, 1.0])
    if d == 2:
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    else:
        dirs = np.array([[np.cos(2 * np.pi * j / d), np.sin(2 * np.pi * j / d)] for j in range(d)])

    def ev(X):
        c = np.stack([X[:, 0], 0.5 * X[:, 1]], axis=1)
        s = np.maximum(0.0, row_dots(X) - rho**2)
        return sorted_tuples(c[:, None, :] + s[:, None, None] * dirs)

    return MultiValuedMap(domain=box, m=2, n=2, d=d, evaluate=ev)


@_check("interp", "lipschitz-interpolation", Field("ds", COUNTS, [2, 3]), Field("eps", POSITIVE, 0.1),
        Field("pairs", COUNT, 10_000), Field("tol", TOL, 1e-6), Field("cloud", COUNT, 10_000))
def _check_interp(seed, ds, eps, pairs, tol, cloud):
    rng = seeded_rng(seed, 11)
    rows = []
    passed = True
    for d in ds:
        F = _synthetic_map(d)
        X = F.domain.sample(rng, pairs)
        Y = F.domain.sample(rng, pairs)
        norm = row_norms(X - Y)
        apart = norm > 1e-12
        FX, FY = F.evaluate(X), F.evaluate(Y)
        # np.max keeps a NaN, so a NaN distance fails the check
        L = float(np.max(distance_values(FX, FY)[apart] / norm[apart])) * 1.05
        F.lipschitz_bound = L
        G, info = interpolate_feps(F, eps, cloud_size=cloud, seed=seed)
        GX, GY = G.evaluate(X), G.evaluate(Y)
        lip_eps = np.max(distance_values(GX, GY)[apart] / norm[apart])
        dev = np.max(distance_values(GX, FX))
        ok_lip = lip_eps <= (3 + 2 * d) * L * (1 + tol)
        ok_dev = dev <= 2 * L * eps * (1 + tol)
        # on the coincidence set the interpolated map is purely diagonal: one location
        members = X[:2000][distances_to_diagonal(FX[:2000]) < eps][:200]
        GM = G.evaluate(members)
        ok_diag = bool(np.all(GM == GM[:, :1]))
        rows.append(
            {
                "d": d,
                "L": L,
                "lip_feps": float(lip_eps),
                "lip_bound": (3 + 2 * d) * L,
                "sup_dev": float(dev),
                "dev_bound": 2 * L * eps,
                "member_fraction": info["member_fraction"],
                "diagonal_on_members": ok_diag,
            }
        )
        passed = passed and ok_lip and ok_dev and ok_diag
    return passed, {"rows": rows, "eps": eps}, {"lip_factor": "3+2d", "dev_factor": "2L*eps", "tol": tol}, 0


# the measure check needs at least 100 samples
@_check("preimage-measure", "preimage-measure-bound", ANY_MAP, Field("center_y", POINT, [1.0, 0.0]),
        Field("radius", POSITIVE, 0.3), Field("domain_box", BOX, [[-2.0, -2.0], [2.0, 2.0]]),
        Field("image_box", BOX, [[0.2, -0.8], [1.8, 0.8]]), Field("samples", count(100), 100_000))
def _check_preimage_measure(seed, map, center_y, radius, domain_box, image_box, samples):
    rep = preimage_measure_check(map, center_y, radius, domain_box, image_box, n_samples=samples, seed=seed)
    d, ratio, sd = map.degree, rep["ratio"], rep["ratio_sd"]
    # the bound d with a 3 sigma allowance, both absolute and relative to the ratio
    upper = min(d + 3.0 * sd, d * (1.0 + 3.0 * sd / ratio))
    thresholds = {"bound": d, "ci": "3 sigma", "upper": upper}
    passed = ratio <= upper
    if d == 1:
        # minv o map is the identity, so the ratio is 1 up to sampling error
        slack = 3.0 * sd + 0.02
        thresholds["lower"] = 1.0 - slack
        passed = passed and abs(ratio - 1.0) <= slack
    metrics = {k: rep[k] for k in ("lhs_measure", "rhs_measure", "ratio", "ratio_sd")}
    return passed, metrics, thresholds, 0


@_check("monodromy", "monodromy-loop", PLANAR, Field("steps", COUNT, 256))
def _check_monodromy(seed, map, steps):
    def gamma(t):
        return np.array([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)])

    lp = lift_path(map, gamma, initial_steps=steps)
    perm = lp.monodromy()
    closed_gap = distance_value(minv(map, gamma(0.0)), minv(map, gamma(1.0)))
    nontrivial = perm is not None and not np.array_equal(perm, np.arange(map.degree))
    passed = nontrivial and closed_gap <= 1e-12
    metrics = {
        "permutation": None if perm is None else perm.tolist(),
        "closed_loop_gap": closed_gap,
        "max_jump": lp.max_jump,
        "steps": int(len(lp.ts)),
    }
    return passed, metrics, {"closed_gap_tol": 1e-12}, 0


# the relative slack on each radius' bound, for rounding
METRIC_QC_SLACK = 1e-9


@_check("metric-qc", "metric-qc-bound", PLANAR, Field("y", POINT, [1.0, 0.0]), Field("radii", RADII, [0.1, 0.05, 0.02]))
def _check_metric_qc(seed, map, y, radii):
    rows = [{**row, "pass": row["H_minv_sq"] <= row["sum_H_star_sq"] * (1 + METRIC_QC_SLACK)}
            for row in metric_qc_check(map, y, radii)["rows"]]
    return all(row["pass"] for row in rows), {"rows": rows}, {"slack": METRIC_QC_SLACK}, 0


def run_check(name: str, config: dict, seed: int = 0) -> ReportRecord:
    """Validate the config, run the named check and wrap the outcome in a report record.

    The record echoes the config as given; ``non_default`` in its thresholds names each tolerance off its default.
    """
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
    claim_id, run, fields = CHECKS[name]
    values, non_default = validate(fields, config)
    (passed, metrics, thresholds, excluded), timing = timed(run, seed, **values)
    if non_default:
        thresholds = {**thresholds, "non_default": non_default}
    return ReportRecord(
        check=name,
        claim_id=claim_id,
        config=config,
        seed=seed,
        passed=bool(passed),
        metrics=metrics,
        thresholds=thresholds,
        excluded=int(excluded),
        timing=timing,
    )
