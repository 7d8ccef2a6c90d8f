"""Named verification checks with pinned thresholds.

Each check maps a config dict to a ReportRecord; the CLI subcommands and the
suite manifest both dispatch here.  Claim ids name the mathematical
statement a check exercises, forming the coverage matrix of the suite.
"""

from __future__ import annotations

from numbers import Integral, Real

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
from .covers import NumericalError, build_map, lift_path, minv, planar_power, preimage_measure_check
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
    ahlfors_sampler,
    area_formula_check,
    build_family,
    discrete_modulus,
    energy_bound_check,
    metric_qc_check,
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


def _check_metric_oracle(config, seed):
    n_samples = _positive(config, "samples", 10_000)
    oracle = np.zeros(n_samples)
    solver = np.zeros(n_samples)
    by_degree: dict[int, list] = {}
    for idx, (P, Q) in _draw_groups(seeded_rng(seed, 1), n_samples, 2):
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
    return passed, {"n_samples": n_samples, "worst_abs_gap": worst}, {"exact": 0.0}, 0


def _check_metric_axioms(config, seed):
    n_samples = _positive(config, "samples", 10_000)
    tol = _finite(config, "tol", 1e-12, minimum=0.0)
    rng = seeded_rng(seed, 2)
    excess = [np.full(1, -np.inf)]
    asym = [np.zeros(1)]
    for _, (P, Q, R) in _draw_groups(rng, n_samples, 3):
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
        "n_samples": n_samples,
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


def _check_barycenter_lipschitz(config, seed):
    n_samples = _positive(config, "samples", 10_000)
    tol = _finite(config, "tol", 1e-12, minimum=0.0)
    rng = seeded_rng(seed, 3)
    ratios = [np.zeros(1)]
    excluded = 0
    for _, (P, Q) in _draw_groups(rng, n_samples, 2):
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
    metrics = {"n_samples": n_samples, "max_ratio": float(worst), "diagonal_equality_gap": eq_gap}
    return passed, metrics, {"ratio_bound": 1.0 + tol}, excluded


# ---------------------------------------------------------------------------
# form checks


def _check_comass(config, seed):
    tol = _finite(config, "tol", 1e-6, minimum=0.0)
    n_points = _positive(config, "points", 10)
    expected = _finite(config, "expected", 1.0)
    if "form" in config:
        # one pass at the form's own dimension
        form = build_form(config["form"])
        for key, own in (("ns", form.n), ("ds", form.d)):
            if config.get(key, [own]) != [own]:
                raise SpecError(f"{key} must be [{own}] (or left out) alongside a form, got {config[key]!r}")
        passes = [(form.n, form.d, form)]
    else:
        ns = _counts(config, "ns", [2, 3])
        ds = _counts(config, "ds", [2, 3])
        passes = [(n, d, natural_volume_form(n, d)) for n in ns for d in ds]
    rng = seeded_rng(seed, 4)
    worst = 0.0
    values = []
    for n, d, form in passes:
        for _ in range(n_points):
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


def _check_invariant_projection(config, seed):
    tol_ratio = _finite(config, "tol_ratio", 1e-12, minimum=0.0)
    tol_fd = _finite(config, "tol_fd", 1e-6, minimum=0.0)
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


def _check_split_pullback(config, seed):
    n_points = _positive(config, "points", 1000)
    tol = _finite(config, "tol", 1e-9, minimum=0.0)
    shapes = config.get("shapes", [[1, 1], [2, 1], [2, 2]])
    if not isinstance(shapes, (list, tuple)) or not shapes:
        raise SpecError(f"shapes must be a non-empty list of [d0, d1] pairs, got {shapes!r}")
    for shape in shapes:
        # GroupAction.full enumerates the symmetric group of each factor up to d = 7
        is_pair = isinstance(shape, (list, tuple)) and len(shape) == 2
        if not (is_pair and all(type(d) is int and 1 <= d <= 7 for d in shape)):
            raise SpecError(f"each shape must be a pair [d0, d1] of integers from 1 to 7, got {shape!r}")
    if n_points < len(shapes):
        raise SpecError(f"points must be at least the number of shapes ({len(shapes)}), got {n_points}")
    rng = seeded_rng(seed, 6)
    box = Box([-1.5, -1.5], [1.5, 1.5])
    worst = 0.0
    per = n_points // len(shapes)
    for d0, d1 in shapes:
        f0 = from_affine_branches(
            [(rng.normal(size=(2, 2)), rng.normal(size=2)) for _ in range(d0)], box, m=2
        )
        f1 = from_affine_branches(
            [(rng.normal(size=(2, 2)), rng.normal(size=2)) for _ in range(d1)], box, m=2
        )
        w0 = symmetrize(
            trace_form(polynomial_one_form(2, [_rand_poly(rng, 2, 1), _rand_poly(rng, 2, 1)]), d0),
            GroupAction.full(2, d0),
        )
        w1 = symmetrize(
            trace_form(polynomial_one_form(2, [_rand_poly(rng, 2, 1), _rand_poly(rng, 2, 1)]), d1),
            GroupAction.full(2, d1),
        )
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
    return passed, {"n_points": n_points, "max_deviation": worst}, {"tol": tol}, 0


# ---------------------------------------------------------------------------
# cover / mv checks


def _map_from_config(config) -> tuple:
    spec = config.get("map", {"map": "power", "k": 2})
    return build_map(spec)


def _region_from_config(config, default="annulus:0.3,1.5"):
    return parse_region(config.get("region", default))


def _check_qr_curve(config, seed):
    f = _map_from_config(config)
    region = _region_from_config(config)
    n_samples = _positive(config, "samples", 10_000)
    tol = _finite(config, "tol", 1e-9 if f.K_I == 1.0 else 1e-6, minimum=0.0)
    sharp = config.get("sharp", f.K_I == 1.0)
    if not isinstance(sharp, bool):
        raise SpecError(f"sharp must be true or false, got {sharp!r}")
    rep = qr_curve_check(f, region, n_samples=n_samples, seed=seed, tol=tol)
    passed = rep["pass"]
    if sharp:
        passed = passed and rep["min_ratio"] >= 1.0 - tol
    metrics = {k: rep[k] for k in ("max_ratio", "min_ratio", "mean_ratio", "n_used", "constant")}
    metrics["histogram"] = rep["histogram"]
    return passed, metrics, {"upper": 1.0 + tol, "lower_if_sharp": 1.0 - tol if sharp else None}, rep["excluded"]


def _check_stokes(config, seed):
    n_forms = _positive(config, "forms", 5)
    n_tests = _positive(config, "testforms", 5)
    orders = _orders(config, "orders", (16, 32, 64))
    tol = _finite(config, "tol", 1e-3)
    f = _map_from_config(config)
    F = from_cover(f, Box([0.4, 0.4], [1.8, 1.8]))
    rng = seeded_rng(seed, 8)
    worst = 0.0
    all_decreasing = True
    rows = []
    for i in range(n_forms):
        if "form" in config:
            omega = build_form(config["form"])
        else:
            omega = symmetrize(
                trace_form(polynomial_one_form(2, [_rand_poly(rng, 2), _rand_poly(rng, 2)]), f.degree),
                GroupAction.full(2, f.degree),
            )
        for j in range(n_tests):
            if "testform" in config:
                alpha = build_testform(config["testform"])
            else:
                c = rng.uniform(0.7, 1.3, size=2)
                w = rng.uniform(0.25, 0.55, size=2)
                alpha = BumpTestForm(lo=c - w, hi=c + w, q=3, amp=float(rng.uniform(0.5, 2.0)))
            rep = weak_stokes_check(F, omega, alpha, orders=orders)
            worst = max(worst, rep["rel_discrepancy"])
            all_decreasing = all_decreasing and rep["decreasing"]
            rows.append(
                {
                    "form": i,
                    "testform": j,
                    "rel": rep["rel_discrepancy"],
                    "decreasing": rep["decreasing"],
                    "S": rep["S"],
                    "degenerate": rep["degenerate"],
                }
            )
    passed = worst <= tol and all_decreasing
    metrics = {"worst_rel_discrepancy": worst, "decreasing": all_decreasing, "rows": rows}
    return passed, metrics, {"tol": tol}, 0


def _positive(config, key: str, default: int) -> int:
    """The integer config[key] (or the default); SpecError unless it is an integer of at least 1."""
    raw = config.get(key, default)
    try:
        value = int(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    # 2.5 is not a count, nor is true
    if value is None or isinstance(raw, bool) or (value != raw and not isinstance(raw, str)):
        raise SpecError(f"{key} must be an integer, got {raw!r}")
    if value < 1:
        raise SpecError(f"{key} must be at least 1, got {value}")
    return value


def _counts(config, key: str, default: list, minimum: int = 1) -> list:
    """The list config[key] (or the default); SpecError unless it is a non-empty list of integers >= ``minimum``.

    A sweep over an empty list would pass with nothing checked.
    """
    raw = config.get(key, default)
    if not isinstance(raw, (list, tuple)) or not raw or not all(type(v) is int and v >= minimum for v in raw):
        raise SpecError(f"{key} must be a non-empty list of integers of at least {minimum}, got {raw!r}")
    return raw


def _finite(config, key: str, default: float, minimum: float = -np.inf) -> float:
    """The number config[key] (or the default); SpecError unless it is finite and at least ``minimum``."""
    raw = config.get(key, default)
    value = np.nan
    if isinstance(raw, Real) and not isinstance(raw, bool):
        try:
            value = float(raw)
        except OverflowError:  # an integer beyond the float range
            pass
    if not (np.isfinite(value) and value >= minimum):
        bound = f" and at least {minimum}" if minimum > -np.inf else ""
        raise SpecError(f"{key} must be a finite number{bound}, got {raw!r}")
    return value


# the largest Gauss-Legendre order a check accepts: a tensor rule of order q on a
# box has q^2 nodes, so 1024 gives about a million, and each order's rule is cached
MAX_ORDER = 1024


def _order(raw, key: str) -> int:
    """One quadrature order; SpecError unless it is an integer from 1 to MAX_ORDER."""
    if isinstance(raw, bool) or not isinstance(raw, Integral) or not 1 <= raw <= MAX_ORDER:
        raise SpecError(f"{key} must be integers from 1 to {MAX_ORDER}, got {raw!r}")
    return int(raw)


def _orders(config, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
    """The quadrature orders config[key] (or the default): a non-empty list, each checked by ``_order``."""
    raw = config.get(key, default)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise SpecError(f"{key} must be a non-empty list of quadrature orders, got {raw!r}")
    return tuple(_order(v, key) for v in raw)


def _point(config, key: str, default: list) -> np.ndarray:
    """The point config[key] (or the default); SpecError unless it is a non-empty list of finite numbers."""
    raw = config.get(key, default)
    y = None
    if isinstance(raw, (list, tuple)) and raw and all(isinstance(v, Real) and not isinstance(v, bool) for v in raw):
        try:
            y = np.asarray(raw, dtype=float)
        except OverflowError:  # an integer beyond the float range
            pass
    if y is None or not np.isfinite(y).all():
        raise SpecError(f"{key} must be a non-empty list of finite numbers, got {raw!r}")
    return y


def _check_upper_gradient(config, seed):
    f = _map_from_config(config)
    region = _region_from_config(config, "annulus:0.5,1.5")
    fam = build_family(config.get("family", {"family": "radial", "count": 16}), region)
    rep = upper_gradient_check(
        f,
        fam,
        samples_per_curve=_positive(config, "samples_per_curve", 64),
        tol=_finite(config, "tol", 1e-6, minimum=0.0),
    )
    metrics = {k: rep[k] for k in ("violation_fraction", "worst_low_gap", "worst_high_gap", "n_samples", "K_factor")}
    return rep["pass"], metrics, {"tol": rep["tol"]}, rep["excluded"]


def _image_annuli(config, d: int) -> tuple[Annulus, Annulus]:
    """The image annulus E of area and energy (config ``image_annulus``) and its preimage under z^d.

    SpecError unless the radii are two finite numbers 0 <= r_in < r_out whose
    d-th roots stay apart.
    """
    radii = _point(config, "image_annulus", [1.0, 4.0])
    if len(radii) == 2:
        try:
            E = Annulus(np.zeros(2), float(radii[0]), float(radii[1]))
            return E, Annulus(np.zeros(2), E.r_in ** (1.0 / d), E.r_out ** (1.0 / d))
        except ValueError:
            pass
    raise SpecError(f"image_annulus must be radii [r_in, r_out] with 0 <= r_in < r_out, "
                    f"got {config['image_annulus']!r}")


def _check_area(config, seed):
    f = _map_from_config(config)
    d = f.degree
    E, pre = _image_annuli(config, d)
    tol = _finite(config, "tol", 1e-3, minimum=0.0)
    gs = {
        "one": lambda X: np.ones(len(X)),
        "sq_norm": lambda X: np.einsum("ij,ij->i", X, X),
        "inv_grad_sq": lambda X: 1.0 / np.maximum(np.hypot(X[:, 0], X[:, 1]) ** (2 * (d - 1)) * d * d, 1e-300),
    }
    orders = _orders(config, "orders", (32, 64))
    worst = 0.0
    rows = {}
    for name, g in gs.items():
        rep = area_formula_check(f, g, E, pre, orders=orders)
        rows[name] = rep["rel_discrepancy"]
        worst = max(worst, rep["rel_discrepancy"])
    passed = worst <= tol
    return passed, {"rel_discrepancy": rows, "worst": worst}, {"tol": tol}, 0


def _check_energy(config, seed):
    f = _map_from_config(config)
    E, pre = _image_annuli(config, f.degree)
    rep = energy_bound_check(f, E, pre, order=_order(config.get("order", 64), "order"))
    return rep["pass"], {"energy": rep["energy"], "bound": rep["bound"], "slack": rep["slack"]}, {
        "bound_slack": 1e-9
    }, 0


def _check_gen_inverse(config, seed):
    # the root sum of z^d - y vanishes only from d = 2 on: at d = 1 it is y
    degrees = _counts(config, "degrees", [2, 3, 4], minimum=2)
    n_samples = _positive(config, "samples", 10_000)
    tol = _finite(config, "tol", 1e-8, minimum=0.0)
    region = Annulus(np.zeros(2), 0.2, 2.0)
    worst = 0.0
    for ix, d in enumerate(degrees):
        f = planar_power(d) if config.get("use_power", False) else build_map(
            {"map": "poly", "coeffs": [0.0] * d + [1.0]}
        )
        ys = region.sample(seeded_rng(seed, 9, ix), n_samples)
        worst = max(worst, float(np.linalg.norm(generalized_inverse(f, ys), axis=1).max()))
    passed = worst <= tol
    return passed, {"max_norm": worst, "n_samples": n_samples, "degrees": degrees}, {"tol": tol}, 0


def _check_modulus(config, seed):
    region = _region_from_config(config, "annulus:1,2.718281828459045")
    fam = build_family(config.get("family", {"family": "radial", "count": 1024}), region)
    grid = int(config.get("grid", 256))
    res = discrete_modulus(fam, region, grid=grid, n=float(config.get("n", 2)))
    exact = ring_modulus_exact(region.r_in, region.r_out)
    rel = abs(res.value - exact) / exact
    tol = _finite(config, "tol", 0.05, minimum=0.0)
    passed = rel <= tol and res.converged
    metrics = {"value": res.value, "exact": exact, "rel_error": rel, **res.to_json()}
    return passed, metrics, {"rel_tol": tol}, 0


def _check_geom_qc(config, seed):
    f = _map_from_config(config)
    region = _region_from_config(config, "annulus:1,2.718281828459045")
    fam = build_family(config.get("family", {"family": "radial", "count": 512}), region)
    rep = pushforward_modulus_check(
        f,
        fam,
        region,
        grid=_positive(config, "grid", 256),
        slack=_finite(config, "slack", 0.05, minimum=0.0),
        lift_steps=_positive(config, "lift_steps", 128),
    )
    metrics = {k: rep[k] for k in ("mod_base", "mod_image", "ratio", "K_I_K_O", "bound_lo", "bound_hi")}
    return rep["pass"], metrics, {"slack": config.get("slack", 0.05)}, rep["lift_failures"]


def _check_ahlfors(config, seed):
    f = _map_from_config(config)
    N = _positive(config, "samples", 100_000)
    if "center_points" in config:
        try:
            centers = [np.asarray(c, dtype=float) for c in config["center_points"]]
        except (TypeError, ValueError) as exc:
            raise SpecError(f"ahlfors center_points must be a list of points, got {config['center_points']!r}") from exc
    else:
        n_centers = _positive(config, "centers", 10)
        rng = seeded_rng(seed, 10)
        angles = 2 * np.pi * rng.uniform(size=n_centers)
        mags = rng.uniform(0.6, 1.4, size=n_centers)
        centers = [np.array([m * np.cos(a), m * np.sin(a)]) for m, a in zip(mags, angles)]
    if "radii_list" in config:
        try:
            radii = [float(r) for r in config["radii_list"]]
        except (TypeError, ValueError) as exc:
            raise SpecError(f"ahlfors radii_list must be a list of numbers, got {config['radii_list']!r}") from exc
        # a ball of radius 0, below 0 or not a number has no measure to compare
        if not all(np.isfinite(r) and r > 0 for r in radii):
            raise SpecError(f"ahlfors radii must be finite and positive, got {radii}")
    else:
        radii = np.linspace(0.02, 0.2, _positive(config, "radii", 10))
    # an empty sweep has no worst ball, and a confidence interval needs two samples
    if not centers or not len(radii) or N < 2:
        raise SpecError(
            f"ahlfors needs at least one center, one radius and two samples; got {len(centers)}, {len(radii)}, {N}"
        )
    samples = ahlfors_sampler(f, centers, radii, n_samples=N, seed=seed)
    worst = max(s.ratio for s in samples)
    margin = max(s.ratio - (1.0 + s.ratio_ci) for s in samples)
    passed = all(s.ratio <= 1.0 + s.ratio_ci for s in samples)
    metrics = {
        "n_balls": len(samples),
        "max_ratio": worst,
        "worst_margin": margin,
        "rows": [s.to_json() for s in samples],
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


def _check_interp(config, seed):
    ds = _counts(config, "ds", [2, 3])
    eps = float(config.get("eps", 0.1))
    n_pairs = _positive(config, "pairs", 10_000)
    tol = _finite(config, "tol", 1e-6, minimum=0.0)
    rng = seeded_rng(seed, 11)
    rows = []
    passed = True
    for d in ds:
        F = _synthetic_map(d)
        X = F.domain.sample(rng, n_pairs)
        Y = F.domain.sample(rng, n_pairs)
        norm = row_norms(X - Y)
        apart = norm > 1e-12
        FX, FY = F.evaluate(X), F.evaluate(Y)
        # np.max keeps a NaN, so a NaN distance fails the check
        L = float(np.max(distance_values(FX, FY)[apart] / norm[apart])) * 1.05
        F.lipschitz_bound = L
        G, info = interpolate_feps(F, eps, cloud_size=int(config.get("cloud", 10_000)), seed=seed)
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


def _check_preimage_measure(config, seed):
    f = _map_from_config(config)
    y0 = _point(config, "center_y", [1.0, 0.0])
    r = float(config.get("radius", 0.3))
    z = minv(f, y0)
    dom = Box(*config.get("domain_box", ([-2.0, -2.0], [2.0, 2.0])))
    img = Box(*config.get("image_box", ([0.2, -0.8], [1.8, 0.8])))
    rep = preimage_measure_check(
        f, z, r, dom, img, n_samples=int(config.get("samples", 100_000)), seed=seed
    )
    if not rep.get("ok", False):
        return False, rep, {}, 0
    d, ratio, sd = f.degree, rep["ratio"], rep["ratio_sd"]
    # the bound d with a 3 sigma allowance, both absolute and relative to the ratio
    upper = min(d + 3.0 * sd, d * (1.0 + 3.0 * sd / ratio))
    thresholds = {"bound": d, "ci": "3 sigma", "upper": upper}
    passed = ratio <= upper
    if d == 1:
        # minv o f is the identity, so the ratio is 1 up to sampling error
        slack = 3.0 * sd + 0.02
        thresholds["lower"] = 1.0 - slack
        passed = passed and abs(ratio - 1.0) <= slack
    metrics = {k: rep[k] for k in ("lhs_measure", "rhs_measure", "ratio", "ratio_sd")}
    return passed, metrics, thresholds, 0


def _check_monodromy(config, seed):
    f = _map_from_config({"map": config.get("map", {"map": "power", "k": 2})})

    def gamma(t):
        return np.array([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)])

    lp = lift_path(f, gamma, initial_steps=_positive(config, "steps", 256))
    perm = lp.monodromy()
    closed_gap = distance_value(minv(f, gamma(0.0)), minv(f, gamma(1.0)))
    nontrivial = perm is not None and not np.array_equal(perm, np.arange(f.degree))
    passed = nontrivial and closed_gap <= 1e-12
    metrics = {
        "permutation": None if perm is None else perm.tolist(),
        "closed_loop_gap": closed_gap,
        "max_jump": lp.max_jump,
        "steps": int(len(lp.ts)),
    }
    return passed, metrics, {"closed_gap_tol": 1e-12}, 0


def _check_metric_qc(config, seed):
    f = _map_from_config(config)
    y0 = _point(config, "y", [1.0, 0.0])
    radii = config.get("radii", [0.1, 0.05, 0.02])
    try:
        valid = len(radii) > 0 and all(np.isfinite(r) and r > 0 for r in radii)
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise SpecError(f"metric-qc needs a list of radii, each finite and positive; got {radii!r}")
    rep = metric_qc_check(f, y0, radii)
    return rep["pass"], {"rows": rep["rows"]}, {"slack": 1e-9}, 0


# ---------------------------------------------------------------------------
# registry


CHECKS = {
    "metric-oracle": ("assignment-metric-oracle", _check_metric_oracle),
    "metric-axioms": ("assignment-metric-axioms", _check_metric_axioms),
    "barycenter-lipschitz": ("barycenter-lipschitz", _check_barycenter_lipschitz),
    "comass": ("natural-form-comass", _check_comass),
    "invariant-projection": ("invariant-projection", _check_invariant_projection),
    "split-pullback": ("split-pullback-product", _check_split_pullback),
    "qr-curve": ("qr-curve-bound", _check_qr_curve),
    "stokes": ("weak-stokes", _check_stokes),
    "upper-gradient": ("upper-gradient-sandwich", _check_upper_gradient),
    "area": ("area-formula", _check_area),
    "energy": ("inverse-energy-bound", _check_energy),
    "gen-inverse": ("generalized-inverse-root-sum", _check_gen_inverse),
    "modulus": ("ring-modulus", _check_modulus),
    "geom-qc": ("modulus-two-sided", _check_geom_qc),
    "ahlfors": ("ahlfors-upper-bound", _check_ahlfors),
    "interp": ("lipschitz-interpolation", _check_interp),
    "preimage-measure": ("preimage-measure-bound", _check_preimage_measure),
    "monodromy": ("monodromy-loop", _check_monodromy),
    "metric-qc": ("metric-qc-bound", _check_metric_qc),
}


def run_check(name: str, config: dict, seed: int = 0) -> ReportRecord:
    """Run a named check and wrap the outcome in a report record."""
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
    claim_id, fn = CHECKS[name]
    (passed, metrics, thresholds, excluded), timing = timed(fn, config, seed)
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
