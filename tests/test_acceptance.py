"""Acceptance suite: every quantitative claim at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line (run with -s or
-v to see them).  Budgets and tolerances are pinned here, not configurable.
"""

import numpy as np
import pytest

from almqr.almgren import (
    AlmgrenPoint,
    barycenter,
    distance,
    distance_bruteforce,
    distance_to_diagonal,
    distance_value,
)
from almqr.covers import build_map, lift_path, minv, planar_power, precomposed
from almqr.forms import (
    ComassSettings,
    GroupAction,
    KCovector,
    KForm,
    MultiPoly,
    comass,
    exterior_derivative,
    natural_volume_form,
    polynomial_one_form,
    symmetrize,
    trace_form,
)
from almqr.modulus import (
    ahlfors_sampler,
    area_formula_check,
    discrete_modulus,
    energy_bound_check,
    pushforward_modulus_check,
    radial_family,
    ring_modulus_exact,
    upper_gradient_check,
)
from almqr.mv import (
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
from almqr.regions import Annulus, Box
from almqr.util import seeded_rng


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def rand_pair(rng):
    d = int(rng.integers(2, 7))
    n = int(rng.integers(1, 5))
    p = AlmgrenPoint.from_points(rng.normal(scale=2.0, size=(d, n)))
    q = AlmgrenPoint.from_points(rng.normal(scale=2.0, size=(d, n)))
    return p, q


def test_01_metric_oracle_equivalence():
    rng = seeded_rng(101)
    mismatches = 0
    for _ in range(10_000):
        p, q = rand_pair(rng)
        if distance(p, q).value != distance_bruteforce(p, q).value:
            mismatches += 1
    report(1, "metric-oracle", mismatches == 0, f"mismatches={mismatches}/10000")


def test_02_metric_axioms():
    rng = seeded_rng(102)
    worst_tri = -np.inf
    worst_sym = 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        p, q, r = (AlmgrenPoint.from_points(rng.normal(size=(d, n))) for _ in range(3))
        dpq, dqr, dpr = distance_value(p, q), distance_value(q, r), distance_value(p, r)
        worst_tri = max(worst_tri, dpr - dpq - dqr)
        worst_sym = max(worst_sym, abs(dpq - distance_value(q, p)))
    ident_ok = True
    for _ in range(300):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        pts = rng.normal(size=(d, n))
        ident_ok &= distance_value(
            AlmgrenPoint.from_points(pts), AlmgrenPoint.from_points(pts[rng.permutation(d)])
        ) == 0.0
    ok = worst_tri <= 1e-12 and worst_sym == 0.0 and ident_ok
    report(2, "metric-axioms", ok, f"triangle_excess={worst_tri:.2e} symmetry={worst_sym:.1e} ident={ident_ok}")


def test_03_barycenter_lipschitz():
    rng = seeded_rng(103)
    worst = 0.0
    for _ in range(10_000):
        p, q = rand_pair(rng)
        dv = distance_value(p, q)
        if dv > 0:
            worst = max(worst, np.sqrt(p.d) * np.linalg.norm(barycenter(p) - barycenter(q)) / dv)
    eq_gap = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        a, b = rng.normal(size=(2, n))
        ratio = (
            np.sqrt(d)
            * np.linalg.norm(a - b)
            / distance_value(AlmgrenPoint.diagonal(a, d), AlmgrenPoint.diagonal(b, d))
        )
        eq_gap = max(eq_gap, abs(ratio - 1.0))
    ok = worst <= 1 + 1e-12 and eq_gap <= 1e-12
    report(3, "barycenter-lipschitz", ok, f"max_ratio={worst:.15f} diag_gap={eq_gap:.1e}")


def test_04_comass_of_natural_form():
    rng = seeded_rng(104)
    worst = 0.0
    for n in (2, 3):
        for d in (2, 3):
            om = natural_volume_form(n, d)
            for _ in range(10):
                x = rng.normal(size=n * d)
                res = comass(om, x, ComassSettings(seed=0))
                worst = max(worst, abs(res.value - 1.0))
    report(4, "natural-form-comass", worst <= 1e-6, f"max|comass-1|={worst:.2e}")


def test_05_symmetrization_properties():
    rng = seeded_rng(105)
    n, d = 2, 2
    N = n * d
    G = GroupAction.full(n, d)
    import itertools

    def rand_const_form(k):
        pool = list(itertools.combinations(range(N), k))
        coeffs = {pool[i]: float(rng.normal()) for i in rng.choice(len(pool), size=3, replace=False)}
        return KForm.constant(KCovector(N, k, coeffs), n, d)

    idem = lin = 0.0
    nonexp = 0.0
    for _ in range(200):
        w1, w2 = rand_const_form(1), rand_const_form(1)
        P1 = symmetrize(w1, G)
        PP1 = symmetrize(P1, G)
        x = rng.normal(size=N)
        keys = set(P1.at(x).coeffs) | set(PP1.at(x).coeffs)
        idem = max(idem, max((abs(P1.at(x).coeffs.get(k, 0) - PP1.at(x).coeffs.get(k, 0)) for k in keys), default=0.0))
        a, b = float(rng.normal()), float(rng.normal())
        lhs = symmetrize(w1.scaled(a).add(w2, b), G).at(x)
        rhs = symmetrize(w1, G).at(x).scaled(a).add(symmetrize(w2, G).at(x), b)
        keys = set(lhs.coeffs) | set(rhs.coeffs)
        lin = max(lin, max((abs(lhs.coeffs.get(k, 0) - rhs.coeffs.get(k, 0)) for k in keys), default=0.0))
        # k = 1 comass is the coefficient l2 norm: non-expansion is exact
        if w1.at(x).l2() > 0:
            nonexp = max(nonexp, P1.at(x).l2() / w1.at(x).l2())

    # d commutes with the projection on polynomial-coefficient forms
    comps = [MultiPoly(N, {tuple(np.eye(N, dtype=int)[i]): 1.0, (0,) * N: 0.5}) for i in range(N)]
    base = polynomial_one_form(N, comps)
    w = KForm(degree=1, n=n, d=d, coeff_fn=base.coeff_fn)
    dP = exterior_derivative(symmetrize(w, G), fd_step=1e-4)
    Pd = symmetrize(exterior_derivative(w, fd_step=1e-4), G)
    comm = 0.0
    for _ in range(10):
        x = rng.normal(size=N)
        ka, kb = dP.at(x), Pd.at(x)
        keys = set(ka.coeffs) | set(kb.coeffs)
        comm = max(comm, max((abs(ka.coeffs.get(k, 0) - kb.coeffs.get(k, 0)) for k in keys), default=0.0))

    ok = idem <= 1e-12 and lin <= 1e-12 and nonexp <= 1 + 1e-12 and comm <= 1e-6
    report(5, "invariant-projection", ok, f"idem={idem:.1e} lin={lin:.1e} nonexp={nonexp:.15f} dP-Pd={comm:.1e}")


def test_06_tensor_split_pullback_identity():
    rng = seeded_rng(106)
    box = Box([-1.5, -1.5], [1.5, 1.5])
    from almqr.forms import tensor_product

    worst = 0.0
    shapes = [(1, 1), (2, 1), (2, 2)]
    per = 1000 // len(shapes) + 1
    count = 0
    for d0, d1 in shapes:
        f0 = from_affine_branches([(rng.normal(size=(2, 2)), rng.normal(size=2)) for _ in range(d0)], box, m=2)
        f1 = from_affine_branches([(rng.normal(size=(2, 2)), rng.normal(size=2)) for _ in range(d1)], box, m=2)

        def rand_trace(dd):
            p = MultiPoly(2, {(1, 0): float(rng.normal()), (0, 0): float(rng.normal())})
            q = MultiPoly(2, {(0, 1): float(rng.normal())})
            return symmetrize(trace_form(polynomial_one_form(2, [p, q]), dd), GroupAction.full(2, dd))

        w0, w1 = rand_trace(d0), rand_trace(d1)
        tp = tensor_product(w0, w1)
        pair = MultiValuedPair(f0, f1)
        for x in box.sample(seeded_rng(106, d0, d1), per):
            count += 1
            lhs = pair.pullback(tp, x, verify_relabelings=0).covector
            rhs = pullback(f0, w0, x, verify_relabelings=0).covector.wedge(
                pullback(f1, w1, x, verify_relabelings=0).covector
            )
            keys = set(lhs.coeffs) | set(rhs.coeffs)
            worst = max(worst, max((abs(lhs.coeffs.get(k, 0) - rhs.coeffs.get(k, 0)) for k in keys), default=0.0))
    report(6, "split-pullback-product", worst <= 1e-9, f"max_dev={worst:.2e} points={count}")


def test_07_weak_stokes():
    rng = seeded_rng(107)
    F = from_cover(planar_power(2), Box([0.4, 0.4], [1.8, 1.8]))
    worst = 0.0
    decreasing = True
    for _ in range(5):
        p = MultiPoly(2, {(0, 1): float(rng.normal()), (2, 0): float(rng.normal())})
        q = MultiPoly(2, {(1, 0): float(rng.normal()), (0, 2): float(rng.normal())})
        om = symmetrize(trace_form(polynomial_one_form(2, [p, q]), 2), GroupAction.full(2, 2))
        for _ in range(5):
            c = rng.uniform(0.75, 1.35, size=2)
            w = rng.uniform(0.25, 0.5, size=2)
            alpha = BumpTestForm(lo=c - w, hi=c + w, q=3, amp=float(rng.uniform(0.5, 2.0)))
            rep = weak_stokes_check(F, om, alpha, orders=(16, 32, 64))
            worst = max(worst, rep["rel_discrepancy"])
            decreasing = decreasing and rep["decreasing"]
    ok = worst < 1e-3 and decreasing
    report(7, "weak-stokes", ok, f"worst_rel={worst:.2e} decreasing={decreasing}")


def test_08_qr_curve_sharpness():
    ann = Annulus(np.zeros(2), 0.3, 1.5)
    worst_hi = worst_lo = 0.0
    for d in (2, 3, 4):
        rep = qr_curve_check(planar_power(d), ann, n_samples=10_000, seed=108, tol=1e-9)
        worst_hi = max(worst_hi, rep["max_ratio"] - 1.0)
        worst_lo = max(worst_lo, 1.0 - rep["min_ratio"])
    ok_power = worst_hi <= 1e-9 and worst_lo <= 1e-9
    f = precomposed(np.array([[1.5, 0.2], [0.0, 0.8]]), planar_power(2))
    rep_a = qr_curve_check(f, ann, n_samples=10_000, seed=108, tol=1e-6)
    ok = ok_power and rep_a["max_ratio"] <= 1 + 1e-6
    report(
        8,
        "qr-curve-bound",
        ok,
        f"power_dev=({worst_lo:.1e},{worst_hi:.1e}) affine_max={rep_a['max_ratio']:.9f}",
    )


def test_09_upper_gradient_sandwich():
    fam = radial_family(Annulus(np.zeros(2), 0.5, 1.5), 16)
    frac_conf = 0.0
    for d in (2, 3):
        rep = upper_gradient_check(planar_power(d), fam, samples_per_curve=64, tol=1e-6)
        frac_conf = max(frac_conf, rep["violation_fraction"])
    f = precomposed(np.array([[1.3, 0.0], [0.0, 1 / 1.3]]), planar_power(2))
    rep_a = upper_gradient_check(f, fam, samples_per_curve=64, tol=1e-6)
    ok = frac_conf == 0.0 and rep_a["violation_fraction"] == 0.0
    report(9, "upper-gradient-sandwich", ok, f"conformal_viol={frac_conf} distorted_viol={rep_a['violation_fraction']}")


def test_10_area_formula_and_energy():
    E = Annulus(np.zeros(2), 1.0, 4.0)
    worst = 0.0
    for d in (2, 3):
        f = planar_power(d)
        pre = Annulus(np.zeros(2), 1.0, 4.0 ** (1.0 / d))
        for g in (
            lambda X: np.ones(len(X)),
            lambda X: np.einsum("ij,ij->i", X, X),
            lambda X, d=d: 1.0 / (d * np.hypot(X[:, 0], X[:, 1]) ** (d - 1)) ** 2,
        ):
            rep = area_formula_check(f, g, E, pre, orders=(32, 64))
            worst = max(worst, rep["rel_discrepancy"])
    eb = energy_bound_check(planar_power(2), E, Annulus(np.zeros(2), 1.0, 2.0), order=64)
    ok = worst < 1e-3 and eb["pass"]
    report(10, "area-formula+energy", ok, f"worst_rel={worst:.2e} energy_slack={eb['slack']:.2e}")


def test_11_generalized_inverse_vanishes():
    region = Annulus(np.zeros(2), 0.2, 2.0)
    worst = 0.0
    for d in (2, 3, 4):
        f = build_map({"map": "poly", "coeffs": [0.0] * d + [1.0]})  # companion-matrix route
        ys = region.sample(seeded_rng(111, d), 10_000)
        worst = max(worst, float(np.linalg.norm(generalized_inverse(f, ys), axis=1).max()))
    report(11, "generalized-inverse", worst < 1e-8, f"max|g|={worst:.2e}")


def test_12_geometric_quasiconformality():
    ann = Annulus(np.zeros(2), 1.0, np.e)
    fam = radial_family(ann, 1024)
    res = discrete_modulus(fam, ann, grid=256)
    exact = ring_modulus_exact(1.0, np.e)
    ring_rel = abs(res.value - exact) / exact
    fam512 = radial_family(ann, 512)
    rep2 = pushforward_modulus_check(planar_power(2), fam512, ann, grid=256, slack=0.05, lift_steps=128)
    lam = 1.3
    fa = precomposed(np.array([[lam, 0.0], [0.0, 1 / lam]]), planar_power(2))
    rep3 = pushforward_modulus_check(fa, fam512, ann, grid=256, slack=0.05, lift_steps=128)
    ok = ring_rel <= 0.05 and rep2["pass"] and rep3["pass"]
    report(
        12,
        "geometric-qc",
        ok,
        f"ring_rel={ring_rel:.3f} z2_ratio={rep2['ratio']:.4f} affine_ratio={rep3['ratio']:.4f} K={rep3['K_I_K_O']:.3f}",
    )


def test_13_ahlfors_upper_bound():
    rng = seeded_rng(113)
    angles = 2 * np.pi * rng.uniform(size=10)
    mags = rng.uniform(0.6, 1.4, size=10)
    centers = [np.array([m * np.cos(a), m * np.sin(a)]) for m, a in zip(mags, angles)]
    radii = np.linspace(0.02, 0.2, 10)
    samples = ahlfors_sampler(planar_power(2), centers, radii, n_samples=100_000, seed=113)
    viol = [s for s in samples if s.ratio > 1.0 + s.ratio_ci]
    worst = max(s.ratio for s in samples)
    ok = len(viol) == 0 and len(samples) == 100
    report(13, "ahlfors-upper-bound", ok, f"balls={len(samples)} max_ratio={worst:.4f} violations={len(viol)}")


def test_14_interpolation_bounds():
    rng = seeded_rng(114)
    box = Box([-1.0, -1.0], [1.0, 1.0])
    eps = 0.1
    ok = True
    details = []
    for d in (2, 3):
        dirs = [np.array([np.cos(2 * np.pi * j / d), np.sin(2 * np.pi * j / d)]) for j in range(d)]

        def ev(x, dirs=dirs):
            c = np.array([x[0], 0.5 * x[1]])
            s = max(0.0, float(x @ x) - 0.25)
            return AlmgrenPoint.from_points([c + s * u for u in dirs])

        F = MultiValuedMap(domain=box, m=2, n=2, d=d, evaluate=ev)
        X = box.sample(rng, 10_000)
        Y = box.sample(rng, 10_000)
        L = max(distance_value(F(a), F(b)) / np.linalg.norm(a - b) for a, b in zip(X, Y)) * 1.05
        F.lipschitz_bound = L
        G, _ = interpolate_feps(F, eps, cloud_size=10_000, seed=114)
        lip = max(distance_value(G(a), G(b)) / np.linalg.norm(a - b) for a, b in zip(X, Y))
        dev = max(distance_value(G(x), F(x)) for x in X)
        ok_d = lip <= (3 + 2 * d) * L * (1 + 1e-6) and dev <= 2 * L * eps * (1 + 1e-6)
        details.append(f"d={d}: lip={lip:.3f}<={(3 + 2 * d) * L:.3f} dev={dev:.4f}<={2 * L * eps:.4f}")
        ok = ok and ok_d
    report(14, "interpolation-bounds", ok, "; ".join(details))


def test_15_preimage_measure_bound():
    from almqr.covers import preimage_measure_check

    f2 = planar_power(2)
    z2 = minv(f2, np.array([1.0, 0.0]))
    rep2 = preimage_measure_check(
        f2, z2, 0.3, Box([-2.0, -2.0], [2.0, 2.0]), Box([0.2, -0.8], [1.8, 0.8]), n_samples=100_000, seed=115
    )
    f1 = planar_power(1)
    z1 = minv(f1, np.array([0.5, 0.0]))
    rep1 = preimage_measure_check(
        f1, z1, 0.3, Box([-1.5, -1.5], [1.5, 1.5]), Box([-1.5, -1.5], [1.5, 1.5]), n_samples=100_000, seed=115
    )
    ok2 = rep2["ratio"] <= 2.0 * (1.0 + 3.0 * rep2["ratio_sd"] / rep2["ratio"])
    ok1 = abs(rep1["ratio"] - 1.0) <= 3.0 * rep1["ratio_sd"] + 0.02
    ok = rep2["ok"] and rep1["ok"] and ok2 and ok1
    report(15, "preimage-measure", ok, f"z2_ratio={rep2['ratio']:.3f}<=2(1+3s) id_ratio={rep1['ratio']:.3f}")


def test_16_monodromy_detection():
    f = planar_power(2)
    gamma = lambda t: np.array([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)])
    lp = lift_path(f, gamma, initial_steps=256)
    perm = lp.monodromy()
    swapped = perm is not None and perm.tolist() == [1, 0]
    closed = distance_value(minv(f, gamma(0.0)), minv(f, gamma(1.0))) <= 1e-12
    endpoints_differ = np.linalg.norm(lp.lifts[-1] - lp.lifts[0]) > 0.5
    ok = swapped and closed and endpoints_differ
    report(16, "monodromy", ok, f"perm={None if perm is None else perm.tolist()} closed={closed}")
