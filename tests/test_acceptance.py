"""Acceptance gate: one test per advertised guarantee, one verdict line each.

Every test prints `criterion NN PASS/FAIL: <measurement>` before asserting, so
a plain `pytest -s tests/test_acceptance.py` reads as a checklist. Thresholds
marked "frozen" were measured once by scripts/derive_thresholds.py and are
regression floors, not theory — the exact structures (spheres, circles,
euclidean norm) are held to roundoff-level bounds, the counterexamples only
need to stay far from zero.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

import minksurf as mk
from minksurf.cli import dumps_canonical, run_checks


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def interior_points(rng, n, s_range, t_range=(0.0, 2 * math.pi)):
    return [(float(rng.uniform(*s_range)), float(rng.uniform(*t_range)))
            for _ in range(n)]


def test_criterion_01_euclidean_sphere_closed_form():
    eu = mk.euclidean_norm()
    worst = 0.0
    for r in (0.5, 1.0, 3.0):
        surf = mk.euclidean_sphere(r)
        pts = mk.grid_points(surf, 10, 20, (0.2, 0.0))
        assert len(pts) == 200
        for s, t in pts:
            pg = mk.point_geometry(eu, surf, s, t)
            worst = max(worst,
                        abs(pg.lambda1 - 1.0 / r), abs(pg.lambda2 - 1.0 / r),
                        abs(pg.K - 1.0 / r**2), abs(pg.H - 1.0 / r))
    verdict(1, worst <= 1e-8,
            f"euclidean sphere curvature defect {worst:.3e} (tol 1e-8, 600 points)")


def test_criterion_02_minkowski_sphere_umbilicity():
    norms = [mk.lp_norm(4.0),
             mk.ellipsoid_norm([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])]
    worst = {"analytic": 0.0, "fd": 0.0}
    for norm in norms:
        for rho in (1.0, 2.0):
            for js in ("analytic", "fd"):
                surf = mk.minkowski_sphere(norm, rho, jet_source=js)
                s, t = np.array(mk.grid_points(surf, 40, 20, (0.3, 0.1))).T
                W = mk.geometry_batch(norm, surf, s, t).W
                worst[js] = max(worst[js], float(np.abs(W - np.eye(2) / rho).max()))
    ok = worst["analytic"] <= 1e-6 and worst["fd"] <= 1e-3
    verdict(2, ok,
            f"max ||W - I/rho||: analytic {worst['analytic']:.3e} (tol 1e-6), "
            f"fd {worst['fd']:.3e} (tol 1e-3); 2 norms x 2 radii x 40x20 grid")


def test_criterion_03_indicatrix_average_is_mean_curvature():
    rng = np.random.default_rng(3)
    surf = mk.ellipsoid(1.0, 1.3, 0.8)
    worst = 0.0
    for norm in (mk.lp_norm(4.0), mk.ellipsoid_norm(np.diag([2.0, 1.5, 1.0]))):
        for s, t in interior_points(rng, 50, (0.3, math.pi - 0.3)):
            pg = mk.point_geometry(norm, surf, s, t)
            worst = max(worst, abs(mk.mean_by_indicatrix_average(pg, 16) - pg.H))
    verdict(3, worst <= 1e-10,
            f"|indicatrix average - H| max {worst:.3e} (tol 1e-10, 50 pts x 2 norms)")


def test_criterion_04_orthogonal_pair_sum():
    rng = np.random.default_rng(4)
    surf = mk.ellipsoid(1.0, 1.3, 0.8)
    worst = 0.0
    for norm in (mk.lp_norm(4.0), mk.ellipsoid_norm(np.diag([2.0, 1.5, 1.0]))):
        for s, t in interior_points(rng, 50, (0.3, math.pi - 0.3)):
            pg = mk.point_geometry(norm, surf, s, t)
            theta = float(rng.uniform(0.0, 2 * math.pi))
            worst = max(worst,
                        abs(mk.dupin_orthogonal_pair_sum(pg, theta) - 2 * pg.H))
    verdict(4, worst <= 1e-10,
            f"|k(V) + k(V_perp) - 2H| max {worst:.3e} (tol 1e-10, 100 pairs)")


def test_criterion_05_gaussian_determinant_quotient():
    rng = np.random.default_rng(5)
    norms = [mk.lp_norm(4.0),
             mk.ellipsoid_norm([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])]
    surfaces = [
        (mk.ellipsoid(1.0, 1.3, 0.8), (0.3, math.pi - 0.3)),
        (mk.torus(2.0, 1.2), (0.0, 2 * math.pi)),
        (mk.catenoid(1.0), (-0.9, 0.9)),
    ]
    worst = 0.0
    for norm in norms:
        for surf, s_range in surfaces:
            for s, t in interior_points(rng, 17, s_range):
                pg = mk.point_geometry(norm, surf, s, t)
                gap = abs(mk.gaussian_by_determinants(pg) - pg.lambda1 * pg.lambda2)
                worst = max(worst, gap / max(1.0, abs(pg.K)))
    # basis invariance under random chart re-linearizations
    worst_basis = 0.0
    surf = mk.ellipsoid(1.0, 1.3, 0.8)
    for _ in range(10):
        L = rng.normal(size=(2, 2))
        if abs(np.linalg.det(L)) < 0.1:
            continue
        s, t = 0.8, 2.4
        K0 = mk.gaussian_by_determinants(mk.point_geometry(norms[0], surf, s, t))
        rep = mk.reparametrize_linear(surf, L)
        st_new = np.linalg.solve(L, np.array([s, t]))
        K1 = mk.gaussian_by_determinants(
            mk.point_geometry(norms[0], rep, float(st_new[0]), float(st_new[1])))
        worst_basis = max(worst_basis, abs(K1 - K0) / max(1.0, abs(K0)))
    ok = worst <= 1e-8 and worst_basis <= 1e-8
    verdict(5, ok,
            f"K vs det-quotient rel gap {worst:.3e} (tol 1e-8, 102 pts), "
            f"basis invariance {worst_basis:.3e} (tol 1e-8)")


def test_criterion_06_distance_hessian_is_minus_h():
    norm = mk.lp_norm(4.0)
    anchors = {
        mk.ellipsoid(1.0, 1.3, 0.8): (0.3, math.pi - 0.3),
        mk.torus(2.0, 1.2): (0.0, 2 * math.pi),
    }
    rng = np.random.default_rng(6)
    worst = 0.0
    for surf, s_range in anchors.items():
        for s, t in interior_points(rng, 10, s_range):
            pg = mk.point_geometry(norm, surf, s, t)
            field = mk.tangent_plane_distance_field(pg, surf)
            Hb = mk.hess_b_matrix(field, pg)
            scale = max(1.0, float(np.abs(pg.h_mat).max()))
            worst = max(worst, float(np.abs(Hb + pg.h_mat).max()) / scale)
    # convergence order under step halving at one anchor
    surf = mk.ellipsoid(1.0, 1.3, 0.8)
    pg = mk.point_geometry(norm, surf, 0.8, 2.4)
    field = mk.tangent_plane_distance_field(pg, surf)
    steps = [4e-2, 2e-2, 1e-2, 5e-3]
    errs = [float(np.abs(mk.hess_b_matrix(field, pg, step=h) + pg.h_mat).max())
            for h in steps]
    from minksurf.numerics import convergence_order
    order = convergence_order(steps, errs)
    ok = worst <= 1e-3 and 1.7 < order < 2.3
    verdict(6, ok,
            f"|hess_b(g) + h| rel max {worst:.3e} (tol 1e-3, 20 anchors), "
            f"step-halving order {order:.2f} (expect ~2)")


def test_criterion_07_focal_bracketing():
    norm = mk.lp_norm(4.0)
    surf = mk.ellipsoid(1.0, 1.3, 0.8)
    rng = np.random.default_rng(7)
    worst = 0.0
    n_done = 0
    for s, t in interior_points(rng, 20, (0.3, math.pi - 0.3)):
        pg = mk.point_geometry(norm, surf, s, t)
        ang = float(rng.uniform(0.0, 2 * math.pi))
        V = math.cos(ang) * pg.V1 + math.sin(ang) * pg.V2
        k = mk.normal_curvature(pg, V)
        if k <= 1e-6:
            continue
        t_star = 1.0 / k

        def psi(tau, pg=pg, V=V):
            field = mk.minkowski_distance_field(norm, surf, pg.p - tau * pg.eta)
            return mk.hess_b_at_critical(field, pg, V, V)

        lo, hi = 0.8 * t_star, 1.2 * t_star
        if psi(lo) * psi(hi) >= 0:
            worst = max(worst, math.inf)
            continue
        root = brentq(psi, lo, hi, xtol=1e-10 * t_star)
        worst = max(worst, abs(root - t_star) / t_star)
        n_done += 1
    ok = worst <= 1e-4 and n_done >= 18
    verdict(7, ok,
            f"focal distance 1/k bracketed to rel {worst:.3e} "
            f"(tol 1e-4, {n_done} direction samples)")


def test_criterion_08_laplacian_identity():
    rng = np.random.default_rng(8)
    surf = mk.ellipsoid(1.0, 1.3, 0.8)
    centers = [rng.uniform(-0.3, 0.3, size=3) for _ in range(3)]
    worst = 0.0
    for norm in (mk.lp_norm(4.0),
                 mk.ellipsoid_norm([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])):
        for i, (s, t) in enumerate(interior_points(rng, 50, (0.3, math.pi - 0.3))):
            a = centers[i % 3]
            pg = mk.point_geometry(norm, surf, s, t)
            rho, _ = mk.affine_distance(pg, a)
            lap = mk.nabla_laplacian_rho(norm, surf, s, t, a)
            worst = max(worst, abs(lap - 2.0 * (pg.H * rho - 1.0)))
    verdict(8, worst <= 5e-3,
            f"|lap(rho) - 2(H rho - 1)| max {worst:.3e} "
            f"(tol 5e-3, 100 pts, 3 centers)")


def test_criterion_09_minimal_surface_laplacian():
    eu = mk.euclidean_norm()
    surf = mk.catenoid(1.0)
    rng = np.random.default_rng(9)
    worst_h = 0.0
    worst_lap = 0.0
    for s, t in interior_points(rng, 50, (-0.9, 0.9)):
        pg = mk.point_geometry(eu, surf, s, t)
        worst_h = max(worst_h, abs(pg.H))
        lap = mk.nabla_laplacian_rho(eu, surf, s, t, np.zeros(3))
        worst_lap = max(worst_lap, abs(lap + 2.0))
    ok = worst_h <= 1e-8 and worst_lap <= 5e-3
    verdict(9, ok,
            f"catenoid |H| max {worst_h:.3e} (tol 1e-8), "
            f"|lap(rho) + 2| max {worst_lap:.3e} (tol 5e-3, 50 pts)")


def test_criterion_10_constant_rho_characterizes_spheres():
    norm = mk.lp_norm(4.0)
    a = np.array([0.2, -0.1, 0.3])
    ms = mk.minkowski_sphere(norm, 2.0, center=tuple(a))
    grid = mk.grid_points(ms, 8, 8, (0.2, 0.0))
    on_sphere = mk.sphere_characterization_check(norm, ms, a, grid)

    surf = mk.ellipsoid(1.0, 1.3, 0.8)
    grid_e = mk.grid_points(surf, 8, 8, (0.2, 0.0))
    off_sphere = mk.sphere_characterization_check(norm, surf, np.zeros(3), grid_e)
    ok = on_sphere["rho_spread"] <= 1e-8 and off_sphere["rho_spread"] >= 0.05
    verdict(10, ok,
            f"rho spread: minkowski sphere {on_sphere['rho_spread']:.3e} "
            f"(tol 1e-8), ellipsoid {off_sphere['rho_spread']:.4f} "
            f"(frozen floor 0.05, measured 0.4188)")


def test_criterion_11_blaschke_characterizes_euclidean():
    eu = mk.euclidean_norm()
    unit = mk.euclidean_sphere(1.0)
    worst_ratio = 0.0
    worst_disc = 0.0
    for s, t in mk.grid_points(unit, 10, 10, (0.3, 0.0)):
        sample = mk.blaschke_sample(eu, unit, s, t)
        worst_ratio = max(worst_ratio, abs(sample.ratio - 1.0))
        worst_disc = max(worst_disc, sample.discrepancy)

    lp4 = mk.lp_norm(4.0)
    ms = mk.minkowski_sphere(lp4, 1.0)
    lp_ratio = 0.0
    lp_disc = 0.0
    for s, t in mk.grid_points(ms, 10, 10, (0.3, 0.0)):
        sample = mk.blaschke_sample(lp4, ms, s, t)
        lp_ratio = max(lp_ratio, abs(sample.ratio - 1.0))
        lp_disc = max(lp_disc, sample.discrepancy)
    ok = (worst_ratio <= 1e-8 and worst_disc <= 1e-6
          and lp_ratio >= 300.0 and lp_disc >= 1.6)
    verdict(11, ok,
            f"euclidean unit sphere: |ratio-1| {worst_ratio:.3e} (tol 1e-8), "
            f"|eta - affine normal| {worst_disc:.3e} (tol 1e-6); lp(4) sphere: "
            f"ratio gap {lp_ratio:.1f} (frozen floor 300), "
            f"normal gap {lp_disc:.2f} (frozen floor 1.6, measured 1.619883)")


def test_criterion_12_planar_ermakov_pinney():
    circle = mk.planar_support_check(lambda th: 1.0, n=1024)
    ellipse = mk.planar_support_check(mk.ellipse_support(1.0, 1.5), n=2048)
    circle_sup = max(circle["r1_sup"], circle["r2_sup"])
    ellipse_sup = max(ellipse["r1_sup"], ellipse["r2_sup"])
    ok = circle_sup <= 1e-12 and ellipse_sup >= 0.1
    verdict(12, ok,
            f"unit circle residual {circle_sup:.3e} (tol 1e-12), "
            f"ellipse(1,1.5) residual {ellipse_sup:.4f} "
            f"(frozen floor 0.1, measured 1.875)")


def test_criterion_13_asymptotic_directions_dupin_orthogonal():
    eu = mk.euclidean_norm()
    cat = mk.catenoid(1.0)
    rng = np.random.default_rng(13)

    def normalized_product(pg):
        X, Y = mk.asymptotic_directions(pg)
        Xn = X / math.sqrt(float(X @ pg.d_mat @ X))
        Yn = Y / math.sqrt(float(Y @ pg.d_mat @ Y))
        return abs(float(Xn @ pg.d_mat @ Yn))

    worst_cat = 0.0
    for s, t in interior_points(rng, 20, (-0.9, 0.9)):
        pg = mk.point_geometry(eu, cat, s, t)
        assert pg.K < 0 and abs(pg.H) < 1e-10
        worst_cat = max(worst_cat, normalized_product(pg))

    # an H = 0 locus of the fat torus under lp(4), located by sign scan
    lp4 = mk.lp_norm(4.0)
    tor = mk.torus(2.0, 1.2)
    worst_torus = 0.0
    n_roots = 0
    for t in np.linspace(0.2, 2 * math.pi, 8, endpoint=False):
        def h_of_s(s, t=t):
            return mk.point_geometry(lp4, tor, float(s), float(t)).H

        scan = np.linspace(1.8, 2 * math.pi - 1.8, 24)
        vals = [h_of_s(s) for s in scan]
        for i in range(len(scan) - 1):
            if vals[i] * vals[i + 1] < 0:
                s_root = brentq(h_of_s, scan[i], scan[i + 1], xtol=1e-12)
                pg = mk.point_geometry(lp4, tor, float(s_root), float(t))
                assert pg.K < 0
                worst_torus = max(worst_torus, normalized_product(pg))
                n_roots += 1
    ok = worst_cat <= 1e-6 and worst_torus <= 1e-6 and n_roots >= 8
    verdict(13, ok,
            f"asymptotic-pair |d(X,Y)| after normalization: catenoid "
            f"{worst_cat:.3e}, lp(4) torus H=0 locus {worst_torus:.3e} "
            f"(tol 1e-6, {n_roots} located zeros)")


def test_criterion_14_byte_identical_reports():
    config = {
        "norm": {"family": "lp", "p": 4.0},
        "surface": {"family": "ellipsoid", "a": 1.0, "b": 1.3, "c": 0.8},
        "grid": {"ns": 6, "nt": 6, "margins": [0.3, 0.1]},
        "checks": ["prop-2-1", "prop-2-3", "thm-3-2", "blaschke-scan"],
        "seed": 20260819,
    }
    blob1 = dumps_canonical(run_checks(config, threads=1)).encode()
    blob2 = dumps_canonical(run_checks(config, threads=4)).encode()
    ok = blob1 == blob2
    verdict(14, ok,
            f"two runs, same config + seed, different thread counts: "
            f"{'identical' if ok else 'DIFFERENT'} ({len(blob1)} bytes)")
