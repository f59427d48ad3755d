from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import minksurf as mk
from minksurf.distances import _normal_line_hessians
from minksurf.numerics import NumericsConfig, convergence_order


def test_tangent_plane_distance_vanishes_at_anchor(lp4, ellipsoid_std):
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    assert mk.tangent_plane_distance(pg, pg.p) == pytest.approx(0.0, abs=1e-14)
    # moving along eta by c changes g by exactly -c
    assert mk.tangent_plane_distance(pg, pg.p + 0.37 * pg.eta) == pytest.approx(
        -0.37, abs=1e-12)
    # moving inside the tangent plane changes nothing
    X = pg.ambient(np.array([0.4, -1.1]))
    assert mk.tangent_plane_distance(pg, pg.p + X) == pytest.approx(0.0, abs=1e-12)


def test_anchor_is_critical_point_of_tangent_plane_field(lp4, ellipsoid_std):
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    field = mk.tangent_plane_distance_field(pg, ellipsoid_std)
    st = np.array([0.8, 2.4])
    h = 1e-6
    for e in (np.array([h, 0.0]), np.array([0.0, h])):
        deriv = (field(st + e) - field(st - e)) / (2 * h)
        assert abs(deriv) < 1e-9


def test_tangent_plane_hessian_is_minus_h(lp4, ell_norm, ellipsoid_std, torus_fat):
    for norm in (lp4, ell_norm):
        for surface, s, t in [(ellipsoid_std, 0.8, 2.4), (torus_fat, 1.1, 0.6)]:
            pg = mk.point_geometry(norm, surface, s, t)
            field = mk.tangent_plane_distance_field(pg, surface)
            Hb = mk.hess_b_matrix(field, pg)
            scale = max(1.0, np.abs(pg.h_mat).max())
            assert np.abs(Hb + pg.h_mat).max() / scale < 1e-3


def test_tangent_plane_hessian_second_order_convergence(lp4, ellipsoid_std):
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    field = mk.tangent_plane_distance_field(pg, ellipsoid_std)
    steps = [4e-2, 2e-2, 1e-2, 5e-3]
    errors = [np.abs(mk.hess_b_matrix(field, pg, step=h) + pg.h_mat).max()
              for h in steps]
    order = convergence_order(steps, errors)
    assert 1.8 < order < 2.2


def test_hess_b_matrix_tests_criticality_once(lp4, ellipsoid_std):
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    field = mk.tangent_plane_distance_field(pg, ellipsoid_std)
    calls = []

    def counted(st):
        calls.append(tuple(st))
        return field(st)

    Hb = mk.hess_b_matrix(counted, pg)
    # one centre value and a 4-point gradient, then three 4-point cross stencils
    assert len(calls) == 1 + 4 + 3 * 4
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    entries = [mk.hess_b_at_critical(field, pg, X, Y) for X, Y in ((e1, e1), (e1, e2), (e2, e2))]
    assert Hb.tolist() == [[entries[0], entries[1]], [entries[1], entries[2]]]


def test_hessian_refuses_noncritical_point(lp4, ellipsoid_std):
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    other = mk.point_geometry(lp4, ellipsoid_std, 1.3, 1.0)
    field = mk.tangent_plane_distance_field(pg, ellipsoid_std)
    with pytest.raises(mk.NotCritical):
        mk.hess_b_at_critical(field, other, np.array([1.0, 0.0]), np.array([1.0, 0.0]))


def test_minkowski_distance_values(eu, lp4):
    assert mk.minkowski_distance(eu, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert mk.minkowski_distance(eu, [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]) == pytest.approx(5.0)
    assert mk.minkowski_distance(lp4, [1.0, 1.0, 1.0], [2.0, 2.0, 1.0]) == pytest.approx(
        2.0 ** 0.25)


def test_distance_critical_along_normal_line(lp4, eu, sphere2):
    # euclidean sphere around its own center: radial direction is the normal
    pg = mk.point_geometry(eu, sphere2, 0.9, 1.7)
    assert mk.is_critical(eu, pg, np.zeros(3))
    # and from an arbitrary point on the normal line
    assert mk.is_critical(eu, pg, pg.p - 0.6 * pg.eta)
    # a generic off-axis base point is not critical
    assert not mk.is_critical(eu, pg, pg.p + np.array([0.5, 0.4, -0.3]))
    # Minkowski sphere under its own norm: eta is the normalized position
    ms = mk.minkowski_sphere(lp4, 2.0)
    pg4 = mk.point_geometry(lp4, ms, 0.8, 2.4)
    assert mk.is_critical(lp4, pg4, np.zeros(3))
    assert not mk.is_critical(lp4, pg4, np.array([0.9, -0.2, 0.4]))


def test_minkowski_sphere_distance_constant(lp4):
    ms = mk.minkowski_sphere(lp4, 2.0, center=(0.3, -0.1, 0.5))
    for s, t in [(0.5, 0.4), (1.2, 3.3), (2.3, 5.8)]:
        q = ms.position(s, t)
        assert mk.minkowski_distance(lp4, [0.3, -0.1, 0.5], q) == pytest.approx(
            2.0, abs=1e-12)


def test_focal_radius_matches_inverse_normal_curvature(lp4, ellipsoid_std):
    """The b-Hessian of the distance field from a center moving along the
    normal line changes sign exactly where the center crosses the focal point
    at distance 1/k from the surface."""
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    for V in (pg.V1, pg.V2):
        k = mk.normal_curvature(pg, V)
        assert k > 0
        t_star = 1.0 / k

        def psi(tau):
            a = pg.p - tau * pg.eta
            field = mk.minkowski_distance_field(lp4, ellipsoid_std, a)
            return mk.hess_b_at_critical(field, pg, V, V)

        lo, hi = 0.8 * t_star, 1.2 * t_star
        assert psi(lo) * psi(hi) < 0
        root = brentq(psi, lo, hi, xtol=1e-10 * t_star)
        assert abs(root - t_star) / t_star < 1e-4


def test_normal_line_hessians_match_hess_b_at_critical(lp4, ellipsoid_std, torus_fat):
    # the rows route of prop-3-1's psi: bitwise the one-point route, point by
    # point, and the same NotCritical where the criticality test fails
    for surface in (ellipsoid_std, torus_fat):
        gb = mk.geometry_batch(lp4, surface, [0.8, 1.1, 2.0], [2.4, 0.6, 4.0])
        V = np.array([[1.0, 0.3], [0.2, -1.0], [0.7, 0.7]])
        tt = np.array([0.4, 0.9, 1.7])
        for config in (NumericsConfig(), NumericsConfig(fd_step=3e-6)):
            psi = _normal_line_hessians(lp4, surface, gb, V, config)
            rows = psi(np.arange(3), tt)
            for i in range(3):
                field = mk.minkowski_distance_field(lp4, surface, gb.p[i] - tt[i] * gb.eta[i])
                assert rows[i] == mk.hess_b_at_critical(field, gb[i], V[i], V[i], config)
        strict = NumericsConfig(critical_tol=1e-16)
        field = mk.minkowski_distance_field(lp4, surface, gb.p[1] - tt[1] * gb.eta[1])
        with pytest.raises(mk.NotCritical) as one_point:
            mk.hess_b_at_critical(field, gb[1], V[1], V[1], strict)
        with pytest.raises(mk.NotCritical) as rows:
            _normal_line_hessians(lp4, surface, gb, V, strict)(np.array([1, 2]), tt[1:])
        assert str(rows.value) == str(one_point.value)


def test_euclidean_sphere_focal_point_is_center(eu, sphere2):
    pg = mk.point_geometry(eu, sphere2, 0.9, 0.3)
    field = mk.minkowski_distance_field(eu, sphere2, np.zeros(3))
    # distance to the center is identically 2 on the surface: flat Hessian
    # (a wide step keeps the difference of a constant below roundoff noise)
    Hb = mk.hess_b_matrix(field, pg, step=1e-3)
    assert np.abs(Hb).max() < 1e-8


def test_affine_distance_base_cases(eu, lp4, ellipsoid_std):
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    rho, V = mk.affine_distance(pg, pg.p)
    assert rho == pytest.approx(0.0, abs=1e-14)
    assert np.abs(V).max() < 1e-13

    ms = mk.minkowski_sphere(lp4, 2.0)
    pgm = mk.point_geometry(lp4, ms, 0.8, 2.4)
    rho, V = mk.affine_distance(pgm, np.zeros(3))
    assert rho == pytest.approx(2.0, abs=1e-10)
    assert np.abs(V).max() < 1e-9

    pgs = mk.point_geometry(eu, mk.euclidean_sphere(1.0), 0.8, 2.4)
    rho, V = mk.affine_distance(pgs, np.zeros(3))
    assert rho == pytest.approx(1.0, abs=1e-12)
    assert np.abs(V).max() < 1e-12


def test_decomposition_is_exact(lp4, ellipsoid_std):
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = rng.uniform(0.3, 2.8)
        t = rng.uniform(0.0, 6.28)
        a = rng.normal(scale=0.5, size=3)
        pg = mk.point_geometry(lp4, ellipsoid_std, s, t)
        assert mk.decomposition_residual(pg, a) < 1e-12


def test_h_gradient_of_affine_distance_is_minus_v(lp4, ell_norm, ellipsoid_std):
    """d(rho)(X) = h(-V, X): the differential form of the gradient identity,
    checked against a central difference of the chart field rho(s,t)."""
    for norm in (lp4, ell_norm):
        a = np.array([0.1, -0.2, 0.15])
        pg = mk.point_geometry(norm, ellipsoid_std, 0.8, 2.4)
        _, V = mk.affine_distance(pg, a)

        def rho_at(s, t):
            return mk.affine_distance(mk.point_geometry(norm, ellipsoid_std, s, t), a)[0]

        h = 1e-5
        grad_fd = np.array([
            (rho_at(0.8 + h, 2.4) - rho_at(0.8 - h, 2.4)) / (2 * h),
            (rho_at(0.8, 2.4 + h) - rho_at(0.8, 2.4 - h)) / (2 * h),
        ])
        assert np.abs(grad_fd - pg.h_mat @ (-V)).max() < 1e-8


def test_laplacian_identity_for_affine_distance(lp4, ell_norm, ellipsoid_std, torus_fat):
    """Delta rho = 2 (H rho - 1) pointwise."""
    for norm in (lp4, ell_norm):
        for surface, pts in [
            (ellipsoid_std, [(0.8, 2.4), (1.4, 1.1), (2.1, 4.9)]),
            (torus_fat, [(1.0, 0.7), (2.2, 3.9)]),
        ]:
            a = np.array([0.05, -0.1, 0.12])
            for s, t in pts:
                pg = mk.point_geometry(norm, surface, s, t)
                rho, _ = mk.affine_distance(pg, a)
                lap = mk.nabla_laplacian_rho(norm, surface, s, t, a)
                assert lap == pytest.approx(2.0 * (pg.H * rho - 1.0), abs=5e-6)


def test_laplacian_gauss_split_consistency(lp4, ellipsoid_std):
    out = mk.nabla_laplacian_rho_details(lp4, ellipsoid_std, 0.8, 2.4,
                                         np.array([0.1, 0.0, -0.2]))
    assert max(out["gauss_defects"]) < 1e-6


def test_minimal_surface_laplacian_is_minus_two(eu, catenoid_std):
    """On an H = 0 surface the identity collapses to Delta rho = -2 for every
    base point."""
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = rng.uniform(-0.9, 0.9)
        t = rng.uniform(0.0, 6.28)
        a = rng.normal(scale=0.4, size=3)
        pg = mk.point_geometry(eu, catenoid_std, s, t)
        assert abs(pg.H) < 1e-12
        lap = mk.nabla_laplacian_rho(eu, catenoid_std, s, t, a)
        assert lap == pytest.approx(-2.0, abs=5e-6)


def test_laplacian_refuses_rank_deficient_h(eu, catenoid_std, torus_fat):
    # fat torus under the euclidean norm: h = II is rank-deficient exactly on
    # the two parabolic circles cos s = -R/(2r)... no, where K = 0: s = pi/2
    with pytest.raises(mk.DegenerateH):
        mk.nabla_laplacian_rho(eu, torus_fat, math.pi / 2, 0.3, np.zeros(3))


def test_distance_data_record(lp4, ellipsoid_std):
    a = np.array([0.1, -0.2, 0.15])
    probe = np.array([0.4, 0.4, 0.4])
    dd = mk.distance_data(lp4, ellipsoid_std, 0.8, 2.4, a, probe=probe)
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    rho, V = mk.affine_distance(pg, a)
    assert dd.rho == pytest.approx(rho, rel=1e-14)
    assert np.allclose(dd.V, V)
    assert np.allclose(dd.grad_h_rho, -V)
    assert dd.laplacian == pytest.approx(2.0 * (pg.H * rho - 1.0), abs=5e-6)
    assert dd.decomposition_residual < 1e-12
    assert dd.g_value == pytest.approx(mk.tangent_plane_distance(pg, probe), rel=1e-14)
    assert np.allclose(dd.g_grad, -pg.xi / pg.pairing)
    dd_light = mk.distance_data(lp4, ellipsoid_std, 0.8, 2.4, a, with_laplacian=False)
    assert dd_light.laplacian is None
    assert dd_light.g_value is None


def test_sphere_characterization_spread(lp4, ellipsoid_std):
    grid = [(s, t) for s in np.linspace(0.4, 2.7, 8)
            for t in np.linspace(0.0, 6.0, 8)]
    ms = mk.minkowski_sphere(lp4, 2.0, center=(0.2, 0.1, -0.3))
    out = mk.sphere_characterization_check(lp4, ms, np.array([0.2, 0.1, -0.3]), grid)
    assert out["rho_spread"] < 1e-8
    assert out["max_umbilic_defect"] < 1e-6
    assert out["rho_min"] == pytest.approx(2.0, abs=1e-8)
    assert out["n_points"] == 64

    out_e = mk.sphere_characterization_check(lp4, ellipsoid_std, np.zeros(3), grid)
    assert out_e["rho_spread"] > 0.05


def test_characterization_detects_wrong_center(lp4):
    grid = [(s, t) for s in np.linspace(0.4, 2.7, 6)
            for t in np.linspace(0.0, 6.0, 6)]
    ms = mk.minkowski_sphere(lp4, 2.0)
    out = mk.sphere_characterization_check(lp4, ms, np.array([0.5, 0.0, 0.0]), grid)
    assert out["rho_spread"] > 0.05
