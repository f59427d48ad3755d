from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minksurf as mk
from minksurf.geometry import weingarten_eigen_raw
from minksurf.numerics import NumericsConfig

from oracles import (ellipsoid_gaussian, ellipsoid_mean, lq_dual_hessian, quadratic_dual_hessian,
                     torus_gaussian, torus_mean)

s_interior = st.floats(min_value=0.3, max_value=2.8)
t_full = st.floats(min_value=0.0, max_value=6.28)


def test_euclidean_sphere_reduction(eu, sphere2):
    pg = mk.point_geometry(eu, sphere2, 0.7, 1.3)
    assert pg.pairing == pytest.approx(1.0, abs=1e-12)
    assert pg.lambda1 == pytest.approx(0.5, abs=1e-12)
    assert pg.lambda2 == pytest.approx(0.5, abs=1e-12)
    assert pg.K == pytest.approx(0.25, abs=1e-12)
    assert pg.H == pytest.approx(0.5, abs=1e-12)
    assert pg.umbilic
    assert np.allclose(pg.W, 0.5 * np.eye(2), atol=1e-12)
    # euclidean norm: the Dupin metric is the first fundamental form and the
    # curvature form is the second, so all Minkowski objects collapse
    assert np.allclose(pg.d_mat, pg.G, atol=1e-12)
    assert np.allclose(pg.h_mat, pg.II, atol=1e-12)


@given(s=s_interior, t=t_full)
@settings(max_examples=30, deadline=None)
def test_euclidean_ellipsoid_matches_classical(eu, ellipsoid_std, s, t):
    pg = mk.point_geometry(eu, ellipsoid_std, s, t)
    assert pg.K == pytest.approx(ellipsoid_gaussian(1.0, 1.3, 0.8, pg.p), rel=1e-10)
    assert pg.H == pytest.approx(ellipsoid_mean(1.0, 1.3, 0.8, pg.p), rel=1e-10)


@given(s=st.floats(min_value=0.1, max_value=6.2), t=t_full)
@settings(max_examples=30, deadline=None)
def test_euclidean_torus_matches_classical(eu, s, t):
    tor = mk.torus(2.0, 0.7)
    pg = mk.point_geometry(eu, tor, s, t)
    assert pg.K == pytest.approx(torus_gaussian(2.0, 0.7, s), abs=1e-10)
    assert pg.H == pytest.approx(torus_mean(2.0, 0.7, s), abs=1e-10)


def test_minkowski_sphere_weingarten_is_scaled_identity(lp4, ell_norm):
    for norm in (lp4, ell_norm):
        for rho in (1.0, 2.0):
            ms = mk.minkowski_sphere(norm, rho=rho)
            for s, t in [(0.6, 0.9), (1.4, 2.7), (2.4, 5.0)]:
                pg = mk.point_geometry(norm, ms, s, t)
                assert np.abs(pg.W - np.eye(2) / rho).max() < 1e-7
                assert pg.umbilic
                assert mk.gaussian_by_determinants(pg) == pytest.approx(
                    1.0 / rho**2, rel=1e-7)


def test_normal_curvature_properties(lp4, ellipsoid_std):
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    X = np.array([0.37, -1.21])
    k = mk.normal_curvature(pg, X)
    # degree-0 homogeneity
    assert mk.normal_curvature(pg, 3.7 * X) == pytest.approx(k, rel=1e-12)
    assert mk.normal_curvature(pg, -X) == pytest.approx(k, rel=1e-12)
    # principal directions realize the eigenvalues
    assert mk.normal_curvature(pg, pg.V1) == pytest.approx(pg.lambda1, rel=1e-10)
    assert mk.normal_curvature(pg, pg.V2) == pytest.approx(pg.lambda2, rel=1e-10)
    with pytest.raises(mk.ZeroDirection):
        mk.normal_curvature(pg, np.zeros(2))
    # one zero row among a batch's directions is a zero direction too
    gb = mk.geometry_batch(lp4, ellipsoid_std, [0.8, 1.1], [2.4, 0.3])
    with pytest.raises(mk.ZeroDirection):
        mk.normal_curvature(gb, np.array([X, [0.0, 0.0]]))


@given(s=s_interior, t=t_full, x=st.floats(min_value=-2, max_value=2),
       y=st.floats(min_value=-2, max_value=2))
@settings(max_examples=40, deadline=None)
def test_two_curvature_routes_agree(lp4, ellipsoid_std, s, t, x, y):
    """Quotient of -h by b versus the Dupin-metric quotient d(X, WX)/d(X,X)."""
    if x * x + y * y < 1e-4:
        return
    pg = mk.point_geometry(lp4, ellipsoid_std, s, t)
    X = np.array([x, y])
    k1 = mk.normal_curvature(pg, X)
    k2 = mk.normal_curvature_via_dupin(pg, X)
    assert math.isclose(k1, k2, rel_tol=1e-9, abs_tol=1e-12)


def test_sphere_normal_curvature_is_inverse_radius(eu, sphere2):
    pg = mk.point_geometry(eu, sphere2, 1.1, 0.4)
    for X in (np.array([1.0, 0.0]), np.array([0.3, -2.0])):
        assert mk.normal_curvature(pg, X) == pytest.approx(0.5, rel=1e-12)


def test_principal_frame_normalization(lp4, ellipsoid_std):
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    assert pg.V1 @ pg.b_mat @ pg.V1 == pytest.approx(1.0, abs=1e-12)
    assert pg.V2 @ pg.b_mat @ pg.V2 == pytest.approx(1.0, abs=1e-12)
    assert abs(pg.V1 @ pg.b_mat @ pg.V2) < 1e-12
    # h is diagonalized with entries -lambda_i
    assert pg.V1 @ pg.h_mat @ pg.V1 == pytest.approx(-pg.lambda1, abs=1e-12)
    assert pg.V2 @ pg.h_mat @ pg.V2 == pytest.approx(-pg.lambda2, abs=1e-12)


def test_dupin_indicatrix_endpoints_and_metric(lp4, ellipsoid_std):
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    sp = math.sqrt(pg.pairing)
    assert np.allclose(mk.dupin_indicatrix(pg, 0.0), pg.V1 / sp, atol=1e-13)
    assert np.allclose(mk.dupin_indicatrix(pg, math.pi / 2), pg.V2 / sp, atol=1e-13)
    for th in (0.3, 1.1, 2.8, 4.0):
        V = mk.dupin_indicatrix(pg, th)
        amb = pg.ambient(V)
        assert lp4.dupin_form(pg.eta, amb, amb) == pytest.approx(1.0, rel=1e-9)


@given(s=s_interior, t=t_full, theta=st.floats(min_value=0.0, max_value=6.28))
@settings(max_examples=40, deadline=None)
def test_indicatrix_curvature_quadratic_form(lp4, ellipsoid_std, s, t, theta):
    pg = mk.point_geometry(lp4, ellipsoid_std, s, t)
    V = mk.dupin_indicatrix(pg, theta)
    expect = pg.lambda1 * math.cos(theta) ** 2 + pg.lambda2 * math.sin(theta) ** 2
    assert mk.normal_curvature(pg, V) == pytest.approx(expect, rel=1e-9, abs=1e-12)


@given(s=s_interior, t=t_full)
@settings(max_examples=30, deadline=None)
def test_indicatrix_mean_is_mean_curvature(lp4, ellipsoid_std, s, t):
    pg = mk.point_geometry(lp4, ellipsoid_std, s, t)
    # relative tolerance: where the norm's unit sphere is nearly flat the
    # curvatures blow up, but the averaging identity still holds to roundoff
    assert mk.mean_by_indicatrix_average(pg, 32) == pytest.approx(
        pg.H, rel=1e-11, abs=1e-12)
    assert mk.mean_by_indicatrix_average(pg, 8) == pytest.approx(
        pg.H, rel=1e-11, abs=1e-12)


@given(s=s_interior, t=t_full, theta0=st.floats(min_value=0.0, max_value=6.28))
@settings(max_examples=40, deadline=None)
def test_orthogonal_indicatrix_pair_sums_to_2h(lp4, ellipsoid_std, s, t, theta0):
    pg = mk.point_geometry(lp4, ellipsoid_std, s, t)
    assert mk.dupin_orthogonal_pair_sum(pg, theta0) == pytest.approx(
        2.0 * pg.H, rel=1e-11, abs=1e-12)


def test_pair_sum_at_umbilic_is_constant(eu, sphere2):
    pg = mk.point_geometry(eu, sphere2, 0.9, 0.2)
    for th in np.linspace(0.0, 2 * math.pi, 9):
        assert mk.dupin_orthogonal_pair_sum(pg, float(th)) == pytest.approx(
            2.0 * pg.lambda1, abs=1e-12)


def test_asymptotic_directions_positive_curvature_empty(eu, sphere2):
    pg = mk.point_geometry(eu, sphere2, 0.9, 0.2)
    assert mk.asymptotic_directions(pg) == []


def test_asymptotic_directions_negative_curvature(eu, catenoid_std):
    pg = mk.point_geometry(eu, catenoid_std, 0.4, 1.8)
    dirs = mk.asymptotic_directions(pg)
    assert len(dirs) == 2
    for X in dirs:
        assert abs(mk.normal_curvature(pg, X)) < 1e-10


def test_asymptotic_dupin_orthogonal_iff_minimal(eu, lp4, catenoid_std, torus_fat):
    """d(X,Y) = 0 for the asymptotic pair exactly on the H = 0 locus."""
    def d_product(pg):
        X, Y = mk.asymptotic_directions(pg)
        Xn = X / math.sqrt(float(X @ pg.d_mat @ X))
        Yn = Y / math.sqrt(float(Y @ pg.d_mat @ Y))
        return float(Xn @ pg.d_mat @ Yn)

    # catenoid: minimal everywhere (euclidean), so every point qualifies
    for s, t in [(0.3, 0.5), (-0.8, 2.0), (1.0, 4.4)]:
        pg = mk.point_geometry(eu, catenoid_std, s, t)
        assert abs(pg.H) < 1e-12
        assert abs(d_product(pg)) < 1e-10
    # fat torus: saddle-shaped points with H != 0 must give d(X,Y) != 0
    pg = mk.point_geometry(eu, torus_fat, 2.9, 0.7)
    assert pg.K < 0.0 and abs(pg.H) > 0.05
    assert abs(d_product(pg)) > 1e-3
    # and the same dichotomy under a genuinely non-euclidean norm
    pg4 = mk.point_geometry(lp4, torus_fat, 2.9, 0.7)
    assert pg4.K < 0.0
    if abs(pg4.H) > 0.05:
        assert abs(d_product(pg4)) > 1e-4


@given(s=s_interior, t=t_full)
@settings(max_examples=30, deadline=None)
def test_gaussian_determinant_identity(lp4, ellipsoid_std, s, t):
    pg = mk.point_geometry(lp4, ellipsoid_std, s, t)
    assert mk.gaussian_by_determinants(pg) == pytest.approx(
        pg.lambda1 * pg.lambda2, rel=1e-10)
    assert mk.gaussian_by_determinants(pg) == pytest.approx(pg.K, rel=1e-10)


def test_raw_weingarten_cross_check(lp4, ellipsoid_std):
    pg = mk.point_geometry(lp4, ellipsoid_std, 0.8, 2.4)
    raw = weingarten_eigen_raw(pg)
    assert raw[0] == pytest.approx(pg.lambda1, rel=1e-10)
    assert raw[1] == pytest.approx(pg.lambda2, rel=1e-10)
    assert pg.selfadjoint_defect < 1e-12


@pytest.mark.parametrize("family", ["lp4", "ellipsoid", "custom"])
def test_weingarten_from_restricted_du_matches_full_hessian(family, lp4, ell_norm, ellipsoid_std):
    # W = Ginv (E^T P)^T M_du (E^T P) dxi equals Ginv P^T Hess h_B P dxi:
    # the columns of P lie in xi-perp, on which M_du is Hess h_B restricted.
    norm = {"lp4": lp4, "ellipsoid": ell_norm,
            "custom": mk.custom_norm(lambda x: float(np.sum(np.abs(x) ** 4) ** 0.25))}[family]
    points = [(0.8, 2.4), (2.1, 0.6)] if family == "custom" else [
        (0.4, 0.3), (0.8, 2.4), (1.5, 4.0), (2.1, 0.6), (2.7, 5.5)]
    for s, t in points:
        pg = mk.point_geometry(norm, ellipsoid_std, s, t)
        P = pg.basis_matrix()
        W_full = np.linalg.inv(pg.G) @ P.T @ norm.dual_hessian(pg.xi) @ P @ pg.dxi_mat
        assert np.abs(pg.W - W_full).max() <= 1e-12 * np.abs(W_full).max()


def test_orientation_flip_law(lp4, ellipsoid_std):
    """Reversing the normal negates xi, eta, h, W, H and both principal
    curvatures while pairing, d, b and K are untouched."""
    s, t = 0.8, 2.4
    pg = mk.point_geometry(lp4, ellipsoid_std, s, t)
    pgf = mk.point_geometry(lp4, mk.flip_orientation(ellipsoid_std), s, t)
    assert np.allclose(pgf.xi, -pg.xi, atol=1e-14)
    assert np.allclose(pgf.eta, -pg.eta, atol=1e-14)
    assert pgf.pairing == pytest.approx(pg.pairing, abs=1e-14)
    assert np.allclose(pgf.h_mat, -pg.h_mat, atol=1e-13)
    assert np.allclose(pgf.W, -pg.W, atol=1e-13)
    assert np.allclose(pgf.d_mat, pg.d_mat, atol=1e-13)
    assert np.allclose(pgf.b_mat, pg.b_mat, atol=1e-13)
    assert pgf.K == pytest.approx(pg.K, rel=1e-12)
    assert pgf.H == pytest.approx(-pg.H, rel=1e-12)
    # eigenvalues negate and therefore swap their sort order
    assert pgf.lambda1 == pytest.approx(-pg.lambda2, rel=1e-12)
    assert pgf.lambda2 == pytest.approx(-pg.lambda1, rel=1e-12)


def test_reparametrization_invariance(lp4, ellipsoid_std):
    rng = np.random.default_rng(17)
    s, t = 0.8, 2.4
    pg = mk.point_geometry(lp4, ellipsoid_std, s, t)
    for _ in range(5):
        L = rng.normal(size=(2, 2))
        if abs(np.linalg.det(L)) < 0.1:
            continue
        off = rng.normal(size=2)
        rep = mk.reparametrize_linear(ellipsoid_std, L, off)
        st_new = np.linalg.solve(L, np.array([s, t]) - off)
        pgr = mk.point_geometry(lp4, rep, float(st_new[0]), float(st_new[1]))
        sign = 1.0 if np.linalg.det(L) > 0 else -1.0
        assert pgr.K == pytest.approx(pg.K, rel=1e-8)
        assert pgr.H == pytest.approx(sign * pg.H, rel=1e-8)
        ls = sorted([pgr.lambda1, pgr.lambda2])
        expect = sorted([sign * pg.lambda1, sign * pg.lambda2])
        assert ls[0] == pytest.approx(expect[0], rel=1e-8)
        assert ls[1] == pytest.approx(expect[1], rel=1e-8)


def test_weingarten_chain_rule_matches_fd_of_eta(lp4, ellipsoid_std):
    """W columns against a finite difference of the Birkhoff normal field."""
    s, t = 0.8, 2.4
    pg = mk.point_geometry(lp4, ellipsoid_std, s, t)
    h = 1e-5

    def eta_at(ss, tt):
        return mk.point_geometry(lp4, ellipsoid_std, ss, tt).eta

    # d(eta) in chart coordinates: columns are partial derivatives, and
    # W expresses them in the (f_s, f_t) frame: eta_s = W[0,0] f_s + W[1,0] f_t
    eta_s = (eta_at(s + h, t) - eta_at(s - h, t)) / (2 * h)
    eta_t = (eta_at(s, t + h) - eta_at(s, t - h)) / (2 * h)
    P = pg.basis_matrix()
    W_fd = np.linalg.lstsq(P, np.column_stack([eta_s, eta_t]), rcond=None)[0]
    assert np.abs(W_fd - pg.W).max() < 1e-6


def test_umbilic_tolerance_config(eu, ellipsoid_std):
    pg_tight = mk.point_geometry(eu, ellipsoid_std, 0.8, 2.4,
                                 NumericsConfig(umbilic_tol=1e-12))
    assert not pg_tight.umbilic
    pg_loose = mk.point_geometry(eu, ellipsoid_std, 0.8, 2.4,
                                 NumericsConfig(umbilic_tol=10.0))
    assert pg_loose.umbilic


# Graphs (s, t, f(s, t)) have a closed-form Weingarten map under every norm:
# eta = grad F°(xi~) with xi~ = (-f_s, -f_t, 1), which is homogeneous of
# degree 0, so one chain rule gives W = -H^ D^2 f, where H^ is the upper-left
# 2x2 block of the Hessian of F° at xi~. No finite difference enters.
GRAPH_A = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])


def _saddle_jet(s, t):
    return 0.7 * (s * s - t * t), 1.4 * s, -1.4 * t, 1.4 + 0.0 * s, 0.0 * s, -1.4 + 0.0 * s


def _bump_jet(s, t):
    e = np.exp(-(s * s + 2.0 * t * t)) / 2.0
    return e, -2.0 * s * e, -4.0 * t * e, (4.0 * s * s - 2.0) * e, 8.0 * s * t * e, (16.0 * t * t - 4.0) * e


GRAPHS = {"saddle": (mk.saddle(0.7), _saddle_jet), "bump": (mk.graph(_bump_jet), _bump_jet)}
GRAPH_NORMS = {
    "euclidean": (lambda js: mk.euclidean_norm(js), lambda xi: quadratic_dual_hessian(np.eye(3), xi)),
    "ellipsoid": (lambda js: mk.ellipsoid_norm(GRAPH_A, js),
                  lambda xi: quadratic_dual_hessian(np.linalg.inv(GRAPH_A), xi)),
    "lp3": (lambda js: mk.lp_norm(3.0, js), lambda xi: lq_dual_hessian(1.5, xi)),
    "lp4": (lambda js: mk.lp_norm(4.0, js), lambda xi: lq_dual_hessian(4.0 / 3.0, xi)),
}


@pytest.mark.parametrize("jet_source", ["analytic", "fd"])
@pytest.mark.parametrize("norm_name", list(GRAPH_NORMS))
@pytest.mark.parametrize("graph_name", list(GRAPHS))
def test_graph_curvatures_equal_their_closed_form(graph_name, norm_name, jet_source):
    # Errors relative to max|W| at each point (its square for K). Measured on
    # these 400 points: analytic jets at most 1.5e-15; FD norm jets 4.5e-6 to
    # 1.3e-5 on W, 6.8e-6 to 1.7e-5 on K and 1.7e-6 to 5.7e-6 on H.
    surface, jet = GRAPHS[graph_name]
    make_norm, dual_hessian = GRAPH_NORMS[norm_name]
    s, t = np.random.default_rng(7).uniform(-0.9, 0.9, (2, 400))
    _, f_s, f_t, f_ss, f_st, f_tt = jet(s, t)
    D2f = np.stack([np.stack([f_ss, f_st], -1), np.stack([f_st, f_tt], -1)], -2)
    H_hat = dual_hessian(np.stack([-f_s, -f_t, np.ones_like(s)], axis=1))[:, :2, :2]
    W = -H_hat @ D2f
    K = np.linalg.det(H_hat) * np.linalg.det(D2f)
    H = -0.5 * np.trace(H_hat @ D2f, axis1=1, axis2=2)
    scale = np.abs(W).max(axis=(1, 2))

    gb = mk.geometry_batch(make_norm(jet_source), surface, s, t)
    gaps = [(np.abs(gb.W - W).max(axis=(1, 2)) / scale).max(),
            (np.abs(gb.K - K) / scale**2).max(),
            (np.abs(gb.H - H) / scale).max()]
    if jet_source == "analytic":
        assert max(gaps) <= 1e-13, gaps
    else:
        assert 1e-8 < max(gaps) <= 5e-5, gaps
