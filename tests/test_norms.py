from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minksurf as mk
from minksurf.numerics import _norm_rows, convergence_order, fd_gradient_rows, fd_hessian_rows
from minksurf.norms import tangent_basis
from minksurf.surfaces import _sphere_angle_jets

coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
nonzero3 = st.tuples(coord, coord, coord).filter(lambda v: sum(x * x for x in v) > 1e-2)


def test_gauge_closed_forms(eu, lp4):
    assert eu.gauge_value(np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0, abs=1e-14)
    assert lp4.gauge_value(np.array([1.0, 1.0, 0.0])) == pytest.approx(2.0 ** 0.25, abs=1e-14)
    diag = mk.ellipsoid_norm(np.diag([1.0, 4.0, 9.0]))
    assert diag.gauge_value(np.ones(3)) == pytest.approx(math.sqrt(14.0), abs=1e-13)
    assert eu.gauge_value(np.zeros(3)) == 0.0


def test_dual_closed_forms(eu, lp4):
    assert eu.dual_value(np.array([0.0, 0.0, 2.0])) == pytest.approx(2.0, abs=1e-14)
    # Hoelder: the dual of l4 is l(4/3)
    assert lp4.dual_value(np.array([1.0, 1.0, 0.0])) == pytest.approx(2.0 ** 0.75, abs=1e-13)
    diag = mk.ellipsoid_norm(np.diag([1.0, 4.0, 9.0]))
    assert diag.dual_value(np.array([0.0, 2.0, 0.0])) == pytest.approx(1.0, abs=1e-13)


@given(x=nonzero3, s=st.floats(min_value=0.1, max_value=7.0))
@settings(max_examples=60, deadline=None)
def test_gauge_homogeneity_lp(lp4, x, s):
    x = np.array(x)
    assert math.isclose(lp4.gauge_value(s * x), s * lp4.gauge_value(x),
                        rel_tol=1e-12, abs_tol=1e-12)


@given(x=nonzero3)
@settings(max_examples=60, deadline=None)
def test_euler_identities(ell_norm, x):
    """Degree-1 homogeneity: grad F . x = F(x) and Hess F . x = 0."""
    x = np.array(x)
    g = ell_norm.gauge_gradient(x)
    assert math.isclose(float(g @ x), ell_norm.gauge_value(x), rel_tol=1e-10, abs_tol=1e-12)
    H = ell_norm.gauge_hessian(x)
    assert np.linalg.norm(H @ x) < 1e-10 * max(1.0, np.abs(H).max())


def test_origin_is_nonsmooth(eu):
    with pytest.raises(mk.NonSmoothPoint):
        eu.gauge_gradient(np.zeros(3))
    with pytest.raises(mk.NonSmoothPoint):
        eu.dual_hessian(np.zeros(3))


def test_invalid_families():
    with pytest.raises(mk.InvalidParameter):
        mk.lp_norm(1.0)
    with pytest.raises(mk.InvalidParameter):
        mk.lp_norm(0.5)
    with pytest.raises(mk.InvalidParameter):
        mk.ellipsoid_norm(np.diag([1.0, -2.0, 1.0]))
    with pytest.raises(mk.InvalidParameter):
        mk.ellipsoid_norm(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


@pytest.mark.parametrize("make", [
    lambda: mk.lp_norm(4.0, jet_source="FD"),
    lambda: mk.ellipsoid_norm(np.eye(3), jet_source="Analytic"),
    lambda: mk.lp_norm(4.0, jet_source="fd", fd_step=0.0),
    lambda: mk.euclidean_norm(fd_step=float("nan")),
    lambda: mk.custom_norm(lambda x: float(np.linalg.norm(x)), fd_step=-1e-5),
    lambda: mk.custom_norm(lambda x: float(np.linalg.norm(x)), fd_step=float("inf")),
], ids=["FD", "Analytic", "zero-step", "nan-step", "negative-step", "inf-step"])
def test_a_norm_refuses_unknown_jet_options(make):
    """A jet_source other than "analytic" and "fd", or an fd_step that is not
    finite and positive, is refused when the norm is built ("FD" gave
    analytic jets labelled FD, and a zero step NaN dual Hessians)."""
    with pytest.raises(mk.InvalidParameter, match=r"unknown jet_source|fd_step must be finite and positive"):
        make()


def test_birkhoff_point_basics(eu, lp4):
    xi = np.array([0.3, -0.8, 0.5])
    xi /= np.linalg.norm(xi)
    assert np.allclose(eu.birkhoff_point(xi), xi, atol=1e-14)
    assert np.allclose(lp4.birkhoff_point(np.array([1.0, 0.0, 0.0])),
                       [1.0, 0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("family", ["euclidean", "ellipsoid", "lp4", "lp15"])
def test_birkhoff_round_trip_analytic(family, eu, ell_norm, lp4):
    norm = {"euclidean": eu, "ellipsoid": ell_norm, "lp4": lp4,
            "lp15": mk.lp_norm(1.5)}[family]
    rng = np.random.default_rng(42)
    for _ in range(100):
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        u = norm.birkhoff_point(xi)
        assert abs(norm.gauge_value(u) - 1.0) < 1e-10
        g = norm.gauge_gradient(u)
        assert np.linalg.norm(g / np.linalg.norm(g) - xi) < 1e-10


def test_birkhoff_round_trip_fd_jets():
    norm = mk.lp_norm(4.0, jet_source="fd")
    rng = np.random.default_rng(3)
    for _ in range(100):
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        u = norm.birkhoff_point(xi)
        assert abs(norm.gauge_value(u) - 1.0) < 1e-6
        g = norm.gauge_gradient(u)
        assert np.linalg.norm(g / np.linalg.norm(g) - xi) < 1e-6


def test_newton_matches_dual_gradient(lp4):
    """The projected-Newton fallback lands on the same Birkhoff point that the
    dual-gradient closed form produces."""
    xi = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    direct = lp4.birkhoff_point(xi)
    newton = lp4._newton_points(xi[None])[0]
    assert np.linalg.norm(direct - newton) < 1e-10
    rng = np.random.default_rng(8)
    for _ in range(10):
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        assert np.linalg.norm(lp4.birkhoff_point(xi) - lp4._newton_points(xi[None])[0]) < 1e-9


def test_custom_norm_newton_fallback():
    fancy = mk.custom_norm(
        lambda x: (x[0] ** 4 + 2.0 * x[1] ** 4 + 0.5 * x[2] ** 4
                   + x[0] ** 2 * x[1] ** 2) ** 0.25)
    xi = np.array([0.3, -0.8, 0.5])
    xi /= np.linalg.norm(xi)
    u = fancy.birkhoff_point(xi)
    assert abs(fancy.gauge_value(u) - 1.0) < 1e-9
    g = fancy.gauge_gradient(u)
    assert np.linalg.norm(g / np.linalg.norm(g) - xi) < 1e-8


def test_custom_norm_without_fallback_raises():
    norm = mk.custom_norm(lambda x: float(np.linalg.norm(x)), allow_newton=False)
    with pytest.raises(mk.MissingDualJets):
        norm.birkhoff_point(np.array([0.0, 0.0, 1.0]))


def test_lp_axis_points_stay_exact(lp4):
    """The curvature guard near coordinate planes must not move axis values."""
    e1 = np.array([1.0, 0.0, 0.0])
    assert lp4.gauge_value(e1) == 1.0
    assert np.allclose(lp4.gauge_gradient(e1), e1, atol=1e-15)
    assert np.allclose(lp4.birkhoff_point(e1), e1, atol=1e-14)
    H = lp4.gauge_hessian(np.array([1.0, 1e-12, 0.0]))
    assert np.all(np.isfinite(H))


def test_fd_jets_second_order():
    exact = mk.lp_norm(3.0)
    x = np.array([0.7, -1.1, 0.4])
    steps = np.array([4e-3, 2e-3, 1e-3])
    errs = []
    for h in steps:
        fd = mk.lp_norm(3.0, jet_source="fd", fd_step=float(h))
        errs.append(np.abs(fd.gauge_hessian(x) - exact.gauge_hessian(x)).max())
    assert convergence_order(steps, np.array(errs)) == pytest.approx(2.0, abs=0.2)


@pytest.mark.parametrize("build", [mk.euclidean_norm, lambda **kw: mk.ellipsoid_norm(ELLIPSOID_A, **kw),
                                   lambda **kw: mk.lp_norm(4.0, **kw)], ids=["euclidean", "ellipsoid", "lp4"])
def test_fd_jets_are_the_differences_of_the_value(build):
    # a built-in norm under jet_source "fd" differences its values: its
    # derivatives are numerics' stencils of that value at the norm's step
    fd, exact = build(jet_source="fd", fd_step=3e-5), build()
    X = _random_normals(12, 7) * np.linspace(0.3, 4.0, 12)[:, None]
    for value, gradient, hessian in ((exact.gauge_value_rows, fd.gauge_gradient_rows, fd.gauge_hessian_rows),
                                     (exact.dual_value_rows, fd.dual_gradient_rows, fd.dual_hessian_rows)):
        assert np.array_equal(gradient(X), fd_gradient_rows(value, X, fd.fd_step))
        assert np.array_equal(hessian(X), fd_hessian_rows(value, X, fd.fd_step))
    assert fd.dual_third(X[0]) is None and not fd.has_analytic_dual_jets


def test_jet_source_alone_selects_the_route_of_a_norm_with_full_jets(ellipsoid_std):
    """jet_source "fd" differences a norm whose jets carry their own derivatives,
    bit for bit as the constructor's "fd" norm: set by dataclasses.replace, or
    given to NormModel with the full lp(4) jets."""
    analytic, reference = mk.lp_norm(4.0), mk.lp_norm(4.0, jet_source="fd")
    replaced = dataclasses.replace(analytic, jet_source="fd")
    constructed = mk.NormModel("lp", analytic.gauge, analytic.dual, "fd")
    X = np.vstack([[0.3, -0.5, 0.8], _random_normals(12, 3) * np.linspace(0.4, 3.0, 12)[:, None]])
    s, t = (a.ravel() for a in np.meshgrid(np.linspace(0.4, 2.7, 5), np.linspace(0.1, 6.0, 5)))
    expected = mk.geometry_batch(reference, ellipsoid_std, s, t)
    for norm in (replaced, constructed):
        for method in ("gauge_gradient_rows", "gauge_hessian_rows", "dual_gradient_rows", "dual_hessian_rows"):
            assert np.array_equal(getattr(norm, method)(X), getattr(reference, method)(X)), method
        assert norm.dual_third(X[0]) is None and not norm.has_analytic_dual_jets
        for got, want in zip(norm.du_restricted_rows(X), reference.du_restricted_rows(X)):
            assert np.array_equal(got, want)
        batch = mk.geometry_batch(norm, ellipsoid_std, s, t)
        for name in (f.name for f in dataclasses.fields(batch)):
            assert np.array_equal(getattr(batch, name), getattr(expected, name)), name
        assert mk.minkowski_sphere(norm, 1.5).jet_source == "fd"
    assert not np.array_equal(analytic.dual_hessian(X[0]), reference.dual_hessian(X[0]))


def test_tangent_basis_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        E = tangent_basis(xi)
        assert np.allclose(E.T @ E, np.eye(2), atol=1e-12)
        assert np.abs(E.T @ xi).max() < 1e-12


def test_du_restricted_is_spd(lp4, ell_norm):
    rng = np.random.default_rng(5)
    for norm in (lp4, ell_norm):
        for _ in range(20):
            xi = rng.normal(size=3)
            xi /= np.linalg.norm(xi)
            E, M = norm.du_restricted(xi)
            assert np.allclose(M, M.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(M) > 0.0)
            assert np.abs(E.T @ xi).max() < 1e-12


def test_dupin_form_euclidean_is_restricted_identity(eu):
    xi = np.array([0.2, 0.5, -0.9])
    xi /= np.linalg.norm(xi)
    eta = eu.birkhoff_point(xi)
    E = tangent_basis(xi)
    X = E[:, 0]
    assert eu.dupin_form(eta, X, X) == pytest.approx(1.0, abs=1e-12)
    Y = 0.3 * E[:, 0] - 1.2 * E[:, 1]
    assert eu.dupin_form(eta, X + Y, X + Y) == pytest.approx(
        float((X + Y) @ (X + Y)), abs=1e-12)


def test_dupin_form_symmetric_positive(lp4):
    rng = np.random.default_rng(11)
    for _ in range(30):
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        eta = lp4.birkhoff_point(xi)
        E = tangent_basis(xi)
        X = E @ rng.normal(size=2)
        Y = E @ rng.normal(size=2)
        dxy = lp4.dupin_form(eta, X, Y)
        dyx = lp4.dupin_form(eta, Y, X)
        assert math.isclose(dxy, dyx, rel_tol=1e-10, abs_tol=1e-12)
        assert lp4.dupin_form(eta, X, X) > 0.0


def test_dupin_form_matches_fd_hessian_inverse(lp4):
    """Cross-check the restricted dual Hessian against a finite-difference one."""
    xi = np.ones(3) / math.sqrt(3.0)
    eta = lp4.birkhoff_point(xi)
    E = tangent_basis(xi)
    # step 1e-4 balances truncation against the 1/h^2 roundoff of an FD Hessian
    fd = mk.lp_norm(4.0, jet_source="fd", fd_step=1e-4)
    _, M_fd = fd.du_restricted(xi)
    rng = np.random.default_rng(2)
    X2 = rng.normal(size=2)
    X = E @ X2
    expected = float(X2 @ np.linalg.solve(M_fd, X2))
    assert lp4.dupin_form(eta, X, X) == pytest.approx(expected, rel=1e-5)


def test_norm_from_spec_families():
    assert mk.norm_from_spec({"family": "euclidean"}).family == "euclidean"
    assert mk.norm_from_spec({"family": "lp", "p": 4.0}).family == "lp"
    ell = mk.norm_from_spec({"family": "ellipsoid", "A": np.diag([1.0, 4.0, 9.0]).tolist()})
    assert ell.gauge_value(np.ones(3)) == pytest.approx(math.sqrt(14.0), abs=1e-12)
    with pytest.raises(mk.InvalidParameter):
        mk.norm_from_spec({"family": "polyhedral"})
    with pytest.raises(mk.InvalidParameter):
        mk.norm_from_spec({"family": "lp"})
    with pytest.raises(mk.InvalidParameter):
        mk.norm_from_spec({"family": "lp", "p": 4.0, "jet_source": "symbolic"})


# -- gauge-only norms: du in closed form from one gauge Hessian ---------------

ELLIPSOID_A = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])


def _lp4_gauge(x):
    return float(np.sum(np.abs(x) ** 4) ** 0.25)


def _ellipsoid_gauge(x):
    return float(np.sqrt(x @ ELLIPSOID_A @ x))


def _random_normals(n, seed):
    xi = np.random.default_rng(seed).normal(size=(n, 3))
    return xi / np.linalg.norm(xi, axis=1)[:, None]


def _near_axis_normals(n, seed):
    """n unit normals, row i with its component i % 3 equal to +-1e-3: each
    lies 1e-3 from a coordinate plane, next to an lp(4) axis circle."""
    rng = np.random.default_rng(seed)
    xi, i = rng.normal(size=(n, 3)), np.arange(n)
    xi[i, i % 3] = 0.0
    xi *= math.sqrt(1.0 - 1e-6) / np.linalg.norm(xi, axis=1)[:, None]
    xi[i, i % 3] = 1e-3 * rng.choice([-1.0, 1.0], n)
    return xi


RANDOM_NORMALS, NEAR_AXIS_NORMALS = _random_normals(40, 0), _near_axis_normals(40, 0)


@pytest.mark.parametrize("gauge, reference, tol, XI", [
    (_lp4_gauge, lambda: mk.lp_norm(4.0), 5e-7, RANDOM_NORMALS),
    (_ellipsoid_gauge, lambda: mk.ellipsoid_norm(ELLIPSOID_A), 5e-7, RANDOM_NORMALS),
    (mk.lp_norm(4.0).gauge, lambda: mk.lp_norm(4.0), 1e-9, RANDOM_NORMALS),
    # the central-difference floor of du next to an axis circle: its
    # truncation along e_i is about h^2 / (6 u_i^2), and u_i ~ 0.1 here;
    # 21 of the 40 rows read above 5e-7, at most 8.8e-7 (ROADMAP item 1)
    pytest.param(_lp4_gauge, lambda: mk.lp_norm(4.0), 5e-7, NEAR_AXIS_NORMALS,
                 marks=pytest.mark.xfail(strict=True, reason="FD du floor next to an lp(4) axis circle")),
    (_ellipsoid_gauge, lambda: mk.ellipsoid_norm(ELLIPSOID_A), 5e-7, NEAR_AXIS_NORMALS),
    (mk.lp_norm(4.0).gauge, lambda: mk.lp_norm(4.0), 1e-9, NEAR_AXIS_NORMALS),
], ids=["lp4", "ellipsoid", "lp4-gauge-jet", "lp4-near-axis", "ellipsoid-near-axis", "lp4-gauge-jet-near-axis"])
def test_gauge_only_du_matches_the_analytic_norm(gauge, reference, tol, XI):
    """du of a norm without dual jets, from its gauge Hessian at u, agrees
    with the analytic dual Hessian over 40 normals (the differenced Newton
    solves it replaces were off by 1.7e-6 on lp(4) and 5.9e-7 on the
    ellipsoid), at random and 1e-3 from the coordinate planes. A gauge jet
    with derivatives is differenced nowhere."""
    norm, ref = mk.custom_norm(gauge), reference()
    _, M = norm.du_restricted_rows(XI)
    _, M_ref = ref.du_restricted_rows(XI)
    err = np.abs(M - M_ref).max(axis=(1, 2)) / np.abs(M_ref).max(axis=(1, 2))
    assert err.max() <= tol


def test_gauge_only_dual_hessian_is_symmetric_with_xi_in_its_kernel():
    norm = mk.custom_norm(_lp4_gauge)
    for xi in _random_normals(5, 3) * np.array([[0.5], [1.0], [2.0], [3.0], [0.7]]):
        H = norm.dual_hessian(xi)
        scale = np.abs(H).max()
        assert np.abs(H - H.T).max() <= 1e-14 * scale
        assert np.abs(H @ xi).max() <= 1e-14 * scale * np.linalg.norm(xi)
    # degree -1 homogeneity of Hess h_B
    xi = _random_normals(1, 4)[0]
    assert np.allclose(norm.dual_hessian(2.5 * xi), norm.dual_hessian(xi) / 2.5, rtol=0, atol=1e-13)


def test_gauge_only_birkhoff_points_are_smooth_over_the_chart_stencil():
    """The normal part of u is smooth at a 1e-5 stencil in the sphere's angles:
    every solve lands on ∂B, so Newton's stopping point leaves no jitter."""
    norm, ref = mk.custom_norm(_lp4_gauge), mk.lp_norm(4.0)
    rng = np.random.default_rng(1)
    s = rng.uniform(0.3, np.pi - 0.3, 60)
    t = rng.uniform(0.0, 2.0 * np.pi, 60)
    h = 1e-5
    for ds, dt in ((h, 0.0), (0.0, h)):
        S = np.stack([s + ds, s, s - ds], axis=1).ravel()
        T = np.stack([t + dt, t, t - dt], axis=1).ravel()
        XI = _sphere_angle_jets(S, T)[0]
        d = np.einsum("ij,ij->i", norm.birkhoff_point_rows(XI) - ref.birkhoff_point_rows(XI),
                      XI).reshape(-1, 3)
        assert np.abs(d[:, 0] - 2.0 * d[:, 1] + d[:, 2]).max() / h**2 <= 1e-4


def _count_solves(monkeypatch):
    """A counter of the rows NormModel solves by Newton."""
    solves = [0]
    newton_points = mk.NormModel._newton_points

    def counted_solve(self, XI):
        solves[0] += len(XI)
        return newton_points(self, XI)

    monkeypatch.setattr(mk.NormModel, "_newton_points", counted_solve)
    return solves


def test_gauge_only_work_counts(monkeypatch):
    """A Newton solve stops at the floor of its FD gradients and evaluates no
    gauge point twice, and one dual Hessian row costs one solve (it took 6,
    and 1,304 gauge values per solve; then 152, and 111 with 4-variable KKT
    steps before the solve became a 2-variable minimisation)."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return _lp4_gauge(x)

    norm = mk.custom_norm(counted)
    XI = _random_normals(40, 0)
    for xi in XI:
        norm.birkhoff_point(xi)
    assert calls[0] == 2254  # 56.35 gauge values per solve

    solves = _count_solves(monkeypatch)
    norm.dual_hessian(XI[0])
    assert solves[0] == 1


def test_gauge_only_geometry_solves_each_normal_once(monkeypatch, ellipsoid_std):
    """η and du of a point share one Newton solve, and equal what
    birkhoff_point_rows and du_restricted_rows give."""
    norm = mk.custom_norm(_lp4_gauge)
    s, t = np.linspace(0.4, 2.7, 5), np.linspace(0.1, 6.0, 5)
    solves = _count_solves(monkeypatch)
    batch = mk.geometry_batch(norm, ellipsoid_std, s, t)
    assert solves[0] == len(s)
    eta, E, M = norm.birkhoff_du_rows(batch.xi)
    assert np.array_equal(eta, norm.birkhoff_point_rows(batch.xi))
    assert np.array_equal(eta, batch.eta)
    E_ref, M_ref = norm.du_restricted_rows(batch.xi)
    assert np.array_equal(E, E_ref)
    assert np.array_equal(M, M_ref)


def _ellipsoid_grid_40():
    """The chart points of a 40x40 grid on ellipsoid(1, 1.3, 0.8)."""
    s, t = np.meshgrid(np.linspace(0.3, np.pi - 0.3, 40), np.linspace(0.05, 2.0 * np.pi - 0.05, 40),
                       indexing="ij")
    return s.ravel(), t.ravel()


@pytest.mark.parametrize("gauge", [_lp4_gauge, _ellipsoid_gauge], ids=["lp4", "ellipsoid"])
def test_gauge_only_dual_queries_read_the_geometry_route(gauge):
    """grad h_B, u and point_geometry's eta of a gauge-only norm agree bit for
    bit over a 40x40 grid, and so do du_restricted and M_du. (When grad h_B
    and du solved u again from a xi normalized once more, 5 to 6 rows of
    1,600 differed, by up to 6.0e-12 in u and 1.5e-8 relative in du.)"""
    norm = mk.custom_norm(gauge)
    batch = mk.geometry_batch(norm, mk.ellipsoid(1.0, 1.3, 0.8), *_ellipsoid_grid_40())
    assert not batch.flipped_eta.any()
    assert np.array_equal(norm.dual_gradient_rows(batch.xi), batch.eta)
    assert np.array_equal(norm.birkhoff_point_rows(batch.xi), batch.eta)
    E, M = norm.du_restricted_rows(batch.xi)
    assert np.array_equal(E, batch.E)
    assert np.array_equal(M, batch.M_du)


def test_gauge_only_dual_hessian_is_the_restricted_du_over_the_length():
    """Hess h_B(c xi) = E M E^T / c, with (E, M) of birkhoff_du_rows(xi), for
    unit rows xi and scales c that leave their normalization unchanged."""
    norm = mk.custom_norm(_ellipsoid_gauge)
    XI = _random_normals(40, 12)
    XI = XI[_norm_rows(XI) == 1.0][:8]
    _, E, M = norm.birkhoff_du_rows(XI)
    for c in (0.5, 1.0, 4.0):
        assert np.array_equal(norm.dual_hessian_rows(c * XI), E @ M @ np.swapaxes(E, 1, 2) / c)


def test_a_dual_given_by_its_value_only_is_differenced():
    """custom_norm(gauge, dual=value-only jet) takes grad h_B and Hess h_B by
    central differences of the dual value, and matches the ellipsoid norm to
    the FD error: about 4e-11 in u and 6e-6 relative in du and the curvatures."""
    inv = np.linalg.inv(ELLIPSOID_A)
    norm = mk.custom_norm(_ellipsoid_gauge, dual=mk.ScalarJet(lambda xi: float(np.sqrt(xi @ inv @ xi))))
    ref = mk.ellipsoid_norm(ELLIPSOID_A)
    XI = _random_normals(20, 5) * np.linspace(0.5, 3.0, 20)[:, None]
    for xi in XI:
        assert np.abs(norm.birkhoff_point(xi) - ref.birkhoff_point(xi)).max() <= 1e-9
        M, M_ref = norm.du_restricted(xi)[1], ref.du_restricted(xi)[1]
        assert np.abs(M - M_ref).max() <= 5e-5 * np.abs(M_ref).max()
    surface = mk.ellipsoid(1.0, 1.3, 0.8)
    s, t = (a.ravel() for a in np.meshgrid(np.linspace(0.3, np.pi - 0.3, 8),
                                            np.linspace(0.1, 2.0 * np.pi - 0.1, 8), indexing="ij"))
    got, want = mk.geometry_batch(norm, surface, s, t), mk.geometry_batch(ref, surface, s, t)
    assert np.abs(got.eta - want.eta).max() <= 1e-9
    for name in ("lambda1", "lambda2", "K", "H"):
        a, b = getattr(got, name), getattr(want, name)
        assert (np.abs(a - b) / np.maximum(1.0, np.abs(b))).max() <= 5e-5, name


# -- the lockstep Newton solve ----------------------------------------------

def _solve_one_at_a_time(norm, XI):
    """u at each row of XI by the lockstep solve on a batch of one, row after row;
    the first exception instead, if any."""
    try:
        return np.array([norm._newton_points(xi[None])[0] for xi in XI])
    except Exception as exc:
        return exc


def _stages(monkeypatch):
    """Per-row counts of the lockstep solve's residual and Hessian stages, and
    the numbers of their calls."""
    counts = {"residual": 0, "hessian": 0, "residual calls": 0, "hessian calls": 0}
    for name, stage in (("residual", "_plane_gradient_rows"), ("hessian", "_plane_hessian_rows")):
        def counted(self, *args, _fn=getattr(mk.NormModel, stage), _name=name):
            counts[_name] += len(args[0])
            counts[f"{_name} calls"] += 1
            return _fn(self, *args)

        monkeypatch.setattr(mk.NormModel, stage, counted)
    return counts


def test_lockstep_newton_work_is_pinned(monkeypatch):
    """One lockstep of 40 rows takes the 2,254 gauge values of their 40 solves
    of one row, in 17 gradient stages (298 rows of 5 plane-stencil values)
    and 6 Hessian stages (191 rows of 4 cross points). A stage of no row
    costs no gauge value, so only the numbers of calls show the trials that
    backtracking rows no longer need."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return _lp4_gauge(x)

    stages = _stages(monkeypatch)
    mk.custom_norm(counted)._newton_points(_random_normals(40, 0))
    assert calls[0] == 2254
    assert stages == {"residual": 298, "hessian": 191, "residual calls": 17, "hessian calls": 6}


def test_an_integral_float_newton_max_iter_solves_as_its_int():
    """newton_max_iter=50.0 is the int 50 (as a float it stopped the solve with
    a TypeError), and 2.5 is refused when the config is built."""
    XI = _random_normals(5, 3)
    config = mk.NumericsConfig(newton_max_iter=50.0)
    assert config.newton_max_iter == 50 and type(config.newton_max_iter) is int
    assert np.array_equal(mk.custom_norm(_lp4_gauge, config=config).birkhoff_point_rows(XI),
                          mk.custom_norm(_lp4_gauge).birkhoff_point_rows(XI))
    with pytest.raises(mk.InvalidParameter, match="newton_max_iter must be an integer, got 2.5"):
        mk.NumericsConfig(newton_max_iter=2.5)


def test_lockstep_newton_equals_solves_of_one_row(monkeypatch):
    """Rows of one batch that backtrack and converge after different numbers
    of iterations each land bit for bit where their own solve lands, under
    FD gauges and a gauge jet with analytic gradient and Hessian."""
    XI = _random_normals(12, 7)
    XI[0] = [1.0, 0.0, 0.0]
    stages = _stages(monkeypatch)
    iterations, trials = [], []
    for gauge in (_lp4_gauge, _ellipsoid_gauge, mk.lp_norm(4.0).gauge):
        norm = mk.custom_norm(gauge)
        for xi in XI:
            stages.update(residual=0, hessian=0)
            norm._newton_points(xi[None])
            iterations.append(stages["hessian"])
            trials.append(stages["residual"] - 1)
        assert np.array_equal(norm._newton_points(XI), _solve_one_at_a_time(norm, XI))
        assert np.array_equal(norm.birkhoff_point_rows(XI), [norm.birkhoff_point(xi) for xi in XI])
    assert len(set(iterations)) > 2
    assert any(k > i for k, i in zip(trials, iterations))


def _stencil_point(xi, offset):
    """The gauge stencil point xi + h E offset of the solve of xi, seeded at
    xi on the plane x . xi = 1: offset is in the plane's coordinates, E is
    tangent_basis(xi) and h the relative FD step at the seed."""
    h = 1e-5 * max(1.0, float(np.linalg.norm(xi)))
    return xi + h * (tangent_basis(xi) @ np.asarray(offset, dtype=float))


def _failing_at(points, value=None):
    """The lp(4) gauge, raising ValueError (or returning value) at the points."""
    def gauge(x):
        if any(np.array_equal(x, p) for p in points):
            if value is None:
                raise ValueError(f"no gauge at {x!r}")
            return value
        return _lp4_gauge(x)

    return gauge


# unit rows that normalizing leaves bitwise unchanged, so the solves' seeds
# are the points _stencil_point starts from
XI_FAIL = np.array([xi for xi in _random_normals(40, 11) if np.array_equal(xi / np.linalg.norm(xi), xi)][:6])
E0, E1 = np.eye(2)  # the plane coordinates' axes


@pytest.mark.parametrize("norm, error", [
    # row 1 fails at a cross point of its first Hessian, row 4 earlier, at
    # its seed's gradient stencil: the per-row loop meets row 1's first
    (mk.custom_norm(_failing_at([_stencil_point(XI_FAIL[1], E0 + E1), _stencil_point(XI_FAIL[4], E0)])),
     mk.EvaluationFailure),
    # the gauge's own exception at a seed escapes as it is
    (mk.custom_norm(_failing_at([_stencil_point(XI_FAIL[2], 0.0 * E0)])), ValueError),
    (mk.custom_norm(_failing_at([_stencil_point(XI_FAIL[3], -E1)], float("nan"))), mk.EvaluationFailure),
    (mk.custom_norm(_failing_at([_stencil_point(XI_FAIL[3], 0.0 * E0)], float("nan"))),
     mk.EvaluationFailure),
    (mk.custom_norm(_lp4_gauge, config=mk.NumericsConfig(newton_max_iter=1)), mk.NewtonDivergence),
    (mk.custom_norm(_lp4_gauge, allow_newton=False), mk.MissingDualJets),
], ids=["raises-in-a-later-stage", "raises-at-a-seed", "nan-at-a-stencil-point", "nan-at-a-seed",
        "newton-max-iter-1", "newton-disabled"])
def test_lockstep_newton_raises_what_the_row_loop_raises_first(norm, error):
    expected = _solve_one_at_a_time(norm, XI_FAIL)
    assert type(expected) is error
    with pytest.raises(error) as got:
        norm._newton_points(XI_FAIL)
    assert str(got.value) == str(expected)
    with pytest.raises(error) as got:
        norm.birkhoff_point_rows(XI_FAIL)
    assert str(got.value) == str(expected)


@pytest.mark.parametrize("t", [0.0])
def test_a_failed_newton_solve_of_a_geometry_names_its_chart_point(t):
    # t = 0 lies on an lp(4) axis circle: along the plane's direction e_y the
    # FD gauge values are flat to the last bit, so the plane Hessian is
    # exactly singular
    norm, surface = mk.custom_norm(_lp4_gauge), mk.ellipsoid(1.0, 1.3, 0.8)
    xi = mk.point_geometry(mk.euclidean_norm(), surface, 0.8, t).xi
    with pytest.raises(mk.NewtonDivergence) as solve:
        norm.birkhoff_du_rows(xi[None])
    assert solve.value.location is None
    with pytest.raises(mk.NewtonDivergence) as got:
        mk.point_geometry(norm, surface, 0.8, t)
    assert str(got.value) == f"{solve.value} at (s,t)=(0.8, {t})"
    assert got.value.location == (0.8, t)
    # a batch names its first failing point
    with pytest.raises(mk.NewtonDivergence) as got:
        mk.geometry_batch(norm, surface, [0.8, 2.0, 0.8], [1.0, t, t])
    assert got.value.location == (2.0, t)
    assert str(got.value).startswith("singular gauge Hessian on the plane x.xi = 1 at x=")


@pytest.mark.parametrize("t, eta_tol, curvature_tol", [(1e-6, 5e-8, 1e-4), (1e-4, 1e-8, 1e-5), (1e-3, 1e-9, 2e-6)],
                         ids=["1e-06", "0.0001", "0.001"])
def test_a_gauge_only_geometry_next_to_an_lp4_axis_circle_matches_the_built_in(t, eta_tol, curvature_tol):
    """Next to the axis circle t = 0 the plane minimisation solves u (the KKT
    system of the 4-variable solve was singular at t = 1e-6 and 1e-4), and
    eta and the curvatures agree with lp_norm(4.0). The gaps grow towards
    the circle as the FD truncation of du does: measured 2.2e-8, 3.7e-9,
    4.4e-10 in eta and 3.0e-5, 4.7e-6, 6.1e-7 relative in lambda2 (2,660.8,
    123.5, 26.6)."""
    norm, ref, surface = mk.custom_norm(_lp4_gauge), mk.lp_norm(4.0), mk.ellipsoid(1.0, 1.3, 0.8)
    got, want = mk.point_geometry(norm, surface, 0.8, t), mk.point_geometry(ref, surface, 0.8, t)
    assert np.abs(got.eta - want.eta).max() <= eta_tol
    for name in ("lambda1", "lambda2", "K", "H"):
        a, b = getattr(got, name), getattr(want, name)
        assert abs(a - b) / max(1.0, abs(b)) <= curvature_tol, name
