from __future__ import annotations

import math

import numpy as np
import pytest

import minksurf as mk
from minksurf.blaschke import _volume_forms

from oracles import ellipsoid_gaussian


def test_euclidean_sphere_ratio_is_radius(eu):
    # omega = r^2 |d(angle chart)| vs omega_h = r |...|: the normalized normal
    # field of a round sphere of radius r is a Blaschke structure only at r = 1
    for r in (0.5, 1.0, 3.0):
        surf = mk.euclidean_sphere(r)
        for s, t in [(0.7, 0.3), (1.9, 4.1)]:
            bs = mk.blaschke_residual(eu, surf, s, t)
            assert bs.ratio == pytest.approx(r, rel=1e-10)


def test_euclidean_unit_sphere_blaschke_and_affine_normal(eu):
    surf = mk.euclidean_sphere(1.0)
    for s, t in [(0.6, 0.9), (1.4, 2.7), (2.4, 5.0)]:
        bs = mk.blaschke_sample(eu, surf, s, t)
        assert abs(bs.ratio - 1.0) < 1e-8
        assert abs(bs.residual) < 1e-8
        # affine normal of the unit sphere is the position = the normal itself
        assert bs.discrepancy < 1e-6
        pg = mk.point_geometry(eu, surf, s, t)
        assert np.abs(bs.affine_normal - pg.eta).max() < 1e-6


def test_ratio_is_basis_invariant(lp4, ellipsoid_std):
    rng = np.random.default_rng(23)
    s, t = 0.8, 2.4
    base = mk.blaschke_residual(lp4, ellipsoid_std, s, t)
    for _ in range(5):
        L = rng.normal(size=(2, 2))
        if abs(np.linalg.det(L)) < 0.1:
            continue
        rep = mk.reparametrize_linear(ellipsoid_std, L)
        st_new = np.linalg.solve(L, np.array([s, t]))
        bs = mk.blaschke_residual(lp4, rep, float(st_new[0]), float(st_new[1]))
        assert bs.ratio == pytest.approx(base.ratio, rel=1e-8)
        # omega itself scales by |det L| (the normal follows the chart
        # handedness, so eta flips together with the chart volume): not
        # invariant, which is why the normalized ratio is reported everywhere
        assert bs.omega == pytest.approx(
            abs(np.linalg.det(L)) * base.omega, rel=1e-8)


def test_volume_form_scaling_exponents(lp4, ellipsoid_std):
    """omega scales like lambda^2 and omega_h like lambda^1 under x -> lambda x,
    so the ratio can be tuned to 1 at exactly one scale."""
    s, t = 0.8, 2.4
    lams = np.array([1.0, 2.0, 4.0])
    omegas, omega_hs = [], []
    for lam in lams:
        surf = mk.scale_surface(ellipsoid_std, float(lam))
        bs = mk.blaschke_residual(lp4, surf, s, t)
        omegas.append(abs(bs.omega))
        omega_hs.append(bs.omega_h)
    slope_omega = np.polyfit(np.log(lams), np.log(omegas), 1)[0]
    slope_h = np.polyfit(np.log(lams), np.log(omega_hs), 1)[0]
    assert slope_omega == pytest.approx(2.0, abs=1e-9)
    assert slope_h == pytest.approx(1.0, abs=1e-9)


def test_euclidean_gaussian_matches_ellipsoid_oracle(ellipsoid_std):
    for s, t in [(0.5, 0.2), (1.2, 3.3), (2.5, 5.1)]:
        p = ellipsoid_std.position(s, t)
        assert mk.euclidean_gaussian(ellipsoid_std, s, t) == pytest.approx(
            ellipsoid_gaussian(1.0, 1.3, 0.8, p), rel=1e-10)


# An ellipsoid centred at 0 is a proper affine sphere: its affine normal is
# (abc)^(-1/2) times the position. Analytic jets read it at the floor of the
# K_e^(1/4) stencil (over 3,000 random points of each ellipsoid below: at
# most 1.6e-8, median at most 4.3e-10); FD surface jets difference an FD
# Gaussian curvature, whose roundoff the 1e-5 stencil amplifies (at most
# 0.18, median at most 0.014). The tangential term with the wrong sign
# misses by up to 1 on the first ellipsoid and 2 on the second.
AFFINE_SPHERE_BOUNDS = {"analytic": (5e-8, 1e-9), "fd": (0.3, 0.03)}


@pytest.mark.parametrize("jet_source", sorted(AFFINE_SPHERE_BOUNDS))
@pytest.mark.parametrize("axes", [(1.0, 1.3, 0.8), (2.0, 0.7, 1.1)])
def test_affine_normal_of_an_ellipsoid_is_its_scaled_position(axes, jet_source):
    a, b, c = axes
    surf = mk.ellipsoid(a, b, c, jet_source=jet_source)
    rng = np.random.default_rng(31)
    errors = []
    for s, t in zip(rng.uniform(0.3, math.pi - 0.3, 100), rng.uniform(0.0, 2 * math.pi, 100)):
        exact = (a * b * c) ** -0.5 * surf.position(s, t)
        errors.append(np.linalg.norm(mk.affine_normal(surf, s, t) - exact))
    worst, typical = AFFINE_SPHERE_BOUNDS[jet_source]
    assert max(errors) <= worst
    assert np.median(errors) <= typical


# The ellipsoid norm of tests/test_surfaces.py's A_NORM.
ELLIPSOID_NORM_A = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])


# norm, and the bound on the relative gap: over all points, or (lp) where min|xi_i| > 1e-2
CROSS_NORM_CASES = {
    "euclidean": (lambda: mk.euclidean_norm(), 1e-7, 0.0),
    "ellipsoid": (lambda: mk.ellipsoid_norm(ELLIPSOID_NORM_A), 1e-7, 0.0),
    "lp3": (lambda: mk.lp_norm(3.0), 2e-6, 1e-2),
    "lp4": (lambda: mk.lp_norm(4.0), 2e-6, 1e-2),
    "lp4-fd": (lambda: mk.lp_norm(4.0, jet_source="fd"), 2e-6, 1e-2),
}


@pytest.mark.parametrize("case", CROSS_NORM_CASES.values(), ids=CROSS_NORM_CASES.keys())
def test_the_affine_normal_through_each_norms_eta_is_the_euclidean_one(case, ellipsoid_std):
    """The affine normal does not depend on the norm. Through the Birkhoff
    normal eta it is Y = phi eta - P h^-1 grad phi, with phi = (omega_h /
    |omega|)^(1/2) (blaschke._volume_forms), h = h_mat, P = [f_s, f_t] and
    grad phi by central differences at the absolute chart step 1e-4; it must
    equal mk.affine_normal, the Euclidean route, at 300 random points of
    ellipsoid(1, 1.3, 0.8). Measured: 4.8e-9 (Euclidean), 1.5e-8
    (ellipsoid norm), 8.1e-7, 1.5e-6 and 1.5e-6 (lp(3), lp(4), lp(4) FD)
    where min|xi_i| > 1e-2; next to the lp axis circles the eta route
    reaches 2.6e-5 (ROADMAP item 1(b)). |eta - Y| reaches 0.49 to 0.74, so
    the comparison is not vacuous."""
    make, bound, axis_distance = case
    norm, step = make(), 1e-4
    rng = np.random.default_rng(18)
    s, t = rng.uniform(0.35, math.pi - 0.35, 300), rng.uniform(0.0, 2 * math.pi, 300)

    def phi(s, t):
        gb = mk.geometry_batch(norm, ellipsoid_std, s, t)
        omega, omega_h, degenerate = _volume_forms(gb)
        assert not degenerate.any()
        return gb, np.sqrt(omega_h / np.abs(omega))

    gb, phi0 = phi(s, t)
    grad = np.stack([phi(s + step, t)[1] - phi(s - step, t)[1],
                     phi(s, t + step)[1] - phi(s, t - step)[1]], axis=-1) / (2.0 * step)
    Y = phi0[:, None] * gb.eta - gb.ambient(np.linalg.solve(gb.h_mat, grad[:, :, None])[:, :, 0])
    want = np.array([mk.affine_normal(ellipsoid_std, a, b) for a, b in zip(s, t)])
    gap = np.linalg.norm(Y - want, axis=1) / np.linalg.norm(want, axis=1)
    graded = np.abs(gb.xi).min(axis=1) > axis_distance
    assert graded.sum() >= 280
    assert gap[graded].max() <= bound
    assert np.linalg.norm(gb.eta - Y, axis=1).max() >= 0.4


def test_affine_normal_rejects_hyperbolic_point():
    sad = mk.saddle()
    with pytest.raises(mk.NonElliptic):
        mk.affine_normal(sad, 0.0, 0.0)


def test_nonsmooth_norm_unit_sphere_is_not_blaschke(lp4):
    """The quartic-norm unit sphere: away from the degenerate circles the
    normalized normal fails the Blaschke condition by a definite margin, and
    near them the ratio blows up."""
    ms = mk.minkowski_sphere(lp4, 1.0)
    bs = mk.blaschke_sample(lp4, ms, 0.8, 2.4)
    assert abs(bs.ratio - 1.0) > 0.01
    assert bs.discrepancy > 0.01
    # worst case over the acceptance grid, frozen from a scan: ratios reach
    # hundreds where the unit sphere's Euclidean curvature degenerates
    worst_ratio = 0.0
    worst_disc = 0.0
    for s in np.linspace(0.3, math.pi - 0.3, 10):
        for t in np.linspace(0.0, 2 * math.pi, 10, endpoint=False):
            try:
                b = mk.blaschke_sample(lp4, ms, float(s), float(t))
            except (mk.DegenerateH, mk.NonElliptic):
                continue
            worst_ratio = max(worst_ratio, abs(b.ratio - 1.0))
            worst_disc = max(worst_disc, b.discrepancy)
    assert worst_ratio > 1.0
    assert worst_disc > 0.1


def test_planar_circle_is_exact_solution():
    out = mk.planar_support_check(lambda th: 1.0, n=512)
    assert out["r1_sup"] < 1e-12
    assert out["r2_sup"] < 1e-12


def test_planar_scaled_circle_fails():
    # g = c solves g'' + g = g^{-3} only at c = 1
    out = mk.planar_support_check(lambda th: 2.0, n=512)
    assert out["r2_sup"] == pytest.approx(2.0 - 2.0 ** -3, abs=1e-12)


def test_planar_ellipse_residuals():
    g = mk.ellipse_support(1.0, 1.5)
    out = mk.planar_support_check(g, n=2048)
    # frozen sup-norms for the (1, 1.5) ellipse: r1 peaks where the curvature
    # k = ab/g^3 ... the residual k - g^3 has sup 1.875 and r2 has sup 1.25
    assert out["r1_sup"] > 0.1
    assert out["r2_sup"] > 0.1
    assert out["r1_sup"] == pytest.approx(1.875, abs=5e-3)
    assert out["r2_sup"] == pytest.approx(1.25, abs=5e-3)
    # the two residual forms vanish together: r2 = -r1 / (k_e g^3), so the
    # signs are opposite pointwise and the zero sets coincide
    gs = np.array([g(th) for th in out["thetas"]])
    k_arr = out["r1"] + gs ** 3
    assert np.all(out["r1"] * out["r2"] <= 1e-12)
    assert np.abs(out["r2"] + out["r1"] / (k_arr * gs ** 3)).max() < 1e-9


def test_planar_residuals_share_zero_set():
    # translated unit circle: g = 1 + 0.3 cos(theta) has curvature exactly 1,
    # so r1 = 1 - g^3 crosses zero transversally where g = 1 — and r2 must
    # cross between exactly the same sample pairs (n not divisible by 4 keeps
    # the zeros off the grid)
    out = mk.planar_support_check(lambda th: 1.0 + 0.3 * math.cos(th), n=1026)
    s1 = np.sign(out["r1"])
    s2 = np.sign(out["r2"])
    flips1 = set(np.nonzero(s1[:-1] * s1[1:] < 0)[0].tolist())
    flips2 = set(np.nonzero(s2[:-1] * s2[1:] < 0)[0].tolist())
    assert flips1 == flips2
    assert len(flips1) == 2


def test_spectral_derivative_exact_on_trig_polynomials():
    n = 64
    th = 2 * np.pi * np.arange(n) / n
    g = 1.0 + 0.3 * np.cos(2 * th) - 0.2 * np.sin(3 * th)
    g2 = -1.2 * np.cos(2 * th) + 1.8 * np.sin(3 * th)
    assert np.abs(mk.spectral_second_derivative(g) - g2).max() < 1e-12


def test_nonconvex_support_rejected():
    with pytest.raises(mk.NonConvexCurve):
        mk.planar_support_check(lambda th: 1.0 + 0.5 * math.cos(3 * th), n=256)
    with pytest.raises(mk.NonConvexCurve):
        mk.planar_support_check(lambda th: math.cos(th), n=256)  # not positive


def test_support_csv_round_trip(tmp_path):
    n = 16
    th = 2 * np.pi * np.arange(n) / n
    g = 1.0 + 0.1 * np.cos(th) ** 2
    path = tmp_path / "support.csv"
    lines = ["# support samples", "theta,g"]
    lines += [f"{th[i]:.17g},{g[i]:.17g}" for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    loaded = mk.support_from_csv(path)
    assert np.abs(loaded - g).max() == 0.0


def test_support_csv_skips_one_header_row_only(tmp_path):
    # before, every non-numeric row ahead of the first number was skipped, so
    # these three rows read as headers and the 8 samples passed
    th = 2 * np.pi * np.arange(8) / 8
    data = [f"{x:.17g},1.0" for x in th]
    path = tmp_path / "support.csv"
    path.write_text("\n".join(["theta,g", "not,numbers", "x,y", *data]) + "\n")
    with pytest.raises(mk.ConfigError, match=r"^non-numeric support CSV row \['not', 'numbers'\]$"):
        mk.support_from_csv(path)
    # a header whose theta cell is numeric is skipped whole, not half read
    path.write_text("\n".join(["# comment", "", "0,g", *data]) + "\n")
    assert mk.support_from_csv(path).tolist() == [1.0] * 8


def test_support_csv_requires_uniform_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n0.5,1.0\n1.0,1.0\n2.0,1.0\n")
    with pytest.raises(mk.ConfigError):
        mk.support_from_csv(path)
    short = tmp_path / "short.csv"
    short.write_text("0.0,1.0\n")
    with pytest.raises(mk.ConfigError):
        mk.support_from_csv(short)
