from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fd_jet_by_formulas

import minksurf as mk
import minksurf.surfaces
from minksurf.numerics import _norm_rows, convergence_order
from minksurf.surfaces import SurfacePatch, _sphere_angle_jets, evaluate_jet


def fd_clone(surface: SurfacePatch, step: float = 1e-5) -> SurfacePatch:
    return SurfacePatch(
        name=surface.name, position=surface.position, jet=None,
        domain=surface.domain, periodic=surface.periodic,
        orientation=surface.orientation, jet_source="fd", fd_step=step,
        params=surface.params)


def jet_gap(surface: SurfacePatch, s: float, t: float, step: float) -> float:
    exact = evaluate_jet(surface, s, t)
    approx = evaluate_jet(fd_clone(surface, step), s, t)
    return max(np.abs(getattr(exact, f) - getattr(approx, f)).max()
               for f in ("f", "f_s", "f_t", "f_ss", "f_st", "f_tt"))


def test_unit_sphere_equator_jet():
    sph = mk.euclidean_sphere(1.0)
    jet = evaluate_jet(sph, math.pi / 2, 0.0)
    assert np.allclose(jet.f, [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(jet.f_s, [0.0, 0.0, -1.0], atol=1e-15)
    assert np.allclose(jet.f_t, [0.0, 1.0, 0.0], atol=1e-15)


def test_saddle_origin_jet():
    sad = mk.saddle(1.0)
    jet = evaluate_jet(sad, 0.0, 0.0)
    assert np.allclose(jet.f, 0.0, atol=1e-15)
    assert np.allclose(jet.f_s, [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(jet.f_t, [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(jet.f_ss, [0.0, 0.0, 2.0], atol=1e-15)
    assert np.allclose(jet.f_tt, [0.0, 0.0, -2.0], atol=1e-15)
    assert np.allclose(jet.f_st, 0.0, atol=1e-15)


def test_periodic_wrap_and_domain():
    tor = mk.torus(2.0, 0.7)
    j1 = evaluate_jet(tor, 0.3, 0.4)
    j2 = evaluate_jet(tor, 0.3 + 2 * math.pi, 0.4 - 2 * math.pi)
    assert np.allclose(j1.f, j2.f, atol=1e-12)
    cat = mk.catenoid(1.0)
    with pytest.raises(mk.OutOfDomain):
        evaluate_jet(cat, 5.0, 0.0)


def test_degenerate_jet_at_pole():
    sph = mk.euclidean_sphere(1.0)
    with pytest.raises(mk.DegenerateJet):
        evaluate_jet(sph, 0.0, 0.0)


@given(s=st.floats(min_value=0.3, max_value=2.8),
       t=st.floats(min_value=0.0, max_value=6.28))
@settings(max_examples=25, deadline=None)
def test_fd_jets_match_analytic_sphere(s, t):
    # step 1e-4: truncation ~1e-8 dominates the 1e-8 roundoff floor of an
    # FD second derivative; 1e-5 would sit at the 1e-6 roundoff floor instead
    assert jet_gap(mk.ellipsoid(1.0, 1.3, 0.8), s, t, 1e-4) < 1e-6


def test_fd_jets_match_analytic_families():
    cases = [
        (mk.euclidean_sphere(2.0), 0.9, 1.7),
        (mk.torus(2.0, 0.7), 2.1, 0.6),
        (mk.catenoid(1.0), 0.5, 2.2),
        (mk.saddle(0.8), 0.2, -0.4),
    ]
    for surf, s, t in cases:
        assert jet_gap(surf, s, t, 1e-4) < 1e-6, surf.name


def test_fd_jets_second_order():
    surf = mk.ellipsoid(1.0, 1.3, 0.8)
    steps = np.array([4e-3, 2e-3, 1e-3])
    errs = np.array([jet_gap(surf, 0.8, 2.4, float(h)) for h in steps])
    assert convergence_order(steps, errs) == pytest.approx(2.0, abs=0.1)


def test_minkowski_sphere_gauge_constant(lp4):
    center = np.array([0.1, -0.2, 0.3])
    ms = mk.minkowski_sphere(lp4, rho=2.0, center=center)
    for s, t in mk.grid_points(ms, 7, 7):
        f = ms.position(s, t)
        assert abs(lp4.gauge_value(f - center) - 2.0) < 1e-12


def test_minkowski_sphere_euclidean_is_round():
    eu = mk.euclidean_norm()
    ms = mk.minkowski_sphere(eu, rho=1.0)
    sph = mk.euclidean_sphere(1.0)
    for s, t in [(0.4, 0.9), (1.7, 3.3), (2.6, 5.1)]:
        assert np.allclose(ms.position(s, t), sph.position(s, t), atol=1e-13)


def test_minkowski_sphere_normal_is_chart_angle(lp4):
    """The Euclidean normal at f(s,t) is the spherical direction used to build it."""
    ms = mk.minkowski_sphere(lp4, rho=1.0)
    for s, t in [(0.5, 0.3), (1.2, 2.0), (2.3, 4.4)]:
        jet = evaluate_jet(ms, s, t)
        n = np.cross(jet.f_s, jet.f_t)
        n /= np.linalg.norm(n)
        xi = np.array([math.sin(s) * math.cos(t), math.sin(s) * math.sin(t), math.cos(s)])
        assert np.linalg.norm(n - xi) < 1e-10


def test_minkowski_sphere_analytic_jet_matches_fd(lp4, ell_norm):
    for norm in (lp4, ell_norm):
        ms = mk.minkowski_sphere(norm, rho=1.5)
        assert ms.jet_source == "analytic"
        assert jet_gap(ms, 0.9, 2.1, 1e-4) < 1e-6


def test_minkowski_sphere_custom_norm_falls_back_to_fd():
    fancy = mk.custom_norm(lambda x: (x[0] ** 4 + 2 * x[1] ** 4 + 0.5 * x[2] ** 4) ** 0.25)
    ms = mk.minkowski_sphere(fancy, rho=1.0)
    assert ms.jet_source == "fd"
    jet = evaluate_jet(ms, 1.0, 1.0)
    assert np.all(np.isfinite(jet.f_ss))


def test_fd_jet_places_its_stencil_in_one_position_call():
    """The 9 stencil points of every chart point go to position in one call,
    offset-major."""
    calls = []
    surf = mk.graph(lambda s, t: (s * s * t + np.sin(t), 0, 0, 0, 0, 0), jet_source="fd")

    def position(s, t):
        calls.append((np.copy(s), np.copy(t)))
        return surf.position(s, t)

    s, t = np.array([0.1, 0.3, -0.2]), np.array([0.5, -0.4, 0.2])
    jets = mk.evaluate_jets(replace(surf, position=position), s, t)
    assert len(calls) == 1
    h = surf.fd_step
    S, T = calls[0]
    assert np.array_equal(S[:6], np.concatenate([s, s + h]))
    assert np.array_equal(T[-3:], t - h)
    assert np.array_equal(jets.f_st, mk.evaluate_jets(surf, s, t).f_st)


def _newton_batches(monkeypatch):
    """The sizes of the Newton batches NormModel solves, in order."""
    batches = []
    newton_points = mk.NormModel._newton_points

    def solve(self, XI):
        batches.append(len(XI))
        return newton_points(self, XI)

    monkeypatch.setattr(mk.NormModel, "_newton_points", solve)
    return batches


def test_a_gauge_only_sphere_jet_is_one_solve_by_its_three_formulas_bitwise(monkeypatch):
    """The jet of a gauge-only sphere's chart c + rho u(xi(s, t)) is one
    Newton batch, birkhoff_du_rows(xi) = (U, E, M) with du = E M E^T, and
    the three formulas bit for bit: f = c + rho U, f_i = rho du xi_i and
    f_ij = rho (du xi_ij - (xi_i . du xi_j) xi), the normal part of d²u by
    Euler's relation D³h_B[xi, a, b] = -D²h_B[a, b]. (It was a 9-point FD
    stencil of positions in two Newton batches: the centres from xi, then
    the 8 offsets from their centre's tangent predictor.)"""
    norm = mk.custom_norm(lambda x: float(np.sum(np.abs(x) ** 4) ** 0.25))
    c, rho = np.array([0.1, -0.2, 0.3]), 1.5
    s, t = np.linspace(0.4, 2.7, 4), np.linspace(0.1, 6.0, 4)
    xi, xi_s, xi_t, xi_ss, xi_st, xi_tt = _sphere_angle_jets(s, t)
    U, E, M = norm.birkhoff_du_rows(xi)
    du = E @ M @ np.swapaxes(E, 1, 2)

    def d(v):
        return (du @ v[:, :, None])[:, :, 0]

    def second(a, b, ab):
        return rho * (d(ab) - (a[:, None, :] @ d(b)[:, :, None])[:, 0] * xi)

    want = {"f": c + rho * U, "f_s": rho * d(xi_s), "f_t": rho * d(xi_t), "f_ss": second(xi_s, xi_s, xi_ss),
            "f_st": second(xi_s, xi_t, xi_st), "f_tt": second(xi_t, xi_t, xi_tt)}
    batches = _newton_batches(monkeypatch)
    got = mk.evaluate_jets(mk.minkowski_sphere(norm, rho, center=c), s, t)
    assert batches == [len(s)]
    for field, value in want.items():
        assert getattr(got, field).tobytes() == value.tobytes(), field


FD_JET_CASES = {
    "ellipsoid": (lambda: mk.ellipsoid(1.0, 1.3, 0.8, jet_source="fd"),
                  np.linspace(0.3, 2.8, 6), np.linspace(0.1, 6.1, 6)),
    "graph": (lambda: mk.graph(lambda s, t: (np.exp(0.4 * s) * np.cos(t) + s * t * t, 0, 0, 0, 0, 0),
                               jet_source="fd"),
              np.array([[-0.7, 0.1, 0.5], [0.2, 0.9, -0.3]]), np.array([[0.3, -0.8, 0.6], [0.05, -0.4, 0.7]])),
    "reparametrized jet-less chart": (
        lambda: mk.reparametrize_linear(replace(mk.ellipsoid(1.0, 1.3, 0.8), jet=None),
                                        [[0.7, 0.2], [-0.3, 1.1]], (0.4, 0.9)),
        np.linspace(0.2, 1.4, 5), np.linspace(-0.5, 1.5, 5)),
}


@pytest.mark.parametrize("case", FD_JET_CASES)
def test_fd_jets_equal_the_formulas_of_their_stencil_bitwise(monkeypatch, case):
    """An FD surface jet, read from numerics' Hessian layout by its shared
    difference kernels, equals the six formulas on the hand-written 9-point
    stencil bit for bit: directly and through reparametrize_linear's chain
    rule."""
    make, s, t = FD_JET_CASES[case]
    surface = make()
    got = mk.evaluate_jets(surface, s, t)
    calls = []

    def formulas(*args):
        calls.append(args)
        return fd_jet_by_formulas(*args)

    monkeypatch.setattr(minksurf.surfaces, "_fd_jet", formulas)
    want = mk.evaluate_jets(surface, s, t)
    assert len(calls) == 1
    for field in ("f", "f_s", "f_t", "f_ss", "f_st", "f_tt"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape == np.shape(s) + (3,)
        assert a.tobytes() == b.tobytes(), field


A_NORM = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
SPHERE_GAUGES = [(lambda x: float(np.sum(np.abs(x) ** 4) ** 0.25), lambda: mk.lp_norm(4.0)),
                 (lambda x: float(np.sqrt(x @ A_NORM @ x)), lambda: mk.ellipsoid_norm(A_NORM))]


def _counted(gauge):
    """gauge, and a list whose first entry counts its calls."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return gauge(x)

    return counted, calls


@pytest.mark.parametrize("gauge, values", [(SPHERE_GAUGES[0][0], 174), (SPHERE_GAUGES[1][0], 132)],
                         ids=["lp4", "ellipsoid"])
def test_a_gauge_only_sphere_jet_takes_its_pinned_gauge_values(gauge, values):
    """The jets of a gauge-only Minkowski sphere at 3 chart points take
    exactly this many gauge values: 3 solves from xi and their du. As an
    FD stencil, with 24 offsets started at their centre's tangent predictor,
    the same jets took 294 (lp(4)) and 252 (ellipsoid gauge); with the
    offsets started at their centre's point, 483 and 441; solved from xi,
    as the centres are, 1,323 and 936."""
    counted, calls = _counted(gauge)
    sphere = mk.minkowski_sphere(mk.custom_norm(counted), 1.5)
    mk.evaluate_jets(sphere, np.array([1.1, 1.3, 0.8]), np.array([0.5, -0.4, 0.2]))
    assert calls[0] == values


@pytest.mark.parametrize("gauge, values", [(SPHERE_GAUGES[0][0], 50), (SPHERE_GAUGES[1][0], 41)],
                         ids=["lp4", "ellipsoid"])
def test_a_gauge_only_sphere_point_takes_its_pinned_gauge_values(gauge, values):
    """point_geometry of a gauge-only sphere, under the norm the sphere was
    built from, takes exactly this many gauge values: the chart's one solve
    from xi and its du, which eta reuses. With an FD stencil whose 8
    offsets started at their predictor, and eta solved from the chart
    centre's u, it took 104 (lp(4)) and 95 (ellipsoid gauge); with eta
    solved from xi and the offsets from their centre's u, 203 and 185."""
    counted, calls = _counted(gauge)
    norm = mk.custom_norm(counted)
    mk.point_geometry(norm, mk.minkowski_sphere(norm, 1.5), 1.1, 0.5)
    assert calls[0] == values


@pytest.mark.parametrize("gauge, reference", SPHERE_GAUGES, ids=["lp4", "ellipsoid"])
def test_a_gauge_only_sphere_chart_has_the_analytic_first_derivatives(gauge, reference):
    """Over an 8x8 grid, f_s = rho du xi_s and f_t = rho du xi_t of a
    gauge-only sphere's chart match the analytic sphere's to 1e-7, the
    accuracy of the gauge's FD du. Measured 8.0e-8 (lp(4)) and 4.5e-8
    (ellipsoid gauge); as central differences of an FD stencil whose
    offsets started at their tangent predictor, 7.9e-7 and 4.6e-8, and at
    their centre's u, 3.1e-5 and 8.4e-6."""
    s, t = np.meshgrid(np.linspace(0.4, np.pi - 0.4, 8), np.linspace(0.1, 2.0 * np.pi - 0.1, 8), indexing="ij")
    s, t = s.ravel(), t.ravel()
    got = mk.evaluate_jets(mk.minkowski_sphere(mk.custom_norm(gauge), 1.5), s, t)
    want = mk.evaluate_jets(mk.minkowski_sphere(reference(), 1.5), s, t)
    for name in ("f_s", "f_t"):
        assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-7, name


def _gauge_sphere_jets():
    """evaluate_jets of the lp(4) gauge's sphere (rho = 1.5) and of the
    analytic lp(4) sphere over an 8x8 grid with margins (0.4, 0.1), and the
    analytic sphere's unit normals."""
    s, t = np.meshgrid(np.linspace(0.4, np.pi - 0.4, 8), np.linspace(0.1, 2.0 * np.pi - 0.1, 8), indexing="ij")
    s, t = s.ravel(), t.ravel()
    got = mk.evaluate_jets(mk.minkowski_sphere(mk.custom_norm(SPHERE_GAUGES[0][0]), 1.5), s, t)
    want = mk.evaluate_jets(mk.minkowski_sphere(mk.lp_norm(4.0), 1.5), s, t)
    normal = np.cross(want.f_s, want.f_t)
    return got, want, normal / _norm_rows(normal)[:, None]


def test_a_gauge_only_sphere_chart_has_the_analytic_positions_and_normal_second_derivatives():
    """The gauge-only lp(4) sphere's positions match the analytic sphere's
    to 1e-9 (measured 2.1e-10), and the normal parts of f_ss, f_st and f_tt,
    all that the geometry reads of them, to 1e-7 (measured 6.5e-8; they are
    exact up to the FD du, by Euler's relation; as second differences of an
    FD stencil they read 7.5e-6)."""
    got, want, normal = _gauge_sphere_jets()
    assert np.abs(got.f - want.f).max() <= 1e-9
    for name in ("f_ss", "f_st", "f_tt"):
        gap = getattr(got, name) - getattr(want, name)
        assert np.abs(np.sum(gap * normal, axis=1)).max() <= 1e-7, name


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: the gauge-only sphere's second derivatives lack "
                                       "the tangential part of d²u, a third derivative of h_B")
def test_a_gauge_only_sphere_chart_has_the_analytic_second_derivatives():
    """f_ss, f_st and f_tt of the gauge-only lp(4) sphere read 6.6, 2.7 and
    15 away from the analytic sphere's: the chart's jet leaves out the
    tangential part of d²u, a third derivative of h_B that a value-only
    gauge does not give (as second differences of an FD stencil they read
    6.1, 2.7 and 12.6 away). It passes once they match as their normal
    parts do."""
    got, want, _ = _gauge_sphere_jets()
    for name in ("f_ss", "f_st", "f_tt"):
        assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 5e-5, name


def _fields_solved_from_xi(norm, surface, s, t):
    """geometry_batch of norm on surface, after checking that its eta, E and
    M_du are bit for bit those of birkhoff_du_rows(xi), the solve from xi."""
    batch = mk.geometry_batch(norm, surface, s, t)
    eta, E, M = norm.birkhoff_du_rows(batch.xi)
    assert not batch.flipped_eta.any()
    assert np.array_equal(batch.eta, eta)
    assert np.array_equal(batch.E, E)
    assert np.array_equal(batch.M_du, M)
    return batch


@pytest.mark.parametrize("gauge", [g for g, _ in SPHERE_GAUGES], ids=["lp4", "ellipsoid"])
def test_eta_starts_at_the_chart_centre_only_on_the_norms_own_sphere(gauge, monkeypatch):
    """A gauge-only norm solves eta from xi on any surface other than a
    sphere built from this very norm object: on ellipsoid(1, 1.3, 0.8), and
    on a sphere of an equal gauge in another custom_norm. On its own sphere
    eta is the chart's own solve: eta, E and M_du are bit for bit
    birkhoff_du_rows at the chart's xi(s, t), and the point takes that one
    Newton batch (it was a second solve, started at the chart centre's u)."""
    s, t = np.meshgrid(np.linspace(0.4, np.pi - 0.4, 6), np.linspace(0.1, 2.0 * np.pi - 0.1, 6), indexing="ij")
    s, t = s.ravel(), t.ravel()
    norm = mk.custom_norm(gauge)
    _fields_solved_from_xi(norm, mk.ellipsoid(1.0, 1.3, 0.8), s, t)
    other = mk.minkowski_sphere(mk.custom_norm(gauge), 1.5)
    _fields_solved_from_xi(norm, other, s, t)
    batches = _newton_batches(monkeypatch)
    own = mk.geometry_batch(norm, mk.minkowski_sphere(norm, 1.5), s, t)
    assert batches == [len(s)]
    assert np.array_equal(own.p, mk.geometry_batch(norm, other, s, t).p)
    for got, want in zip((own.eta, own.E, own.M_du), norm.birkhoff_du_rows(_sphere_angle_jets(s, t)[0])):
        assert np.array_equal(got, want)
    assert np.abs(own.eta - norm.birkhoff_point_rows(own.xi)).max() <= 1e-9


# The points of an lp(4) sphere next to its axis circle t = 0, on a 7-point
# t grid over |t| <= 3e-4 (index k: t = (k - 3) 1e-4), at which a gauge-only
# lp(4) point_geometry raised when its offsets started at their centre's u
# and eta was solved from xi.
NEAR_AXIS_RAISED = {(0.5, 0), (0.5, 3), (0.5, 6), (0.8, 1), (0.8, 2), (0.8, 3), (0.8, 4),
                    (1.2, 1), (1.2, 2), (1.2, 3), (1.2, 4), (1.2, 5)}


def test_a_gauge_only_sphere_next_to_an_axis_circle_raises_no_more_often():
    """Next to the lp(4) axis circle, the chart's one solve from xi, which
    eta reuses, makes no point raise that raised with a stencil solved
    from xi (9 of these 21 raise, as with the predictor and eta's warm
    start; 12 did). On t = 0 itself du is undefined and the point is
    refused."""
    norm = mk.custom_norm(SPHERE_GAUGES[0][0])
    sphere = mk.minkowski_sphere(norm, 1.5)
    raised = set()
    for s in (0.5, 0.8, 1.2):
        for k, t in enumerate(np.linspace(-3e-4, 3e-4, 7)):
            try:
                mk.point_geometry(norm, sphere, s, t)
            except mk.MinksurfError:
                raised.add((s, k))
    assert raised <= NEAR_AXIS_RAISED
    assert {(0.5, 3), (0.8, 3), (1.2, 3)} <= raised


@pytest.mark.parametrize("gauge, reference", SPHERE_GAUGES, ids=["lp4", "ellipsoid"])
def test_a_gauge_only_sphere_is_umbilic_like_the_analytic_sphere(gauge, reference):
    """Over a 6x6 grid, the chart of a gauge-only sphere, with eta its own
    solve, has W = Id / rho and the curvatures of the built-in norm's
    analytic sphere to roundoff: f_i = rho du xi_i and d(eta) = du d(xi)
    read the same du, so W = Id / rho holds to 1e-10 (measured 6.7e-16
    (lp(4)) and 5.6e-16 (ellipsoid gauge) in W, lambda1 and lambda2, and
    1.4e-10 in eta). As an FD stencil, its offsets started at their tangent
    predictor, it read 1.4e-5 and 4.9e-5, at the noise floor of II, a
    second difference of positions, about eps / h^2."""
    norm, ref = mk.custom_norm(gauge), reference()
    s, t = np.meshgrid(np.linspace(0.4, np.pi - 0.4, 6), np.linspace(0.1, 2.0 * np.pi - 0.1, 6), indexing="ij")
    s, t = s.ravel(), t.ravel()
    got = mk.geometry_batch(norm, mk.minkowski_sphere(norm, 1.5), s, t)
    want = mk.geometry_batch(ref, mk.minkowski_sphere(ref, 1.5), s, t)
    assert np.abs(got.W - np.eye(2) / 1.5).max() <= 1e-10
    assert np.abs(got.eta - want.eta).max() <= 2e-9
    for name in ("lambda1", "lambda2"):
        assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-10, name


@pytest.mark.parametrize("case", ["flipped", "other norm"])
@pytest.mark.parametrize("gauge, reference", SPHERE_GAUGES, ids=["lp4", "ellipsoid"])
def test_a_gauge_only_sphere_not_its_own_solves_eta_from_xi_like_the_analytic_sphere(gauge, reference, case):
    """A gauge-only sphere in the flipped orientation, or built from another
    custom_norm object with an equal gauge, does not reuse the chart's
    solve: eta is solved from xi (bit for bit birkhoff_du_rows(xi)), and W,
    lambda1 and lambda2 match the analytic sphere's to 1e-7, the accuracy
    of the two solves' FD du (measured at most 1.6e-8), and eta to 2e-9."""
    norm, ref = mk.custom_norm(gauge), reference()
    sphere, ref_sphere = mk.minkowski_sphere(norm, 1.5), mk.minkowski_sphere(ref, 1.5)
    if case == "flipped":
        sphere, ref_sphere = mk.flip_orientation(sphere), mk.flip_orientation(ref_sphere)
    else:
        sphere = mk.minkowski_sphere(mk.custom_norm(gauge), 1.5)
    s, t = np.meshgrid(np.linspace(0.4, np.pi - 0.4, 6), np.linspace(0.1, 2.0 * np.pi - 0.1, 6), indexing="ij")
    s, t = s.ravel(), t.ravel()
    got = _fields_solved_from_xi(norm, sphere, s, t)
    want = mk.geometry_batch(ref, ref_sphere, s, t)
    assert np.abs(got.eta - want.eta).max() <= 2e-9
    for name in ("W", "lambda1", "lambda2"):
        assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-7, name


@pytest.mark.parametrize("make", [
    lambda: mk.ellipsoid(1.0, 1.3, 0.8, jet_source="Analytic"),
    lambda: mk.torus(2.0, 1.2, jet_source="FD"),
    lambda: mk.ellipsoid(1.0, 1.3, 0.8, jet_source="fd", fd_step=0),
    lambda: mk.euclidean_sphere(1.0, jet_source="fd", fd_step=-1e-5),
    lambda: mk.catenoid(fd_step=float("nan")),
    lambda: mk.saddle(fd_step=float("inf")),
    lambda: replace(mk.ellipsoid(1.0, 1.3, 0.8), jet_source="symbolic"),
    lambda: mk.surface_from_spec({"family": "minkowski_sphere", "rho": 1.5, "jet_source": "FD"}, mk.lp_norm(4.0)),
], ids=["Analytic", "FD", "zero-step", "negative-step", "nan-step", "inf-step", "replace", "spec"])
def test_a_surface_refuses_unknown_jet_options(make):
    """A jet_source other than "analytic" and "fd", or an fd_step that is not
    finite and positive, is refused when the patch is built (a zero step
    gave NaN jets and a SingularRestriction later; "Analytic" ran FD jets)."""
    with pytest.raises(mk.InvalidParameter, match=r"unknown jet_source|fd_step must be finite and positive"):
        make()


def test_an_analytic_sphere_chart_needs_analytic_dual_jets():
    """jet_source "analytic" on a norm without third-order dual jets raises
    (it gave a patch labelled "analytic" that ran FD jets); None picks FD."""
    for norm in (mk.custom_norm(SPHERE_GAUGES[0][0]), mk.lp_norm(4.0, jet_source="fd")):
        with pytest.raises(mk.InvalidParameter, match="needs analytic dual jets"):
            mk.minkowski_sphere(norm, 1.5, jet_source="analytic")
        assert mk.minkowski_sphere(norm, 1.5).jet_source == "fd"
    assert mk.minkowski_sphere(mk.lp_norm(4.0), 1.5, jet_source="analytic").jet_source == "analytic"


def test_orientation_outward_families():
    for surf, inward_ref in [
        (mk.euclidean_sphere(1.0), np.zeros(3)),
        (mk.ellipsoid(1.0, 1.3, 0.8), np.zeros(3)),
    ]:
        jet = evaluate_jet(surf, 0.9, 1.3)
        n = surf.orientation * np.cross(jet.f_s, jet.f_t)
        assert float(n @ (jet.f - inward_ref)) > 0.0


def test_torus_normal_points_away_from_core():
    tor = mk.torus(2.0, 0.7)
    s, t = 0.8, 1.1
    jet = evaluate_jet(tor, s, t)
    core = np.array([2.0 * math.cos(t), 2.0 * math.sin(t), 0.0])
    n = tor.orientation * np.cross(jet.f_s, jet.f_t)
    assert float(n @ (jet.f - core)) > 0.0


def test_torus_requires_valid_radii():
    with pytest.raises(mk.InvalidParameter):
        mk.torus(1.0, 1.0)
    with pytest.raises(mk.InvalidParameter):
        mk.torus(1.0, -0.2)


@pytest.mark.parametrize("domain", [(1.0, -1.0, -1.0, 1.0), (-1.0, 1.0, 0.5, 0.5)])
def test_graph_requires_a_nonempty_domain(domain):
    with pytest.raises(mk.InvalidParameter, match="needs s0 < s1 and t0 < t1"):
        mk.saddle(domain=domain)
    with pytest.raises(mk.InvalidParameter):
        mk.graph(lambda s, t: (0.0,) * 6, domain)


def test_flip_orientation():
    sph = mk.euclidean_sphere(1.0)
    assert mk.flip_orientation(sph).orientation == -sph.orientation


def test_reparametrize_linear_chain_rule():
    surf = mk.ellipsoid(1.0, 1.3, 0.8)
    L = np.array([[0.6, -1.1], [0.4, 0.9]])
    off = np.array([0.13, -0.4])
    rep = mk.reparametrize_linear(surf, L, off)
    st_new = np.array([0.25, -0.4])
    st_old = L @ st_new + off
    j_new = evaluate_jet(rep, st_new[0], st_new[1])
    j_old = evaluate_jet(surf, st_old[0], st_old[1])
    assert np.allclose(j_new.f, j_old.f, atol=1e-13)
    a, b = L[0, 0], L[0, 1]
    c, d = L[1, 0], L[1, 1]
    assert np.allclose(j_new.f_s, a * j_old.f_s + c * j_old.f_t, atol=1e-12)
    assert np.allclose(j_new.f_t, b * j_old.f_s + d * j_old.f_t, atol=1e-12)
    assert np.allclose(
        j_new.f_ss,
        a * a * j_old.f_ss + 2 * a * c * j_old.f_st + c * c * j_old.f_tt, atol=1e-12)
    with pytest.raises(mk.InvalidParameter):
        mk.reparametrize_linear(surf, np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_scale_surface():
    surf = mk.ellipsoid(1.0, 1.3, 0.8)
    doubled = mk.scale_surface(surf, 2.0)
    assert np.allclose(doubled.position(0.7, 1.1), 2.0 * surf.position(0.7, 1.1), atol=1e-14)


@pytest.mark.parametrize("derive", [lambda S: mk.scale_surface(S, 2.0),
                                    lambda S: mk.reparametrize_linear(S, np.eye(2))],
                         ids=["scale_surface", "reparametrize_linear"])
def test_a_derived_gauge_only_sphere_keeps_its_curvatures(derive):
    """λ₁ and λ₂ of a rescaled or identically reparametrized gauge-only lp(4)
    sphere, under its own norm, match the same patch of the analytic lp(4)
    sphere to 1e-7 relative (measured 5.3e-9; the sphere itself reads
    1e-15): the derived patch's jet is the chain rule of its base's chart,
    and eta is solved again from xi. When the derived patch took central
    differences of Newton positions, they read 6.4e-6 off."""
    norm = mk.custom_norm(SPHERE_GAUGES[0][0])
    got, want = derive(mk.minkowski_sphere(norm, 1.5)), derive(mk.minkowski_sphere(mk.lp_norm(4.0), 1.5))
    for s, t in [(0.8, 2.4), (1.3, 0.7), (2.0, 4.0)]:
        a, b = mk.point_geometry(norm, got, s, t), mk.point_geometry(mk.lp_norm(4.0), want, s, t)
        for name in ("lambda1", "lambda2"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-7, abs=0.0), (s, t, name)


def test_a_derived_gauge_only_sphere_point_takes_its_pinned_gauge_values():
    """point_geometry of scale_surface(S, 2.0), S the gauge-only lp(4)
    sphere, under S's norm, at 3 chart points takes exactly 310 gauge
    values: per point the base chart's one solve from xi and its du, and
    eta solved again from xi (the base's solve is not passed on). As
    central differences of Newton positions it took 1,307."""
    counted, calls = _counted(SPHERE_GAUGES[0][0])
    norm = mk.custom_norm(counted)
    derived = mk.scale_surface(mk.minkowski_sphere(norm, 1.5), 2.0)
    for s, t in [(0.8, 2.4), (1.3, 0.7), (2.0, 4.0)]:
        mk.point_geometry(norm, derived, s, t)
    assert calls[0] == 310


DERIVED_BASES = {
    "analytic": lambda: mk.ellipsoid(1.0, 1.3, 0.8),
    "fd": lambda: mk.ellipsoid(1.0, 1.3, 0.8, jet_source="fd"),
    "jet-less": lambda: replace(mk.ellipsoid(1.0, 1.3, 0.8), jet=None),
    "lp4-gauge-sphere": lambda: mk.minkowski_sphere(mk.custom_norm(SPHERE_GAUGES[0][0]), 1.5),
}
DERIVED_L, DERIVED_OFFSET = np.array([[0.9, 0.1], [-0.05, 1.0]]), np.array([0.02, -0.01])
# chart points whose images under DERIVED_L and DERIVED_OFFSET stay inside the spherical-angle domain
DERIVED_S, DERIVED_T = np.linspace(0.4, 2.6, 6), np.linspace(0.3, 5.8, 6)


JET_FIELDS = ("f", "f_s", "f_t", "f_ss", "f_st", "f_tt")


def _jets_equal_bitwise(got, want):
    for field in JET_FIELDS:
        assert getattr(got, field).tobytes() == want[field].tobytes(), field


@pytest.mark.parametrize("make", DERIVED_BASES.values(), ids=DERIVED_BASES.keys())
def test_a_scaled_patchs_jet_is_its_bases_jet_scaled_bitwise(make):
    """evaluate_jets of scale_surface(S, 1.5) is 1.5 times evaluate_jets(S),
    bit for bit, whatever route S's jet takes: the derived patch composes
    its base's chart route (it once took FD of its own position when S's
    jet_source was "fd" or S had no jet, and so on a gauge-only sphere)."""
    base = make()
    got, J = mk.evaluate_jets(mk.scale_surface(base, 1.5), DERIVED_S, DERIVED_T), \
        mk.evaluate_jets(base, DERIVED_S, DERIVED_T)
    _jets_equal_bitwise(got, {field: 1.5 * getattr(J, field) for field in JET_FIELDS})


@pytest.mark.parametrize("make", DERIVED_BASES.values(), ids=DERIVED_BASES.keys())
def test_a_reparametrized_patchs_jet_is_the_chain_rule_of_its_bases_jet_bitwise(make):
    """evaluate_jets of reparametrize_linear(S, L, offset) is the six
    chain-rule formulas applied to evaluate_jets(S) at L (s,t) + offset, bit
    for bit, whatever route S's jet takes."""
    base = make()
    (a, b), (c, d) = DERIVED_L
    mapped = (DERIVED_L @ np.stack([DERIVED_S, DERIVED_T], axis=-1)[..., None])[..., 0] + DERIVED_OFFSET
    J = mk.evaluate_jets(base, mapped[:, 0], mapped[:, 1])
    got = mk.evaluate_jets(mk.reparametrize_linear(base, DERIVED_L, DERIVED_OFFSET), DERIVED_S, DERIVED_T)
    _jets_equal_bitwise(got, {
        "f": J.f, "f_s": a * J.f_s + c * J.f_t, "f_t": b * J.f_s + d * J.f_t,
        "f_ss": a * a * J.f_ss + 2 * a * c * J.f_st + c * c * J.f_tt,
        "f_st": a * b * J.f_ss + (a * d + b * c) * J.f_st + c * d * J.f_tt,
        "f_tt": b * b * J.f_ss + 2 * b * d * J.f_st + d * d * J.f_tt})


def test_a_reparametrized_patch_stays_in_its_bases_domain():
    """reparametrize_linear wraps L (s,t) + offset into the base's domain: a
    point that maps off a non-periodic base axis raises OutOfDomain naming
    the base parameter, from position, evaluate_jets and point_geometry (the
    catenoid was evaluated at s = 1.12 outside its [-1.1, 1.1]), and one that
    maps past a periodic axis wraps."""
    base = mk.catenoid(0.9, 1.1)
    patch = mk.reparametrize_linear(base, DERIVED_L, DERIVED_OFFSET)
    for evaluate in (patch.position, lambda s, t: mk.evaluate_jets(patch, [s], [t]),
                     lambda s, t: mk.point_geometry(mk.euclidean_norm(), patch, s, t)):
        with pytest.raises(mk.OutOfDomain, match=r"parameter s=1\.12\d* outside \[-1\.1, 1\.1\]"):
            evaluate(1.0, 2.0)
    # (0.1, 6.5) maps to (0.76, 6.485), whose t wraps to 6.485 - 2 pi
    s, t = DERIVED_L @ [0.1, 6.5] + DERIVED_OFFSET
    assert t > 2 * np.pi
    assert np.allclose(patch.position(0.1, 6.5), base.position(s, t - 2 * np.pi), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("L", [np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf, 0.0], [0.0, 1.0]]),
                               np.eye(3), [1.0, 0.0, 0.0, 1.0]], ids=["nan", "inf", "3x3", "flat"])
def test_a_reparametrization_refuses_a_matrix_that_is_not_a_finite_2x2(L):
    """L must be a finite 2x2 matrix (a NaN or inf entry raised
    SingularRestriction at evaluation, and np.eye(3) numpy's matmul
    ValueError)."""
    with pytest.raises(mk.InvalidParameter, match="must be a finite 2x2 matrix"):
        mk.reparametrize_linear(mk.ellipsoid(1.0, 1.3, 0.8), L)


@pytest.mark.parametrize("offset", [(np.nan, 0.0), (0.0, -np.inf), (0.1, 0.2, 0.3)], ids=["nan", "inf", "3-vector"])
def test_a_reparametrization_refuses_an_offset_that_is_not_a_finite_2_vector(offset):
    """offset must be a finite 2-vector (a NaN offset gave NaN positions and no error)."""
    with pytest.raises(mk.InvalidParameter, match="must be a finite 2-vector"):
        mk.reparametrize_linear(mk.ellipsoid(1.0, 1.3, 0.8), np.eye(2), offset)


@pytest.mark.parametrize("lam", [0.0, -0.0, np.nan, np.inf, -np.inf])
def test_a_scaled_patch_refuses_a_zero_or_non_finite_factor(lam):
    """lam must be finite and nonzero (0 raised DegenerateJet at every
    point, NaN and inf SingularRestriction)."""
    with pytest.raises(mk.InvalidParameter, match="scale factor must be finite and nonzero"):
        mk.scale_surface(mk.ellipsoid(1.0, 1.3, 0.8), lam)


def test_grid_points_layout():
    sph = mk.euclidean_sphere(1.0)
    pts = mk.grid_points(sph, 4, 6, (1e-3, 0.0))
    assert len(pts) == 24
    ss = sorted({s for s, _ in pts})
    assert ss[0] == pytest.approx(1e-3)
    assert ss[-1] == pytest.approx(math.pi - 1e-3)
    # periodic axis covers the circle without duplicating the seam
    ts = sorted({t for _, t in pts})
    assert len(ts) == 6
    assert ts[-1] < 2 * math.pi
    spacing = np.diff(ts)
    assert np.allclose(spacing, spacing[0], atol=1e-12)


POSITION_SURFACES = {
    "sphere": lambda: mk.euclidean_sphere(1.3, (0.2, -0.1, 0.4)),
    "ellipsoid": lambda: mk.ellipsoid(1.0, 1.3, 0.8),
    "torus": lambda: mk.torus(2.0, 0.7),
    "catenoid": lambda: mk.catenoid(0.9, 1.1),
    "saddle": lambda: mk.saddle(0.8),
    "graph": lambda: mk.graph(lambda s, t: (np.sin(s) * np.cos(t), np.cos(s) * np.cos(t), -np.sin(s) * np.sin(t),
                                            -np.sin(s) * np.cos(t), -np.cos(s) * np.sin(t), -np.sin(s) * np.cos(t))),
    "minkowski-euclidean": lambda: mk.minkowski_sphere(mk.euclidean_norm(), 1.5),
    "minkowski-ellipsoid": lambda: mk.minkowski_sphere(mk.ellipsoid_norm(A_NORM), 1.5),
    "minkowski-lp3": lambda: mk.minkowski_sphere(mk.lp_norm(3.0), 1.5, (0.1, 0.0, -0.2)),
    "minkowski-lp4": lambda: mk.minkowski_sphere(mk.lp_norm(4.0), 1.5),
    "minkowski-lp4-fd": lambda: mk.minkowski_sphere(mk.lp_norm(4.0), 1.5, jet_source="fd"),
    "minkowski-lp4-gauge": lambda: mk.minkowski_sphere(mk.custom_norm(SPHERE_GAUGES[0][0]), 1.5),
    "minkowski-ellipsoid-gauge": lambda: mk.minkowski_sphere(mk.custom_norm(SPHERE_GAUGES[1][0]), 1.5),
    "scaled-torus": lambda: mk.scale_surface(mk.torus(2.0, 0.7), 1.5),
    "scaled-ellipsoid-fd": lambda: mk.scale_surface(mk.ellipsoid(1.0, 1.3, 0.8, jet_source="fd"), -0.7),
    "scaled-lp4-gauge": lambda: mk.scale_surface(mk.minkowski_sphere(mk.custom_norm(SPHERE_GAUGES[0][0]), 1.5), 2.0),
}
# The bases of the table's patches reparametrize_linear(base, DERIVED_L, DERIVED_OFFSET).
REPARAMETRIZED_BASES = {
    "reparametrized-ellipsoid": lambda: mk.ellipsoid(1.0, 1.3, 0.8),
    "reparametrized-lp4-gauge": lambda: mk.minkowski_sphere(mk.custom_norm(SPHERE_GAUGES[0][0]), 1.5),
}
POSITION_SURFACES.update({name: lambda make=make: mk.reparametrize_linear(make(), DERIVED_L, DERIVED_OFFSET)
                          for name, make in REPARAMETRIZED_BASES.items()})


@pytest.mark.parametrize("name", POSITION_SURFACES)
def test_position_is_the_jets_f_bitwise(name):
    """position(s, t) is evaluate_jets' f bit for bit, on 100 random chart
    points, on 1,000 more (a built-in chart's position takes its jet in
    blocks of 256 points, evaluate_jets in one call), on both as 2-D grids
    and at one float point: a built-in chart is written once, as its jet
    (the analytic Minkowski spheres' f once took u from the dual gradient of
    an unnormalized xi, up to 6.7e-16 off). A reparametrized patch is
    sampled at L^-1 (p - offset) for points p inside its base's domain."""
    surface = POSITION_SURFACES[name]()
    s0, s1, t0, t1 = REPARAMETRIZED_BASES.get(name, lambda: surface)().domain
    rng = np.random.default_rng(7)
    # a gauge-only sphere's position is a Newton solve per point, not a jet taken in blocks
    for n in (100,) if name.endswith("gauge") else (100, 1000):
        s = rng.uniform(s0 + 0.05 * (s1 - s0), s1 - 0.05 * (s1 - s0), n)
        t = rng.uniform(t0 + 0.05 * (t1 - t0), t1 - 0.05 * (t1 - t0), n)
        if name in REPARAMETRIZED_BASES:
            s, t = np.linalg.solve(DERIVED_L, np.stack([s, t]) - DERIVED_OFFSET[:, None])
        for s_, t_ in ((s, t), (s.reshape(-1, 25), t.reshape(-1, 25)), (float(s[0]), float(t[0]))):
            got, want = surface.position(s_, t_), mk.evaluate_jets(surface, s_, t_).f
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_built_in_charts_position_broadcasts_a_float_against_many_points():
    """position(s, t) of 1,000 s and one float t, taken in blocks after
    broadcasting, is evaluate_jets' f bit for bit, with one row per s."""
    surface = mk.ellipsoid(1.0, 1.3, 0.8)
    s = np.linspace(0.1, 3.0, 1000)
    got, want = surface.position(s, 0.7), mk.evaluate_jets(surface, s, 0.7).f
    assert got.shape == want.shape == (1000, 3) and got.tobytes() == want.tobytes()


def test_surface_from_spec_families(lp4):
    sph = mk.surface_from_spec({"family": "euclidean_sphere", "r": 2.0})
    assert sph.params["r"] == 2.0
    ms = mk.surface_from_spec({"family": "minkowski_sphere", "rho": 1.0}, norm=lp4)
    assert abs(lp4.gauge_value(ms.position(1.0, 1.0)) - 1.0) < 1e-12
    with pytest.raises(mk.InvalidParameter):
        mk.surface_from_spec({"family": "minkowski_sphere", "rho": 1.0})
    with pytest.raises(mk.InvalidParameter):
        mk.surface_from_spec({"family": "moebius"})
