"""The array pipeline against its batch of one.

geometry_batch evaluates many points at once; point_geometry is the same
computation on one point. Every row of a batch must agree with the point
evaluated alone, and a batch with a failing point must raise what a loop
over point_geometry raises first.
"""

from __future__ import annotations

import numpy as np
import pytest

import minksurf as mk
from minksurf.blaschke import _grid_affine_normals, euclidean_gaussian
from minksurf.cli import _asymptotic_orthogonality
from minksurf.distances import (_hess_b_matrices, _laplacians, _tangent_plane_gradients,
                                _tangent_plane_values, affine_distance, tangent_plane_distance)
from minksurf.geometry import (PointGeometry, dupin_orthogonal_pair_sum, gaussian_by_determinants, geometry_batch,
                               mean_by_indicatrix_average, normal_curvature, normal_curvature_via_dupin,
                               weingarten_eigen_raw)
from minksurf.numerics import fd_gradient

A = [[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]]

NORMS = {
    "euclidean": lambda: mk.euclidean_norm(),
    "ellipsoid": lambda: mk.ellipsoid_norm(A),
    "lp4": lambda: mk.lp_norm(4.0),
    "lp4-fd": lambda: mk.lp_norm(4.0, jet_source="fd"),
    # gauge values only: Birkhoff points by Newton, du by differences of them
    "custom": lambda: mk.custom_norm(lambda x: float(np.sqrt(x @ np.array(A) @ x))),
}


def _bump(s, t):
    """A user graph function of one point: phi = exp(-(s^2 + 2 t^2)) / 2 and its jet."""
    e = 0.5 * np.exp(-(s * s + 2.0 * t * t))
    return (e, -2.0 * s * e, -4.0 * t * e, (4.0 * s * s - 2.0) * e, 8.0 * s * t * e,
            (16.0 * t * t - 4.0) * e)


def _surfaces(norm):
    """Each built-in surface family (and a user graph) with analytic and with FD
    jets, and a parameter box inside its domain."""
    boxes = {
        "euclidean_sphere": (lambda js: mk.euclidean_sphere(1.5, jet_source=js), (0.4, 2.7), (0.2, 5.9)),
        "ellipsoid": (lambda js: mk.ellipsoid(1.0, 1.3, 0.8, jet_source=js), (0.4, 2.7), (0.2, 5.9)),
        "torus": (lambda js: mk.torus(2.0, 1.2, jet_source=js), (0.3, 6.0), (0.2, 5.9)),
        "catenoid": (lambda js: mk.catenoid(1.0, jet_source=js), (-0.9, 0.9), (0.2, 5.9)),
        "saddle": (lambda js: mk.saddle(0.8, jet_source=js), (-0.7, 0.8), (-0.6, 0.7)),
        "graph": (lambda js: mk.graph(_bump, jet_source=js), (-0.7, 0.8), (-0.6, 0.7)),
        "minkowski_sphere": (lambda js: mk.minkowski_sphere(
            norm, 1.5, jet_source=None if js == "analytic" else js), (0.4, 2.7), (0.2, 5.9)),
    }
    cases = {}
    for name, (make, s_range, t_range) in boxes.items():
        for js in ("analytic", "fd"):
            surface = make(js)   # a sphere of a norm without dual jets is FD either way
            cases.setdefault(f"{name}/{surface.jet_source}", (surface, s_range, t_range))
    return cases


def _grid(s_range, t_range, ns, nt):
    s, t = np.meshgrid(np.linspace(*s_range, ns), np.linspace(*t_range, nt), indexing="ij")
    return s.ravel(), t.ravel()


def _assert_same(row: PointGeometry, alone: PointGeometry, where: str) -> None:
    for name in PointGeometry.__dataclass_fields__:
        a, b = getattr(row, name), getattr(alone, name)
        if isinstance(b, bool):
            assert a == b, (where, name)
            continue
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        gap = float(np.abs(a - b).max())
        assert gap <= 1e-13 * max(1.0, float(np.abs(b).max())), (where, name, gap)


@pytest.mark.parametrize("family", list(NORMS))
def test_batch_rows_equal_point_geometry(family):
    norm = NORMS[family]()
    # a custom-norm point takes 7 to 16 Newton solves: two points there
    ns, nt = (2, 1) if family == "custom" else (3, 3)
    for name, (surface, s_range, t_range) in _surfaces(norm).items():
        s, t = _grid(s_range, t_range, ns, nt)
        gb = geometry_batch(norm, surface, s, t)
        assert len(gb) == len(s)
        for i in range(len(s)):
            row = gb[i]
            _assert_same(row, mk.point_geometry(norm, surface, s[i], t[i]), f"{family}/{name}#{i}")
            # the oracles agree with the batch's curvatures
            scale = max(1.0, abs(row.lambda1), abs(row.lambda2))
            raw = weingarten_eigen_raw(row)
            assert np.abs(raw - [row.lambda1, row.lambda2]).max() <= 1e-9 * scale, (family, name, i)
            for X in (row.V1 + 0.3 * row.V2, np.array([0.4, -1.1])):
                k = mk.normal_curvature(row, X)
                assert abs(normal_curvature_via_dupin(row, X) - k) <= 1e-9 * scale, (family, name, i)


def test_batch_slices_and_masks_are_batches(lp4, ellipsoid_std):
    s, t = _grid((0.4, 2.7), (0.2, 5.9), 3, 4)
    gb = geometry_batch(lp4, ellipsoid_std, s, t)
    mask = gb.H > np.median(gb.H)
    sub = gb[mask]
    assert len(sub) == int(mask.sum())
    for j, i in enumerate(np.flatnonzero(mask)):
        _assert_same(sub[j], gb[int(i)], f"row {i}")


def _first_error(fn):
    try:
        fn()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case", ["pole-before-outside", "graph-callable-raises"])
def test_batch_raises_the_first_failing_point_of_the_loop(case, lp4):
    if case == "pole-before-outside":
        # row 2 sits on a pole (DegenerateJet, found after wrapping), row 4
        # outside the chart (OutOfDomain, found while wrapping)
        surface = mk.ellipsoid(1.0, 1.3, 0.8)
        pts = [(0.5, 0.1), (0.7, 0.2), (0.0, 0.3), (0.9, 0.4), (-0.5, 0.1)]
        expected = mk.DegenerateJet
    else:
        # the user's graph function raises at row 1, row 2 is outside the chart
        def phi(s, t):
            if s > 0.4:
                raise ValueError(f"no graph at s={s}")
            return _bump(s, t)

        surface = mk.graph(phi)
        pts = [(0.1, 0.1), (0.5, 0.2), (2.0, 0.0), (0.6, 0.1)]
        expected = ValueError
    loop = _first_error(lambda: [mk.point_geometry(lp4, surface, s, t) for s, t in pts])
    s, t = np.array(pts).T
    assert loop is not None and loop[0] is expected
    assert _first_error(lambda: geometry_batch(lp4, surface, s, t)) == loop


def test_grid_run_with_a_degenerate_point_exits_three_at_the_first_point(tmp_path, capsys):
    import json
    from minksurf.cli import main

    cfg = {"norm": {"family": "lp", "p": 4.0},
           "surface": {"family": "ellipsoid", "a": 1.0, "b": 1.3, "c": 0.8},
           "grid": {"ns": 5, "nt": 5, "margins": [0.0, 0.0]},
           "checks": ["blaschke-scan"], "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    grid = mk.grid_points(mk.ellipsoid(1.0, 1.3, 0.8), 5, 5, (0.0, 0.0))
    loop = _first_error(lambda: [mk.point_geometry(mk.lp_norm(4.0), mk.ellipsoid(1.0, 1.3, 0.8), s, t)
                                 for s, t in grid])
    assert loop[0] is mk.DegenerateJet and loop[1] in err


def test_batched_stencils_equal_their_batch_of_one(lp4, ellipsoid_std):
    s, t = _grid((0.4, 2.7), (0.2, 5.9), 3, 3)
    gb = geometry_batch(lp4, ellipsoid_std, s, t)
    bases = np.random.default_rng(2).uniform(-0.3, 0.3, (len(s), 3))
    lap, defects = _laplacians(gb, lp4, ellipsoid_std, bases, mk.DEFAULT_CONFIG)
    normals, missing = _grid_affine_normals(gb, ellipsoid_std, mk.DEFAULT_CONFIG)
    assert missing == {}
    for i in range(len(s)):
        alone = mk.nabla_laplacian_rho_details(lp4, ellipsoid_std, s[i], t[i], bases[i])
        assert abs(lap[i] - alone["laplacian"]) <= 1e-13 * max(1.0, abs(alone["laplacian"]))
        assert np.abs(defects[i] - alone["gauss_defects"]).max() <= 1e-12
        eta_aff = mk.affine_normal(ellipsoid_std, s[i], t[i])
        assert np.abs(normals[i] - eta_aff).max() <= 1e-13 * np.abs(eta_aff).max()


def test_affine_normal_reasons_match_the_single_point(eu):
    # a torus row next to its parabolic circle (non-elliptic stencil point) and
    # one on the inner side (non-elliptic point) are skipped with the single
    # point's error
    tor = mk.torus(2.0, 1.2)
    s = np.array([0.3, np.pi / 2 - 1e-7, 2.0])
    t = np.array([0.4, 0.4, 0.4])
    gb = geometry_batch(eu, tor, s, t)
    normals, missing = _grid_affine_normals(gb, tor, mk.DEFAULT_CONFIG)
    assert sorted(missing) == [1, 2]
    for i in (1, 2):
        assert np.isnan(normals[i]).all()
        assert _first_error(lambda: mk.affine_normal(tor, s[i], t[i])) == (type(missing[i]), str(missing[i]))
    assert np.abs(normals[0] - mk.affine_normal(tor, s[0], t[0])).max() == 0.0


def _cubic(s, t):
    """A user graph function of one point: phi = s^3/6 + t^2/2 and its jet; K_e has the sign of s."""
    return (s ** 3 / 6.0 + t * t / 2.0, s * s / 2.0, t, s, 0.0, 1.0)


def test_affine_normal_batch_raises_what_the_loop_raises_first(eu):
    # both stencils leave the chart at t = 1 + h; the first point's also has
    # K_e < 0 at s - h, so a replay that leaves a row at its first K_e <= 0
    # never meets that row's OutOfDomain and raises the second point's
    cubic = mk.graph(_cubic)
    s, t = [5e-6, 0.5], [1.0, 1.0]
    loop = _first_error(lambda: [mk.affine_normal(cubic, *p) for p in zip(s, t)])
    assert loop == (mk.OutOfDomain, "parameter t=1.00001 outside [-1.0, 1.0]")
    assert _first_error(lambda: _grid_affine_normals(geometry_batch(eu, cubic, s, t), cubic,
                                                     mk.DEFAULT_CONFIG)) == loop


def test_affine_normals_of_hyperbolic_points_are_nan(eu):
    # no point is elliptic, so no stencil is evaluated: a user graph's callable
    # cannot take an empty batch
    cubic = mk.graph(_cubic)
    s, t = [-0.5, -0.2], [0.0, 0.3]
    normals, missing = _grid_affine_normals(geometry_batch(eu, cubic, s, t), cubic, mk.DEFAULT_CONFIG)
    assert sorted(missing) == [0, 1] and np.isnan(normals).all()
    for i in (0, 1):
        assert _first_error(lambda: mk.affine_normal(cubic, s[i], t[i])) == (type(missing[i]), str(missing[i]))


def test_user_callables_see_one_point_at_a_time():
    seen = []

    def gauge(x):
        seen.append(np.shape(x))
        return float(np.sqrt(x @ x))

    norm = mk.custom_norm(gauge)
    X = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    assert norm.gauge_value_rows(X).tolist() == [1.0, 2.0, 0.0]
    assert set(seen) == {(3,)}


@pytest.mark.parametrize("family", ["euclidean", "lp4", "lp4-fd", "custom"])
def test_check_kernels_equal_the_one_point_functions_bitwise(family, ellipsoid_std, catenoid_std):
    # the pointwise functions on a batch are the same functions at each of its
    # points, row by row, bit for bit; at one point each gives a float
    norm = NORMS[family]()
    for surface, s_range in ((ellipsoid_std, (0.4, 2.7)), (catenoid_std, (-0.9, 0.9))):
        s, t = _grid(s_range, (0.2, 5.9), 4, 4)
        gb = geometry_batch(norm, surface, s, t)
        thetas = np.linspace(0.1, 6.0, len(gb))
        X = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        A = np.array([0.1, -0.2, 0.3]) + np.outer(np.linspace(-1.0, 1.0, len(gb)), [0.2, 0.5, -0.4])
        means, sums = mean_by_indicatrix_average(gb, 256), dupin_orthogonal_pair_sum(gb, thetas)
        gaussians, curvatures = gaussian_by_determinants(gb), normal_curvature(gb, X)
        gs, (rhos, Vs) = tangent_plane_distance(gb, A), affine_distance(gb, A)
        euclidean = euclidean_gaussian(surface, s, t)
        orthogonality, used = _asymptotic_orthogonality(gb)
        grads = _tangent_plane_gradients(gb, surface, mk.DEFAULT_CONFIG)
        hessians = _hess_b_matrices(lambda chart: _tangent_plane_values(gb, surface, chart),
                                    gb.s, gb.t, mk.DEFAULT_CONFIG)
        assert used.any() == (surface is catenoid_std)
        residuals = iter(orthogonality.tolist())
        for i in range(len(gb)):
            pg = gb[i]
            rho, V = affine_distance(pg, A[i])
            alone = [mean_by_indicatrix_average(pg, 256), dupin_orthogonal_pair_sum(pg, float(thetas[i])),
                     gaussian_by_determinants(pg), normal_curvature(pg, X[i]), tangent_plane_distance(pg, A[i]),
                     rho, euclidean_gaussian(surface, float(s[i]), float(t[i]))]
            assert all(type(value) is float for value in alone)
            assert alone == [means[i], sums[i], gaussians[i], curvatures[i], gs[i], rhos[i], euclidean[i]]
            assert V.tolist() == Vs[i].tolist()
            directions = mk.asymptotic_directions(pg)
            assert used[i] == (pg.K < 0.0 and len(directions) == 2)
            if used[i]:
                X_, Y_ = (D / np.sqrt(float(D @ pg.d_mat @ D)) for D in directions)
                assert next(residuals) == abs(float(X_ @ pg.d_mat @ Y_))
            field = mk.tangent_plane_distance_field(pg, surface)
            assert grads[i].tolist() == fd_gradient(field, [pg.s, pg.t], mk.DEFAULT_CONFIG.fd_step).tolist()
            assert hessians[i].tolist() == mk.hess_b_matrix(field, pg).tolist()
