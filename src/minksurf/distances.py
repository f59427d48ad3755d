"""Distance functions on immersed surfaces and their second-order invariants.

Three scalar functions anchor this module, all induced by the transversal
decomposition w = g·eta(p) + V with V tangent at p:

  * the tangent-plane distance g(q) = <p - q, xi(p)> / <eta(p), xi(p)>,
  * the Minkowski distance D_a(q) = F(q - a),
  * the affine distance rho(p) = <p - a, xi(p)> / <eta(p), xi(p)>,
    with tangential remainder V(p): p - a = rho(p) eta(p) + V(p).

Hessians are evaluated only at critical points, where the chart-coordinate
second derivative equals the b-Hessian (the connection term carries a factor
of the vanishing gradient); away from critical points the module refuses with
NotCritical rather than silently dropping that term. Every b-Hessian, of a
user's field at one point or of the checks' fields at many, comes from one
stencil route (_hessian_stencils): each point's centre, gradient and cross
points are evaluated in one call. The Laplacian of rho is
assembled from the explicit Gauss splitting D_X Y = nabla_X Y + h(X,Y) eta,
so no Christoffel symbols of b or nabla are ever formed. The Laplacian's
stencil points are evaluated as one geometry batch. Every chart gradient
here (the criticality test, lemma-3-1's gradients, the Laplacian) takes its
step and points from numerics.gradient_stencil. tangent_plane_distance (rho
at the base point) and affine_distance take a PointGeometry or a GeometryBatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateH, DegeneratePairing, NotCritical
from .geometry import GeometryBatch, PointGeometry, geometry_batch
from .norms import NormModel
from .numerics import (
    NumericsConfig,
    DEFAULT_CONFIG,
    _Record,
    _central_diffs,
    _cross_stencil,
    _dot,
    _field_values,
    _mat2,
    _mixed,
    _near_singular,
    _norm_rows,
    _require_finite,
    _stack_last,
    _value_or_rows,
    first_row,
    gradient_stencil,
    guarded_solve_rows,
    per_point,
)
from .surfaces import SurfacePatch


@dataclass(init=False, repr=False, eq=False)
class DistanceData(_Record, frozen=True, eq=False):
    """Affine-distance data of one surface point relative to a base point."""

    base_point: np.ndarray
    rho: float
    V: np.ndarray            # tangential component, chart-basis 2-vector
    grad_h_rho: np.ndarray   # = -V
    laplacian: Optional[float]
    decomposition_residual: float
    g_value: Optional[float] = None   # tangent-plane distance at a probe point
    g_grad: Optional[np.ndarray] = None  # its ambient differential -xi/pairing


def _require_pairing(g):
    """<eta, xi> of a PointGeometry, or of each point of a GeometryBatch."""
    if np.any(np.abs(g.pairing) < 1e-14):
        raise DegeneratePairing("<eta, xi> vanished; transversal decomposition undefined")
    return g.pairing


def tangent_plane_distance(g: PointGeometry | GeometryBatch, q) -> float | np.ndarray:
    """g(q) = <p - q, xi> / <eta, xi>: the eta-coefficient of p - q in the
    splitting R^3 = span(eta) + T_pM, at a PointGeometry (a float) or at each
    point of a GeometryBatch (q: one point, or one per point). At q = a it is
    the affine distance rho(p) of the base point a."""
    return _value_or_rows(_dot(g.p - np.asarray(q, dtype=float), g.xi) / _require_pairing(g))


def tangent_plane_distance_field(pg: PointGeometry, surface: SurfacePatch) -> Callable:
    """g restricted to the surface, as a chart-coordinate field (s,t) -> g(f(s,t)).

    The anchored point pg.p is a critical point of this field (the classical
    first-variation argument: f_s, f_t are xi(p)-orthogonal at p).
    """
    _require_pairing(pg)

    def field(st):
        return tangent_plane_distance(pg, surface.position(float(st[0]), float(st[1])))

    return field


def minkowski_distance(norm: NormModel, a, q) -> float:
    """D_a(q) = F(q - a)."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    return norm.gauge_value(q - a)


def minkowski_distance_field(norm: NormModel, surface: SurfacePatch, a) -> Callable:
    """D_a restricted to the surface as a chart-coordinate field."""
    a = np.asarray(a, dtype=float)

    def field(st):
        return norm.gauge_value(surface.position(float(st[0]), float(st[1])) - a)

    return field


def is_critical(norm: NormModel, pg: PointGeometry, a,
                config: NumericsConfig = DEFAULT_CONFIG) -> bool:
    """Whether D_a is critical at pg's point: (p - a)/F(p - a) = ±eta within tolerance."""
    a = np.asarray(a, dtype=float)
    v = pg.p - a
    Fv = norm.gauge_value(v)
    if Fv == 0.0:
        return False
    unit = v / Fv
    defect = min(np.linalg.norm(unit - pg.eta), np.linalg.norm(unit + pg.eta))
    return bool(defect <= config.critical_tol * (1.0 + np.linalg.norm(pg.eta)))


def _require_critical(f0, grad, s, t, config: NumericsConfig) -> None:
    """The criticality test, on rows: NotCritical for the first point (s[i], t[i])
    whose field gradient grad[i] exceeds config.critical_tol * (1 + |f0[i]|)."""
    i = first_row(_norm_rows(grad) > config.critical_tol * (1.0 + np.abs(f0)))
    if i is not None:
        raise NotCritical(
            f"field gradient {grad[i]} at (s,t)=({s[i]}, {t[i]}) exceeds the critical "
            f"tolerance; hess_b would need the connection term here")


# The direction pairs (e1, e1), (e1, e2), (e2, e2) of the entries of a hess_b matrix.
_ENTRY_X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_ENTRY_Y = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


def _hessian_stencils(s, t, X, Y, config: NumericsConfig, step: float | None = None):
    """The hess_b stencils at the chart points (s[i], t[i]), and the function
    that turns a field's values on them into hess_b.

    chart[i] holds the point, its 4 gradient points at the relative step
    config.fd_step, and the 4 cross points of each direction pair
    (X[..., j, :], Y[..., j, :]) at the absolute step `step` (the gradient
    step when None). hessians(rows, f), from the values f at the stencils of
    the points rows, raises NotCritical for the first of them that fails the
    criticality test and returns hess_b(X_j, Y_j) of each, (len(rows), k).
    """
    st = _stack_last(s, t)
    h, grad = gradient_stencil(st, config.fd_step)
    h2 = h if step is None else np.full(len(st), float(step))
    cross = [_cross_stencil(st, X[..., j, :], Y[..., j, :], h2) for j in range(X.shape[-2])]
    chart = np.concatenate([st[:, None], grad, *cross], axis=1)

    def hessians(rows, f):
        _require_finite(f[:, 1:5].ravel(), chart[rows, 1:5].reshape(-1, 2))
        _require_critical(f[:, 0], _central_diffs(f[:, 1:5], h[rows]), s[rows], t[rows], config)
        _require_finite(f[:, 5:].ravel(), chart[rows, 5:].reshape(-1, 2))
        return _mixed(*np.moveaxis(f[:, 5:].reshape(len(f), -1, 4), 2, 0), h2[rows, None])

    return chart, hessians


def _hess_b_matrices(values: Callable, s, t, config: NumericsConfig,
                     step: float | None = None) -> np.ndarray:
    """The matrices [hess_b(e_i, e_j)] (N, 2, 2) at the chart points (s[i], t[i])
    of the fields whose values on each point's stencil chart[i] are values(chart)."""
    chart, hessians = _hessian_stencils(s, t, _ENTRY_X, _ENTRY_Y, config, step)
    H = hessians(slice(None), values(chart))
    return _mat2(H[:, 0], H[:, 1], H[:, 1], H[:, 2])


def _one_point_values(field: Callable) -> Callable:
    """values(chart) of a field of one chart point on the stencil of a batch of
    one, calling the field once per stencil point. An exception at the centre
    escapes as it is; at another point it becomes EvaluationFailure there."""
    F = per_point(field, 1)
    return lambda chart: np.concatenate([[F(chart[0, 0])], _field_values(F, chart[0, 1:], finite=False)])[None]


def hess_b_at_critical(field: Callable, pg: PointGeometry, X, Y,
                       config: NumericsConfig = DEFAULT_CONFIG,
                       step: float | None = None) -> float:
    """hess_b of a surface function at a critical point, as X(Y(field)).

    field maps chart coordinates (s,t) to a real; X, Y are tangent 2-vectors.
    At a critical point the chart-coordinate second derivative equals the
    b-Hessian because the connection term is paired with the vanishing
    gradient. Criticality is checked by finite differences at config.fd_step
    and NotCritical is raised when it fails — elsewhere the dropped term would
    matter. An explicit (absolute) step sets only the second-derivative stencil.
    """
    X, Y = (np.asarray(v, dtype=float)[None] for v in (X, Y))
    chart, hessians = _hessian_stencils(np.array([pg.s]), np.array([pg.t]), X, Y, config, step)
    return float(hessians(slice(None), _one_point_values(field)(chart))[0, 0])


def hess_b_matrix(field: Callable, pg: PointGeometry,
                  config: NumericsConfig = DEFAULT_CONFIG,
                  step: float | None = None) -> np.ndarray:
    """The 2x2 matrix [hess_b(e_i, e_j)] in the chart basis, after one criticality test."""
    return _hess_b_matrices(_one_point_values(field), np.array([pg.s]), np.array([pg.t]), config, step)[0]


def _positions(surface: SurfacePatch, chart: np.ndarray) -> np.ndarray:
    """The surface points of the chart points chart (..., 2), from one position call."""
    return surface.position(chart[..., 0].ravel(), chart[..., 1].ravel()).reshape(chart.shape[:-1] + (3,))


def _tangent_plane_values(gb: GeometryBatch, surface: SurfacePatch, chart: np.ndarray) -> np.ndarray:
    """tangent_plane_distance_field of each point gb[i] at its chart points chart[i]: (N, m)."""
    return _dot(gb.p[:, None] - _positions(surface, chart), gb.xi[:, None]) / _require_pairing(gb)[:, None]


def _tangent_plane_gradients(gb: GeometryBatch, surface: SurfacePatch,
                             config: NumericsConfig) -> np.ndarray:
    """fd_gradient, at config.fd_step, of each point's tangent_plane_distance_field
    at the point: (N, 2)."""
    h, chart = gradient_stencil(_stack_last(gb.s, gb.t), config.fd_step)
    f = _tangent_plane_values(gb, surface, chart)
    _require_finite(f.ravel(), chart.reshape(-1, 2))
    return _central_diffs(f, h)


def _normal_line_hessians(norm: NormModel, surface: SurfacePatch, gb: GeometryBatch, V,
                          config: NumericsConfig = DEFAULT_CONFIG) -> Callable:
    """psi(rows, tt) = hess_b D_a(V, V) at the points gb[rows], for the base
    points a = p - tt eta on their normal lines: hess_b_at_critical of
    minkowski_distance_field, one row per point.

    D_a depends on tt only through a, so the 9 chart points of each point's
    stencil are placed on the surface once, here; each call of psi is one
    gauge evaluation of all its rows' stencils.
    """
    chart, hessians = _hessian_stencils(gb.s, gb.t, V[:, None], V[:, None], config)
    Q = _positions(surface, chart)

    def psi(rows, tt):
        A = gb.p[rows] - np.asarray(tt)[:, None] * gb.eta[rows]
        f = norm.gauge_value_rows((Q[rows] - A[:, None, :]).reshape(-1, 3)).reshape(len(A), -1)
        return hessians(rows, f)[:, 0]

    return psi


def affine_distance(g: PointGeometry | GeometryBatch, a) -> tuple[float | np.ndarray, np.ndarray]:
    """rho and the tangential component V of p - a = rho eta + V, at a
    PointGeometry (a float and a 2-vector) or at each point of a GeometryBatch
    (a: one base point, or one per point).

    V is a chart-basis 2-vector; the ambient residual of the decomposition is
    zero up to roundoff by construction.
    """
    a = np.asarray(a, dtype=float)
    rho = tangent_plane_distance(g, a)
    V_amb = (g.p - a) - np.asarray(rho)[..., None] * g.eta
    P = g.basis_matrix()
    Pt = np.swapaxes(P, -1, -2)
    return rho, np.linalg.solve(Pt @ P, Pt @ V_amb[..., None])[..., 0]


def decomposition_residual(pg: PointGeometry, a) -> float:
    """|(p - a) - rho eta - V_ambient|_2 for the computed decomposition."""
    rho, V = affine_distance(pg, a)
    return float(np.linalg.norm((pg.p - np.asarray(a, float)) - rho * pg.eta - pg.ambient(V)))


def _laplacians(gb: GeometryBatch, norm: NormModel, surface: SurfacePatch,
                A: np.ndarray, config: NumericsConfig) -> tuple[np.ndarray, np.ndarray]:
    """The nabla-Laplacian of rho at the points of gb, with base points A (one
    per point), and the two Gauss-splitting defects of each point.

    The 4 stencil points of all points are one geometry batch, and the Gauss
    splits one stacked guarded solve: a point whose frame [f_s, f_t, eta] has
    cond_2 above config.cond_guard raises NumericalFailure at its (s, t).
    """
    det_h = np.linalg.det(gb.h_mat)
    i = first_row(_near_singular(det_h, gb.h_mat, 1e-10))
    if i is not None:
        raise DegenerateH(f"affine fundamental form has rank < 2 at (s,t)=({gb.s[i]}, {gb.t[i]})")

    h, chart = gradient_stencil(_stack_last(gb.s, gb.t), config.fd_step)
    stencil = geometry_batch(norm, surface, chart[..., 0].ravel(), chart[..., 1].ravel(), config)
    _, V = affine_distance(stencil, np.repeat(A, 4, axis=0))
    # dw[:, :, k], the derivative of w along the k-th chart axis
    dw = np.swapaxes(_central_diffs(-stencil.ambient(V).reshape(len(gb), 4, 3), h), 1, 2)

    # Coefficients (alpha, beta, gamma) of dw = alpha f_s + beta f_t + gamma eta.
    M = _stack_last(gb.f_s, gb.f_t, gb.eta)
    abc = guarded_solve_rows(M, dw, config.cond_guard, list(zip(gb.s.tolist(), gb.t.tolist())))
    laplacian = abc[:, 0, 0] + abc[:, 1, 1]

    # Gauss-formula consistency: the stripped eta-components against h(e_i, w).
    _, V0 = affine_distance(gb, A)
    h_w0 = (gb.h_mat @ -V0[:, :, None])[:, :, 0]
    return laplacian, np.abs(abc[:, 2, :] - h_w0)


def nabla_laplacian_rho_details(norm: NormModel, surface: SurfacePatch, s: float, t: float,
                                a, config: NumericsConfig = DEFAULT_CONFIG) -> dict:
    """The nabla-Laplacian of rho at (s,t), with the Gauss-splitting diagnostics.

    The h-gradient field of rho is grad_h rho = -V; the Laplacian is the
    nabla-divergence of that field: differentiate the ambient field
    w(s,t) = -V_ambient(s,t) along f_s and f_t by central differences, project
    each derivative onto the tangent plane along eta, and take the trace of the
    resulting endomorphism. The eta-components stripped during projection equal
    h(e_i, w) by the Gauss formula; their mismatch is returned as a diagnostic.

    Requires the affine fundamental form to have rank 2 (DegenerateH). This is
    _laplacians on a batch of one.
    """
    gb = geometry_batch(norm, surface, [s], [t], config)
    lap, defects = _laplacians(gb, norm, surface, np.asarray(a, dtype=float)[None], config)
    return {"laplacian": float(lap[0]), "gauss_defects": tuple(defects[0].tolist()), "pg": gb[0]}


def nabla_laplacian_rho(norm: NormModel, surface: SurfacePatch, s: float, t: float,
                        a, config: NumericsConfig = DEFAULT_CONFIG) -> float:
    """Delta rho at (s,t); the contract is Delta rho = 2 (H rho - 1)."""
    return nabla_laplacian_rho_details(norm, surface, s, t, a, config)["laplacian"]


def distance_data(norm: NormModel, surface: SurfacePatch, s: float, t: float, a,
                  config: NumericsConfig = DEFAULT_CONFIG,
                  with_laplacian: bool = True,
                  probe: np.ndarray | None = None) -> DistanceData:
    """Assemble the DistanceData record at one point."""
    a = np.asarray(a, dtype=float)
    gb = geometry_batch(norm, surface, [s], [t], config)
    pg = gb[0]
    rho, V = affine_distance(pg, a)
    lap = None
    if with_laplacian:
        lap = float(_laplacians(gb, norm, surface, a[None], config)[0][0])
    g_value = g_grad = None
    if probe is not None:
        g_value = tangent_plane_distance(pg, probe)
        g_grad = -pg.xi / pg.pairing
    return DistanceData(
        base_point=a, rho=rho, V=V, grad_h_rho=-V, laplacian=lap,
        decomposition_residual=decomposition_residual(pg, a),
        g_value=g_value, g_grad=g_grad,
    )


def sphere_characterization_check(norm: NormModel, surface: SurfacePatch, a,
                                  grid: list[tuple[float, float]],
                                  config: NumericsConfig = DEFAULT_CONFIG) -> dict:
    """rho-spread and umbilicity defect over a grid.

    On a Minkowski sphere centered at a both vanish together; anywhere else the
    spread is strictly positive. Returns {"rho_spread", "max_umbilic_defect",
    "rho_min", "rho_max", "n_points"}.
    """
    s, t = np.asarray(grid, dtype=float).reshape(-1, 2).T
    gb = geometry_batch(norm, surface, s, t, config)
    rhos = tangent_plane_distance(gb, a)
    return {
        "rho_spread": float(rhos.max() - rhos.min()),
        "max_umbilic_defect": float(np.abs(gb.lambda1 - gb.lambda2).max(initial=0.0)),
        "rho_min": float(rhos.min()),
        "rho_max": float(rhos.max()),
        "n_points": len(gb),
    }
