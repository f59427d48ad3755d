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
NotCritical rather than silently dropping that term. The Laplacian of rho is
assembled from the explicit Gauss splitting D_X Y = nabla_X Y + h(X,Y) eta,
so no Christoffel symbols of b or nabla are ever formed. The Laplacian's
stencil points are evaluated as one geometry batch.
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
    _central_diffs,
    _cross_stencil,
    _dot,
    _mixed,
    _norm_rows,
    _require_finite,
    _stack_last,
    chart_stencil,
    fd_gradient,
    fd_second_directional,
    fd_second_directional_rows,
    first_row,
    guarded_solve_rows,
    per_point,
    relative_step,
)
from .surfaces import SurfacePatch


@dataclass(frozen=True, eq=False)
class DistanceData:
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


def _rho(g, a) -> np.ndarray:
    """<p - a, xi> / <eta, xi>: the eta-coefficient of p - a, of a PointGeometry,
    or of each point of a GeometryBatch (a: one base point, or one per point)."""
    return _dot(g.p - a, g.xi) / _require_pairing(g)


def tangent_plane_distance(pg: PointGeometry, q) -> float:
    """g(q): the eta-coefficient of p - q in the splitting R^3 = span(eta) + T_pM."""
    return float(_rho(pg, np.asarray(q, dtype=float)))


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


def _critical_chart_point(field: Callable, pg: PointGeometry,
                          config: NumericsConfig) -> np.ndarray:
    """(s, t) of pg, once a finite-difference test at config.fd_step has found
    it a critical point of field; NotCritical otherwise."""
    st = np.array([pg.s, pg.t])
    f0 = field(st)
    grad = fd_gradient(field, st, config.fd_step)
    _require_critical(np.array([f0]), grad[None], [pg.s], [pg.t], config)
    return st


def _require_critical(f0, grad, s, t, config: NumericsConfig) -> None:
    """The criticality test, on rows: NotCritical for the first point (s[i], t[i])
    whose field gradient grad[i] exceeds config.critical_tol * (1 + |f0[i]|)."""
    i = first_row(_norm_rows(grad) > config.critical_tol * (1.0 + np.abs(f0)))
    if i is not None:
        raise NotCritical(
            f"field gradient {grad[i]} at (s,t)=({s[i]}, {t[i]}) exceeds the critical "
            f"tolerance; hess_b would need the connection term here")


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
    st = _critical_chart_point(field, pg, config)
    h = relative_step(st, config.fd_step) if step is None else step
    return fd_second_directional(field, st, np.asarray(X, float), np.asarray(Y, float), step=h)


def hess_b_matrix(field: Callable, pg: PointGeometry,
                  config: NumericsConfig = DEFAULT_CONFIG,
                  step: float | None = None) -> np.ndarray:
    """The 2x2 matrix [hess_b(e_i, e_j)] in the chart basis, after one criticality test."""
    st = _critical_chart_point(field, pg, config)
    h = relative_step(st, config.fd_step) if step is None else step
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    h11, h12, h22 = fd_second_directional_rows(per_point(field, 1), np.tile(st, (3, 1)),
                                               np.array([e1, e1, e2]), np.array([e1, e2, e2]), h)
    return np.array([[h11, h12], [h12, h22]])


def _normal_line_hessians(norm: NormModel, surface: SurfacePatch, gb: GeometryBatch, V,
                          config: NumericsConfig = DEFAULT_CONFIG) -> Callable:
    """psi(rows, tt) = hess_b D_a(V, V) at the points gb[rows], for the base
    points a = p - tt eta on their normal lines: hess_b_at_critical of
    minkowski_distance_field, one row per point.

    D_a depends on tt only through a, so the 9 chart points of each point's
    stencil (the centre, the 4 gradient points, the 4 cross points along V)
    are placed on the surface once, here; each call of psi is one gauge
    evaluation of all its rows' stencils.
    """
    st = _stack_last(gb.s, gb.t)
    h = relative_step(st, config.fd_step)
    S, T = chart_stencil(gb.s, gb.t, h)
    chart = np.concatenate([st[:, None], _stack_last(S, T), _cross_stencil(st, V, V, h)], axis=1)
    Q = surface.position(chart[..., 0].ravel(), chart[..., 1].ravel()).reshape(len(gb), 9, 3)

    def psi(rows, tt):
        A = gb.p[rows] - np.asarray(tt)[:, None] * gb.eta[rows]
        f = norm.gauge_value_rows((Q[rows] - A[:, None, :]).reshape(-1, 3)).reshape(-1, 9)
        _require_finite(f[:, 1:5].ravel(), chart[rows, 1:5].reshape(-1, 2))
        grad = _central_diffs(f[:, 1:5], h[rows])
        _require_critical(f[:, 0], grad, gb.s[rows], gb.t[rows], config)
        _require_finite(f[:, 5:].ravel(), chart[rows, 5:].reshape(-1, 2))
        return _mixed(*f[:, 5:].T, h[rows])

    return psi


def _affine_distance(g, a) -> tuple[np.ndarray, np.ndarray]:
    """rho and V of p - a = rho eta + V, for a PointGeometry or each point of a GeometryBatch."""
    rho = _rho(g, a)
    V_amb = (g.p - a) - rho[..., None] * g.eta
    P = g.basis_matrix()
    Pt = np.swapaxes(P, -1, -2)
    return rho, np.linalg.solve(Pt @ P, Pt @ V_amb[..., None])[..., 0]


def affine_distance(pg: PointGeometry, a) -> tuple[float, np.ndarray]:
    """rho and the tangential component V of p - a = rho eta + V.

    V is returned as a chart-basis 2-vector; the ambient residual of the
    decomposition is zero up to roundoff by construction.
    """
    rho, V = _affine_distance(pg, np.asarray(a, dtype=float))
    return float(rho), V


def decomposition_residual(pg: PointGeometry, a) -> float:
    """|(p - a) - rho eta - V_ambient|_2 for the computed decomposition."""
    rho, V = affine_distance(pg, a)
    return float(np.linalg.norm((pg.p - np.asarray(a, float)) - rho * pg.eta - pg.ambient(V)))


def _laplacians(gb: GeometryBatch, norm: NormModel, surface: SurfacePatch,
                A: np.ndarray, config: NumericsConfig) -> tuple[np.ndarray, np.ndarray]:
    """The nabla-Laplacian of rho at the points of gb, with base points A (one
    per point), and the two Gauss-splitting defects of each point.

    The 4 stencil points of all points are one geometry batch, and the Gauss
    splits one stacked guarded solve.
    """
    det_h = np.linalg.det(gb.h_mat)
    i = first_row(np.abs(det_h) < 1e-10 * np.maximum(1.0, np.abs(gb.h_mat).max(axis=(1, 2)) ** 2))
    if i is not None:
        raise DegenerateH(f"affine fundamental form has rank < 2 at (s,t)=({gb.s[i]}, {gb.t[i]})")

    h = relative_step(_stack_last(gb.s, gb.t), config.fd_step)
    S, T = chart_stencil(gb.s, gb.t, h)
    stencil = geometry_batch(norm, surface, S.ravel(), T.ravel(), config)
    _, V = _affine_distance(stencil, np.repeat(A, 4, axis=0))
    w = -stencil.ambient(V).reshape(len(gb), 4, 3)
    h = h[:, None]
    dw = _stack_last((w[:, 0] - w[:, 1]) / (2 * h), (w[:, 2] - w[:, 3]) / (2 * h))

    # Coefficients (alpha, beta, gamma) of dw = alpha f_s + beta f_t + gamma eta.
    M = _stack_last(gb.f_s, gb.f_t, gb.eta)
    abc = guarded_solve_rows(M, dw, config.cond_guard, list(zip(gb.s.tolist(), gb.t.tolist())))
    laplacian = abc[:, 0, 0] + abc[:, 1, 1]

    # Gauss-formula consistency: the stripped eta-components against h(e_i, w).
    _, V0 = _affine_distance(gb, A)
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


def _rho_spread(gb: GeometryBatch, a) -> dict:
    """sphere_characterization_check over already computed point geometries."""
    rhos = _rho(gb, a)
    return {
        "rho_spread": float(rhos.max() - rhos.min()),
        "max_umbilic_defect": float(np.abs(gb.lambda1 - gb.lambda2).max(initial=0.0)),
        "rho_min": float(rhos.min()),
        "rho_max": float(rhos.max()),
        "n_points": len(gb),
    }


def sphere_characterization_check(norm: NormModel, surface: SurfacePatch, a,
                                  grid: list[tuple[float, float]],
                                  config: NumericsConfig = DEFAULT_CONFIG) -> dict:
    """rho-spread and umbilicity defect over a grid.

    On a Minkowski sphere centered at a both vanish together; anywhere else the
    spread is strictly positive. Returns {"rho_spread", "max_umbilic_defect",
    "rho_min", "rho_max", "n_points"}.
    """
    s, t = np.asarray(grid, dtype=float).reshape(-1, 2).T
    return _rho_spread(geometry_batch(norm, surface, s, t, config), np.asarray(a, dtype=float))
