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
so no Christoffel symbols of b or nabla are ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateH, DegeneratePairing, NotCritical
from .geometry import PointGeometry, point_geometry
from .norms import NormModel
from .numerics import (
    NumericsConfig,
    DEFAULT_CONFIG,
    fd_gradient,
    fd_second_directional,
    guarded_solve,
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


def _require_pairing(pg: PointGeometry) -> float:
    if abs(pg.pairing) < 1e-14:
        raise DegeneratePairing("<eta, xi> vanished; transversal decomposition undefined")
    return pg.pairing


def tangent_plane_distance(pg: PointGeometry, q) -> float:
    """g(q): the eta-coefficient of p - q in the splitting R^3 = span(eta) + T_pM."""
    q = np.asarray(q, dtype=float)
    return float((pg.p - q) @ pg.xi) / _require_pairing(pg)


def tangent_plane_distance_field(pg: PointGeometry, surface: SurfacePatch) -> Callable:
    """g restricted to the surface, as a chart-coordinate field (s,t) -> g(f(s,t)).

    The anchored point pg.p is a critical point of this field (the classical
    first-variation argument: f_s, f_t are xi(p)-orthogonal at p).
    """
    p, xi, pairing = pg.p, pg.xi, _require_pairing(pg)

    def field(st):
        q = surface.position(float(st[0]), float(st[1]))
        return float((p - q) @ xi) / pairing

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
    st = np.array([pg.s, pg.t])
    f0 = field(st)
    grad = fd_gradient(field, st, config.fd_step)
    if np.linalg.norm(grad) > config.critical_tol * (1.0 + abs(f0)):
        raise NotCritical(
            f"field gradient {grad} at (s,t)=({pg.s}, {pg.t}) exceeds the critical "
            f"tolerance; hess_b would need the connection term here")
    h = relative_step(st, config.fd_step) if step is None else step
    return fd_second_directional(field, st, np.asarray(X, float), np.asarray(Y, float), step=h)


def hess_b_matrix(field: Callable, pg: PointGeometry,
                  config: NumericsConfig = DEFAULT_CONFIG,
                  step: float | None = None) -> np.ndarray:
    """The 2x2 matrix [hess_b(e_i, e_j)] in the chart basis."""
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    h11 = hess_b_at_critical(field, pg, e1, e1, config, step)
    h12 = hess_b_at_critical(field, pg, e1, e2, config, step)
    h22 = hess_b_at_critical(field, pg, e2, e2, config, step)
    return np.array([[h11, h12], [h12, h22]])


def affine_distance(pg: PointGeometry, a) -> tuple[float, np.ndarray]:
    """rho and the tangential component V of p - a = rho eta + V.

    V is returned as a chart-basis 2-vector; the ambient residual of the
    decomposition is zero up to roundoff by construction.
    """
    a = np.asarray(a, dtype=float)
    pairing = _require_pairing(pg)
    w = pg.p - a
    rho = float(w @ pg.xi) / pairing
    V_amb = w - rho * pg.eta
    P = pg.basis_matrix()
    V = np.linalg.solve(P.T @ P, P.T @ V_amb)
    return rho, V


def decomposition_residual(pg: PointGeometry, a) -> float:
    """|(p - a) - rho eta - V_ambient|_2 for the computed decomposition."""
    rho, V = affine_distance(pg, a)
    return float(np.linalg.norm((pg.p - np.asarray(a, float)) - rho * pg.eta - pg.ambient(V)))


def _gauss_split(pg: PointGeometry, w_deriv, cond_guard):
    """Coefficients (alpha, beta, gamma) of w_deriv = alpha f_s + beta f_t + gamma eta."""
    M = np.column_stack([pg.f_s, pg.f_t, pg.eta])
    return guarded_solve(M, w_deriv, cond_guard, location=(pg.s, pg.t))


def _laplacian_details(pg: PointGeometry, norm: NormModel, surface: SurfacePatch,
                       a, config: NumericsConfig) -> dict:
    """nabla_laplacian_rho_details around the centre point's geometry pg."""
    s, t = pg.s, pg.t
    det_h = float(np.linalg.det(pg.h_mat))
    if abs(det_h) < 1e-10 * max(1.0, float(np.abs(pg.h_mat).max()) ** 2):
        raise DegenerateH(f"affine fundamental form has rank < 2 at (s,t)=({s}, {t})")

    def w_ambient(s_, t_):
        pg_ = point_geometry(norm, surface, s_, t_, config)
        rho_, V_ = affine_distance(pg_, a)
        return -pg_.ambient(V_)

    h = relative_step((s, t), config.fd_step)
    dw_s = (w_ambient(s + h, t) - w_ambient(s - h, t)) / (2 * h)
    dw_t = (w_ambient(s, t + h) - w_ambient(s, t - h)) / (2 * h)

    abc_s = _gauss_split(pg, dw_s, config.cond_guard)
    abc_t = _gauss_split(pg, dw_t, config.cond_guard)
    laplacian = float(abc_s[0] + abc_t[1])

    # Gauss-formula consistency: the stripped eta-components against h(e_i, w).
    _, V0 = affine_distance(pg, a)
    w0 = -V0
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    gauss_defects = (
        abs(float(abc_s[2]) - float(e1 @ pg.h_mat @ w0)),
        abs(float(abc_t[2]) - float(e2 @ pg.h_mat @ w0)),
    )
    return {"laplacian": laplacian, "gauss_defects": gauss_defects, "pg": pg}


def nabla_laplacian_rho_details(norm: NormModel, surface: SurfacePatch, s: float, t: float,
                                a, config: NumericsConfig = DEFAULT_CONFIG) -> dict:
    """The nabla-Laplacian of rho at (s,t), with the Gauss-splitting diagnostics.

    The h-gradient field of rho is grad_h rho = -V; the Laplacian is the
    nabla-divergence of that field: differentiate the ambient field
    w(s,t) = -V_ambient(s,t) along f_s and f_t by central differences, project
    each derivative onto the tangent plane along eta, and take the trace of the
    resulting endomorphism. The eta-components stripped during projection equal
    h(e_i, w) by the Gauss formula; their mismatch is returned as a diagnostic.

    Requires the affine fundamental form to have rank 2 (DegenerateH).
    """
    return _laplacian_details(point_geometry(norm, surface, s, t, config), norm, surface, a, config)


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
    pg = point_geometry(norm, surface, s, t, config)
    rho, V = affine_distance(pg, a)
    lap = None
    if with_laplacian:
        lap = _laplacian_details(pg, norm, surface, a, config)["laplacian"]
    g_value = g_grad = None
    if probe is not None:
        g_value = tangent_plane_distance(pg, probe)
        g_grad = -pg.xi / pg.pairing
    return DistanceData(
        base_point=a, rho=rho, V=V, grad_h_rho=-V, laplacian=lap,
        decomposition_residual=decomposition_residual(pg, a),
        g_value=g_value, g_grad=g_grad,
    )


def _rho_spread(geoms: list[PointGeometry], a) -> dict:
    """sphere_characterization_check over already computed point geometries."""
    rhos = np.array([affine_distance(pg, a)[0] for pg in geoms])
    defect = max((abs(pg.lambda1 - pg.lambda2) for pg in geoms), default=0.0)
    return {
        "rho_spread": float(rhos.max() - rhos.min()),
        "max_umbilic_defect": float(defect),
        "rho_min": float(rhos.min()),
        "rho_max": float(rhos.max()),
        "n_points": len(geoms),
    }


def sphere_characterization_check(norm: NormModel, surface: SurfacePatch, a,
                                  grid: list[tuple[float, float]],
                                  config: NumericsConfig = DEFAULT_CONFIG) -> dict:
    """rho-spread and umbilicity defect over a grid.

    On a Minkowski sphere centered at a both vanish together; anywhere else the
    spread is strictly positive. Returns {"rho_spread", "max_umbilic_defect",
    "rho_min", "rho_max", "n_points"}.
    """
    return _rho_spread([point_geometry(norm, surface, s, t, config) for (s, t) in grid], a)
