"""Oriented immersed surface patches with second-order jets.

A patch is a single chart f(s,t) on a rectangle, with optional periodicity per
axis and a sign convention for the Euclidean normal (f_s x f_t, possibly
flipped). Built-in families cover the test surfaces used throughout:
Euclidean spheres, ellipsoids, graphs, tori, catenoids, and Minkowski spheres
parametrized through the Birkhoff map u of a norm.

Charts are value-level callables plus (for analytic patches) a jet callable
returning all first and second partials; finite-difference jets are available
for any chart given only positions. Charts and jets take arrays of
parameters and return one point per entry, so a whole grid is evaluated at
once (evaluate_jets); evaluate_jet is that evaluation on a batch of one. A
user's graph function of one point is adapted to arrays with per_point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateJet, InvalidParameter, OutOfDomain
from .norms import NormModel, _reject_unread_keys
from .numerics import (_Record, _central_diffs, _cross, _det, _dot, _hessian_layout, _norm_rows, _second_diffs,
                       _stack_last, check_jet_options, first_row, per_point)


@dataclass(init=False, repr=False, eq=False)
class SurfaceJet(_Record, frozen=True):
    """Second-order jet of a chart: 3-vectors at one parameter point, or (N, 3)
    arrays at N of them."""

    f: np.ndarray
    f_s: np.ndarray
    f_t: np.ndarray
    f_ss: np.ndarray
    f_st: np.ndarray
    f_tt: np.ndarray

    def __getitem__(self, rows) -> "SurfaceJet":
        """The jet at row i, or at the rows a slice or mask selects."""
        return SurfaceJet(self.f[rows], self.f_s[rows], self.f_t[rows],
                          self.f_ss[rows], self.f_st[rows], self.f_tt[rows])


@dataclass(init=False, repr=False, eq=False)
class SurfacePatch(_Record, frozen=True, eq=False):
    """A parametric immersion f: [s0,s1] x [t0,t1] -> R^3.

    position(s, t) and jet(s, t) take parameter arrays of shape (N,) and
    return (N, 3) points (a SurfaceJet of them); floats give one point.
    position is always available; jet is the analytic second-order jet and may
    be None, in which case (or when jet_source == "fd") central differences of
    position supply the derivatives (the chart of a gauge-only Minkowski
    sphere supplies its own; see minkowski_sphere). orientation multiplies the raw normal
    f_s x f_t; +1 keeps it, -1 flips it. jet_source must be "analytic" or
    "fd" and fd_step finite and positive.
    """

    name: str
    position: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jet: Optional[Callable[[np.ndarray, np.ndarray], SurfaceJet]]
    domain: tuple[float, float, float, float]  # s0, s1, t0, t1
    periodic: tuple[bool, bool] = (False, False)
    orientation: float = 1.0
    jet_source: str = "analytic"
    fd_step: float = 1e-5
    immersion_guard: float = 1e-10
    params: dict | None = None

    def __post_init__(self):
        check_jet_options(self.jet_source, self.fd_step)

    def wrap(self, s, t):
        """Wrap periodic coordinates into the domain; raise OutOfDomain otherwise.

        s, t are floats or arrays of one shape; the error names the first
        point outside, its s before its t.
        """
        s0, s1, t0, t1 = self.domain
        axes = []
        for name, x, lo, hi, per in (("s", s, s0, s1, self.periodic[0]),
                                     ("t", t, t0, t1, self.periodic[1])):
            x = np.asarray(x, dtype=float)
            if per:
                axes.append((name, lo + (x - lo) % (hi - lo), lo, hi, np.zeros(x.shape, bool)))
            else:
                axes.append((name, x, lo, hi, ~((lo - 1e-12 <= x) & (x <= hi + 1e-12))))
        i = first_row(np.ravel(axes[0][4] | axes[1][4]))
        if i is not None:
            name, x, lo, hi, _ = next(a for a in axes if np.ravel(a[4])[i])
            raise OutOfDomain(f"parameter {name}={float(np.ravel(x)[i])} outside [{lo}, {hi}]")
        return tuple(float(a[1]) if a[1].ndim == 0 else a[1] for a in axes)


def evaluate_jets(surface: SurfacePatch, s, t) -> SurfaceJet:
    """Second-order jets of the chart at the parameter arrays s, t, after periodic wrapping.

    Raises OutOfDomain outside the (wrapped) domain and DegenerateJet when
    |f_s x f_t| falls below the immersion guard, for the first such point.
    """
    return _normal_jets(surface, s, t)[0]


def _normal_jets(surface: SurfacePatch, s, t):
    """evaluate_jets, with the raw normals f_s x f_t, their lengths and the
    Birkhoff solve behind the jet (_chart_jet's)."""
    s, t = surface.wrap(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    jet, solve = _chart_jet(surface, s, t)
    n_raw = _cross(jet.f_s, jet.f_t)
    length = _norm_rows(n_raw)
    i = first_row(length < surface.immersion_guard)
    if i is not None:
        raise DegenerateJet(
            f"|f_s x f_t| < {surface.immersion_guard} at (s,t)=({float(s[i])}, {float(t[i])})")
    return jet, n_raw, length, solve


def _chart_jet(surface: SurfacePatch, s, t):
    """The chart's jet at s, t by jet_source's route: its own jet, _fd_jet of
    position, or the jet of a gauge-only Minkowski sphere's chart. The second
    value is that chart's Birkhoff solve (norm, U, E, M), else None."""
    if surface.jet is not None and surface.jet_source == "analytic":
        return surface.jet(s, t), None
    chart = getattr(surface.position, "_gauge_sphere", None)
    if chart is not None:
        return chart.jet(s, t)
    return _fd_jet(surface.position, s, t, surface.fd_step), None


def evaluate_jet(surface: SurfacePatch, s: float, t: float) -> SurfaceJet:
    """Second-order jet of the chart at (s,t): evaluate_jets on a batch of one."""
    return evaluate_jets(surface, [s], [t])[0]


def _fd_jet(position, s, t, step: float) -> SurfaceJet:
    """Central-difference second-order jet of a position-only chart.

    The stencil of every (s, t) is numerics' Hessian layout in the plane at
    the absolute step, the centre first, and numerics differences it.
    position is called once, on the 9 points of every (s, t), offset-major:
    all centres, then all (s + h, t), and so on.
    """
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    O = _hessian_layout(2)[0].reshape((9,) + (1,) * s.ndim + (2,))
    S, T = s + step * O[..., 0], t + step * O[..., 1]
    P = position(S.ravel(), T.ravel())
    # one stencil row, whose values carry the parameter grid as trailing axes
    f, h = np.asarray(P, dtype=float).reshape((1,) + S.shape + (-1,)), np.array([step])
    (f_s, f_t), H = _central_diffs(f[:, 1:5], h)[0], _second_diffs(f, h, 2)[0]
    return SurfaceJet(f[0, 0], f_s, f_t, H[0, 0], H[0, 1], H[1, 1])


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _unit_sphere(s, t):
    """The spherical-angle chart of the Euclidean unit sphere (s = polar, t = azimuth)."""
    return _stack_last(np.sin(s) * np.cos(t), np.sin(s) * np.sin(t), np.cos(s))


def _sphere_angle_jets(s, t):
    """Jet of the spherical-angle chart of the Euclidean unit sphere."""
    ss, cs, st_, ct = np.sin(s), np.cos(s), np.sin(t), np.cos(t)
    xi = _stack_last(ss * ct, ss * st_, cs)
    xi_s = _stack_last(cs * ct, cs * st_, -ss)
    xi_t = _stack_last(-ss * st_, ss * ct, 0.0)
    xi_ss = -xi
    xi_st = _stack_last(-cs * st_, cs * ct, 0.0)
    xi_tt = _stack_last(-ss * ct, -ss * st_, 0.0)
    return xi, xi_s, xi_t, xi_ss, xi_st, xi_tt


def euclidean_sphere(r: float, center=(0.0, 0.0, 0.0), jet_source: str = "analytic",
                     fd_step: float = 1e-5) -> SurfacePatch:
    """Round sphere of radius r in spherical angles (s = polar, t = azimuth).

    Outward Euclidean normal; poles s = 0, pi are chart degeneracies.
    """
    if r <= 0:
        raise InvalidParameter("sphere radius must be positive")
    c = np.asarray(center, dtype=float)

    def position(s, t):
        return c + r * _unit_sphere(s, t)

    def jet(s, t):
        e, e_s, e_t, e_ss, e_st, e_tt = _sphere_angle_jets(s, t)
        return SurfaceJet(c + r * e, r * e_s, r * e_t, r * e_ss, r * e_st, r * e_tt)

    return SurfacePatch("euclidean_sphere", position, jet, (0.0, np.pi, 0.0, 2 * np.pi),
                        (False, True), 1.0, jet_source, fd_step,
                        params={"r": r, "center": tuple(c)})


def ellipsoid(a: float, b: float, c: float, jet_source: str = "analytic",
              fd_step: float = 1e-5) -> SurfacePatch:
    """Ellipsoid x²/a² + y²/b² + z²/c² = 1 in spherical angles, outward normal."""
    if min(a, b, c) <= 0:
        raise InvalidParameter("ellipsoid semi-axes must be positive")
    axes = np.array([a, b, c])

    def position(s, t):
        return axes * _unit_sphere(s, t)

    def jet(s, t):
        return SurfaceJet(*(axes * e for e in _sphere_angle_jets(s, t)))

    return SurfacePatch("ellipsoid", position, jet, (0.0, np.pi, 0.0, 2 * np.pi),
                        (False, True), 1.0, jet_source, fd_step,
                        params={"a": a, "b": b, "c": c})


def graph(phi_jet: Callable[[float, float], tuple], domain=(-1.0, 1.0, -1.0, 1.0),
          jet_source: str = "analytic", fd_step: float = 1e-5,
          name: str = "graph", params: dict | None = None) -> SurfacePatch:
    """Graph surface (s, t, phi(s,t)).

    phi_jet(s,t) of one parameter point returns (phi, phi_s, phi_t, phi_ss,
    phi_st, phi_tt); it is adapted to parameter arrays with per_point. The
    normal (-phi_s, -phi_t, 1)/|..| points upward.
    """
    return _graph(per_point(phi_jet), domain, jet_source, fd_step, name, params)


def _graph(phi_jet, domain=(-1.0, 1.0, -1.0, 1.0), jet_source: str = "analytic",
           fd_step: float = 1e-5, name: str = "graph", params: dict | None = None) -> SurfacePatch:
    """graph for a phi_jet that takes parameter arrays."""
    s0, s1, t0, t1 = domain
    if not (s0 < s1 and t0 < t1):
        raise InvalidParameter(f"graph domain {list(domain)} needs s0 < s1 and t0 < t1")

    def position(s, t):
        return _stack_last(s, t, phi_jet(s, t)[0])

    def jet(s, t):
        p, ps, pt, pss, pst, ptt = phi_jet(s, t)
        zero = np.zeros(np.shape(s))
        return SurfaceJet(_stack_last(s, t, p), _stack_last(zero + 1.0, 0.0, ps),
                          _stack_last(zero, 1.0, pt), _stack_last(zero, 0.0, pss),
                          _stack_last(zero, 0.0, pst), _stack_last(zero, 0.0, ptt))

    return SurfacePatch(name, position, jet, tuple(float(v) for v in domain),
                        (False, False), 1.0, jet_source, fd_step, params=params or {})


def saddle(scale: float = 1.0, domain=(-1.0, 1.0, -1.0, 1.0), jet_source: str = "analytic",
           fd_step: float = 1e-5) -> SurfacePatch:
    """The saddle z = scale (s^2 - t^2); hyperbolic everywhere, H = 0 at the origin."""

    def phi_jet(s, t):
        return (scale * (s * s - t * t), 2 * scale * s, -2 * scale * t,
                2 * scale, 0.0, -2 * scale)

    return _graph(phi_jet, domain, jet_source, fd_step, name="saddle", params={"scale": scale})


def torus(R: float, r: float, jet_source: str = "analytic", fd_step: float = 1e-5) -> SurfacePatch:
    """Torus of revolution, tube radius r around a circle of radius R.

    s is the tube angle, t the axial angle; orientation -1 makes the normal
    point away from the tube center (outward on the outer equator).
    """
    if not (0 < r < R):
        raise InvalidParameter("torus needs 0 < r < R")

    def position(s, t):
        w = R + r * np.cos(s)
        return _stack_last(w * np.cos(t), w * np.sin(t), r * np.sin(s))

    def jet(s, t):
        cs, ss, ct, st_ = np.cos(s), np.sin(s), np.cos(t), np.sin(t)
        w = R + r * cs
        f = _stack_last(w * ct, w * st_, r * ss)
        f_s = _stack_last(-r * ss * ct, -r * ss * st_, r * cs)
        f_t = _stack_last(-w * st_, w * ct, 0.0)
        f_ss = _stack_last(-r * cs * ct, -r * cs * st_, -r * ss)
        f_st = _stack_last(r * ss * st_, -r * ss * ct, 0.0)
        f_tt = _stack_last(-w * ct, -w * st_, 0.0)
        return SurfaceJet(f, f_s, f_t, f_ss, f_st, f_tt)

    return SurfacePatch("torus", position, jet, (0.0, 2 * np.pi, 0.0, 2 * np.pi),
                        (True, True), -1.0, jet_source, fd_step, params={"R": R, "r": r})


def catenoid(c: float = 1.0, s_extent: float = 1.2, jet_source: str = "analytic",
             fd_step: float = 1e-5) -> SurfacePatch:
    """Catenoid x² + y² = c² cosh²(z/c): the classical Euclidean minimal surface."""
    if c <= 0:
        raise InvalidParameter("catenoid scale must be positive")

    def position(s, t):
        return _stack_last(c * np.cosh(s) * np.cos(t), c * np.cosh(s) * np.sin(t), c * s)

    def jet(s, t):
        ch, sh, ct, st_ = np.cosh(s), np.sinh(s), np.cos(t), np.sin(t)
        f = _stack_last(c * ch * ct, c * ch * st_, c * s)
        f_s = _stack_last(c * sh * ct, c * sh * st_, c)
        f_t = _stack_last(-c * ch * st_, c * ch * ct, 0.0)
        f_ss = _stack_last(c * ch * ct, c * ch * st_, 0.0)
        f_st = _stack_last(-c * sh * st_, c * sh * ct, 0.0)
        f_tt = _stack_last(-c * ch * ct, -c * ch * st_, 0.0)
        return SurfaceJet(f, f_s, f_t, f_ss, f_st, f_tt)

    return SurfacePatch("catenoid", position, jet, (-s_extent, s_extent, 0.0, 2 * np.pi),
                        (False, True), 1.0, jet_source, fd_step,
                        params={"c": c, "s_extent": s_extent})


def _sphere_jet(center, rho, jets, u, du, d2u) -> SurfaceJet:
    """The jet of the chart center + rho u(xi(s, t)) by the chain rule,
    f_i = rho du xi_i and f_ij = rho (d²u[xi_i, xi_j] + du xi_ij): jets are
    _sphere_angle_jets(s, t), u (N, 3) and du (N, 3, 3) the values at the N
    rows of xi, and d2u(a, b) the rows of d²u[a, b]."""
    xi, xi_s, xi_t, xi_ss, xi_st, xi_tt = (a.reshape(-1, 3) for a in jets)

    def d1(v):
        return (du @ v[:, :, None])[:, :, 0]

    f = center + rho * u
    f_s = rho * d1(xi_s)
    f_t = rho * d1(xi_t)
    f_ss = rho * (d2u(xi_s, xi_s) + d1(xi_ss))
    f_st = rho * (d2u(xi_s, xi_t) + d1(xi_st))
    f_tt = rho * (d2u(xi_t, xi_t) + d1(xi_tt))
    return SurfaceJet(*(a.reshape(jets[0].shape) for a in (f, f_s, f_t, f_ss, f_st, f_tt)))


class _GaugeSphereChart:
    """The chart center + rho u(xi(s, t)) of a Minkowski sphere of a norm
    without dual jets, the private mark its position callable carries as
    `_gauge_sphere`: _chart_jet takes the chart's jet, and the Newton solve
    behind it, from jet (see minkowski_sphere)."""

    __slots__ = ("norm", "center", "rho")

    def __init__(self, norm: NormModel, center: np.ndarray, rho: float):
        self.norm, self.center, self.rho = norm, center, rho

    def jet(self, s, t):
        """The chart's jet at s, t, and the solve (norm, U, E, M) at the rows of xi(s, t)."""
        jets = _sphere_angle_jets(s, t)
        xi = jets[0].reshape(-1, 3)
        U, E, M = self.norm.birkhoff_du_rows(xi)
        du = E @ M @ np.swapaxes(E, 1, 2)

        def d2u(a, b):
            """The normal part of d²u[a, b], -(a . du b) xi."""
            return -_dot(a, (du @ b[:, :, None])[:, :, 0])[:, None] * xi

        return _sphere_jet(self.center, self.rho, jets, U, du, d2u), (self.norm, U, E, M)


def minkowski_sphere(norm: NormModel, rho: float, center=(0.0, 0.0, 0.0),
                     jet_source: str | None = None, fd_step: float = 1e-5) -> SurfacePatch:
    """The Minkowski sphere S_rho(center) = {F(x - center) = rho} of a norm.

    Chart (s,t) -> center + rho * u(xi(s,t)) with xi the spherical-angle chart
    of the Euclidean unit sphere; by construction the Euclidean outer normal at
    the image point is xi(s,t). When the norm gives analytic dual jets through
    third order (has_analytic_dual_jets: its jets carry them and its jet_source
    is "analytic") the chart jet is analytic (u = grad h_B, du = Hess h_B,
    d²u = third), and jet_source None or "analytic" selects it; otherwise
    positions are exact, derivatives fall back to central differences under
    a norm with dual jets and to the chart below under one without, and
    jet_source "analytic" raises InvalidParameter.

    A norm without dual jets marks the chart with a _GaugeSphereChart, whose
    jet is one Newton solve per point, birkhoff_du_rows(xi): f = c + rho u,
    f_i = rho du xi_i, and f_ij = rho (du xi_ij - (xi_i . du xi_j) xi). The
    normal part of f_ij is exact, by Euler's relation for the degree-0
    gradient of h_B, D³h_B[xi, a, b] = -D²h_B[a, b]; its tangential part
    lacks that of d²u, a third derivative of h_B that a value-only gauge
    does not give. The patch's jet_source stays "fd". point_geometry under
    the same norm object, in the chart's orientation, takes eta, E and M_du
    from that solve. One point's geometry then takes about 66 gauge values
    on lp(4) and 41 on an ellipsoid gauge (130 and 101 with a 9-point FD
    stencil started at its centres' tangent predictor and eta solved again,
    576 and 332 with every solve from xi).
    """
    if rho <= 0:
        raise InvalidParameter("Minkowski sphere radius must be positive")
    c = np.asarray(center, dtype=float)

    def position(s, t):
        xi = _unit_sphere(s, t)
        return c + rho * norm.birkhoff_point_rows(xi.reshape(-1, 3)).reshape(xi.shape)

    if norm.dual is None:
        position._gauge_sphere = _GaugeSphereChart(norm, c, rho)

    analytic = norm.has_analytic_dual_jets
    if jet_source is None:
        jet_source = "analytic" if analytic else "fd"
    if jet_source == "analytic" and not analytic:
        raise InvalidParameter(f"jet_source 'analytic' needs analytic dual jets through third order, "
                               f"which the {norm.family} norm under jet_source {norm.jet_source!r} does not give")

    jet = None
    if analytic:
        def jet(s, t):
            jets = _sphere_angle_jets(s, t)
            xi = jets[0].reshape(-1, 3)
            T = norm.dual_third_rows(xi)
            return _sphere_jet(c, rho, jets, norm.dual_gradient_rows(xi), norm.dual_hessian_rows(xi),
                               lambda v, w: np.einsum("nijk,nj,nk->ni", T, v, w))

    return SurfacePatch("minkowski_sphere", position, jet, (0.0, np.pi, 0.0, 2 * np.pi),
                        (False, True), 1.0, jet_source, fd_step,
                        params={"rho": rho, "center": tuple(c), "norm_family": norm.family})


# ---------------------------------------------------------------------------
# transformations and sampling
# ---------------------------------------------------------------------------

def flip_orientation(surface: SurfacePatch) -> SurfacePatch:
    return replace(surface, orientation=-surface.orientation)


def reparametrize_linear(surface: SurfacePatch, L, offset=(0.0, 0.0)) -> SurfacePatch:
    """Precompose the chart with the affine map (s,t) -> L (s,t) + offset.

    For testing parametrization invariance: the new patch evaluates the old
    chart at mapped parameters with exact chain-rule jets. The caller is
    responsible for staying inside the original domain; domain checks are
    disabled (the nominal rectangle is huge and non-periodic).
    """
    L = np.asarray(L, dtype=float)
    off = np.asarray(offset, dtype=float)
    if abs(_det(L)) < 1e-14:
        raise InvalidParameter("reparametrization must be invertible")

    def mapped(s, t):
        v = (L @ _stack_last(s, t)[..., None])[..., 0] + off
        return v[..., 0], v[..., 1]

    def position(s, t):
        return surface.position(*mapped(s, t))

    def jet(s, t):
        J = _chart_jet(surface, *mapped(s, t))[0]
        a, b_ = L[0, 0], L[0, 1]
        c_, d = L[1, 0], L[1, 1]
        return SurfaceJet(
            f=J.f,
            f_s=a * J.f_s + c_ * J.f_t,
            f_t=b_ * J.f_s + d * J.f_t,
            f_ss=a * a * J.f_ss + 2 * a * c_ * J.f_st + c_ * c_ * J.f_tt,
            f_st=a * b_ * J.f_ss + (a * d + b_ * c_) * J.f_st + c_ * d * J.f_tt,
            f_tt=b_ * b_ * J.f_ss + 2 * b_ * d * J.f_st + d * d * J.f_tt,
        )

    big = 1e12
    return replace(surface, position=position, jet=jet, name=surface.name + "+linear",
                   domain=(-big, big, -big, big), periodic=(False, False))


def scale_surface(surface: SurfacePatch, lam: float) -> SurfacePatch:
    """The homothetic image lam * f(s,t) with exact jets."""

    def position(s, t):
        return lam * surface.position(s, t)

    base_jet = surface.jet

    def jet(s, t):
        J = base_jet(s, t)
        return SurfaceJet(lam * J.f, lam * J.f_s, lam * J.f_t,
                          lam * J.f_ss, lam * J.f_st, lam * J.f_tt)

    return replace(surface, position=position, jet=None if base_jet is None else jet,
                   name=f"{surface.name}*{lam}")


def grid_points(surface: SurfacePatch, ns: int, nt: int,
                margins: tuple[float, float] = (1e-3, 0.0)) -> list[tuple[float, float]]:
    """Row-major (s,t) sample grid.

    Non-periodic axes shrink by the margin at both ends (pole avoidance on
    spherical charts); periodic axes offset by the margin and omit the
    duplicate endpoint.
    """
    s0, s1, t0, t1 = surface.domain
    ms, mt = margins

    def axis(lo, hi, n, m, per):
        if per:
            return lo + m + (hi - lo) * np.arange(n) / n
        return np.linspace(lo + m, hi - m, n)

    svals = axis(s0, s1, ns, ms, surface.periodic[0])
    tvals = axis(t0, t1, nt, mt, surface.periodic[1])
    return [(float(s), float(t)) for s in svals for t in tvals]


def surface_from_spec(spec: dict, norm: NormModel | None = None) -> SurfacePatch:
    """Build a SurfacePatch from a CLI-config dictionary.

    Families: euclidean_sphere {r, center?}, ellipsoid {a, b, c},
    torus {R, r}, catenoid {c?, s_extent?}, saddle {scale?, domain?},
    minkowski_sphere {rho, center?} (uses the run's norm).
    Common optional fields: jet_source ("analytic" | "fd"), fd_step. A key
    that the family's constructor does not take is an InvalidParameter.
    """
    family = spec.get("family")
    build = {"euclidean_sphere": euclidean_sphere, "ellipsoid": ellipsoid, "torus": torus, "catenoid": catenoid,
             "saddle": saddle, "minkowski_sphere": minkowski_sphere}.get(family)
    if build is None:
        raise InvalidParameter(f"unknown surface family {family!r}")
    _reject_unread_keys(spec, build, "surface")
    jet_source = spec.get("jet_source", "analytic")
    fd_step = float(spec.get("fd_step", 1e-5))
    kw = {"jet_source": jet_source, "fd_step": fd_step}

    def required(key):
        if key not in spec:
            raise InvalidParameter(f"{family} surface spec needs field {key!r}")
        return float(spec[key])

    if family == "euclidean_sphere":
        return euclidean_sphere(required("r"), spec.get("center", (0, 0, 0)), **kw)
    if family == "ellipsoid":
        return ellipsoid(required("a"), required("b"), required("c"), **kw)
    if family == "torus":
        return torus(required("R"), required("r"), **kw)
    if family == "catenoid":
        return catenoid(float(spec.get("c", 1.0)), float(spec.get("s_extent", 1.2)), **kw)
    if family == "saddle":
        return saddle(float(spec.get("scale", 1.0)),
                      tuple(spec.get("domain", (-1.0, 1.0, -1.0, 1.0))), **kw)
    if norm is None:
        raise InvalidParameter("minkowski_sphere surface needs the run's norm")
    return minkowski_sphere(norm, required("rho"), spec.get("center", (0, 0, 0)),
                            jet_source=None if jet_source == "analytic" else jet_source, fd_step=fd_step)
