"""Oriented immersed surface patches with second-order jets.

A patch is a single chart f(s,t) on a rectangle, with optional periodicity per
axis and a sign convention for the Euclidean normal (f_s x f_t, possibly
flipped). Built-in families cover the test surfaces used throughout:
Euclidean spheres, ellipsoids, graphs, tori, catenoids, and Minkowski spheres
parametrized through the Birkhoff map u of a norm.

Charts are value-level callables plus (for analytic patches) a jet callable
returning all first and second partials; finite-difference jets are available
for any chart given only positions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateJet, InvalidParameter, OutOfDomain
from .norms import NormModel


@dataclass(frozen=True)
class SurfaceJet:
    """Second-order jet of a chart at one parameter point."""

    f: np.ndarray
    f_s: np.ndarray
    f_t: np.ndarray
    f_ss: np.ndarray
    f_st: np.ndarray
    f_tt: np.ndarray


@dataclass(frozen=True, eq=False)
class SurfacePatch:
    """A parametric immersion f: [s0,s1] x [t0,t1] -> R^3.

    position is always available; jet is the analytic second-order jet and may
    be None, in which case (or when jet_source == "fd") central differences of
    position supply the derivatives. orientation multiplies the raw normal
    f_s x f_t; +1 keeps it, -1 flips it.
    """

    name: str
    position: Callable[[float, float], np.ndarray]
    jet: Optional[Callable[[float, float], SurfaceJet]]
    domain: tuple[float, float, float, float]  # s0, s1, t0, t1
    periodic: tuple[bool, bool] = (False, False)
    orientation: float = 1.0
    jet_source: str = "analytic"
    fd_step: float = 1e-5
    immersion_guard: float = 1e-10
    params: dict | None = None

    def wrap(self, s: float, t: float) -> tuple[float, float]:
        """Wrap periodic coordinates into the domain; raise OutOfDomain otherwise."""
        s0, s1, t0, t1 = self.domain
        out = [s, t]
        for i, (x, lo, hi, per) in enumerate(((s, s0, s1, self.periodic[0]),
                                              (t, t0, t1, self.periodic[1]))):
            if per:
                out[i] = lo + (x - lo) % (hi - lo)
            elif not (lo - 1e-12 <= x <= hi + 1e-12):
                raise OutOfDomain(f"parameter {'st'[i]}={x} outside [{lo}, {hi}]")
        return out[0], out[1]


def evaluate_jet(surface: SurfacePatch, s: float, t: float) -> SurfaceJet:
    """Second-order jet of the chart at (s,t), after periodic wrapping.

    Raises OutOfDomain outside the (wrapped) domain and DegenerateJet when
    |f_s x f_t| falls below the immersion guard.
    """
    s, t = surface.wrap(s, t)
    if surface.jet is not None and surface.jet_source == "analytic":
        jet = surface.jet(s, t)
    else:
        jet = _fd_jet(surface.position, s, t, surface.fd_step)
    cross = np.cross(jet.f_s, jet.f_t)
    if np.linalg.norm(cross) < surface.immersion_guard:
        raise DegenerateJet(f"|f_s x f_t| < {surface.immersion_guard} at (s,t)=({s}, {t})")
    return jet


def _fd_jet(position, s: float, t: float, step: float) -> SurfaceJet:
    """Central-difference second-order jet of a position-only chart."""
    h = step
    f = np.asarray(position(s, t), dtype=float)
    fp_s = np.asarray(position(s + h, t), dtype=float)
    fm_s = np.asarray(position(s - h, t), dtype=float)
    fp_t = np.asarray(position(s, t + h), dtype=float)
    fm_t = np.asarray(position(s, t - h), dtype=float)
    fpp = np.asarray(position(s + h, t + h), dtype=float)
    fpm = np.asarray(position(s + h, t - h), dtype=float)
    fmp = np.asarray(position(s - h, t + h), dtype=float)
    fmm = np.asarray(position(s - h, t - h), dtype=float)
    return SurfaceJet(
        f=f,
        f_s=(fp_s - fm_s) / (2 * h),
        f_t=(fp_t - fm_t) / (2 * h),
        f_ss=(fp_s - 2 * f + fm_s) / h**2,
        f_tt=(fp_t - 2 * f + fm_t) / h**2,
        f_st=(fpp - fpm - fmp + fmm) / (4 * h**2),
    )


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _sphere_angle_jets(s: float, t: float):
    """Jet of the spherical-angle chart of the Euclidean unit sphere."""
    ss, cs, st_, ct = np.sin(s), np.cos(s), np.sin(t), np.cos(t)
    xi = np.array([ss * ct, ss * st_, cs])
    xi_s = np.array([cs * ct, cs * st_, -ss])
    xi_t = np.array([-ss * st_, ss * ct, 0.0])
    xi_ss = -xi
    xi_st = np.array([-cs * st_, cs * ct, 0.0])
    xi_tt = np.array([-ss * ct, -ss * st_, 0.0])
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
        return c + r * np.array([np.sin(s) * np.cos(t), np.sin(s) * np.sin(t), np.cos(s)])

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
        return axes * np.array([np.sin(s) * np.cos(t), np.sin(s) * np.sin(t), np.cos(s)])

    def jet(s, t):
        return SurfaceJet(*(axes * e for e in _sphere_angle_jets(s, t)))

    return SurfacePatch("ellipsoid", position, jet, (0.0, np.pi, 0.0, 2 * np.pi),
                        (False, True), 1.0, jet_source, fd_step,
                        params={"a": a, "b": b, "c": c})


def graph(phi_jet: Callable[[float, float], tuple], domain=(-1.0, 1.0, -1.0, 1.0),
          jet_source: str = "analytic", fd_step: float = 1e-5,
          name: str = "graph", params: dict | None = None) -> SurfacePatch:
    """Graph surface (s, t, phi(s,t)).

    phi_jet(s,t) returns (phi, phi_s, phi_t, phi_ss, phi_st, phi_tt); the
    normal (-phi_s, -phi_t, 1)/|..| points upward.
    """

    def position(s, t):
        return np.array([s, t, phi_jet(s, t)[0]])

    def jet(s, t):
        p, ps, pt, pss, pst, ptt = phi_jet(s, t)
        return SurfaceJet(
            np.array([s, t, p]),
            np.array([1.0, 0.0, ps]),
            np.array([0.0, 1.0, pt]),
            np.array([0.0, 0.0, pss]),
            np.array([0.0, 0.0, pst]),
            np.array([0.0, 0.0, ptt]),
        )

    return SurfacePatch(name, position, jet, tuple(float(v) for v in domain),
                        (False, False), 1.0, jet_source, fd_step, params=params or {})


def saddle(scale: float = 1.0, domain=(-1.0, 1.0, -1.0, 1.0), **kw) -> SurfacePatch:
    """The saddle z = scale (s^2 - t^2); hyperbolic everywhere, H = 0 at the origin."""

    def phi_jet(s, t):
        return (scale * (s * s - t * t), 2 * scale * s, -2 * scale * t,
                2 * scale, 0.0, -2 * scale)

    return graph(phi_jet, domain, name="saddle", params={"scale": scale}, **kw)


def torus(R: float, r: float, jet_source: str = "analytic", fd_step: float = 1e-5) -> SurfacePatch:
    """Torus of revolution, tube radius r around a circle of radius R.

    s is the tube angle, t the axial angle; orientation -1 makes the normal
    point away from the tube center (outward on the outer equator).
    """
    if not (0 < r < R):
        raise InvalidParameter("torus needs 0 < r < R")

    def position(s, t):
        w = R + r * np.cos(s)
        return np.array([w * np.cos(t), w * np.sin(t), r * np.sin(s)])

    def jet(s, t):
        cs, ss, ct, st_ = np.cos(s), np.sin(s), np.cos(t), np.sin(t)
        w = R + r * cs
        f = np.array([w * ct, w * st_, r * ss])
        f_s = np.array([-r * ss * ct, -r * ss * st_, r * cs])
        f_t = np.array([-w * st_, w * ct, 0.0])
        f_ss = np.array([-r * cs * ct, -r * cs * st_, -r * ss])
        f_st = np.array([r * ss * st_, -r * ss * ct, 0.0])
        f_tt = np.array([-w * ct, -w * st_, 0.0])
        return SurfaceJet(f, f_s, f_t, f_ss, f_st, f_tt)

    return SurfacePatch("torus", position, jet, (0.0, 2 * np.pi, 0.0, 2 * np.pi),
                        (True, True), -1.0, jet_source, fd_step, params={"R": R, "r": r})


def catenoid(c: float = 1.0, s_extent: float = 1.2, jet_source: str = "analytic",
             fd_step: float = 1e-5) -> SurfacePatch:
    """Catenoid x² + y² = c² cosh²(z/c): the classical Euclidean minimal surface."""
    if c <= 0:
        raise InvalidParameter("catenoid scale must be positive")

    def position(s, t):
        return np.array([c * np.cosh(s) * np.cos(t), c * np.cosh(s) * np.sin(t), c * s])

    def jet(s, t):
        ch, sh, ct, st_ = np.cosh(s), np.sinh(s), np.cos(t), np.sin(t)
        f = np.array([c * ch * ct, c * ch * st_, c * s])
        f_s = np.array([c * sh * ct, c * sh * st_, c])
        f_t = np.array([-c * ch * st_, c * ch * ct, 0.0])
        f_ss = np.array([c * ch * ct, c * ch * st_, 0.0])
        f_st = np.array([-c * sh * st_, c * sh * ct, 0.0])
        f_tt = np.array([-c * ch * ct, -c * ch * st_, 0.0])
        return SurfaceJet(f, f_s, f_t, f_ss, f_st, f_tt)

    return SurfacePatch("catenoid", position, jet, (-s_extent, s_extent, 0.0, 2 * np.pi),
                        (False, True), 1.0, jet_source, fd_step,
                        params={"c": c, "s_extent": s_extent})


def minkowski_sphere(norm: NormModel, rho: float, center=(0.0, 0.0, 0.0),
                     jet_source: str | None = None, fd_step: float = 1e-5) -> SurfacePatch:
    """The Minkowski sphere S_rho(center) = {F(x - center) = rho} of a norm.

    Chart (s,t) -> center + rho * u(xi(s,t)) with xi the spherical-angle chart
    of the Euclidean unit sphere; by construction the Euclidean outer normal at
    the image point is xi(s,t). When the norm carries analytic dual jets
    through third order the chart jet is analytic (u = grad h_B, du = Hess h_B,
    d²u = third); otherwise positions are exact and derivatives fall back to
    central differences.
    """
    if rho <= 0:
        raise InvalidParameter("Minkowski sphere radius must be positive")
    c = np.asarray(center, dtype=float)

    def position(s, t):
        xi = _sphere_angle_jets(s, t)[0]
        return c + rho * norm.birkhoff_point(xi)

    analytic = norm.has_analytic_dual_jets
    if jet_source is None:
        jet_source = "analytic" if analytic else "fd"

    jet = None
    if analytic:
        def jet(s, t):
            xi, xi_s, xi_t, xi_ss, xi_st, xi_tt = _sphere_angle_jets(s, t)
            u = norm.dual_gradient(xi)
            H = norm.dual_hessian(xi)
            T = norm.dual_third(xi)
            f = c + rho * u
            f_s = rho * (H @ xi_s)
            f_t = rho * (H @ xi_t)
            f_ss = rho * (np.einsum("ijk,j,k->i", T, xi_s, xi_s) + H @ xi_ss)
            f_st = rho * (np.einsum("ijk,j,k->i", T, xi_s, xi_t) + H @ xi_st)
            f_tt = rho * (np.einsum("ijk,j,k->i", T, xi_t, xi_t) + H @ xi_tt)
            return SurfaceJet(f, f_s, f_t, f_ss, f_st, f_tt)

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
    if abs(np.linalg.det(L)) < 1e-14:
        raise InvalidParameter("reparametrization must be invertible")

    def mapped(s, t):
        v = L @ np.array([s, t]) + off
        return float(v[0]), float(v[1])

    def position(s, t):
        return surface.position(*mapped(s, t))

    base_jet = surface.jet

    def jet(s, t):
        J = base_jet(*mapped(s, t)) if base_jet is not None else _fd_jet(
            surface.position, *mapped(s, t), surface.fd_step)
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
    Common optional fields: jet_source ("analytic" | "fd"), fd_step.
    """
    family = spec.get("family")
    jet_source = spec.get("jet_source", "analytic")
    fd_step = float(spec.get("fd_step", 1e-5))
    if jet_source not in ("analytic", "fd"):
        raise InvalidParameter(f"unknown jet_source {jet_source!r}")
    kw = {"jet_source": jet_source, "fd_step": fd_step}
    if family == "euclidean_sphere":
        return euclidean_sphere(float(spec["r"]), spec.get("center", (0, 0, 0)), **kw)
    if family == "ellipsoid":
        return ellipsoid(float(spec["a"]), float(spec["b"]), float(spec["c"]), **kw)
    if family == "torus":
        return torus(float(spec["R"]), float(spec["r"]), **kw)
    if family == "catenoid":
        return catenoid(float(spec.get("c", 1.0)), float(spec.get("s_extent", 1.2)), **kw)
    if family == "saddle":
        return saddle(float(spec.get("scale", 1.0)),
                      tuple(spec.get("domain", (-1.0, 1.0, -1.0, 1.0))), **kw)
    if family == "minkowski_sphere":
        if norm is None:
            raise InvalidParameter("minkowski_sphere surface needs the run's norm")
        return minkowski_sphere(norm, float(spec["rho"]), spec.get("center", (0, 0, 0)),
                                jet_source=None if jet_source == "analytic" else "fd",
                                fd_step=fd_step)
    raise InvalidParameter(f"unknown surface family {family!r}")
