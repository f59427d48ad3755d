"""Blaschke and affine-normal machinery.

For an immersion with transversal field eta, the induced volume form is
omega(X, Y) = det[X, Y, eta] and the h-volume is omega_h = |det h(X_i, X_j)|^{1/2};
the transversal field is a Blaschke structure when |omega| = omega_h. The
affine normal of an elliptic surface point decomposes over the Euclidean data
as K_e^{1/4} xi + Z with II(Z, X) = -X(K_e^{1/4}). Comparing the Birkhoff
normal field against the affine normal measures how far a norm is from being
Euclidean — the discrepancy vanishes identically only in the inner-product
case. Volume forms and affine normals are computed for many points at once,
from the frames a GeometryBatch holds; the functions of one point run the
same code on a batch of one; euclidean_gaussian takes floats or arrays.

The planar sibling: a closed convex curve's support function g makes the
position field an affine normal exactly when g'' + g = g^{-3} (Ermakov-Pinney),
equivalently when the Euclidean curvature equals g^3. Both residuals are
computed on periodic samples, with g'' in closed form where the support has
one (ellipses and circles) and spectral otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DegenerateH, NonConvexCurve, NonElliptic
from .geometry import GeometryBatch, _euclidean_frame, geometry_batch
from .norms import NormModel
from .numerics import (NumericsConfig, DEFAULT_CONFIG, _Record, _central_diffs, _det, _near_singular, _solve,
                       _stack_last, gradient_stencil, in_row_order)
from .surfaces import SurfacePatch


@dataclass(init=False, repr=False, eq=False)
class BlaschkeSample(_Record, frozen=True, eq=False):
    """Volume-form data of (norm, surface) at one point, transversal eta."""

    omega: float
    omega_h: float
    residual: float            # |omega| - omega_h
    ratio: float               # |omega| / omega_h  (basis-invariant)
    affine_normal: Optional[np.ndarray] = None
    discrepancy: Optional[float] = None  # |eta - affine_normal|_2


def euclidean_gaussian(surface: SurfacePatch, s, t) -> float | np.ndarray:
    """Euclidean Gaussian curvature det(II)/det(G); orientation-independent.
    A float at floats s, t; one value per point at parameter arrays."""
    _, _, G, _, II, _ = _euclidean_frame(surface, np.atleast_1d(s), np.atleast_1d(t))
    K_e = _det(II) / _det(G)
    return float(K_e[0]) if np.ndim(s) == 0 else K_e


def _volume_forms(gb: GeometryBatch):
    """omega = det[f_s, f_t, eta] and omega_h = |det h|^{1/2} of each point.

    Returns (omega, omega_h, degenerate), with degenerate the mask of the
    points where h is degenerate; omega_h is NaN there.
    """
    omega = _det(_stack_last(gb.f_s, gb.f_t, gb.eta))
    det_h = _det(gb.h_mat)
    degenerate = _near_singular(det_h, gb.h_mat, 1e-14)
    return omega, np.sqrt(np.abs(np.where(degenerate, np.nan, det_h))), degenerate


def _affine_normals(surface: SurfacePatch, s, t, P, G, xi, II,
                    config: NumericsConfig) -> tuple[np.ndarray, dict]:
    """The affine normals K_e^{1/4} xi + Z at points with Euclidean frames (P, G, xi, II).

    Z solves II(Z, X) = -X(K_e^{1/4}) for the chart directions X, which makes
    the derivative of the normal along X tangent, with II the Euclidean second
    fundamental form (the affine fundamental form of the transversal xi) and
    the right side computed by central differences of the Euclidean Gaussian
    curvature field at the 4 stencil points of every point. Those K_e are
    evaluated through numerics.in_row_order with each point's 4 stencil points
    in one call, as affine_normal evaluates them for that point alone, so an
    exception that escapes is the one a loop of affine_normal meets first.
    Returns the normals, NaN where there is none, and a map from those row
    indices to the NonElliptic or DegenerateH that a point meets first: K_e
    at the point, K_e at its stencil points in order, then det II.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    det_II = _det(II)
    K_e = det_II / _det(G)
    missing = {i: NonElliptic(f"K_e = {K_e[i]:.3e} <= 0 at (s,t)=({s[i]}, {t[i]}); "
                              "affine normal needs an elliptic point")
               for i in np.flatnonzero(K_e <= 0.0).tolist()}
    live = np.flatnonzero(K_e > 0.0)
    h, chart = gradient_stencil(_stack_last(s, t)[live], config.fd_step)
    S, T = chart[..., 0], chart[..., 1]
    k = (in_row_order(lambda rows: euclidean_gaussian(surface, S[rows].ravel(), T[rows].ravel()).reshape(-1, 4),
                      live.size) if live.size else np.empty((0, 4)))
    for r in np.flatnonzero((k <= 0.0).any(axis=1)).tolist():
        j = int(np.argmax(k[r] <= 0.0))
        missing[int(live[r])] = NonElliptic(f"K_e <= 0 in the stencil at (s,t)=({S[r, j]}, {T[r, j]})")
    kappa = np.where(k > 0.0, k, 1.0) ** 0.25
    d_kappa = _central_diffs(kappa, h)
    flat = _near_singular(det_II, II, 1e-14)
    for i in np.flatnonzero(flat).tolist():
        missing.setdefault(i, DegenerateH(f"second fundamental form degenerate at (s,t)=({s[i]}, {t[i]})"))
    normals = np.full((len(s), 3), np.nan)
    ok = np.array([i not in missing for i in live.tolist()], dtype=bool)
    i = live[ok]
    Z = _solve(II[i], -d_kappa[ok][:, :, None])[0]
    normals[i] = K_e[i, None] ** 0.25 * xi[i] + (P[i] @ Z)[:, :, 0]
    return normals, missing


def affine_normal(surface: SurfacePatch, s: float, t: float,
                  config: NumericsConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The affine normal K_e^{1/4} xi + Z at an elliptic point (_affine_normals
    on a batch of one); NonElliptic or DegenerateH where there is none."""
    _, P, G, xi, II, _ = _euclidean_frame(surface, [s], [t])
    normals, missing = _affine_normals(surface, [s], [t], P, G, xi, II, config)
    if missing:
        raise missing[0]
    return normals[0]


def _grid_affine_normals(gb: GeometryBatch, surface: SurfacePatch,
                         config: NumericsConfig) -> tuple[np.ndarray, dict]:
    """_affine_normals at the points of gb, whose Euclidean frames it holds."""
    return _affine_normals(surface, gb.s, gb.t, gb.basis_matrix(), gb.G, gb.xi, gb.II, config)


def _volume_sample(gb: GeometryBatch) -> BlaschkeSample:
    """The volume forms of a batch of one; DegenerateH where h is degenerate."""
    omega, omega_h, degenerate = _volume_forms(gb)
    if degenerate[0]:
        raise DegenerateH(f"affine fundamental form degenerate at (s,t)=({gb.s[0]}, {gb.t[0]})")
    omega, omega_h = float(omega[0]), float(omega_h[0])
    return BlaschkeSample(omega=omega, omega_h=omega_h,
                          residual=abs(omega) - omega_h, ratio=abs(omega) / omega_h)


def blaschke_residual(norm: NormModel, surface: SurfacePatch, s: float, t: float,
                      config: NumericsConfig = DEFAULT_CONFIG) -> BlaschkeSample:
    """omega, omega_h, their residual and ratio in the chart basis with transversal eta."""
    return _volume_sample(geometry_batch(norm, surface, [s], [t], config))


def blaschke_sample(norm: NormModel, surface: SurfacePatch, s: float, t: float,
                    config: NumericsConfig = DEFAULT_CONFIG) -> BlaschkeSample:
    """Full sample: volume forms plus the affine normal and its distance to eta."""
    gb = geometry_batch(norm, surface, [s], [t], config)
    sample = _volume_sample(gb)
    normals, missing = _grid_affine_normals(gb, surface, config)
    if missing:
        raise missing[0]
    return replace(sample, affine_normal=normals[0],
                   discrepancy=float(np.linalg.norm(gb.eta[0] - normals[0])))


# ---------------------------------------------------------------------------
# planar support functions
# ---------------------------------------------------------------------------

def spectral_second_derivative(samples: np.ndarray) -> np.ndarray:
    """g'' from uniform periodic samples by trigonometric differentiation."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    freqs = np.fft.rfftfreq(n, d=1.0 / n)  # 0, 1, 2, ... in cycles per period
    return np.fft.irfft(np.fft.rfft(samples) * -(freqs ** 2), n)


def planar_support_check(support, n: int = 2048) -> dict:
    """Residuals of the planar Blaschke condition for a support function.

    support: either a callable theta -> g(theta) (sampled at n uniform nodes)
    or an array of samples on a uniform [0, 2pi) grid. Returns the dict
    {r1, r2, r1_sup, r2_sup, n, thetas}: r1 = k_e - g^3 (curvature form) and
    r2 = g'' + g - g^{-3} (Ermakov-Pinney form). The two vanish together —
    they are the same condition through k_e^{-1} = g'' + g.
    A callable with a closed-form g'' (a second_derivative attribute, as
    ellipse_support gives) is evaluated on all nodes at once and its g'' is
    used; for other callables and for samples g'' is spectral.
    """
    second = getattr(support, "second_derivative", None)
    if callable(support):
        thetas = 2.0 * np.pi * np.arange(n) / n
        if second is None:
            g = np.array([float(support(th)) for th in thetas])
        else:
            g = np.asarray(support(thetas), dtype=float)
    else:
        g = np.asarray(support, dtype=float)
        n = g.size
        thetas = 2.0 * np.pi * np.arange(n) / n
    if g.min() <= 0.0:
        raise NonConvexCurve("support function must be strictly positive")
    g2 = spectral_second_derivative(g) if second is None else second(thetas)
    radius = g2 + g  # radius of curvature of the support-g curve
    if radius.min() <= 0.0:
        raise NonConvexCurve("g'' + g <= 0 somewhere: the curve is not strictly convex")
    k_e = 1.0 / radius
    r1 = k_e - g**3
    r2 = g2 + g - g**-3
    return {
        "r1": r1, "r2": r2,
        "r1_sup": float(np.abs(r1).max()), "r2_sup": float(np.abs(r2).max()),
        "n": int(n), "thetas": thetas,
    }


def ellipse_support(a: float, b: float) -> Callable[[float], float]:
    """Support function of the axis-aligned ellipse with semi-axes a, b; a = b
    is the circle of that radius.

    g(theta) is a float at one angle and an array at an array of angles.
    g.second_derivative(theta) is the closed form g'' = u''/(2g) - u'^2/(4ug)
    of u = g^2 = a^2 cos^2 theta + b^2 sin^2 theta, which planar_support_check
    uses in place of the spectral derivative. u is written m + d cos 2 theta,
    m = (a^2 + b^2)/2 and d = (a^2 - b^2)/2, so that a circle's g is its
    radius and its g'' is 0, exactly.
    """
    m, d = (a * a + b * b) / 2.0, (a * a - b * b) / 2.0

    def g(theta):
        value = np.sqrt(m + d * np.cos(2.0 * theta))
        return float(value) if np.ndim(theta) == 0 else value

    def second_derivative(theta):
        two = 2.0 * np.asarray(theta, dtype=float)
        u = m + d * np.cos(two)
        return -(2.0 * d * np.cos(two) + d * d * np.sin(two) ** 2 / u) / np.sqrt(u)

    g.second_derivative = second_derivative
    return g


def support_from_csv(path) -> np.ndarray:
    """Read (theta, g) pairs from a UTF-8 CSV file; require a uniform grid over
    [0, 2pi) starting at 0. Blank rows and rows starting with # are skipped,
    and the first other row may be a header; a file that cannot be read, any
    later non-numeric row and any row with a nan or an inf are ConfigErrors."""
    import csv  # here, so that a run without a support CSV does not load it

    thetas, values = [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = (row for row in csv.reader(fh) if row and not row[0].strip().startswith("#"))
            for k, row in enumerate(rows):
                if len(row) != 2:
                    raise ConfigError(f"support CSV rows must be 'theta,g'; got {row!r}")
                try:
                    theta, g = float(row[0]), float(row[1])
                except ValueError:
                    if k == 0:  # tolerate a single header row
                        continue
                    raise ConfigError(f"non-numeric support CSV row {row!r}")
                if not (math.isfinite(theta) and math.isfinite(g)):
                    raise ConfigError(f"non-finite support CSV row {row!r}")
                thetas.append(theta)
                values.append(g)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read support CSV: {exc}") from exc
    n = len(values)
    if n < 4:
        raise ConfigError("support CSV needs at least 4 samples")
    expected = 2.0 * np.pi * np.arange(n) / n
    if np.abs(np.asarray(thetas) - expected).max() > 1e-9:
        raise ConfigError("support CSV must sample theta uniformly over [0, 2pi) from 0")
    return np.asarray(values, dtype=float)
