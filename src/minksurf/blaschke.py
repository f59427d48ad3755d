"""Blaschke and affine-normal machinery.

For an immersion with transversal field eta, the induced volume form is
omega(X, Y) = det[X, Y, eta] and the h-volume is omega_h = |det h(X_i, X_j)|^{1/2};
the transversal field is a Blaschke structure when |omega| = omega_h. The
affine normal of an elliptic surface point decomposes over the Euclidean data
as K_e^{1/4} xi + Z with II(Z, X) = X(K_e^{1/4}). Comparing the Birkhoff
normal field against the affine normal measures how far a norm is from being
Euclidean — the discrepancy vanishes identically only in the inner-product
case. Volume forms and affine normals are computed for many points at once,
from the frames a GeometryBatch holds; the functions of one point run the
same code on a batch of one.

The planar sibling: a closed convex curve's support function g makes the
position field an affine normal exactly when g'' + g = g^{-3} (Ermakov-Pinney),
equivalently when the Euclidean curvature equals g^3. Both residuals are
computed spectrally on periodic samples.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DegenerateH, NonConvexCurve, NonElliptic
from .geometry import GeometryBatch, _euclidean_frame, geometry_batch
from .norms import NormModel
from .numerics import NumericsConfig, DEFAULT_CONFIG, _stack_last, chart_stencil, relative_step
from .surfaces import SurfacePatch


@dataclass(frozen=True, eq=False)
class BlaschkeSample:
    """Volume-form data of (norm, surface) at one point, transversal eta."""

    omega: float
    omega_h: float
    residual: float            # |omega| - omega_h
    ratio: float               # |omega| / omega_h  (basis-invariant)
    affine_normal: Optional[np.ndarray] = None
    discrepancy: Optional[float] = None  # |eta - affine_normal|_2


def _gaussians(surface: SurfacePatch, s, t) -> np.ndarray:
    """Euclidean Gaussian curvatures det(II)/det(G) at the parameter arrays s, t."""
    _, _, G, _, II = _euclidean_frame(surface, s, t)
    return np.linalg.det(II) / np.linalg.det(G)


def euclidean_gaussian(surface: SurfacePatch, s: float, t: float) -> float:
    """Euclidean Gaussian curvature det(II)/det(G); orientation-independent."""
    return float(_gaussians(surface, [s], [t])[0])


def _volume_forms(gb: GeometryBatch):
    """omega = det[f_s, f_t, eta] and omega_h = |det h|^{1/2} of each point.

    Returns (omega, omega_h, degenerate), with degenerate the mask of the
    points where h is degenerate; omega_h is NaN there.
    """
    omega = np.linalg.det(_stack_last(gb.f_s, gb.f_t, gb.eta))
    det_h = np.linalg.det(gb.h_mat)
    degenerate = np.abs(det_h) < 1e-14 * np.maximum(1.0, np.abs(gb.h_mat).max(axis=(1, 2)) ** 2)
    return omega, np.sqrt(np.abs(np.where(degenerate, np.nan, det_h))), degenerate


def _stencil_gaussians(surface: SurfacePatch, S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """K_e at the stencil points S, T (one row of points per centre), in one call.

    When that call raises, the points are evaluated again one at a time in
    the per-point order, leaving the rest of a row once K_e <= 0 there, so
    the error raised is the one a per-point loop meets first.
    """
    try:
        return _gaussians(surface, S.ravel(), T.ravel()).reshape(S.shape)
    except Exception:
        for s_row, t_row in zip(S, T):
            for s_, t_ in zip(s_row, t_row):
                if _gaussians(surface, [s_], [t_])[0] <= 0.0:
                    break
        raise


def _affine_normals(surface: SurfacePatch, s, t, P, G, xi, II,
                    config: NumericsConfig) -> tuple[np.ndarray, dict]:
    """The affine normals K_e^{1/4} xi + Z at points with Euclidean frames (P, G, xi, II).

    Z solves II(Z, X) = X(K_e^{1/4}) for the chart directions X, with II the
    Euclidean second fundamental form (the affine fundamental form of the
    transversal xi) and the right side computed by central differences of the
    Euclidean Gaussian curvature field at the 4 stencil points of every point.
    Returns the normals, NaN where there is none, and a map from those row
    indices to the NonElliptic or DegenerateH that a point meets first: K_e
    at the point, K_e at its stencil points in order, then det II.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    det_II = np.linalg.det(II)
    K_e = det_II / np.linalg.det(G)
    missing = {i: NonElliptic(f"K_e = {K_e[i]:.3e} <= 0 at (s,t)=({s[i]}, {t[i]}); "
                              "affine normal needs an elliptic point")
               for i in np.flatnonzero(K_e <= 0.0).tolist()}
    live = np.flatnonzero(K_e > 0.0)
    h = relative_step(_stack_last(s, t)[live], config.fd_step)
    S, T = chart_stencil(s[live], t[live], h)
    k = _stencil_gaussians(surface, S, T) if live.size else np.empty((0, 4))
    for r in np.flatnonzero((k <= 0.0).any(axis=1)).tolist():
        j = int(np.argmax(k[r] <= 0.0))
        missing[int(live[r])] = NonElliptic(f"K_e <= 0 in the stencil at (s,t)=({S[r, j]}, {T[r, j]})")
    kappa = np.where(k > 0.0, k, 1.0) ** 0.25
    d_kappa = _stack_last((kappa[:, 0] - kappa[:, 1]) / (2 * h), (kappa[:, 2] - kappa[:, 3]) / (2 * h))
    flat = np.abs(det_II) < 1e-14 * np.maximum(1.0, np.abs(II).max(axis=(1, 2)) ** 2)
    for i in np.flatnonzero(flat).tolist():
        missing.setdefault(i, DegenerateH(f"second fundamental form degenerate at (s,t)=({s[i]}, {t[i]})"))
    normals = np.full((len(s), 3), np.nan)
    ok = np.array([i not in missing for i in live.tolist()], dtype=bool)
    i = live[ok]
    Z = np.linalg.solve(II[i], d_kappa[ok][:, :, None])
    normals[i] = K_e[i, None] ** 0.25 * xi[i] + (P[i] @ Z)[:, :, 0]
    return normals, missing


def affine_normal(surface: SurfacePatch, s: float, t: float,
                  config: NumericsConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The affine normal K_e^{1/4} xi + Z at an elliptic point (_affine_normals
    on a batch of one); NonElliptic or DegenerateH where there is none."""
    _, P, G, xi, II = _euclidean_frame(surface, [s], [t])
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
    """
    if callable(support):
        thetas = 2.0 * np.pi * np.arange(n) / n
        g = np.array([float(support(th)) for th in thetas])
    else:
        g = np.asarray(support, dtype=float)
        n = g.size
        thetas = 2.0 * np.pi * np.arange(n) / n
    if g.min() <= 0.0:
        raise NonConvexCurve("support function must be strictly positive")
    g2 = spectral_second_derivative(g)
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
    """Support function of the axis-aligned ellipse with semi-axes a, b."""

    def g(theta):
        return float(np.sqrt((a * np.cos(theta)) ** 2 + (b * np.sin(theta)) ** 2))

    return g


def support_from_csv(path) -> np.ndarray:
    """Read (theta, g) pairs; require a uniform grid over [0, 2pi) starting at 0."""
    thetas, values = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) != 2:
                raise ConfigError(f"support CSV rows must be 'theta,g'; got {row!r}")
            try:
                thetas.append(float(row[0]))
                values.append(float(row[1]))
            except ValueError:
                if not thetas:  # tolerate a single header row
                    continue
                raise ConfigError(f"non-numeric support CSV row {row!r}")
    n = len(values)
    if n < 4:
        raise ConfigError("support CSV needs at least 4 samples")
    expected = 2.0 * np.pi * np.arange(n) / n
    if np.abs(np.asarray(thetas) - expected).max() > 1e-9:
        raise ConfigError("support CSV must sample theta uniformly over [0, 2pi) from 0")
    return np.asarray(values, dtype=float)
