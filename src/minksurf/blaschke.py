"""Blaschke and affine-normal machinery.

For an immersion with transversal field eta, the induced volume form is
omega(X, Y) = det[X, Y, eta] and the h-volume is omega_h = |det h(X_i, X_j)|^{1/2};
the transversal field is a Blaschke structure when |omega| = omega_h. The
affine normal of an elliptic surface point decomposes over the Euclidean data
as K_e^{1/4} xi + Z with II(Z, X) = X(K_e^{1/4}). Comparing the Birkhoff
normal field against the affine normal measures how far a norm is from being
Euclidean — the discrepancy vanishes identically only in the inner-product
case.

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
from .geometry import PointGeometry, _euclidean_frame, point_geometry
from .norms import NormModel
from .numerics import NumericsConfig, DEFAULT_CONFIG, relative_step
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


def euclidean_gaussian(surface: SurfacePatch, s: float, t: float) -> float:
    """Euclidean Gaussian curvature det(II)/det(G); orientation-independent."""
    _, _, G, _, II = _euclidean_frame(surface, s, t)
    return float(np.linalg.det(II) / np.linalg.det(G))


def _volume_forms(pg: PointGeometry) -> BlaschkeSample:
    """omega, omega_h, their residual and ratio in the chart basis with transversal eta."""
    omega = float(np.linalg.det(np.column_stack([pg.f_s, pg.f_t, pg.eta])))
    det_h = float(np.linalg.det(pg.h_mat))
    if abs(det_h) < 1e-14 * max(1.0, float(np.abs(pg.h_mat).max()) ** 2):
        raise DegenerateH(f"affine fundamental form degenerate at (s,t)=({pg.s}, {pg.t})")
    omega_h = float(np.sqrt(abs(det_h)))
    return BlaschkeSample(
        omega=omega, omega_h=omega_h,
        residual=abs(omega) - omega_h, ratio=abs(omega) / omega_h,
    )


def blaschke_residual(norm: NormModel, surface: SurfacePatch, s: float, t: float,
                      config: NumericsConfig = DEFAULT_CONFIG) -> BlaschkeSample:
    """omega, omega_h, their residual and ratio in the chart basis with transversal eta."""
    return _volume_forms(point_geometry(norm, surface, s, t, config))


def affine_normal(surface: SurfacePatch, s: float, t: float,
                  config: NumericsConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The affine normal K_e^{1/4} xi + Z at an elliptic point.

    Z solves II(Z, X) = X(K_e^{1/4}) for the chart directions X, with II the
    Euclidean second fundamental form (the affine fundamental form of the
    transversal xi) and the right side computed by central differences of the
    Euclidean Gaussian curvature field.
    """
    _, P, G, xi, II = _euclidean_frame(surface, s, t)
    det_II = float(np.linalg.det(II))
    K_e = det_II / float(np.linalg.det(G))
    if K_e <= 0.0:
        raise NonElliptic(f"K_e = {K_e:.3e} <= 0 at (s,t)=({s}, {t}); affine normal needs an elliptic point")

    def kappa(s_, t_):
        k = euclidean_gaussian(surface, s_, t_)
        if k <= 0.0:
            raise NonElliptic(f"K_e <= 0 in the stencil at (s,t)=({s_}, {t_})")
        return k ** 0.25

    h = relative_step((s, t), config.fd_step)
    d_kappa = np.array([
        (kappa(s + h, t) - kappa(s - h, t)) / (2 * h),
        (kappa(s, t + h) - kappa(s, t - h)) / (2 * h),
    ])
    if abs(det_II) < 1e-14 * max(1.0, float(np.abs(II).max()) ** 2):
        raise DegenerateH(f"second fundamental form degenerate at (s,t)=({s}, {t})")
    Z = np.linalg.solve(II, d_kappa)
    return K_e ** 0.25 * xi + P @ Z


def _affine_normal_sample(pg: PointGeometry, surface: SurfacePatch,
                          config: NumericsConfig) -> BlaschkeSample:
    """Volume forms of pg plus the affine normal and its distance to eta."""
    base = _volume_forms(pg)
    eta_aff = affine_normal(surface, pg.s, pg.t, config)
    return replace(base, affine_normal=eta_aff,
                   discrepancy=float(np.linalg.norm(pg.eta - eta_aff)))


def blaschke_sample(norm: NormModel, surface: SurfacePatch, s: float, t: float,
                    config: NumericsConfig = DEFAULT_CONFIG) -> BlaschkeSample:
    """Full sample: volume forms plus the affine normal and its distance to eta."""
    return _affine_normal_sample(point_geometry(norm, surface, s, t, config), surface, config)


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
