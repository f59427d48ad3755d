"""The pointwise Minkowski curvature pipeline.

Given an admissible norm and an immersed patch, this module assembles at each
parameter point: the Euclidean normal xi, the Birkhoff normal eta = u(xi), the
matrix W of d(eta) in the chart basis, the affine fundamental form h, the Dupin
metric d and its weighted version b = d / <eta, xi>, the Minkowski principal
curvatures (eigenvalues of W), Gaussian and mean curvatures, principal
directions, and the derived quantities: normal curvature, Dupin indicatrix,
indicatrix averages, asymptotic directions, and the determinant formula for K.

Sign conventions: the chart orientation is chosen so xi points outward on the
convex built-ins; then <eta, xi> > 0, the affine fundamental form of a convex
surface is negative definite, and spheres of radius r have principal curvatures
+1/r. The normal curvature is k(X) = -h(X,X)/b(X,X), and W satisfies
b(W X, Y) = -h(X, Y), so the eigenproblem of W is the symmetric generalized
problem (-h) V = lambda b V — solved that way for guaranteed real output, with
the raw eigensolve kept available as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComplexEigenvalues, SingularMetric, ZeroDirection
from .norms import NormModel
from .numerics import (NumericsConfig, DEFAULT_CONFIG, _invert_2x2_spd, simpson_periodic_mean,
                       sym_generalized_eigen_2x2)
from .surfaces import SurfacePatch, evaluate_jet


@dataclass(frozen=True, eq=False)
class PointGeometry:
    """All pointwise geometric data of (norm, surface) at one parameter point.

    Tangent vectors are 2-vectors of coordinates in the chart basis
    (f_s, f_t); `ambient` converts to 3-vectors.
    """

    s: float
    t: float
    p: np.ndarray
    f_s: np.ndarray
    f_t: np.ndarray
    G: np.ndarray            # first fundamental form
    II: np.ndarray           # Euclidean second fundamental form <f_ij, xi>
    xi: np.ndarray           # Euclidean unit normal (per orientation)
    eta: np.ndarray          # Birkhoff normal, on the unit sphere of the norm
    pairing: float           # <eta, xi> > 0
    dxi_mat: np.ndarray      # Euclidean Weingarten matrix of d(xi) in the chart basis
    W: np.ndarray            # matrix of d(eta) in the chart basis
    h_mat: np.ndarray        # affine fundamental form
    d_mat: np.ndarray        # Dupin metric <du^{-1} ., .>
    b_mat: np.ndarray        # weighted Dupin metric d_mat / pairing
    lambda1: float           # Minkowski principal curvatures, lambda1 <= lambda2
    lambda2: float
    V1: np.ndarray           # principal directions, b-normalized 2-vectors
    V2: np.ndarray
    K: float                 # lambda1 * lambda2
    H: float                 # (lambda1 + lambda2) / 2
    umbilic: bool
    E: np.ndarray            # 3x2 orthonormal basis of the tangent plane
    M_du: np.ndarray         # matrix of du restricted to the tangent plane, in basis E
    flipped_eta: bool        # whether eta needed a sign flip to make pairing > 0
    selfadjoint_defect: float  # max-norm of b W + h, relative

    def ambient(self, X) -> np.ndarray:
        """Ambient 3-vector of a tangent 2-vector in the chart basis."""
        X = np.asarray(X, dtype=float)
        return X[0] * self.f_s + X[1] * self.f_t

    def basis_matrix(self) -> np.ndarray:
        return np.column_stack([self.f_s, self.f_t])


def _euclidean_frame(surface: SurfacePatch, s: float, t: float):
    """The Euclidean data at (s,t): jet, chart basis P, first form G, unit normal xi, II."""
    jet = evaluate_jet(surface, s, t)
    P = np.column_stack([jet.f_s, jet.f_t])
    n_raw = np.cross(jet.f_s, jet.f_t)
    xi = surface.orientation * n_raw / np.linalg.norm(n_raw)
    II = np.array([
        [jet.f_ss @ xi, jet.f_st @ xi],
        [jet.f_st @ xi, jet.f_tt @ xi],
    ])
    return jet, P, P.T @ P, xi, II


def point_geometry(norm: NormModel, surface: SurfacePatch, s: float, t: float,
                   config: NumericsConfig = DEFAULT_CONFIG) -> PointGeometry:
    """Assemble the full curvature data at (s,t)."""
    jet, P, G, xi, II = _euclidean_frame(surface, s, t)
    Ginv = _invert_2x2_spd(G, "first fundamental form")
    dxi_mat = -Ginv @ II

    eta = norm.birkhoff_point(xi)
    pairing = float(eta @ xi)
    flipped = pairing < 0.0
    if flipped:  # can only occur via a fallback path; re-orient once
        eta, pairing = -eta, -pairing

    # d(eta) = Hess h_B(xi) . d(xi) in the chart basis. P's columns lie in
    # xi-perp = span(E), so P = E EP and only the restriction M_du enters.
    E, M_du = norm.du_restricted(xi)
    EP = E.T @ P
    W = Ginv @ EP.T @ M_du @ EP @ dxi_mat

    h_mat = II / pairing

    M_inv = _invert_2x2_spd(M_du, "restricted dual Hessian")
    d_mat = EP.T @ M_inv @ EP
    d_mat = 0.5 * (d_mat + d_mat.T)
    b_mat = d_mat / pairing

    # b-self-adjointness of W: b W = -h exactly in exact arithmetic.
    defect_mat = b_mat @ W + h_mat
    scale = max(1.0, float(np.abs(h_mat).max()), float(np.abs(b_mat @ W).max()))
    defect = float(np.abs(defect_mat).max()) / scale
    if defect > 1e-3:
        raise ComplexEigenvalues(
            f"b-self-adjointness violated (relative defect {defect:.3e}); "
            "upstream jets are inconsistent")

    eigvals, vecs = sym_generalized_eigen_2x2(-h_mat, b_mat)
    lam1, lam2 = float(eigvals[0]), float(eigvals[1])
    V1, V2 = vecs[:, 0].copy(), vecs[:, 1].copy()

    umbilic = abs(lam1 - lam2) <= config.umbilic_tol * max(1.0, abs(lam1) + abs(lam2))

    return PointGeometry(
        s=float(s), t=float(t), p=jet.f, f_s=jet.f_s, f_t=jet.f_t, G=G, II=II,
        xi=xi, eta=eta, pairing=pairing, dxi_mat=dxi_mat, W=W, h_mat=h_mat,
        d_mat=d_mat, b_mat=b_mat, lambda1=lam1, lambda2=lam2, V1=V1, V2=V2,
        K=lam1 * lam2, H=0.5 * (lam1 + lam2), umbilic=umbilic, E=E, M_du=M_du,
        flipped_eta=flipped, selfadjoint_defect=defect,
    )


def _check_direction(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if not X.any():
        raise ZeroDirection("normal curvature of the zero direction is undefined")
    return X


def normal_curvature(pg: PointGeometry, X) -> float:
    """k(X) = -h(X,X)/b(X,X); homogeneous of degree 0 in X."""
    X = _check_direction(X)
    return float(-(X @ pg.h_mat @ X) / (X @ pg.b_mat @ X))


def normal_curvature_via_dupin(pg: PointGeometry, X) -> float:
    """The same quantity by its defining route <du^{-1}X, d(eta)X> / <du^{-1}X, X>.

    Kept separate from normal_curvature so the identity between the two
    expressions stays an executable fact rather than a definition.
    """
    X = _check_direction(X)
    WX = pg.W @ X
    return float((X @ pg.d_mat @ WX) / (X @ pg.d_mat @ X))


def dupin_indicatrix(pg: PointGeometry, theta: float) -> np.ndarray:
    """V(theta) = V1 cos(theta) + V2 sin(theta), d-orthonormalized.

    The returned tangent vector satisfies <du^{-1} V, V> = 1: it traces the
    unit circle of the Dupin metric.
    """
    V = np.cos(theta) * pg.V1 + np.sin(theta) * pg.V2
    return V / np.sqrt(pg.pairing)


def mean_by_indicatrix_average(pg: PointGeometry, nodes: int = 32) -> float:
    """(1/2pi) * integral of k(V(theta)) over the indicatrix, by composite Simpson.

    The integrand is a trigonometric polynomial of degree 2, so any even node
    count >= 8 is exact to roundoff; the contract is that this equals H.
    """
    thetas = 2.0 * np.pi * np.arange(nodes) / nodes
    samples = [normal_curvature(pg, dupin_indicatrix(pg, th)) for th in thetas]
    return simpson_periodic_mean(samples)


def dupin_orthogonal_pair_sum(pg: PointGeometry, theta0: float) -> float:
    """k(V(theta0)) + k(V(theta0 + pi/2)); contract: equals 2H for every theta0."""
    return (normal_curvature(pg, dupin_indicatrix(pg, theta0))
            + normal_curvature(pg, dupin_indicatrix(pg, theta0 + 0.5 * np.pi)))


def asymptotic_directions(pg: PointGeometry, zero_tol: float = 1e-10) -> list[np.ndarray]:
    """Directions X with h(X,X) = 0, equivalently k(X) = 0.

    Two when K < 0, one when exactly one principal curvature vanishes, none
    when K > 0. Returned b-normalized, as combinations of the principal
    directions: h(V(alpha), V(alpha)) = -(lambda1 cos²alpha + lambda2 sin²alpha).
    """
    lam1, lam2 = pg.lambda1, pg.lambda2
    scale = max(1.0, abs(lam1) + abs(lam2))
    z1, z2 = abs(lam1) <= zero_tol * scale, abs(lam2) <= zero_tol * scale
    if z1 and z2:
        return []  # flat point: h = 0 identically, no isolated directions
    if z1:
        return [pg.V1.copy()]
    if z2:
        return [pg.V2.copy()]
    if lam1 * lam2 > 0.0:
        return []
    alpha = np.arctan(np.sqrt(-lam1 / lam2))
    c, s_ = np.cos(alpha), np.sin(alpha)
    return [c * pg.V1 + s_ * pg.V2, c * pg.V1 - s_ * pg.V2]


def gaussian_by_determinants(pg: PointGeometry) -> float:
    """K as det(h) / det(b); basis-independent since both change by the same squared Jacobian."""
    det_b = float(np.linalg.det(pg.b_mat))
    if abs(det_b) < 1e-14 * max(1.0, float(np.abs(pg.b_mat).max()) ** 2):
        raise SingularMetric("weighted Dupin metric is numerically singular")
    return float(np.linalg.det(pg.h_mat)) / det_b


def weingarten_eigen_raw(pg: PointGeometry) -> np.ndarray:
    """Eigenvalues of W by a plain nonsymmetric solve — the cross-check route.

    Raises ComplexEigenvalues if the imaginary parts exceed roundoff scale.
    """
    vals = np.linalg.eigvals(pg.W)
    scale = max(1.0, float(np.abs(vals).max()))
    if np.abs(vals.imag).max() > 1e-7 * scale:
        raise ComplexEigenvalues(f"raw Weingarten eigenvalues are complex: {vals}")
    return np.sort(vals.real)
