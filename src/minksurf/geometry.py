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

The pipeline runs on arrays: geometry_batch evaluates a whole set of points
at once into a GeometryBatch (struct of arrays), and point_geometry is that
evaluation on a batch of one. Each derived quantity is one function of a
PointGeometry (a float) or of a GeometryBatch (one value per point, bit for
bit as at each point alone), which the checks call too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, make_dataclass

import numpy as np

from .errors import ComplexEigenvalues, NewtonDivergence, SingularMetric, ZeroDirection
from .norms import NormModel
from .numerics import (NumericsConfig, DEFAULT_CONFIG, _Record, _det, _dot, _invert_2x2_spd, _mat2, _near_singular,
                       _stack_last, _value_or_rows, first_row, in_row_order, simpson_periodic_mean,
                       sym_generalized_eigen_2x2)
from .surfaces import SurfacePatch, _normal_jets


@dataclass(init=False, repr=False, eq=False)
class PointGeometry(_Record, frozen=True, eq=False):
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
        """Ambient 3-vector of a tangent 2-vector in the chart basis (of each
        row of X, with one point per row, in a GeometryBatch)."""
        X = np.asarray(X, dtype=float)
        return X[..., :1] * self.f_s + X[..., 1:] * self.f_t

    def basis_matrix(self) -> np.ndarray:
        """The 3x2 chart basis [f_s, f_t] (one per point in a GeometryBatch)."""
        return _stack_last(self.f_s, self.f_t)


_FIELDS = tuple(f.name for f in fields(PointGeometry))


class _Batch(_Record, frozen=True, eq=False):
    """The fields of PointGeometry at N points, as arrays whose first axis indexes the points.

    batch[i] is the PointGeometry of point i; batch[rows], for a slice, a
    mask or an index array, is the GeometryBatch of those points.
    """

    ambient = PointGeometry.ambient
    basis_matrix = PointGeometry.basis_matrix

    def __len__(self) -> int:
        return len(self.s)

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            values = (getattr(self, name)[rows] for name in _FIELDS)
            return PointGeometry(*(v.item() if v.ndim == 0 else v for v in values))
        return GeometryBatch(*(getattr(self, name)[rows] for name in _FIELDS))


# One array field per PointGeometry field, in its order.
GeometryBatch = make_dataclass("GeometryBatch", [(name, np.ndarray) for name in _FIELDS], bases=(_Batch,),
                               namespace={"__module__": __name__, "__doc__": _Batch.__doc__},
                               init=False, repr=False, eq=False)


def _euclidean_frame(surface: SurfacePatch, s, t):
    """The Euclidean data at the parameter arrays s, t: jets, chart bases P,
    first forms G, unit normals xi and second forms II, one row per point,
    and the Birkhoff solve behind the jets (surfaces._chart_jet's)."""
    jet, n_raw, length, solve = _normal_jets(surface, s, t)
    P = _stack_last(jet.f_s, jet.f_t)
    xi = surface.orientation * n_raw / length[:, None]
    f_st_xi = _dot(jet.f_st, xi)
    II = _mat2(_dot(jet.f_ss, xi), f_st_xi, f_st_xi, _dot(jet.f_tt, xi))
    return jet, P, np.swapaxes(P, 1, 2) @ P, xi, II, solve


def _T(A: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack."""
    return np.swapaxes(A, -1, -2)


def _geometry_rows(norm: NormModel, surface: SurfacePatch, s: np.ndarray, t: np.ndarray,
                   config: NumericsConfig) -> GeometryBatch:
    """The curvature data at the parameter arrays s, t, as one array computation."""
    try:
        # the chart of a gauge-only sphere is a Newton solve too
        jet, P, G, xi, II, solve = _euclidean_frame(surface, s, t)
        Ginv = _invert_2x2_spd(G, "first fundamental form")
        dxi_mat = -Ginv @ II
        # on a gauge-only sphere of norm, in its own orientation, eta = u(xi) is the chart's own solve
        if solve is not None and solve[0] is norm and surface.orientation == 1.0:
            eta, E, M_du = solve[1:]
        else:
            eta, E, M_du = norm.birkhoff_du_rows(xi)
    except NewtonDivergence as exc:
        if len(s) != 1:
            raise  # geometry_batch runs the rows again, one at a time
        location = (float(s[0]), float(t[0]))
        raise NewtonDivergence(f"{exc} at (s,t)=({location[0]}, {location[1]})", location) from exc
    pairing = _dot(eta, xi)
    flipped = pairing < 0.0
    # a flip can only occur via a fallback path; re-orient once
    eta = np.where(flipped[:, None], -eta, eta)
    pairing = np.where(flipped, -pairing, pairing)

    # d(eta) = Hess h_B(xi) . d(xi) in the chart basis. P's columns lie in
    # xi-perp = span(E), so P = E EP and only the restriction M_du enters.
    EP = _T(E) @ P
    W = Ginv @ _T(EP) @ M_du @ EP @ dxi_mat

    h_mat = II / pairing[:, None, None]

    M_inv = _invert_2x2_spd(M_du, "restricted dual Hessian")
    d_mat = _T(EP) @ M_inv @ EP
    d_mat = 0.5 * (d_mat + _T(d_mat))
    b_mat = d_mat / pairing[:, None, None]

    # b-self-adjointness of W: b W = -h exactly in exact arithmetic.
    bW = b_mat @ W
    scale = np.maximum(np.maximum(1.0, np.abs(h_mat).max(axis=(1, 2))), np.abs(bW).max(axis=(1, 2)))
    defect = np.abs(bW + h_mat).max(axis=(1, 2)) / scale
    i = first_row(defect > 1e-3)
    if i is not None:
        raise ComplexEigenvalues(
            f"b-self-adjointness violated (relative defect {defect[i]:.3e}); "
            "upstream jets are inconsistent")

    eigvals, vecs = sym_generalized_eigen_2x2(-h_mat, b_mat)
    lam1, lam2 = eigvals[:, 0], eigvals[:, 1]
    umbilic = np.abs(lam1 - lam2) <= config.umbilic_tol * np.maximum(1.0, np.abs(lam1) + np.abs(lam2))

    return GeometryBatch(
        s=s, t=t, p=jet.f, f_s=jet.f_s, f_t=jet.f_t, G=G, II=II,
        xi=xi, eta=eta, pairing=pairing, dxi_mat=dxi_mat, W=W, h_mat=h_mat,
        d_mat=d_mat, b_mat=b_mat, lambda1=lam1, lambda2=lam2, V1=vecs[:, :, 0], V2=vecs[:, :, 1],
        K=lam1 * lam2, H=0.5 * (lam1 + lam2), umbilic=umbilic, E=E, M_du=M_du,
        flipped_eta=flipped, selfadjoint_defect=defect,
    )


def geometry_batch(norm: NormModel, surface: SurfacePatch, s, t,
                   config: NumericsConfig = DEFAULT_CONFIG) -> GeometryBatch:
    """The full curvature data at the parameter arrays s, t, computed as arrays.

    Raises what a loop of point_geometry over the points, in order, would
    raise first: the same exception at the same first failing point.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return in_row_order(lambda rows: _geometry_rows(norm, surface, s[rows], t[rows], config), len(s))


def point_geometry(norm: NormModel, surface: SurfacePatch, s: float, t: float,
                   config: NumericsConfig = DEFAULT_CONFIG) -> PointGeometry:
    """Assemble the full curvature data at (s,t): geometry_batch on a batch of one."""
    return geometry_batch(norm, surface, [s], [t], config)[0]


def _check_direction(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if not X.any(axis=-1).all():
        raise ZeroDirection("normal curvature of the zero direction is undefined")
    return X


def _quad(X: np.ndarray, A: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """The form A(X, Y) of each row of X and Y, A(X, X) without Y (a stacked
    matmul, so a row rounds exactly as it would alone)."""
    return ((X[..., None, :] @ A) @ (X if Y is None else Y)[..., :, None])[..., 0, 0]


def normal_curvature(g: PointGeometry | GeometryBatch, X) -> float | np.ndarray:
    """k(X) = -h(X,X)/b(X,X); homogeneous of degree 0 in X.

    A float at a PointGeometry and one direction; one value per row of X
    otherwise, as at a GeometryBatch with a direction per point.
    """
    X = _check_direction(X)
    return _value_or_rows(-_quad(X, g.h_mat) / _quad(X, g.b_mat))


def normal_curvature_via_dupin(pg: PointGeometry, X) -> float:
    """The same quantity by its defining route <du^{-1}X, d(eta)X> / <du^{-1}X, X>.

    Kept separate from normal_curvature so the identity between the two
    expressions stays an executable fact rather than a definition.
    """
    X = _check_direction(X)
    WX = pg.W @ X
    return float((X @ pg.d_mat @ WX) / (X @ pg.d_mat @ X))


def dupin_indicatrix(pg: PointGeometry, theta) -> np.ndarray:
    """V(theta) = V1 cos(theta) + V2 sin(theta), d-orthonormalized.

    The returned tangent vector satisfies <du^{-1} V, V> = 1: it traces the
    unit circle of the Dupin metric. An array of angles gives one row per angle.
    For a GeometryBatch the last axis of theta runs over its points.
    """
    theta = np.asarray(theta, dtype=float)[..., None]
    V = np.cos(theta) * pg.V1 + np.sin(theta) * pg.V2
    return V / np.sqrt(pg.pairing)[..., None]


def mean_by_indicatrix_average(g: PointGeometry | GeometryBatch, nodes: int = 32) -> float | np.ndarray:
    """(1/2pi) * integral of k(V(theta)) over the indicatrix, by composite Simpson,
    at a PointGeometry (a float) or at each point of a GeometryBatch.

    The integrand is a trigonometric polynomial of degree 2, so any even node
    count >= 8 is exact to roundoff; the contract is that this equals H.
    """
    thetas = 2.0 * np.pi * np.arange(nodes) / nodes
    k = normal_curvature(g, dupin_indicatrix(g, thetas.reshape((nodes,) + (1,) * np.ndim(g.pairing))))
    return _value_or_rows(simpson_periodic_mean(k.T))


def dupin_orthogonal_pair_sum(g: PointGeometry | GeometryBatch, theta0) -> float | np.ndarray:
    """k(V(theta0)) + k(V(theta0 + pi/2)); contract: equals 2H for every theta0.
    A float at a PointGeometry; at a GeometryBatch, one sum per point, each at its own theta0."""
    k = normal_curvature(g, dupin_indicatrix(g, np.stack([theta0, theta0 + 0.5 * np.pi])))
    return _value_or_rows(k[0] + k[1])


def _principal_zeros(g, zero_tol: float) -> tuple:
    """Whether lambda1, and whether lambda2, is within zero_tol * max(1, |lambda1| + |lambda2|)
    of 0, at a PointGeometry or at each point of a GeometryBatch."""
    scale = np.maximum(1.0, np.abs(g.lambda1) + np.abs(g.lambda2))
    return np.abs(g.lambda1) <= zero_tol * scale, np.abs(g.lambda2) <= zero_tol * scale


def _asymptotic_pair(g) -> tuple[np.ndarray, np.ndarray]:
    """The two asymptotic directions c V1 + s V2 and c V1 - s V2 where lambda1 < 0 < lambda2,
    of a PointGeometry or of each point of a GeometryBatch."""
    alpha = np.arctan(np.sqrt(-g.lambda1 / g.lambda2))
    c, s_ = np.cos(alpha)[..., None], np.sin(alpha)[..., None]
    return c * g.V1 + s_ * g.V2, c * g.V1 - s_ * g.V2


def asymptotic_directions(pg: PointGeometry, zero_tol: float = 1e-10) -> list[np.ndarray]:
    """Directions X with h(X,X) = 0, equivalently k(X) = 0.

    Two when K < 0, one when exactly one principal curvature vanishes, none
    when K > 0. Returned b-normalized, as combinations of the principal
    directions: h(V(alpha), V(alpha)) = -(lambda1 cos²alpha + lambda2 sin²alpha).
    """
    z1, z2 = _principal_zeros(pg, zero_tol)
    if z1 and z2:
        return []  # flat point: h = 0 identically, no isolated directions
    if z1:
        return [pg.V1.copy()]
    if z2:
        return [pg.V2.copy()]
    if pg.lambda1 * pg.lambda2 > 0.0:
        return []
    return list(_asymptotic_pair(pg))


def gaussian_by_determinants(g: PointGeometry | GeometryBatch) -> float | np.ndarray:
    """K as det(h) / det(b), at a PointGeometry (a float) or at each point of a
    GeometryBatch; basis-independent since both change by the same squared Jacobian."""
    det_b = _det(g.b_mat)
    if np.any(_near_singular(det_b, g.b_mat, 1e-14)):
        raise SingularMetric("weighted Dupin metric is numerically singular")
    return _value_or_rows(_det(g.h_mat) / det_b)


def weingarten_eigen_raw(pg: PointGeometry) -> np.ndarray:
    """Eigenvalues of W by a plain nonsymmetric solve — the cross-check route.

    Raises ComplexEigenvalues if the imaginary parts exceed roundoff scale.
    """
    vals = np.linalg.eigvals(pg.W)
    scale = max(1.0, float(np.abs(vals).max()))
    if np.abs(vals.imag).max() > 1e-7 * scale:
        raise ComplexEigenvalues(f"raw Weingarten eigenvalues are complex: {vals}")
    return np.sort(vals.real)
