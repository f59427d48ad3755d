"""Admissible Minkowski norms on R^3: gauges, dual support functions, and the
unit-sphere Gauss-map machinery u, du, du^-1.

A norm enters the library as a pair of scalar jets:

  * the primal gauge F (Minkowski functional of the unit ball B), with
    F(x) >= 0, positively homogeneous of degree 1, smooth away from 0;
  * the dual support function h_B(xi) = max{<x, xi> : F(x) <= 1}.

The gradient of h_B at a Euclidean-unit xi is the boundary point of B whose
Euclidean outer normal is xi — i.e. u(xi), the inverse Euclidean Gauss map of
∂B. The Birkhoff normal field of a surface is then a single jet evaluation,
eta = u(xi), with no root-finding in the hot path. A projected-Newton fallback
covers custom norms supplied without dual jets.

Built-in families carry analytic jets through third order, so Minkowski-sphere
charts built from u are themselves fully analytic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidParameter,
    MissingDualJets,
    NewtonDivergence,
    NonSmoothPoint,
)
from .numerics import NumericsConfig, DEFAULT_CONFIG, _invert_2x2_spd, fd_gradient, fd_hessian


# ---------------------------------------------------------------------------
# scalar jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarJet:
    """A scalar field on R^3 with optional derivatives.

    value: x -> float
    gradient: x -> (3,) array, or None
    hessian: x -> (3,3) array, or None
    third: x -> (3,3,3) array of third partials, or None
    """

    value: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    third: Optional[Callable[[np.ndarray], np.ndarray]] = None


# ---------------------------------------------------------------------------
# closed-form jets for the built-in families
# ---------------------------------------------------------------------------

def _quadform_jets(M: np.ndarray) -> ScalarJet:
    """Jets of G(x) = sqrt(x^T M x) for symmetric positive definite M.

    Covers the euclidean family (M = I), the ellipsoid gauge (M = A) and its
    dual support function (M = A^{-1}).
    """
    M = np.asarray(M, dtype=float)

    def value(x):
        x = np.asarray(x, dtype=float)
        return float(np.sqrt(x @ M @ x))

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return (M @ x) / value(x)

    def hessian(x):
        x = np.asarray(x, dtype=float)
        g = value(x)
        v = M @ x
        return M / g - np.outer(v, v) / g**3

    def third(x):
        x = np.asarray(x, dtype=float)
        g = value(x)
        v = M @ x
        T = np.zeros((3, 3, 3))
        # d_k [M_ij/g - v_i v_j / g^3]
        T -= np.einsum("ij,k->ijk", M, v) / g**3
        T -= np.einsum("ik,j->ijk", M, v) / g**3
        T -= np.einsum("jk,i->ijk", M, v) / g**3
        T += 3.0 * np.einsum("i,j,k->ijk", v, v, v) / g**5
        return T

    return ScalarJet(value, gradient, hessian, third)


def _axis_clamp(x: np.ndarray, guard: float) -> np.ndarray:
    """Push components of x away from the coordinate planes.

    Components with |x_i| < guard * |x|_2 are replaced by ±guard * |x|_2
    (sign preserved; exact zeros go positive). Applied only inside Hessian and
    third-derivative evaluations of lp norms, where entries behave like
    |x_i|^{p-2} or |x_i|^{p-3}: values and gradients are fine at the axes and
    must stay exact there.
    """
    r = float(np.linalg.norm(x))
    floor = guard * r
    small = np.abs(x) < floor
    if not small.any():
        return x
    y = np.array(x, dtype=float)
    signs = np.where(y[small] < 0.0, -1.0, 1.0)
    y[small] = signs * floor
    return y


def _lp_jets(p: float, guard: float) -> ScalarJet:
    """Jets of the lp gauge F(x) = (sum |x_i|^p)^{1/p}, 1 < p < inf."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return float(np.sum(np.abs(x) ** p) ** (1.0 / p))

    def gradient(x):
        x = np.asarray(x, dtype=float)
        S = float(np.sum(np.abs(x) ** p))
        v = np.sign(x) * np.abs(x) ** (p - 1.0)
        return S ** (1.0 / p - 1.0) * v

    def hessian(x):
        x = _axis_clamp(np.asarray(x, dtype=float), guard)
        S = float(np.sum(np.abs(x) ** p))
        v = np.sign(x) * np.abs(x) ** (p - 1.0)
        w = np.abs(x) ** (p - 2.0)
        return (p - 1.0) * (S ** (1.0 / p - 1.0) * np.diag(w)
                            - S ** (1.0 / p - 2.0) * np.outer(v, v))

    def third(x):
        x = _axis_clamp(np.asarray(x, dtype=float), guard)
        S = float(np.sum(np.abs(x) ** p))
        s = np.sign(x)
        a = np.abs(x)
        v = s * a ** (p - 1.0)
        w = a ** (p - 2.0)
        T = np.zeros((3, 3, 3))
        # pure-diagonal part i = j = k
        diag = (p - 2.0) * S ** (1.0 / p - 1.0) * s * a ** (p - 3.0)
        for i in range(3):
            T[i, i, i] += diag[i]
        coef = (1.0 - p) * S ** (1.0 / p - 2.0)
        T += coef * np.einsum("i,k,ij->ijk", w, v, np.eye(3))
        T += coef * np.einsum("i,j,ik->ijk", w, v, np.eye(3))
        T += coef * np.einsum("j,i,jk->ijk", w, v, np.eye(3))
        T += (2.0 * p - 1.0) * S ** (1.0 / p - 3.0) * np.einsum("i,j,k->ijk", v, v, v)
        return (p - 1.0) * T

    return ScalarJet(value, gradient, hessian, third)


def _fd_wrap(jet: ScalarJet, step: float) -> ScalarJet:
    """Replace a jet's derivatives by central differences of its value."""
    value = jet.value

    def gradient(x):
        return fd_gradient(value, x, step)

    def hessian(x):
        return fd_hessian(value, x, step)

    return ScalarJet(value, gradient, hessian, third=None)


def tangent_basis(xi: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the plane xi-perp, as columns of a 3x2 matrix.

    Seeds Gram-Schmidt with the coordinate axis least aligned with xi, so the
    result depends only on xi.
    """
    xi = np.asarray(xi, dtype=float)
    xi = xi / np.linalg.norm(xi)
    k = int(np.argmin(np.abs(xi)))
    e = np.zeros(3)
    e[k] = 1.0
    e1 = e - (e @ xi) * xi
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(xi, e1)
    return np.column_stack([e1, e2])


# ---------------------------------------------------------------------------
# the norm model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormModel:
    """An admissible norm given by primal gauge and dual support-function jets.

    Immutable after construction; every method is a pure function of its
    arguments and safe to call concurrently.
    """

    family: str
    gauge: ScalarJet
    dual: Optional[ScalarJet] = None
    jet_source: str = "analytic"
    fd_step: float = 1e-5
    params: dict = field(default_factory=dict)
    allow_newton: bool = True
    config: NumericsConfig = DEFAULT_CONFIG

    # -- primal gauge ------------------------------------------------------

    def gauge_value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if not x.any():
            return 0.0
        return self.gauge.value(x)

    def _check_nonzero(self, x, what: str) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not x.any():
            raise NonSmoothPoint(f"{what} requested at the origin, where the norm is not smooth")
        return x

    def gauge_gradient(self, x) -> np.ndarray:
        x = self._check_nonzero(x, "gauge gradient")
        if self.gauge.gradient is not None:
            return np.asarray(self.gauge.gradient(x), dtype=float)
        return fd_gradient(self.gauge.value, x, self.fd_step)

    def gauge_hessian(self, x) -> np.ndarray:
        x = self._check_nonzero(x, "gauge Hessian")
        if self.gauge.hessian is not None:
            return np.asarray(self.gauge.hessian(x), dtype=float)
        return fd_hessian(self.gauge.value, x, self.fd_step)

    # -- dual support function ---------------------------------------------

    def dual_value(self, xi) -> float:
        xi = self._check_nonzero(xi, "support function")
        if self.dual is not None:
            return self.dual.value(xi)
        return float(self._newton_point(xi) @ xi)

    def dual_gradient(self, xi) -> np.ndarray:
        xi = self._check_nonzero(xi, "support-function gradient")
        if self.dual is not None and self.dual.gradient is not None:
            return np.asarray(self.dual.gradient(xi), dtype=float)
        if self.dual is not None:
            return fd_gradient(self.dual.value, xi, self.fd_step)
        return self._newton_point(xi)

    def dual_hessian(self, xi) -> np.ndarray:
        xi = self._check_nonzero(xi, "support-function Hessian")
        if self.dual is not None and self.dual.hessian is not None:
            return np.asarray(self.dual.hessian(xi), dtype=float)
        if self.dual is not None:
            return fd_hessian(self.dual.value, xi, self.fd_step)
        return self._fd_jacobian_of_u(xi)

    def dual_third(self, xi) -> Optional[np.ndarray]:
        """Third partials of h_B, or None when not analytically available."""
        if self.dual is not None and self.dual.third is not None:
            xi = self._check_nonzero(xi, "support-function third derivative")
            return np.asarray(self.dual.third(xi), dtype=float)
        return None

    @property
    def has_analytic_dual_jets(self) -> bool:
        return (self.dual is not None and self.dual.gradient is not None
                and self.dual.hessian is not None and self.dual.third is not None)

    # -- Birkhoff machinery --------------------------------------------------

    def birkhoff_point(self, xi) -> np.ndarray:
        """u(xi): the point of ∂B whose Euclidean outer normal is xi.

        Computed as grad h_B(xi) when dual jets exist; projected Newton on the
        Lagrange system grad F(x) = mu xi, F(x) = 1 otherwise.
        """
        xi = self._check_nonzero(xi, "Birkhoff point")
        xi = xi / np.linalg.norm(xi)
        if self.dual is not None:
            return self.dual_gradient(xi)
        return self._newton_point(xi)

    def _newton_point(self, xi) -> np.ndarray:
        """Solve grad F(x) = mu xi, F(x) = 1 by Newton, seeded at xi / F(xi)."""
        if not self.allow_newton:
            raise MissingDualJets("custom norm has no dual jets and the Newton fallback is disabled")
        xi = np.asarray(xi, dtype=float)
        xi = xi / np.linalg.norm(xi)
        cfg = self.config
        x = xi / self.gauge_value(xi)
        mu = float(self.gauge_gradient(x) @ xi)

        def residual(x_, mu_):
            g_ = self.gauge_gradient(x_)
            return g_, np.concatenate([g_ - mu_ * xi, [self.gauge_value(x_) - 1.0]])

        g, res = residual(x, mu)
        for _ in range(cfg.newton_max_iter):
            res_norm = np.linalg.norm(res)
            if res_norm <= cfg.newton_tol:
                return x
            H = self.gauge_hessian(x)
            J = np.zeros((4, 4))
            J[:3, :3] = H
            J[:3, 3] = -xi
            J[3, :3] = g
            try:
                delta = np.linalg.solve(J, -res)
            except np.linalg.LinAlgError as exc:
                raise NewtonDivergence(f"singular KKT system at x={x!r}") from exc
            # Backtrack until the residual shrinks; full steps on quartic-like
            # gauges can overshoot badly from the radial seed.
            damp = 1.0
            for _ in range(40):
                x_try = x + damp * delta[:3]
                mu_try = mu + damp * delta[3]
                g_try, res_try = residual(x_try, mu_try)
                if np.linalg.norm(res_try) < res_norm:
                    break
                damp *= 0.5
            else:
                # FD-quality gradients floor the achievable residual; accept
                # a stall within the relaxed tolerance.
                if res_norm <= 100.0 * cfg.newton_tol:
                    return x
                raise NewtonDivergence(
                    f"Birkhoff Newton stalled at |residual| = {res_norm:.3e}")
            x, mu, g, res = x_try, mu_try, g_try, res_try
        if np.linalg.norm(res) <= 100.0 * cfg.newton_tol:
            return x
        raise NewtonDivergence(
            f"Birkhoff Newton did not converge in {cfg.newton_max_iter} iterations "
            f"(|residual| = {np.linalg.norm(res):.3e})")

    def _fd_jacobian_of_u(self, xi) -> np.ndarray:
        """Hessian of h_B as the symmetrized FD Jacobian of u (Newton fallback path).

        u is homogeneous of degree 0, so this is Hess h_B only up to the radial
        kernel direction; restriction to xi-perp (du_restricted) removes that part.
        """
        xi = np.asarray(xi, dtype=float)
        h = self.fd_step * max(1.0, float(np.linalg.norm(xi)))
        J = np.empty((3, 3))
        eye = np.eye(3)
        for k in range(3):
            up = self._newton_point(xi + h * eye[k])
            dn = self._newton_point(xi - h * eye[k])
            J[:, k] = (up - dn) / (2.0 * h)
        return 0.5 * (J + J.T)

    def du_restricted(self, xi) -> tuple[np.ndarray, np.ndarray]:
        """Restrict Hess h_B(xi) to the tangent plane xi-perp.

        Returns (E, M) with E the 3x2 orthonormal basis of xi-perp from
        tangent_basis and M = E^T Hess h_B(xi) E, the matrix of du_xi in that
        basis. M is symmetric positive definite for admissible norms.
        """
        xi = np.asarray(xi, dtype=float)
        xi = xi / np.linalg.norm(xi)
        E = tangent_basis(xi)
        H = self.dual_hessian(xi)
        M = E.T @ H @ E
        M = 0.5 * (M + M.T)
        return E, M

    def dupin_form(self, eta, X, Y) -> float:
        """The inner product <du^{-1}_eta X, Y> on the tangent plane of ∂B at eta.

        X, Y are ambient 3-vectors lying in the plane xi-perp, where xi is the
        Euclidean outer normal of ∂B at eta (recovered from the gauge gradient).
        """
        eta = np.asarray(eta, dtype=float)
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        n = self.gauge_gradient(eta)
        xi = n / np.linalg.norm(n)
        E, M = self.du_restricted(xi)
        Minv = _invert_2x2_spd(M, "restricted dual Hessian")
        return float((E.T @ X) @ Minv @ (E.T @ Y))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def euclidean_norm(jet_source: str = "analytic", fd_step: float = 1e-5,
                   config: NumericsConfig = DEFAULT_CONFIG) -> NormModel:
    """The standard Euclidean norm; self-dual, u = identity on the unit sphere."""
    gauge = _quadform_jets(np.eye(3))
    dual = _quadform_jets(np.eye(3))
    if jet_source == "fd":
        gauge, dual = _fd_wrap(gauge, fd_step), _fd_wrap(dual, fd_step)
    return NormModel("euclidean", gauge, dual, jet_source, fd_step, {}, config=config)


def ellipsoid_norm(A, jet_source: str = "analytic", fd_step: float = 1e-5,
                   config: NumericsConfig = DEFAULT_CONFIG) -> NormModel:
    """Norm with ellipsoidal unit ball: F(x) = sqrt(x^T A x), A symmetric positive definite.

    Dual support function h_B(xi) = sqrt(xi^T A^{-1} xi).
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3) or not np.allclose(A, A.T, atol=1e-12):
        raise InvalidParameter("ellipsoid matrix must be 3x3 symmetric")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise InvalidParameter("ellipsoid matrix must be positive definite")
    gauge = _quadform_jets(A)
    dual = _quadform_jets(np.linalg.inv(A))
    if jet_source == "fd":
        gauge, dual = _fd_wrap(gauge, fd_step), _fd_wrap(dual, fd_step)
    return NormModel("ellipsoid", gauge, dual, jet_source, fd_step, {"A": A}, config=config)


def lp_norm(p: float, jet_source: str = "analytic", fd_step: float = 1e-5,
            axis_guard: float = 1e-8, config: NumericsConfig = DEFAULT_CONFIG) -> NormModel:
    """The lp norm, 1 < p < inf; dual support function is the lq norm, 1/p + 1/q = 1.

    Hessian/third evaluations clamp points a relative distance axis_guard away
    from the coordinate planes (curvature of the lp sphere degenerates on the
    axes for p > 2, and dual entries blow up there for the conjugate q < 2).
    """
    if not (1.0 < p < np.inf):
        raise InvalidParameter(f"lp family needs 1 < p < inf, got p={p}")
    q = p / (p - 1.0)
    gauge = _lp_jets(p, axis_guard)
    dual = _lp_jets(q, axis_guard)
    if jet_source == "fd":
        gauge, dual = _fd_wrap(gauge, fd_step), _fd_wrap(dual, fd_step)
    return NormModel("lp", gauge, dual, jet_source, fd_step,
                     {"p": p, "axis_guard": axis_guard}, config=config)


def custom_norm(gauge, dual=None, allow_newton: bool = True,
                fd_step: float = 1e-5,
                config: NumericsConfig = DEFAULT_CONFIG) -> NormModel:
    """A user-supplied norm, as a ScalarJet or a bare value callable.

    Without dual jets, Birkhoff points fall back to a projected Newton solve
    on the gauge (unless allow_newton=False); gauge derivatives missing from
    the jet come from central differences.
    """
    if not isinstance(gauge, ScalarJet):
        gauge = ScalarJet(gauge)
    if dual is not None and not isinstance(dual, ScalarJet):
        dual = ScalarJet(dual)
    return NormModel("custom", gauge, dual, "analytic", fd_step, {},
                     allow_newton=allow_newton, config=config)


def norm_from_spec(spec: dict, config: NumericsConfig = DEFAULT_CONFIG) -> NormModel:
    """Build a NormModel from a CLI-config dictionary.

    Schema: {"family": "euclidean" | "ellipsoid" | "lp",
             "A": [[...]] (ellipsoid), "p": number (lp),
             "jet_source": "analytic" | "fd", "fd_step": number}
    """
    family = spec.get("family")
    jet_source = spec.get("jet_source", "analytic")
    fd_step = float(spec.get("fd_step", 1e-5))
    if jet_source not in ("analytic", "fd"):
        raise InvalidParameter(f"unknown jet_source {jet_source!r}")
    if family == "euclidean":
        return euclidean_norm(jet_source, fd_step, config)
    if family == "ellipsoid":
        if "A" not in spec:
            raise InvalidParameter("ellipsoid norm spec needs field 'A'")
        return ellipsoid_norm(np.asarray(spec["A"], dtype=float), jet_source, fd_step, config)
    if family == "lp":
        if "p" not in spec:
            raise InvalidParameter("lp norm spec needs field 'p'")
        return lp_norm(float(spec["p"]), jet_source, fd_step,
                       float(spec.get("axis_guard", 1e-8)), config)
    raise InvalidParameter(f"unknown norm family {family!r} (custom norms are library-only)")
