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

Everything evaluates rows of points: a ScalarJet maps an (N, 3) array to N
values (or gradients, Hessians), and each NormModel method has a `_rows`
twin that the one-point method runs on a batch of one. User callables of
one point (custom_norm) are adapted to rows with numerics.per_point; the
Newton fallback solves one row at a time.
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
from .numerics import (NumericsConfig, DEFAULT_CONFIG, _cross, _dot, _invert_2x2_spd, _norm_rows,
                       _stack_last, fd_gradient_rows, fd_hessian_rows, per_point, relative_step)


# ---------------------------------------------------------------------------
# scalar jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarJet:
    """A scalar field on R^3 with optional derivatives, evaluated on rows.

    Each callable takes an (N, 3) array, one point per row:
    value: -> (N,) values
    gradient: -> (N, 3), or None
    hessian: -> (N, 3, 3), or None
    third: -> (N, 3, 3, 3) third partials, or None
    The built-in closed forms also take a single point. custom_norm adapts
    callables of one point to rows with numerics.per_point.
    """

    value: Callable[[np.ndarray], np.ndarray]
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
        return np.sqrt(((x[..., None, :] @ M) @ x[..., :, None])[..., 0, 0])

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return (M @ x[..., :, None])[..., 0] / value(x)[..., None]

    def hessian(x):
        x = np.asarray(x, dtype=float)
        g = value(x)[..., None, None]
        v = M @ x[..., :, None]
        return M / g - (v * np.swapaxes(v, -1, -2)) / g**3

    def third(x):
        x = np.asarray(x, dtype=float)
        g = value(x)[..., None, None, None]
        v = (M @ x[..., :, None])[..., 0]
        # d_k [M_ij/g - v_i v_j / g^3]
        T = -np.einsum("ij,...k->...ijk", M, v) / g**3
        T -= np.einsum("ik,...j->...ijk", M, v) / g**3
        T -= np.einsum("jk,...i->...ijk", M, v) / g**3
        T += 3.0 * np.einsum("...i,...j,...k->...ijk", v, v, v) / g**5
        return T

    return ScalarJet(value, gradient, hessian, third)


def _axis_clamp(x: np.ndarray, guard: float) -> np.ndarray:
    """Push components of x away from the coordinate planes, row by row.

    Components with |x_i| < guard * |x|_2 are replaced by ±guard * |x|_2
    (sign preserved; exact zeros go positive). Applied only inside Hessian and
    third-derivative evaluations of lp norms, where entries behave like
    |x_i|^{p-2} or |x_i|^{p-3}: values and gradients are fine at the axes and
    must stay exact there.
    """
    floor = guard * _norm_rows(x)[..., None]
    return np.where(np.abs(x) < floor, np.where(x < 0.0, -floor, floor), x)


def _lp_jets(p: float, guard: float) -> ScalarJet:
    """Jets of the lp gauge F(x) = (sum |x_i|^p)^{1/p}, 1 < p < inf."""

    def power_sum(x):
        return np.sum(np.abs(x) ** p, axis=-1)

    def value(x):
        return power_sum(np.asarray(x, dtype=float)) ** (1.0 / p)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        v = np.sign(x) * np.abs(x) ** (p - 1.0)
        return power_sum(x)[..., None] ** (1.0 / p - 1.0) * v

    def hessian(x):
        x = _axis_clamp(np.asarray(x, dtype=float), guard)
        S = power_sum(x)[..., None, None]
        v = np.sign(x) * np.abs(x) ** (p - 1.0)
        w = np.abs(x) ** (p - 2.0)
        return (p - 1.0) * (S ** (1.0 / p - 1.0) * (w[..., :, None] * np.eye(3))
                            - S ** (1.0 / p - 2.0) * (v[..., :, None] * v[..., None, :]))

    def third(x):
        x = _axis_clamp(np.asarray(x, dtype=float), guard)
        S = power_sum(x)[..., None, None, None]
        s = np.sign(x)
        a = np.abs(x)
        v = s * a ** (p - 1.0)
        w = a ** (p - 2.0)
        eye = np.eye(3)
        T = np.zeros(x.shape[:-1] + (3, 3, 3))
        # pure-diagonal part i = j = k
        i = np.arange(3)
        T[..., i, i, i] += (p - 2.0) * S[..., 0, 0] ** (1.0 / p - 1.0) * s * a ** (p - 3.0)
        coef = (1.0 - p) * S ** (1.0 / p - 2.0)
        T += coef * np.einsum("...i,...k,ij->...ijk", w, v, eye)
        T += coef * np.einsum("...i,...j,ik->...ijk", w, v, eye)
        T += coef * np.einsum("...j,...i,jk->...ijk", w, v, eye)
        T += (2.0 * p - 1.0) * S ** (1.0 / p - 3.0) * np.einsum("...i,...j,...k->...ijk", v, v, v)
        return (p - 1.0) * T

    return ScalarJet(value, gradient, hessian, third)


def _fd_wrap(jet: ScalarJet, step: float) -> ScalarJet:
    """Replace a jet's derivatives by central differences of its value, with a
    relative step per row."""
    value = jet.value

    def gradient(x):
        return fd_gradient_rows(value, x, step)

    def hessian(x):
        return fd_hessian_rows(value, x, step)

    return ScalarJet(value, gradient, hessian, third=None)


def tangent_basis(xi: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the plane xi-perp, as columns of a 3x2 matrix.

    Seeds Gram-Schmidt with the coordinate axis least aligned with xi, so the
    result depends only on xi. Rows of xi give a stack of bases.
    """
    xi = np.asarray(xi, dtype=float)
    xi = xi / _norm_rows(xi)[..., None]
    e = np.eye(3)[np.argmin(np.abs(xi), axis=-1)]
    e1 = e - _dot(e, xi)[..., None] * xi
    e1 /= _norm_rows(e1)[..., None]
    return _stack_last(e1, _cross(xi, e1))


def _nonzero_rows(X: np.ndarray) -> bool:
    """Whether no row of X is the zero vector."""
    return bool(X.all() or X.any(axis=-1).all())


def _one(x) -> np.ndarray:
    """One point as a batch of one row."""
    return np.asarray(x, dtype=float)[None]


# ---------------------------------------------------------------------------
# the norm model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormModel:
    """An admissible norm given by primal gauge and dual support-function jets.

    Every method of one point has a twin with the suffix _rows that takes an
    (N, 3) array, one point per row; the method of one point runs its twin on
    a batch of one. Immutable after construction; every method is a pure
    function of its arguments.
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
        return float(self.gauge_value_rows(_one(x))[0])

    def gauge_value_rows(self, X) -> np.ndarray:
        """F at each row; 0 at zero rows, where the gauge is not evaluated."""
        X = np.asarray(X, dtype=float)
        if _nonzero_rows(X):
            return np.asarray(self.gauge.value(X), dtype=float)
        nonzero = X.any(axis=-1)
        out = np.zeros(len(X))
        if nonzero.any():
            out[nonzero] = self.gauge.value(X[nonzero])
        return out

    def _check_nonzero(self, X, what: str) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if not _nonzero_rows(X):
            raise NonSmoothPoint(f"{what} requested at the origin, where the norm is not smooth")
        return X

    def gauge_gradient(self, x) -> np.ndarray:
        return self.gauge_gradient_rows(_one(x))[0]

    def gauge_gradient_rows(self, X) -> np.ndarray:
        X = self._check_nonzero(X, "gauge gradient")
        if self.gauge.gradient is not None:
            return np.asarray(self.gauge.gradient(X), dtype=float)
        return fd_gradient_rows(self.gauge.value, X, self.fd_step)

    def gauge_hessian(self, x) -> np.ndarray:
        return self.gauge_hessian_rows(_one(x))[0]

    def gauge_hessian_rows(self, X) -> np.ndarray:
        X = self._check_nonzero(X, "gauge Hessian")
        if self.gauge.hessian is not None:
            return np.asarray(self.gauge.hessian(X), dtype=float)
        return fd_hessian_rows(self.gauge.value, X, self.fd_step)

    # -- dual support function ---------------------------------------------

    def dual_value(self, xi) -> float:
        return float(self.dual_value_rows(_one(xi))[0])

    def dual_value_rows(self, XI) -> np.ndarray:
        XI = self._check_nonzero(XI, "support function")
        if self.dual is not None:
            return np.asarray(self.dual.value(XI), dtype=float)
        return _dot(self._newton_points(XI), XI)

    def dual_gradient(self, xi) -> np.ndarray:
        return self.dual_gradient_rows(_one(xi))[0]

    def dual_gradient_rows(self, XI) -> np.ndarray:
        XI = self._check_nonzero(XI, "support-function gradient")
        if self.dual is not None and self.dual.gradient is not None:
            return np.asarray(self.dual.gradient(XI), dtype=float)
        if self.dual is not None:
            return fd_gradient_rows(self.dual.value, XI, self.fd_step)
        return self._newton_points(XI)

    def dual_hessian(self, xi) -> np.ndarray:
        return self.dual_hessian_rows(_one(xi))[0]

    def dual_hessian_rows(self, XI) -> np.ndarray:
        XI = self._check_nonzero(XI, "support-function Hessian")
        if self.dual is not None and self.dual.hessian is not None:
            return np.asarray(self.dual.hessian(XI), dtype=float)
        if self.dual is not None:
            return fd_hessian_rows(self.dual.value, XI, self.fd_step)
        return self._fd_jacobian_of_u(XI)

    def dual_third(self, xi) -> Optional[np.ndarray]:
        """Third partials of h_B, or None when not analytically available."""
        T = self.dual_third_rows(_one(xi))
        return None if T is None else T[0]

    def dual_third_rows(self, XI) -> Optional[np.ndarray]:
        if self.dual is not None and self.dual.third is not None:
            XI = self._check_nonzero(XI, "support-function third derivative")
            return np.asarray(self.dual.third(XI), dtype=float)
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
        return self.birkhoff_point_rows(_one(xi))[0]

    def birkhoff_point_rows(self, XI) -> np.ndarray:
        XI = self._check_nonzero(XI, "Birkhoff point")
        XI = XI / _norm_rows(XI)[:, None]
        if self.dual is not None:
            return self.dual_gradient_rows(XI)
        return self._newton_points(XI)

    def _newton_points(self, XI) -> np.ndarray:
        """The Newton solve of each row, in row order."""
        return np.array([self._newton_point(xi) for xi in XI]).reshape(-1, 3)

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
            # runs once per backtracking trial: the row methods, unwrapped
            X_ = x_[None]
            g_ = self.gauge_gradient_rows(X_)[0]
            return g_, np.concatenate([g_ - mu_ * xi, self.gauge_value_rows(X_) - 1.0])

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

    def _fd_jacobian_of_u(self, XI) -> np.ndarray:
        """Hessians of h_B as the symmetrized FD Jacobians of u (Newton fallback path).

        u is homogeneous of degree 0, so this is Hess h_B only up to the radial
        kernel direction; restriction to xi-perp (du_restricted) removes that part.
        The 6 Newton solves of a row run in the order up_0, down_0, up_1, ...
        """
        h = relative_step(XI, self.fd_step)[:, None, None]
        eye = np.eye(3)
        pts = np.stack([XI[:, None, :] + h * eye, XI[:, None, :] - h * eye], axis=2)
        U = self._newton_points(pts.reshape(-1, 3)).reshape(pts.shape)
        J = np.swapaxes((U[:, :, 0] - U[:, :, 1]) / (2.0 * h), 1, 2)
        return 0.5 * (J + np.swapaxes(J, 1, 2))

    def du_restricted(self, xi) -> tuple[np.ndarray, np.ndarray]:
        """Restrict Hess h_B(xi) to the tangent plane xi-perp.

        Returns (E, M) with E the 3x2 orthonormal basis of xi-perp from
        tangent_basis and M = E^T Hess h_B(xi) E, the matrix of du_xi in that
        basis. M is symmetric positive definite for admissible norms.
        """
        E, M = self.du_restricted_rows(_one(xi))
        return E[0], M[0]

    def du_restricted_rows(self, XI) -> tuple[np.ndarray, np.ndarray]:
        XI = np.asarray(XI, dtype=float)
        XI = XI / _norm_rows(XI)[:, None]
        E = tangent_basis(XI)
        M = np.swapaxes(E, 1, 2) @ self.dual_hessian_rows(XI) @ E
        return E, 0.5 * (M + np.swapaxes(M, 1, 2))

    def dupin_form(self, eta, X, Y) -> float:
        """The inner product <du^{-1}_eta X, Y> on the tangent plane of ∂B at eta.

        X, Y are ambient 3-vectors lying in the plane xi-perp, where xi is the
        Euclidean outer normal of ∂B at eta (recovered from the gauge gradient).
        """
        return float(self.dupin_form_rows(_one(eta), _one(X), _one(Y))[0])

    def dupin_form_rows(self, ETA, X, Y) -> np.ndarray:
        n = self.gauge_gradient_rows(ETA)
        E, M = self.du_restricted_rows(n / _norm_rows(n)[:, None])
        Minv = _invert_2x2_spd(M, "restricted dual Hessian")
        Et = np.swapaxes(E, 1, 2)
        EX = Et @ np.asarray(X, dtype=float)[:, :, None]
        EY = Et @ np.asarray(Y, dtype=float)[:, :, None]
        return (np.swapaxes(EX, 1, 2) @ Minv @ EY)[:, 0, 0]


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


def _per_point_jet(jet) -> ScalarJet:
    """A ScalarJet (or a bare value callable) of one point, adapted to rows."""
    if not isinstance(jet, ScalarJet):
        jet = ScalarJet(jet)
    return ScalarJet(*(None if fn is None else per_point(fn, 1)
                       for fn in (jet.value, jet.gradient, jet.hessian, jet.third)))


def custom_norm(gauge, dual=None, allow_newton: bool = True,
                fd_step: float = 1e-5,
                config: NumericsConfig = DEFAULT_CONFIG) -> NormModel:
    """A user-supplied norm, as a ScalarJet or a bare value callable of one point x.

    The callables are adapted to rows of points with numerics.per_point.
    Without dual jets, Birkhoff points fall back to a projected Newton solve
    on the gauge (unless allow_newton=False), one row at a time; gauge
    derivatives missing from the jet come from central differences.
    """
    gauge = _per_point_jet(gauge)
    if dual is not None:
        dual = _per_point_jet(dual)
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
