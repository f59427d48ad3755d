"""Admissible Minkowski norms on R^3: gauges, dual support functions, and the
unit-sphere Gauss-map machinery u, du, du^-1.

A norm enters the library as a pair of scalar jets:

  * the primal gauge F (Minkowski functional of the unit ball B), with
    F(x) >= 0, positively homogeneous of degree 1, smooth away from 0;
  * the dual support function h_B(xi) = max{<x, xi> : F(x) <= 1}.

The gradient of h_B at a Euclidean-unit xi is the boundary point of B whose
Euclidean outer normal is xi — i.e. u(xi), the inverse Euclidean Gauss map of
∂B. The Birkhoff normal field of a surface is then a single jet evaluation,
eta = u(xi), with no root-finding in the hot path. A Newton fallback covers
custom norms supplied without dual jets. Since h_B(xi) = 1 / min{F(x) :
x . xi = 1}, u is the minimiser x* of the gauge on that plane, scaled onto
∂B: a convex problem in the plane's 2 coordinates, solved by damped Newton
(Schneider, Convex Bodies, §1.7). Its residual test newton_tol is floored at
10 eps / h when the gauge gradients are central differences at step h (a
floor derived from the step, not a setting). du is the inverse of the
gauge's Hessian on the plane at x*, the Weingarten map of ∂B at u.

Built-in families carry analytic jets through third order, so Minkowski-sphere
charts built from u are themselves fully analytic. jet_source selects the
route, as on a SurfacePatch: under "fd" every derivative is central
differences of the jets' values, even where the jets carry their own
(NormModel._own makes this choice for every caller).

Everything evaluates rows of points: a ScalarJet maps an (N, 3) array to N
values (or gradients, Hessians), and each NormModel method of one point is
generated from its `_rows` twin by one helper, _one_point, and runs the twin
on a batch of one. User callables of one point (custom_norm) are adapted to
rows with numerics.per_point. The Newton fallback advances the solves of all
rows in lockstep, with one gauge call per stage, and evaluates no gauge point
twice: an FD iteration takes the 5 values of the plane gradient stencil (x
and x +- h e_j, e_j the plane's basis) and the 4 cross points of the plane
Hessian, which reuses those 5; an FD du is one more 9-point plane Hessian.
Every dual quantity of such a norm reads birkhoff_du_rows, which normalizes
xi once, solves u once per row from xi and builds du from that u; the chart
of such a norm's Minkowski sphere is that one solve per point, u and du.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    InvalidParameter,
    MissingDualJets,
    NewtonDivergence,
    NonSmoothPoint,
)
from .numerics import (NumericsConfig, DEFAULT_CONFIG, _Record, _central_diffs, _cross, _det, _dot, _field_values,
                       _invert_2x2_spd, _norm_rows, _positive_definite, _require_finite, _solve, _stack_last,
                       check_jet_options, fd_gradient_rows, fd_hessian_rows, first_row, gradient_stencil,
                       in_row_order, per_point, relative_step)


# ---------------------------------------------------------------------------
# scalar jets
# ---------------------------------------------------------------------------

@dataclass(init=False, repr=False, eq=False)
class ScalarJet(_Record, frozen=True):
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


# Central differences of the gauge value lose about eps / h to roundoff at
# step h: 10 eps / h is the smallest Newton residual FD gradients resolve.
_FD_RESIDUAL_FLOOR = 10.0 * np.finfo(float).eps
# The FD gauge Hessian behind du balances O(h^2) truncation against eps / h^2
# roundoff at h = eps^(1/4), about 1.2e-4; at the gradients' step of 1e-5 the
# roundoff alone would be about 1e-6.
_GAUGE_HESSIAN_STEP = np.finfo(float).eps ** 0.25


class _NewtonRows(NamedTuple):
    """The lockstep Newton's state at its running rows: the points x on their
    planes, F(x), the plane gradients E^T grad F(x) and their norms, and for
    FD gradients the 5 known stencil values (else None)."""

    X: np.ndarray
    F: np.ndarray
    G: np.ndarray
    res_norm: np.ndarray
    known: Optional[np.ndarray]


def _in_basis(E: np.ndarray, H: np.ndarray) -> np.ndarray:
    """E^T H E for the bases E (N, n, k) and matrices H (N, n, n), symmetrized."""
    M = np.swapaxes(E, 1, 2) @ H @ E
    return 0.5 * (M + np.swapaxes(M, 1, 2))


def _nonzero_rows(X: np.ndarray) -> bool:
    """Whether no row of X is the zero vector."""
    return bool(X.all() or X.any(axis=-1).all())


def _one_point(rows, params: str, doc: str | None = None):
    """The NormModel method of the points params generated from its twin rows:
    rows on a batch of one, and row 0 of what it returns (a float for values;
    None stays None, and a tuple gives the tuple of its rows 0)."""

    def method(self, *points):
        out = rows(self, *(np.asarray(x, dtype=float)[None] for x in points))
        if out is None:
            return None
        if isinstance(out, tuple):
            return tuple(a[0] for a in out)
        return float(out[0]) if out.ndim == 1 else out[0]

    method.__name__ = method.__qualname__ = rows.__name__.removesuffix("_rows")
    method.__doc__ = doc
    method.__signature__ = inspect.Signature(
        [inspect.Parameter(p, inspect.Parameter.POSITIONAL_ONLY) for p in ("self", *params.split())])
    return method


# ---------------------------------------------------------------------------
# the norm model
# ---------------------------------------------------------------------------

@dataclass(init=False, repr=False, eq=False)
class NormModel(_Record, frozen=True):
    """An admissible norm given by primal gauge and dual support-function jets.

    Every method of one point has a twin with the suffix _rows that takes an
    (N, 3) array, one point per row; the method of one point is generated
    from its twin by _one_point and runs it on a batch of one. Immutable after
    construction; every method is a pure function of its arguments.
    jet_source, "analytic" or "fd", selects the route of every derivative of
    gauge and dual (_own); fd_step must be finite and positive.
    """

    family: str
    gauge: ScalarJet
    dual: Optional[ScalarJet] = None
    jet_source: str = "analytic"
    fd_step: float = 1e-5
    params: dict = field(default_factory=dict, hash=False)
    allow_newton: bool = True
    config: NumericsConfig = DEFAULT_CONFIG

    def __post_init__(self):
        check_jet_options(self.jet_source, self.fd_step)

    # -- primal gauge ------------------------------------------------------

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

    def _own(self, jet: ScalarJet, k: int):
        """jet's own derivative of order k (1, 2 or 3) under jet_source "analytic",
        when it has one; otherwise None: central differences of its value at
        fd_step (du's gauge Hessian at its own step), and no third derivative."""
        return (jet.gradient, jet.hessian, jet.third)[k - 1] if self.jet_source == "analytic" else None

    def _derivative_rows(self, jet: ScalarJet, k: int, X) -> np.ndarray:
        """jet's gradient (k = 1) or Hessian (k = 2) at the rows of X, by _own's route."""
        own = self._own(jet, k)
        if own is not None:
            return np.asarray(own(X), dtype=float)
        return (fd_gradient_rows, fd_hessian_rows)[k - 1](jet.value, X, self.fd_step)

    def gauge_gradient_rows(self, X) -> np.ndarray:
        return self._derivative_rows(self.gauge, 1, self._check_nonzero(X, "gauge gradient"))

    def gauge_hessian_rows(self, X) -> np.ndarray:
        return self._derivative_rows(self.gauge, 2, self._check_nonzero(X, "gauge Hessian"))

    # -- dual support function ---------------------------------------------

    # Without dual jets, every dual quantity reads the one route of
    # birkhoff_du_rows: h_B(xi) = u . xi, grad h_B(xi) = u(xi / |xi|) (degree
    # 0), and Hess h_B(xi) = E M E^T / |xi| (degree -1).

    def dual_value_rows(self, XI) -> np.ndarray:
        XI = self._check_nonzero(XI, "support function")
        if self.dual is not None:
            return np.asarray(self.dual.value(XI), dtype=float)
        return _dot(self.birkhoff_point_rows(XI), XI)

    def dual_gradient_rows(self, XI) -> np.ndarray:
        XI = self._check_nonzero(XI, "support-function gradient")
        if self.dual is not None:
            return self._derivative_rows(self.dual, 1, XI)
        return self.birkhoff_point_rows(XI)

    def dual_hessian_rows(self, XI) -> np.ndarray:
        XI = self._check_nonzero(XI, "support-function Hessian")
        if self.dual is not None:
            return self._derivative_rows(self.dual, 2, XI)
        E, M = self.du_restricted_rows(XI)
        return E @ M @ np.swapaxes(E, 1, 2) / _norm_rows(XI)[:, None, None]

    def dual_third_rows(self, XI) -> Optional[np.ndarray]:
        third = None if self.dual is None else self._own(self.dual, 3)
        if third is None:
            return None
        return np.asarray(third(self._check_nonzero(XI, "support-function third derivative")), dtype=float)

    @property
    def has_analytic_dual_jets(self) -> bool:
        return self.dual is not None and all(self._own(self.dual, k) is not None for k in (1, 2, 3))

    # -- Birkhoff machinery --------------------------------------------------

    def birkhoff_point_rows(self, XI) -> np.ndarray:
        XI = self._check_nonzero(XI, "Birkhoff point")
        XI = XI / _norm_rows(XI)[:, None]
        if self.dual is not None:
            return self.dual_gradient_rows(XI)
        return self._newton_points(XI)

    def _newton_points(self, XI) -> np.ndarray:
        """u at each row of XI by Newton on the plane x . xi = 1, all rows in
        lockstep; raises what solving the rows one at a time, in order,
        raises first."""
        XI = np.asarray(XI, dtype=float).reshape(-1, 3)
        return in_row_order(lambda rows: self._newton_lockstep(XI[rows]), len(XI))

    def _newton_lockstep(self, XI) -> np.ndarray:
        """Minimise F on the plane x . xi = 1 by damped Newton, seeded at xi.

        min{F(x) : x . xi = 1} = 1 / h_B(xi) (Schneider, Convex Bodies, §1.7),
        and the minimiser x* lies on the ray of u(xi), so u = x* / F(x*) lies
        on ∂B to roundoff wherever the solve stopped. In the coordinates y of
        x = xi + E y, E = tangent_basis(xi), g(y) = F(x) is convex; a step
        solves the 2x2 system Hess g d = -grad g, with grad g = E^T grad F
        and Hess g = E^T Hess F E.

        Every row takes the steps of its own solve; the rows advance together,
        with one gauge call per Newton iteration for the Hessians and one per
        backtracking trial for the gradients. The state holds the running rows
        only; a row leaves it when it stops. On FD gauge gradients the
        residual test |grad g| <= newton_tol is floored at 10 eps / h, h the
        gradient step at xi, below which differences of the gauge value
        carry no information.
        """
        if not self.allow_newton and len(XI):
            raise MissingDualJets("custom norm has no dual jets and the Newton fallback is disabled")
        cfg = self.config
        XI = XI / _norm_rows(XI)[:, None]
        tol = np.full(len(XI), cfg.newton_tol)
        if self._own(self.gauge, 1) is None:
            tol = np.maximum(tol, _FD_RESIDUAL_FLOOR / relative_step(XI, self.fd_step))
        E = tangent_basis(XI)
        U, rows = np.empty_like(XI), np.arange(len(XI))  # rows: those still iterating

        def stage(X, E):
            """The state at the rows X of the planes with bases E."""
            F, G, known = self._plane_gradient_rows(X, E)
            return _NewtonRows(X, F, G, _norm_rows(G), known)

        def stop(stopped):
            """Project the rows stopped onto ∂B, x / F, and drop them from the state."""
            nonlocal rows, E, tol, state
            U[rows[stopped]] = state.X[stopped] / state.F[stopped, None]
            keep = np.delete(np.arange(len(rows)), stopped)
            rows, E, tol = rows[keep], E[keep], tol[keep]
            state = _NewtonRows(*(None if a is None else a[keep] for a in state))

        state = stage(XI, E)
        for _ in range(cfg.newton_max_iter):
            done = state.res_norm <= tol
            if done.any():
                stop(done)
                if not len(rows):
                    return U
            X, F, G, res_norm, known = state
            H = self._plane_hessian_rows(X, E, self.fd_step, known)
            det = _det(H)
            i = first_row(det == 0.0)
            if i is not None:
                raise NewtonDivergence(f"singular gauge Hessian on the plane x.xi = 1 at x={X[i]!r}")
            d0 = (H[:, 0, 1] * G[:, 1] - H[:, 1, 1] * G[:, 0]) / det
            d1 = (H[:, 1, 0] * G[:, 0] - H[:, 0, 0] * G[:, 1]) / det
            delta = E[:, :, 0] * d0[:, None] + E[:, :, 1] * d1[:, None]
            # Backtrack until the gradient shrinks; full steps on quartic-like
            # gauges can overshoot badly from the seed.
            damp, trying = 1.0, np.arange(len(rows))  # the rows still backtracking
            for _ in range(40):
                trial = stage(X[trying] + damp * delta[trying], E[trying])
                better = trial.res_norm < res_norm[trying]
                took = trying[better]
                for a, b in zip(state, trial):
                    if a is not None:
                        a[took] = b[better]
                trying = trying[~better]
                if not len(trying):
                    break
                damp *= 0.5
            else:
                # FD-quality gradients floor the achievable residual; accept
                # a stall within the relaxed tolerance.
                stalled = res_norm[trying]
                i = first_row(~(stalled <= 100.0 * cfg.newton_tol))
                if i is not None:
                    raise NewtonDivergence(f"Birkhoff Newton stalled at |residual| = {stalled[i]:.3e}")
                stop(trying)
        i = first_row(~(state.res_norm <= np.maximum(tol, 100.0 * cfg.newton_tol)))
        if i is not None:
            raise NewtonDivergence(
                f"Birkhoff Newton did not converge in {cfg.newton_max_iter} iterations "
                f"(|residual| = {state.res_norm[i]:.3e})")
        stop(slice(None))
        return U

    def _plane_gradient_rows(self, X, E):
        """F and its gradient E^T grad F along the plane of each row x of X,
        E (N, 3, 2) the planes' bases, and for an FD gradient each row's gauge
        values at x and at its plane gradient stencil, in fd_hessian_rows'
        known layout (else None). An FD gradient takes one gauge call for all
        points; when it raises, the stencil and then the values are evaluated
        again, so the exception is theirs and names the gauge's argument x."""
        gradient = self._own(self.gauge, 1)
        if gradient is not None:
            G = np.asarray(gradient(X), dtype=float)
            return self.gauge_value_rows(X), (G[:, None, :] @ E)[:, 0], None
        h, P = gradient_stencil(X, self.fd_step, E)
        P = P.reshape(-1, 3)
        try:
            vals = np.asarray(self.gauge.value(np.concatenate([P, X])), dtype=float)
        except Exception:
            _field_values(self.gauge.value, P)
            self.gauge_value_rows(X)
            raise
        stencil = _require_finite(vals[:len(P)], P).reshape(len(X), 4)
        F = vals[len(P):]
        return F, _central_diffs(stencil, h), np.concatenate([F[:, None], stencil], axis=1)

    def _plane_hessian_rows(self, X, E, step: float, known=None) -> np.ndarray:
        """E^T Hess F E at the rows of X: the gauge's own Hessian restricted to
        the planes with bases E, or central differences along E at the relative
        step, with the centre and gradient-stencil values taken from known
        when given."""
        hessian = self._own(self.gauge, 2)
        if hessian is not None:
            return _in_basis(E, np.asarray(hessian(X), dtype=float))
        return fd_hessian_rows(self.gauge.value, X, step, known, E)

    def birkhoff_du_rows(self, XI) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """u(xi) and du_restricted(xi) at the rows of XI, as (U, E, M).

        A norm without dual jets normalizes each row once and solves u(xi)
        once; its birkhoff_point_rows, du_restricted_rows and dual_* methods
        all read this route, and so does the chart jet of its Minkowski
        sphere. M inverts the Hessian of F on the plane x . xi = 1 at its
        minimiser x* = u / (u . xi), which is (u . xi) Hess F(u), the
        Weingarten map of ∂B at u (Schneider, Convex Bodies, §2.5). Hess F(u)
        is taken on u-perp, basis B = tangent_basis(u), and carried to E
        along u, its kernel: v = B (B^T v) + t u. So the stencil's points
        depend on u alone, and a xi whose last bits differ but which solves
        to the same u gets the same differences. A gauge without a Hessian
        is differenced along B at _GAUGE_HESSIAN_STEP.
        """
        if self.dual is not None:
            return (self.birkhoff_point_rows(XI), *self.du_restricted_rows(XI))
        XI = self._check_nonzero(XI, "Birkhoff point")
        XI = XI / _norm_rows(XI)[:, None]
        U = self._newton_points(XI)
        E, B = tangent_basis(XI), tangent_basis(U)
        W = _in_basis(np.swapaxes(B, 1, 2) @ E, self._plane_hessian_rows(U, B, _GAUGE_HESSIAN_STEP))
        return U, E, _invert_2x2_spd(W * _dot(U, XI)[:, None, None], "Weingarten map of the unit ball's boundary")

    def du_restricted_rows(self, XI) -> tuple[np.ndarray, np.ndarray]:
        if self.dual is None:
            return self.birkhoff_du_rows(XI)[1:]
        XI = np.asarray(XI, dtype=float)
        XI = XI / _norm_rows(XI)[:, None]
        E = tangent_basis(XI)
        return E, _in_basis(E, self.dual_hessian_rows(XI))

    def dupin_form_rows(self, ETA, X, Y) -> np.ndarray:
        n = self.gauge_gradient_rows(ETA)
        E, M = self.du_restricted_rows(n / _norm_rows(n)[:, None])
        Minv = _invert_2x2_spd(M, "restricted dual Hessian")
        Et = np.swapaxes(E, 1, 2)
        EX = Et @ np.asarray(X, dtype=float)[:, :, None]
        EY = Et @ np.asarray(Y, dtype=float)[:, :, None]
        return (np.swapaxes(EX, 1, 2) @ Minv @ EY)[:, 0, 0]

    # -- methods of one point, generated from their _rows twins ---------------

    gauge_value = _one_point(gauge_value_rows, "x")
    gauge_gradient = _one_point(gauge_gradient_rows, "x")
    gauge_hessian = _one_point(gauge_hessian_rows, "x")
    dual_value = _one_point(dual_value_rows, "xi")
    dual_gradient = _one_point(dual_gradient_rows, "xi")
    dual_hessian = _one_point(dual_hessian_rows, "xi")
    dual_third = _one_point(dual_third_rows, "xi",
                            """Third partials of h_B, or None when not analytically available.""")
    birkhoff_point = _one_point(birkhoff_point_rows, "xi", """u(xi): the point of ∂B whose Euclidean outer normal is xi.

        Computed as grad h_B(xi) when dual jets exist; otherwise x* / F(x*),
        x* the minimiser of F on the plane x . xi = 1, found by damped Newton
        in the plane's 2 coordinates.
        """)
    du_restricted = _one_point(du_restricted_rows, "xi", """Restrict Hess h_B(xi) to the tangent plane xi-perp.

        Returns (E, M) with E the 3x2 orthonormal basis of xi-perp from
        tangent_basis and M = E^T Hess h_B(xi) E, the matrix of du_xi in that
        basis. M is symmetric positive definite for admissible norms.
        """)
    dupin_form = _one_point(dupin_form_rows, "eta X Y", """The inner product <du^{-1}_eta X, Y> on the tangent plane of ∂B at eta.

        X, Y are ambient 3-vectors lying in the plane xi-perp, where xi is the
        Euclidean outer normal of ∂B at eta (recovered from the gauge gradient).
        """)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def euclidean_norm(jet_source: str = "analytic", fd_step: float = 1e-5,
                   config: NumericsConfig = DEFAULT_CONFIG) -> NormModel:
    """The standard Euclidean norm; self-dual, u = identity on the unit sphere."""
    return NormModel("euclidean", _quadform_jets(np.eye(3)), _quadform_jets(np.eye(3)), jet_source, fd_step, {},
                     config=config)


def ellipsoid_norm(A, jet_source: str = "analytic", fd_step: float = 1e-5,
                   config: NumericsConfig = DEFAULT_CONFIG) -> NormModel:
    """Norm with ellipsoidal unit ball: F(x) = sqrt(x^T A x), A symmetric positive definite.

    Dual support function h_B(xi) = sqrt(xi^T A^{-1} xi).
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3) or not np.allclose(A, A.T, atol=1e-12):
        raise InvalidParameter("ellipsoid matrix must be 3x3 symmetric")
    if not _positive_definite(A):
        raise InvalidParameter("ellipsoid matrix must be positive definite")
    return NormModel("ellipsoid", _quadform_jets(A), _quadform_jets(_solve(A, np.eye(3))[0]), jet_source, fd_step,
                     {"A": A}, config=config)


def lp_norm(p: float, jet_source: str = "analytic", fd_step: float = 1e-5,
            axis_guard: float = 1e-8, config: NumericsConfig = DEFAULT_CONFIG) -> NormModel:
    """The lp norm, 1 < p < inf; dual support function is the lq norm, 1/p + 1/q = 1.

    Hessian/third evaluations clamp points a relative distance axis_guard away
    from the coordinate planes (curvature of the lp sphere degenerates on the
    axes for p > 2, and dual entries blow up there for the conjugate q < 2).
    """
    if not (1.0 < p < np.inf):
        raise InvalidParameter(f"lp family needs 1 < p < inf, got p={p}")
    return NormModel("lp", _lp_jets(p, axis_guard), _lp_jets(p / (p - 1.0), axis_guard), jet_source, fd_step,
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
    Without dual jets (and unless allow_newton=False), the Birkhoff point
    u(xi) is x* / F(x*), x* the minimiser of F on the plane x . xi = 1, by
    damped Newton in the plane's 2 coordinates, the rows of a batch advanced
    in lockstep; du is the inverse of F's Hessian on that plane at x*. Gauge
    derivatives missing from the jet come from central differences along the
    plane: 9 gauge values per Newton iteration (a 5-point gradient stencil and
    4 cross points) and 9 for du. Such a norm's minkowski_sphere takes its
    chart jet from u and du of one solve per point, which point_geometry on
    that sphere reuses for eta: about 66 gauge values per point on lp(4) and
    41 on an ellipsoid gauge. fd_step must be finite and positive.
    """
    gauge = _per_point_jet(gauge)
    if dual is not None:
        dual = _per_point_jet(dual)
    return NormModel("custom", gauge, dual, "analytic", fd_step, {},
                     allow_newton=allow_newton, config=config)


def _reject_unread_keys(spec: dict, build: Callable, what: str) -> None:
    """InvalidParameter naming the keys of a config spec, other than family,
    that are no parameter of build, the family's constructor."""
    reads = inspect.signature(build).parameters.keys() - {"config", "norm"}
    stray = [key for key in spec if key != "family" and key not in reads]
    if stray:
        raise InvalidParameter(f"the {spec['family']} {what} reads no {', '.join(map(repr, stray))}")


def norm_from_spec(spec: dict, config: NumericsConfig = DEFAULT_CONFIG) -> NormModel:
    """Build a NormModel from a CLI-config dictionary.

    Schema: {"family": "euclidean" | "ellipsoid" | "lp",
             "A": [[...]] (ellipsoid), "p": number, "axis_guard": number (lp),
             "jet_source": "analytic" | "fd", "fd_step": number}
    A key that the family's constructor does not take is an InvalidParameter.
    """
    family = spec.get("family")
    build = {"euclidean": euclidean_norm, "ellipsoid": ellipsoid_norm, "lp": lp_norm}.get(family)
    if build is None:
        raise InvalidParameter(f"unknown norm family {family!r} (custom norms are library-only)")
    _reject_unread_keys(spec, build, "norm")
    jet_source = spec.get("jet_source", "analytic")
    fd_step = float(spec.get("fd_step", 1e-5))
    if family == "euclidean":
        return euclidean_norm(jet_source, fd_step, config)
    if family == "ellipsoid":
        if "A" not in spec:
            raise InvalidParameter("ellipsoid norm spec needs field 'A'")
        return ellipsoid_norm(np.asarray(spec["A"], dtype=float), jet_source, fd_step, config)
    if "p" not in spec:
        raise InvalidParameter("lp norm spec needs field 'p'")
    return lp_norm(float(spec["p"]), jet_source, fd_step, float(spec.get("axis_guard", 1e-8)), config)
