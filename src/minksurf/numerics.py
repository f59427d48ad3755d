"""Shared numerical kernels: finite differences, 2x2 inverses and generalized
eigensolves, periodic Simpson quadrature, guarded linear solves, and a
bracketed root finder.

All kernels are stateless; tolerances and steps come in as arguments, most of
them from one NumericsConfig record.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import (EvaluationFailure, InvalidParameter, NotSPD,
                     NumericalFailure, OddSampleCount, SingularRestriction)


@dataclass(frozen=True)
class NumericsConfig:
    """The tolerances and steps the curvature pipeline and the checks read.

    fd_step is relative: actual steps are fd_step * max(1, |x|_2) around the
    evaluation point x. Norm and surface jets take their own fd_step from
    their specs. richardson is accepted but no pipeline stage reads it yet.
    A report does not record the resolved values: its environment holds the
    config as given, so fields left at their defaults do not appear.
    """

    fd_step: float = 1e-5
    richardson: bool = False
    newton_max_iter: int = 50
    newton_tol: float = 1e-12
    quad_nodes: int = 256
    umbilic_tol: float = 1e-7
    critical_tol: float = 1e-6
    cond_guard: float = 1e8

    def __post_init__(self):
        numeric_fields = (
            self.fd_step, self.newton_max_iter, self.newton_tol,
            self.quad_nodes, self.umbilic_tol, self.critical_tol,
            self.cond_guard,
        )
        if any(v <= 0 for v in numeric_fields):
            raise InvalidParameter("all NumericsConfig numeric fields must be positive")
        if self.quad_nodes % 2 != 0:
            raise InvalidParameter("quad_nodes must be even (composite Simpson)")

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = NumericsConfig()


def _eval(field, x):
    """Evaluate a scalar field, converting exceptions/non-finite output to EvaluationFailure."""
    try:
        val = float(field(x))
    except Exception as exc:  # pragma: no cover - defensive wrapper
        raise EvaluationFailure(f"field evaluation failed at {x!r}: {exc}") from exc
    if not np.isfinite(val):
        raise EvaluationFailure(f"field returned non-finite value at {x!r}")
    return val


def central_diff(field, point, direction, step: float, richardson: bool = False) -> float:
    """Directional derivative (f(p + h d) - f(p - h d)) / 2h, O(h^2).

    With richardson=True, combines steps h and h/2 for O(h^4):
    (4 D(h/2) - D(h)) / 3.
    """
    point = np.asarray(point, dtype=float)
    direction = np.asarray(direction, dtype=float)

    def d(h):
        return (_eval(field, point + h * direction) - _eval(field, point - h * direction)) / (2.0 * h)

    if richardson:
        return (4.0 * d(step / 2.0) - d(step)) / 3.0
    return d(step)


def relative_step(point, step: float) -> float:
    """Step scaled by the point's Euclidean size, floored at the absolute step."""
    return step * max(1.0, float(np.linalg.norm(np.asarray(point, dtype=float))))


def fd_gradient(field, point, step: float, richardson: bool = False) -> np.ndarray:
    """Central-difference gradient of a scalar field on R^n."""
    point = np.asarray(point, dtype=float)
    h = relative_step(point, step)
    n = point.size
    grad = np.empty(n)
    eye = np.eye(n)
    for i in range(n):
        grad[i] = central_diff(field, point, eye[i], h, richardson=richardson)
    return grad


def fd_hessian(field, point, step: float) -> np.ndarray:
    """Central-difference Hessian of a scalar field on R^n, symmetrized.

    Diagonal: (f(x+h e_i) - 2 f(x) + f(x-h e_i)) / h^2.
    Off-diagonal: standard 4-point cross stencil.
    """
    point = np.asarray(point, dtype=float)
    h = relative_step(point, step)
    n = point.size
    eye = np.eye(n)
    f0 = _eval(field, point)
    hess = np.empty((n, n))
    for i in range(n):
        fp = _eval(field, point + h * eye[i])
        fm = _eval(field, point - h * eye[i])
        hess[i, i] = (fp - 2.0 * f0 + fm) / h**2
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = fd_second_directional(field, point, eye[i], eye[j], h)
    return hess


def fd_second_directional(field, point, X, Y, step: float) -> float:
    """Second mixed directional derivative X(Y(field)) at point, by the 4-point stencil.

    Exact bilinear pairing X^T Hess(field) Y up to O(step^2); used for
    chart-coordinate Hessians at critical points. step is absolute.
    """
    point = np.asarray(point, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    h = step
    fpp = _eval(field, point + h * X + h * Y)
    fpm = _eval(field, point + h * X - h * Y)
    fmp = _eval(field, point - h * X + h * Y)
    fmm = _eval(field, point - h * X - h * Y)
    return (fpp - fpm - fmp + fmm) / (4.0 * h**2)


def _invert_2x2_spd(M: np.ndarray, what: str) -> np.ndarray:
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    scale = max(1.0, float(np.abs(M).max()) ** 2)
    if not np.isfinite(det) or abs(det) < 1e-14 * scale:
        raise SingularRestriction(f"{what} is numerically singular (det = {det:.3e})")
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det


def sym_eigen_2x2(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a symmetric 2x2 matrix.

    Returns (eigenvalues ascending, eigenvectors as columns, orthonormal).
    """
    a, c, b = float(C[0, 0]), float(0.5 * (C[0, 1] + C[1, 0])), float(C[1, 1])
    scale = max(abs(a), abs(b), abs(c), 1.0)
    a_, b_, c_ = a / scale, b / scale, c / scale
    mean = 0.5 * (a_ + b_)
    half_diff = 0.5 * (a_ - b_)
    radius = np.hypot(half_diff, c_)
    lam1 = scale * (mean - radius)
    lam2 = scale * (mean + radius)
    if radius <= 1e-15 * max(1.0, abs(mean)):
        return np.array([lam1, lam2]), np.eye(2)
    # Eigenvector of the larger eigenvalue from the more stable row.
    if half_diff >= 0.0:
        v2 = np.array([half_diff + radius, c_])
    else:
        v2 = np.array([c_, radius - half_diff])
    v2 /= np.linalg.norm(v2)
    v1 = np.array([-v2[1], v2[0]])
    return np.array([lam1, lam2]), np.column_stack([v1, v2])


def sym_generalized_eigen_2x2(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A x = lambda B x for symmetric A and SPD B (2x2).

    Reduction by Cholesky of B: with B = L L^T, the problem becomes the
    ordinary symmetric problem (L^-1 A L^-T) y = lambda y, x = L^-T y.
    Returns eigenvalues ascending and eigenvectors as columns, B-orthonormal
    (x_i^T B x_j = delta_ij).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    b11, b12, b22 = B[0, 0], 0.5 * (B[0, 1] + B[1, 0]), B[1, 1]
    if b11 <= 0.0:
        raise NotSPD("B[0,0] <= 0")
    l11 = np.sqrt(b11)
    l21 = b12 / l11
    rest = b22 - l21**2
    if rest <= 0.0:
        raise NotSPD("B is not positive definite")
    l22 = np.sqrt(rest)
    # L = [[l11, 0], [l21, l22]]; C = L^-1 A L^-T computed explicitly.
    a11, a12, a22 = A[0, 0], 0.5 * (A[0, 1] + A[1, 0]), A[1, 1]
    # First solve L M = A for M (forward substitution per column), then C = M L^-T.
    m11 = a11 / l11
    m12 = a12 / l11
    m21 = (a12 - l21 * m11) / l22
    m22 = (a22 - l21 * m12) / l22
    c11 = m11 / l11
    c12 = (m12 - l21 * c11) / l22
    c22 = (m22 - l21 * (m21 / l11)) / l22  # symmetric: c21 = c12
    eigvals, Y = sym_eigen_2x2(np.array([[c11, c12], [c12, c22]]))
    # x = L^-T y: back substitution.
    X = np.empty((2, 2))
    for k in range(2):
        y = Y[:, k]
        x2 = y[1] / l22
        x1 = (y[0] - l21 * x2) / l11
        X[:, k] = (x1, x2)
    return eigvals, X


def simpson_periodic_mean(samples) -> float:
    """Mean of a periodic function over one period from uniform samples.

    samples[k] = f(2 pi k / n), k = 0..n-1 (endpoint not repeated). Composite
    Simpson over n panels; n must be even and >= 4. Exact to roundoff for
    trigonometric polynomials of low degree.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 4 or n % 2 != 0:
        raise OddSampleCount(f"need an even sample count >= 4, got {n}")
    weights = np.full(n, 2.0)
    weights[1::2] = 4.0
    # Simpson over [0, 2pi] with f(2pi) = f(0): weight 1+1 folds onto index 0.
    integral = (2.0 * np.pi / n) / 3.0 * float(weights @ samples)
    return integral / (2.0 * np.pi)


def guarded_solve(M: np.ndarray, rhs: np.ndarray, cond_guard: float,
                  location: tuple | None = None) -> np.ndarray:
    """Solve M x = rhs, raising NumericalFailure if cond_2(M) exceeds the guard."""
    M = np.asarray(M, dtype=float)
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > cond_guard:
        raise NumericalFailure(
            f"linear solve rejected: condition number {cond:.3e} exceeds guard {cond_guard:.3e}",
            location=location,
        )
    return np.linalg.solve(M, rhs)


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of f in the bracket [a, b] by Brent's method, step for step as in
    scipy's brentq (relative tolerance 4 eps, at most 100 iterations).

    Raises InvalidParameter when f(a) and f(b) have the same sign.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise InvalidParameter(f"f({a}) and f({b}) have the same sign; no bracketed root")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):  # the bracket moves to [xpre, xcur]
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = 0.5 * (xtol + 4.0 * np.finfo(float).eps * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
    raise NumericalFailure(f"brentq did not converge in 100 iterations on [{a}, {b}]")


def convergence_order(steps, errors) -> float:
    """Least-squares slope of log|error| against log(step).

    Near-machine-precision errors are floored to avoid -inf; callers should
    pass steps in the truncation-dominated regime.
    """
    steps = np.asarray(steps, dtype=float)
    errors = np.maximum(np.abs(np.asarray(errors, dtype=float)), 1e-300)
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    return float(slope)
