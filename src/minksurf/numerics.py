"""Shared numerical kernels: finite differences, 2x2 inverses and generalized
eigensolves, periodic Simpson quadrature, guarded linear solves, and
Brent's bracketed root finder, for one bracket or many advanced in lockstep.

All kernels are stateless; tolerances and steps come in as arguments, most of
them from one NumericsConfig record. They work on arrays of points: a `_rows`
kernel takes one point per row and a batched field, and the function of one
point of the same name runs it on a batch of one, adapting the scalar field
it is given with per_point. The 2x2 kernels take single matrices or stacks.
"""

from __future__ import annotations

import functools
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
    newton_tol bounds the residual of the Birkhoff Newton fallback; on FD
    gauge gradients at step h it is floored at 10 eps / h (about 2.2e-10 at
    the default step), a floor derived from the step, not a setting.
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


def per_point(fn, point_ndim: int = 0):
    """Adapt fn, a callable of one point, to batches of points.

    A point has point_ndim axes (0 for a chart parameter, 1 for a vector of
    R^n). Called with arguments that carry one more leading axis, the adapter
    calls fn on each point in order and stacks the results, component by
    component when fn returns a tuple; called with single points, it is fn.
    This is how user callables enter the array kernels.
    """

    def batched(*args):
        if np.ndim(args[0]) == point_ndim:
            return fn(*args)
        rows = list(map(fn, *args))
        if rows and isinstance(rows[0], tuple):
            return tuple(np.array(c, dtype=float) for c in zip(*rows))
        return np.array(rows, dtype=float)

    return batched


def in_row_order(batch, n: int):
    """batch(rows) over all n rows, raising what a per-point loop would raise.

    batch takes a slice of the rows. When the whole batch raises, the rows
    are run again one at a time, in order, so the exception that escapes is
    the one of the first failing row, with that row's message and location.
    """
    try:
        return batch(slice(None))
    except Exception:
        for i in range(n):
            batch(slice(i, i + 1))
        raise


def _field_values(field, X: np.ndarray) -> np.ndarray:
    """A batched scalar field on the rows of X, as floats.

    An exception or a non-finite value becomes EvaluationFailure at the first
    row that shows it, in row order.
    """
    try:
        vals = np.asarray(field(X), dtype=float).reshape(len(X))
    except Exception as exc:
        if len(X) > 1:
            for i in range(len(X)):
                _field_values(field, X[i:i + 1])
        raise EvaluationFailure(f"field evaluation failed at {X[0]!r}: {exc}") from exc
    return _require_finite(vals, X)


def _require_finite(vals: np.ndarray, X: np.ndarray) -> np.ndarray:
    """vals, the field values at the rows of X; EvaluationFailure at the first
    row whose value is not finite."""
    finite = np.isfinite(vals)
    if not finite.all():
        raise EvaluationFailure(f"field returned non-finite value at {X[int(np.argmin(finite))]!r}")
    return vals


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis (a stacked matmul, so each row
    rounds exactly as the dot product of that row alone)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean length of each row (of the point, for a single point)."""
    return np.sqrt(_dot(x, x))


def _stack_last(*cols) -> np.ndarray:
    """Arrays of the shape of the first (or floats), stacked along a new last axis."""
    out = np.empty(np.shape(cols[0]) + (len(cols),))
    for k, c in enumerate(cols):
        out[..., k] = c
    return out


def _mat2(a, b, c, d) -> np.ndarray:
    """The 2x2 matrices [[a, b], [c, d]], stacked like a."""
    out = np.empty(np.shape(a) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products over the last axis, computed as numpy.cross computes them."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return _stack_last(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _central_diff_rows(field, X, offsets, h, richardson: bool) -> np.ndarray:
    """(field(x + h d) - field(x - h d)) / 2h for each row x of X (N, n), each
    direction d and the step h of the row: an (N, k) array.

    offsets (k, 2, n) holds +d, -d for each of the k directions, in the order
    the field is evaluated.
    """
    n = X.shape[1]

    def d(h_):
        f = _field_values(field, (X[:, None, None, :] + h_[:, None, None, None] * offsets).reshape(-1, n))
        return _central_diffs(f.reshape(len(X), -1), h_)

    if richardson:
        return (4.0 * d(h / 2.0) - d(h)) / 3.0
    return d(h)


def _central_diffs(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(f(x + h d) - f(x - h d)) / 2h per row, from each row's values at the
    pairs of points +d, -d, in that order."""
    return (f[:, 0::2] - f[:, 1::2]) / (2.0 * h)[:, None]


@functools.cache
def _gradient_offsets(n: int) -> np.ndarray:
    """+-e_i for each axis i of R^n, as central-difference offsets."""
    offsets = _plus_minus(np.eye(n))
    offsets.flags.writeable = False
    return offsets


def _plus_minus(D: np.ndarray) -> np.ndarray:
    """The offsets +d, -d of each direction d (a row of D)."""
    return np.stack([D, -D], axis=1)


def central_diff(field, point, direction, step: float, richardson: bool = False) -> float:
    """Directional derivative (f(p + h d) - f(p - h d)) / 2h, O(h^2).

    With richardson=True, combines steps h and h/2 for O(h^4):
    (4 D(h/2) - D(h)) / 3.
    """
    X = np.asarray(point, dtype=float)[None]
    offsets = _plus_minus(np.asarray(direction, dtype=float)[None])
    return float(_central_diff_rows(per_point(field, 1), X, offsets, np.array([step]), richardson)[0, 0])


def relative_step(point, step: float):
    """Step scaled by the point's Euclidean size, floored at the absolute step.

    point is one point (giving a float) or rows of points (giving one step per row).
    """
    point = np.asarray(point, dtype=float)
    if point.ndim == 1:
        return step * max(1.0, float(np.sqrt(point @ point)))
    return step * np.maximum(1.0, np.sqrt(_dot(point, point)))


def fd_gradient_rows(field, X, step: float, richardson: bool = False) -> np.ndarray:
    """Central-difference gradients of a batched scalar field at the rows of X.

    field maps (M, n) rows to M values; steps are relative per row.
    """
    X = np.asarray(X, dtype=float)
    return _central_diff_rows(field, X, _gradient_offsets(X.shape[1]), relative_step(X, step), richardson)


def fd_gradient(field, point, step: float, richardson: bool = False) -> np.ndarray:
    """Central-difference gradient of a scalar field on R^n."""
    return fd_gradient_rows(per_point(field, 1), np.asarray(point, dtype=float)[None],
                            step, richardson)[0]


def _mixed(fpp, fpm, fmp, fmm, h):
    """The 4-point cross stencil from its four values."""
    return (fpp - fpm - fmp + fmm) / (4.0 * h**2)


@functools.cache
def _hessian_offsets(n: int) -> np.ndarray:
    """Stencil offsets of fd_hessian in evaluation order: the centre, then per
    axis i the pair +-e_i followed by the cross stencils (i, j), j > i."""
    eye = np.eye(n)
    offsets = [np.zeros(n)]
    for i in range(n):
        offsets += [eye[i], -eye[i]]
        for j in range(i + 1, n):
            offsets += [eye[i] + eye[j], eye[i] - eye[j], -eye[i] + eye[j], -eye[i] - eye[j]]
    offsets = np.array(offsets)
    offsets.flags.writeable = False
    return offsets


def fd_hessian_rows(field, X, step: float) -> np.ndarray:
    """Central-difference Hessians of a batched scalar field at the rows of X, symmetrized.

    Diagonal: (f(x+h e_i) - 2 f(x) + f(x-h e_i)) / h^2.
    Off-diagonal: the standard 4-point cross stencil. Steps are relative per row.
    """
    X = np.asarray(X, dtype=float)
    N, n = X.shape
    h = relative_step(X, step)
    O = _hessian_offsets(n)
    f = _field_values(field, (X[:, None, :] + h[:, None, None] * O).reshape(-1, n)).reshape(N, -1)
    hess = np.empty((N, n, n))
    k = 1
    for i in range(n):
        hess[:, i, i] = (f[:, k] - 2.0 * f[:, 0] + f[:, k + 1]) / h**2
        k += 2
        for j in range(i + 1, n):
            hess[:, i, j] = hess[:, j, i] = _mixed(*f[:, k:k + 4].T, h)
            k += 4
    return hess


def fd_hessian(field, point, step: float) -> np.ndarray:
    """Central-difference Hessian of a scalar field on R^n, symmetrized."""
    return fd_hessian_rows(per_point(field, 1), np.asarray(point, dtype=float)[None], step)[0]


def fd_second_directional_rows(field, P, X, Y, step) -> np.ndarray:
    """X(Y(field)) at the rows of P by the 4-point stencil, for a batched field.

    X, Y are directions (one, or one per row); step is absolute (one, or one
    per row).
    """
    P = np.asarray(P, dtype=float)
    h = np.broadcast_to(np.asarray(step, dtype=float), (len(P),))
    pts = _cross_stencil(P, X, Y, h)
    f = _field_values(field, pts.reshape(-1, P.shape[1])).reshape(len(P), 4)
    return _mixed(*f.T, h)


def _cross_stencil(P, X, Y, h) -> np.ndarray:
    """The 4 points P + hX + hY, P + hX - hY, P - hX + hY, P - hX - hY of the
    mixed stencil at each row of P (N, n), with the step h of the row: (N, 4, n)."""
    hX = h[:, None] * np.asarray(X, dtype=float)
    hY = h[:, None] * np.asarray(Y, dtype=float)
    return np.stack([P + hX + hY, P + hX - hY, P - hX + hY, P - hX - hY], axis=1)


def fd_second_directional(field, point, X, Y, step: float) -> float:
    """Second mixed directional derivative X(Y(field)) at point, by the 4-point stencil.

    Exact bilinear pairing X^T Hess(field) Y up to O(step^2); used for
    chart-coordinate Hessians at critical points. step is absolute.
    """
    return float(fd_second_directional_rows(per_point(field, 1), np.asarray(point, dtype=float)[None],
                                            np.asarray(X, dtype=float)[None],
                                            np.asarray(Y, dtype=float)[None], step)[0])


def chart_stencil(s, t, h) -> tuple[np.ndarray, np.ndarray]:
    """The 4 central-difference points of each chart point (s, t) with step h,
    as (N, 4) arrays S, T in the order (s+h, t), (s-h, t), (s, t+h), (s, t-h)."""
    s, t, h = (np.asarray(a, dtype=float)[:, None] for a in (s, t, h))
    return (np.concatenate([s + h, s - h, s, s], axis=1),
            np.concatenate([t, t, t + h, t - h], axis=1))


def first_row(bad) -> int | None:
    """Index of the first True entry of a boolean row mask, or None."""
    bad = np.asarray(bad)
    return int(np.argmax(bad)) if bad.any() else None


def _invert_2x2_spd(M: np.ndarray, what: str) -> np.ndarray:
    """Inverses of 2x2 matrices (one, or a stack); raises for the first singular one."""
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)) ** 2)
    i = first_row(np.ravel(~np.isfinite(det) | (np.abs(det) < 1e-14 * scale)))
    if i is not None:
        raise SingularRestriction(f"{what} is numerically singular (det = {np.ravel(det)[i]:.3e})")
    return _mat2(M[..., 1, 1], -M[..., 0, 1], -M[..., 1, 0], M[..., 0, 0]) / det[..., None, None]


def sym_eigen_2x2(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a symmetric 2x2 matrix, or of a stack of them.

    Returns (eigenvalues ascending, eigenvectors as columns, orthonormal),
    with the stack axes leading.
    """
    C = np.asarray(C, dtype=float)
    a, c, b = C[..., 0, 0], 0.5 * (C[..., 0, 1] + C[..., 1, 0]), C[..., 1, 1]
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), 1.0))
    a_, b_, c_ = a / scale, b / scale, c / scale
    mean = 0.5 * (a_ + b_)
    half_diff = 0.5 * (a_ - b_)
    radius = np.hypot(half_diff, c_)
    vals = _stack_last(scale * (mean - radius), scale * (mean + radius))
    round_ = radius <= 1e-15 * np.maximum(1.0, np.abs(mean))
    # Eigenvector of the larger eigenvalue from the more stable row; a round
    # matrix takes the identity frame.
    up = half_diff >= 0.0
    v2 = _stack_last(np.where(up, half_diff + radius, c_), np.where(up, c_, radius - half_diff))
    v2[round_] = (0.0, 1.0)
    v2 /= np.sqrt(_dot(v2, v2))[..., None]
    v1 = _stack_last(-v2[..., 1], v2[..., 0])
    v1[round_] = (1.0, 0.0)
    return vals, _mat2(v1[..., 0], v2[..., 0], v1[..., 1], v2[..., 1])


def sym_generalized_eigen_2x2(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A x = lambda B x for symmetric A and SPD B (2x2, or stacks of them).

    Reduction by Cholesky of B: with B = L L^T, the problem becomes the
    ordinary symmetric problem (L^-1 A L^-T) y = lambda y, x = L^-T y.
    Returns eigenvalues ascending and eigenvectors as columns, B-orthonormal
    (x_i^T B x_j = delta_ij). Raises NotSPD for the first B that is not SPD.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    b11, b12, b22 = B[..., 0, 0], 0.5 * (B[..., 0, 1] + B[..., 1, 0]), B[..., 1, 1]
    l11 = np.sqrt(np.maximum(b11, 0.0))
    l21 = np.divide(b12, l11, out=np.zeros_like(b12), where=b11 > 0.0)
    rest = b22 - l21**2
    i = first_row(np.ravel((b11 <= 0.0) | (rest <= 0.0)))
    if i is not None:
        raise NotSPD("B[0,0] <= 0" if np.ravel(b11)[i] <= 0.0 else "B is not positive definite")
    l22 = np.sqrt(rest)
    # L = [[l11, 0], [l21, l22]]; C = L^-1 A L^-T computed explicitly.
    a11, a12, a22 = A[..., 0, 0], 0.5 * (A[..., 0, 1] + A[..., 1, 0]), A[..., 1, 1]
    # First solve L M = A for M (forward substitution per column), then C = M L^-T.
    m11 = a11 / l11
    m12 = a12 / l11
    m21 = (a12 - l21 * m11) / l22
    m22 = (a22 - l21 * m12) / l22
    c11 = m11 / l11
    c12 = (m12 - l21 * c11) / l22
    c22 = (m22 - l21 * (m21 / l11)) / l22  # symmetric: c21 = c12
    eigvals, Y = sym_eigen_2x2(_mat2(c11, c12, c12, c22))
    # x = L^-T y: back substitution.
    x2 = Y[..., 1, :] / l22[..., None]
    x1 = (Y[..., 0, :] - l21[..., None] * x2) / l11[..., None]
    return eigvals, _mat2(x1[..., 0], x1[..., 1], x2[..., 0], x2[..., 1])


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


def guarded_solve_rows(M: np.ndarray, rhs: np.ndarray, cond_guard: float,
                      locations=None) -> np.ndarray:
    """Solve the stacked systems M[i] x = rhs[i] (rhs[i] a vector or a matrix).

    Raises NumericalFailure, with locations[i] as its location, for the first
    system whose cond_2(M[i]) exceeds the guard.
    """
    M = np.asarray(M, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    cond = np.linalg.cond(M)
    i = first_row(~np.isfinite(cond) | (cond > cond_guard))
    if i is not None:
        raise NumericalFailure(
            f"linear solve rejected: condition number {cond[i]:.3e} exceeds guard {cond_guard:.3e}",
            location=None if locations is None else locations[i],
        )
    if rhs.ndim == M.ndim - 1:
        return np.linalg.solve(M, rhs[..., None])[..., 0]
    return np.linalg.solve(M, rhs)


def guarded_solve(M: np.ndarray, rhs: np.ndarray, cond_guard: float,
                  location: tuple | None = None) -> np.ndarray:
    """Solve M x = rhs, raising NumericalFailure if cond_2(M) exceeds the guard."""
    return guarded_solve_rows(np.asarray(M, dtype=float)[None], np.asarray(rhs, dtype=float)[None],
                              cond_guard, [location])[0]


def _brent(a: float, b: float, xtol: float):
    """Brent's method on the bracket [a, b], step for step as in scipy's brentq
    (relative tolerance 4 eps, at most 100 iterations), as a generator: it
    yields each point where it needs f, is sent f there, and returns the root.

    Raises InvalidParameter when f(a) and f(b) have the same sign.
    """
    xpre, xcur = float(a), float(b)
    fpre = float((yield xpre))
    fcur = float((yield xcur))
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
        fcur = float((yield xcur))
    raise NumericalFailure(f"brentq did not converge in 100 iterations on [{a}, {b}]")


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of f in the bracket [a, b] by Brent's method, step for step as in
    scipy's brentq (relative tolerance 4 eps, at most 100 iterations).

    Raises InvalidParameter when f(a) and f(b) have the same sign.
    """
    steps = _brent(a, b, xtol)
    x = next(steps)
    while True:
        try:
            x = steps.send(f(x))
        except StopIteration as stop:
            return stop.value


def brentq_rows(f, a, b, xtol, fa=None, fb=None) -> np.ndarray:
    """Roots of f in the brackets [a[i], b[i]], all advanced together by Brent's method.

    Each row takes the steps brentq takes on it, so its root is bitwise
    brentq's. f is called once per iteration, as f(rows, x) with the indices
    of the rows still running and their points, and returns their values.
    The values at a and b, when given as fa and fb, are not asked of f.
    Raises what brentq on each row in turn would raise first.
    """
    a, b, xtol = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, xtol)))
    ends = [] if fa is None else [fa, fb]

    def run(rows):
        idx = np.arange(len(a))[rows]
        steps = [_brent(a[i], b[i], xtol[i]) for i in idx]
        x = np.array([next(g) for g in steps])
        roots = np.empty(len(idx))
        live = np.arange(len(idx))
        known = iter(ends)
        while len(live):
            given = next(known, None)
            values = f(idx[live], x[live]) if given is None else np.asarray(given)[idx[live]]
            running = []
            for j, v in zip(live.tolist(), np.asarray(values, dtype=float).tolist()):
                try:
                    x[j] = steps[j].send(v)
                    running.append(j)
                except StopIteration as stop:
                    roots[j] = stop.value
            live = np.array(running, dtype=int)
        return roots

    return in_row_order(run, len(a))


def convergence_order(steps, errors) -> float:
    """Least-squares slope of log|error| against log(step).

    Near-machine-precision errors are floored to avoid -inf; callers should
    pass steps in the truncation-dominated regime.
    """
    steps = np.asarray(steps, dtype=float)
    errors = np.maximum(np.abs(np.asarray(errors, dtype=float)), 1e-300)
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    return float(slope)
