"""Closed-form reference values used across the test suite.

The ellipsoid curvature formulas are the classical ones for
f(s,t) = (a sin s cos t, b sin s sin t, c cos s); both were re-derived
symbolically (first/second fundamental forms, sympy) before being frozen
here, with the normal oriented outward and convexity counted positive.
fd_hessian_rows_by_pairs is the FD Hessian kernel as it was written before
its Hessian was assembled from a cached layout: one stencil built per call,
one pair of entries filled per (i, j). fd_jet_by_formulas is the FD surface
jet as it was before numerics placed and differenced its stencil: its own
9-point stencil and six difference formulas. write_fields_csv_by_csv_writer is the
field table writer as it was before each row became one string template:
csv.writer, and format(v, ".17g") per value. cond_by_svd is the condition
number the linear-solve guard took from numpy's SVD before it had a closed
form. solve_by_scalars is the small-matrix solve the guard and the
package's 2x2 and 3x3 systems run, matrix by matrix and entry by entry, in
Python floats. quadratic_dual_hessian and lq_dual_hessian are the Hessians of the
dual norms of the ellipsoid (and Euclidean) and lp families, written out by
hand for the graph oracle. ellipsoid_support_hessian and
torus_support_hessian are the Hessians of those surfaces' support
functions, and support_curvatures the curvatures they give with a dual
Hessian, by linear algebra alone. schema_validator is
jsonschema's validator of a shipped schema, against which the CLI's own
config check is tested and reports are validated.
"""

from __future__ import annotations

import csv
import functools

import jsonschema
import numpy as np

from minksurf.cli import FIELD_COLUMNS, _blaschke_ratios, load_schema
from minksurf.numerics import _field_values, _mixed, _place, _require_finite, relative_step
from minksurf.surfaces import SurfaceJet


def ellipsoid_gaussian(a: float, b: float, c: float, p: np.ndarray) -> float:
    x, y, z = p
    nu2 = (x / a**2) ** 2 + (y / b**2) ** 2 + (z / c**2) ** 2
    return 1.0 / ((a * b * c) ** 2 * nu2**2)


def ellipsoid_mean(a: float, b: float, c: float, p: np.ndarray) -> float:
    x, y, z = p
    nu2 = (x / a**2) ** 2 + (y / b**2) ** 2 + (z / c**2) ** 2
    return (a**2 + b**2 + c**2 - (x**2 + y**2 + z**2)) / (
        2.0 * (a * b * c) ** 2 * nu2**1.5)


def lp_gauge(p: float, x: np.ndarray) -> float:
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def torus_gaussian(R: float, r: float, s: float) -> float:
    """K of ((R + r cos s) cos t, (R + r cos s) sin t, r sin s), outward normal."""
    return np.cos(s) / (r * (R + r * np.cos(s)))


def torus_mean(R: float, r: float, s: float) -> float:
    return (R + 2.0 * r * np.cos(s)) / (2.0 * r * (R + r * np.cos(s)))


def cond_by_svd(M: np.ndarray) -> np.ndarray:
    """cond_2 of each matrix of a stack, sigma_max / sigma_min from numpy's SVD."""
    return np.linalg.cond(M)


def solve_by_scalars(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """numerics._solve of a stack of nonsingular 2x2 or 3x3 matrices, matrix
    by matrix in Python floats: Cramer's rule for 2x2; for 3x3, elimination
    with partial pivoting (the first largest |entry| of the column), then back
    substitution column by column."""
    out = np.empty(np.shape(B))
    for i, (m, rhs) in enumerate(zip(np.asarray(M).tolist(), np.asarray(B).tolist())):
        n, cols = len(m), range(len(rhs[0]))
        if n == 2:
            (a, b), (c, d) = m
            det = a * d - b * c
            out[i] = [[(d * rhs[0][j] - b * rhs[1][j]) / det for j in cols],
                      [(a * rhs[1][j] - c * rhs[0][j]) / det for j in cols]]
            continue
        for k in range(n):
            p = max(range(k, n), key=lambda r: (abs(m[r][k]), -r))
            m[k], m[p], rhs[k], rhs[p] = m[p], m[k], rhs[p], rhs[k]
            for r in range(k + 1, n):
                lk = m[r][k] / m[k][k]
                m[r] = [m[r][c] - lk * m[k][c] if c > k else m[r][c] for c in range(n)]
                rhs[r] = [rhs[r][j] - lk * rhs[k][j] for j in cols]
        for k in reversed(range(n)):
            rhs[k] = [v / m[k][k] for v in rhs[k]]
            for r in range(k):
                rhs[r] = [rhs[r][j] - m[r][k] * rhs[k][j] for j in cols]
        out[i] = rhs
    return out


def quadratic_dual_hessian(B: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Hessians of F°(xi) = sqrt(xi^T B xi) at the rows of xi:
    B / F° - (B xi)(B xi)^T / F°^3."""
    Bxi = xi @ B
    F = np.sqrt(np.einsum("ni,ni->n", xi, Bxi))[:, None, None]
    return B / F - Bxi[:, :, None] * Bxi[:, None, :] / F**3


def lq_dual_hessian(q: float, xi: np.ndarray) -> np.ndarray:
    """Hessians of F°(xi) = |xi|_q at the rows of xi, with g = grad F°:
    (q - 1) / F° (diag(|xi_i|^(q-2)) / F°^(q-2) - g g^T)."""
    F = np.sum(np.abs(xi) ** q, axis=1) ** (1.0 / q)
    g = np.abs(xi) ** (q - 1.0) * np.sign(xi) / F[:, None] ** (q - 1.0)
    diag = np.abs(xi) ** (q - 2.0) / F[:, None] ** (q - 2.0)
    return (q - 1.0) / F[:, None, None] * (diag[:, :, None] * np.eye(3) - g[:, :, None] * g[:, None, :])


def ellipsoid_support_hessian(a: float, b: float, c: float, xi: np.ndarray) -> np.ndarray:
    """Hessians of the ellipsoid's support function sqrt(xi^T D xi), D = diag(a^2, b^2, c^2)."""
    return quadratic_dual_hessian(np.diag([a * a, b * b, c * c]), xi)


def torus_support_hessian(R: float, r: float, xi: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Hessians of the torus's support function sign R |xi_xy| + r |xi| at
    the rows of xi, with sign +1 on the outer half (cos s > 0) and -1 on the
    inner, per row: the Hessian of |x| is (I - x x^T / |x|^2) / |x|."""
    hess = r * quadratic_dual_hessian(np.eye(3), xi)
    xy = np.zeros_like(xi)
    xy[:, :2] = xi[:, :2]
    flat = quadratic_dual_hessian(np.diag([1.0, 1.0, 0.0]), xy)
    return hess + (sign * R)[:, None, None] * flat


def support_curvatures(hess_B: np.ndarray, hess_S: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, ...]:
    """lambda1, lambda2, K and H of a surface with the support-function
    Hessians hess_S at its unit normals xi, under the norm whose dual has the
    Hessians hess_B: the eigenvalues of (E^T hess_B E)(E^T hess_S E)^-1 on
    xi-perp = span(E), the relative curvatures of the surface with respect
    to the unit ball (Schneider, Convex Bodies, sec. 2.5). No chart jet and
    no finite difference enters."""
    axis = np.eye(3)[np.argmin(np.abs(xi), axis=1)]
    u = np.cross(xi, axis)
    u /= np.linalg.norm(u, axis=1)[:, None]
    E = np.stack([u, np.cross(xi, u)], axis=2)
    Et = np.swapaxes(E, 1, 2)
    A, B = Et @ hess_B @ E, Et @ hess_S @ E
    M = A @ np.linalg.inv(B)
    lam = np.linalg.eigvals(M)
    assert np.abs(lam.imag).max() <= 1e-12 * max(1.0, np.abs(lam).max())
    lam = np.sort(lam.real, axis=1)
    return lam[:, 0], lam[:, 1], np.linalg.det(A) / np.linalg.det(B), 0.5 * np.trace(M, axis1=1, axis2=2)


def fd_hessian_rows_by_pairs(field, X, step: float, known=None) -> np.ndarray:
    """numerics.fd_hessian_rows, stencil offset by offset and entry by entry."""
    X = np.asarray(X, dtype=float)
    N, n = X.shape
    eye = np.eye(n)
    O = [np.zeros(n)]
    for i in range(n):
        O += [eye[i], -eye[i]]
        for j in range(i + 1, n):
            O += [eye[i] + eye[j], eye[i] - eye[j], -eye[i] + eye[j], -eye[i] - eye[j]]
    O = np.array(O)
    h = relative_step(X, step)
    pts = _place(X, h, O).reshape(-1, n)
    if known is None:
        f = _field_values(field, pts).reshape(N, -1)
    else:
        axis = np.abs(O).sum(axis=1) <= 1.0
        f = np.empty((N, len(O)))
        f[:, axis] = known
        cross = pts.reshape(N, -1, n)[:, ~axis].reshape(-1, n)
        f[:, ~axis] = _field_values(field, cross, finite=False).reshape(N, -1)
        _require_finite(f.ravel(), pts)
    hess = np.empty((N, n, n))
    k = 1
    for i in range(n):
        hess[:, i, i] = (f[:, k] - 2.0 * f[:, 0] + f[:, k + 1]) / h**2
        k += 2
        for j in range(i + 1, n):
            hess[:, i, j] = hess[:, j, i] = _mixed(*f[:, k:k + 4].T, h)
            k += 4
    return hess


def fd_jet_by_formulas(position, s, t, step: float) -> SurfaceJet:
    """surfaces._fd_jet, its stencil written out and each derivative by its formula."""
    h = step
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    S = np.stack([s, s + h, s - h, s, s, s + h, s + h, s - h, s - h])
    T = np.stack([t, t, t, t + h, t - h, t + h, t - h, t + h, t - h])
    P = position(S.ravel(), T.ravel())
    f, fp_s, fm_s, fp_t, fm_t, fpp, fpm, fmp, fmm = np.asarray(
        P, dtype=float).reshape(S.shape + (-1,))
    return SurfaceJet(
        f=f,
        f_s=(fp_s - fm_s) / (2 * h),
        f_t=(fp_t - fm_t) / (2 * h),
        f_ss=(fp_s - 2 * f + fm_s) / h**2,
        f_tt=(fp_t - 2 * f + fm_t) / h**2,
        f_st=(fpp - fpm - fmp + fmm) / (4 * h**2),
    )


def write_fields_csv_by_csv_writer(path, ctx) -> None:
    """cli.write_fields_csv through csv.writer, one format call per value."""
    g = ctx.geometries()
    ratio, ok = _blaschke_ratios(g)
    columns = [g.s, g.t, g.p[:, 0], g.p[:, 1], g.p[:, 2], g.lambda1, g.lambda2, g.K, g.H, g.pairing]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELD_COLUMNS)
        for i, row in enumerate(zip(*(c.tolist() for c in columns))):
            writer.writerow([format(float(v), ".17g") for v in row]
                            + [format(float(ratio[i]), ".17g") if ok[i] else ""])


@functools.cache
def schema_validator(which: str):
    """The jsonschema validator of the shipped schema which ("config" or "report")."""
    schema = load_schema(which)
    return jsonschema.validators.validator_for(schema)(schema)


def validate_report(report: dict) -> None:
    """Raise jsonschema's best-matching error if report does not match the report schema."""
    error = jsonschema.exceptions.best_match(schema_validator("report").iter_errors(report))
    if error is not None:
        raise error
