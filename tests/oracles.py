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
form. quadratic_dual_hessian and lq_dual_hessian are the Hessians of the
dual norms of the ellipsoid (and Euclidean) and lp families, written out by
hand for the graph oracle. schema_validator is
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
