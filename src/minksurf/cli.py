"""Command-line verification driver.

Subcommands:
  run --config cfg.json [--strict] [--fields out.csv] [--threads N]
      Evaluate the configured (norm, surface) over a grid and run the
      requested checks. Writes a JSON report (stdout, or output.path from the
      config) and optionally a per-point CSV field table. Exit codes: 0 on a
      completed run (even with failing checks), 1 when --strict and a check
      failed, 2 on configuration errors (a config that cannot be read or is
      not UTF-8 JSON included) and on an output that cannot be written, 3 on
      numerical failures.
  list-checks
      Print the check registry.
  schema [config|report]
      Print the JSON schema for config files or reports.

Reports are byte-deterministic for a fixed config: randomized point sets
derive from the config seed, through numerics.UniformStream, an in-repo copy
of the PCG64 stream of numpy's default_rng, so they do not depend on the
installed numpy; floats are emitted with 17 significant digits,
keys are sorted, and no timestamps are recorded. A run evaluates the grid
geometry once, as one batch of arrays in one thread, and every check and the
field table read it from there. Every check is a kernel and a default
tolerance in its registry entry, graded by one runner, and one function,
_aggregate, writes every report entry and judges its pass. The seven checks
graded at random points also have a sampler, which makes every draw from the
check's stream, and their kernel is batched over its points; a check's
random points are one batch as well, and a root search advances all its
brackets as one batch per step.
Every check computes its residuals as array expressions over its batch and
builds no PointGeometry. The kernels call the library's public pointwise
functions (normal_curvature, mean_by_indicatrix_average,
dupin_orthogonal_pair_sum, gaussian_by_determinants, tangent_plane_distance)
on batches, and the library's functions of one point run the same code on a
batch of one. A norm or surface key that its family does not read, and
--fields naming the JSON output.path, are configuration errors.
--threads and MSK_THREADS are accepted and have no effect (a non-integer
MSK_THREADS is still a configuration error, exit 2).

The CLI needs numpy only. An in-repo check of the config schema's keywords
validates the config. A rejected config reports its first violation, worded
as the reference JSON Schema validator of the test suite words that keyword:
an object's own type, enum, required and additionalProperties come before
its values, the values are taken in the config's key order, and a list's
bounds come before its items. That validator and scipy are test dependencies
only, and a run never loads numpy's random module.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Optional

import numpy as np

from . import __version__
from .blaschke import (
    _grid_affine_normals,
    _volume_forms,
    ellipse_support,
    planar_support_check,
    support_from_csv,
)
from .distances import (
    _laplacians,
    _normal_line_hessians,
    _hess_b_matrices,
    _tangent_plane_gradients,
    _tangent_plane_values,
    tangent_plane_distance,
)
from .errors import (
    ConfigError,
    MinksurfError,
    NumericalFailure,
)
from .geometry import (
    GeometryBatch,
    _asymptotic_pair,
    _principal_zeros,
    _quad,
    dupin_orthogonal_pair_sum,
    gaussian_by_determinants,
    geometry_batch,
    mean_by_indicatrix_average,
    normal_curvature,
)
from .norms import NormModel, norm_from_spec
# The CLI calls brentq_rows only; brentq stays bound here for perfbench/tracing.py,
# which wraps cli.brentq.
from .numerics import (NumericsConfig, UniformStream, _Record, _norm_rows, _stack_last, brentq,  # noqa: F401
                       brentq_rows, in_row_order)
from .surfaces import SurfacePatch, grid_points, surface_from_spec


def _schema_text(which: str) -> str:
    return resources.files("minksurf").joinpath(f"schemas/{which}.schema.json").read_text()


def load_schema(which: str) -> dict:
    return json.loads(_schema_text(which))


# The draft 2020-12 keywords the shipped config schema uses ($schema, $id and
# title are annotations); `_schema_violation` implements exactly these, and the
# test suite fails if the schema uses any other.
_CONFIG_KEYWORDS = frozenset({
    "$schema", "$id", "title", "type", "required", "properties", "additionalProperties",
    "enum", "items", "minItems", "maxItems", "minimum", "exclusiveMinimum"})

_IS_TYPE = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                          or (isinstance(x, float) and x.is_integer())),
}


def _schema_violation(instance, schema) -> Optional[str]:
    """The first way instance violates schema, under draft 2020-12 and
    _CONFIG_KEYWORDS, worded as the test suite's reference validator words
    that keyword; None if it conforms.

    Each keyword applies only to instances of its own type, as in the draft,
    and an enum of strings matches string instances only. First means: an
    instance's own type and enum come first; then an object's required and
    additionalProperties: false before its values, which are taken in the
    instance's key order; and a list's minItems and maxItems before its
    items, in order.
    """
    if schema is True:
        return None
    if "type" in schema and not _IS_TYPE[schema["type"]](instance):
        return f"{instance!r} is not of type {schema['type']!r}"
    if "enum" in schema and not (isinstance(instance, str) and instance in schema["enum"]):
        return f"{instance!r} is not one of {schema['enum']!r}"
    values, subschemas = (), ()
    if isinstance(instance, dict):
        missing = [key for key in schema.get("required", ()) if key not in instance]
        if missing:
            return f"{missing[0]!r} is a required property"
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
        extras = sorted((key for key in instance if key not in props), key=str)
        if extras and extra is False:
            return "Additional properties are not allowed (%s %s unexpected)" % (
                ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
        values, subschemas = instance.values(), [props.get(key, extra) for key in instance]
    elif isinstance(instance, list):
        low, high = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if len(instance) < low:
            return f"{instance!r} {'should be non-empty' if low == 1 else 'is too short'}"
        if len(instance) > high:  # the schema has no maxItems of 0
            return f"{instance!r} is too long"
        values, subschemas = instance, [schema.get("items", True)] * len(instance)
    elif _IS_TYPE["number"](instance):
        # NaN compares false both ways, so it passes both bounds, as in the reference validator.
        if "minimum" in schema and instance < schema["minimum"]:
            return f"{instance!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]:
            return (f"{instance!r} is less than or equal to the minimum of "
                    f"{schema['exclusiveMinimum']!r}")
    return next(filter(None, map(_schema_violation, values, subschemas)), None)


def validate_config(cfg: dict) -> None:
    """Raise ConfigError with the first violation of the config schema in cfg, if any."""
    message = _schema_violation(cfg, load_schema("config"))
    if message is not None:
        raise ConfigError(f"config does not match schema: {message}")


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

@dataclass(init=False, repr=False, eq=False)
class RunContext(_Record):
    """What one run's checks read: the config as given, the norm, surface and
    numerics built from it, the grid and seed, and the grid's geometry, once
    computed."""

    raw: dict
    norm: NormModel
    surface: SurfacePatch
    numerics: NumericsConfig
    ns: int
    nt: int
    margins: tuple[float, float]
    seed: int
    _geoms: Optional[GeometryBatch] = field(default=None, repr=False)

    @functools.cached_property
    def grid(self) -> list[tuple[float, float]]:
        return grid_points(self.surface, self.ns, self.nt, self.margins)

    def geometries(self) -> GeometryBatch:
        """The geometry of every grid point, row-major, as one batch; computed once per run."""
        if self._geoms is None:
            self._geoms = self.batch(self.grid)
        return self._geoms

    def batch(self, pts) -> GeometryBatch:
        """The geometry of the points pts, (s, t) pairs or an (N, 2) array, as one batch."""
        s, t = np.array(pts, dtype=float).reshape(-1, 2).T
        return geometry_batch(self.norm, self.surface, s, t, self.numerics)

    def rng(self, check_id: str) -> UniformStream:
        # Seeded per check from the registry index, so the stream is stable
        # regardless of which other checks run.
        return UniformStream([self.seed, _REGISTRY_INDEX[check_id]])

    def random_params(self, rng: UniformStream, n: int) -> list[tuple[float, float]]:
        """n uniform chart points; each axis starts its margin in, and ends its margin
        early unless it is periodic. rng is a UniformStream, or anything with
        its uniform(low, high, n), such as a numpy Generator."""
        s0, s1, t0, t1 = self.surface.domain
        (ms, mt), (ps, pt) = self.margins, self.surface.periodic
        ss = rng.uniform(s0 + ms, s1 if ps else s1 - ms, n)
        tt = rng.uniform(t0 + mt, t1 if pt else t1 - mt, n)
        return [(float(a), float(b)) for a, b in zip(ss, tt)]

    @property
    def analytic(self) -> bool:
        return (self.norm.jet_source == "analytic"
                and self.surface.jet is not None
                and self.surface.jet_source == "analytic")

    def distance_center(self) -> np.ndarray:
        if "center" in self.raw:
            return np.asarray(self.raw["center"], dtype=float)
        params = self.surface.params or {}
        if "center" in params:
            return np.asarray(params["center"], dtype=float)
        return np.zeros(3)

    def surface_centroid(self) -> np.ndarray:
        s, t = np.array(grid_points(self.surface, 4, 4, self.margins)).T
        return np.mean(self.surface.position(s, t), axis=0)


def _aggregate(tol: float, residuals, points: Optional[list], detail: dict | None = None) -> dict:
    """A check's report entry, less the id and paper anchor that _report adds;
    the one writer of entries and the one judge of pass. points None means
    the residuals have no point to report, and worst_point is null."""
    if len(residuals) == 0:
        return {"max_residual": None, "tolerance": tol, "pass": True, "worst_point": None,
                "n_points": 0, "detail": dict(detail or {}, note="no applicable points")}
    # argmax takes the first NaN, so a NaN residual is the worst and fails the check.
    i = int(np.argmax(residuals))
    worst = float(residuals[i])
    return {"max_residual": worst, "tolerance": tol, "pass": bool(worst <= tol),
            "worst_point": None if points is None else [points[i][0], points[i][1]],
            "n_points": len(residuals), "detail": dict(detail or {})}


def _where(points: list, mask) -> list:
    """The entries of points where mask is True."""
    return [pt for pt, keep in zip(points, mask) if keep]


# ---------------------------------------------------------------------------
# check kernels of the grid and of fixed point sets: residual(ctx) -> (residuals, points, detail)
# ---------------------------------------------------------------------------

def _curvature_closed_form_residual(ctx: RunContext):
    params = ctx.surface.params or {}
    if ctx.surface.name == "euclidean_sphere" and ctx.norm.family == "euclidean":
        kappa = 1.0 / params["r"]
    elif ctx.surface.name == "minkowski_sphere":
        kappa = 1.0 / params["rho"]
    else:
        raise ConfigError(
            "curvature-closed-form applies to euclidean_sphere under the euclidean norm "
            "or to minkowski_sphere surfaces")
    g = ctx.geometries()
    residuals = np.max([np.abs(g.lambda1 - kappa), np.abs(g.lambda2 - kappa),
                        np.abs(g.K - kappa**2), np.abs(g.H - kappa)], axis=0)
    return residuals, ctx.grid, {"expected_curvature": kappa}


def _umbilicity_residual(ctx: RunContext):
    """The umbilic defect of each grid point, with the count of points whose
    umbilic flag (numerics.umbilic_tol) is set."""
    g = ctx.geometries()
    detail = {"umbilic_points": int(g.umbilic.sum())}
    if ctx.surface.name != "minkowski_sphere":
        return np.abs(g.lambda1 - g.lambda2), ctx.grid, detail
    kappa = 1.0 / (ctx.surface.params or {})["rho"]
    return np.abs(g.W - kappa * np.eye(2)).max(axis=(1, 2)), ctx.grid, {"expected_curvature": kappa, **detail}


def _locate_h_zero_points(ctx: RunContext) -> tuple[list, GeometryBatch]:
    """The points with H = 0, and their geometry as one batch: the whole grid
    when H vanishes identically, else the grid points where H is 0 and the
    sign-change roots of s -> H(s, t) along each column, in column order.

    On a periodic s axis the column closes up: the interval from the last s
    to the first s plus the period is bracketed too, and a root beyond the
    chart domain is reported wrapped into it. All brackets advance together,
    one geometry batch per Brent iteration; a grid point where H is 0 enters
    as the bracket [s, s], which Brent returns without evaluating H.
    """
    g = ctx.geometries()
    if np.abs(g.H).max() <= 1e-8:
        mask = g.K < -1e-12
        return _where(ctx.grid, mask), g[mask]
    # The grid is row-major in s, so H[j, k] is H at (s_k, t_j).
    s_axis, t_axis = g.s[::ctx.nt], g.t[:ctx.nt]
    H = g.H.reshape(ctx.ns, ctx.nt).T
    s0, s1 = ctx.surface.domain[:2]
    period = s1 - s0 if ctx.surface.periodic[0] else None
    s_right = np.append(s_axis[1:], np.nan if period is None else s_axis[0] + period)
    H_right = np.roll(H, -1, axis=1)
    if period is None:
        H_right[:, -1] = np.nan
    zero = H == 0.0
    take = zero | (H * H_right < 0.0)
    if not take.any():
        return [], g[:0]
    lo, ts = np.broadcast_to(s_axis, H.shape)[take], np.broadcast_to(t_axis[:, None], H.shape)[take]
    hi = np.where(zero, s_axis, s_right)[take]
    h_lo, h_hi = np.where(zero, 0.0, H)[take], np.where(zero, 0.0, H_right)[take]

    def solve(rows):
        t_ = ts[rows]
        roots = brentq_rows(lambda r, s_: ctx.batch(_stack_last(s_, t_[r])).H,
                            lo[rows], hi[rows], 1e-12, h_lo[rows], h_hi[rows])
        if period is not None:
            roots = np.where((roots < s0) | (roots > s1), s0 + (roots - s0) % period, roots)
        return roots, ctx.batch(_stack_last(roots, t_))

    roots, gb = in_row_order(solve, len(lo))
    return list(zip(roots.tolist(), ts.tolist())), gb


def _asymptotic_orthogonality(gb: GeometryBatch) -> tuple[np.ndarray, np.ndarray]:
    """|d(X, Y)| for the d-unit asymptotic directions X, Y of each point of gb
    that has two of them, and the mask of those points: K < 0, and neither
    principal curvature within asymptotic_directions's zero tolerance of 0."""
    z1, z2 = _principal_zeros(gb, 1e-10)
    used = ~((gb.K >= 0.0) | z1 | z2)
    g = gb[used]
    X, Y = _asymptotic_pair(g)
    X = X / np.sqrt(_quad(X, g.d_mat))[:, None]
    Y = Y / np.sqrt(_quad(Y, g.d_mat))[:, None]
    return np.abs(_quad(X, g.d_mat, Y)), used


def _cor_2_1_residual(ctx: RunContext):
    pts, gb = _locate_h_zero_points(ctx)
    residuals, used = _asymptotic_orthogonality(gb)
    return residuals, _where(pts, used), {"candidates": len(pts), "skipped": int(len(pts) - used.sum())}


def _minimality_scan_residual(ctx: RunContext):
    h_tol = 1e-6
    g = ctx.geometries()
    flat = np.abs(g.H) <= h_tol
    sub = g[flat]
    A = np.tile(ctx.distance_center(), (len(sub), 1))
    lap = in_row_order(lambda rows: _laplacians(sub[rows], ctx.norm, ctx.surface, A[rows],
                                                ctx.numerics)[0], len(sub)) if len(sub) else np.empty(0)
    return (np.abs(lap + 2.0), _where(ctx.grid, flat),
            {"h_threshold": h_tol, "min_abs_H": float(np.abs(g.H).min(initial=np.inf))})


def _prop_3_2_residual(ctx: RunContext):
    """rho - min rho at each grid point, with no point to report: the largest
    is the spread of rho, which is 0 exactly on a Minkowski sphere about the
    distance centre."""
    a, g = ctx.distance_center(), ctx.geometries()
    rho = tangent_plane_distance(g, a)
    return rho - rho.min(), None, {
        "max_umbilic_defect": float(np.abs(g.lambda1 - g.lambda2).max(initial=0.0)),
        "rho_min": float(rho.min()), "rho_max": float(rho.max()), "center": a.tolist()}


def _blaschke_ratios(g: GeometryBatch) -> tuple[np.ndarray, np.ndarray]:
    """|omega| / omega_h of each grid point, and the mask of points where h is not degenerate."""
    omega, omega_h, degenerate = _volume_forms(g)
    return np.abs(omega) / omega_h, ~degenerate


def _blaschke_scan_residual(ctx: RunContext):
    ratio, ok = _blaschke_ratios(ctx.geometries())
    ratios = ratio[ok]
    detail = {"skipped_degenerate": int(len(ok) - ok.sum())}
    if ratios.size:
        detail.update(ratio_min=float(ratios.min()), ratio_max=float(ratios.max()))
    return np.abs(ratios - 1.0), _where(ctx.grid, ok), detail


def _affine_normal_compare_residual(ctx: RunContext):
    g = ctx.geometries()
    rows = np.flatnonzero(_blaschke_ratios(g)[1])
    normals, missing = _grid_affine_normals(g[rows], ctx.surface, ctx.numerics)
    rows = np.delete(rows, list(missing))
    normals = np.delete(normals, list(missing), axis=0)
    used = np.zeros(len(g), dtype=bool)
    used[rows] = True
    return (_norm_rows(g.eta[rows] - normals), _where(ctx.grid, used),
            {"skipped_nonelliptic": int(len(g) - len(rows))})


# The keys of the config's planar block that each support source reads.
_PLANAR_KEYS = {"csv": {"csv"}, "circle": {"support", "radius", "n"}, "ellipse": {"support", "a", "b", "n"}}


def _planar_ermakov_residual(ctx: RunContext):
    """max(|r1|, |r2|) at each node theta of the planar block's support, at the point (theta, 0)."""
    planar = ctx.raw.get("planar")
    if not planar:
        raise ConfigError("planar-ermakov needs a 'planar' block in the config")
    source = "csv" if "csv" in planar else planar.get("support")
    if source is None:
        raise ConfigError("planar block needs 'support': 'circle' | 'ellipse', or 'csv'")
    stray = [key for key in planar if key not in _PLANAR_KEYS[source]]
    if stray:
        raise ConfigError(f"the planar {source} support reads no {', '.join(map(repr, stray))}")
    if source == "csv":
        rep = planar_support_check(support_from_csv(planar["csv"]))
    else:
        a, b = ((planar.get("radius", 1.0),) * 2 if source == "circle"
                else (planar.get("a", 1.0), planar.get("b", 1.5)))
        rep = planar_support_check(ellipse_support(float(a), float(b)), int(planar.get("n", 2048)))
    return (np.maximum(np.abs(rep["r1"]), np.abs(rep["r2"])), [(th, 0.0) for th in rep["thetas"].tolist()],
            {"r1_sup": rep["r1_sup"], "r2_sup": rep["r2_sup"]})


# ---------------------------------------------------------------------------
# sampled checks: a sampler and a batched kernel each
# ---------------------------------------------------------------------------

def _chart_points(n: int, angles: bool = False) -> Callable:
    """The sampler of n uniform chart points; with angles, a direction angle
    in [0, 2 pi) per point is drawn after all the points."""
    def points(ctx: RunContext, rng: UniformStream):
        pts = ctx.random_params(rng, n)
        return pts, rng.uniform(0.0, 2.0 * np.pi, n) if angles else None
    return points


def _centred_points(n: int) -> Callable:
    """The sampler of 3 distance centres, each within 0.3 of the surface's
    centroid in every coordinate, drawn first, then of n uniform chart
    points; point i takes centre i mod 3."""
    def points(ctx: RunContext, rng: UniformStream):
        centroid = ctx.surface_centroid()
        centers = [centroid + rng.uniform(-0.3, 0.3, 3) for _ in range(3)]
        pts = ctx.random_params(rng, n)
        return pts, np.array([centers[i % 3] for i in range(n)])
    return points


def _indicatrix_nodes(ctx: RunContext) -> int:
    return max(8, min(ctx.numerics.quad_nodes, 256))


def _thm_3_1_residual(ctx: RunContext, gb: GeometryBatch, _) -> np.ndarray:
    Hb = _hess_b_matrices(lambda chart: _tangent_plane_values(gb, ctx.surface, chart),
                          gb.s, gb.t, ctx.numerics)
    return np.abs(Hb + gb.h_mat).max(axis=(1, 2)) / np.maximum(1.0, np.abs(gb.h_mat).max(axis=(1, 2)))


def _prop_3_1_residual(ctx: RunContext, gb: GeometryBatch, phis: np.ndarray) -> list:
    """Proposition 3.1 at the points of gb, each along its direction cos(phi) V1 + sin(phi) V2.

    hess_b D_a(V, V), with a = p - tt eta, is a function psi(tt) of the
    distance tt along the normal; its root in [0.8, 1.2] / k(V) should be
    1 / k(V). Gives |root k(V) - 1| per point (inf when psi keeps its sign
    on the bracket), or None where k(V) <= 1e-6. The roots of all points
    advance together.
    """
    V = np.cos(phis)[:, None] * gb.V1 + np.sin(phis)[:, None] * gb.V2
    k = normal_curvature(gb, V)
    out = [None] * len(gb)
    rows = np.flatnonzero(k > 1e-6)
    if not len(rows):
        return out
    t_star = 1.0 / k[rows]
    psi = _normal_line_hessians(ctx.norm, ctx.surface, gb[rows], V[rows], ctx.numerics)
    every = np.arange(len(rows))
    lo, hi = 0.8 * t_star, 1.2 * t_star
    p_lo, p_hi = psi(every, lo), psi(every, hi)
    signed = np.flatnonzero(p_lo * p_hi < 0.0)
    roots = brentq_rows(lambda r, tt: psi(signed[r], tt), lo[signed], hi[signed],
                        1e-10 * t_star[signed], p_lo[signed], p_hi[signed])
    residual = np.full(len(rows), np.inf)
    residual[signed] = np.abs(roots - t_star[signed]) / t_star[signed]
    for i, r in zip(rows.tolist(), residual.tolist()):
        out[i] = r
    return out


def _sampled(check_id: str, spec: CheckSpec, ctx: RunContext):
    """The residuals, points and detail of a sampled check: its sampler draws
    from the check's stream, and its kernel grades the points in chunks, each
    of as many points as applicable ones are still missing, so no point is
    evaluated that `graded` leaves out. A chunk is one geometry batch, and
    raises what evaluating its points one at a time would raise first."""
    pts, data = spec.points(ctx, ctx.rng(check_id))
    wanted = len(pts) if spec.graded is None else spec.graded
    residuals, used, start = [], [], 0
    while len(residuals) < wanted and start < len(pts):
        chunk = slice(start, start + wanted - len(residuals))
        sub, part = pts[chunk], None if data is None else data[chunk]
        values = in_row_order(lambda rows: spec.residual(
            ctx, ctx.batch(sub[rows]), None if part is None else part[rows]), len(sub))
        for pt, value in zip(sub, values):
            if value is not None:
                residuals.append(value)
                used.append(pt)
        start = chunk.stop
    return residuals, used, spec.detail(ctx) if spec.detail else None


def _run(check_id: str, ctx: RunContext) -> dict:
    """The runner of every check: the residuals of its kernel, or of its
    sampler and kernel, graded at the tolerance the config's `tolerances`
    gives the check, else at its registry default."""
    spec = REGISTRY[check_id]
    residuals, points, detail = spec.residual(ctx) if spec.points is None else _sampled(check_id, spec, ctx)
    default = spec.tolerance(ctx) if callable(spec.tolerance) else spec.tolerance
    return _aggregate(float(ctx.raw.get("tolerances", {}).get(check_id, default)), residuals, points, detail)


@dataclass(init=False, repr=False, eq=False)
class CheckSpec(_Record, frozen=True):
    """A registered check: its paper anchor, its description, its runner, its
    kernel and its default tolerance, a number or a function of the run
    context.

    The runner of every check is functools.partial(_run, check_id). The
    kernel of a check of the grid or of a fixed point set is
    residual(ctx) -> (residuals, points, detail), with points None when the
    residuals have no point to report. A sampled check, graded at random
    chart points, also has a sampler, points(ctx, rng) -> (points, data),
    which makes every draw and gives a data row per point (angles, distance
    centres) or None; its kernel is batched, residual(ctx, gb, data), and
    its None marks a point the identity does not apply to. A sampled check
    grades `graded` applicable points (None: all), with detail(ctx) as the
    entry's detail.
    """

    anchor: str
    description: str
    runner: Callable[[RunContext], dict]
    points: Optional[Callable] = None
    residual: Optional[Callable] = None
    tolerance: float | Callable | None = None
    graded: Optional[int] = None
    detail: Optional[Callable] = None


REGISTRY: dict[str, CheckSpec] = {
    "curvature-closed-form": CheckSpec(
        "§1 (Euclidean reduction)",
        "principal/Gaussian/mean curvatures match the closed form on spheres",
        functools.partial(_run, "curvature-closed-form"), residual=_curvature_closed_form_residual,
        tolerance=lambda ctx: 1e-8 if ctx.analytic else 1e-3),
    "umbilicity": CheckSpec(
        "Prop 3.2 proof",
        "d(eta) = (1/rho) Id on Minkowski spheres; |lambda1 - lambda2| elsewhere",
        functools.partial(_run, "umbilicity"), residual=_umbilicity_residual,
        tolerance=lambda ctx: 1e-6 if ctx.analytic else 1e-3),
    "prop-2-1": CheckSpec(
        "Prop 2.1",
        "mean curvature equals the indicatrix average of the normal curvature",
        functools.partial(_run, "prop-2-1"), points=_chart_points(50), tolerance=1e-10,
        residual=lambda ctx, gb, _: np.abs(mean_by_indicatrix_average(gb, _indicatrix_nodes(ctx)) - gb.H),
        detail=lambda ctx: {"nodes": _indicatrix_nodes(ctx)}),
    "prop-2-2": CheckSpec(
        "Prop 2.2",
        "Dupin-orthogonal normal curvatures sum to 2H",
        functools.partial(_run, "prop-2-2"), points=_chart_points(100, angles=True), tolerance=1e-10,
        residual=lambda ctx, gb, thetas: np.abs(dupin_orthogonal_pair_sum(gb, thetas) - 2.0 * gb.H)),
    "cor-2-1": CheckSpec(
        "Cor 2.1",
        "asymptotic directions are Dupin orthogonal where H = 0, K < 0",
        functools.partial(_run, "cor-2-1"), residual=_cor_2_1_residual, tolerance=1e-6),
    "prop-2-3": CheckSpec(
        "Prop 2.3",
        "K equals det(h)/det(b)",
        functools.partial(_run, "prop-2-3"), points=_chart_points(100), tolerance=1e-8,
        residual=lambda ctx, gb, _: (np.abs(gaussian_by_determinants(gb) - gb.K)
                                     / np.maximum(1.0, np.abs(gb.K)))),
    "lemma-3-1": CheckSpec(
        "Lemma 3.1",
        "the anchor point is critical for the tangent-plane distance",
        functools.partial(_run, "lemma-3-1"), points=_chart_points(10),
        tolerance=lambda ctx: ctx.numerics.critical_tol,
        residual=lambda ctx, gb, _: _norm_rows(_tangent_plane_gradients(gb, ctx.surface, ctx.numerics))),
    "thm-3-1": CheckSpec(
        "Thm 3.1",
        "hess_b of the tangent-plane distance equals -h",
        functools.partial(_run, "thm-3-1"), points=_chart_points(10), tolerance=1e-3,
        residual=_thm_3_1_residual),
    "prop-3-1": CheckSpec(
        "Prop 3.1",
        "hess D_a(V,V) = 0 exactly at distance 1/k(V) along the normal",
        functools.partial(_run, "prop-3-1"), points=_chart_points(40, angles=True), tolerance=1e-4,
        residual=_prop_3_1_residual, graded=20),
    "thm-3-2": CheckSpec(
        "Thm 3.2",
        "Laplacian of the affine distance equals 2(H rho - 1)",
        functools.partial(_run, "thm-3-2"), points=_centred_points(50), tolerance=5e-3,
        residual=lambda ctx, gb, A: np.abs(_laplacians(gb, ctx.norm, ctx.surface, A, ctx.numerics)[0]
                                           - 2.0 * (gb.H * tangent_plane_distance(gb, A) - 1.0))),
    "minimality-scan": CheckSpec(
        "§3 Remark (minimality)",
        "where H = 0 the affine-distance Laplacian is -2",
        functools.partial(_run, "minimality-scan"), residual=_minimality_scan_residual, tolerance=5e-3),
    "prop-3-2": CheckSpec(
        "Prop 3.2",
        "rho constant (and all points umbilic) exactly on Minkowski spheres",
        functools.partial(_run, "prop-3-2"), residual=_prop_3_2_residual, tolerance=1e-8),
    "blaschke-scan": CheckSpec(
        "Thm 4.2/4.3",
        "|induced volume| / h-volume over the grid; ratio 1 is the Blaschke condition",
        functools.partial(_run, "blaschke-scan"), residual=_blaschke_scan_residual, tolerance=1e-8),
    "affine-normal-compare": CheckSpec(
        "Thm 4.2",
        "distance between the Birkhoff normal and the affine normal",
        functools.partial(_run, "affine-normal-compare"), residual=_affine_normal_compare_residual,
        tolerance=1e-6),
    "planar-ermakov": CheckSpec(
        "Thm 4.1",
        "planar support function: curvature and Ermakov-Pinney residuals",
        functools.partial(_run, "planar-ermakov"), residual=_planar_ermakov_residual, tolerance=1e-12),
}

_REGISTRY_INDEX = {cid: i for i, cid in enumerate(REGISTRY)}


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _canon(obj):
    """Normalize numpy scalars/arrays for serialization."""
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    return obj


def dumps_canonical(obj, indent: int = 0) -> str:
    """JSON text with sorted keys and floats at 17 significant digits."""
    return _dumps(_canon(obj), indent)


def _dumps(obj, indent: int) -> str:
    """dumps_canonical of an object that _canon has already normalized."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(k)}: {_dumps(v, indent + 1)}"
                 for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [f"{inner}{_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return format(obj, ".17g")
    if isinstance(obj, int):
        return repr(obj)
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def build_context(cfg: dict) -> RunContext:
    validate_config(cfg)
    stray = [key for key in cfg.get("tolerances", {}) if key not in REGISTRY]
    if stray:
        raise ConfigError(f"tolerances name no registered check: {', '.join(map(repr, stray))}")
    try:
        numerics = NumericsConfig(**cfg.get("numerics", {}))
        _require_json_numbers(cfg)
        norm = norm_from_spec(cfg["norm"], numerics)
        surface = surface_from_spec(cfg["surface"], norm)
    except MinksurfError as exc:
        raise ConfigError(str(exc)) from exc
    grid_cfg = cfg["grid"]
    margins = tuple(float(m) for m in grid_cfg.get("margins", (1e-3, 0.0)))
    domain = surface.domain
    for axis, m, lo, hi, periodic in zip("st", margins, domain[::2], domain[1::2], surface.periodic):
        # A wider margin puts grid and random points outside [lo, hi].
        if not periodic and m > hi - lo:
            raise ConfigError(f"grid margin {m} on {axis} is wider than the chart's [{lo}, {hi}]")
    return RunContext(
        raw=cfg, norm=norm, surface=surface, numerics=numerics,
        ns=int(grid_cfg["ns"]), nt=int(grid_cfg["nt"]), margins=margins,
        seed=int(cfg["seed"]),
    )


def run_checks(cfg: dict, threads: int = 1) -> dict:
    """Execute the configured checks and return the report dictionary (threads has no effect)."""
    return _report(build_context(cfg))


def _report(ctx: RunContext) -> dict:
    cfg = ctx.raw
    entries = []
    for check_id in cfg["checks"]:
        spec = REGISTRY[check_id]
        try:
            entry = spec.runner(ctx)
        except ConfigError:
            raise
        except MinksurfError as exc:
            location = getattr(exc, "location", None)
            raise NumericalFailure(
                f"check {check_id!r} failed numerically: {exc}", location=location) from exc
        entries.append({"id": check_id, "paper_anchor": spec.anchor, **entry})
    return {
        "checks": entries,
        "environment": {
            "config": cfg,
            "seed": int(cfg["seed"]),
            "version": __version__,
            "package": "minksurf",
        },
    }


FIELD_COLUMNS = ["s", "t", "x", "y", "z", "lambda1", "lambda2", "K", "H",
                 "pairing", "blaschke_ratio"]


def write_fields_csv(path: str, ctx: RunContext) -> None:
    """Per-point field table, RFC-4180 (CRLF, '.' decimal), 17 significant digits.

    blaschke_ratio is empty where h is degenerate; nan, inf and -0 are
    written as Python's "%.17g" writes them.
    """
    g = ctx.geometries()
    ratio, ok = _blaschke_ratios(g)
    columns = [g.s, g.t, g.p[:, 0], g.p[:, 1], g.p[:, 2], g.lambda1, g.lambda2, g.K, g.H, g.pairing]
    ratios = ["%.17g" % r if keep else "" for r, keep in zip(ratio.tolist(), ok.tolist())]
    row = "%.17g," * len(columns) + "%s\r\n"
    lines = [row % cells for cells in zip(*(c.tolist() for c in columns), ratios)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(FIELD_COLUMNS) + "\r\n" + "".join(lines))


def _no_constant(name: str):
    """Reject NaN, Infinity and -Infinity, which Python's json accepts but RFC 8259 does not."""
    raise ConfigError(f"config holds {name}, which is not a JSON number")


def _require_json_numbers(node) -> None:
    """_no_constant for the first non-finite float anywhere in a config built
    in Python, which no JSON parser has read."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        for item in node:
            _require_json_numbers(item)
    elif isinstance(node, float) and not math.isfinite(node):
        _no_constant(json.dumps(node))


def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_no_constant)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    env_threads = os.environ.get("MSK_THREADS")
    if env_threads:
        try:
            int(env_threads)
        except ValueError:
            print(f"error: MSK_THREADS={env_threads!r} is not an integer", file=sys.stderr)
            return 2

    try:
        ctx = build_context(cfg)
        output = cfg.get("output", {})
        out_path = output.get("path")
        out_format = output.get("format", "json")
        fields_path = args.fields or (out_path if out_format == "csv" else None)
        if out_format == "csv" and not fields_path:
            raise ConfigError("output.format 'csv' needs output.path or --fields")
        report_path = out_path if out_format == "json" else None
        if fields_path and report_path and os.path.realpath(fields_path) == os.path.realpath(report_path):
            raise ConfigError(f"--fields and output.path name the same file {report_path!r}")
        report = _report(ctx)
        text = dumps_canonical(report) + "\n"
        target = fields_path
        try:
            if fields_path:
                write_fields_csv(fields_path, ctx)
            target = report_path
            if report_path:
                with open(report_path, "w") as fh:
                    fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        if not report_path:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        loc = f" at {exc.location}" if exc.location else ""
        print(f"numerical failure{loc}: {exc}", file=sys.stderr)
        return 3
    except MinksurfError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    for chk in report["checks"]:
        status = "PASS" if chk["pass"] else "FAIL"
        res = "n/a" if chk["max_residual"] is None else f"{chk['max_residual']:.3e}"
        print(f"[{status}] {chk['id']}: max residual {res} (tol {chk['tolerance']:.1e}, "
              f"{chk['n_points']} points)", file=sys.stderr)
    if args.strict and any(not chk["pass"] for chk in report["checks"]):
        return 1
    return 0


def _cmd_list_checks(_args) -> int:
    width = max(len(cid) for cid in REGISTRY)
    for cid, spec in REGISTRY.items():
        print(f"{cid:<{width}}  [{spec.anchor}]  {spec.description}")
    return 0


def _cmd_schema(args) -> int:
    sys.stdout.write(_schema_text(args.which))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="minksurf",
        description="Verification suites for the Minkowski differential geometry of immersed surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run checks from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the run configuration (JSON)")
    run_p.add_argument("--strict", action="store_true",
                       help="exit 1 when any check fails (default: failures are reported, exit 0)")
    run_p.add_argument("--fields", metavar="CSV", help="write the per-point field table here")
    run_p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect (nor has MSK_THREADS)")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list-checks", help="print the check registry")
    list_p.set_defaults(func=_cmd_list_checks)

    schema_p = sub.add_parser("schema", help="print a JSON schema")
    schema_p.add_argument("which", nargs="?", choices=["config", "report"], default="config")
    schema_p.set_defaults(func=_cmd_schema)

    args = parser.parse_args(argv)
    return args.func(args)


def process_main() -> None:
    """The process entry point of `python -m minksurf.cli` and the `minksurf` script.

    Runs main() and exits with its code. Every object then alive is frozen
    first, so the interpreter's last collection at shutdown does not walk
    the heap; shutdown still flushes stdout and stderr, runs atexit handlers
    and tears down modules. main() itself leaves the collector alone.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    process_main()
