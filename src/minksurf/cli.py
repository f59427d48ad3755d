"""Command-line verification driver.

Subcommands:
  run --config cfg.json [--strict] [--fields out.csv] [--threads N]
      Evaluate the configured (norm, surface) over a grid and run the
      requested checks. Writes a JSON report (stdout, or output.path from the
      config) and optionally a per-point CSV field table. Exit codes: 0 on a
      completed run (even with failing checks), 1 when --strict and a check
      failed, 2 on configuration errors, 3 on numerical failures.
  list-checks
      Print the check registry.
  schema [config|report]
      Print the JSON schema for config files or reports.

Reports are byte-deterministic for a fixed config: randomized point sets
derive from the config seed, floats are emitted with 17 significant digits,
keys are sorted, and no timestamps are recorded. A run evaluates the grid
geometry once, as one batch of arrays in one thread, and every check and the
field table read it from there; the random points of a check are one batch
as well, and a root search advances all its brackets as one batch per step.
--threads and MSK_THREADS are accepted and have no effect (a non-integer
MSK_THREADS is still a configuration error, exit 2).

The CLI needs numpy. A config that conforms to the config schema is accepted
by an in-repo check of the schema's keywords, so a valid run never imports
jsonschema; jsonschema words the error of a rejected config, and validates
reports in the test suite. scipy is a test dependency only.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
    _rho,
    _rho_spread,
    hess_b_matrix,
    tangent_plane_distance_field,
)
from .errors import (
    ConfigError,
    MinksurfError,
    NumericalFailure,
)
from .geometry import (
    GeometryBatch,
    _normal_curvatures,
    asymptotic_directions,
    dupin_orthogonal_pair_sum,
    gaussian_by_determinants,
    geometry_batch,
    mean_by_indicatrix_average,
)
from .norms import NormModel, norm_from_spec
# The CLI calls brentq_rows only; brentq stays bound here for perfbench/tracing.py,
# which wraps cli.brentq.
from .numerics import (NumericsConfig, _norm_rows, _stack_last, brentq, brentq_rows,  # noqa: F401
                       fd_gradient, in_row_order)
from .surfaces import SurfacePatch, grid_points, surface_from_spec


def _schema_text(which: str) -> str:
    return resources.files("minksurf").joinpath(f"schemas/{which}.schema.json").read_text()


def load_schema(which: str) -> dict:
    return json.loads(_schema_text(which))


# The draft 2020-12 keywords the shipped config schema uses ($schema, $id and
# title are annotations); `_conforms` implements exactly these, and the test
# suite fails if the schema uses any other.
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


def _conforms(instance, schema) -> bool:
    """Whether instance satisfies schema, under draft 2020-12 and _CONFIG_KEYWORDS.

    Each keyword applies only to instances of its own type, as in the draft.
    An enum is matched for string instances only: any other instance is
    rejected here, and jsonschema then decides.
    """
    if schema is True or schema is False:
        return schema
    if "type" in schema and not _IS_TYPE[schema["type"]](instance):
        return False
    if "enum" in schema and not (isinstance(instance, str) and instance in schema["enum"]):
        return False
    if isinstance(instance, dict):
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        return (all(key in instance for key in schema.get("required", ()))
                and all(_conforms(value, props.get(key, extra)) for key, value in instance.items()))
    if isinstance(instance, list):
        return (schema.get("minItems", 0) <= len(instance) <= schema.get("maxItems", math.inf)
                and all(_conforms(item, schema.get("items", True)) for item in instance))
    if _IS_TYPE["number"](instance):
        # NaN compares false both ways, so it passes both bounds, as in jsonschema.
        return not (("minimum" in schema and instance < schema["minimum"])
                    or ("exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]))
    return True


@functools.cache
def _validator(which: str):
    """The jsonschema validator of a shipped schema, built once per process.

    The shipped schemas are not checked against the metaschema here; the
    test suite does that.
    """
    import jsonschema

    schema = load_schema(which)
    return jsonschema.validators.validator_for(schema)(schema)


def _schema_error(instance: dict, which: str):
    """The error jsonschema.validate would raise for instance, or None."""
    from jsonschema.exceptions import best_match

    return best_match(_validator(which).iter_errors(instance))


def validate_config(cfg: dict) -> None:
    """Accept cfg if it conforms to the config schema, else raise ConfigError.

    A config `_conforms` accepts is valid; only a rejected one loads
    jsonschema, which decides and words the error.
    """
    if _conforms(cfg, load_schema("config")):
        return
    error = _schema_error(cfg, "config")
    if error is not None:
        raise ConfigError(f"config does not match schema: {error.message}") from error


def validate_report(report: dict) -> None:
    """Validate a report against the shipped schema (used by the test suite)."""
    error = _schema_error(report, "report")
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

@dataclass
class RunContext:
    raw: dict
    norm: NormModel
    surface: SurfacePatch
    numerics: NumericsConfig
    ns: int
    nt: int
    margins: tuple[float, float]
    seed: int
    _geoms: Optional[GeometryBatch] = field(default=None, repr=False)

    @property
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

    def map_points(self, pts: list[tuple[float, float]], value: Callable) -> list:
        """value(k, pg) for each point pts[k], from one geometry batch.

        Raises what a loop that evaluates each point and then its value would
        raise first.
        """
        def run(rows):
            gb = self.batch(pts[rows])
            return [value(k, gb[i]) for i, k in enumerate(range(len(pts))[rows])]

        return in_row_order(run, len(pts))

    def rng(self, check_id: str) -> np.random.Generator:
        # Seeded per check from the registry index, so the stream is stable
        # regardless of which other checks run.
        return np.random.default_rng([self.seed, _REGISTRY_INDEX[check_id]])

    def random_params(self, rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
        s0, s1, t0, t1 = self.surface.domain
        ms, mt = self.margins
        ss = rng.uniform(s0 + ms, s1 - ms, n)
        tt = rng.uniform(t0 + mt, t1 - mt if not self.surface.periodic[1] else t1, n)
        return [(float(a), float(b)) for a, b in zip(ss, tt)]

    @property
    def analytic(self) -> bool:
        return (self.norm.jet_source == "analytic"
                and self.surface.jet is not None
                and self.surface.jet_source == "analytic")

    def tolerance(self, check_id: str, default: float) -> float:
        return float(self.raw.get("tolerances", {}).get(check_id, default))

    def distance_center(self) -> np.ndarray:
        if "center" in self.raw:
            return np.asarray(self.raw["center"], dtype=float)
        params = self.surface.params or {}
        if "center" in params:
            return np.asarray(params["center"], dtype=float)
        return np.zeros(3)

    def surface_centroid(self) -> np.ndarray:
        pts = [self.surface.position(s, t) for (s, t) in
               grid_points(self.surface, 4, 4, self.margins)]
        return np.mean(pts, axis=0)


@dataclass
class CheckResult:
    id: str
    paper_anchor: str
    max_residual: Optional[float]
    tolerance: float
    passed: bool
    worst_point: Optional[tuple[float, float]]
    n_points: int
    detail: dict


def _aggregate(check_id: str, anchor: str, tol: float,
               residuals, points: list[tuple[float, float]],
               detail: dict | None = None) -> CheckResult:
    if len(residuals) == 0:
        return CheckResult(check_id, anchor, None, tol, True, None, 0,
                           dict(detail or {}, note="no applicable points"))
    # argmax takes the first NaN, so a NaN residual is the worst and fails the check.
    i = int(np.argmax(residuals))
    worst = float(residuals[i])
    return CheckResult(check_id, anchor, worst, tol, bool(worst <= tol),
                       (points[i][0], points[i][1]), len(residuals), dict(detail or {}))


def _where(points: list, mask) -> list:
    """The entries of points where mask is True."""
    return [pt for pt, keep in zip(points, mask) if keep]


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------

def _expected_sphere_curvature(ctx: RunContext) -> float:
    params = ctx.surface.params or {}
    if ctx.surface.name == "euclidean_sphere" and ctx.norm.family == "euclidean":
        return 1.0 / params["r"]
    if ctx.surface.name == "minkowski_sphere":
        return 1.0 / params["rho"]
    raise ConfigError(
        "curvature-closed-form applies to euclidean_sphere under the euclidean norm "
        "or to minkowski_sphere surfaces")


def _run_curvature_closed_form(ctx: RunContext) -> CheckResult:
    kappa = _expected_sphere_curvature(ctx)
    tol = ctx.tolerance("curvature-closed-form", 1e-8 if ctx.analytic else 1e-3)
    g = ctx.geometries()
    residuals = np.max([np.abs(g.lambda1 - kappa), np.abs(g.lambda2 - kappa),
                        np.abs(g.K - kappa**2), np.abs(g.H - kappa)], axis=0)
    return _aggregate("curvature-closed-form", "§1 (Euclidean reduction)", tol,
                      residuals, ctx.grid, {"expected_curvature": kappa})


def _run_umbilicity(ctx: RunContext) -> CheckResult:
    tol = ctx.tolerance("umbilicity", 1e-6 if ctx.analytic else 1e-3)
    detail = {}
    g = ctx.geometries()
    if ctx.surface.name == "minkowski_sphere":
        kappa = 1.0 / (ctx.surface.params or {})["rho"]
        detail["expected_curvature"] = kappa
        residuals = np.abs(g.W - kappa * np.eye(2)).max(axis=(1, 2))
    else:
        residuals = np.abs(g.lambda1 - g.lambda2)
    return _aggregate("umbilicity", "Prop 3.2 proof", tol, residuals, ctx.grid, detail)


def _run_prop_2_1(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("prop-2-1")
    pts = ctx.random_params(rng, 50)
    nodes = max(8, min(ctx.numerics.quad_nodes, 256))
    residuals = ctx.map_points(pts, lambda k, pg: abs(mean_by_indicatrix_average(pg, nodes) - pg.H))
    return _aggregate("prop-2-1", "Prop 2.1", ctx.tolerance("prop-2-1", 1e-10),
                      residuals, pts, {"nodes": nodes})


def _run_prop_2_2(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("prop-2-2")
    pts = ctx.random_params(rng, 100)
    thetas = rng.uniform(0.0, 2.0 * np.pi, len(pts))
    residuals = ctx.map_points(
        pts, lambda k, pg: abs(dupin_orthogonal_pair_sum(pg, float(thetas[k])) - 2.0 * pg.H))
    return _aggregate("prop-2-2", "Prop 2.2", ctx.tolerance("prop-2-2", 1e-10),
                      residuals, pts)


def _locate_h_zero_points(ctx: RunContext) -> list:
    """(point, PointGeometry) pairs with H = 0: the whole grid when H vanishes
    identically, else the grid points where H is 0 and the sign-change roots
    of s -> H(s, t) along each column, in column order.

    On a periodic s axis the column closes up: the interval from the last s
    to the first s plus the period is bracketed too, and a root beyond the
    chart domain is reported wrapped into it. All brackets advance together,
    one geometry batch per Brent iteration.
    """
    g = ctx.geometries()
    grid = ctx.grid
    if np.abs(g.H).max() <= 1e-8:
        return [(grid[i], g[i]) for i in np.flatnonzero(g.K < -1e-12).tolist()]
    svals = sorted({s for (s, _) in grid})
    tvals = sorted({t for (_, t) in grid})
    index = {pt: i for i, pt in enumerate(grid)}
    s0, s1 = ctx.surface.domain[:2]
    period = s1 - s0 if ctx.surface.periodic[0] else None
    found, brackets = [], []
    for t in tvals:
        rows = [index[(s, t)] for s in svals]
        right = list(zip(svals[1:], rows[1:]))
        if period is not None:
            right.append((svals[0] + period, rows[0]))
        for k, (s, i) in enumerate(zip(svals, rows)):
            if g.H[i] == 0.0:
                found.append(((s, t), g[i]))
            elif k < len(right) and g.H[i] * g.H[right[k][1]] < 0.0:
                s_next, j = right[k]
                brackets.append((len(found), s, s_next, t, g.H[i], g.H[j]))
                found.append(None)
    if not brackets:
        return found
    slots, lo, hi, ts, h_lo, h_hi = (np.array(c) for c in zip(*brackets))

    def solve(rows):
        t_ = ts[rows]
        roots = brentq_rows(lambda r, s_: ctx.batch(_stack_last(s_, t_[r])).H,
                            lo[rows], hi[rows], 1e-12, h_lo[rows], h_hi[rows])
        if period is not None:
            roots = np.where((roots < s0) | (roots > s1), s0 + (roots - s0) % period, roots)
        return roots, ctx.batch(_stack_last(roots, t_))

    roots, gb = in_row_order(solve, len(brackets))
    for k, slot in enumerate(slots.tolist()):
        found[slot] = ((float(roots[k]), float(ts[k])), gb[k])
    return found


def _run_cor_2_1(ctx: RunContext) -> CheckResult:
    tol = ctx.tolerance("cor-2-1", 1e-6)
    pts = _locate_h_zero_points(ctx)
    residuals, used = [], []
    skipped = 0
    for (s, t), pg in pts:
        if pg.K >= 0.0:
            skipped += 1
            continue
        dirs = asymptotic_directions(pg)
        if len(dirs) != 2:
            skipped += 1
            continue
        X, Y = dirs
        Xn = X / math.sqrt(float(X @ pg.d_mat @ X))
        Yn = Y / math.sqrt(float(Y @ pg.d_mat @ Y))
        residuals.append(abs(float(Xn @ pg.d_mat @ Yn)))
        used.append((s, t))
    return _aggregate("cor-2-1", "Cor 2.1", tol, residuals, used,
                      {"candidates": len(pts), "skipped": skipped})


def _run_prop_2_3(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("prop-2-3")
    pts = ctx.random_params(rng, 100)

    def residual(k, pg):
        return abs(gaussian_by_determinants(pg) - pg.K) / max(1.0, abs(pg.K))

    return _aggregate("prop-2-3", "Prop 2.3", ctx.tolerance("prop-2-3", 1e-8),
                      ctx.map_points(pts, residual), pts)


def _run_lemma_3_1(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("lemma-3-1")
    pts = ctx.random_params(rng, 10)

    def residual(k, pg):
        g = tangent_plane_distance_field(pg, ctx.surface)
        return float(np.linalg.norm(fd_gradient(g, np.array(pts[k]), ctx.numerics.fd_step)))

    return _aggregate("lemma-3-1", "Lemma 3.1", ctx.tolerance("lemma-3-1", ctx.numerics.critical_tol),
                      ctx.map_points(pts, residual), pts)


def _run_thm_3_1(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("thm-3-1")
    pts = ctx.random_params(rng, 10)

    def residual(k, pg):
        Hb = hess_b_matrix(tangent_plane_distance_field(pg, ctx.surface), pg, ctx.numerics)
        return float(np.abs(Hb + pg.h_mat).max() / max(1.0, np.abs(pg.h_mat).max()))

    return _aggregate("thm-3-1", "Thm 3.1", ctx.tolerance("thm-3-1", 1e-3),
                      ctx.map_points(pts, residual), pts)


def _prop_3_1_residuals(ctx: RunContext, pts: list, phis: np.ndarray) -> list:
    """Prop 3.1 at the points pts, each along its direction cos(phi) V1 + sin(phi) V2.

    hess_b D_a(V, V), with a = p - tt eta, is a function psi(tt) of the
    distance tt along the normal; its root in [0.8, 1.2] / k(V) should be
    1 / k(V). Gives |root k(V) - 1| per point (inf when psi keeps its sign
    on the bracket), or None where k(V) <= 1e-6. The geometry of the points
    is one batch, and the roots of all points advance together.
    """
    gb = ctx.batch(pts)
    V = np.cos(phis)[:, None] * gb.V1 + np.sin(phis)[:, None] * gb.V2
    k = _normal_curvatures(gb, V)
    out = [None] * len(pts)
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


def _run_prop_3_1(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("prop-3-1")
    tol = ctx.tolerance("prop-3-1", 1e-4)
    residuals, used = [], []
    attempts = ctx.random_params(rng, 40)
    phis = rng.uniform(0.0, 2.0 * np.pi, len(attempts))
    # Up to 20 points are used: each chunk holds as many attempts as points
    # are still missing, so no attempt is evaluated that the count excludes.
    start = 0
    while len(residuals) < 20 and start < len(attempts):
        chunk = slice(start, start + 20 - len(residuals))
        pts, angles = attempts[chunk], phis[chunk]
        values = in_row_order(lambda rows: _prop_3_1_residuals(ctx, pts[rows], angles[rows]),
                              len(pts))
        for pt, r in zip(pts, values):
            if r is not None:
                residuals.append(r)
                used.append(pt)
        start = chunk.stop
    return _aggregate("prop-3-1", "Prop 3.1", tol, residuals, used)


def _run_thm_3_2(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("thm-3-2")
    centroid = ctx.surface_centroid()
    centers = [centroid + rng.uniform(-0.3, 0.3, 3) for _ in range(3)]
    pts = ctx.random_params(rng, 50)
    A = np.array([centers[i % 3] for i in range(len(pts))])

    def run(rows):
        gb = ctx.batch(pts[rows])
        lap, _ = _laplacians(gb, ctx.norm, ctx.surface, A[rows], ctx.numerics)
        return np.abs(lap - 2.0 * (gb.H * _rho(gb, A[rows]) - 1.0))

    return _aggregate("thm-3-2", "Thm 3.2", ctx.tolerance("thm-3-2", 5e-3),
                      in_row_order(run, len(pts)), pts)


def _run_minimality_scan(ctx: RunContext) -> CheckResult:
    tol = ctx.tolerance("minimality-scan", 5e-3)
    a = ctx.distance_center()
    h_tol = 1e-6
    g = ctx.geometries()
    flat = np.abs(g.H) <= h_tol
    sub = g[flat]
    A = np.tile(a, (len(sub), 1))
    lap = in_row_order(lambda rows: _laplacians(sub[rows], ctx.norm, ctx.surface, A[rows],
                                                ctx.numerics)[0], len(sub)) if len(sub) else np.empty(0)
    return _aggregate("minimality-scan", "§3 Remark (minimality)", tol, np.abs(lap + 2.0),
                      _where(ctx.grid, flat),
                      {"h_threshold": h_tol, "min_abs_H": float(np.abs(g.H).min(initial=np.inf))})


def _run_prop_3_2(ctx: RunContext) -> CheckResult:
    a = ctx.distance_center()
    rep = _rho_spread(ctx.geometries(), a)
    tol = ctx.tolerance("prop-3-2", 1e-8)
    return CheckResult("prop-3-2", "Prop 3.2", rep["rho_spread"], tol,
                       bool(rep["rho_spread"] <= tol), None, rep["n_points"],
                       {"max_umbilic_defect": rep["max_umbilic_defect"],
                        "rho_min": rep["rho_min"], "rho_max": rep["rho_max"],
                        "center": [float(v) for v in a]})


def _blaschke_ratios(g: GeometryBatch) -> tuple[np.ndarray, np.ndarray]:
    """|omega| / omega_h of each grid point, and the mask of points where h is not degenerate."""
    omega, omega_h, degenerate = _volume_forms(g)
    return np.abs(omega) / omega_h, ~degenerate


def _run_blaschke_scan(ctx: RunContext) -> CheckResult:
    tol = ctx.tolerance("blaschke-scan", 1e-8)
    ratio, ok = _blaschke_ratios(ctx.geometries())
    ratios = ratio[ok]
    detail = {"skipped_degenerate": int(len(ok) - ok.sum())}
    if ratios.size:
        detail.update(ratio_min=float(ratios.min()), ratio_max=float(ratios.max()))
    return _aggregate("blaschke-scan", "Thm 4.2/4.3", tol, np.abs(ratios - 1.0),
                      _where(ctx.grid, ok), detail)


def _run_affine_normal_compare(ctx: RunContext) -> CheckResult:
    tol = ctx.tolerance("affine-normal-compare", 1e-6)
    g = ctx.geometries()
    rows = np.flatnonzero(_blaschke_ratios(g)[1])
    normals, missing = _grid_affine_normals(g[rows], ctx.surface, ctx.numerics)
    rows = np.delete(rows, list(missing))
    normals = np.delete(normals, list(missing), axis=0)
    used = np.zeros(len(g), dtype=bool)
    used[rows] = True
    return _aggregate("affine-normal-compare", "Thm 4.2", tol, _norm_rows(g.eta[rows] - normals),
                      _where(ctx.grid, used), {"skipped_nonelliptic": int(len(g) - len(rows))})


def _run_planar_ermakov(ctx: RunContext) -> CheckResult:
    planar = ctx.raw.get("planar")
    if not planar:
        raise ConfigError("planar-ermakov needs a 'planar' block in the config")
    n = int(planar.get("n", 2048))
    if "csv" in planar:
        samples = support_from_csv(planar["csv"])
        rep = planar_support_check(samples)
    elif planar.get("support") == "ellipse":
        rep = planar_support_check(ellipse_support(float(planar.get("a", 1.0)),
                                                   float(planar.get("b", 1.5))), n)
    elif planar.get("support") == "circle":
        radius = float(planar.get("radius", 1.0))
        rep = planar_support_check(lambda th: radius, n)
    else:
        raise ConfigError("planar block needs 'support': 'circle' | 'ellipse', or 'csv'")
    tol = ctx.tolerance("planar-ermakov", 1e-12)
    residual = max(rep["r1_sup"], rep["r2_sup"])
    worst_idx = int(np.argmax(np.abs(rep["r2"])))
    return CheckResult("planar-ermakov", "Thm 4.1", float(residual), tol,
                       bool(residual <= tol),
                       (float(rep["thetas"][worst_idx]), 0.0), rep["n"],
                       {"r1_sup": rep["r1_sup"], "r2_sup": rep["r2_sup"]})


@dataclass(frozen=True)
class CheckSpec:
    anchor: str
    description: str
    runner: Callable[[RunContext], CheckResult]


REGISTRY: dict[str, CheckSpec] = {
    "curvature-closed-form": CheckSpec(
        "§1 (Euclidean reduction)",
        "principal/Gaussian/mean curvatures match the closed form on spheres",
        _run_curvature_closed_form),
    "umbilicity": CheckSpec(
        "Prop 3.2 proof",
        "d(eta) = (1/rho) Id on Minkowski spheres; |lambda1 - lambda2| elsewhere",
        _run_umbilicity),
    "prop-2-1": CheckSpec(
        "Prop 2.1",
        "mean curvature equals the indicatrix average of the normal curvature",
        _run_prop_2_1),
    "prop-2-2": CheckSpec(
        "Prop 2.2",
        "Dupin-orthogonal normal curvatures sum to 2H",
        _run_prop_2_2),
    "cor-2-1": CheckSpec(
        "Cor 2.1",
        "asymptotic directions are Dupin orthogonal where H = 0, K < 0",
        _run_cor_2_1),
    "prop-2-3": CheckSpec(
        "Prop 2.3",
        "K equals det(h)/det(b)",
        _run_prop_2_3),
    "lemma-3-1": CheckSpec(
        "Lemma 3.1",
        "the anchor point is critical for the tangent-plane distance",
        _run_lemma_3_1),
    "thm-3-1": CheckSpec(
        "Thm 3.1",
        "hess_b of the tangent-plane distance equals -h",
        _run_thm_3_1),
    "prop-3-1": CheckSpec(
        "Prop 3.1",
        "hess D_a(V,V) = 0 exactly at distance 1/k(V) along the normal",
        _run_prop_3_1),
    "thm-3-2": CheckSpec(
        "Thm 3.2",
        "Laplacian of the affine distance equals 2(H rho - 1)",
        _run_thm_3_2),
    "minimality-scan": CheckSpec(
        "§3 Remark (minimality)",
        "where H = 0 the affine-distance Laplacian is -2",
        _run_minimality_scan),
    "prop-3-2": CheckSpec(
        "Prop 3.2",
        "rho constant (and all points umbilic) exactly on Minkowski spheres",
        _run_prop_3_2),
    "blaschke-scan": CheckSpec(
        "Thm 4.2/4.3",
        "|induced volume| / h-volume over the grid; ratio 1 is the Blaschke condition",
        _run_blaschke_scan),
    "affine-normal-compare": CheckSpec(
        "Thm 4.2",
        "distance between the Birkhoff normal and the affine normal",
        _run_affine_normal_compare),
    "planar-ermakov": CheckSpec(
        "Thm 4.1",
        "planar support function: curvature and Ermakov-Pinney residuals",
        _run_planar_ermakov),
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
    obj = _canon(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {dumps_canonical(v, indent + 1)}"
                 for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps_canonical(v, indent + 1)}" for v in obj]
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


def fmt_17g(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def build_context(cfg: dict) -> RunContext:
    validate_config(cfg)
    stray = [key for key in cfg.get("tolerances", {}) if key not in REGISTRY]
    if stray:
        raise ConfigError(f"tolerances name no registered check: {', '.join(map(repr, stray))}")
    numerics = NumericsConfig(**cfg.get("numerics", {}))
    try:
        norm = norm_from_spec(cfg["norm"], numerics)
        surface = surface_from_spec(cfg["surface"], norm)
    except MinksurfError as exc:
        raise ConfigError(str(exc)) from exc
    grid_cfg = cfg["grid"]
    margins = tuple(grid_cfg.get("margins", (1e-3, 0.0)))
    return RunContext(
        raw=cfg, norm=norm, surface=surface, numerics=numerics,
        ns=int(grid_cfg["ns"]), nt=int(grid_cfg["nt"]),
        margins=(float(margins[0]), float(margins[1])),
        seed=int(cfg["seed"]),
    )


def run_checks(cfg: dict, threads: int = 1) -> dict:
    """Execute the configured checks and return the report dictionary (threads has no effect)."""
    return _report(build_context(cfg))


def _report(ctx: RunContext) -> dict:
    cfg = ctx.raw
    results = []
    for check_id in cfg["checks"]:
        spec = REGISTRY.get(check_id)
        if spec is None:
            raise ConfigError(f"unknown check id {check_id!r}")
        try:
            res = spec.runner(ctx)
        except ConfigError:
            raise
        except MinksurfError as exc:
            location = getattr(exc, "location", None)
            raise NumericalFailure(
                f"check {check_id!r} failed numerically: {exc}", location=location) from exc
        results.append(res)
    report = {
        "checks": [{
            "id": r.id,
            "paper_anchor": r.paper_anchor,
            "max_residual": r.max_residual,
            "tolerance": r.tolerance,
            "pass": r.passed,
            "worst_point": None if r.worst_point is None else [r.worst_point[0], r.worst_point[1]],
            "n_points": r.n_points,
            "detail": r.detail,
        } for r in results],
        "environment": {
            "config": cfg,
            "seed": int(cfg["seed"]),
            "version": __version__,
            "package": "minksurf",
        },
    }
    return report


FIELD_COLUMNS = ["s", "t", "x", "y", "z", "lambda1", "lambda2", "K", "H",
                 "pairing", "blaschke_ratio"]


def write_fields_csv(path: str, ctx: RunContext) -> None:
    """Per-point field table, RFC-4180 (CRLF, '.' decimal), 17 significant digits."""
    g = ctx.geometries()
    ratio, ok = _blaschke_ratios(g)
    columns = [g.s, g.t, g.p[:, 0], g.p[:, 1], g.p[:, 2], g.lambda1, g.lambda2, g.K, g.H, g.pairing]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELD_COLUMNS)
        for i, row in enumerate(zip(*(c.tolist() for c in columns))):
            writer.writerow([fmt_17g(v) for v in row] + [fmt_17g(ratio[i]) if ok[i] else ""])


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
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
        report = _report(ctx)
        text = dumps_canonical(report) + "\n"
        output = cfg.get("output", {})
        out_path = output.get("path")
        out_format = output.get("format", "json")
        if args.fields or (out_format == "csv" and out_path):
            write_fields_csv(args.fields or out_path, ctx)
        if out_path and out_format == "json":
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
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


if __name__ == "__main__":
    sys.exit(main())
