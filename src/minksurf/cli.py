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
geometry once, in one thread, and every check and the field table read it
from there. --threads and MSK_THREADS are accepted and have no effect (a
non-integer MSK_THREADS is still a configuration error, exit 2).

The CLI needs numpy and jsonschema; scipy is a test dependency only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Optional

import numpy as np

from . import __version__
from .blaschke import (
    _affine_normal_sample,
    _volume_forms,
    ellipse_support,
    planar_support_check,
    support_from_csv,
)
from .distances import (
    _laplacian_details,
    _rho_spread,
    hess_b_at_critical,
    hess_b_matrix,
    minkowski_distance_field,
    nabla_laplacian_rho_details,
    tangent_plane_distance_field,
)
from .errors import (
    ConfigError,
    DegenerateH,
    MinksurfError,
    NonElliptic,
    NumericalFailure,
)
from .geometry import (
    asymptotic_directions,
    dupin_orthogonal_pair_sum,
    gaussian_by_determinants,
    mean_by_indicatrix_average,
    normal_curvature,
    point_geometry,
)
from .norms import NormModel, norm_from_spec
from .numerics import NumericsConfig, brentq, fd_gradient
from .surfaces import SurfacePatch, grid_points, surface_from_spec

try:
    import jsonschema
except ImportError:  # pragma: no cover - hard dependency, but degrade loudly
    jsonschema = None


def load_schema(which: str) -> dict:
    text = resources.files("minksurf").joinpath(f"schemas/{which}.schema.json").read_text()
    return json.loads(text)


def validate_config(cfg: dict) -> None:
    if jsonschema is None:  # pragma: no cover
        raise ConfigError("jsonschema is required to validate configurations")
    try:
        jsonschema.validate(cfg, load_schema("config"))
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config does not match schema: {exc.message}") from exc


def validate_report(report: dict) -> None:
    """Validate a report against the shipped schema (used by the test suite)."""
    jsonschema.validate(report, load_schema("report"))


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
    _geoms: Optional[list] = field(default=None, repr=False)

    @property
    def grid(self) -> list[tuple[float, float]]:
        return grid_points(self.surface, self.ns, self.nt, self.margins)

    def geometries(self) -> list:
        """The PointGeometry of every grid point, row-major; computed once per run."""
        if self._geoms is None:
            self._geoms = [point_geometry(self.norm, self.surface, s, t, self.numerics)
                           for (s, t) in self.grid]
        return self._geoms

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
               residuals: list[float], points: list[tuple[float, float]],
               detail: dict | None = None) -> CheckResult:
    if not residuals:
        return CheckResult(check_id, anchor, None, tol, True, None, 0,
                           dict(detail or {}, note="no applicable points"))
    i = int(np.argmax(residuals))
    worst = float(max(residuals))
    return CheckResult(check_id, anchor, worst, tol, bool(worst <= tol),
                       (points[i][0], points[i][1]), len(residuals), dict(detail or {}))


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
    residuals = [max(abs(pg.lambda1 - kappa), abs(pg.lambda2 - kappa),
                     abs(pg.K - kappa**2), abs(pg.H - kappa))
                 for pg in ctx.geometries()]
    return _aggregate("curvature-closed-form", "§1 (Euclidean reduction)", tol,
                      residuals, ctx.grid, {"expected_curvature": kappa})


def _run_umbilicity(ctx: RunContext) -> CheckResult:
    tol = ctx.tolerance("umbilicity", 1e-6 if ctx.analytic else 1e-3)
    detail = {}
    if ctx.surface.name == "minkowski_sphere":
        kappa = 1.0 / (ctx.surface.params or {})["rho"]
        detail["expected_curvature"] = kappa
        residuals = [float(np.abs(pg.W - kappa * np.eye(2)).max()) for pg in ctx.geometries()]
    else:
        residuals = [abs(pg.lambda1 - pg.lambda2) for pg in ctx.geometries()]
    return _aggregate("umbilicity", "Prop 3.2 proof", tol, residuals, ctx.grid, detail)


def _run_prop_2_1(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("prop-2-1")
    pts = ctx.random_params(rng, 50)
    nodes = max(8, min(ctx.numerics.quad_nodes, 256))
    residuals = []
    for (s, t) in pts:
        pg = point_geometry(ctx.norm, ctx.surface, s, t, ctx.numerics)
        residuals.append(abs(mean_by_indicatrix_average(pg, nodes) - pg.H))
    return _aggregate("prop-2-1", "Prop 2.1", ctx.tolerance("prop-2-1", 1e-10),
                      residuals, pts, {"nodes": nodes})


def _run_prop_2_2(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("prop-2-2")
    pts = ctx.random_params(rng, 100)
    thetas = rng.uniform(0.0, 2.0 * np.pi, len(pts))
    residuals = []
    for (s, t), th in zip(pts, thetas):
        pg = point_geometry(ctx.norm, ctx.surface, s, t, ctx.numerics)
        residuals.append(abs(dupin_orthogonal_pair_sum(pg, float(th)) - 2.0 * pg.H))
    return _aggregate("prop-2-2", "Prop 2.2", ctx.tolerance("prop-2-2", 1e-10),
                      residuals, pts)


def _locate_h_zero_points(ctx: RunContext) -> list:
    """(point, PointGeometry) pairs with H = 0: the whole grid when H vanishes
    identically, else per-column sign-change roots of s -> H(s, t)."""
    def pg_at(s_, t_):
        return point_geometry(ctx.norm, ctx.surface, s_, t_, ctx.numerics)

    geoms = ctx.geometries()
    grid = ctx.grid
    if max(abs(pg.H) for pg in geoms) <= 1e-8:
        return [(pt, pg) for pt, pg in zip(grid, geoms) if pg.K < -1e-12]
    svals = sorted({s for (s, _) in grid})
    tvals = sorted({t for (_, t) in grid})
    by_key = {(s, t): pg for (s, t), pg in zip(grid, geoms)}
    found = []
    for t in tvals:
        hs = [by_key[(s, t)].H for s in svals]
        for i in range(len(svals) - 1):
            if hs[i] == 0.0:
                found.append(((svals[i], t), by_key[(svals[i], t)]))
            elif hs[i] * hs[i + 1] < 0.0:
                root = brentq(lambda s_: pg_at(s_, t).H, svals[i], svals[i + 1], xtol=1e-12)
                found.append(((root, t), pg_at(root, t)))
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
    residuals = []
    for (s, t) in pts:
        pg = point_geometry(ctx.norm, ctx.surface, s, t, ctx.numerics)
        kd = gaussian_by_determinants(pg)
        residuals.append(abs(kd - pg.K) / max(1.0, abs(pg.K)))
    return _aggregate("prop-2-3", "Prop 2.3", ctx.tolerance("prop-2-3", 1e-8),
                      residuals, pts)


def _run_lemma_3_1(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("lemma-3-1")
    pts = ctx.random_params(rng, 10)
    residuals = []
    for (s, t) in pts:
        pg = point_geometry(ctx.norm, ctx.surface, s, t, ctx.numerics)
        g = tangent_plane_distance_field(pg, ctx.surface)
        grad = fd_gradient(g, np.array([s, t]), ctx.numerics.fd_step)
        residuals.append(float(np.linalg.norm(grad)))
    return _aggregate("lemma-3-1", "Lemma 3.1", ctx.tolerance("lemma-3-1", ctx.numerics.critical_tol),
                      residuals, pts)


def _run_thm_3_1(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("thm-3-1")
    pts = ctx.random_params(rng, 10)
    residuals = []
    for (s, t) in pts:
        pg = point_geometry(ctx.norm, ctx.surface, s, t, ctx.numerics)
        g = tangent_plane_distance_field(pg, ctx.surface)
        Hb = hess_b_matrix(g, pg, ctx.numerics)
        residuals.append(float(np.abs(Hb + pg.h_mat).max() / max(1.0, np.abs(pg.h_mat).max())))
    return _aggregate("thm-3-1", "Thm 3.1", ctx.tolerance("thm-3-1", 1e-3), residuals, pts)


def _run_prop_3_1(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("prop-3-1")
    tol = ctx.tolerance("prop-3-1", 1e-4)
    residuals, used = [], []
    attempts = ctx.random_params(rng, 40)
    phis = rng.uniform(0.0, 2.0 * np.pi, len(attempts))
    for (s, t), phi in zip(attempts, phis):
        if len(residuals) >= 20:
            break
        pg = point_geometry(ctx.norm, ctx.surface, s, t, ctx.numerics)
        V = np.cos(phi) * pg.V1 + np.sin(phi) * pg.V2
        k = normal_curvature(pg, V)
        if k <= 1e-6:
            continue
        t_star = 1.0 / k

        def psi(tt):
            a = pg.p - tt * pg.eta
            field_ = minkowski_distance_field(ctx.norm, ctx.surface, a)
            return hess_b_at_critical(field_, pg, V, V, ctx.numerics)

        lo, hi = 0.8 * t_star, 1.2 * t_star
        plo, phi_val = psi(lo), psi(hi)
        if plo * phi_val >= 0.0:
            residuals.append(float("inf"))
            used.append((s, t))
            continue
        t_zero = brentq(psi, lo, hi, xtol=1e-10 * t_star)
        residuals.append(abs(t_zero - t_star) / t_star)
        used.append((s, t))
    return _aggregate("prop-3-1", "Prop 3.1", tol, residuals, used)


def _run_thm_3_2(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("thm-3-2")
    centroid = ctx.surface_centroid()
    centers = [centroid + rng.uniform(-0.3, 0.3, 3) for _ in range(3)]
    pts = ctx.random_params(rng, 50)
    residuals = []
    for i, (s, t) in enumerate(pts):
        a = centers[i % 3]
        info = nabla_laplacian_rho_details(ctx.norm, ctx.surface, s, t, a, ctx.numerics)
        pg = info["pg"]
        rho = float((pg.p - a) @ pg.xi) / pg.pairing
        residuals.append(abs(info["laplacian"] - 2.0 * (pg.H * rho - 1.0)))
    return _aggregate("thm-3-2", "Thm 3.2", ctx.tolerance("thm-3-2", 5e-3), residuals, pts)


def _run_minimality_scan(ctx: RunContext) -> CheckResult:
    tol = ctx.tolerance("minimality-scan", 5e-3)
    a = ctx.distance_center()
    h_tol = 1e-6
    residuals, used = [], []
    h_min = float("inf")
    for (s, t), pg in zip(ctx.grid, ctx.geometries()):
        h_min = min(h_min, abs(pg.H))
        if abs(pg.H) > h_tol:
            continue
        lap = _laplacian_details(pg, ctx.norm, ctx.surface, a, ctx.numerics)["laplacian"]
        residuals.append(abs(lap + 2.0))
        used.append((s, t))
    return _aggregate("minimality-scan", "§3 Remark (minimality)", tol, residuals, used,
                      {"h_threshold": h_tol, "min_abs_H": h_min})


def _run_prop_3_2(ctx: RunContext) -> CheckResult:
    a = ctx.distance_center()
    rep = _rho_spread(ctx.geometries(), a)
    tol = ctx.tolerance("prop-3-2", 1e-8)
    return CheckResult("prop-3-2", "Prop 3.2", rep["rho_spread"], tol,
                       bool(rep["rho_spread"] <= tol), None, rep["n_points"],
                       {"max_umbilic_defect": rep["max_umbilic_defect"],
                        "rho_min": rep["rho_min"], "rho_max": rep["rho_max"],
                        "center": [float(v) for v in a]})


def _run_blaschke_scan(ctx: RunContext) -> CheckResult:
    tol = ctx.tolerance("blaschke-scan", 1e-8)
    residuals, used = [], []
    skipped = 0
    ratios = []
    for (s, t), pg in zip(ctx.grid, ctx.geometries()):
        try:
            sample = _volume_forms(pg)
        except DegenerateH:
            skipped += 1
            continue
        ratios.append(sample.ratio)
        residuals.append(abs(sample.ratio - 1.0))
        used.append((s, t))
    detail = {"skipped_degenerate": skipped}
    if ratios:
        detail.update(ratio_min=float(min(ratios)), ratio_max=float(max(ratios)))
    return _aggregate("blaschke-scan", "Thm 4.2/4.3", tol, residuals, used, detail)


def _run_affine_normal_compare(ctx: RunContext) -> CheckResult:
    tol = ctx.tolerance("affine-normal-compare", 1e-6)
    residuals, used = [], []
    skipped = 0
    for (s, t), pg in zip(ctx.grid, ctx.geometries()):
        try:
            sample = _affine_normal_sample(pg, ctx.surface, ctx.numerics)
        except (NonElliptic, DegenerateH):
            skipped += 1
            continue
        residuals.append(float(sample.discrepancy))
        used.append((s, t))
    return _aggregate("affine-normal-compare", "Thm 4.2", tol, residuals, used,
                      {"skipped_nonelliptic": skipped})


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELD_COLUMNS)
        for (s, t), pg in zip(ctx.grid, ctx.geometries()):
            try:
                ratio = fmt_17g(_volume_forms(pg).ratio)
            except DegenerateH:
                ratio = ""
            writer.writerow([
                fmt_17g(s), fmt_17g(t),
                fmt_17g(pg.p[0]), fmt_17g(pg.p[1]), fmt_17g(pg.p[2]),
                fmt_17g(pg.lambda1), fmt_17g(pg.lambda2),
                fmt_17g(pg.K), fmt_17g(pg.H), fmt_17g(pg.pairing), ratio,
            ])


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
    text = resources.files("minksurf").joinpath(f"schemas/{args.which}.schema.json").read_text()
    sys.stdout.write(text)
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
