"""Output checks. Each returns a list of problems; an empty list means the output is right.

Nothing here is a stored copy of a report. Verdicts come from the paper
(workloads.expected_verdict), field values from classical closed forms or
from symmetry, and the custom-norm results from the library's analytic norms.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import jsonschema

from workloads import CliOp, expected_verdict, is_minkowski_sphere, may_be_vacuous

FIELD_COLUMNS = ["s", "t", "x", "y", "z", "lambda1", "lambda2", "K", "H",
                 "pairing", "blaschke_ratio"]

# Analytic jets carry roundoff only: the library's own closed-form tolerance.
CLOSED_FORM_TOL = 1e-8
# d(eta) = Id/rho on a Minkowski sphere, at the umbilicity check's analytic tolerance.
UMBILIC_TOL = 1e-6
# A gauge-only norm differentiates Newton solves with a 1e-5 step: truncation
# ~1e-10 and roundoff ~newton_tol/step ~1e-7 in du. On the ellipsoid the
# surface jet is analytic, so 1e-5 leaves a 13x margin over the worst gap on
# the workload's points (7.5e-7). On the norm's own sphere the chart jet is
# an FD jet of Newton positions too, so the FD tolerance of the acceptance
# suite (1e-3) applies, as for W = Id/rho (worst gap 1.1e-4).
CUSTOM_TOL_ANALYTIC_SURFACE = 1e-5
CUSTOM_TOL_FD = 1e-3


def load_report_schema(root: Path) -> dict:
    return json.loads((root / "src/minksurf/schemas/report.schema.json").read_text())


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def check_report(op: CliOp, returncode: int, stdout: str, stderr: str,
                 schema: dict) -> tuple[list[str], int, bool]:
    """Exit code, schema and paper verdicts of one run.

    Returns (problems, points, fault): fault is True when the run shows the
    operation's named fault (workloads.KnownFault) exactly, which is then not
    a problem; anything else that is wrong is.
    """
    fault = op.fault
    if returncode != 0:
        if (fault is not None and returncode == fault.exit_code
                and re.search(fault.stderr_pattern, stderr)):
            return [], 0, True
        last = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {returncode}: {last[0]}"], 0, False
    try:
        report = json.loads(stdout)
        jsonschema.validate(report, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return [f"report rejected: {str(exc).splitlines()[0]}"], 0, False
    cfg = op.config
    problems = []
    seen = False
    ids = [c["id"] for c in report["checks"]]
    if ids != cfg["checks"]:
        problems.append(f"checks {ids} != configured {cfg['checks']}")
    if report["environment"]["config"] != cfg or report["environment"]["seed"] != cfg["seed"]:
        problems.append("environment does not echo the config")
    for chk in report["checks"]:
        cid = chk["id"]
        if chk["n_points"] == 0:
            if not (op.fields and may_be_vacuous(cid, cfg)):
                problems.append(f"{cid}: no applicable points")
            elif not chk["pass"]:
                problems.append(f"{cid}: vacuous check reported a failure")
            continue
        want = expected_verdict(cid, cfg)
        if (fault is not None and fault.exit_code == 0 and cid == fault.check and want
                and not chk["pass"] and chk["max_residual"] is not None
                and chk["max_residual"] > chk["tolerance"]):
            seen = True
        elif chk["pass"] != want:
            problems.append(f"{cid}: pass={chk['pass']} but the paper says {want} "
                            f"(residual {chk['max_residual']}, tol {chk['tolerance']})")
        if chk["pass"] and chk["max_residual"] is not None and chk["max_residual"] > chk["tolerance"]:
            problems.append(f"{cid}: passes with residual above tolerance")
        problems += _check_detail(cid, chk, cfg)
    return problems, sum(c["n_points"] for c in report["checks"]), seen and not problems


def _check_detail(cid: str, chk: dict, cfg: dict) -> list[str]:
    """Closed-form values the report states beside its verdicts."""
    surface = cfg["surface"]
    if not is_minkowski_sphere(cfg["norm"], surface):
        return []
    radius = surface.get("rho", surface.get("r"))
    detail = chk.get("detail", {})
    problems = []
    # umbilicity states the expected curvature on Minkowski-sphere surfaces only.
    if cid == "curvature-closed-form" or (cid == "umbilicity"
                                          and surface["family"] == "minkowski_sphere"):
        if not math.isclose(detail.get("expected_curvature", math.nan), 1.0 / radius, rel_tol=1e-15):
            problems.append(f"{cid}: expected curvature {detail.get('expected_curvature')} != 1/{radius}")
    if cid == "prop-3-2":
        # The affine distance from the centre is the radius at every point.
        for key in ("rho_min", "rho_max"):
            if abs(detail[key] - radius) > CLOSED_FORM_TOL * radius:
                problems.append(f"prop-3-2: {key} = {detail[key]} != rho = {radius}")
    return problems


# ---------------------------------------------------------------------------
# --fields CSV
# ---------------------------------------------------------------------------

def _classical(surface: dict, s: float, t: float):
    """Position, Gaussian and mean curvature of the Euclidean surface, outward normal."""
    fam = surface["family"]
    if fam == "euclidean_sphere":
        r = surface["r"]
        pos = (r * math.sin(s) * math.cos(t), r * math.sin(s) * math.sin(t), r * math.cos(s))
        return pos, 1.0 / r**2, 1.0 / r
    if fam == "ellipsoid":
        a, b, c = surface["a"], surface["b"], surface["c"]
        x, y, z = a * math.sin(s) * math.cos(t), b * math.sin(s) * math.sin(t), c * math.cos(s)
        q = x * x / a**4 + y * y / b**4 + z * z / c**4
        abc2 = (a * b * c) ** 2
        K = 1.0 / (abc2 * q * q)
        H = (a * a + b * b + c * c - (x * x + y * y + z * z)) / (2.0 * abc2 * q**1.5)
        return (x, y, z), K, H
    if fam == "torus":
        R, r = surface["R"], surface["r"]
        w = R + r * math.cos(s)
        pos = (w * math.cos(t), w * math.sin(t), r * math.sin(s))
        return pos, math.cos(s) / (r * w), (R + 2.0 * r * math.cos(s)) / (2.0 * r * w)
    if fam == "catenoid":
        c = surface.get("c", 1.0)
        pos = (c * math.cosh(s) * math.cos(t), c * math.cosh(s) * math.sin(t), c * s)
        return pos, -1.0 / (c * c * math.cosh(s) ** 4), 0.0
    raise ValueError(fam)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def check_fields(op: CliOp, csv_path: Path) -> list[str]:
    gaps = field_gaps(op, csv_path)
    if isinstance(gaps, str):
        return [gaps]
    tol = {"lambda1 = lambda2 = 1/rho": UMBILIC_TOL, "position = chart": 1e-12}
    return [f"fields: {what} off by {gap:.3e}" for what, gap in sorted(gaps.items())
            if not gap <= tol.get(what, CLOSED_FORM_TOL)]


def field_gaps(op: CliOp, csv_path: Path) -> dict | str:
    """Worst gap of each closed-form or symmetry property over the CSV, or a problem."""
    cfg = op.config
    norm, surface = cfg["norm"], cfg["surface"]
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return f"fields CSV unreadable: {exc}"
    if not rows or rows[0] != FIELD_COLUMNS:
        return "fields CSV header is wrong"
    rows = rows[1:]
    n = cfg["grid"]["ns"] * cfg["grid"]["nt"]
    if len(rows) != n:
        return f"fields CSV has {len(rows)} rows, grid has {n}"
    recs = [dict(zip(FIELD_COLUMNS, (float(v) if v else None for v in row))) for row in rows]
    worst = {}

    def note(what: str, gap: float) -> None:
        worst[what] = max(worst.get(what, 0.0), gap)

    for r in recs:
        note("K = lambda1 lambda2", _rel(r["K"], r["lambda1"] * r["lambda2"]))
        note("H = (lambda1 + lambda2)/2", _rel(r["H"], 0.5 * (r["lambda1"] + r["lambda2"])))
        note("pairing > 0", 0.0 if r["pairing"] > 0.0 else math.inf)
    if norm["family"] == "euclidean":
        for r in recs:
            pos, K, H = _classical(surface, r["s"], r["t"])
            note("position = chart", max(abs(u - v) for u, v in zip(pos, (r["x"], r["y"], r["z"]))))
            note("K = classical K", _rel(r["K"], K))
            note("H = classical H", _rel(r["H"], H))
            if r["blaschke_ratio"] is None:
                note("blaschke_ratio present", math.inf)
            else:
                note("blaschke_ratio = |K|^(-1/2)", _rel(r["blaschke_ratio"], abs(K) ** -0.5))
    if surface["family"] == "minkowski_sphere":
        rho, p = surface["rho"], norm["p"]
        for r in recs:
            gauge = sum(abs(r[k]) ** p for k in "xyz") ** (1.0 / p)
            note("F(position) = rho", _rel(gauge, rho))
            note("lambda1 = lambda2 = 1/rho",
                 max(abs(r["lambda1"] - 1.0 / rho), abs(r["lambda2"] - 1.0 / rho)))
    elif norm["family"] == "lp" and surface["family"] == "ellipsoid":
        for what, gap in _reflection_gaps(recs, cfg["grid"]["ns"], cfg["grid"]["nt"]).items():
            note(what, gap)
    return worst


def _reflection_gaps(recs: list[dict], ns: int, nt: int) -> dict:
    """K and H are invariant under x -> -x, y -> -y and z -> -z for an lp norm on
    an axis-aligned ellipsoid. On the sweep grid these are the index maps
    t_k -> t_(nt/2 - 1 - k), t_k -> t_(nt - 1 - k) and s_i -> s_(ns - 1 - i)."""
    if ns % 2 or nt % 2:
        return {"reflection grid": math.inf}
    at = lambda i, k: recs[i * nt + (k % nt)]
    gaps = {}
    for name, mirror in (("K, H symmetric in x", lambda i, k: (i, nt // 2 - 1 - k)),
                         ("K, H symmetric in y", lambda i, k: (i, nt - 1 - k)),
                         ("K, H symmetric in z", lambda i, k: (ns - 1 - i, k))):
        g = 0.0
        for i in range(ns):
            for k in range(nt):
                a, b = at(i, k), at(*mirror(i, k))
                g = max(g, _rel(a["K"], b["K"]), _rel(a["H"], b["H"]))
        gaps[name] = g
    return gaps


# ---------------------------------------------------------------------------
# custom norms
# ---------------------------------------------------------------------------

def check_custom(pair, point, result) -> list[str]:
    """Compare one gauge-only evaluation with the analytic norm's route."""
    import numpy as np
    import minksurf as mk

    s, t, phi = point
    pg, mean, kn, rho, V, X = result
    ref = mk.point_geometry(pair.ref_norm, pair.ref_surface, s, t)
    tol = CUSTOM_TOL_ANALYTIC_SURFACE if pair.sphere_rho is None else CUSTOM_TOL_FD
    rho_ref, V_ref = mk.affine_distance(ref, np.zeros(3))
    gaps = {
        "eta": np.abs(pg.eta - ref.eta).max(),
        "lambda1": _rel(pg.lambda1, ref.lambda1),
        "lambda2": _rel(pg.lambda2, ref.lambda2),
        "K": _rel(pg.K, ref.K),
        "H": _rel(pg.H, ref.H),
        "normal curvature": _rel(kn, mk.normal_curvature(ref, X)),
        "affine distance": _rel(rho, rho_ref),
        "tangential part": np.abs(V - V_ref).max() / max(1.0, np.abs(V_ref).max()),
    }
    problems = [f"{what} off the analytic route by {gap:.3e}" for what, gap in gaps.items()
                if not gap <= tol]
    # Prop 2.1 is exact on the computed geometry, up to quadrature roundoff.
    if not abs(mean - pg.H) <= 1e-10 * max(1.0, abs(pg.H)):
        problems.append(f"indicatrix average {mean} != H {pg.H}")
    if pair.sphere_rho is not None:
        w_gap = float(np.abs(pg.W - np.eye(2) / pair.sphere_rho).max())
        if not w_gap <= CUSTOM_TOL_FD:
            problems.append(f"W off Id/rho by {w_gap:.3e}")
        if not _rel(rho, pair.sphere_rho) <= CUSTOM_TOL_FD:
            problems.append(f"affine distance {rho} != rho {pair.sphere_rho}")
    return problems
