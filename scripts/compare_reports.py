"""Compare what two checkouts of minksurf write, byte for byte.

    python3 scripts/compare_reports.py PARENT CHANGE [--seeds 1 2 3]

PARENT and CHANGE are the roots of two checkouts. For each seed, every
`minksurf run` operation of the benchmark's paper-suite and grid-sweep
workloads (as perfbench/workloads.py of CHANGE defines them) runs once with
each checkout's src/ on PYTHONPATH, in a fresh directory of its own. The
report on stdout, the field CSV, stderr and the exit code of the two runs
must be byte-identical; an operation whose config repeats across seeds runs
once. One rejected config per keyword of the config schema, each with a
single violation, runs the same way: it must exit 2 with PARENT, and its
exit code and stderr must be byte-identical. So does a config that fails
numerically, thm-3-2 under a cond_guard of 2.0, which must exit 3. The
peak RSS of every CLI child (os.wait4's ru_maxrss) is printed as a table,
one line per operation, PARENT -> CHANGE; it does not decide the outcome.
The two runs of an operation take turns at going first.
Both checkouts' src/minksurf is byte-compiled first, as perfbench does, so
that no child spends memory compiling a module. The 24 points of the
custom-norm workload are evaluated once per checkout, each checkout in a
process of its own, and their eta, lambda1, lambda2, indicatrix mean, normal
curvature, affine distance rho and its tangential part V must agree bit for
bit. So must a fixed probe of public routes that no CLI config reaches: the
pointwise identities at one point (the Dupin-orthogonal pair sum, det h /
det b, the tangent-plane distance, the Euclidean Gaussian curvature, and the
normal curvature of the zero direction, whose error text is compared), and
finite-difference routes (the b-Hessians with and without an explicit step,
the nabla-Laplacian of rho, the affine normal, numerics' FD kernels in 2, 3
and 4 variables, with and without Richardson's h, h/2 combination, the dual
Hessian and restricted du of FD and value-only-dual norms, the FD surface
jets (evaluate_jets) of a torus, a saddle and a linear reparametrization of
an ellipsoid chart that has no jet, position and evaluate_jets of every
built-in family by each jet_source and of two gauge-only norms' spheres on
a 5x5 grid of its chart, the same of each such patch's scale_surface by 1.5
and reparametrize_linear by [[0.9, 0.1], [-0.05, 1.0]] and (0.02, -0.01)
on the base's grid, and every field of geometry_batch under
two gauge-only norms on a 12x12 ellipsoid grid and a 4x4 grid of each norm's
own sphere, whose rows converge after different numbers of Newton iterations
and backtrack), run the same way. So must, as text, each of the package's
records' signature (str(inspect.signature)) and the errors of its calls that
do not fit its fields: an unknown keyword, a field given twice, one argument
too many and, where a field is required, no arguments. So must numerics'
small-matrix kernels, reached through names every checkout has: cond_2 and
guarded solves of fixed 2x2 and 3x3 stacks that hold an exactly singular
and an ill-conditioned matrix, det h / det b and the volume forms of such
stacks, and ellipsoid_norm's inverse and its positive-definiteness test.
Prints one line per operation that differs, naming what differs; for a
report or field CSV that differs, the paths where it differs other than in
a float, and for a stderr that differs, whether it differs other than in
its numbers. Then the largest relative change of a float per check (reports)
and per column (field CSVs), over the operations that differ, and a
summary; exits 1 when any operation differs. A differing custom-norm point or gauge-only geometry_batch probe
also prints each checkout's largest gap in eta, lambda1 and lambda2 to the
analytic route: the same points under the built-in norm the gauge is the
value of (a workload pair's ref_norm and ref_surface). The gaps do not
decide the outcome. Nor does the table printed last: the gauge values each
custom-norm pair takes for its points in one round (a workload round's
traced custom.gauge_evals, split by pair), PARENT -> CHANGE, a work count
that does not depend on the machine.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("paper-suite", "grid-sweep")

# A valid config, and one edit of it per keyword of the config schema that
# makes the config violate that keyword, and only that one.
VALID = {"norm": {"family": "euclidean"}, "surface": {"family": "euclidean_sphere", "r": 1.0},
         "grid": {"ns": 4, "nt": 4}, "checks": ["curvature-closed-form"], "seed": 1}
REJECTED = {
    "type": {"norm": {"family": "lp", "p": "four"}},
    "enum": {"surface": {"family": "cube"}},
    "required": {"seed": None},
    "additionalProperties false": {"extra": 1},
    "additionalProperties schema": {"tolerances": {"prop-2-1": "tight"}},
    "items": {"center": [0.0, 0.0, True]},
    "minItems": {"checks": []},
    "maxItems": {"grid": {"ns": 4, "nt": 4, "margins": [0.1, 0.1, 0.1]}},
    "minimum": {"grid": {"ns": 1, "nt": 4}},
    "exclusiveMinimum": {"surface": {"family": "euclidean_sphere", "r": 0}},
}


def rejected_config(edit: dict) -> dict:
    """VALID with edit applied; a None value deletes its key."""
    config = {**VALID, **edit}
    return {key: value for key, value in config.items() if value is not None}


# Configs that must fail, by label, with the exit code PARENT must give:
# the rejected ones, and thm-3-2 on the lp(4) torus, whose Gauss split at the
# first random point has cond_2 3.086, above a guard of 2.0.
FAILING = [(f"rejected config ({keyword})", rejected_config(edit), 2) for keyword, edit in REJECTED.items()]
FAILING.append(("numerical failure (cond_guard 2.0)",
                {"norm": {"family": "lp", "p": 4.0}, "surface": {"family": "torus", "R": 2.0, "r": 1.2},
                 "grid": {"ns": 8, "nt": 8, "margins": [0.3, 0.1]}, "checks": ["thm-3-2"], "seed": 1234,
                 "numerics": {"cond_guard": 2.0}}, 3))


# The largest gap in eta, lambda1 and lambda2 between two geometries (of a
# point or a batch): the programs' distance to the analytic route.
ROUTE_GAP = """
def route_gap(got, want):
    return max(float(np.abs(np.subtract(getattr(got, k), getattr(want, k))).max())
               for k in ("eta", "lambda1", "lambda2"))
"""

# Run with a checkout's src/ on PYTHONPATH and the perfbench directory whose
# workloads.py defines the points as argv[1]: one JSON line per custom-norm
# point, each output as the hex form of its floats, or the error it raised,
# its route_gap to the pair's reference, and the gauge values it took.
CUSTOM_PROGRAM = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import workloads
import minksurf as mk
""" + ROUTE_GAP + """

calls = [0]


def count():
    calls[0] += 1


for pair, (s, t, phi) in workloads.custom_ops(workloads.build_custom_pairs(count)):
    out = {"name": f"{pair.name}@({s:.3f},{t:.3f})", "pair": pair.name}
    calls[0] = 0
    try:
        pg = mk.point_geometry(pair.norm, pair.surface, s, t)
        X = np.array([np.cos(phi), np.sin(phi)])
        rho, V = mk.affine_distance(pg, np.zeros(3))
        values = {"eta": pg.eta, "lambda1": pg.lambda1, "lambda2": pg.lambda2,
                  "indicatrix mean": mk.mean_by_indicatrix_average(pg),
                  "normal curvature": mk.normal_curvature(pg, X), "rho": rho, "V": V}
        out.update((k, [float(x).hex() for x in np.ravel(v)]) for k, v in values.items())
        out["gauge values"] = calls[0]
        out["gap"] = route_gap(pg, mk.point_geometry(pair.ref_norm, pair.ref_surface, s, t))
    except mk.MinksurfError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(out))
"""

# Run with a checkout's src/ on PYTHONPATH: one JSON line per probe, its
# output as the hex form of its floats, or the error it raised, and for a
# gauge-only geometry_batch its route_gap to the built-in norm's. It uses
# only names that every compared checkout has.
PROBE_PROGRAM = """
import dataclasses
import json
import types
import numpy as np
import minksurf as mk
from minksurf import blaschke, numerics
""" + ROUTE_GAP + """

A = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
INV = np.linalg.inv(A)
SURFACE = mk.ellipsoid(1.0, 1.3, 0.8)
POINTS = [(0.8, 2.4), (1.9, 0.7), (2.5, 5.1)]
NORMS = {
    "lp4": mk.lp_norm(4.0),
    "lp4-fd": mk.lp_norm(4.0, jet_source="fd"),
    "ellipsoid-fd": mk.ellipsoid_norm(A, jet_source="fd"),
    "custom-value-dual": mk.custom_norm(lambda x: float(np.sqrt(x @ A @ x)),
                                        dual=mk.ScalarJet(lambda xi: float(np.sqrt(xi @ INV @ xi)))),
}
GAUGES = {
    "custom-lp4": (lambda x: float(np.sum(np.abs(x) ** 4) ** 0.25), mk.lp_norm(4.0)),
    "custom-ellipsoid": (lambda x: float(np.sqrt(x @ A @ x)), mk.ellipsoid_norm(A)),
}
REFERENCES = {}  # gauge-only probe name -> the geometry_batch arguments of its analytic route
XI = np.array([[0.3, -0.5, 0.8], [1e-3, 0.6, -0.9], [2.0, 1.0, 0.5]])
# Small-matrix stacks for the determinant, solve and inverse kernels: a
# well-conditioned matrix, an exactly singular one (a zero LU pivot), one
# with cond_2 about 1e10 and a nonsymmetric one; the right sides of their solves.
STACK2 = np.array([[[2.0, 0.3], [0.3, 1.5]], [[1.0, 2.0], [2.0, 4.0]],
                   [[1.0, 1.0], [1.0, 1.0 + 1e-10]], [[0.4, -1.3], [2.2, 0.7]]])
STACK3 = np.array([A, [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]],
                   [[1.0, 1.0, 1.0], [1.0, 1.0 + 1e-10, 1.0], [0.3, -0.2, 1.1]],
                   [[0.4, -1.3, 0.2], [2.2, 0.7, -0.9], [0.1, 0.5, 1.6]]])
RHS = np.array([[0.7, -1.1, 0.4], [1.0, 1.0, 1.0], [-0.3, 2.0, 0.9], [1.3, 0.2, -0.8]])
P3, D3 = np.array([0.4, -0.7, 1.3]), np.array([0.6, 0.0, -0.8])


def f3(x):
    return float(np.exp(0.3 * x[0]) * np.cos(x[1]) + x[2] ** 3 / 3.0 + x[0] * x[2])


def f_n(x):
    return float(np.exp(0.3 * x[0]) * np.cos(x[1]) + np.sum(x ** 3) / 3.0 + x[0] * x[-1])


def grid(n, s0, t0):
    s, t = np.meshgrid(np.linspace(s0, np.pi - s0, n), np.linspace(t0, 2.0 * np.pi - t0, n), indexing="ij")
    return s.ravel(), t.ravel()


def batch_fields(norm, surface, s, t):
    batch = mk.geometry_batch(norm, surface, s, t)
    return tuple(getattr(batch, f.name) for f in dataclasses.fields(batch))


def jet_fields(surface, s, t):
    jet = mk.evaluate_jets(surface, s, t)
    return tuple(getattr(jet, f.name) for f in dataclasses.fields(jet))


# An n x n grid of a chart's domain from 0.11 to 0.83 of each side: off the
# poles, the chart's centre and the coordinate planes of a sphere chart.
def chart_grid(surface, n=5):
    s0, s1, t0, t1 = surface.domain
    frac = np.linspace(0.11, 0.83, n)
    s, t = np.meshgrid(s0 + (s1 - s0) * frac, t0 + (t1 - t0) * frac, indexing="ij")
    return s.ravel(), t.ravel()


# The L and offset of the derived patches' reparametrize_linear.
DERIVED_MAP = ([[0.9, 0.1], [-0.05, 1.0]], (0.02, -0.01))


# position and evaluate_jets of every built-in family, by each jet_source, and
# of two gauge-only norms' spheres, each with its scale_surface and
# reparametrize_linear, on a 5x5 grid of the base's chart.
def chart_probes():
    def phi(s, t):
        return (np.sin(s) * np.cos(t), np.cos(s) * np.cos(t), -np.sin(s) * np.sin(t),
                -np.sin(s) * np.cos(t), -np.cos(s) * np.sin(t), -np.sin(s) * np.cos(t))

    families = {
        "euclidean_sphere": lambda **kw: mk.euclidean_sphere(1.3, (0.2, -0.1, 0.4), **kw),
        "ellipsoid": lambda **kw: mk.ellipsoid(1.0, 1.3, 0.8, **kw),
        "torus": lambda **kw: mk.torus(2.0, 0.7, **kw),
        "catenoid": lambda **kw: mk.catenoid(0.9, 1.1, **kw),
        "saddle": lambda **kw: mk.saddle(0.8, **kw),
        "graph": lambda **kw: mk.graph(phi, **kw),
        "euclidean minkowski_sphere": lambda **kw: mk.minkowski_sphere(mk.euclidean_norm(), 1.5, **kw),
        "ellipsoid-norm minkowski_sphere": lambda **kw: mk.minkowski_sphere(mk.ellipsoid_norm(A), 1.5, **kw),
        "lp4 minkowski_sphere": lambda **kw: mk.minkowski_sphere(mk.lp_norm(4.0), 1.5, (0.1, 0.0, -0.2), **kw),
    }
    bases = {f"{jet_source} {family}": make(jet_source=jet_source)
             for family, make in families.items() for jet_source in ("analytic", "fd")}
    bases.update({f"{name} minkowski_sphere": mk.minkowski_sphere(mk.custom_norm(gauge), 1.5)
                  for name, (gauge, _) in GAUGES.items()})
    for name, surface in bases.items():
        st = chart_grid(surface)
        for what, patch in (("", surface), ("scale_surface(1.5) of ", mk.scale_surface(surface, 1.5)),
                            ("reparametrize_linear of ", mk.reparametrize_linear(surface, *DERIVED_MAP))):
            yield f"{what}{name} position", patch.position, st
            yield f"{what}{name} evaluate_jets", jet_fields, (patch, *st)


def laplacian(norm, s, t):
    d = mk.nabla_laplacian_rho_details(norm, SURFACE, s, t, [0.1, -0.2, 0.3])
    return d["laplacian"], d["gauss_defects"]


def small_matrix_probes():
    for n, stack in ((2, STACK2), (3, STACK3)):
        yield f"cond_2 of a {n}x{n} stack", numerics._cond_2, (stack,)
        nonsingular = stack[[0, 2, 3]]
        yield f"guarded_solve_rows of a {n}x{n} stack", numerics.guarded_solve_rows, (nonsingular, RHS[:3, :n], 1e300)
        yield (f"guarded_solve_rows of a {n}x{n} stack, matrix right sides", numerics.guarded_solve_rows,
               (nonsingular, np.repeat(RHS[None, :n, :n], 3, axis=0), 1e300))
        yield f"guarded_solve_rows of a singular {n}x{n} stack", numerics.guarded_solve_rows, (stack, RHS[:, :n], 1e300)
    forms = types.SimpleNamespace(h_mat=STACK2, b_mat=STACK2[[0, 3, 3, 0]], f_s=STACK3[:, :, 0], f_t=STACK3[:, :, 1],
                                  eta=STACK3[:, :, 2])
    yield "gaussian_by_determinants of 2x2 stacks", mk.gaussian_by_determinants, (forms,)
    yield "volume forms of 3x3 stacks", blaschke._volume_forms, (forms,)
    yield "ellipsoid_norm dual_hessian", lambda xi: mk.ellipsoid_norm(A).dual_hessian(xi), (XI[0],)
    yield "ellipsoid_norm of an indefinite matrix", mk.ellipsoid_norm, (np.diag([1.0, -1e-12, 1.0]),)


def probes():
    yield from small_matrix_probes()
    yield from chart_probes()
    yield "fd_gradient", numerics.fd_gradient, (f3, P3, 1e-5)
    yield "fd_hessian", numerics.fd_hessian, (f3, P3, 1e-4)
    yield "fd_hessian 2 variables", numerics.fd_hessian, (f_n, P3[:2], 1e-4)
    yield "fd_hessian 4 variables", numerics.fd_hessian, (f_n, np.append(P3, -0.9), 1e-4)
    yield "central_diff richardson", lambda *a: numerics.central_diff(*a, richardson=True), (f3, P3, D3, 1e-3)
    yield "fd_gradient richardson", lambda *a: numerics.fd_gradient(*a, richardson=True), (f3, 3.0 * P3, 1e-3)
    yield "fd_second_directional", numerics.fd_second_directional, (f3, P3, D3, [0.0, 1.0, 0.0], 1e-4)
    for s, t in POINTS:
        yield f"affine_normal({s}, {t})", mk.affine_normal, (SURFACE, s, t)
        yield f"euclidean_gaussian({s}, {t})", mk.euclidean_gaussian, (SURFACE, s, t)
    square = np.meshgrid(np.linspace(-0.9, 0.8, 6), np.linspace(-0.85, 0.9, 6), indexing="ij")
    jetless = dataclasses.replace(SURFACE, jet=None)
    for what, surface, st in (
            ("FD torus", mk.torus(2.0, 0.7, jet_source="fd"), grid(6, 0.1, 0.2)),
            ("FD saddle", mk.saddle(0.8, jet_source="fd"), tuple(a.ravel() for a in square)),
            ("linear reparametrization of a jet-less ellipsoid chart",
             mk.reparametrize_linear(jetless, [[0.5, 0.1], [-0.2, 0.8]], (0.3, 0.4)), grid(5, 0.5, 0.2))):
        yield f"evaluate_jets {what}", jet_fields, (surface, *st)
    for name, norm in NORMS.items():
        for k, xi in enumerate(XI):
            yield f"{name} dual_hessian(xi{k})", norm.dual_hessian, (xi,)
            yield f"{name} du_restricted(xi{k})", norm.du_restricted, (xi,)
        for s, t in POINTS:
            at = f"{name} ({s}, {t})"
            yield f"{at} nabla_laplacian_rho_details", laplacian, (norm, s, t)
            pg = mk.point_geometry(norm, SURFACE, s, t)
            yield f"{at} dupin_orthogonal_pair_sum", mk.dupin_orthogonal_pair_sum, (pg, 0.7)
            yield f"{at} gaussian_by_determinants", mk.gaussian_by_determinants, (pg,)
            yield f"{at} tangent_plane_distance", mk.tangent_plane_distance, (pg, [0.1, -0.2, 0.3])
            yield f"{at} normal_curvature of the zero direction", mk.normal_curvature, (pg, [0.0, 0.0])
            for what, field in (("g", mk.tangent_plane_distance_field(pg, SURFACE)),
                                ("D", mk.minkowski_distance_field(norm, SURFACE, pg.p - 0.7 * pg.eta))):
                yield f"{at} hess_b_matrix {what}", mk.hess_b_matrix, (field, pg)
                yield (f"{at} hess_b_at_critical {what} step", mk.hess_b_at_critical,
                       (field, pg, [1.0, 0.3], [-0.2, 1.0], mk.DEFAULT_CONFIG, 1e-4))


    for name, (gauge, ref) in GAUGES.items():
        norm = mk.custom_norm(gauge)
        for what, surface, ref_surface, st in (
                ("12x12 ellipsoid", SURFACE, SURFACE, grid(12, 0.3, 0.05)),
                ("4x4 own sphere", mk.minkowski_sphere(norm, 1.5), mk.minkowski_sphere(ref, 1.5), grid(4, 0.4, 0.1))):
            REFERENCES[f"{name} geometry_batch {what}"] = (ref, ref_surface, *st)
            yield f"{name} geometry_batch {what}", batch_fields, (norm, surface, *st)


for name, fn, args in probes():
    out = {"name": name}
    try:
        value = fn(*args)
        parts = value if isinstance(value, tuple) else (value,)
        out["value"] = [float(x).hex() for part in parts for x in np.ravel(part)]
        if name in REFERENCES:
            out["gap"] = route_gap(mk.geometry_batch(*args), mk.geometry_batch(*REFERENCES[name]))
    except mk.MinksurfError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(out))
"""


# Run with a checkout's src/ on PYTHONPATH: for each of the package's
# records, one JSON line per call that does not fit its fields (an unknown
# keyword, a field given twice, one argument too many, and no arguments where
# a field is required), with the error it raised, and one with its signature
# as inspect shows it.
RECORDS_PROGRAM = """
import dataclasses
import inspect
import json
import minksurf.cli
from minksurf.numerics import _Record


def records(cls=_Record):
    for sub in cls.__subclasses__():
        if dataclasses.is_dataclass(sub) and sub.__module__.startswith("minksurf."):
            yield sub
        yield from records(sub)


for cls in sorted(records(), key=lambda c: c.__qualname__):
    fields = dataclasses.fields(cls)
    values = {f.name: None for f in fields}
    calls = {"unknown keyword": ((), {**values, "no_such_field": 1}), "duplicate": ((None,), values),
             "one argument too many": ((None,) * (len(fields) + 1), {})}
    if any(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING for f in fields):
        calls["missing fields"] = ((), {})
    for what, (args, kwargs) in calls.items():
        try:
            cls(*args, **kwargs)
            error = None
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"name": f"{cls.__qualname__} {what}", "error": error}))
    print(json.dumps({"name": f"{cls.__qualname__} signature", "value": str(inspect.signature(cls))}))
"""

# What the programs print besides their outputs; it does not decide the outcome.
INFORMATIVE = ("gap", "gauge values", "pair")


def _keep_largest(changes: dict, key, x: float, y: float) -> None:
    """Keep in changes[key] the (relative change, x, y) of the pair of
    values that changed most, relative to the larger of the two."""
    change = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
    if change >= changes.get(key, (0.0,))[0]:
        changes[key] = (change, x, y)


# a path's check entry and list indices: "checks[2].worst_point[1]" -> "worst_point"
ENTRY_INDEX = re.compile(r"^checks\[\d+\]\.|\[\d+\]")


def report_changes(a: bytes, b: bytes) -> tuple[dict, list]:
    """Two reports' largest relative change of a float, per check id and
    field (max_residual, worst_point, a detail key), as _keep_largest keeps
    it, and the paths where anything else differs: a key or a length, a value
    that is not a float on both sides, or not JSON."""
    changes, other = {}, []

    def walk(x, y, path, check):
        if isinstance(x, float) and isinstance(y, float):
            _keep_largest(changes, f"{check} {ENTRY_INDEX.sub('', path)}", x, y)
        elif isinstance(x, dict) and isinstance(y, dict):
            other.extend(f"{path}.{k}" for k in sorted(x.keys() ^ y.keys()))
            for k in sorted(x.keys() & y.keys()):
                walk(x[k], y[k], f"{path}.{k}", check)
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, f"{path}[{i}]", u.get("id", check) if path == "checks" and isinstance(u, dict) else check)
        elif x != y:
            other.append(path)

    try:
        x, y = json.loads(a), json.loads(b)
    except ValueError:
        return {}, ["(not JSON)"]
    for key in sorted(x.keys() ^ y.keys()):
        other.append(key)
    for key in sorted(x.keys() & y.keys()):
        walk(x[key], y[key], key, "(environment)" if key != "checks" else None)
    return changes, other


def csv_changes(a: bytes, b: bytes) -> tuple[dict, list]:
    """Two field CSVs' largest relative change per column, as _keep_largest
    keeps it, and the cells (or the header, or the row count) that differ otherwise."""
    rows_a, rows_b = (text.decode().splitlines() for text in (a, b))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return {}, ["header or row count"]
    header, changes, other = rows_a[0].split(","), {}, []
    for i, (u, v) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for name, x, y in zip(header, u.split(","), v.split(",")):
            try:
                _keep_largest(changes, name, float(x), float(y))
            except ValueError:
                if x != y:
                    other.append(f"row {i} {name}")
    return changes, other


NUMBER = re.compile(rb"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def stderr_changes(a: bytes, b: bytes) -> tuple[dict, list]:
    """Where two stderr texts differ other than in a number (the summary
    line of each check prints its largest residual): nowhere, or in the text
    around their numbers."""
    return {}, [] if NUMBER.sub(b"#", a) == NUMBER.sub(b"#", b) else ["the text around its numbers"]


def load_workloads(root: Path):
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    return workloads


def run_op(root: Path, config: dict, fields: bool, workdir: Path) -> tuple[dict, float]:
    """Run one operation with root's src/ in workdir: its outputs, by name,
    and the child's peak RSS in MB."""
    workdir.mkdir()
    cfg_path, csv_path = workdir / "config.json", workdir / "fields.csv"
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    cfg_path.write_text(json.dumps(config))
    args = [sys.executable, "-m", "minksurf.cli", "run", "--config", cfg_path.name]
    if fields:
        args += ["--fields", csv_path.name]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("MSK_THREADS", None)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(args, cwd=workdir, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    outputs = {"exit code": os.waitstatus_to_exitcode(status), "report": out_path.read_bytes(),
               "stderr": err_path.read_bytes(),
               "field CSV": csv_path.read_bytes() if csv_path.exists() else None}
    return outputs, usage.ru_maxrss / 1024.0


def run_both(parent: Path, change: Path, config: dict, fields: bool, workdir: Path,
             change_first: bool) -> tuple[tuple[dict, float], tuple[dict, float]]:
    """run_op with PARENT and with CHANGE, in workdir-parent and workdir-change;
    CHANGE runs first when change_first, so that neither side is always second."""
    order = [("change", change), ("parent", parent)] if change_first else [("parent", parent), ("change", change)]
    got = {side: run_op(root, config, fields, workdir.with_name(f"{workdir.name}-{side}")) for side, root in order}
    return got["parent"], got["change"]


def program_outputs(root: Path, program: str, *args: str) -> list[dict]:
    """The JSON lines program prints with root's src/, in a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", program, *args], env=env,
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the first checkout")
    parser.add_argument("change", type=Path, help="root of the second checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    workloads = load_workloads(change)
    for root in (parent, change):
        if not compileall.compile_dir(root / "src" / "minksurf", quiet=1):
            raise SystemExit(f"byte-compiling {root / 'src'} failed")

    seen, compared, differ, rss = set(), 0, 0, []
    by_check, by_column = {}, {}  # the largest relative float change, and the operation it is in
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        for seed in args.seeds:
            for workload in WORKLOADS:
                for op in workloads.cli_ops(workload, seed):
                    key = (json.dumps(op.config, sort_keys=True), op.fields)
                    if key in seen:
                        continue
                    seen.add(key)
                    (a, rss_a), (b, rss_b) = run_both(parent, change, op.config, op.fields,
                                                      Path(tmp) / str(compared), compared % 2 == 1)
                    compared += 1
                    rss.append((f"{workload} seed {seed} {op.name}", rss_a, rss_b))
                    diff = [what for what in a if a[what] != b[what]]
                    if diff:
                        differ += 1
                        print(f"differs: {workload} seed {seed} {op.name}: {', '.join(diff)}")
                        for what, compare, largest in (("report", report_changes, by_check),
                                                       ("field CSV", csv_changes, by_column),
                                                       ("stderr", stderr_changes, {})):
                            if what in diff and a[what] and b[what]:
                                changes, other = compare(a[what], b[what])
                                for key, value in changes.items():
                                    if value[0] > largest.get(key, (0.0,))[0]:
                                        largest[key] = (*value, f"{workload} seed {seed} {op.name}")
                                if other:
                                    print(f"  {what} differs beyond its floats at: {', '.join(other)}")
        for label, config, exit_code in FAILING:
            (a, rss_a), (b, rss_b) = run_both(parent, change, config, False,
                                              Path(tmp) / f"failing-{compared}", compared % 2 == 1)
            compared += 1
            rss.append((label, rss_a, rss_b))
            diff = [what for what in a if a[what] != b[what]]
            if a["exit code"] != exit_code or not a["stderr"]:
                diff.append(f"did not exit {exit_code}")
            if diff:
                differ += 1
                print(f"differs: {label}: {', '.join(diff)}")
    for title, largest in (("report float of each check", by_check), ("field CSV column", by_column)):
        if largest:
            print(f"largest relative change of a {title}, where the outputs differ: parent -> change")
            for key, (gap, x, y, where) in sorted(largest.items(), key=lambda kv: str(kv[0])):
                print(f"  {str(key):40s} {gap:.2e}  {x:.3e} -> {y:.3e}  ({where})")
    print("peak RSS of each CLI child, MB: parent -> change")
    for name, rss_a, rss_b in rss:
        print(f"  {name:64s} {rss_a:7.2f} -> {rss_b:7.2f}  ({rss_b - rss_a:+.2f})")
    gauge_values = {}
    for label, program, extra in (("custom-norm", CUSTOM_PROGRAM, [str(change / "perfbench")]),
                                  ("probe", PROBE_PROGRAM, []), ("record", RECORDS_PROGRAM, [])):
        for a, b in zip(program_outputs(parent, program, *extra), program_outputs(change, program, *extra)):
            compared += 1
            if "pair" in a:
                totals = gauge_values.setdefault(a["pair"], [0, 0])
                totals[0] += a.get("gauge values", 0)
                totals[1] += b.get("gauge values", 0)
            diff = [what for what in a.keys() | b.keys()
                    if what not in INFORMATIVE and a.get(what) != b.get(what)]
            if diff:
                differ += 1
                print(f"differs: {label} {a['name']}: {', '.join(sorted(diff))}")
                if "gap" in a and "gap" in b:
                    print(f"  largest gap in eta, lambda1, lambda2 to the analytic route: "
                          f"{a['gap']:.2e} -> {b['gap']:.2e}")
    print("gauge values of one custom-norm round (its points of each pair): parent -> change")
    for name, (values_a, values_b) in [*gauge_values.items(),
                                       ("all pairs", [sum(v[k] for v in gauge_values.values()) for k in (0, 1)])]:
        print(f"  {name:64s} {values_a:7d} -> {values_b:7d}  ({values_b - values_a:+d})")
    print(f"{compared} operations compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
