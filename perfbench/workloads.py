"""The benchmark's three workloads: their inputs, and what the paper says about them.

Nothing here imports minksurf at module level, so the parent process of the
two CLI workloads stays free of the library it times.

paper-suite   short `minksurf run` processes, one per (config, check group)
grid-sweep    long `minksurf run` processes on grids up to 40x40, with --fields
custom-norm   in-process library calls on norms given by a gauge value only

The seed sets the order of the operations in every round and the config seed
of the random-point identities prop-2-2 and prop-2-3, which hold at any point
and whose amount of work does not depend on where the points fall. The
FD-stencil checks (lemma-3-1, thm-3-1, prop-3-1, thm-3-2) and the custom
norms' points run on fixed inputs: their error and their work (root brackets,
Newton iterations) depend on the points, and thm-3-2 fails at some seeds on
lp norms. So per-layer call counts repeat exactly across seeds, and the named
faults fail on every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("paper-suite", "grid-sweep", "custom-norm")

# The README's example and the acceptance tests' anisotropic ellipsoid gauge.
README_SEED = 1234
A_MATRIX = [[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]]
ELLIPSOID_ABC = (1.0, 1.3, 0.8)

EUCLIDEAN = {"family": "euclidean"}
ELLIPSOID_NORM = {"family": "ellipsoid", "A": A_MATRIX}
LP3 = {"family": "lp", "p": 3.0}
LP4 = {"family": "lp", "p": 4.0}
LP4_FD = {"family": "lp", "p": 4.0, "jet_source": "fd"}

UNIT_SPHERE = {"family": "euclidean_sphere", "r": 1.0}
ELLIPSOID = {"family": "ellipsoid", "a": 1.0, "b": 1.3, "c": 0.8}
ELLIPSOID_FD = dict(ELLIPSOID, jet_source="fd")
TORUS = {"family": "torus", "R": 2.0, "r": 1.2}
CATENOID = {"family": "catenoid"}
SADDLE = {"family": "saddle"}
MINKOWSKI_SPHERE = {"family": "minkowski_sphere", "rho": 1.5}

GRID_CHECKS = ("umbilicity", "prop-3-2", "blaschke-scan", "affine-normal-compare",
               "minimality-scan", "cor-2-1")
# Pure identities on the computed geometry: they hold at any random points.
RANDOM_CHECKS = ("prop-2-2", "prop-2-3")
# FD stencils whose error depends on where the points fall: fixed seed.
# prop-2-1 (an identity, but the costliest random-point check) runs with them
# so that both groups cost about 0.6 s of checks per config: the durations of
# paper-suite operations then form one cluster around their median.
DISTANCE_CHECKS = ("lemma-3-1", "thm-3-1", "prop-3-1", "thm-3-2", "prop-2-1")


@dataclass(frozen=True)
class KnownFault:
    """A program fault that makes one operation fail on every run, and how it shows.

    An operation with a fault counts as failed only when its output shows
    exactly this fault: with exit_code 0, a schema-valid report whose one
    wrong verdict is `check` failing with its residual above its tolerance;
    otherwise that exit code and an error message matching stderr_pattern.
    Any other problem on the operation is a wrong output.
    """

    text: str
    check: str
    exit_code: int = 0
    stderr_pattern: str = ""


FAULT_PROP_3_1 = KnownFault(
    "prop-3-1 misses its 1e-4 tolerance at seed 1234: the fixed relative FD step in "
    "hess_b_at_critical is too coarse for the local curvature", "prop-3-1")
FAULT_THM_3_1 = KnownFault(
    "thm-3-1 exits 3 with NotCritical at (s, t) = (2.387, 3.1428), next to the lp axis "
    "circle t = pi, where the fixed FD step breaks the criticality test", "thm-3-1",
    exit_code=3,
    stderr_pattern=(r"check 'thm-3-1' failed numerically: field gradient .* at "
                    r"\(s,t\)=\(2\.387\d*, 3\.1428\d*\) exceeds the critical tolerance"))


# ---------------------------------------------------------------------------
# expected verdicts, from the paper
# ---------------------------------------------------------------------------

def is_minkowski_sphere(norm: dict, surface: dict) -> bool:
    """Whether the surface is a sphere of the run's own norm, centred at the origin."""
    if surface["family"] == "minkowski_sphere":
        return True
    return surface["family"] == "euclidean_sphere" and norm["family"] == "euclidean"


def is_euclidean_unit_sphere(norm: dict, surface: dict) -> bool:
    return (norm["family"] == "euclidean" and surface["family"] == "euclidean_sphere"
            and surface["r"] == 1.0)


def planar_solves_ermakov(planar: dict) -> bool:
    """Thm 4.1: the position field is the affine normal iff g'' + g = g^-3.

    A circle of radius r solves it iff r = 1; an ellipse with semi-axes a, b
    iff ab = 1 (its equi-affine normal is -(ab)^(-2/3) x).
    """
    if planar["support"] == "circle":
        return planar.get("radius", 1.0) == 1.0
    return math.isclose(planar.get("a", 1.0) * planar.get("b", 1.5), 1.0)


def expected_verdict(check: str, cfg: dict) -> bool:
    """The verdict the paper predicts for one check on one config.

    The identities (Props 2.1-2.3, Cor 2.1, Lemma 3.1, Thms 3.1-3.2, Prop 3.1,
    the minimality remark) hold everywhere. Umbilicity and the constant affine
    distance of Prop 3.2 hold exactly on Minkowski spheres. The Birkhoff
    normal is the Blaschke (affine) normal only for the Euclidean norm on the
    Euclidean unit sphere, where the volume ratio |K|^(-1/2) equals 1.
    """
    norm, surface = cfg["norm"], cfg["surface"]
    if check in ("umbilicity", "prop-3-2"):
        return is_minkowski_sphere(norm, surface)
    if check in ("blaschke-scan", "affine-normal-compare"):
        return is_euclidean_unit_sphere(norm, surface)
    if check == "planar-ermakov":
        return planar_solves_ermakov(cfg["planar"])
    return True


def may_be_vacuous(check: str, cfg: dict) -> bool:
    """Whether a grid check legitimately finds no applicable point on this surface.

    cor-2-1 needs H = 0 with K < 0, minimality-scan needs |H| <= 1e-6 at a
    grid point, affine-normal-compare needs an elliptic point.
    """
    fam = cfg["surface"]["family"]
    if check == "minimality-scan":
        return fam != "catenoid"
    if check == "cor-2-1":
        if fam == "torus":
            return cfg["surface"]["R"] >= 2.0 * cfg["surface"]["r"]
        return fam not in ("catenoid", "saddle")
    if check == "affine-normal-compare":
        return fam in ("catenoid", "saddle")
    return False


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliOp:
    """One `minksurf run` process: a config, optionally with --fields."""

    name: str
    config: dict
    fields: bool = False
    fault: Optional[KnownFault] = None   # the program fault that makes this op fail today


@dataclass(frozen=True)
class PaperConfig:
    name: str
    norm: dict
    surface: dict
    grid_checks: tuple
    faults: tuple = ()      # KnownFault, each run as an operation of its own
    planar: Optional[dict] = None
    fixed_seed: bool = False


GRID8 = {"ns": 8, "nt": 8, "margins": [0.3, 0.1]}

PAPER_CONFIGS = (
    PaperConfig("readme-lp4-ellipsoid", LP4, ELLIPSOID,
                ("umbilicity", "prop-3-2", "blaschke-scan", "affine-normal-compare"),
                faults=(FAULT_PROP_3_1,), fixed_seed=True),
    PaperConfig("euclidean-unit-sphere", EUCLIDEAN, UNIT_SPHERE,
                ("curvature-closed-form", "umbilicity", "prop-3-2", "blaschke-scan",
                 "affine-normal-compare", "planar-ermakov"),
                planar={"support": "circle", "radius": 1.0}),
    PaperConfig("euclidean-torus", EUCLIDEAN, TORUS,
                ("umbilicity", "prop-3-2", "blaschke-scan", "affine-normal-compare",
                 "cor-2-1", "planar-ermakov"),
                planar={"support": "ellipse", "a": 1.0, "b": 1.5}),
    PaperConfig("euclidean-catenoid", EUCLIDEAN, CATENOID,
                ("umbilicity", "prop-3-2", "blaschke-scan", "cor-2-1", "minimality-scan"),
                faults=(FAULT_PROP_3_1,)),
    PaperConfig("euclidean-saddle", EUCLIDEAN, SADDLE,
                ("umbilicity", "prop-3-2", "blaschke-scan", "cor-2-1"),
                faults=(FAULT_PROP_3_1,)),
    PaperConfig("lp4-minkowski-sphere", LP4, MINKOWSKI_SPHERE,
                ("curvature-closed-form", "umbilicity", "prop-3-2", "blaschke-scan",
                 "affine-normal-compare"),
                faults=(FAULT_THM_3_1,)),
    PaperConfig("lp3-torus", LP3, TORUS,
                ("umbilicity", "prop-3-2", "blaschke-scan", "affine-normal-compare", "cor-2-1")),
    PaperConfig("ellipsoid-norm-minkowski-sphere", ELLIPSOID_NORM, MINKOWSKI_SPHERE,
                ("curvature-closed-form", "umbilicity", "prop-3-2", "blaschke-scan",
                 "affine-normal-compare")),
    # FD jets. cor-2-1 is left out of the FD-norm torus and blaschke-scan /
    # affine-normal-compare are never run on FD surface jets of the unit
    # sphere: their tolerances do not widen for FD jets (see the README).
    PaperConfig("lp4-fd-torus", LP4_FD, TORUS,
                ("umbilicity", "prop-3-2", "blaschke-scan", "affine-normal-compare")),
    PaperConfig("euclidean-fd-ellipsoid", EUCLIDEAN, ELLIPSOID_FD,
                ("umbilicity", "prop-3-2", "blaschke-scan", "affine-normal-compare")),
)


def _config_seed(seed: int, name: str) -> int:
    return random.Random(f"{seed}:{name}").randrange(2**31)


def _paper_cfg(pc: PaperConfig, checks, seed: int) -> dict:
    cfg = {"norm": pc.norm, "surface": pc.surface, "grid": GRID8,
           "checks": list(checks), "seed": seed}
    if pc.planar is not None and "planar-ermakov" in checks:
        cfg["planar"] = pc.planar
    return cfg


def paper_suite_ops(seed: int) -> list[CliOp]:
    ops = []
    for pc in PAPER_CONFIGS:
        rseed = README_SEED if pc.fixed_seed else _config_seed(seed, pc.name)
        ops.append(CliOp(f"{pc.name}/grid+random",
                         _paper_cfg(pc, pc.grid_checks + RANDOM_CHECKS, rseed)))
        faulty = {f.check for f in pc.faults}
        distance = [c for c in DISTANCE_CHECKS if c not in faulty]
        ops.append(CliOp(f"{pc.name}/distance", _paper_cfg(pc, distance, README_SEED)))
        for fault in pc.faults:
            ops.append(CliOp(f"{pc.name}/{fault.check}", _paper_cfg(pc, [fault.check], README_SEED),
                             fault=fault))
    return ops


# Each grid has an even point count per axis and the t margin at half a
# step, so every reflection of an axis-aligned ellipsoid maps grid points to
# grid points and no point sits on an lp axis circle. The lp(4) ellipsoid
# keeps the 40x40 grid the ROADMAP's per-point counts refer to; the other
# grids are sized so those five operations take about the same time, which
# keeps the median operation inside one cluster of durations.
def sweep_grid(n: int) -> dict:
    return {"ns": n, "nt": n, "margins": [0.3, math.pi / n]}


SWEEP_CONFIGS = (
    ("lp4-ellipsoid", LP4, ELLIPSOID, 40),
    ("euclidean-ellipsoid", EUCLIDEAN, ELLIPSOID, 24),
    ("euclidean-torus", EUCLIDEAN, TORUS, 24),
    ("euclidean-catenoid", EUCLIDEAN, CATENOID, 18),
    ("lp4-minkowski-sphere", LP4, MINKOWSKI_SPHERE, 18),
    ("euclidean-unit-sphere", EUCLIDEAN, UNIT_SPHERE, 24),
)


def grid_sweep_ops(seed: int) -> list[CliOp]:
    return [CliOp(name, {"norm": norm, "surface": surface, "grid": sweep_grid(n),
                         "checks": list(GRID_CHECKS), "seed": _config_seed(seed, name)},
                  fields=True)
            for name, norm, surface, n in SWEEP_CONFIGS]


# The op re-run outside the timed region to show byte-identical reports.
DETERMINISM_OP = {"paper-suite": "readme-lp4-ellipsoid/grid+random",
                  "grid-sweep": "euclidean-unit-sphere"}


def cli_ops(workload: str, seed: int) -> list[CliOp]:
    return paper_suite_ops(seed) if workload == "paper-suite" else grid_sweep_ops(seed)


def round_order(n: int, seed: int, round_index: int) -> list[int]:
    order = list(range(n))
    random.Random(f"{seed}/{round_index}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# custom-norm: gauges known only by their value
# ---------------------------------------------------------------------------

SPHERE_RHO = 1.5
CUSTOM_POINTS_PER_PAIR = 6


def custom_points() -> list[tuple[float, float, float]]:
    """Fixed scattered (s, t, direction angle) triples: an R2 low-discrepancy
    sequence over s in [0.4, pi - 0.4] and t in [0, 2 pi)."""
    g = 1.32471795724474602596
    a1, a2 = 1.0 / g, 1.0 / (g * g)
    pts = []
    for i in range(1, CUSTOM_POINTS_PER_PAIR + 1):
        u, v = (0.5 + a1 * i) % 1.0, (0.5 + a2 * i) % 1.0
        pts.append((0.4 + (math.pi - 0.8) * u, 2.0 * math.pi * v, math.pi * ((0.5 + 0.618 * i) % 1.0)))
    return pts


@dataclass
class CustomPair:
    """A gauge-only norm on one surface, with the analytic route to compare against."""

    name: str
    norm: object
    surface: object
    ref_norm: object
    ref_surface: object
    sphere_rho: Optional[float]


def build_custom_pairs(gauge_counter=None) -> list[CustomPair]:
    """The custom-norm workload's norms and surfaces.

    gauge_counter, when given, is called once per gauge evaluation (traced run).
    """
    import numpy as np
    import minksurf as mk

    A = np.array(A_MATRIX)

    def lp4_gauge(x):
        if gauge_counter is not None:
            gauge_counter()
        return float(np.sum(np.abs(x) ** 4) ** 0.25)

    def ellipsoid_gauge(x):
        if gauge_counter is not None:
            gauge_counter()
        return float(np.sqrt(x @ A @ x))

    pairs = []
    for label, gauge, ref in (("lp4", lp4_gauge, mk.lp_norm(4.0)),
                              ("ellipsoid-gauge", ellipsoid_gauge, mk.ellipsoid_norm(A))):
        norm = mk.custom_norm(gauge)
        pairs.append(CustomPair(f"{label}/ellipsoid", norm, mk.ellipsoid(*ELLIPSOID_ABC),
                                ref, mk.ellipsoid(*ELLIPSOID_ABC), None))
        pairs.append(CustomPair(f"{label}/own-sphere", norm, mk.minkowski_sphere(norm, SPHERE_RHO),
                                ref, mk.minkowski_sphere(ref, SPHERE_RHO), SPHERE_RHO))
    return pairs


def custom_ops(pairs: list[CustomPair]) -> list[tuple[CustomPair, tuple[float, float, float]]]:
    return [(pair, pt) for pair in pairs for pt in custom_points()]


def setup(workload: str, seed: int, probe: int, probes: int) -> None:
    """What one process of the workload builds before its first operation.

    custom-norm: the CLI import and every norm and surface of the workload.
    The CLI workloads: the CLI import and build_context of one operation's
    config, as one `minksurf run` does; successive probes take configs spread
    over the workload's operations.
    """
    import minksurf.cli as cli

    if workload == "custom-norm":
        build_custom_pairs()
        return
    ops = cli_ops(workload, seed)
    cli.build_context(ops[probe * len(ops) // probes].config)
