"""Run a config's sampled checks seed by seed, and count the seeds they fail at.

    python3 scripts/seed_scan.py CONFIG --seeds A-B [--checks ID [ID ...]]

CONFIG is a `minksurf run` config (JSON). The sampled checks are the ones
graded at random chart points (prop-2-1, prop-2-2, prop-2-3, lemma-3-1,
thm-3-1, prop-3-1, thm-3-2). The scan takes the config's own sampled
checks, or the ones --checks names. For each seed from A to B, both
included, it builds the run context of the config at that seed, as
`run_checks` builds it, and runs each check's registry runner, which joins
the check's sampler and kernel. So each seed gives the verdict that
`minksurf run` gives at that seed.

Prints one line per check:
  - fail: the number of seeds at which the check fails;
  - exit3: the number at which it stops with a numerical failure, which is
    exit 3 for `minksurf run`;
  - the worst residual over all the seeds, and its seed;
  - under an lp norm, min|xi_i| of the worst point's Euclidean unit normal
    xi, the point's distance to the norm's degenerate axis circles, and the
    largest such value over the worst points of the failing seeds.
Then it lists the failing seeds of each check, and each exit-3 seed with its
message. Exits 2 on a config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from minksurf import cli
from minksurf.errors import ConfigError, MinksurfError

SAMPLED = [cid for cid, spec in cli.REGISTRY.items() if spec.points is not None]


def parse_seeds(text: str) -> range:
    """The seeds of "A-B" (A to B, both included) or of "A"."""
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def scan(cfg: dict, seeds, checks) -> dict:
    """Per check id: {"failing": [seed, ...], "exit3": [(seed, message), ...],
    "worst": (residual, seed) or None, "min_xi": min|xi_i| at the worst point,
    "failing_min_xi": the largest min|xi_i| over the failing seeds' worst points}.
    The last two are None unless the norm is an lp norm."""
    rows = {cid: {"failing": [], "exit3": [], "worst": None, "points": {}} for cid in checks}
    ctx = None
    for seed in seeds:
        ctx = cli.build_context({**cfg, "seed": seed})
        for cid in checks:
            row = rows[cid]
            try:
                entry = cli.REGISTRY[cid].runner(ctx)
            except ConfigError:
                raise
            except MinksurfError as exc:
                location = getattr(exc, "location", None)
                row["exit3"].append((seed, f"{exc}" + (f" (at {location})" if location else "")))
                continue
            residual = entry["max_residual"]
            if not entry["pass"]:
                row["failing"].append(seed)
            if residual is None:
                continue
            row["points"][seed] = entry["worst_point"]
            # a NaN residual is the worst, as the runner grades it
            if row["worst"] is None or _rank(residual) > _rank(row["worst"][0]):
                row["worst"] = (residual, seed)
    lp = ctx is not None and ctx.norm.family == "lp"
    for row in rows.values():
        points = row.pop("points")
        row["min_xi"] = row["failing_min_xi"] = None
        if lp and row["worst"] is not None:
            row["min_xi"] = _min_abs_xi(ctx, [points[row["worst"][1]]])[0]
            failing = [points[seed] for seed in row["failing"] if seed in points]
            if failing:
                row["failing_min_xi"] = float(_min_abs_xi(ctx, failing).max())
    return rows


def _rank(residual: float) -> tuple:
    return (math.isnan(residual), residual)


def _min_abs_xi(ctx, points) -> np.ndarray:
    return np.abs(ctx.batch(points).xi).min(axis=1)


def _cell(value, fmt: str = ".2e") -> str:
    return "-" if value is None else format(value, fmt)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="a minksurf run config (JSON)")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, both included, or A")
    parser.add_argument("--checks", nargs="+", metavar="ID",
                        help="sampled checks to run (default: the config's own)")
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        checks = args.checks or [cid for cid in cfg.get("checks", ()) if cid in SAMPLED]
        stray = [cid for cid in checks if cid not in SAMPLED]
        if stray or not checks:
            raise ConfigError(f"{', '.join(stray) or 'the config'} names no sampled check; "
                              f"the sampled checks are {', '.join(SAMPLED)}")
        rows = scan(cfg, args.seeds, checks)
    except (OSError, ValueError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seeds = args.seeds
    print(f"{args.config}: seeds {seeds.start}-{seeds.stop - 1} ({len(seeds)} seeds)")
    width = max(map(len, checks))
    print(f"{'check':<{width}}  {'fail':>4}  {'exit3':>5}  {'worst':>9}  {'seed':>6}  "
          f"{'min|xi_i|':>9}  {'failing max min|xi_i|':>21}")
    for cid, row in rows.items():
        residual, seed = row["worst"] or (None, None)
        print(f"{cid:<{width}}  {len(row['failing']):>4}  {len(row['exit3']):>5}  {_cell(residual):>9}  "
              f"{_cell(seed, 'd'):>6}  {_cell(row['min_xi']):>9}  {_cell(row['failing_min_xi']):>21}")
    for cid, row in rows.items():
        if row["failing"]:
            print(f"{cid} fails at seeds: {' '.join(map(str, row['failing']))}")
        for seed, message in row["exit3"]:
            print(f"{cid} exits 3 at seed {seed}: {message}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
