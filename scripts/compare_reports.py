"""Compare what two checkouts of minksurf write, byte for byte.

    python3 scripts/compare_reports.py PARENT CHANGE [--seeds 1 2 3]

PARENT and CHANGE are the roots of two checkouts. For each seed, every
`minksurf run` operation of the benchmark's paper-suite and grid-sweep
workloads (as perfbench/workloads.py of CHANGE defines them) runs once with
each checkout's src/ on PYTHONPATH, in a fresh directory of its own. The
report on stdout, the field CSV, stderr and the exit code of the two runs
must be byte-identical; an operation whose config repeats across seeds runs
once. The 24 points of the custom-norm workload are evaluated once per
checkout, each checkout in a process of its own, and their eta, lambda1,
lambda2, indicatrix mean, normal curvature, affine distance rho and its
tangential part V must agree bit for bit. Prints one line per operation that
differs, naming what differs, then a summary; exits 1 when any operation
differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("paper-suite", "grid-sweep")

# Run with a checkout's src/ on PYTHONPATH and the perfbench directory whose
# workloads.py defines the points as argv[1]: one JSON line per custom-norm
# point, each output as the hex form of its floats, or the error it raised.
CUSTOM_PROGRAM = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import workloads
import minksurf as mk

for pair, (s, t, phi) in workloads.custom_ops(workloads.build_custom_pairs()):
    out = {"name": f"{pair.name}@({s:.3f},{t:.3f})"}
    try:
        pg = mk.point_geometry(pair.norm, pair.surface, s, t)
        X = np.array([np.cos(phi), np.sin(phi)])
        rho, V = mk.affine_distance(pg, np.zeros(3))
        values = {"eta": pg.eta, "lambda1": pg.lambda1, "lambda2": pg.lambda2,
                  "indicatrix mean": mk.mean_by_indicatrix_average(pg),
                  "normal curvature": mk.normal_curvature(pg, X), "rho": rho, "V": V}
        out.update((k, [float(x).hex() for x in np.ravel(v)]) for k, v in values.items())
    except mk.MinksurfError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(out))
"""


def load_workloads(root: Path):
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    return workloads


def run_op(root: Path, config: dict, fields: bool, workdir: Path) -> dict:
    """Run one operation with root's src/ in workdir: its outputs, by name."""
    workdir.mkdir()
    cfg_path, csv_path = workdir / "config.json", workdir / "fields.csv"
    cfg_path.write_text(json.dumps(config))
    args = [sys.executable, "-m", "minksurf.cli", "run", "--config", cfg_path.name]
    if fields:
        args += ["--fields", csv_path.name]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("MSK_THREADS", None)
    proc = subprocess.run(args, cwd=workdir, env=env, capture_output=True)
    return {"exit code": proc.returncode, "report": proc.stdout, "stderr": proc.stderr,
            "field CSV": csv_path.read_bytes() if csv_path.exists() else None}


def custom_outputs(root: Path, perfbench: Path) -> list[dict]:
    """The custom-norm points evaluated with root's src/, in a process of their own."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CUSTOM_PROGRAM, str(perfbench)], env=env,
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

    seen, compared, differ = set(), 0, 0
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        for seed in args.seeds:
            for workload in WORKLOADS:
                for op in workloads.cli_ops(workload, seed):
                    key = (json.dumps(op.config, sort_keys=True), op.fields)
                    if key in seen:
                        continue
                    seen.add(key)
                    base = Path(tmp) / str(compared)
                    a = run_op(parent, op.config, op.fields, base.with_name(f"{compared}-parent"))
                    b = run_op(change, op.config, op.fields, base.with_name(f"{compared}-change"))
                    compared += 1
                    diff = [what for what in a if a[what] != b[what]]
                    if diff:
                        differ += 1
                        print(f"differs: {workload} seed {seed} {op.name}: {', '.join(diff)}")
    for a, b in zip(custom_outputs(parent, change / "perfbench"), custom_outputs(change, change / "perfbench")):
        compared += 1
        diff = [what for what in a.keys() | b.keys() if a.get(what) != b.get(what)]
        if diff:
            differ += 1
            print(f"differs: custom-norm {a['name']}: {', '.join(sorted(diff))}")
    print(f"{compared} operations compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
