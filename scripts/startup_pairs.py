"""Time `minksurf run` from two checkouts, as alternating spawn-to-exit pairs.

    python3 scripts/startup_pairs.py PARENT CHANGE --config CFG.json [--config ...] --pairs N

PARENT and CHANGE are the roots of two checkouts. A pair runs
`python -m minksurf.cli run --config CFG` once with each checkout's src/ on
PYTHONPATH, for each config in turn; odd pairs run PARENT first, even pairs
CHANGE first. Both checkouts' src/minksurf is byte-compiled first and no
child writes bytecode, so no run compiles; BLAS is pinned to one thread, as
perfbench pins it. Children run in a temporary directory.

The children are started by a small helper process (this script with
--helper, which imports only os, sys and time), not by this one: a spawn
goes through vfork, so a child's ru_maxrss from os.wait4 starts at the RSS
of the process that spawned it, and a large spawner would be counted as
the child's peak.

Prints, per config and side, the median and quartiles of the wall time
(spawn to exit) and of the peak RSS, and in how many pairs that side was
the lower. Then, per side, the median over N runs of
`python -X importtime -c "import minksurf.cli"`, split by top-level package
into numpy, the standard library, minksurf and anything else (self times,
summed). Exits 1 if any run exits non-zero.
"""

from __future__ import annotations

import os
import sys
import time

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def helper() -> None:
    """Spawn one child per line of stdin, `src TAB out TAB err TAB argv...`, and
    answer each with `wall_s maxrss_kb exit_code`."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        src, out, err, *argv = line.rstrip("\n").split("\t")
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", **BLAS_PINS)
        env.pop("MSK_THREADS", None)
        actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        print(wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status), flush=True)


def main() -> int:
    import argparse
    import compileall
    import statistics
    import subprocess
    import tempfile
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--config", type=Path, action="append", required=True,
                        help="a minksurf run config (JSON); may be given more than once")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args()

    sides = {"parent": args.parent.resolve() / "src", "change": args.change.resolve() / "src"}
    for name, src in sides.items():
        if not (src / "minksurf").is_dir():
            parser.error(f"{name}: no src/minksurf under {src.parent}")
        if not compileall.compile_dir(src / "minksurf", quiet=1):
            raise SystemExit(f"{name}: byte-compiling {src / 'minksurf'} failed")

    def quartiles(xs):
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return f"{q2:9.4g} [{q1:.4g}, {q3:.4g}]"

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.Popen([sys.executable, __file__, "--helper"], cwd=tmp, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)

        def spawn(side: str, argv: list[str]) -> tuple[float, float, str]:
            out, err = os.path.join(tmp, f"{side}.out"), os.path.join(tmp, f"{side}.err")
            proc.stdin.write("\t".join([str(sides[side]), out, err, sys.executable, *argv]) + "\n")
            proc.stdin.flush()
            wall, rss_kb, code = proc.stdout.readline().split()
            if code != "0":
                nonlocal failed
                failed += 1
                last = (Path(err).read_text().strip().splitlines() or [""])[-1]
                print(f"{side}: {' '.join(argv)} exited {code}: {last}", file=sys.stderr)
            return float(wall), int(rss_kb) / 1024.0, err

        try:
            for cfg in args.config:
                runs = {side: {"wall_s": [], "peak_rss_mb": []} for side in sides}
                for i in range(args.pairs):
                    for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                        wall, rss, _ = spawn(side, ["-m", "minksurf.cli", "run", "--config", str(cfg.resolve())])
                        runs[side]["wall_s"].append(wall)
                        runs[side]["peak_rss_mb"].append(rss)
                print(f"{cfg} ({args.pairs} pairs): median [q1, q3], pairs lower")
                for metric in ("wall_s", "peak_rss_mb"):
                    p, c = runs["parent"][metric], runs["change"][metric]
                    for side, xs, ys in (("parent", p, c), ("change", c, p)):
                        wins = sum(x < y for x, y in zip(xs, ys))
                        print(f"  {metric:12s} {side:7s} {quartiles(xs)}  {wins} of {args.pairs}")

            print(f"-X importtime of `import minksurf.cli`, self times summed, ms, median of {args.pairs}:")
            groups = ("numpy", "stdlib", "minksurf", "other")
            split = {side: {g: [] for g in groups + ("total",)} for side in sides}
            for i in range(args.pairs):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    _, _, err = spawn(side, ["-X", "importtime", "-c", "import minksurf.cli"])
                    sums = dict.fromkeys(groups, 0.0)
                    for line in Path(err).read_text().splitlines()[1:]:  # after the header
                        self_us, _, name = line.split("|")   # "import time: self | cumulative | name"
                        top = name.strip().split(".")[0]
                        group = (top if top in ("numpy", "minksurf")
                                 else "stdlib" if top in sys.stdlib_module_names else "other")
                        sums[group] += int(self_us.split(":")[1]) / 1e3
                    for g in groups:
                        split[side][g].append(sums[g])
                    split[side]["total"].append(sum(sums.values()))
            for side in sides:
                print(f"  {side:7s} " + "  ".join(f"{g} {statistics.median(v):.1f}" for g, v in split[side].items()))
        finally:
            proc.stdin.close()
            proc.wait()
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--helper"]:
        helper()
    else:
        sys.exit(main())
