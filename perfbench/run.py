"""The minksurf benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {paper-suite,grid-sweep,custom-norm}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. It times the program built from that
checkout's src/, checks every output (see verify.py), and prints as its last
line one JSON object: correct, attempted, failed and the metrics.

--trace 0: end-to-end metrics. Whole rounds of the workload's operations
run in a closed loop with one client until --seconds have passed; each
round holds every operation once, in a seed-shuffled order. Set-up time is
the median of several fresh processes.

--trace 1: per-layer metrics. One round runs in this process (the CLI
workloads through minksurf.cli.main), each operation once untraced and then
once traced; the difference is the tracing overhead.

At most two processes run at a time (this one and one child), BLAS is
pinned to one thread and the CLI keeps its default --threads 1.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process or its children.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
os.environ.pop("MSK_THREADS", None)
# Imports read the .pyc files compile_sources() writes; nothing else writes bytecode.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import sys  # noqa: E402

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import compileall  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (the script's own directory is on sys.path)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5

# The registry ids, spelled out: BENCHMARK.json names one per-layer metric per id.
CHECK_IDS = ("curvature-closed-form", "umbilicity", "prop-2-1", "prop-2-2", "cor-2-1",
             "prop-2-3", "lemma-3-1", "thm-3-1", "prop-3-1", "thm-3-2",
             "minimality-scan", "prop-3-2", "blaschke-scan", "affine-normal-compare",
             "planar-ermakov")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Outcome:
    """One operation: its wall time, checked output and the resources it used."""

    name: str
    wall: float
    output: object          # compared byte for byte between repeats
    problems: list
    fault: str | None       # text of the named fault the operation showed, if any
    points: int
    rss_mb: float           # peak resident memory of the process that ran it


class Run:
    """Outcome of one benchmark run: operation counts, problems and metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []      # problems that are not a named fault
        self.known: dict[str, str] = {}      # op name -> the named fault it showed
        self.metrics: dict[str, dict] = {}
        self.op_walls: dict[str, list[float]] = {}   # op name -> wall times, for the log

    def record(self, o: Outcome) -> None:
        self.attempted += 1
        self.op_walls.setdefault(o.name, []).append(o.wall)
        if o.problems:
            self.failed += 1
            self.unexpected.append(f"{o.name}: {'; '.join(o.problems)}")
        elif o.fault is not None:
            self.failed += 1
            self.known.setdefault(o.name, o.fault)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def emit(self) -> None:
        for name, walls in sorted(self.op_walls.items()):
            print(f"op {name:56s} {statistics.median(walls):9.4f} s  x{len(walls)}", file=sys.stderr)
        for name, msg in sorted(self.known.items()):
            print(f"known fault  {name}: {msg}", file=sys.stderr)
        for msg in self.unexpected:
            print(f"WRONG OUTPUT {msg}", file=sys.stderr)
        for name, m in self.metrics.items():
            print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
        print(f"{'attempted':48s} {self.attempted:>14d}")
        print(f"{'failed':48s} {self.failed:>14d}")
        print(json.dumps({"correct": not self.unexpected, "attempted": self.attempted,
                          "failed": self.failed, "metrics": self.metrics}))


def call(fn, args, tracer=None, name: str = ""):
    """(wall s, result) of fn(*args); with a tracer, traced as one span named name."""
    if tracer is None:
        t0 = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - t0, result
    tracer.install()
    try:
        t0 = time.perf_counter()
        result = tracer.span(name, fn, *args)
        return time.perf_counter() - t0, result
    finally:
        tracer.uninstall()


def spawn(args: list[str], workdir: Path, tag: str) -> tuple[float, float, int, str, str]:
    """Run one child to completion: (wall s, peak RSS MB, exit code, stdout, stderr)."""
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=child_env(), cwd=workdir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text(), err_path.read_text()


def compile_sources() -> None:
    """Byte-compile the checkout's minksurf and this benchmark's modules.

    Every process then imports current .pyc files, so import time never
    includes compiling, whatever ran in the checkout before; nothing else
    writes bytecode (sys.dont_write_bytecode here, PYTHONDONTWRITEBYTECODE
    in the children).
    """
    ok = compileall.compile_dir(SRC / "minksurf", quiet=1)
    ok &= compileall.compile_dir(HERE, maxlevels=0, quiet=1)
    if not ok:
        raise SystemExit("byte-compiling the sources failed")


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of fresh set-up processes, spawn to exit."""
    times = []
    for i in range(SETUP_PROBES):
        wall, _, rc, _, err = spawn([sys.executable, str(HERE / "setup_probe.py"), workload,
                                     str(seed), str(i), str(SETUP_PROBES)], workdir, f"setup{i}")
        if rc != 0:
            last = err.strip().splitlines()[-1:] or [""]
            raise SystemExit(f"set-up probe exited {rc}: {last[0]}")
        times.append(wall)
    return statistics.median(times)


def import_minksurf():
    """Import the checkout's minksurf.cli in this process; returns (module, seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import minksurf.cli as cli
    dt = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (SRC / "minksurf").resolve():
        raise SystemExit(f"imported minksurf from {cli.__file__}, not from {SRC}")
    return cli, dt


# ---------------------------------------------------------------------------
# the workloads' operations
# ---------------------------------------------------------------------------

class CliBench:
    """`minksurf run` operations: one child process each, or, given the imported
    minksurf.cli, calls of cli.main in this process (traced run)."""

    def __init__(self, workload: str, seed: int, workdir: Path, cli=None):
        import verify

        self.workload, self.cli, self.workdir = workload, cli, workdir
        self.schema = verify.load_report_schema(ROOT)
        self.ops = workloads.cli_ops(workload, seed)
        self.paths = []     # each op's config file, and where its field CSV goes
        for i, op in enumerate(self.ops):
            cfg_path = workdir / f"op{i}.json"
            cfg_path.write_text(json.dumps(op.config))
            self.paths.append((cfg_path, workdir / f"op{i}.csv"))

    def __len__(self) -> int:
        return len(self.ops)

    def run(self, i: int, tracer=None, extra: tuple = ()) -> Outcome:
        import verify

        op, (cfg_path, csv_path) = self.ops[i], self.paths[i]
        csv_path.unlink(missing_ok=True)
        args = ["run", "--config", str(cfg_path)] + (["--fields", str(csv_path)] if op.fields else [])
        args += extra
        if self.cli is None:
            wall, rss, rc, stdout, stderr = spawn(
                [sys.executable, "-m", "minksurf.cli", *args], self.workdir, f"op{i}")
        else:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                wall, rc = call(self.cli.main, (args,), tracer, op.name)
            stdout, stderr = out.getvalue(), err.getvalue()
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, points, fault = verify.check_report(op, rc, stdout, stderr, self.schema)
        if op.fields and rc == 0:
            problems += verify.check_fields(op, csv_path)
        output = (rc, stdout, csv_path.read_bytes() if csv_path.exists() else b"")
        return Outcome(op.name, wall, output, problems, op.fault.text if fault else None,
                       points, rss)

    def determinism(self, first: dict) -> list[str]:
        """The same config again, and at --threads 2: byte-identical outputs."""
        name = workloads.DETERMINISM_OP[self.workload]
        i = next(k for k, op in enumerate(self.ops) if op.name == name)
        return [f"{name}: output changed on a repeat {' '.join(extra)}".rstrip()
                for extra in ((), ("--threads", "2")) if self.run(i, extra=extra).output != first[i]]


class CustomBench:
    """custom-norm operations: one point under a gauge-only norm, in this process.

    With a tracer, the traced operations use gauges that count their calls.
    """

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.ops = workloads.custom_ops(workloads.build_custom_pairs())
        self.counted = self.ops if tracer is None else workloads.custom_ops(
            workloads.build_custom_pairs(lambda: tracer.count("custom.gauge_evals")))

    def __len__(self) -> int:
        return len(self.ops)

    def run(self, i: int, tracer=None) -> Outcome:
        import verify

        pair, point = (self.ops if tracer is None else self.counted)[i]
        name = f"{pair.name}@({point[0]:.3f},{point[1]:.3f})"
        wall, result = call(custom_evaluate, (pair, point), tracer, pair.name)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if isinstance(result, Exception):
            return Outcome(name, wall, None, [f"{type(result).__name__}: {result}"], None, 0, rss)
        pg = result[0]
        output = (pg.lambda1, pg.lambda2, tuple(pg.eta), result[3])
        return Outcome(name, wall, output, verify.check_custom(pair, point, result), None, 1, rss)

    def determinism(self, first: dict) -> list[str]:
        """The run's first point again: the same result bit for bit."""
        i = workloads.round_order(len(self.ops), self.seed, 0)[0]
        o = self.run(i)
        return [] if o.output == first[i] else [f"{o.name}: result changed on a repeat"]


def custom_evaluate(pair, point):
    """One custom-norm operation, or the MinksurfError it raised."""
    import numpy as np
    import minksurf as mk

    s, t, phi = point
    try:
        pg = mk.point_geometry(pair.norm, pair.surface, s, t)
        mean = mk.mean_by_indicatrix_average(pg)
        X = np.array([np.cos(phi), np.sin(phi)])
        kn = mk.normal_curvature(pg, X)
        rho, V = mk.affine_distance(pg, np.zeros(3))
    except mk.MinksurfError as exc:
        return exc
    return pg, mean, kn, rho, V, X


# ---------------------------------------------------------------------------
# timed run
# ---------------------------------------------------------------------------

def until_done(seconds: float, t_start: float, rounds: int) -> bool:
    """Stop once another round would end more than half a round past the deadline."""
    elapsed = time.perf_counter() - t_start
    return elapsed + 0.5 * elapsed / rounds >= seconds


def timed(bench, seed: int, seconds: float, setup_s: float) -> Run:
    """Whole rounds of the workload's operations in a closed loop, then the
    determinism re-runs outside the timed region."""
    run = Run()
    outcomes, first = [], {}
    t_start, rounds = time.perf_counter(), 0
    while True:
        for i in workloads.round_order(len(bench), seed, rounds):
            o = bench.run(i)
            run.record(o)
            outcomes.append(o)
            first.setdefault(i, o.output)
        rounds += 1
        if until_done(seconds, t_start, rounds):
            break
    walls = [o.wall for o in outcomes]
    run.metric("run_s_p50", statistics.median(walls), "s")
    run.metric("points_per_s", sum(o.points for o in outcomes) / sum(walls), "1/s")
    run.metric("setup_s", setup_s, "s")
    run.metric("peak_rss_mb", max(o.rss_mb for o in outcomes), "MB")
    run.unexpected += bench.determinism(first)
    return run


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def per_layer_metrics(run: Run, tracer, import_s: float, points: int, overhead: float) -> None:
    calls, incl, self_s = tracer.calls, tracer.inclusive_s, tracer.self_s
    run.metric("cli.import_s", import_s, "s")
    run.metric("cli.validate_config.s", incl("cli.validate_config"), "s")
    run.metric("cli.build_context.s", incl("cli.build_context"), "s")
    for cid in CHECK_IDS:
        run.metric(f"cli.check_s.{cid}", incl(f"cli.check_s.{cid}"), "s")
    run.metric("cli.dumps_canonical.s", incl("cli.dumps_canonical"), "s")
    run.metric("cli.write_fields_csv.s", incl("cli.write_fields_csv"), "s")
    for name in ("cli.brentq", "distances.hess_b_at_critical",
                 "distances.nabla_laplacian_rho_details", "numerics.fd_second_directional",
                 "numerics.guarded_solve", "numerics.sym_generalized_eigen_2x2",
                 "numerics.fd_hessian", "geometry.point_geometry", "surfaces.evaluate_jet",
                 "norms.dual_hessian", "norms.du_restricted", "norms.birkhoff_point",
                 "norms.gauge_value", "norms.gauge_hessian", "blaschke.blaschke_residual",
                 "blaschke.affine_normal"):
        run.metric(f"{name}.calls", calls(name), "count")
    for name in ("distances.nabla_laplacian_rho_details", "geometry.point_geometry",
                 "surfaces.evaluate_jet", "norms.dual_hessian", "blaschke.affine_normal"):
        run.metric(f"{name}.self_s", self_s(name), "s")
    run.metric("geometry.point_geometry.calls_per_point",
               calls("geometry.point_geometry") / max(points, 1), "calls/point")
    run.metric("blaschke.planar_support_check.s", incl("blaschke.planar_support_check"), "s")
    run.metric("custom.gauge_evals", calls("custom.gauge_evals"), "count")
    run.metric("trace.checked_points", points, "count")
    run.metric("trace.overhead_pct", 100.0 * overhead, "%")


def traced(workload: str, seed: int, workdir: Path) -> Run:
    """Each operation once untraced and then once traced, in this process.

    Interleaving keeps warm-up out of the overhead estimate; the two outputs
    of every operation must agree byte for byte. Outputs are checked after
    the tracer is taken out again, so checks add no counts.
    """
    cli, import_s = import_minksurf()
    import tracing

    run = Run()
    tracer = tracing.Tracer()
    bench = (CustomBench(seed, tracer) if workload == "custom-norm"
             else CliBench(workload, seed, workdir, cli))
    untraced_s = traced_s = 0.0
    points = 0
    for i in workloads.round_order(len(bench), seed, 0):
        plain, counted = bench.run(i), bench.run(i, tracer)
        run.record(plain)
        run.record(counted)
        if plain.output != counted.output:
            run.unexpected.append(f"{plain.name}: traced and untraced outputs differ")
        untraced_s += plain.wall
        traced_s += counted.wall
        points += counted.points
    per_layer_metrics(run, tracer, import_s, points, traced_s / untraced_s - 1.0)
    write_trace(workload, seed, tracer, run)
    return run


def write_trace(workload: str, seed: int, tracer, run: Run) -> None:
    OUT.mkdir(exist_ok=True)
    doc = {
        "workload": workload, "seed": seed, "metrics": run.metrics,
        "layers": {name: {"calls": st[0], "inclusive_s": st[1], "self_s": st[1] - st[2],
                          "inclusive_us_per_call": 1e6 * st[1] / st[0]}
                   for name, st in sorted(tracer.stats.items()) if st[0]},
        "spans": [{"id": sid, "parent": parent, "name": name, "start": t0, "end": t1}
                  for sid, parent, name, t0, t1 in tracer.spans],
    }
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(doc, indent=1))


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "minksurf" / "cli.py").is_file():
        print(f"no minksurf sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    # A terminated run still stops its child and removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    compile_sources()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            run = traced(args.workload, args.seed, workdir)
        else:
            setup_s = measure_setup(args.workload, args.seed, workdir)
            if args.workload == "custom-norm":
                import_minksurf()
                bench = CustomBench(args.seed)
            else:
                bench = CliBench(args.workload, args.seed, workdir)
            run = timed(bench, args.seed, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
