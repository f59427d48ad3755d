from __future__ import annotations

import copy
import csv
import ast
import contextlib
import dataclasses
import gc
import inspect
import io
import json
import math
import os
import subprocess
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minksurf.blaschke
import minksurf.cli
import minksurf.distances
import minksurf.errors
import minksurf.geometry
from oracles import schema_validator, validate_report, write_fields_csv_by_csv_writer
from minksurf.cli import (
    REGISTRY,
    _CONFIG_KEYWORDS,
    _aggregate,
    _schema_violation,
    dumps_canonical,
    load_schema,
    run_checks,
    validate_config,
)

BASE_CONFIG = {
    "norm": {"family": "lp", "p": 4.0},
    "surface": {"family": "ellipsoid", "a": 1.0, "b": 1.3, "c": 0.8},
    "grid": {"ns": 8, "nt": 8, "margins": [0.3, 0.1]},
    "checks": ["prop-2-1", "prop-2-2", "prop-2-3"],
    "seed": 1234,
}


def spawn_cli(args, env_extra=None):
    """`python -m minksurf.cli args` in a process of its own, with env_extra
    added to its environment."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "minksurf.cli", *args],
        capture_output=True, text=True, env=env,
    )


def run_cli(args, env_extra=None):
    """minksurf.cli.main(args) in this process, returned as spawn_cli returns
    the spawned run: its stdout, stderr and exit code (argparse's SystemExit
    gives the code), with env_extra set in os.environ for the call only."""
    env_extra = env_extra or {}
    saved = {key: os.environ.get(key) for key in env_extra}
    os.environ.update(env_extra)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = minksurf.cli.main(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_reports_and_passes(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = run_cli(["run", "--config", cfg])
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    validate_report(report)
    assert [c["id"] for c in report["checks"]] == BASE_CONFIG["checks"]
    for c in report["checks"]:
        assert c["pass"], c
        assert c["max_residual"] <= c["tolerance"]
        assert c["n_points"] > 0
    assert report["environment"]["seed"] == 1234
    assert "[PASS] prop-2-1" in out.stderr


def test_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out1 = run_cli(["run", "--config", cfg])
    out2 = run_cli(["run", "--config", cfg])
    assert out1.returncode == out2.returncode == 0
    assert out1.stdout == out2.stdout


def test_thread_count_does_not_change_output(tmp_path):
    cfg = write_config(tmp_path, {**BASE_CONFIG,
                                  "checks": ["prop-2-1", "prop-2-3", "thm-3-2"]})
    serial = run_cli(["run", "--config", cfg, "--threads", "1"])
    parallel = run_cli(["run", "--config", cfg, "--threads", "4"])
    via_env = run_cli(["run", "--config", cfg], env_extra={"MSK_THREADS": "3"})
    assert serial.returncode == parallel.returncode == via_env.returncode == 0
    assert serial.stdout == parallel.stdout == via_env.stdout


def test_strict_mode_propagates_failure(tmp_path):
    cfg = write_config(tmp_path, {
        **BASE_CONFIG,
        "checks": ["prop-2-1"],
        "tolerances": {"prop-2-1": 1e-30},  # below roundoff: must fail
    })
    relaxed = run_cli(["run", "--config", cfg])
    assert relaxed.returncode == 0  # failures are data unless --strict
    report = json.loads(relaxed.stdout)
    assert not report["checks"][0]["pass"]
    strict = run_cli(["run", "--config", cfg, "--strict"])
    assert strict.returncode == 1
    assert "[FAIL] prop-2-1" in strict.stderr


def test_bad_inputs_exit_two(tmp_path):
    missing = run_cli(["run", "--config", str(tmp_path / "nope.json")])
    assert missing.returncode == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{seed: ")
    assert run_cli(["run", "--config", str(not_json)]).returncode == 2

    bad_check = write_config(tmp_path, {**BASE_CONFIG, "checks": ["prop-9-9"]},
                             "bad_check.json")
    assert run_cli(["run", "--config", bad_check]).returncode == 2

    bad_norm = write_config(tmp_path, {**BASE_CONFIG,
                                       "norm": {"family": "lp", "p": 0.5}},
                            "bad_norm.json")
    assert run_cli(["run", "--config", bad_norm]).returncode == 2

    bad_threads = write_config(tmp_path, BASE_CONFIG, "threads.json")
    out = run_cli(["run", "--config", bad_threads],
                  env_extra={"MSK_THREADS": "many"})
    assert out.returncode == 2


@pytest.mark.parametrize("edit, constant", [
    (lambda cfg: cfg.update(numerics={"fd_step": math.nan}), "NaN"),
    (lambda cfg: cfg.update(grid={"ns": 8, "nt": 8, "margins": [math.nan, 0.1]}), "NaN"),
    (lambda cfg: cfg.update(numerics={"umbilic_tol": math.nan}), "NaN"),
    (lambda cfg: cfg.update(numerics={"cond_guard": math.inf}), "Infinity"),
    (lambda cfg: cfg.update(center=[-math.inf, 0.0, 0.0]), "-Infinity"),
], ids=["fd-step-nan", "margin-nan", "umbilic-tol-nan", "cond-guard-infinity", "center-minus-infinity"])
def test_a_non_finite_config_number_exits_two(tmp_path, edit, constant):
    # Python's json reads NaN and Infinity, which RFC 8259 does not allow;
    # before they were rejected, these configs exited 3 or ran and exited 0
    cfg = copy.deepcopy(BASE_CONFIG)
    edit(cfg)
    out = run_cli(["run", "--config", write_config(tmp_path, cfg)])
    assert out.returncode == 2, out.stderr
    assert f"config holds {constant}," in out.stderr


def test_run_checks_rejects_a_nan_numerics_constant():
    with pytest.raises(minksurf.InvalidParameter):
        minksurf.NumericsConfig(umbilic_tol=math.nan)
    with pytest.raises(minksurf.ConfigError, match="must be positive"):
        run_checks({**BASE_CONFIG, "numerics": {"umbilic_tol": math.nan}})


@pytest.mark.parametrize("edit", [
    lambda cfg: cfg.update(grid={"ns": 8, "nt": 8, "margins": [math.nan, 0.1]}),
    lambda cfg: cfg.update(surface={"family": "ellipsoid", "a": math.nan, "b": 1.3, "c": 0.8}),
    lambda cfg: cfg.update(tolerances={"prop-2-1": math.nan}),
    lambda cfg: cfg.update(center=[math.nan, 0.0, 0.0], checks=["prop-3-2"]),
], ids=["margin", "ellipsoid-a", "tolerance", "center"])
def test_run_checks_rejects_a_nan_anywhere_in_a_python_config(edit):
    # no JSON parser reads a config built in Python; before this was checked,
    # these raised NumericalFailure, or ran and reported a fail or a NaN residual
    cfg = copy.deepcopy(BASE_CONFIG)
    edit(cfg)
    with pytest.raises(minksurf.ConfigError, match="^config holds NaN, which is not a JSON number$"):
        run_checks(cfg)


def test_semantically_invalid_check_exits_two(tmp_path):
    # closed-form curvature check is only defined for the sphere families
    cfg = write_config(tmp_path, {
        **BASE_CONFIG,
        "surface": {"family": "saddle"},
        "checks": ["curvature-closed-form"],
    })
    assert run_cli(["run", "--config", cfg]).returncode == 2
    # planar check with no planar block
    cfg2 = write_config(tmp_path, {**BASE_CONFIG, "checks": ["planar-ermakov"]},
                        "planar.json")
    assert run_cli(["run", "--config", cfg2]).returncode == 2


@pytest.mark.parametrize("cfg, message", [
    ({**BASE_CONFIG, "surface": {"family": "ellipsoid", "a": 1.0, "b": 1.3, "c": 0.8},
      "grid": {"ns": 8, "nt": 8, "margins": [4.0, 0.1]}, "checks": ["umbilicity"]},
     "grid margin 4.0 on s is wider than the chart's [0.0, 3.14"),
    ({**BASE_CONFIG, "surface": {"family": "saddle", "domain": [1, -1, -1, 1]}},
     "graph domain [1, -1, -1, 1] needs s0 < s1 and t0 < t1"),
], ids=["margin-wider-than-axis", "saddle-domain-reversed"])
def test_a_grid_that_leaves_its_chart_exits_two(tmp_path, cfg, message):
    # before, both exited 3 as a numerical failure: parameter s outside the chart
    out = run_cli(["run", "--config", write_config(tmp_path, cfg)])
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith(f"config error: {message}"), out.stderr


@pytest.mark.parametrize("family, key", [
    ("euclidean_sphere", "r"), ("ellipsoid", "a"), ("ellipsoid", "b"), ("ellipsoid", "c"),
    ("torus", "R"), ("torus", "r"), ("minkowski_sphere", "rho"),
])
def test_a_surface_without_a_required_field_exits_two(tmp_path, capsys, family, key):
    # the schema accepts these specs, so only surface_from_spec can refuse them
    spec = {"family": family, **{"euclidean_sphere": {"r": 1.5}, "ellipsoid": {"a": 1.0, "b": 1.3, "c": 0.8},
                                 "torus": {"R": 2.0, "r": 1.2}, "minkowski_sphere": {"rho": 1.5}}[family]}
    del spec[key]
    cfg = {"norm": {"family": "euclidean"}, "surface": spec,
           "grid": {"ns": 4, "nt": 4}, "checks": ["prop-2-1"], "seed": 1}
    validate_config(cfg)
    assert minksurf.cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {family} surface spec needs field {key!r}\n"


A_DIAG = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("block, spec, stray", [
    ("norm", {"family": "euclidean", "p": 4.0, "A": A_DIAG, "axis_guard": 0.5}, "'p', 'A', 'axis_guard'"),
    ("norm", {"family": "ellipsoid", "A": A_DIAG, "p": 4.0}, "'p'"),
    ("norm", {"family": "lp", "p": 4.0, "A": A_DIAG}, "'A'"),
    ("surface", {"family": "torus", "R": 2.0, "r": 1.2, "rho": 1.5, "center": [0.0, 0.0, 1.0], "scale": 2.0,
                 "domain": [0.0, 1.0, 0.0, 1.0]}, "'rho', 'center', 'scale', 'domain'"),
    ("surface", {"family": "ellipsoid", "a": 1.0, "b": 1.3, "c": 0.8, "center": [5, 5, 5]}, "'center'"),
    ("surface", {"family": "saddle", "r": 1.0}, "'r'"),
    ("surface", {"family": "minkowski_sphere", "rho": 1.5, "R": 2.0}, "'R'"),
], ids=["euclidean-p-A-axis_guard", "ellipsoid-p", "lp-A", "torus-rho-center-scale-domain", "ellipsoid-center",
        "saddle-r", "minkowski_sphere-R"])
def test_a_norm_or_surface_key_its_family_does_not_read_exits_two(tmp_path, capsys, block, spec, stray):
    # the schema accepts these specs; before, each ran as its block without the stray keys
    cfg = {"norm": {"family": "euclidean"}, "surface": {"family": "euclidean_sphere", "r": 1.0},
           "grid": {"ns": 4, "nt": 3}, "checks": ["prop-3-2"], "seed": 1, block: spec}
    validate_config(cfg)
    assert minksurf.cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    message = f"the {spec['family']} {block} reads no {stray}"
    assert capsys.readouterr().err == f"config error: {message}\n"
    build = minksurf.norm_from_spec if block == "norm" else minksurf.surface_from_spec
    with pytest.raises(minksurf.InvalidParameter) as exc:
        build(spec)
    assert str(exc.value) == message


def test_fields_and_a_json_output_path_naming_one_file_exit_two(tmp_path):
    # before, the report was written over the field table and the run exited 0
    report = tmp_path / "same.out"
    cfg = write_config(tmp_path, {**BASE_CONFIG, "output": {"format": "json", "path": str(report)}})
    out = run_cli(["run", "--config", cfg, "--fields", f"{tmp_path}/./same.out"])
    assert out.returncode == 2
    assert out.stderr == f"config error: --fields and output.path name the same file {str(report)!r}\n"
    assert not report.exists()


def test_a_margin_no_wider_than_its_axis_still_runs():
    # catenoid s in [-0.2, 0.2]: a margin of 0.3 reverses the grid's s axis
    # but keeps every point in the chart
    cfg = {**EUCLIDEAN_CATENOID, "surface": {"family": "catenoid", "s_extent": 0.2},
           "grid": {"ns": 4, "nt": 4, "margins": [0.3, 0.0]}, "checks": ["minimality-scan", "prop-2-1"]}
    assert all(c["pass"] for c in run_checks(cfg)["checks"])


def test_numerical_breakdown_exits_three(tmp_path):
    # a grid with zero margin touches the ellipsoid chart poles, where the
    # immersion degenerates
    cfg = write_config(tmp_path, {
        **BASE_CONFIG,
        "grid": {"ns": 5, "nt": 5, "margins": [0.0, 0.0]},
        "checks": ["blaschke-scan"],
    })
    out = run_cli(["run", "--config", cfg])
    assert out.returncode == 3
    assert "(s, t)" in out.stderr or "s=" in out.stderr or "0" in out.stderr


def test_list_checks_covers_registry():
    out = run_cli(["list-checks"])
    assert out.returncode == 0
    for check_id in REGISTRY:
        assert check_id in out.stdout
    assert len(REGISTRY) == 15


def test_the_config_schema_names_the_registered_checks():
    # _report looks each check up in REGISTRY unguarded: the schema rejects any other id first
    assert load_schema("config")["properties"]["checks"]["items"]["enum"] == list(REGISTRY)


def test_schema_subcommand_emits_valid_json():
    for which in ("config", "report"):
        out = run_cli(["schema", which])
        assert out.returncode == 0
        parsed = json.loads(out.stdout)
        assert parsed == load_schema(which)
    # default is the config schema
    assert json.loads(run_cli(["schema"]).stdout) == load_schema("config")


def test_fields_csv(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    fields = tmp_path / "fields.csv"
    out = run_cli(["run", "--config", cfg, "--fields", str(fields)])
    assert out.returncode == 0
    raw = fields.read_bytes()
    assert b"\r\n" in raw  # RFC 4180 line endings
    with open(fields, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header == ["s", "t", "x", "y", "z", "lambda1", "lambda2",
                      "K", "H", "pairing", "blaschke_ratio"]
    assert len(data) == 8 * 8
    for row in data:
        assert len(row) == len(header)
        float(row[0]); float(row[7])  # parse spot checks
    # two identical runs produce identical bytes
    fields2 = tmp_path / "fields2.csv"
    run_cli(["run", "--config", cfg, "--fields", str(fields2)])
    assert fields2.read_bytes() == raw


def test_grid_checks_and_fields_compute_each_point_once(tmp_path, monkeypatch, capsys):
    # The grid is one batched evaluation of its ns*nt distinct points; no check
    # and not the field table evaluates a grid point on its own.
    original = minksurf.geometry.geometry_batch
    batches, singles = [], []

    def counting_batch(norm, surface, s, t, *args, **kwargs):
        batches.append(list(zip(np.asarray(s).tolist(), np.asarray(t).tolist())))
        return original(norm, surface, s, t, *args, **kwargs)

    def counting_single(*args, **kwargs):
        singles.append(args[2:4])
        raise AssertionError("a grid check evaluated a single point")

    for module in (minksurf.geometry, minksurf.cli, minksurf.distances, minksurf.blaschke):
        monkeypatch.setattr(module, "geometry_batch", counting_batch)
    for module in (minksurf.geometry, minksurf.cli):
        # the CLI need not import point_geometry; a use of it is caught all the same
        monkeypatch.setattr(module, "point_geometry", counting_single, raising=False)
    cfg = write_config(tmp_path, {
        **BASE_CONFIG,
        "checks": ["umbilicity", "prop-3-2", "blaschke-scan", "affine-normal-compare"],
    })
    fields = tmp_path / "fields.csv"
    assert minksurf.cli.main(["run", "--config", cfg, "--fields", str(fields)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["n_points"] for c in report["checks"]] == [64] * 4
    assert len(batches) == 1
    assert len(batches[0]) == len(set(batches[0])) == 8 * 8
    assert singles == []
    with open(fields, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 8 * 8


@pytest.mark.process
def test_cli_import_leaves_scipy_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import minksurf.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


@pytest.mark.process
def test_valid_run_leaves_jsonschema_unloaded(tmp_path):
    # The CLI's own check accepts a valid config and words the error of a
    # rejected one; neither run loads jsonschema.
    code = ("import sys, minksurf.cli\n"
            "assert minksurf.cli.main(['run', '--config', sys.argv[1]]) == int(sys.argv[2])\n"
            "loaded = {'jsonschema', 'referencing'} & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    cfg = write_config(tmp_path, {**BASE_CONFIG, "checks": ["prop-2-3"]})
    out = subprocess.run([sys.executable, "-c", code, cfg, "0"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr

    bad = write_config(tmp_path, {**BASE_CONFIG, "norm": {"family": "lp", "p": "four"}}, "bad.json")
    out = subprocess.run([sys.executable, "-c", code, bad, "2"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr == "config error: config does not match schema: 'four' is not of type 'number'\n"


@pytest.mark.process
def test_random_point_checks_leave_numpy_random_unloaded(tmp_path):
    # the checks draw their points from numerics.UniformStream
    checks = ["prop-2-1", "prop-2-2", "prop-2-3", "lemma-3-1", "thm-3-1", "prop-3-1", "thm-3-2"]
    cfg = write_config(tmp_path, {**BASE_CONFIG, "checks": checks})
    code = ("import sys, minksurf.cli\n"
            "assert minksurf.cli.main(['run', '--config', sys.argv[1]]) == 0\n"
            "assert 'numpy.random' not in sys.modules\n")
    out = subprocess.run([sys.executable, "-c", code, cfg], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert all(f"] {c}: " in out.stderr for c in checks), out.stderr


def test_output_path_and_csv_format(tmp_path):
    report_path = tmp_path / "report.json"
    cfg = write_config(tmp_path, {
        **BASE_CONFIG,
        "output": {"format": "json", "path": str(report_path)},
    })
    out = run_cli(["run", "--config", cfg])
    assert out.returncode == 0
    report = json.loads(report_path.read_text())
    validate_report(report)

    csv_path = tmp_path / "per_point.csv"
    cfg2 = write_config(tmp_path, {
        **BASE_CONFIG,
        "output": {"format": "csv", "path": str(csv_path)},
    }, "csvcfg.json")
    out2 = run_cli(["run", "--config", cfg2])
    assert out2.returncode == 0
    assert csv_path.exists()
    with open(csv_path, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 8 * 8


def test_a_csv_output_needs_a_path(tmp_path):
    # before, this run wrote no field table and exited 0
    cfg = {"norm": {"family": "euclidean"}, "surface": {"family": "euclidean_sphere", "r": 1.0},
           "grid": {"ns": 4, "nt": 4}, "checks": ["curvature-closed-form"], "seed": 1,
           "output": {"format": "csv"}}
    out = run_cli(["run", "--config", write_config(tmp_path, cfg)])
    assert out.returncode == 2
    assert out.stderr == "config error: output.format 'csv' needs output.path or --fields\n"
    assert out.stdout == ""
    # --fields names the table; it also takes precedence over a CSV output.path
    fields, ignored = tmp_path / "fields.csv", tmp_path / "ignored.csv"
    for output in ({"format": "csv"}, {"format": "csv", "path": str(ignored)}):
        out = run_cli(["run", "--config", write_config(tmp_path, {**cfg, "output": output}),
                       "--fields", str(fields)])
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["checks"][0]["pass"]
        with open(fields, newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 4 * 4
        fields.unlink()
    assert not ignored.exists()


@pytest.mark.parametrize("where", ["fields", "output-path"])
def test_an_unwritable_output_exits_two(tmp_path, where):
    # exit 1 is --strict's code for a failing check; before this was caught,
    # an OSError ended the run in a traceback with exit 1
    target = tmp_path / "missing" / "out"
    cfg = dict(BASE_CONFIG, checks=["prop-2-3"])
    args = []
    if where == "fields":
        args = ["--fields", str(target)]
    else:
        cfg["output"] = {"format": "json", "path": str(target)}
    out = run_cli(["run", "--config", write_config(tmp_path, cfg), *args])
    assert out.returncode == 2, out.stderr
    assert out.stderr == f"error: cannot write {target}: No such file or directory\n"
    assert out.stdout == ""


def test_a_config_that_is_not_utf8_exits_two(tmp_path):
    # RFC 8259 JSON is UTF-8; before the config was opened as UTF-8, these
    # bytes raised UnicodeDecodeError, a traceback with exit 1
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
    out = run_cli(["run", "--config", str(path)])
    assert out.returncode == 2
    assert out.stderr.startswith("error: config is not valid JSON: 'utf-8' codec can't decode byte 0xff")


def _special_values_context():
    """A 2x2 lp(4) ellipsoid run whose geometry holds nan, inf, -inf and -0.0;
    its blaschke_ratio is nan at the first point (h is nan) and empty at the
    second (h is 0)."""
    ctx = minksurf.cli.build_context({**BASE_CONFIG, "grid": {"ns": 2, "nt": 2, "margins": [0.3, 0.1]}})
    g = ctx.geometries()
    special = np.array([np.nan, np.inf, -np.inf, -0.0])
    h = g.h_mat.copy()
    h[0, 0, 0], h[1] = np.nan, 0.0
    gb = dataclasses.replace(g, s=special, lambda1=special[::-1].copy(), h_mat=h)
    return dataclasses.replace(ctx, _geoms=gb)


@pytest.mark.parametrize("context, empty_ratios, cells", [
    # the torus grid holds the parabolic circles s = pi/2, 3pi/2, where h is degenerate
    (lambda: minksurf.cli.build_context({**EUCLIDEAN_TORUS, "grid": {"ns": 8, "nt": 8, "margins": [0.0, 0.1]},
                                         "checks": ["blaschke-scan"]}), 16, set()),
    (lambda: minksurf.cli.build_context(BASE_CONFIG), 0, set()),
    (_special_values_context, 1, {"nan", "inf", "-inf", "-0"}),
], ids=["euclidean-torus", "lp4-ellipsoid", "nan-inf-minus-zero"])
def test_field_table_bytes_equal_the_csv_writer_oracle(tmp_path, context, empty_ratios, cells):
    ctx = context()
    fast, oracle = tmp_path / "fast.csv", tmp_path / "oracle.csv"
    with np.errstate(invalid="ignore"):   # det of a nan h
        minksurf.cli.write_fields_csv(str(fast), ctx)
        write_fields_csv_by_csv_writer(str(oracle), ctx)
    raw = fast.read_bytes()
    assert raw == oracle.read_bytes()
    rows = raw.decode().split("\r\n")
    assert rows[-1] == "" and len(rows) == 2 + len(ctx.geometries())
    assert [row.rsplit(",", 1)[1] for row in rows[1:-1]].count("") == empty_ratios
    assert cells <= set(",".join(rows[1:]).split(","))


def test_main_in_process_leaves_the_collector_alone(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BASE_CONFIG, "checks": ["prop-2-3"]})
    frozen = gc.get_freeze_count()
    assert minksurf.cli.main(["run", "--config", cfg]) == 0
    assert minksurf.cli.main(["list-checks"]) == 0
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def _script_target() -> str:
    """The `minksurf` entry of pyproject.toml's [project.scripts] table."""
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    return re.search(r'^\[project\.scripts\]\nminksurf = "([^"]+)"$', pyproject, re.M).group(1)


def test_the_console_script_is_the_entry_the_main_block_calls():
    module, name = _script_target().split(":")
    assert module == "minksurf.cli"
    tree = ast.parse(Path(minksurf.cli.__file__).read_text())
    main_blocks = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for block in main_blocks for stmt in block.body] == [f"{name}()"]


@pytest.mark.process
def test_the_console_script_runs_as_python_m(tmp_path):
    module, name = _script_target().split(":")
    # what an installed console script runs: sys.exit(<target>())
    program = f"import sys; from {module} import {name}; sys.exit({name}())"
    cfg = write_config(tmp_path, {**BASE_CONFIG, "checks": ["prop-2-1"],
                                  "tolerances": {"prop-2-1": 1e-30}})
    for args in (["run", "--config", cfg, "--strict"], ["run", "--config", str(tmp_path / "no.json")],
                 ["list-checks"], ["run"]):
        via_script = subprocess.run([sys.executable, "-c", program, *args], capture_output=True, text=True)
        via_module = spawn_cli(args)
        assert (via_script.returncode, via_script.stdout, via_script.stderr) == \
            (via_module.returncode, via_module.stdout, via_module.stderr)
        assert via_script.returncode == {"run": 1 if "--strict" in args else 2,
                                         "list-checks": 0}[args[0]]


@pytest.mark.process
def test_the_process_entry_freezes_the_heap_and_still_runs_atexit():
    program = ("import atexit, gc\n"
               "from minksurf.cli import process_main\n"
               "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, gc.isenabled()))\n"
               "process_main()\n")
    out = subprocess.run([sys.executable, "-c", program, "list-checks"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("curvature-closed-form ")
    assert out.stdout.endswith("\nfrozen True True\n")


def test_tolerance_override_recorded(tmp_path):
    cfg = write_config(tmp_path, {
        **BASE_CONFIG,
        "checks": ["prop-2-1"],
        "tolerances": {"prop-2-1": 5e-4},
    })
    out = run_cli(["run", "--config", cfg])
    report = json.loads(out.stdout)
    assert report["checks"][0]["tolerance"] == 5e-4


def test_run_checks_api(tmp_path):
    validate_config(BASE_CONFIG)
    report = run_checks(BASE_CONFIG, threads=2)
    validate_report(report)
    ids = [c["id"] for c in report["checks"]]
    assert ids == BASE_CONFIG["checks"]
    assert all(c["pass"] for c in report["checks"])


ELLIPSOID_SURFACE = {"family": "ellipsoid", "a": 1.0, "b": 1.3, "c": 0.8}
PLANAR_RUN = {"checks": ["planar-ermakov"]}

# Per schema key of numerics, norm, surface and planar: the rest of its block
# (a function of the value, where the two values read different keys), two of
# its values, and the top-level config entries that reach it; the rest of the
# config is KNOB_CONFIG. The support CSVs are written by the test.
KNOB_CASES = {
    ("numerics", "fd_step"): ({}, 1e-5, 1e-3, {"checks": ["lemma-3-1"]}),
    ("numerics", "quad_nodes"): ({}, 16, 32, {"checks": ["prop-2-1"]}),
    ("numerics", "critical_tol"): ({}, 1e-6, 1e-3, {"checks": ["lemma-3-1"]}),
    ("numerics", "cond_guard"): ({}, 1e8, 2.0, {"checks": ["thm-3-2"]}),
    # umbilicity's detail counts the points whose umbilic flag is set: 0 at 1e-7, 10 of 12 at 0.5
    ("numerics", "umbilic_tol"): ({}, 1e-7, 0.5, {"checks": ["umbilicity"]}),
    ("norm", "family"): (lambda family: {"p": 4.0} if family == "lp" else {}, "lp", "euclidean", {}),
    ("norm", "A"): ({"family": "ellipsoid"}, np.eye(3).tolist(), np.diag([2.0, 1.0, 1.0]).tolist(), {}),
    ("norm", "p"): ({"family": "lp"}, 4.0, 3.0, {}),
    # t = 0 puts a column of the grid on an lp axis plane, where the clamp acts
    ("norm", "axis_guard"): ({"family": "lp", "p": 4.0}, 1e-8, 1e-2,
                             {"grid": {"ns": 4, "nt": 3, "margins": [0.3, 0.0]}}),
    ("norm", "jet_source"): ({"family": "lp", "p": 4.0}, "analytic", "fd", {}),
    ("norm", "fd_step"): ({"family": "lp", "p": 4.0, "jet_source": "fd"}, 1e-5, 1e-3, {}),
    ("surface", "family"): (lambda family: ELLIPSOID_SURFACE if family == "ellipsoid" else {"r": 1.0},
                            "ellipsoid", "euclidean_sphere", {}),
    ("surface", "r"): ({"family": "euclidean_sphere"}, 1.0, 2.0, {}),
    ("surface", "a"): (ELLIPSOID_SURFACE, 1.0, 1.1, {}),
    ("surface", "b"): (ELLIPSOID_SURFACE, 1.3, 1.1, {}),
    ("surface", "c"): (ELLIPSOID_SURFACE, 0.8, 0.9, {}),
    ("surface", "R"): ({"family": "torus", "r": 0.7}, 2.0, 3.0, {}),
    ("surface", "rho"): ({"family": "minkowski_sphere"}, 1.0, 2.0, {}),
    ("surface", "scale"): ({"family": "saddle"}, 1.0, 0.5, {}),
    ("surface", "s_extent"): ({"family": "catenoid"}, 1.2, 0.8, {}),
    ("surface", "center"): ({"family": "euclidean_sphere", "r": 1.0}, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                            {"checks": ["thm-3-2"]}),
    ("surface", "domain"): ({"family": "saddle"}, [-1.0, 1.0, -1.0, 1.0], [-0.5, 0.5, -0.5, 0.5], {}),
    ("surface", "jet_source"): (ELLIPSOID_SURFACE, "analytic", "fd", {}),
    ("surface", "fd_step"): ({**ELLIPSOID_SURFACE, "jet_source": "fd"}, 1e-5, 1e-3, {}),
    ("planar", "support"): ({}, "ellipse", "circle", PLANAR_RUN),
    ("planar", "radius"): ({"support": "circle"}, 1.0, 2.0, PLANAR_RUN),
    ("planar", "a"): ({"support": "ellipse"}, 1.0, 2.0, PLANAR_RUN),
    ("planar", "b"): ({"support": "ellipse"}, 1.5, 0.5, PLANAR_RUN),
    ("planar", "n"): ({"support": "ellipse"}, 64, 128, PLANAR_RUN),
    ("planar", "csv"): ({}, "circle.csv", "ellipse.csv", PLANAR_RUN),
}
KNOB_CONFIG = {"norm": {"family": "lp", "p": 4.0}, "surface": ELLIPSOID_SURFACE,
               "grid": {"ns": 4, "nt": 3, "margins": [0.3, 0.1]}, "checks": ["umbilicity"], "seed": 1}
# The keys that act on nothing a CLI run computes, each with its reason; each
# is shown to change no output, so a key that starts to act leaves the list.
INERT_KNOBS = {
    ("numerics", "richardson"): ("accepted, read by nothing yet (ROADMAP 1(b))",
                                 False, True, {"checks": ["lemma-3-1", "thm-3-2"]}),
    ("numerics", "newton_max_iter"): ("only a gauge-only library norm reaches the Newton solve, "
                                      "and the CLI cannot build one", 50, 1, {}),
    ("numerics", "newton_tol"): ("only a gauge-only library norm reaches the Newton solve, "
                                 "and the CLI cannot build one", 1e-12, 1e-2, {}),
}


def test_each_knob_the_schema_accepts_changes_an_output(tmp_path, monkeypatch):
    """A change of value of each key of the schema's numerics, norm, surface
    and planar blocks changes the checks of a run_checks config that reaches
    it (their entries, or the NumericalFailure they raise), unless the key
    is on INERT_KNOBS, which changes none."""
    properties = load_schema("config")["properties"]
    schema_keys = {(block, key) for block in ("numerics", "norm", "surface", "planar")
                   for key in properties[block]["properties"]}
    assert schema_keys == set(KNOB_CASES) | set(INERT_KNOBS)
    monkeypatch.chdir(tmp_path)
    thetas = 2.0 * np.pi * np.arange(64) / 64
    for name, (a, b) in {"circle.csv": (1.0, 1.0), "ellipse.csv": (1.0, 1.5)}.items():
        g = minksurf.blaschke.ellipse_support(a, b)(thetas)
        Path(name).write_text("".join(f"{th!r},{v!r}\n" for th, v in zip(thetas.tolist(), g.tolist())))

    def outcome(block, key, spec, value, top):
        spec = spec(value) if callable(spec) else spec
        cfg = {**copy.deepcopy(KNOB_CONFIG), **top, block: {**spec, key: value}}
        try:
            return dumps_canonical(run_checks(cfg)["checks"])
        except minksurf.errors.NumericalFailure as exc:
            return f"exit 3: {exc}"

    for (block, key), (spec, before, after, top) in KNOB_CASES.items():
        reference = outcome(block, key, spec, before, top)
        assert not reference.startswith("exit 3: ") and reference != outcome(block, key, spec, after, top), key
    for (block, key), (_reason, before, after, top) in INERT_KNOBS.items():
        assert outcome(block, key, {}, before, top) == outcome(block, key, {}, after, top), (block, key)
    assert outcome("numerics", "cond_guard", {}, 2.0, {"checks": ["thm-3-2"]}).startswith("exit 3: ")


def test_validate_config_rejects_unknown_keys():
    from minksurf.errors import ConfigError
    with pytest.raises(ConfigError):
        validate_config({**BASE_CONFIG, "extra": 1})
    with pytest.raises(ConfigError):
        validate_config({k: v for k, v in BASE_CONFIG.items() if k != "seed"})


def test_shipped_schemas_match_their_metaschema():
    # validate_config walks the config schema and does not check it
    import jsonschema
    for which in ("config", "report"):
        schema = load_schema(which)
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_config_errors_name_the_best_matching_schema_error():
    import jsonschema
    from minksurf.errors import ConfigError
    bad_configs = [
        {**BASE_CONFIG, "extra": 1},
        {k: v for k, v in BASE_CONFIG.items() if k != "seed"},
        {**BASE_CONFIG, "grid": {"ns": 0, "nt": 8}},
        {**BASE_CONFIG, "norm": {"family": "lp", "p": "four"}},
    ]
    for cfg in bad_configs:
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(cfg, load_schema("config"))
        with pytest.raises(ConfigError) as got:
            validate_config(cfg)
        assert str(got.value) == f"config does not match schema: {expected.value.message}"


# A valid config that sets every property of the config schema.
FULL_CONFIG = {
    "norm": {"family": "ellipsoid", "A": [[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]],
             "p": 4, "axis_guard": 1e-3, "jet_source": "fd", "fd_step": 1e-5},
    "surface": {"family": "torus", "r": 1.2, "a": 1.0, "b": 1.3, "c": 0.8, "R": 2.0,
                "rho": 1.5, "scale": -1.0, "s_extent": 1.2, "center": [0, 0.5, 1.0],
                "domain": [0.0, 6.0, 0.0, 6.0], "jet_source": "analytic", "fd_step": 1e-5},
    "grid": {"ns": 8, "nt": 8.0, "margins": [0.3, 0]},
    "checks": ["thm-3-1", "cor-2-1"],
    "numerics": {"fd_step": 1e-5, "richardson": False, "newton_max_iter": 50,
                 "newton_tol": 1e-12, "quad_nodes": 64, "umbilic_tol": 1e-6,
                 "critical_tol": 1e-6, "cond_guard": 1e10},
    "output": {"format": "csv", "path": "out.csv"},
    "seed": 0,
    "center": [1, 2, 3],
    "planar": {"support": "ellipse", "radius": 1.0, "a": 2.0, "b": 0.5, "n": 256, "csv": "g.csv"},
    "tolerances": {"thm-3-1": 1e-3, "anything": 2},
}


def _subschemas(schema):
    """schema and every schema nested in it by properties, items and additionalProperties."""
    yield schema
    for sub in [*schema.get("properties", {}).values(), schema.get("items"),
                schema.get("additionalProperties")]:
        if isinstance(sub, dict):
            yield from _subschemas(sub)


# The property names and enum strings of the config schema, the likeliest
# keys and values of a config.
_NAMES = sorted({name for sub in _subschemas(load_schema("config"))
                 for name in [*sub.get("properties", {}), *sub.get("enum", [])]}) + ["extra"]
_SCALARS = st.one_of(
    st.booleans(), st.none(), st.integers(-2, 70), st.integers(-2, 70).map(float),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1e-300]),
    st.sampled_from(_NAMES), st.text(max_size=3))
_VALUES = st.one_of(
    _SCALARS, st.lists(_SCALARS, max_size=5),
    st.lists(st.lists(st.floats(-3, 3), min_size=3, max_size=3), min_size=2, max_size=4),
    st.dictionaries(st.sampled_from(_NAMES), _SCALARS, max_size=3))


def _containers(node, path=()):
    """The path of every dict and list in a config, the config itself first."""
    if isinstance(node, (dict, list)):
        yield path
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _containers(value, path + (key,))


@st.composite
def mutated_configs(draw):
    """A valid config with one or two values replaced, deleted or added."""
    cfg = copy.deepcopy(draw(st.sampled_from([BASE_CONFIG, FULL_CONFIG])))
    for _ in range(draw(st.integers(1, 2))):
        node = cfg
        for key in draw(st.sampled_from(list(_containers(cfg)))):
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["set", "delete", "add"] if keys else ["add"]))
        if op != "add":
            key = draw(st.sampled_from(keys))
        elif isinstance(node, dict):
            key = draw(st.sampled_from(_NAMES))
        else:
            key = len(node)
            node.append(None)
        if op == "delete":
            del node[key]
        else:
            node[key] = draw(_VALUES)
    return cfg


def assert_agrees_with_jsonschema(cfg):
    """The CLI's check accepts cfg exactly when jsonschema does, and where
    jsonschema finds one error, words it as jsonschema does."""
    errors = list(schema_validator("config").iter_errors(cfg))
    message = _schema_violation(cfg, load_schema("config"))
    assert (message is None) == (not errors), (cfg, message, errors)
    if len(errors) == 1:
        assert message == errors[0].message, cfg


@settings(max_examples=400, deadline=None)
@given(mutated_configs())
def test_fast_config_check_agrees_with_jsonschema(cfg):
    assert_agrees_with_jsonschema(cfg)


def test_fast_config_check_follows_draft_2020_12():
    schema = load_schema("config")
    assert schema["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    edge_cases = [
        {**BASE_CONFIG, "seed": True},                      # bool is no integer
        {**BASE_CONFIG, "seed": 3.0},                       # an integral float is one
        {**BASE_CONFIG, "seed": 3.5},
        {**BASE_CONFIG, "norm": {"family": "lp", "p": 1}},  # p <= exclusiveMinimum
        {**BASE_CONFIG, "norm": {"family": "lp", "p": math.nan}},  # NaN passes the bound
        {**BASE_CONFIG, "norm": {"family": "lp", "p": math.inf}},
        {**BASE_CONFIG, "norm": {"family": "lp", "p": False}},
        {**BASE_CONFIG, "grid": {"ns": 2, "nt": 8, "margins": [0.3, 0]}},
        {**BASE_CONFIG, "grid": {"ns": 8, "nt": 8, "margins": [0.3, -1e-300]}},
        {**BASE_CONFIG, "grid": {"ns": 8, "nt": 8, "margins": (0.3, 0.1)}},  # a tuple is no array
        {**BASE_CONFIG, "checks": []},
        {**BASE_CONFIG, "tolerances": {"prop-2-1": 0}},
        {**BASE_CONFIG, "tolerances": {"prop-2-1": "1e-3"}},
        {**BASE_CONFIG, "center": [0, 0, True]},
        {**BASE_CONFIG, "output": {"format": "json", "path": None}},
        FULL_CONFIG,
    ]
    for cfg in edge_cases:
        assert_agrees_with_jsonschema(cfg)


# Configs with several violations, and the one the CLI reports: an object's
# own type, enum, required and additionalProperties come before its values,
# the values are taken in the config's key order, and a list's bounds come
# before its items.
SEVERAL_VIOLATIONS = {
    "missing-root-key-first": (
        {**{k: v for k, v in BASE_CONFIG.items() if k != "seed"}, "norm": {"family": "lp", "p": "four"}},
        "'seed' is a required property"),
    "two-values-in-key-order": (
        {**BASE_CONFIG, "grid": {"ns": 0, "nt": "eight"}},
        "0 is less than the minimum of 2"),
    "config-key-order-not-schema-order": (
        {"seed": -1, **{k: v for k, v in BASE_CONFIG.items() if k != "seed"},
         "norm": {"family": "lp", "p": "four"}},
        "-1 is less than the minimum of 0"),
    "list-bounds-before-items": (
        {**BASE_CONFIG, "grid": {"ns": 8, "nt": 8, "margins": [0.1, -1.0, 0.2]}},
        "[0.1, -1.0, 0.2] is too long"),
    "extras-before-values": (
        {**BASE_CONFIG, "norm": {"family": "lp", "p": "four", "q": 2}, "zeta": 1, "extra": 1},
        "Additional properties are not allowed ('extra', 'zeta' were unexpected)"),
}


@pytest.mark.parametrize("cfg, message", SEVERAL_VIOLATIONS.values(), ids=list(SEVERAL_VIOLATIONS))
def test_a_config_with_several_violations_reports_the_first(cfg, message):
    assert len(list(schema_validator("config").iter_errors(cfg))) > 1
    with pytest.raises(minksurf.ConfigError) as got:
        validate_config(cfg)
    assert str(got.value) == f"config does not match schema: {message}"


def test_config_schema_uses_only_the_keywords_the_fast_check_implements():
    for sub in _subschemas(load_schema("config")):
        assert set(sub) <= _CONFIG_KEYWORDS, set(sub) - _CONFIG_KEYWORDS
        assert sub.get("maxItems") != 0, sub  # worded "is expected to be empty"
        assert isinstance(sub.get("type", ""), str), sub["type"]
        assert all(isinstance(v, str) for v in sub.get("enum", [])), sub["enum"]


def test_a_nan_residual_fails_its_check():
    res = _aggregate(1e-6, [1e-12, math.nan], [(0, 0), (1, 1)])
    assert not res["pass"]
    assert math.isnan(res["max_residual"])
    assert res["worst_point"] == [1, 1]
    assert dumps_canonical({"max_residual": res["max_residual"]}) == '{\n  "max_residual": null\n}'


def test_dumps_canonical_normalizes_each_value_once(monkeypatch):
    obj = {"b": (np.float64(0.1), [np.int64(3), {"z": np.array([1.5, 2.0]), 2: None}]),
           "a": {}, "c": [], "d": True, "e": math.inf, "f": "x"}
    text = ('{\n  "a": {},\n  "b": [\n    0.10000000000000001,\n    [\n      3,\n      {\n'
            '        "2": null,\n        "z": [\n          1.5,\n          2\n        ]\n      }\n'
            '    ]\n  ],\n  "c": [],\n  "d": true,\n  "e": null,\n  "f": "x"\n}')
    calls = []
    canon = minksurf.cli._canon
    monkeypatch.setattr(minksurf.cli, "_canon", lambda v: calls.append(v) or canon(v))
    minksurf.cli._canon(obj)
    per_tree = len(calls)
    assert dumps_canonical(obj) == text
    assert len(calls) == 2 * per_tree


EUCLIDEAN_TORUS = {
    "norm": {"family": "euclidean"},
    "surface": {"family": "torus", "R": 2.0, "r": 1.2},
    "grid": {"ns": 8, "nt": 8, "margins": [0.3, 0.1]},
    "seed": 1234,
}
EUCLIDEAN_CATENOID = {**EUCLIDEAN_TORUS, "surface": {"family": "catenoid"}}
EUCLIDEAN_SPHERE = {**EUCLIDEAN_TORUS, "surface": {"family": "euclidean_sphere", "r": 1.0}}

# (check, config, a tolerance below its residual there: about a tenth of it)
RUNNER_CASES = [
    ("lemma-3-1", EUCLIDEAN_TORUS, 2e-13),        # 6.4e-12
    ("thm-3-1", EUCLIDEAN_TORUS, 4e-9),           # 3.9e-8
    ("prop-3-1", EUCLIDEAN_TORUS, 5e-8),          # 9.0e-7
    ("cor-2-1", EUCLIDEAN_TORUS, 1e-14),          # 1.2e-13
    ("minimality-scan", EUCLIDEAN_CATENOID, 4e-10),  # 3.9e-9
    ("cor-2-1", EUCLIDEAN_CATENOID, 3e-17),       # 3.4e-16
    ("prop-2-2", EUCLIDEAN_TORUS, 7e-17),         # 7.2e-16
    ("prop-2-3", EUCLIDEAN_TORUS, 3e-17),         # 3.3e-16
    ("thm-3-2", EUCLIDEAN_TORUS, 6e-10),          # 5.7e-9
    ("curvature-closed-form", EUCLIDEAN_SPHERE, 9e-17),  # 8.9e-16
]
RUNNER_IDS = [f"{c}-{cfg['surface']['family']}" for c, cfg, _ in RUNNER_CASES]


@pytest.mark.parametrize("check_id, cfg, below", RUNNER_CASES, ids=RUNNER_IDS)
def test_check_passes_through_the_runner(check_id, cfg, below):
    report = run_checks({**cfg, "checks": [check_id]})
    validate_report(report)
    (result,) = report["checks"]
    assert result["pass"], result
    assert result["n_points"] > 0
    assert result["max_residual"] > below


@pytest.mark.parametrize("check_id, cfg, below", RUNNER_CASES, ids=RUNNER_IDS)
def test_check_fails_through_the_runner_below_its_residual(check_id, cfg, below):
    (result,) = run_checks({**cfg, "checks": [check_id], "tolerances": {check_id: below}})["checks"]
    assert not result["pass"], result
    assert result["tolerance"] == below


def test_each_report_entry_takes_its_label_from_the_registry():
    cfg = {**EUCLIDEAN_SPHERE, "checks": list(REGISTRY), "planar": {"support": "circle", "n": 256}}
    report = run_checks(cfg)
    validate_report(report)
    assert [c["id"] for c in report["checks"]] == list(REGISTRY)
    assert len(REGISTRY) == 15
    ctx = minksurf.cli.build_context(cfg)
    for entry in report["checks"]:
        spec = REGISTRY[entry["id"]]
        assert entry["paper_anchor"] == spec.anchor
        assert entry["tolerance"] == (spec.tolerance(ctx) if callable(spec.tolerance) else spec.tolerance)


def test_a_tolerance_that_names_no_check_exits_two(tmp_path):
    misspelt = write_config(tmp_path, {**EUCLIDEAN_TORUS, "checks": ["thm-3-1"],
                                       "tolerances": {"thm-3-l": 1e-12}})
    out = run_cli(["run", "--config", misspelt])
    assert out.returncode == 2, out.stderr
    assert "'thm-3-l'" in out.stderr
    # a registered check the run does not select may carry an override
    (result,) = run_checks({**EUCLIDEAN_TORUS, "checks": ["cor-2-1"],
                            "tolerances": {"thm-3-1": 1e-12, "cor-2-1": 1e-6}})["checks"]
    assert result["pass"] and result["tolerance"] == 1e-6


# Configs where the paper says the identity fails: each check must fail
# through the runner at its default tolerance. (check, config, its residual)
UNIT_SPHERE_LP4 = {**EUCLIDEAN_TORUS, "norm": {"family": "lp", "p": 4.0},
                   "surface": {"family": "euclidean_sphere", "r": 1.0}}
COUNTEREXAMPLES = [
    ("umbilicity", EUCLIDEAN_TORUS, 1.95),          # the torus has no umbilic point
    ("prop-3-2", EUCLIDEAN_TORUS, 3.82),            # nor a constant affine distance
    ("blaschke-scan", UNIT_SPHERE_LP4, 0.72),       # eta is no affine normal for lp(4)
    ("affine-normal-compare", UNIT_SPHERE_LP4, 0.51),
    ("planar-ermakov", {**EUCLIDEAN_TORUS, "planar": {"support": "ellipse", "a": 1.0, "b": 1.5}},
     1.875),                                        # ab != 1
]


@pytest.mark.parametrize("check_id, cfg, residual", COUNTEREXAMPLES,
                         ids=[c for c, _, _ in COUNTEREXAMPLES])
def test_check_fails_through_the_runner_where_the_paper_says_it_fails(check_id, cfg, residual):
    report = run_checks({**cfg, "checks": [check_id]})
    validate_report(report)
    (result,) = report["checks"]
    assert not result["pass"], result
    assert result["max_residual"] == pytest.approx(residual, rel=0.01)
    assert result["max_residual"] > 1e4 * result["tolerance"]


def _h_zero_points(cfg):
    ctx = minksurf.cli.build_context({**cfg, "checks": ["cor-2-1"]})
    pts, gb = minksurf.cli._locate_h_zero_points(ctx)
    assert len(gb) == len(pts)
    return pts


def test_cor_2_1_finds_a_zero_of_h_at_the_last_s_of_a_column():
    saddle = {**EUCLIDEAN_TORUS, "surface": {"family": "saddle"},
              "grid": {"ns": 8, "nt": 8, "margins": [0.1, 0.1]}, "seed": 1}
    pts = _h_zero_points(saddle)
    # H is exactly 0 on the lines s = +-t, so at all four corners of the grid
    for corner in [(-0.9, -0.9), (-0.9, 0.9), (0.9, -0.9), (0.9, 0.9)]:
        assert corner in pts
    (result,) = run_checks({**saddle, "checks": ["cor-2-1"]})["checks"]
    assert result["pass"] and result["detail"]["candidates"] == 14 == len(pts)


@pytest.mark.parametrize("margins", [[0.3, 0.1], [3.0, 0.1]])
def test_cor_2_1_brackets_the_wrap_around_interval_of_a_periodic_s(margins):
    # On torus(2, 1.2), H = 0 where cos s = -R / 2r: twice on each of the 4 columns.
    torus = {**EUCLIDEAN_TORUS, "grid": {"ns": 8, "nt": 4, "margins": margins}}
    pts = _h_zero_points(torus)
    assert len(pts) == 8
    s_root = math.acos(-2.0 / 2.4)
    for s, _ in pts:
        assert 0.0 <= s <= 2.0 * math.pi
        assert min(abs(s - s_root), abs(s - (2.0 * math.pi - s_root))) < 1e-9
    (result,) = run_checks({**torus, "checks": ["cor-2-1"]})["checks"]
    assert result["pass"] and result["n_points"] == 8


def test_root_searches_batch_their_brackets(monkeypatch):
    # cor-2-1 and prop-3-1 evaluate no point on its own: each Brent iteration
    # of cor-2-1 is one geometry batch, and prop-3-1 places each point's FD
    # stencil on the surface once, however many Brent steps it takes.
    singles, batches, iterations = [], [], []
    original_batch = minksurf.geometry.geometry_batch
    original_brentq_rows = minksurf.cli.brentq_rows

    def counting_batch(*args, **kwargs):
        batches.append(len(args[2]))
        return original_batch(*args, **kwargs)

    def counting_brentq_rows(f, *args):
        def counted(rows, x):
            iterations.append(len(rows))
            return f(rows, x)
        return original_brentq_rows(counted, *args)

    for module in (minksurf.geometry, minksurf.cli, minksurf.distances):
        monkeypatch.setattr(module, "point_geometry", lambda *a: singles.append(a[2:4]),
                            raising=False)
    monkeypatch.setattr(minksurf.cli, "geometry_batch", counting_batch)
    monkeypatch.setattr(minksurf.cli, "brentq_rows", counting_brentq_rows)

    torus = {**EUCLIDEAN_TORUS, "grid": {"ns": 24, "nt": 24, "margins": [0.3, math.pi / 24]},
             "checks": ["cor-2-1"]}
    (result,) = run_checks(torus)["checks"]
    assert result["pass"] and result["n_points"] == 48
    assert singles == []
    assert iterations and len(batches) <= len(iterations) + 2

    ctx = minksurf.cli.build_context({**BASE_CONFIG, "checks": ["prop-3-1"]})
    placed = []
    position = ctx.surface.position

    def counting_position(s, t):
        placed.append(np.size(s))
        return position(s, t)

    ctx.surface = dataclasses.replace(ctx.surface, position=counting_position)
    iterations.clear()
    result = REGISTRY["prop-3-1"].runner(ctx)
    assert result["n_points"] == 20
    assert singles == []
    assert sum(placed) == 9 * result["n_points"]
    assert len(iterations) > 1


# Known defects of the fixed global FD step (ROADMAP item 1): the README config
# fails these checks at these seeds. They pass once the step is chosen per point.
@pytest.mark.xfail(strict=True, reason="prop-3-1 reads 1.6e-3 against 1e-4 at seed 1234")
def test_readme_config_passes_prop_3_1_at_seed_1234():
    (result,) = run_checks({**BASE_CONFIG, "checks": ["prop-3-1"], "seed": 1234})["checks"]
    assert result["pass"], result


@pytest.mark.xfail(strict=True, reason="thm-3-2 reads 7.4e-2 against 5e-3 at seed 1")
def test_readme_config_passes_thm_3_2_at_seed_1():
    (result,) = run_checks({**BASE_CONFIG, "checks": ["thm-3-2"], "seed": 1})["checks"]
    assert result["pass"], result


# What each sampled check drew at seed 1234 on the README config before its
# runner became a sampler and a kernel: the number of points, the first and
# the last point, and the first and last row of their data (direction
# angles, distance centres), if any.
SAMPLER_DRAWS = {
    "prop-2-1": (50, (2.4307798112593804, 4.78426684262858), (2.7744837621091816, 1.774245598145302), None),
    "prop-2-2": (100, (1.9322696590506627, 3.7165237058286147), (1.8038468451264067, 3.7668553356198347),
                 (5.495511051937462, 0.42333070246709953)),
    "prop-2-3": (100, (0.7446726005475202, 2.6383085148355514), (0.3501638542904499, 4.74449491111104), None),
    "lemma-3-1": (10, (1.1524928554530696, 5.698941625712422), (2.367625683318415, 0.5429362725059447), None),
    "thm-3-1": (10, (1.583212609041361, 1.352437678254374), (0.5024428437076779, 4.8901943842660245), None),
    "prop-3-1": (40, (2.5681514824476874, 5.587926061446971), (2.128114729485498, 1.2711961796343283),
                 (1.9838057753725675, 6.1222166696399105)),
    "thm-3-2": (50, (1.9227361299627728, 2.087880751219407), (0.8998149029581057, 6.169964228883584),
                ([0.04807585566662362, 0.13519899553407935, -0.06748266231879718],
                 [-0.05850993491563575, -0.14885865296043227, 0.26572147050084055])),
}


def test_the_sampled_checks_are_the_seven_random_point_checks():
    assert [cid for cid, spec in REGISTRY.items() if spec.points is not None] == list(SAMPLER_DRAWS)


@pytest.mark.parametrize("check_id", list(SAMPLER_DRAWS))
def test_a_sampler_draws_what_its_check_drew(check_id):
    n, first, last, data = SAMPLER_DRAWS[check_id]
    ctx = minksurf.cli.build_context(BASE_CONFIG)
    pts, rows = REGISTRY[check_id].points(ctx, ctx.rng(check_id))
    assert (len(pts), pts[0], pts[-1]) == (n, first, last)
    if data is None:
        assert rows is None
    else:
        assert (len(rows), rows[0].tolist(), rows[-1].tolist()) == (n, *data)


def test_planar_check_through_cli(tmp_path):
    cfg = write_config(tmp_path, {
        **BASE_CONFIG,
        "checks": ["planar-ermakov"],
        "planar": {"support": "circle", "radius": 1.0, "n": 512},
    })
    out = run_cli(["run", "--config", cfg])
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["checks"][0]["pass"]
    assert report["checks"][0]["max_residual"] <= 1e-12

    cfg2 = write_config(tmp_path, {
        **BASE_CONFIG,
        "checks": ["planar-ermakov"],
        "planar": {"support": "ellipse", "a": 1.0, "b": 1.5},
    }, "ellipse.json")
    out2 = run_cli(["run", "--config", cfg2, "--strict"])
    assert out2.returncode == 1  # the ellipse genuinely fails the condition
    rep2 = json.loads(out2.stdout)
    assert rep2["checks"][0]["max_residual"] > 0.1


def test_planar_ermakov_reports_the_node_where_its_residual_peaks():
    # r1 peaks at theta = pi/2 on this ellipse and r2 at theta = 0; the entry
    # once reported r1's peak at r2's node
    (result,) = run_checks({**EUCLIDEAN_TORUS, "checks": ["planar-ermakov"],
                            "planar": {"support": "ellipse", "a": 1, "b": 1.5}})["checks"]
    assert result["max_residual"] == 1.875 == result["detail"]["r1_sup"]
    assert result["worst_point"] == [math.pi / 2, 0.0]


@pytest.mark.parametrize("planar, stray", [
    ({"support": "circle", "a": 5, "b": 0.1}, "'a', 'b'"),
    ({"support": "ellipse", "radius": 2.0}, "'radius'"),
    ({"csv": "support.csv", "n": 64}, "'n'"),
    ({"csv": "support.csv", "support": "circle"}, "'support'"),
], ids=["circle-a-b", "ellipse-radius", "csv-n", "csv-support"])
def test_a_planar_key_its_support_does_not_read_exits_two(tmp_path, planar, stray):
    # before, these ran on the source's other keys: the first passed as the unit circle
    cfg = write_config(tmp_path, {**EUCLIDEAN_TORUS, "checks": ["planar-ermakov"], "planar": planar})
    out = run_cli(["run", "--config", cfg])
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error: the planar ") and out.stderr.endswith(f" reads no {stray}\n")


def test_a_closed_form_support_solves_ermakov_pinney_through_the_runner():
    # ab = 1: the ellipse's equi-affine normal is -x. A spectral g'' of its
    # 2048 samples has a roundoff floor of 2e-8, above the 1e-12 tolerance;
    # the analytic g'' reads 2.8e-14.
    cfg = {**EUCLIDEAN_TORUS, "checks": ["planar-ermakov"],
           "planar": {"support": "ellipse", "a": 2.0, "b": 0.5}}
    (result,) = run_checks(cfg)["checks"]
    assert result["pass"], result
    assert result["max_residual"] < 1e-13
    assert result["n_points"] == 2048


@pytest.mark.process
def test_closed_form_supports_leave_numpy_fft_unloaded(tmp_path):
    code = ("import sys, minksurf.cli\n"
            "assert minksurf.cli.main(['run', '--config', sys.argv[1]]) == 0\n"
            "assert 'numpy.fft' not in sys.modules\n")
    for planar in ({"support": "circle", "radius": 1.0}, {"support": "ellipse", "a": 2.0, "b": 0.5}):
        cfg = write_config(tmp_path, {**EUCLIDEAN_TORUS, "checks": ["planar-ermakov"], "planar": planar})
        out = subprocess.run([sys.executable, "-c", code, cfg], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr


def test_a_rejected_gauss_split_exits_three_with_its_location(tmp_path):
    cfg = write_config(tmp_path, {**BASE_CONFIG, "surface": {"family": "torus", "R": 2.0, "r": 1.2},
                                  "checks": ["thm-3-2"], "numerics": {"cond_guard": 2.0}})
    out = run_cli(["run", "--config", cfg])
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == ("numerical failure at (6.073602268720633, 1.9015615709985356): check 'thm-3-2' "
                          "failed numerically: linear solve rejected: condition number 3.086e+00 "
                          "exceeds guard 2.000e+00\n")


# numpy.linalg's LAPACK routines: a `minksurf run` calls none of them.
LAPACK_ROUTINES = ("det", "solve", "inv", "cholesky", "svd", "eig", "eigh", "eigvals", "eigvalsh",
                   "lstsq", "qr", "slogdet", "cond")


def _benchmark_configs(monkeypatch) -> list[dict]:
    """The benchmark's 10 paper-suite and 6 grid-sweep (norm, surface) pairs,
    on 6x6 grids, each with its planar support where it has one."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    configs = [{"norm": pc.norm, "surface": pc.surface, "planar": pc.planar or {"support": "ellipse"}}
               for pc in workloads.PAPER_CONFIGS]
    configs += [{"norm": norm, "surface": surface, "planar": {"support": "ellipse"}}
                for _, norm, surface, _ in workloads.SWEEP_CONFIGS]
    return [{**cfg, "grid": {"ns": 6, "nt": 6, "margins": [0.3, 0.1]}, "seed": 1} for cfg in configs]


def _verdicts(cfg: dict) -> dict:
    """Each check's verdict and point count on cfg, or the text of the
    numerical failure it raises; the checks that do not apply to cfg are left out."""
    verdicts = {}
    for check in REGISTRY:
        try:
            (result,) = run_checks({**cfg, "checks": [check]})["checks"]
            verdicts[check] = (result["pass"], result["n_points"])
        except minksurf.errors.ConfigError:
            pass
        except minksurf.errors.NumericalFailure as exc:
            verdicts[check] = str(exc)
    return verdicts


def test_the_laplacian_checks_compute_no_svd(monkeypatch):
    """No check runs a LAPACK routine of numpy.linalg: with each of them
    raising, every check that applies to the benchmark's (norm, surface)
    pairs gives the verdict it gives unpatched, and the Laplacian checks pass."""
    configs = _benchmark_configs(monkeypatch)
    expected = [_verdicts(cfg) for cfg in configs]

    def no_lapack(*args, **kwargs):
        raise AssertionError("a numpy.linalg LAPACK routine was called")

    # numpy.linalg.cond looks svd up in the module that defines it, so that
    # module's names are patched as well as the public ones
    for module in (np.linalg, inspect.getmodule(inspect.unwrap(np.linalg.cond))):
        for name in LAPACK_ROUTINES:
            monkeypatch.setattr(module, name, no_lapack)
    for cfg, check in ((EUCLIDEAN_TORUS, "thm-3-2"), (EUCLIDEAN_CATENOID, "thm-3-2"),
                       (EUCLIDEAN_CATENOID, "minimality-scan"), (BASE_CONFIG, "thm-3-2")):
        (result,) = run_checks({**cfg, "checks": [check]})["checks"]
        assert result["pass"] and result["n_points"] > 0, result
    assert sum(map(len, expected)) > 13 * len(configs)
    assert [_verdicts(cfg) for cfg in configs] == expected


@pytest.mark.parametrize("make, reason", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"0,1\n\xff,1\n"), "'utf-8' codec can't decode byte 0xff"),
], ids=["missing", "directory", "not-utf8"])
def test_an_unreadable_support_csv_exits_two(tmp_path, make, reason):
    # before, these raised FileNotFoundError, IsADirectoryError and
    # UnicodeDecodeError: a traceback with exit 1, --strict's failing-check code
    support = tmp_path / "support.csv"
    make(support)
    cfg = write_config(tmp_path, {**BASE_CONFIG, "checks": ["planar-ermakov"],
                                  "planar": {"csv": str(support)}})
    out = run_cli(["run", "--config", cfg, "--strict"])
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error: cannot read support CSV: "), out.stderr
    assert reason in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("row", ["0.0,nan", "0.0,inf", "nan,1.0"], ids=["g-nan", "g-inf", "theta-nan"])
def test_a_non_finite_support_csv_number_exits_two(tmp_path, row):
    # before, a nan g exited 0 with a null residual, an inf g also warned,
    # and a nan theta passed the uniform-grid test and the check
    thetas = 2.0 * np.pi * np.arange(8) / 8
    rows = [f"{th!r},1.0" for th in thetas.tolist()]
    rows[0] = row
    support = tmp_path / "support.csv"
    support.write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path, {**BASE_CONFIG, "checks": ["planar-ermakov"],
                                  "planar": {"csv": str(support)}})
    out = run_cli(["run", "--config", cfg, "--strict"])
    assert out.returncode == 2, out.stderr
    assert out.stderr == f"config error: non-finite support CSV row {row.split(',')!r}\n"


def test_check_runners_build_no_point_geometry(monkeypatch):
    # every grid and random check reads its points' geometry as arrays of one batch
    made = []
    init = minksurf.geometry.PointGeometry.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(minksurf.geometry.PointGeometry, "__init__", counting_init)
    checks = [c for c in REGISTRY if c not in ("curvature-closed-form", "planar-ermakov")]
    assert len(checks) == 13
    for cfg in (BASE_CONFIG, EUCLIDEAN_CATENOID):
        report = run_checks({**cfg, "checks": checks})
        assert [c["id"] for c in report["checks"]] == checks
    assert made == []
    minksurf.geometry.point_geometry(minksurf.lp_norm(4.0), minksurf.ellipsoid(1.0, 1.3, 0.8), 0.8, 2.4)
    assert len(made) == 1


def test_batched_thm_3_1_raises_the_not_critical_of_its_first_point():
    ctx = minksurf.cli.build_context({**BASE_CONFIG, "checks": ["thm-3-1"],
                                      "numerics": {"critical_tol": 1e-16}})
    s, t = ctx.random_params(ctx.rng("thm-3-1"), 10)[0]
    with pytest.raises(minksurf.NotCritical) as batched:
        REGISTRY["thm-3-1"].runner(ctx)
    pg = minksurf.point_geometry(ctx.norm, ctx.surface, s, t, ctx.numerics)
    with pytest.raises(minksurf.NotCritical) as one_point:
        minksurf.hess_b_matrix(minksurf.tangent_plane_distance_field(pg, ctx.surface), pg, ctx.numerics)
    assert str(batched.value) == str(one_point.value)
    assert f"at (s,t)=({s}, {t})" in str(batched.value)


def test_random_points_reach_the_seam_of_a_periodic_s_axis():
    # torus(2, 1.2) is periodic in s: as on a periodic t axis, the draws
    # start a margin in and run to the end of the period, so they reach the
    # band around s = 0 across the seam
    ctx = minksurf.cli.build_context({**EUCLIDEAN_TORUS, "checks": ["prop-2-1"]})
    s, t = np.array(ctx.random_params(np.random.default_rng(0), 2000)).T
    assert 0.3 <= s.min() and s.max() < 2.0 * math.pi
    assert np.minimum(s, 2.0 * math.pi - s).min() < 0.3
    assert 0.1 <= t.min() and t.max() < 2.0 * math.pi
