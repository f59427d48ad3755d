from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import minksurf.blaschke
import minksurf.cli
import minksurf.distances
import minksurf.geometry
from minksurf.cli import (
    REGISTRY,
    load_schema,
    run_checks,
    validate_config,
    validate_report,
)

BASE_CONFIG = {
    "norm": {"family": "lp", "p": 4.0},
    "surface": {"family": "ellipsoid", "a": 1.0, "b": 1.3, "c": 0.8},
    "grid": {"ns": 8, "nt": 8, "margins": [0.3, 0.1]},
    "checks": ["prop-2-1", "prop-2-2", "prop-2-3"],
    "seed": 1234,
}


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "minksurf.cli", *args],
        capture_output=True, text=True, env=env,
    )


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
        monkeypatch.setattr(module, "point_geometry", counting_single)
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


def test_cli_import_leaves_scipy_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import minksurf.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


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


def test_validate_config_rejects_unknown_keys():
    from minksurf.errors import ConfigError
    with pytest.raises(ConfigError):
        validate_config({**BASE_CONFIG, "extra": 1})
    with pytest.raises(ConfigError):
        validate_config({k: v for k, v in BASE_CONFIG.items() if k != "seed"})


def test_shipped_schemas_match_their_metaschema():
    # validate_config builds its validator once and does not re-check the schema
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
