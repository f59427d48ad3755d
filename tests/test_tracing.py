"""The benchmark's tracer patches the package and puts every name back."""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np

import minksurf
from minksurf.cli import REGISTRY
from minksurf.norms import NormModel


def test_tracer_install_then_uninstall_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    modules = [minksurf] + [importlib.import_module(f"minksurf.{m}") for m in tracing.MODULES]

    def names():
        return [dict(vars(m)) for m in modules] + [dict(vars(NormModel)), dict(REGISTRY)]

    before = names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(NormModel)[m] is not before[-2][m] for m in tracing.NORM_METHODS)
        assert minksurf.lp_norm(4.0).gauge_value(np.array([0.0, -2.0, 0.0])) == 2.0
        assert tracer.calls("norms.gauge_value") == 1
        assert REGISTRY["thm-3-1"] is not before[-1]["thm-3-1"]
    finally:
        tracer.uninstall()
    assert names() == before
