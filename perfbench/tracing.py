"""Per-layer tracing from outside the program.

install() wraps every public function of the minksurf modules, the public
NormModel methods, each check runner of the CLI registry and the CLI's brentq,
and rebinds each wrapper in every module namespace that imported the
original, so calls between modules are seen too. uninstall() puts the
originals back. src/ is never edited.

Per-point layers are called hundreds of thousands of times in one round, so
spans are aggregated in memory per name (calls, inclusive time, time inside
wrapped children); only operation-level spans are kept one by one, with
their start, end and parent, and written to the trace file.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time

MODULES = ("numerics", "surfaces", "norms", "geometry", "distances", "blaschke", "cli")

NORM_METHODS = ("gauge_value", "gauge_gradient", "gauge_hessian", "dual_value",
                "dual_gradient", "dual_hessian", "dual_third", "birkhoff_point",
                "du_restricted", "dupin_form")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, inclusive s, child s]
        self.spans: list[tuple] = []         # (id, parent id, name, start, end)
        self._stack: list[list] = []         # [child time, span id] per open call
        self._undo: list = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def span(self, name: str, fn, *args):
        """Run fn(*args) as a recorded span (operation level), returning its result."""
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        sid = len(self.spans)
        frame = [0.0, sid]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += t1 - t0
            self.spans.append((sid, parent, name, t0, t1))

    def count(self, name: str) -> None:
        self.stats.setdefault(name, [0, 0.0, 0.0])[0] += 1

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        st = self.stats.get(name, [0, 0.0, 0.0])
        return st[1] - st[2]

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import minksurf

        mods = {m: importlib.import_module(f"minksurf.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        cli = mods["cli"]
        wrapped[id(cli.brentq)] = self.wrap("cli.brentq", cli.brentq)
        for mod in (minksurf, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and callable(obj):
                    self._set(mod, attr, wrapped[id(obj)])
        norm_cls = mods["norms"].NormModel
        for meth in NORM_METHODS:
            self._set(norm_cls, meth, self.wrap(f"norms.{meth}", vars(norm_cls)[meth]))
        for cid, spec in list(cli.REGISTRY.items()):
            runner = self.wrap(f"cli.check_s.{cid}", spec.runner)
            self._undo.append((cli.REGISTRY, cid, spec))
            cli.REGISTRY[cid] = dataclasses.replace(spec, runner=runner)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
