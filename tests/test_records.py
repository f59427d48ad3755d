"""The package's records against the dataclasses they stand for.

Each record is declared @dataclass(init=False, repr=False, eq=False) over
numerics._Record, which gives it the methods the decorator would otherwise
generate per class. Every record is compared here with a twin that
dataclasses.make_dataclass builds from the same fields, with the record's
frozen and eq keywords and its __post_init__, on field values taken from a
live instance the library built.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import pydoc
import subprocess
import sys

import numpy as np
import pytest

import minksurf as mk
from minksurf import cli
from minksurf.numerics import _Record

README_CONFIG = {
    "norm": {"family": "lp", "p": 4},
    "surface": {"family": "ellipsoid", "a": 1.0, "b": 1.3, "c": 0.8},
    "grid": {"ns": 4, "nt": 4, "margins": [0.3, 0.1]},
    "checks": ["prop-2-1"],
    "seed": 1234,
}


def _instances() -> dict:
    norm, surf = mk.lp_norm(4.0), mk.ellipsoid(1.0, 1.3, 0.8)
    return {
        "NumericsConfig": mk.NumericsConfig(fd_step=2e-5, quad_nodes=64.0),
        "ScalarJet": norm.gauge,
        "NormModel": norm,
        "SurfaceJet": mk.evaluate_jet(surf, 0.8, 2.4),
        "SurfacePatch": surf,
        "PointGeometry": mk.point_geometry(norm, surf, 0.8, 2.4),
        "GeometryBatch": mk.geometry_batch(norm, surf, [0.8, 1.1], [2.4, 0.3]),
        "DistanceData": mk.distance_data(norm, surf, 0.8, 2.4, np.zeros(3), probe=np.ones(3)),
        "BlaschkeSample": mk.blaschke_sample(norm, surf, 0.8, 2.4),
        "RunContext": cli.build_context(copy.deepcopy(README_CONFIG)),
        "CheckSpec": cli.REGISTRY["prop-2-1"],
    }


INSTANCES = _instances()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _twin(cls):
    """The dataclass the decorator would make of cls's fields and keywords."""
    specs = []
    for f in dataclasses.fields(cls):
        kw = {"repr": f.repr, "compare": f.compare, "hash": f.hash}
        if f.default is not dataclasses.MISSING:
            kw["default"] = f.default
        if f.default_factory is not dataclasses.MISSING:
            kw["default_factory"] = f.default_factory
        specs.append((f.name, f.type, dataclasses.field(**kw)))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__qualname__, specs, namespace=namespace,
                                      frozen=cls._frozen, eq=cls._eq)


def _outcome(fn):
    """The repr of fn()'s value, or its exception's type and text."""
    try:
        return repr(fn())
    except Exception as exc:  # noqa: BLE001 - the comparison is of what is raised
        return type(exc), str(exc)


def test_every_record_is_covered():
    records = {c.__name__ for c in _subclasses(_Record)
               if dataclasses.is_dataclass(c) and c.__module__.startswith("minksurf.")}
    assert records == set(INSTANCES)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_a_record_behaves_as_its_dataclass_twin(name):
    live = INSTANCES[name]
    cls, twin = type(live), _twin(type(live))
    values = {f.name: getattr(live, f.name) for f in dataclasses.fields(cls)}
    names = list(values)
    rec, ref = cls(**values), twin(**values)

    assert [f.name for f in dataclasses.fields(rec)] == [f.name for f in dataclasses.fields(ref)]
    assert list(vars(rec)) == names
    assert repr(rec) == repr(ref)
    assert repr(cls(*values.values())) == repr(ref)
    assert repr(dataclasses.asdict(rec)) == repr(dataclasses.asdict(ref))

    # eq and hash: the same instance, an equal one, a changed one, another type
    other = 2.0 * values[names[0]] if isinstance(values[names[0]], float) else object()
    changed = dataclasses.replace(rec, **{names[0]: other})
    changed_ref = dataclasses.replace(ref, **{names[0]: other})
    assert type(changed) is cls and getattr(changed, names[1]) is values[names[1]]
    for pair, ref_pair in [((rec, rec), (ref, ref)), ((rec, cls(**values)), (ref, twin(**values))),
                           ((rec, changed), (ref, changed_ref)), ((rec, values), (ref, values))]:
        assert _outcome(lambda: pair[0] == pair[1]) == _outcome(lambda: ref_pair[0] == ref_pair[1])
        assert _outcome(lambda: pair[0] != pair[1]) == _outcome(lambda: ref_pair[0] != ref_pair[1])
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    if cls.__hash__ is not None:
        assert _outcome(lambda: hash(rec) == hash(cls(**values))) == \
            _outcome(lambda: hash(ref) == hash(twin(**values)))

    # frozen or not
    for obj in (rec, ref):
        if cls._frozen:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{names[0]}'"):
                setattr(obj, names[0], None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{names[0]}'"):
                delattr(obj, names[0])
        else:
            setattr(obj, names[0], None)
            assert getattr(obj, names[0]) is None

    # an unknown, a duplicate or one argument too many raise the same
    # TypeError; so do missing fields, and a record with none missing is the same
    required = [f for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    calls = [(True, (), {**values, "no_such_field": 1}), (True, (values[names[0]],), values),
             (True, (*values.values(), 1), {}), (bool(required), (), {}),
             (any(f.name != names[-1] for f in required), (), {names[-1]: values[names[-1]]})]
    for raises, args, kwargs in calls:
        got, want = _outcome(lambda: cls(*args, **kwargs)), _outcome(lambda: twin(*args, **kwargs))
        assert got == want
        assert (got[0] is TypeError) == raises


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_a_record_has_its_dataclass_twins_signature(name):
    """inspect.signature and help() show a record's fields as the twin's
    generated __init__ shows them: annotations, defaults and <factory> (they
    read (*args, **kwargs) from the shared __init__)."""
    cls = type(INSTANCES[name])
    sig, want = inspect.signature(cls), inspect.signature(_twin(cls))
    assert sig == want
    assert str(sig) == str(want)
    assert f"{name}{sig}" in pydoc.render_doc(cls, renderer=pydoc.plaintext)


def test_only_a_misfit_call_or_a_signature_builds_a_twin():
    """A record builds its dataclass twin for a call that does not fit its
    fields or for its signature, never on import or in a valid run: the README
    config through run_checks and a gauge-only point_geometry build none."""
    code = (
        "import json, sys, inspect\n"
        "import numpy as np\n"
        "import minksurf.cli\n"
        "import minksurf as mk\n"
        "from minksurf.numerics import _Record\n"
        "def twins():\n"
        "    found, todo = [], [_Record]\n"
        "    while todo:\n"
        "        cls = todo.pop()\n"
        "        todo += cls.__subclasses__()\n"
        "        found += [cls.__qualname__] if '_twin' in vars(cls) else []\n"
        "    return sorted(found)\n"
        "minksurf.cli.run_checks(json.loads(sys.argv[1]))\n"
        "norm = mk.custom_norm(lambda x: float(np.sum(x ** 4) ** 0.25))\n"
        "mk.point_geometry(norm, mk.minkowski_sphere(norm, 1.5), 0.8, 2.4)\n"
        "print(twins())\n"
        "inspect.signature(mk.NumericsConfig)\n"
        "try:\n"
        "    mk.SurfaceJet()\n"
        "except TypeError:\n"
        "    print(twins())\n"
    )
    readme = {**README_CONFIG, "grid": {"ns": 8, "nt": 8, "margins": [0.3, 0.1]},
              "checks": ["prop-2-1", "prop-2-3", "thm-3-2"]}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(readme)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == ["[]", "['NumericsConfig', 'SurfaceJet']", ""]


def test_a_norm_keys_a_dict():
    """A norm hashes without its params dict, which eq still compares, so
    equal norms hash equal (hash raised TypeError: unhashable type 'dict')."""
    norm = mk.lp_norm(4.0)
    same = dataclasses.replace(norm)
    assert same == norm and hash(same) == hash(norm)
    assert {norm: "lp4"}[same] == "lp4"
    assert dataclasses.replace(norm, params={"p": 3.0}) != norm
    assert len({mk.lp_norm(4.0), mk.lp_norm(4.0)}) == 2  # their gauges are different closures


def test_surface_patches_hash_by_identity():
    """A SurfacePatch (frozen, eq=False) keeps object's hash and eq, with a
    dict in its params."""
    surf = mk.ellipsoid(1.0, 1.3, 0.8)
    assert type(surf).__hash__ is object.__hash__
    assert hash(surf) == object.__hash__(surf)
    copied = dataclasses.replace(surf)
    assert copied != surf and {surf: 1}.get(copied) is None


def test_defaults_and_factories_are_filled_per_instance():
    gauge = mk.lp_norm(4.0).gauge
    first, second = mk.NormModel("custom", gauge), mk.NormModel("custom", gauge)
    assert first.params == {} and first.params is not second.params
    assert first.jet_source == "analytic" and first.config is mk.DEFAULT_CONFIG
    assert mk.NumericsConfig(quad_nodes=64.0).quad_nodes == 64  # __post_init__ ran
    assert type(mk.NumericsConfig(quad_nodes=64.0).quad_nodes) is int
    with pytest.raises(mk.InvalidParameter):
        mk.NumericsConfig(fd_step=-1.0)


def test_records_are_subclassed_as_dataclasses_are():
    norm = mk.lp_norm(4.0)

    @dataclasses.dataclass(frozen=True)
    class TaggedNorm(mk.NormModel):
        tag: str = ""

    tagged = TaggedNorm(norm.family, norm.gauge, norm.dual, tag="x")
    assert tagged.tag == "x" and tagged.gauge is norm.gauge and tagged.params == {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        tagged.tag = "y"
    with pytest.raises(TypeError, match="cannot inherit non-frozen dataclass from a frozen one"):
        @dataclasses.dataclass
        class Loose(mk.NumericsConfig):
            pass

    class Plain(mk.NumericsConfig):
        pass

    assert Plain(fd_step=1e-4) == Plain(fd_step=1e-4) != mk.NumericsConfig(fd_step=1e-4)
    assert hash(Plain(fd_step=1e-4)) == hash(Plain(fd_step=1e-4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        Plain().fd_step = 1.0


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_records_carry_no_generated_code(name):
    cls = type(INSTANCES[name])
    for method in ("__init__", "__repr__", "__eq__", "__setattr__"):
        code = getattr(getattr(cls, method), "__code__", None)
        assert code is None or code.co_filename != "<string>", (name, method)
    assert not cls.__doc__.startswith(f"{name}("), "the decorator wrote the docstring from a signature"


def test_cli_import_leaves_csv_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import minksurf.cli, sys; assert 'csv' not in sys.modules"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
