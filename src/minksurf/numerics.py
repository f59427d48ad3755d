"""Shared numerical kernels: finite differences, the package's small-matrix
linear algebra (determinants, solves, inverses and the positive-definiteness
test of 2x2 and 3x3 matrices, so that no check calls LAPACK), 2x2
generalized eigensolves, periodic Simpson quadrature, linear solves guarded
by a condition number that is a closed form for 2x2 and 3x3 systems,
Brent's bracketed root finder, for one bracket or many advanced in lockstep,
and the seeded uniform stream the checks draw their random points from.

Every first-derivative stencil of the package takes its per-row step and
its points x +- h e_i from one function, gradient_stencil, and reads its
differences with _central_diffs. Every second-difference stencil is one
layout cached per dimension, _hessian_layout: the centre, gradient_stencil's
points, then the cross points of each pair of axes; _second_diffs reads it,
for fd_hessian_rows and for the FD surface jet. gradient_stencil and
fd_hessian_rows also run along a basis given per row, which is how the
gauge-only Newton differences the gauge on a plane of R^3.

All kernels are stateless (the stream is the one object with state);
tolerances and steps come in as arguments, most of them from one
NumericsConfig record. They work on arrays of points: a `_rows` kernel takes
one point per row and a batched field, and the function of one point of the
same name runs it on a batch of one, adapting the scalar field it is given
with per_point. The 2x2 kernels take single matrices or stacks.
"""

from __future__ import annotations

import functools
import operator
import reprlib
from dataclasses import MISSING, FrozenInstanceError, asdict, dataclass, field, fields, make_dataclass
from typing import NamedTuple

import numpy as np

from .errors import (EvaluationFailure, InvalidParameter, NotSPD,
                     NumericalFailure, OddSampleCount, SingularRestriction)


class _Layout(NamedTuple):
    """What a record's shared methods read of its dataclass fields."""

    names: tuple            # the fields, in order
    name_set: frozenset     # the same, as a set
    fields: tuple           # their dataclasses.Field objects
    required: frozenset     # the fields without a default or a default factory
    repr_names: tuple       # the fields repr shows
    compare_names: tuple    # the fields eq compares
    hash_names: tuple       # the fields hash reads
    post_init: object       # the class's __post_init__, or None


class _TwinSignature:
    """A record class's __signature__: the signature of its dataclass twin, so
    inspect.signature and help() show its fields; None (inspect's own reading)
    on a class that declares no fields."""

    def __get__(self, obj, cls):
        import inspect

        return inspect.signature(cls._dataclass_twin()) if hasattr(cls, "__dataclass_fields__") else None


class _Record:
    """The methods of the package's records, written once instead of generated per class.

    A record is a subclass declared with @dataclass(init=False, repr=False,
    eq=False), which registers its fields (so dataclasses.fields, replace and
    asdict work on it) and compiles no code. This base gives it what the
    dataclass decorator would generate: __init__ (positional and keyword
    arguments, defaults, default factories, then __post_init__), __repr__,
    and under the class keywords eq (default True) and frozen (default
    False) the field-wise __eq__ and __hash__ (None unless frozen) and a
    __setattr__/__delattr__ raising FrozenInstanceError. A subclass
    inherits its parent's keywords and methods; one declared with
    @dataclass(frozen=True) is accepted under a frozen record, as it would
    be under a frozen dataclass. What only a failing call or a signature
    lookup needs comes from the class's dataclass twin, which
    dataclasses.make_dataclass builds of its fields when first asked: a call
    that does not fit the fields is made on the twin, which raises Python's
    own TypeError, and __signature__ is the twin's.
    """

    _frozen = False
    _eq = True

    def __init_subclass__(cls, frozen=None, eq=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._layout = None  # read from the dataclass fields at the first construction
        for base in cls.__mro__[1:]:
            # dataclasses checks a subclass's frozen against its bases'
            # __dataclass_params__, where the decorator recorded frozen=False.
            if issubclass(base, _Record) and "__dataclass_params__" in vars(base):
                base.__dataclass_params__.frozen = base._frozen
        if frozen is None and eq is None:
            return
        cls._frozen = cls._frozen if frozen is None else frozen
        cls._eq = cls._eq if eq is None else eq
        if cls._frozen:
            cls.__setattr__ = _Record._frozen_setattr
            cls.__delattr__ = _Record._frozen_delattr
        cls.__eq__ = _Record._fields_eq if cls._eq else object.__eq__
        cls.__hash__ = (_Record._fields_hash if cls._frozen else None) if cls._eq else object.__hash__

    @classmethod
    def _read_layout(cls) -> _Layout:
        fs = fields(cls)
        names = tuple(f.name for f in fs)
        cls._layout = _Layout(names, frozenset(names), fs,
                              frozenset(f.name for f in fs if f.default is MISSING and f.default_factory is MISSING),
                              tuple(f.name for f in fs if f.repr),
                              tuple(f.name for f in fs if f.compare),
                              tuple(f.name for f in fs if (f.compare if f.hash is None else f.hash)),
                              getattr(cls, "__post_init__", None))
        return cls._layout

    def __init__(self, *args, **kwargs):
        layout = self._layout or self._read_layout()
        names = layout.names
        if not kwargs and len(args) == len(names):
            values = dict(zip(names, args))
        elif not args and kwargs.keys() == layout.name_set:
            values = {name: kwargs[name] for name in names}
        else:
            values = self._bind(layout, args, kwargs)
        object.__setattr__(self, "__dict__", values)
        if layout.post_init is not None:
            layout.post_init(self)

    def _bind(self, layout: _Layout, args: tuple, kwargs: dict) -> dict:
        """The field values of a call that is not all positional or all keyword,
        with the defaults filled in. A call that does not fit the fields (one
        argument too many, a field given twice, an unknown keyword, a required
        field missing) is made on the class's dataclass twin instead, whose
        __init__ raises the TypeError Python words for it."""
        values = dict(zip(layout.names, args))
        values.update(kwargs)  # a value is lost if zip drops it or a keyword repeats it
        if not (len(values) == len(args) + len(kwargs) and layout.required <= values.keys() <= layout.name_set):
            self._dataclass_twin()(*args, **kwargs)
        return {f.name: values[f.name] if f.name in values
                else f.default if f.default is not MISSING else f.default_factory()
                for f in layout.fields}

    @classmethod
    def _dataclass_twin(cls) -> type:
        """The dataclass the decorator would make of cls's fields, which raises
        cls's call errors and gives its signature. Built at the first call, which
        only a call that does not fit or a signature lookup makes, and kept on cls."""
        twin = cls.__dict__.get("_twin")
        if twin is None:
            cls._twin = twin = make_dataclass(cls.__qualname__, [
                (f.name, f.type, field(default=f.default, default_factory=f.default_factory)) for f in fields(cls)])
        return twin

    @reprlib.recursive_repr()
    def __repr__(self):
        layout = self._layout or self._read_layout()
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in layout.repr_names) + ")")

    def _fields_eq(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = (self._layout or self._read_layout()).compare_names
        return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)

    def _fields_hash(self):
        names = (self._layout or self._read_layout()).hash_names
        return hash(tuple(getattr(self, n) for n in names))

    def _frozen_setattr(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _frozen_delattr(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    __eq__ = _fields_eq
    __hash__ = None
    __signature__ = _TwinSignature()


@dataclass(init=False, repr=False, eq=False)
class NumericsConfig(_Record, frozen=True):
    """The tolerances and steps the curvature pipeline and the checks read.

    fd_step is relative, fd_step * max(1, |(s, t)|), and sets the chart
    stencils of lemma-3-1, thm-3-1, prop-3-1, thm-3-2, minimality-scan and
    affine-normal-compare. A norm's fd_step is relative per row and sets its
    derivatives under jet_source "fd"; a surface's is an absolute (s, t) step
    for FD surface jets; the gauge-only du Hessian uses eps^(1/4).
    richardson is accepted but read by nothing yet. umbilic_tol sets
    PointGeometry.umbilic, whose count over the grid is the umbilicity
    check's umbilic_points.
    newton_max_iter and newton_tol act only on library norms given by their
    gauge alone (the CLI cannot build one), whose Newton stops once the
    gauge's gradient along the plane x . xi = 1 has norm at most newton_tol;
    on FD gauge gradients at step h, newton_tol is floored at 10 eps / h
    (about 2.2e-10 at the default step). Numeric fields must be positive and
    finite (NaN and inf are not), newton_max_iter and quad_nodes integral
    (64.0 is kept as the int 64).
    A report does not record the resolved values: its environment holds the
    config as given, so fields left at their defaults do not appear.
    """

    fd_step: float = 1e-5
    richardson: bool = False
    newton_max_iter: int = 50
    newton_tol: float = 1e-12
    quad_nodes: int = 256
    umbilic_tol: float = 1e-7
    critical_tol: float = 1e-6
    cond_guard: float = 1e8

    def __post_init__(self):
        numeric_fields = (self.fd_step, self.newton_max_iter, self.newton_tol, self.quad_nodes,
                          self.umbilic_tol, self.critical_tol, self.cond_guard)
        if any(not v > 0 for v in numeric_fields):
            raise InvalidParameter("all NumericsConfig numeric fields must be positive")
        if any(v == np.inf for v in numeric_fields):
            raise InvalidParameter("all NumericsConfig numeric fields must be finite")
        for name, v in (("newton_max_iter", self.newton_max_iter), ("quad_nodes", self.quad_nodes)):
            if v != int(v):
                raise InvalidParameter(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.quad_nodes % 2 != 0:
            raise InvalidParameter("quad_nodes must be even (composite Simpson)")

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = NumericsConfig()


def check_jet_options(jet_source, fd_step) -> None:
    """Raise InvalidParameter unless jet_source is "analytic" or "fd" and
    fd_step is finite and positive: the jet options of a norm or a surface."""
    if jet_source not in ("analytic", "fd"):
        raise InvalidParameter(f"unknown jet_source {jet_source!r}")
    if not 0.0 < fd_step < np.inf:
        raise InvalidParameter(f"fd_step must be finite and positive, got {fd_step!r}")


def per_point(fn, point_ndim: int = 0):
    """Adapt fn, a callable of one point, to batches of points.

    A point has point_ndim axes (0 for a chart parameter, 1 for a vector of
    R^n). Called with arguments that carry one more leading axis, the adapter
    calls fn on each point in order and stacks the results, component by
    component when fn returns a tuple; called with single points, it is fn.
    This is how user callables enter the array kernels.
    """

    def batched(*args):
        if np.ndim(args[0]) == point_ndim:
            return fn(*args)
        rows = list(map(fn, *args))
        if rows and isinstance(rows[0], tuple):
            return tuple(np.array(c, dtype=float) for c in zip(*rows))
        return np.array(rows, dtype=float)

    return batched


def in_row_order(batch, n: int):
    """batch(rows) over all n rows, raising what a per-point loop would raise.

    batch takes a slice of the rows. When a batch of more than one row
    raises, the rows are run again one at a time, in order, so the exception
    that escapes is the one of the first failing row, with that row's
    message and location. A batch of one row already is that loop.
    """
    try:
        return batch(slice(None))
    except Exception:
        if n > 1:
            for i in range(n):
                batch(slice(i, i + 1))
        raise


def _field_values(field, X: np.ndarray, finite: bool = True) -> np.ndarray:
    """A batched scalar field on the rows of X, as floats.

    An exception, or a non-finite value unless finite is False (the caller
    then tests the values itself), becomes EvaluationFailure at the first
    row that shows it, in row order.
    """
    try:
        vals = np.asarray(field(X), dtype=float).reshape(len(X))
    except Exception as exc:
        if len(X) > 1:
            for i in range(len(X)):
                _field_values(field, X[i:i + 1], finite)
        raise EvaluationFailure(f"field evaluation failed at {X[0]!r}: {exc}") from exc
    return _require_finite(vals, X) if finite else vals


def _require_finite(vals: np.ndarray, X: np.ndarray) -> np.ndarray:
    """vals, the field values at the rows of X; EvaluationFailure at the first
    row whose value is not finite."""
    finite = np.isfinite(vals)
    if not finite.all():
        raise EvaluationFailure(f"field returned non-finite value at {X[int(np.argmin(finite))]!r}")
    return vals


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis (a stacked matmul, so each row
    rounds exactly as the dot product of that row alone)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _value_or_rows(x):
    """x as a float when it is one value (a quantity at one point), else as it is (one value per row)."""
    return float(x) if np.ndim(x) == 0 else x


def _norm_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean length of each row (of the point, for a single point)."""
    return np.sqrt(_dot(x, x))


def _stack_last(*cols) -> np.ndarray:
    """Arrays of the shape of the first (or floats), stacked along a new last axis."""
    out = np.empty(np.shape(cols[0]) + (len(cols),))
    for k, c in enumerate(cols):
        out[..., k] = c
    return out


def _mat2(a, b, c, d) -> np.ndarray:
    """The 2x2 matrices [[a, b], [c, d]], stacked like a."""
    out = np.empty(np.shape(a) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products over the last axis, computed as numpy.cross computes them."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return _stack_last(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _place(X: np.ndarray, h: np.ndarray, O: np.ndarray) -> np.ndarray:
    """The stencil points x + h o of each row x of X (N, n), with the step h
    of the row, for each offset o (a row of O (m, n)): (N, m, n)."""
    return X[:, None, :] + h[:, None, None] * O


def _central_diff_rows(field, h, P) -> np.ndarray:
    """(field(x + h d) - field(x - h d)) / 2h for each row x, with the step h
    of the row and its points P (N, 2k, n), x + h d, x - h d for each of k
    directions d, in the order the field is evaluated: an (N, k) array."""
    return _central_diffs(_field_values(field, P.reshape(-1, P.shape[2])).reshape(len(P), -1), h)


def _central_diffs(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(f(x + h d) - f(x - h d)) / 2h per row, from each row's values at the
    pairs of points +d, -d, in that order along axis 1; a value may be an
    array (trailing axes), differenced entry by entry."""
    return (f[:, 0::2] - f[:, 1::2]) / (2.0 * h).reshape((-1,) + (1,) * (f.ndim - 1))


def _richardson(d, h, richardson: bool):
    """A central difference d at step h, or with richardson (4 d(h / 2) - d(h)) / 3, O(h^4)."""
    return (4.0 * d(h / 2.0) - d(h)) / 3.0 if richardson else d(h)


@functools.cache
def _gradient_offsets(n: int) -> np.ndarray:
    """+-e_i for each axis i of R^n, as central-difference offsets."""
    offsets = _plus_minus(np.eye(n))
    offsets.flags.writeable = False
    return offsets


def _plus_minus(D: np.ndarray) -> np.ndarray:
    """The offsets +d, -d of each direction d (a row of D), one per row."""
    return np.stack([D, -D], axis=1).reshape(-1, D.shape[1])


def central_diff(field, point, direction, step: float, richardson: bool = False) -> float:
    """Directional derivative (f(p + h d) - f(p - h d)) / 2h, O(h^2), at the absolute step h = step.

    With richardson=True, combines steps h and h/2 for O(h^4):
    (4 D(h/2) - D(h)) / 3.
    """
    X = np.asarray(point, dtype=float)[None]
    offsets = _plus_minus(np.asarray(direction, dtype=float)[None])
    return float(_richardson(lambda h: _central_diff_rows(per_point(field, 1), h, _place(X, h, offsets)),
                             np.array([step]), richardson)[0, 0])


def relative_step(point, step: float):
    """Step scaled by the point's Euclidean size, floored at the absolute step.

    point is one point (giving a float) or rows of points (giving one step per row).
    """
    point = np.asarray(point, dtype=float)
    if point.ndim == 1:
        return step * max(1.0, float(np.sqrt(point @ point)))
    return step * np.maximum(1.0, np.sqrt(_dot(point, point)))


def _along(O: np.ndarray, basis) -> np.ndarray:
    """Offsets O (m, k) as they are, or along each row's basis (N, n, k): the
    points' offsets sum_j o_j b_j, (N, m, n)."""
    return O if basis is None else O @ np.swapaxes(basis, 1, 2)


def gradient_stencil(X, step: float, basis=None) -> tuple[np.ndarray, np.ndarray]:
    """The central-difference gradient stencil of each row x of X (N, n).

    Returns the row's relative step h and its points x + h e_0, x - h e_0,
    ..., x - h e_(n-1), (N, 2n, n), in the order _central_diffs reads their
    values: the chart stencils of distances and blaschke, the FD gauge
    gradients of the Newton solve, fd_gradient_rows (at step / 2 as well,
    with richardson) and _hessian_layout's points after its centre. With
    basis (N, n, k), the directions are each row's k columns b_j instead of
    the e_i, and the differences are the gradients along the plane they span.
    """
    X = np.asarray(X, dtype=float)
    h = relative_step(X, step)
    k = X.shape[1] if basis is None else basis.shape[2]
    return h, _place(X, h, _along(_gradient_offsets(k), basis))


def fd_gradient_rows(field, X, step: float, richardson: bool = False) -> np.ndarray:
    """Central-difference gradients of a batched scalar field at the rows of X.

    field maps (M, n) rows to M values; steps are relative per row.
    """
    X = np.asarray(X, dtype=float)
    return _richardson(lambda step_: _central_diff_rows(field, *gradient_stencil(X, step_)), step, richardson)


def fd_gradient(field, point, step: float, richardson: bool = False) -> np.ndarray:
    """Central-difference gradient of a scalar field on R^n at the relative step step * max(1, |point|)."""
    return fd_gradient_rows(per_point(field, 1), np.asarray(point, dtype=float)[None],
                            step, richardson)[0]


def _mixed(fpp, fpm, fmp, fmm, h):
    """The 4-point cross stencil from its four values."""
    return (fpp - fpm - fmp + fmm) / (4.0 * h**2)


@functools.cache
def _hessian_layout(n: int) -> tuple[np.ndarray, ...]:
    """The second-difference stencil in R^n: its offsets (the centre, then
    gradient_stencil's +-e_i in its order, then e_i + e_j, e_i - e_j,
    -e_i + e_j, -e_i - e_j for each pair i < j in order), the diagonal's
    indices and the pairs' (i, j), which _second_diffs fills."""
    iu, ju = np.triu_indices(n, 1)
    e, f = np.eye(n)[iu], np.eye(n)[ju]
    cross = np.stack([e + f, e - f, -e + f, -e - f], axis=1).reshape(-1, n)
    layout = (np.concatenate([np.zeros((1, n)), _gradient_offsets(n), cross]), np.arange(n), iu, ju)
    for a in layout:
        a.flags.writeable = False
    return layout


def _second_diffs(f: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """Symmetric (N, n, n) second differences, from each row's values f (N, m)
    on _hessian_layout(n) at the step h of the row: (f(x + h e_i) - 2 f(x) +
    f(x - h e_i)) / h^2, and the cross stencil off the diagonal. A value may
    be an array (trailing axes, carried after n x n), differenced entry by entry."""
    _, diag, iu, ju = _hessian_layout(n)
    h = h.reshape((-1,) + (1,) * (f.ndim - 1))
    hess = np.empty(f.shape[:1] + (n, n) + f.shape[2:])
    hess[:, diag, diag] = (f[:, 1:2 * n + 1:2] - 2.0 * f[:, :1] + f[:, 2:2 * n + 1:2]) / h**2
    c = f[:, 2 * n + 1:]
    hess[:, iu, ju] = hess[:, ju, iu] = _mixed(c[:, 0::4], c[:, 1::4], c[:, 2::4], c[:, 3::4], h)
    return hess


def fd_hessian_rows(field, X, step: float, known=None, basis=None) -> np.ndarray:
    """Central-difference Hessians of a batched scalar field at the rows of X, symmetrized.

    Diagonal: (f(x+h e_i) - 2 f(x) + f(x-h e_i)) / h^2.
    Off-diagonal: the standard 4-point cross stencil. Steps are relative per row.
    known (N, 2n + 1), when given, holds each row's values at x and at the
    points gradient_stencil places, x + h e_0, x - h e_0, ..., at the same
    step and basis, the first 2n + 1 of _hessian_layout; only the cross points
    are evaluated, and errors are raised as if all points were. With basis
    (N, n, k), the stencil runs along each row's columns b_j, and the Hessian
    is k x k, B^T Hess B.
    """
    X = np.asarray(X, dtype=float)
    N, d = X.shape
    n = d if basis is None else basis.shape[2]
    h = relative_step(X, step)
    O = _along(_hessian_layout(n)[0], basis)
    if known is None:
        f = _field_values(field, _place(X, h, O).reshape(-1, d)).reshape(N, -1)
    else:
        cross = _field_values(field, _place(X, h, O[..., 2 * n + 1:, :]).reshape(-1, d), finite=False)
        f = np.concatenate([known, cross.reshape(N, -1)], axis=1)
        if not np.isfinite(f).all():
            _require_finite(f.ravel(), _place(X, h, O).reshape(-1, d))
    return _second_diffs(f, h, n)


def fd_hessian(field, point, step: float) -> np.ndarray:
    """Central-difference Hessian of a scalar field on R^n, symmetrized, at the relative step step * max(1, |point|)."""
    return fd_hessian_rows(per_point(field, 1), np.asarray(point, dtype=float)[None], step)[0]


def _cross_stencil(P, X, Y, h) -> np.ndarray:
    """The 4 points P + hX + hY, P + hX - hY, P - hX + hY, P - hX - hY of the
    mixed stencil at each row of P (N, n), with the step h of the row: (N, 4, n)."""
    hX = h[:, None] * np.asarray(X, dtype=float)
    hY = h[:, None] * np.asarray(Y, dtype=float)
    return np.stack([P + hX + hY, P + hX - hY, P - hX + hY, P - hX - hY], axis=1)


def fd_second_directional(field, point, X, Y, step: float) -> float:
    """Second mixed directional derivative X(Y(field)) at point, by the 4-point stencil.

    Exact bilinear pairing X^T Hess(field) Y up to O(step^2); the cross points
    of distances' hess_b stencils are the same. step is absolute.
    """
    P = np.asarray(point, dtype=float)[None]
    h = np.array([float(step)])
    pts = _cross_stencil(P, np.asarray(X, dtype=float)[None], np.asarray(Y, dtype=float)[None], h)
    return float(_mixed(*_field_values(per_point(field, 1), pts[0]), h)[0])


def first_row(bad) -> int | None:
    """Index of the first True entry of a boolean row mask, or None."""
    bad = np.asarray(bad)
    return int(np.argmax(bad)) if bad.any() else None


def _det(M: np.ndarray) -> np.ndarray:
    """Determinants of 2x2 or 3x3 matrices (one, or a stack): ad - bc, or the
    triple product r0 . (r1 x r2) of the rows."""
    if M.shape[-1] == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return _dot(M[..., 0, :], _cross(M[..., 1, :], M[..., 2, :]))


def _near_singular(det, M: np.ndarray, rel: float) -> np.ndarray:
    """Whether |det M| < rel * max(1, max |M_ij|)^2 for 2x2 matrices M (one, or
    a stack) and their determinants det: the test of a numerically singular form."""
    return np.abs(det) < rel * np.maximum(1.0, np.abs(M).max(axis=(-2, -1))) ** 2


def _invert_2x2_spd(M: np.ndarray, what: str) -> np.ndarray:
    """Inverses of 2x2 matrices (one, or a stack); raises for the first singular one."""
    det = _det(M)
    i = first_row(np.ravel(~np.isfinite(det) | _near_singular(det, M, 1e-14)))
    if i is not None:
        raise SingularRestriction(f"{what} is numerically singular (det = {np.ravel(det)[i]:.3e})")
    return _mat2(M[..., 1, 1], -M[..., 0, 1], -M[..., 1, 0], M[..., 0, 0]) / det[..., None, None]


def sym_eigen_2x2(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a symmetric 2x2 matrix, or of a stack of them.

    Returns (eigenvalues ascending, eigenvectors as columns, orthonormal),
    with the stack axes leading.
    """
    C = np.asarray(C, dtype=float)
    a, c, b = C[..., 0, 0], 0.5 * (C[..., 0, 1] + C[..., 1, 0]), C[..., 1, 1]
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), 1.0))
    a_, b_, c_ = a / scale, b / scale, c / scale
    mean = 0.5 * (a_ + b_)
    half_diff = 0.5 * (a_ - b_)
    radius = np.hypot(half_diff, c_)
    vals = _stack_last(scale * (mean - radius), scale * (mean + radius))
    round_ = radius <= 1e-15 * np.maximum(1.0, np.abs(mean))
    # Eigenvector of the larger eigenvalue from the more stable row; a round
    # matrix takes the identity frame.
    up = half_diff >= 0.0
    v2 = _stack_last(np.where(up, half_diff + radius, c_), np.where(up, c_, radius - half_diff))
    v2[round_] = (0.0, 1.0)
    v2 /= np.sqrt(_dot(v2, v2))[..., None]
    v1 = _stack_last(-v2[..., 1], v2[..., 0])
    v1[round_] = (1.0, 0.0)
    return vals, _mat2(v1[..., 0], v2[..., 0], v1[..., 1], v2[..., 1])


def sym_generalized_eigen_2x2(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A x = lambda B x for symmetric A and SPD B (2x2, or stacks of them).

    Reduction by Cholesky of B: with B = L L^T, the problem becomes the
    ordinary symmetric problem (L^-1 A L^-T) y = lambda y, x = L^-T y.
    Returns eigenvalues ascending and eigenvectors as columns, B-orthonormal
    (x_i^T B x_j = delta_ij). Raises NotSPD for the first B that is not SPD.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    b11, b12, b22 = B[..., 0, 0], 0.5 * (B[..., 0, 1] + B[..., 1, 0]), B[..., 1, 1]
    l11 = np.sqrt(np.maximum(b11, 0.0))
    l21 = np.divide(b12, l11, out=np.zeros_like(b12), where=b11 > 0.0)
    rest = b22 - l21**2
    i = first_row(np.ravel((b11 <= 0.0) | (rest <= 0.0)))
    if i is not None:
        raise NotSPD("B[0,0] <= 0" if np.ravel(b11)[i] <= 0.0 else "B is not positive definite")
    l22 = np.sqrt(rest)
    # L = [[l11, 0], [l21, l22]]; C = L^-1 A L^-T computed explicitly.
    a11, a12, a22 = A[..., 0, 0], 0.5 * (A[..., 0, 1] + A[..., 1, 0]), A[..., 1, 1]
    # First solve L M = A for M (forward substitution per column), then C = M L^-T.
    m11 = a11 / l11
    m12 = a12 / l11
    m21 = (a12 - l21 * m11) / l22
    m22 = (a22 - l21 * m12) / l22
    c11 = m11 / l11
    c12 = (m12 - l21 * c11) / l22
    c22 = (m22 - l21 * (m21 / l11)) / l22  # symmetric: c21 = c12
    eigvals, Y = sym_eigen_2x2(_mat2(c11, c12, c12, c22))
    # x = L^-T y: back substitution.
    x2 = Y[..., 1, :] / l22[..., None]
    x1 = (Y[..., 0, :] - l21[..., None] * x2) / l11[..., None]
    return eigvals, _mat2(x1[..., 0], x1[..., 1], x2[..., 0], x2[..., 1])


def simpson_periodic_mean(samples) -> float:
    """Mean of a periodic function over one period from uniform samples.

    samples[k] = f(2 pi k / n), k = 0..n-1 (endpoint not repeated). Composite
    Simpson over n panels; n must be even and >= 4. Exact to roundoff for
    trigonometric polynomials of low degree. Rows of samples (..., n) give the
    mean of each row; a row's sum is a stacked (1, n) @ (n, 1) matmul of a
    contiguous row, so it rounds exactly as that row alone.
    """
    samples = np.ascontiguousarray(np.atleast_1d(samples), dtype=float)
    n = samples.shape[-1]
    if n < 4 or n % 2 != 0:
        raise OddSampleCount(f"need an even sample count >= 4, got {n}")
    weights = np.full(n, 2.0)
    weights[1::2] = 4.0
    # Simpson over [0, 2pi] with f(2pi) = f(0): weight 1+1 folds onto index 0.
    integral = (2.0 * np.pi / n) / 3.0 * (weights @ samples[..., :, None])[..., 0]
    return integral / (2.0 * np.pi)


def _sym_top_eigenvalue_3x3(G: np.ndarray) -> np.ndarray:
    """The largest eigenvalue of each symmetric 3x3 matrix of a stack.

    Smith's trigonometric formula (O. K. Smith, CACM 4 (1961) 168) gives the
    eigenvalues q + 2p cos(phi + 2 pi k / 3) from the invariants of G, with
    cos 3 phi = det B / 2 and B = (G - q I) / p. Where the two largest are the
    closer pair (det B < 0), the invariants fix their
    split only to about sqrt(eps) of the spread, so there the largest is the
    one of G compressed onto the plane orthogonal to the eigenvector of the
    smallest, which is well separated: the longest cross product of two rows
    of G minus that eigenvalue.
    """
    q = np.trace(G, axis1=-2, axis2=-1) / 3.0
    A = G - q[..., None, None] * np.eye(3)
    p = np.sqrt((A * A).sum(axis=(-2, -1)) / 6.0)
    B = A / np.where(p > 0.0, p, 1.0)[..., None, None]
    r = 0.5 * _dot(B[..., 0, :], _cross(B[..., 1, :], B[..., 2, :]))
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    top = q + 2.0 * p * np.cos(phi)
    close = r < 0.0
    if close.any():
        Gc = G[close]
        bottom = (q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0))[close]
        C = Gc - bottom[:, None, None] * np.eye(3)
        cand = np.stack([_cross(C[:, 0], C[:, 1]), _cross(C[:, 0], C[:, 2]), _cross(C[:, 1], C[:, 2])], axis=1)
        u = cand[np.arange(len(C)), np.argmax(_dot(cand, cand), axis=1)]
        u /= _norm_rows(u)[:, None]
        v = _cross(u, np.eye(3)[np.argmin(np.abs(u), axis=1)])
        v /= _norm_rows(v)[:, None]
        P = _stack_last(v, _cross(u, v))
        top[close] = sym_eigen_2x2(np.swapaxes(P, 1, 2) @ Gc @ P)[0][:, 1]
    return top


def _solve(M: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X with M X = B for 2x2 or 3x3 matrices M (one, or a stack) and right
    sides B (n x k, broadcast against M's stack), and the mask of the M that
    are exactly singular, whose X means nothing.

    2x2: Cramer's rule, singular where ad - bc is 0. 3x3: Gaussian
    elimination with partial pivoting (the first largest |entry| of the
    column), then back substitution column by column; singular where a pivot
    is 0. Its error is about eps cond_2, as LAPACK's LU solve's is; a cofactor
    inverse's is not (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 9 and 14). With B the identity, X is the inverse.
    """
    M = np.asarray(M, dtype=float)
    B = np.asarray(B, dtype=float)
    if M.shape[-1] == 2:
        det = _det(M)
        singular = det == 0.0
        det = np.where(singular, 1.0, det)[..., None]
        B0, B1 = B[..., 0, :], B[..., 1, :]
        X = np.stack([(M[..., 1, 1, None] * B0 - M[..., 0, 1, None] * B1) / det,
                      (M[..., 0, 0, None] * B1 - M[..., 1, 0, None] * B0) / det], axis=-2)
        return X, singular
    n = M.shape[-1]
    B = np.broadcast_to(B, M.shape[:-2] + B.shape[-2:])
    # [A | X], eliminated together: the row operations on X are the ones on A
    W = np.concatenate([M.reshape(-1, n, n), B.reshape(-1, n, B.shape[-1])], axis=2)
    rows = np.arange(len(W))
    singular = np.zeros(len(W), dtype=bool)
    for k in range(n):
        if k < n - 1:
            p = k + np.argmax(np.abs(W[:, k:, k]), axis=1)
            W[rows, k], W[rows, p] = W[rows, p], W[rows, k].copy()
        zero = W[:, k, k] == 0.0
        singular |= zero
        W[zero, k, k] = 1.0  # the column below is 0 too: nothing to eliminate
        W[:, k + 1:, k + 1:] -= W[:, k + 1:, k:k + 1] / W[:, k:k + 1, k:k + 1] * W[:, None, k, k + 1:]
    A, X = W[:, :, :n], W[:, :, n:]
    for k in reversed(range(n)):
        X[:, k] /= A[:, k, k, None]
        X[:, :k] -= A[:, :k, k, None] * X[:, None, k]
    return X.reshape(B.shape), singular.reshape(M.shape[:-2])


def _positive_definite(A: np.ndarray) -> bool:
    """Whether the symmetric matrix A is positive definite: every pivot of its
    Cholesky elimination (the leading entry of each Schur complement) is positive."""
    A = np.array(A, dtype=float)
    for k in range(len(A)):
        if not A[k, k] > 0.0:
            return False
        A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:]) / A[k, k]
    return True


def _cond_2(M: np.ndarray, inv: np.ndarray | None = None, singular: np.ndarray | None = None) -> np.ndarray:
    """cond_2 = sigma_max(M) sigma_max(M^-1) of each 2x2 or 3x3 matrix of a stack.

    Each sigma_max^2 is the largest eigenvalue of a Gram matrix, in closed
    form; M^-1 is _solve's, Cramer's rule for 2x2 and the pivoted elimination
    for 3x3, whose relative error is about eps cond_2. A matrix that _solve
    finds exactly singular (a zero determinant or pivot) has cond_2 inf.
    inv and singular, when given, are _solve's inverses of M and their mask.
    """
    if inv is None:
        inv, singular = _solve(M, np.eye(M.shape[-1]))
    top = (lambda G: sym_eigen_2x2(G)[0][..., 1]) if M.shape[-1] == 2 else _sym_top_eigenvalue_3x3
    cond = np.sqrt(top(np.swapaxes(M, -1, -2) @ M) * top(np.swapaxes(inv, -1, -2) @ inv))
    return np.where(singular, np.inf, cond)


def guarded_solve_rows(M: np.ndarray, rhs: np.ndarray, cond_guard: float,
                      locations=None) -> np.ndarray:
    """Solve the stacked systems M[i] x = rhs[i] (rhs[i] a vector or a matrix).

    Raises NumericalFailure, with locations[i] as its location, for the first
    system whose cond_2(M[i]) exceeds the guard or is not finite (an exactly
    singular M[i] has cond_2 inf). 2x2 and 3x3 systems run no LAPACK: cond_2
    is the closed form of _cond_2, whose M^-1 and the solve both come from
    _solve (Cramer's rule for 2x2, pivoted Gaussian elimination for 3x3).
    Larger systems take numpy's SVD-based cond and LU solve.
    """
    M = np.asarray(M, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = M.shape[-1]
    vector = rhs.ndim == M.ndim - 1
    B = rhs[..., None] if vector else rhs
    if n in (2, 3):
        # one elimination gives M^-1 for the guard and the solution
        inv_X, singular = _solve(M, np.concatenate([np.broadcast_to(np.eye(n), M.shape), B], axis=-1))
        cond, X = _cond_2(M, inv_X[..., :n], singular), inv_X[..., n:]
    else:
        cond, X = np.linalg.cond(M), None
    i = first_row(~np.isfinite(cond) | (cond > cond_guard))
    if i is not None:
        raise NumericalFailure(
            f"linear solve rejected: condition number {cond[i]:.3e} exceeds guard {cond_guard:.3e}",
            location=None if locations is None else locations[i],
        )
    if X is None:
        X = np.linalg.solve(M, B)
    return X[..., 0] if vector else X


def guarded_solve(M: np.ndarray, rhs: np.ndarray, cond_guard: float,
                  location: tuple | None = None) -> np.ndarray:
    """Solve M x = rhs, raising NumericalFailure if cond_2(M) exceeds the guard."""
    return guarded_solve_rows(np.asarray(M, dtype=float)[None], np.asarray(rhs, dtype=float)[None],
                              cond_guard, [location])[0]


def _brent(a: float, b: float, xtol: float):
    """Brent's method on the bracket [a, b], step for step as in scipy's brentq
    (relative tolerance 4 eps, at most 100 iterations), as a generator: it
    yields each point where it needs f, is sent f there, and returns the root.

    Raises InvalidParameter when f(a) and f(b) have the same sign.
    """
    xpre, xcur = float(a), float(b)
    fpre = float((yield xpre))
    fcur = float((yield xcur))
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise InvalidParameter(f"f({a}) and f({b}) have the same sign; no bracketed root")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):  # the bracket moves to [xpre, xcur]
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = 0.5 * (xtol + 4.0 * np.finfo(float).eps * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float((yield xcur))
    raise NumericalFailure(f"brentq did not converge in 100 iterations on [{a}, {b}]")


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of f in the bracket [a, b] by Brent's method, step for step as in
    scipy's brentq (relative tolerance 4 eps, at most 100 iterations): the
    bracket as the one row of brentq_rows.

    Raises InvalidParameter when f(a) and f(b) have the same sign.
    """
    return float(brentq_rows(lambda _, x: [f(float(x[0]))], [a], [b], [xtol])[0])


def brentq_rows(f, a, b, xtol, fa=None, fb=None) -> np.ndarray:
    """Roots of f in the brackets [a[i], b[i]], all advanced together by Brent's method.

    Each row takes the steps brentq takes on it alone. f is called once per
    iteration, as f(rows, x) with the indices of the rows still running and
    their points, and returns their values.
    The values at a and b, when given as fa and fb, are not asked of f.
    Raises what solving the rows one at a time, in order, would raise first.
    """
    a, b, xtol = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, xtol)))
    ends = [] if fa is None else [fa, fb]

    def run(rows):
        idx = np.arange(len(a))[rows]
        steps = [_brent(a[i], b[i], xtol[i]) for i in idx]
        x = np.array([next(g) for g in steps])
        roots = np.empty(len(idx))
        live = np.arange(len(idx))
        known = iter(ends)
        while len(live):
            given = next(known, None)
            values = f(idx[live], x[live]) if given is None else np.asarray(given)[idx[live]]
            running = []
            for j, v in zip(live.tolist(), np.asarray(values, dtype=float).tolist()):
                try:
                    x[j] = steps[j].send(v)
                    running.append(j)
                except StopIteration as stop:
                    roots[j] = stop.value
            live = np.array(running, dtype=int)
        return roots

    return in_row_order(run, len(a))


def convergence_order(steps, errors) -> float:
    """Least-squares slope of log|error| against log(step).

    Near-machine-precision errors are floored to avoid -inf; callers should
    pass steps in the truncation-dominated regime.
    """
    steps = np.asarray(steps, dtype=float)
    errors = np.maximum(np.abs(np.asarray(errors, dtype=float)), 1e-300)
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    return float(slope)


# SeedSequence's hash constants (numpy's bit_generator module) and PCG64's
# 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905).
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix: each call xors its uint32 word with the hash
    constant, steps the constant (times mult) and scrambles the word with it."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


class UniformStream:
    """The uniform doubles of numpy's default_rng(entropy), in pure Python.

    entropy is a sequence of non-negative integers. It is hashed into a
    4-word pool as numpy's SeedSequence does, and the pool's
    generate_state(4, uint64) seeds a PCG64 generator (a 128-bit LCG with
    XSL-RR output). uniform(low, high, n) returns the n doubles
    default_rng(entropy).uniform(low, high, n) returns, bit for bit, so the
    stream belongs to this package, not to the installed numpy.
    """

    def __init__(self, entropy):
        words = []
        for v in map(operator.index, entropy):
            if v < 0:
                raise ValueError(f"entropy must be non-negative, got {v}")
            while True:  # least significant uint32 word first; 0 is one word
                words.append(v & _MASK32)
                v >>= 32
                if not v:
                    break
        hashmix = _hashmix(_INIT_A, _MULT_A)
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for w in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(w))

        out = _hashmix(_INIT_B, _MULT_B)
        state = [out(pool[i % 4]) for i in range(8)]
        seed = [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]
        self._inc = (seed[2] << 64 | seed[3]) << 1 & _MASK128 | 1
        self._state = ((seed[0] << 64 | seed[1]) + self._inc) * _PCG_MULT + self._inc & _MASK128

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """n doubles low + (high - low) u, each u the next 53 bits of the stream times 2^-53."""
        low, span = float(low), float(high) - float(low)
        state, inc, out = self._state, self._inc, []
        for _ in range(n):
            state = state * _PCG_MULT + inc & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            rot = state >> 122
            x = (x >> rot | x << (64 - rot)) & _MASK64
            out.append(low + span * ((x >> 11) * 2.0 ** -53))
        self._state = state
        return np.array(out)
