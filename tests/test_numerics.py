from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf.errors import InvalidParameter, NotSPD, NumericalFailure, OddSampleCount
from minksurf.numerics import (
    NumericsConfig,
    brentq,
    brentq_rows,
    central_diff,
    convergence_order,
    fd_gradient,
    fd_hessian,
    fd_second_directional,
    guarded_solve,
    simpson_periodic_mean,
    sym_eigen_2x2,
    sym_generalized_eigen_2x2,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_config_defaults_round_trip():
    cfg = NumericsConfig()
    d = cfg.to_dict()
    assert d["fd_step"] == 1e-5
    assert NumericsConfig(**d) == cfg


def test_config_rejects_bad_values():
    with pytest.raises(InvalidParameter):
        NumericsConfig(fd_step=-1e-5)
    with pytest.raises(InvalidParameter):
        NumericsConfig(quad_nodes=7)
    with pytest.raises(InvalidParameter):
        NumericsConfig(newton_max_iter=0)


def test_central_diff_quadratic():
    f = lambda x: float(x[0] ** 2)
    d = central_diff(f, np.array([1.0]), np.array([1.0]), 1e-5)
    assert abs(d - 2.0) < 1e-9


def test_central_diff_linear_exact():
    f = lambda x: 3.0 * x[0] - 2.0 * x[1]
    d = central_diff(f, np.array([0.3, -0.7]), np.array([1.0, 1.0]), 1e-4)
    assert abs(d - 1.0) < 1e-10


def test_richardson_improves_trig_derivative():
    f = lambda x: math.sin(x[0])
    x = np.array([0.9])
    e = np.array([1.0])
    plain = abs(central_diff(f, x, e, 1e-3) - math.cos(0.9))
    rich = abs(central_diff(f, x, e, 1e-3, richardson=True) - math.cos(0.9))
    assert rich < plain / 10.0


def test_fd_gradient_and_hessian_polynomial():
    f = lambda x: x[0] ** 2 * x[1] + x[1] ** 3
    x = np.array([1.2, -0.7])
    g = fd_gradient(f, x, 1e-5)
    assert np.allclose(g, [2 * 1.2 * -0.7, 1.2**2 + 3 * 0.7**2], atol=1e-8)
    H = fd_hessian(f, x, 1e-4)
    assert np.allclose(H, [[2 * -0.7, 2 * 1.2], [2 * 1.2, 6 * -0.7]], atol=1e-5)
    assert np.allclose(H, H.T)


def test_fd_second_directional_quadratic_exact():
    A = np.array([[2.0, 0.5], [0.5, -1.0]])
    f = lambda x: float(x @ A @ x)
    X = np.array([1.0, -2.0])
    Y = np.array([0.3, 0.7])
    got = fd_second_directional(f, np.zeros(2), X, Y, 1e-4)
    assert abs(got - 2.0 * X @ A @ Y) < 1e-7


def test_sym_eigen_identity():
    vals, vecs = sym_eigen_2x2(np.eye(2))
    assert np.allclose(vals, [1.0, 1.0])
    assert np.allclose(vecs @ vecs.T, np.eye(2))


def test_sym_eigen_diagonal():
    vals, vecs = sym_eigen_2x2(np.diag([2.0, 3.0]))
    assert np.allclose(vals, [2.0, 3.0])
    assert np.allclose(np.abs(vecs), np.eye(2))


@given(a=finite, b=finite, c=finite)
@settings(max_examples=100, deadline=None)
def test_sym_eigen_equation(a, b, c):
    A = np.array([[a, b], [b, c]])
    vals, vecs = sym_eigen_2x2(A)
    assert vals[0] <= vals[1] + 1e-12 * max(1.0, abs(vals[1]))
    scale = max(1.0, np.abs(A).max())
    for k in range(2):
        assert np.linalg.norm(A @ vecs[:, k] - vals[k] * vecs[:, k]) < 1e-9 * scale
    assert np.allclose(vecs.T @ vecs, np.eye(2), atol=1e-12)


@given(a=finite, b=finite, c=finite, p=st.floats(min_value=0.2, max_value=5.0),
       q=st.floats(min_value=-0.9, max_value=0.9), r=st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_generalized_eigen_pencil(a, b, c, p, q, r):
    A = np.array([[a, b], [b, c]])
    off = q * math.sqrt(p * r)
    B = np.array([[p, off], [off, r]])
    vals, X = sym_generalized_eigen_2x2(A, B)
    scale = max(1.0, np.abs(A).max(), np.abs(B).max())
    for k in range(2):
        assert np.linalg.norm(A @ X[:, k] - vals[k] * (B @ X[:, k])) < 1e-8 * scale
    assert np.allclose(X.T @ B @ X, np.eye(2), atol=1e-9)


def test_generalized_eigen_matches_scipy():
    from scipy.linalg import eigh

    A = np.array([[1.0, 2.0], [2.0, -0.5]])
    B = np.array([[2.0, 0.4], [0.4, 1.1]])
    vals, _ = sym_generalized_eigen_2x2(A, B)
    assert np.allclose(vals, eigh(A, B, eigvals_only=True), atol=1e-12)


BRENT_CASES = [
    (lambda x: math.cos(x) - x, 0.0, 1.0, 1e-12),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-12),
    (lambda x: math.exp(x) - 10.0, 0.0, 5.0, 1e-10),
    (lambda x: math.tanh(40.0 * (x - 0.3)), -1.0, 2.0, 1e-14),
    (lambda x: math.atan(x - 0.77) + 1e-3 * math.sin(50.0 * x), -3.0, 4.0, 1e-13),
    (lambda x: x - 0.25, 0.25, 1.0, 1e-12),
]


def _row_functions(fs):
    """The batched f of brentq_rows over the scalar functions fs, one per row."""
    return lambda rows, x: np.array([fs[i](xi) for i, xi in zip(rows, x)])


@pytest.mark.parametrize("f, a, b, xtol", BRENT_CASES)
def test_brentq_matches_scipy(f, a, b, xtol):
    from scipy.optimize import brentq as scipy_brentq

    assert abs(brentq(f, a, b, xtol) - scipy_brentq(f, a, b, xtol=xtol)) <= xtol


def test_lockstep_brentq_matches_brentq_bitwise_and_scipy():
    from scipy.optimize import brentq as scipy_brentq

    fs, a, b, xtol = zip(*BRENT_CASES)
    calls = []
    f = _row_functions(fs)
    roots = brentq_rows(lambda rows, x: calls.append(len(rows)) or f(rows, x), a, b, xtol)
    for i, case in enumerate(BRENT_CASES):
        assert roots[i] == brentq(*case)
        assert abs(roots[i] - scipy_brentq(case[0], case[1], case[2], xtol=case[3])) <= case[3]
    # one call per iteration, on the rows still running: the first two calls
    # are the bracket ends of every row, and the active set only shrinks
    assert calls[:2] == [6, 6] and calls == sorted(calls, reverse=True)
    # known values at the bracket ends are not asked for again
    fa = [g(x) for g, x in zip(fs, a)]
    fb = [g(x) for g, x in zip(fs, b)]
    again = []
    ends_known = brentq_rows(lambda rows, x: again.append(len(rows)) or f(rows, x),
                             a, b, xtol, fa, fb)
    assert ends_known.tolist() == roots.tolist()
    assert len(again) == len(calls) - 2


def test_brentq_rejects_bracket_without_sign_change():
    with pytest.raises(InvalidParameter):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(InvalidParameter):
        brentq(lambda x: x - 3.0, 0.0, 1.0, 1e-12)


def test_lockstep_brentq_rejects_a_row_without_sign_change():
    fs = [lambda x: x - 0.5, lambda x: x * x + 1.0, lambda x: x - 0.25]
    with pytest.raises(InvalidParameter, match="same sign"):
        brentq_rows(_row_functions(fs), [0.0] * 3, [1.0] * 3, 1e-12)


def test_lockstep_brentq_raises_what_the_row_loop_raises_first():
    # Row 1 fails at its first point, row 0 only inside its bracket: in
    # lockstep row 1 fails first, but a loop over the rows reaches row 0's
    # failure before it starts row 1.
    def row0(x):
        if 0.0 < x < 1.0:
            raise ValueError("row 0")
        return x - 0.5

    def row1(x):
        raise ValueError("row 1")

    fs = [row0, row1]
    with pytest.raises(ValueError, match="row 0"):
        brentq(row0, 0.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="row 0"):
        brentq_rows(_row_functions(fs), [0.0, 0.0], [1.0, 1.0], 1e-12)


def test_generalized_eigen_rejects_indefinite():
    with pytest.raises(NotSPD):
        sym_generalized_eigen_2x2(np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(NotSPD):
        sym_generalized_eigen_2x2(np.eye(2), np.diag([-1.0, 1.0]))


def test_simpson_constant():
    assert simpson_periodic_mean(np.ones(16)) == pytest.approx(1.0, abs=1e-15)


def test_simpson_exact_for_degree_two():
    l1, l2 = 0.7, -1.9
    th = 2 * np.pi * np.arange(8) / 8
    samples = l1 * np.cos(th) ** 2 + l2 * np.sin(th) ** 2
    assert simpson_periodic_mean(samples) == pytest.approx((l1 + l2) / 2, abs=1e-14)


def test_simpson_rejects_odd_or_tiny():
    with pytest.raises(OddSampleCount):
        simpson_periodic_mean(np.ones(7))
    with pytest.raises(OddSampleCount):
        simpson_periodic_mean(np.ones(2))


def test_guarded_solve_flags_ill_conditioned():
    M = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    with pytest.raises(NumericalFailure):
        guarded_solve(M, np.ones(2), cond_guard=1e8, location="here")
    out = guarded_solve(np.eye(2), np.array([3.0, 4.0]), cond_guard=1e8)
    assert np.allclose(out, [3.0, 4.0])


def test_convergence_order_synthetic():
    steps = np.array([1e-2, 5e-3, 2.5e-3])
    errs = 3.0 * steps**2
    assert convergence_order(steps, errs) == pytest.approx(2.0, abs=1e-6)
