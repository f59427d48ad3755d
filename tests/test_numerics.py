from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cond_by_svd, fd_hessian_rows_by_pairs

from minksurf.errors import (EvaluationFailure, InvalidParameter, NotSPD, NumericalFailure, OddSampleCount,
                             SingularRestriction)
from minksurf.numerics import (
    NumericsConfig,
    UniformStream,
    brentq,
    brentq_rows,
    central_diff,
    convergence_order,
    fd_gradient,
    fd_hessian,
    fd_hessian_rows,
    fd_second_directional,
    _cond_2,
    _invert_2x2_spd,
    _near_singular,
    gradient_stencil,
    relative_step,
    guarded_solve,
    guarded_solve_rows,
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


@pytest.mark.parametrize("name", ["fd_step", "newton_max_iter", "newton_tol", "quad_nodes",
                                  "umbilic_tol", "critical_tol", "cond_guard"])
def test_config_rejects_non_finite_and_non_integral_values(name):
    """Every numeric field refuses NaN and +-inf (inf was taken), and the
    integer fields refuse non-integral values (2.5 was taken, and stopped a
    gauge-only Newton solve with a TypeError); 64.0 is kept as the int 64."""
    for bad, words in ((math.nan, "must be positive"), (-math.inf, "must be positive"),
                       (math.inf, "must be finite")):
        with pytest.raises(InvalidParameter, match=words):
            NumericsConfig(**{name: bad})
    if name in ("newton_max_iter", "quad_nodes"):
        with pytest.raises(InvalidParameter, match=f"{name} must be an integer"):
            NumericsConfig(**{name: 2.5})
        value = getattr(NumericsConfig(**{name: 64.0}), name)
        assert value == 64 and type(value) is int


def test_a_2x2_form_is_singular_below_rel_times_its_squared_scale():
    """|det M| < rel * max(1, max |M_ij|)^2, for one form or a stack; the
    inverse refuses the first such form, and a non-finite determinant."""
    M = np.array([[[1.0, 0.0], [0.0, 9e-15]], [[4.0, 0.0], [0.0, 3e-15]],
                  [[4.0, 0.0], [0.0, 5e-14]], [[0.5, 0.0], [0.0, 2e-14]]])
    det = M[:, 0, 0] * M[:, 1, 1]  # against 1e-14 times 1, 16, 16 and 1
    assert _near_singular(det, M, 1e-14).tolist() == [True, True, False, False]
    assert _near_singular(det, M, 1e-10).all()
    assert bool(_near_singular(det[2], M[2], 1e-14)) is False
    with pytest.raises(SingularRestriction, match=r"form is numerically singular \(det = 1\.200e-14\)"):
        _invert_2x2_spd(M[1:], "form")
    with pytest.raises(SingularRestriction, match=r"det = nan"):
        _invert_2x2_spd(np.array([[np.nan, 0.0], [0.0, 1.0]]), "form")
    assert np.array_equal(_invert_2x2_spd(M[2:4], "form") @ M[2:4], np.broadcast_to(np.eye(2), (2, 2, 2)))


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


def _smooth_field(X):
    """A batched field on R^n whose Hessian has no zero entry."""
    return np.exp(0.3 * X[:, 0]) * np.cos(X[:, 1]) + (X**3).sum(axis=1) / 3.0 + X[:, 0] * X[:, -1]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _known(field, X, step):
    """Each row's values at x and at its gradient stencil, fd_hessian_rows' known layout."""
    P = gradient_stencil(X, step)[1]
    return np.concatenate([field(X)[:, None], field(P.reshape(-1, X.shape[1])).reshape(len(X), -1)], axis=1)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fd_hessian_rows_equals_the_loop_over_pairs_bitwise(n, rows):
    """The Hessian assembled from the cached layout is the per-pair loop's, bit
    for bit, with and without known values, and fails where the loop fails,
    with the same exception and message."""
    X = np.random.default_rng(10 * n + rows).uniform(-2.0, 2.0, (rows, n))
    X[0] *= 0.2  # a row inside the unit ball takes the absolute step
    # the first cross point, x + h (e_0 + e_1), of the last row
    cross = X[-1] + relative_step(X, 1e-4)[-1] * (np.eye(n)[0] + np.eye(n)[1])

    def raising(Y):
        if (Y == cross).all(axis=1).any():
            raise ValueError("no value here")
        return _smooth_field(Y)

    def infinite(Y):
        return np.where((Y == cross).all(axis=1), np.inf, _smooth_field(Y))

    for step in (1e-4, 1e-3):
        known = _known(_smooth_field, X, step)
        for args in ((X, step), (X, step, known)):
            got = fd_hessian_rows(_smooth_field, *args)
            assert np.array_equal(got, fd_hessian_rows_by_pairs(_smooth_field, *args))
            assert np.array_equal(got, np.swapaxes(got, 1, 2))
    # at the first row a linear field reads about 2 at x + h e_i and 1e-20 or
    # roundoff at x - h e_i: (f+ - 2f) + f- keeps that value, (f- - 2f) + f+
    # rounds it away, so the diagonal's operand order shows in the bits
    h = relative_step(X, 1e-4)[0]

    def steep(Y):
        return (1.0 + (Y - X[0]).sum(axis=1) / h) + 1e-20

    for args in ((X, 1e-4), (X, 1e-4, _known(steep, X, 1e-4))):
        assert np.array_equal(fd_hessian_rows(steep, *args), fd_hessian_rows_by_pairs(steep, *args))
    known = _known(_smooth_field, X, 1e-4)
    bad_centre = known.copy()
    bad_centre[-1, 0] = np.nan
    for field, args in ((raising, ()), (raising, (known,)), (infinite, ()), (infinite, (known,)),
                        (_smooth_field, (bad_centre,))):
        got = _outcome(fd_hessian_rows, field, X, 1e-4, *args)
        want = _outcome(fd_hessian_rows_by_pairs, field, X, 1e-4, *args)
        assert isinstance(want, EvaluationFailure)
        assert type(got) is type(want) and str(got) == str(want)


def test_fd_stencils_along_a_basis_difference_the_field_on_its_plane():
    """With a basis B per row, gradient_stencil and fd_hessian_rows difference
    the field along B's columns: a quadratic's B^T grad and B^T Hess B, to
    roundoff, and the Hessian from the gradient stencil's values as known
    equals the one that evaluates all 9 points, bit for bit."""
    rng = np.random.default_rng(4)
    Q = rng.normal(size=(3, 3))
    Q = Q + Q.T
    c = rng.normal(size=3)

    def quadratic(Y):
        return 0.5 * np.einsum("ni,ij,nj->n", Y, Q, Y) + Y @ c

    X = rng.uniform(-2.0, 2.0, (6, 3))
    B = np.linalg.qr(rng.normal(size=(6, 3, 3)))[0][:, :, :2]
    h, P = gradient_stencil(X, 1e-3, B)
    values = quadratic(P.reshape(-1, 3)).reshape(6, 4)
    grad = (values[:, 0::2] - values[:, 1::2]) / (2.0 * h[:, None])
    assert np.allclose(grad, np.einsum("nik,ni->nk", B, X @ Q + c), rtol=0, atol=1e-9)
    hess = fd_hessian_rows(quadratic, X, 1e-3, None, B)
    assert np.allclose(hess, np.swapaxes(B, 1, 2) @ Q @ B, rtol=0, atol=1e-7)
    known = np.concatenate([quadratic(X)[:, None], values], axis=1)
    assert np.array_equal(fd_hessian_rows(quadratic, X, 1e-3, known, B), hess)


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


def test_brentq_asks_a_raising_f_no_point_twice():
    calls = []

    def f(x):
        calls.append(x)
        if len(calls) == 5:
            raise ValueError("no value here")
        return x**3 - 2.0

    with pytest.raises(ValueError, match="no value here"):
        brentq(f, 0.0, 3.0, 1e-12)
    assert len(calls) == len(set(calls)) == 5


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


EPS = np.finfo(float).eps


def _condition_stack(kind: str, n: int, N: int = 2000) -> np.ndarray:
    """N matrices n x n: Gaussian, Gaussian with rows scaled by 1e-3 to 1e3,
    ill-conditioned (singular values 1 down to 1e-13), or with a repeated
    largest or smallest singular value, as the frame [f_s, f_t, eta] of a
    Euclidean sphere has."""
    rng = np.random.default_rng([n, len(kind)])
    if kind == "random":
        return rng.standard_normal((N, n, n))
    if kind == "scaled":
        return rng.standard_normal((N, n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (N, n, 1))
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((N, n, n)))[0] for _ in range(2))
    sv = np.ones((N, n))
    if kind == "ill-conditioned":
        sv[:, 1:] = 10.0 ** -rng.uniform(0.0, 13.0, (N, n - 1))
    elif kind == "repeated-largest":
        sv[:, -1] = 10.0 ** -rng.uniform(0.0, 6.0, N)
    else:
        sv[:, 0] = 10.0 ** rng.uniform(0.0, 6.0, N)
    return Q1 @ (sv[:, :, None] * Q2)


CONDITION_KINDS = ["random", "scaled", "ill-conditioned", "repeated-largest", "repeated-smallest"]


@pytest.mark.parametrize("kind", CONDITION_KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_condition_number_matches_the_svd(n, kind):
    # Smith's formula alone reads 4.5e-9 relative on repeated-largest 3x3
    # stacks; the 2x2 compression of _sym_top_eigenvalue_3x3 brings them
    # within a few eps * cond, like the others.
    M = _condition_stack(kind, n)
    ref = cond_by_svd(M)
    assert (np.abs(_cond_2(M) - ref) <= 100.0 * EPS * ref * ref).all()


@pytest.mark.parametrize("guard", [1e2, 1e8, 1e12])
@pytest.mark.parametrize("n", [2, 3])
def test_guard_verdicts_equal_the_svd_ones(n, guard):
    M = np.concatenate([_condition_stack(kind, n) for kind in CONDITION_KINDS])
    rejected = cond_by_svd(M) > guard
    assert 0 < rejected.sum() < len(M)
    mismatch = np.flatnonzero((_cond_2(M) > guard) != rejected)
    assert mismatch.size == 0, mismatch
    locations = [(i, -i) for i in range(len(M))]
    with pytest.raises(NumericalFailure) as failure:
        guarded_solve_rows(M, np.ones((len(M), n)), guard, locations)
    assert failure.value.location == locations[int(np.argmax(rejected))]


@pytest.mark.parametrize("singular", [
    [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]],   # a zero LU pivot
    [[1.0, 0.0, 3.0], [2.0, 0.0, 6.0], [1.0, 0.0, 1.0]],   # a zero column
    [[1.0, 2.0], [2.0, 4.0]],
    [[0.0, 0.0], [0.0, 0.0]],
], ids=["3x3-zero-pivot", "3x3-zero-column", "2x2-rank-one", "2x2-zero"])
def test_a_singular_row_fails_at_its_own_index(singular):
    singular = np.array(singular)
    n = len(singular)
    M = np.repeat(np.eye(n)[None], 5, axis=0) + 0.1 * np.arange(5)[:, None, None]
    M[3] = singular
    with pytest.raises(NumericalFailure) as failure:
        guarded_solve_rows(M, np.ones((5, n)), 1e8, ["a", "b", "c", "d", "e"])
    assert failure.value.location == "d"
    assert "condition number inf exceeds guard 1.000e+08" in str(failure.value)
    ok = np.delete(M, 3, axis=0)
    assert np.array_equal(guarded_solve_rows(ok, np.ones((4, n)), 1e8),
                          np.linalg.solve(ok, np.ones((4, n, 1)))[..., 0])


def test_a_4x4_stack_still_solves_and_is_guarded():
    rng = np.random.default_rng(4)
    M = np.eye(4) + 0.2 * rng.standard_normal((6, 4, 4))
    rhs = rng.standard_normal((6, 4))
    assert np.array_equal(guarded_solve_rows(M, rhs, 1e8), np.linalg.solve(M, rhs[..., None])[..., 0])
    M[2] = np.diag([1.0, 1.0, 1.0, 1e-10])
    with pytest.raises(NumericalFailure) as failure:
        guarded_solve_rows(M, rhs, 1e8, list(range(6)))
    assert failure.value.location == 2
    assert "condition number 1.000e+10" in str(failure.value)


def test_convergence_order_synthetic():
    steps = np.array([1e-2, 5e-3, 2.5e-3])
    errs = 3.0 * steps**2
    assert convergence_order(steps, errs) == pytest.approx(2.0, abs=1e-6)


# Seeds the config schema allows (any integer >= 0; from 2**32 on a seed is
# several uint32 words of entropy), each with every registry index.
STREAM_SEEDS = [0, 1, 1234, 377910076, 2**31 - 1, 2**32, 2**70, 2**200]
# The draws of the random-point checks, in call order: thm-3-2's three
# centre offsets, then point axes and angles of 10, 40, 50 and 100 draws.
CHECK_DRAWS = [(-0.3, 0.3, 3)] * 3 + [
    (0.3, 2.8, 10), (0.1, 2.0 * math.pi, 10),
    (0.3, 2.0 * math.pi, 40), (0.1, 2.0 * math.pi, 40), (0.0, 2.0 * math.pi, 40),
    (-1.0, 1.0, 50), (0.1, 6.183185307179586, 50),
    (0.3, 2.8, 100), (0.1, 6.183185307179586, 100), (0.0, 2.0 * math.pi, 100),
]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_uniform_stream_draws_the_doubles_of_numpys_default_rng(seed):
    for index in range(15):
        ours, numpys = UniformStream([seed, index]), np.random.default_rng([seed, index])
        for low, high, n in CHECK_DRAWS:
            got, want = ours.uniform(low, high, n), numpys.uniform(low, high, n)
            assert got.dtype == want.dtype and got.shape == want.shape == (n,)
            assert got.tobytes() == want.tobytes(), (seed, index, low, high, n)


def test_uniform_stream_takes_non_negative_integers_only():
    with pytest.raises(ValueError):
        UniformStream([-1, 0])
    with pytest.raises(TypeError):
        UniformStream([1.5, 0])
