"""The bounded least-squares solver behind every fit, against SciPy's
linear solver and on problems whose answer is known."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vibropol import FitError
from vibropol._lsq import least_squares


def linear(a, b):
    return lambda x: (a @ x - b, a)


def rosenbrock(x):
    r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    return r, np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


TIGHT = dict(ftol=0.0, xtol=1e-15, gtol=1e-13, max_nfev=200, name="test fit")


@st.composite
def bounded_linear_problems(draw):
    """A full-rank A (m x n) with singular values in [0.1, 3], b and a box: each bound is
    drawn across the unconstrained optimum or beyond it, so some are
    active at the solution and some are not."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, n + 5))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    a = np.array(draw(st.lists(unit, min_size=m * n, max_size=m * n))).reshape(m, n)
    assume(np.linalg.svd(a, compute_uv=False).min() >= 0.1)
    b = np.array(draw(st.lists(unit, min_size=m, max_size=m)))
    free = np.linalg.lstsq(a, b, rcond=None)[0]
    offsets = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    lower = free + np.array(draw(st.lists(offsets, min_size=n, max_size=n))) - 0.5
    upper = lower + np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    start = lower + np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))) \
        * (upper - lower)
    return a, b, lower, upper, start


@settings(max_examples=60, deadline=None)
@given(bounded_linear_problems())
def test_linear_problems_match_scipy_lsq_linear(problem):
    import scipy.optimize

    a, b, lower, upper, start = problem
    res = least_squares(linear(a, b), start, lower, upper, **TIGHT)
    ref = scipy.optimize.lsq_linear(a, b, bounds=(lower, upper), method="bvls", tol=1e-14)
    assert res.status > 0
    np.testing.assert_allclose(res.x, ref.x, rtol=0.0, atol=1e-8)
    assert np.all((lower <= res.x) & (res.x <= upper))


@pytest.mark.parametrize(
    "lower, upper, expected",
    [([-2.0, -2.0], [2.0, 2.0], [1.0, 1.0]),  # the free minimum lies inside
     ([-2.0, -1.0], [0.5, 2.0], [0.5, 0.25])],  # x0 held at its upper bound
    ids=["inside", "on-a-bound"],
)
def test_rosenbrock_in_a_box(lower, upper, expected):
    res = least_squares(rosenbrock, [-1.2, 1.0], np.array(lower), np.array(upper), **TIGHT)
    assert res.status > 0
    np.testing.assert_allclose(res.x, expected, atol=1e-8)


def test_start_on_a_bound():
    a, b = np.eye(2), np.array([0.5, 3.0])
    lower, upper = np.zeros(2), np.ones(2)
    # the start sits on both upper bounds: x0 moves inwards to 0.5, x1 stays
    res = least_squares(linear(a, b), upper, lower, upper, **TIGHT)
    assert res.status > 0
    np.testing.assert_allclose(res.x, [0.5, 1.0], atol=1e-12)
    assert res.initial_loss == pytest.approx(0.25 + 4.0)
    # already optimal on the bound: one evaluation, stopped by the gradient
    res = least_squares(linear(a, b), [0.5, 1.0], lower, upper, **TIGHT)
    assert (res.nfev, res.status) == (1, 1)


def test_max_nfev_reached_gives_status_zero():
    res = least_squares(rosenbrock, [-1.2, 1.0], np.full(2, -2.0), np.full(2, 2.0),
                        ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=3, name="test fit")
    assert (res.nfev, res.status) == (3, 0)
    assert np.all(np.isfinite(res.x)) and np.all(np.isfinite(res.fun))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300], ids=["nan", "inf", "loss-overflow"])
def test_non_finite_start_raises_fit_error_naming_the_fit(bad):
    def fun_jac(x):
        return np.array([bad, 1.0]), np.ones((2, 1))

    with pytest.raises(FitError, match="^band fit: .*non-finite at the start"):
        least_squares(fun_jac, [0.5], np.zeros(1), np.ones(1), max_nfev=10, name="band fit")


def test_non_finite_jacobian_at_the_start_raises():
    def fun_jac(x):
        return x - 0.2, np.array([[np.nan]])

    with pytest.raises(FitError, match="coupled-mode fit"):
        least_squares(fun_jac, [0.5], np.zeros(1), np.ones(1), max_nfev=10,
                      name="coupled-mode fit")


def test_non_finite_trial_is_a_rejected_step():
    # r = x - 3 is NaN beyond x = 2.5, so the full step to 3 fails and the
    # solver shortens its steps towards 2.5 instead
    def fun_jac(x):
        r = np.where(x > 2.5, np.nan, x - 3.0)
        return r, np.ones((1, 1))

    res = least_squares(fun_jac, [0.0], np.zeros(1), np.full(1, 10.0), max_nfev=100,
                        name="test fit")
    assert res.x[0] <= 2.5 and res.x[0] == pytest.approx(2.5, abs=1e-6)
    assert np.all(np.isfinite(res.fun))
