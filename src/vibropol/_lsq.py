"""Bounded nonlinear least squares, the one solver behind every fit.

Minimizes ||r(x)||^2 over the box lower <= x <= upper by projected
Levenberg-Marquardt.  `fun_jac(x)` returns the residuals r (m) and their
Jacobian J (m x n) from one evaluation, J in either memory order.  The
solver works on a C-contiguous J^T, one row per variable, so it is
fastest when J is the transpose of a C-contiguous (n, m) array: J^T is
then J's own memory, and each sum over the residuals reads it
contiguously.  Any other J is copied into that layout, so the steps do
not depend on J's memory order.  Each iteration solves the damped
normal equations with Marquardt's scaling, the running maximum of J's
column norms (More, Lecture Notes in Math. 630, 105 (1978)), holding the
variables that sit on a bound the gradient pushes against, and clips
the step into the box (Kanzow, Yamashita & Fukushima, J. Comput. Appl.
Math. 172, 375 (2004)).  A gain-ratio test accepts the step and sets
the damping by Nielsen's rule (IMM-REP-1999-05, DTU).

The stopping rules are those of scipy.optimize.least_squares, and so is
the status: 1 when the gradient over the free variables is below gtol,
2 when an accepted step lowered the loss by less than ftol of it with a
gain ratio above 0.25, 3 when the step is below xtol (xtol + ||x||), 4
for both 2 and 3, and 0 when max_nfev evaluations ran out.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError

# the smallest damping, so that the normal matrix stays regular for a
# Jacobian with a zero column, and the scale of the loss's round-off
_EPS = float(np.finfo(float).eps)
# the first damping, relative to the scaled normal matrix's unit diagonal:
# Nielsen gives 1e-6 for a start near the solution and 1 for a poor one,
# and most starts of a fit are random draws over the whole box
_MU0 = 0.1


@dataclass(frozen=True)
class Solution:
    """A solve's end point; status as in the module docstring."""

    x: np.ndarray
    fun: np.ndarray  # the residuals at x
    nfev: int
    status: int
    initial_loss: float  # ||r(x0)||^2


def _evaluate(fun_jac, x):
    """(r, J, loss, ok): ok is False when r, J or the loss is not finite."""
    r, jac = fun_jac(x)
    loss = float(r @ r)
    return r, jac, loss, math.isfinite(loss) and bool(np.isfinite(jac).all())


def least_squares(fun_jac, x0, lower, upper, *, max_nfev, name, ftol=1e-8, xtol=1e-8,
                  gtol=1e-8):
    """Solution of the bounded problem from x0, a point inside the box.
    Raises FitError naming the fit `name` when the residuals, their
    Jacobian or the loss is not finite at x0; at a trial point that
    counts as a rejected step.  Overflow warnings are off throughout: a
    non-finite value is one of these outcomes, or a norm of x so large
    that any step meets xtol."""
    with np.errstate(all="ignore"):
        x = np.array(x0, dtype=float)
        r, jac, loss, ok = _evaluate(fun_jac, x)
        if not ok:
            raise FitError(f"{name}: the residuals, their Jacobian or the loss is non-finite "
                           "at the start")
        initial_loss, nfev, status = loss, 1, 0
        scale, mu, nu = np.zeros(x.size), _MU0, 2.0
        while True:
            # the scaled problem on the rows of J^T, one C-contiguous layout
            # for either order of J, so both take the same steps: every row
            # of js has norm <= 1
            jt = np.ascontiguousarray(jac.T)
            scale = np.maximum(scale, np.sqrt(np.add.reduce(jt * jt, axis=1)))
            s = np.where(scale > 0.0, scale, 1.0)
            js = jt / s[:, None]
            gs = js @ r
            grad = gs * s
            free = ~(((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0)))
            if np.abs(grad[free]).max(initial=0.0) < gtol:
                status = 1
                break
            if nfev >= max_nfev:
                break
            f = np.flatnonzero(free)
            jf = js[f]
            normal = jf @ jf.T
            normal.flat[::f.size + 1] += mu
            step = np.zeros_like(x)
            step[f] = np.linalg.solve(normal, -gs[f]) / s[f]
            # the scaled Jacobian is not held across the trial evaluation
            del js, jf
            x_new = np.minimum(np.maximum(x + step, lower), upper)
            step = x_new - x
            r_new, jac_new, loss_new, ok = _evaluate(fun_jac, x_new)
            nfev += 1
            jstep = step @ jt
            predicted = -(2.0 * (r @ jstep) + jstep @ jstep)
            # ||r||^2 - ||r_new||^2 summed term by term: no cancellation
            # where residuals the step cannot change dominate the loss
            actual = float((r - r_new) @ (r + r_new)) if ok else -np.inf
            if predicted <= 0.0:
                rho = -1.0
            elif abs(actual - predicted) <= 4.0 * _EPS * loss:
                rho = 1.0  # a gain lost in the loss's round-off: trust the model
            else:
                rho = actual / predicted
            ftol_met = actual < ftol * loss and rho > 0.25
            xtol_met = math.sqrt(step @ step) < xtol * (xtol + math.sqrt(x @ x))
            if rho > 0.0:
                x, r, jac, loss = x_new, r_new, jac_new, loss_new
                # 1 - (2 rho - 1)^3 <= 0 from rho = 1 on, so rho is capped there
                mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3), _EPS)
                nu = 2.0
            else:
                mu, nu = mu * nu, 2.0 * nu
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
    return Solution(x=x, fun=r, nfev=nfev, status=status, initial_loss=initial_loss)
