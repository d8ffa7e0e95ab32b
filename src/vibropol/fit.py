"""Least-squares fitting of stack parameters against measured spectra.

Free parameters address pieces of a LayerStack through dotted paths,
and these five forms are the whole grammar:

    layers[1].thickness
    materials.pvac.eps_b
    materials.pvac.oscillators[0].f       (also .k0, .gamma)
    materials.gold.damping_multiplier     (also .omega_p, .f0, .gamma0)
    materials.window.eps                  (constant media, real part)

Indices carry no leading zeros.  Properties and container fields, such
as a metal's gamma_total or bound, are not paths, and a FitProblem
rejects a path listed twice.

Each path has box bounds; internally every parameter is scaled to [0, 1]
by its bound width so the optimizer sees O(1) variables.  The optimizer
is the package's projected Levenberg-Marquardt solver, `_lsq`.  The
model is evaluated exactly on the wavenumbers of the target data.

The Jacobian is exact for all five forms: the stack kernel carries
forward-mode tangents through the same pass that computes the model,
one real direction per free thickness and one complex direction per
material that holds a free parameter, and each material path contributes
its closed-form d eps / d p.  No finite differences are taken.

Every public call resolves the paths once, for all its kernel passes,
and groups them by the layer or material they set: that one grouping
gives each evaluation's writes, each material's requested d eps / d p,
the kernel's tangent directions, by the same keys, and the Jacobian's
columns.  The call also evaluates the template's permittivities and the
grid and angle terms of the kernel once, and refuses a template whose
eps overflows as `stack_response` does.  Each evaluation then writes
the values into a working copy, builds each touched layer and material
and one LayerStack, so every constructor's check still runs, evaluates a
touched material's eps and d eps / d p from one set of denominators, and
runs the kernel once.  That eps and d eps / d p, and every grid-sized
value of the kernel pass, go into arrays that the call allocates on its
first evaluation and reuses for all later ones; only the model and the
Jacobian handed to the solver are new arrays.  The Jacobian, shape
(nk, n_free), is parameter-major (the transpose of a C-contiguous
(n_free, nk) array), so the solver's per-parameter sums over the grid
read contiguous memory.  An evaluation's working memory is then a small
multiple of one complex array on the grid, so a solve neither grows nor
trims the heap from one evaluation to the next.
The template's loss comes from start 0's first evaluation, so every
kernel pass of a solve is counted in n_evaluations.
A solve takes a non-finite trial point as a rejected step; the public
evaluators raise DomainError naming the values instead.  Nothing is
cached on a FitProblem, so each call checks a problem changed since
construction as if it were new.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from ._lsq import least_squares
from .errors import DomainError, _check_choice, _check_range
from .materials import ConstantMedium, DrudeLorentzMetal, LorentzMedium
from .stack import CHANNELS, FreeParameter, LayerStack, _check_angle, _check_polarization
from .tmm import _K_TO_RAD_NM, _Work, _media, _response, _sin2

# indices are written without leading zeros, so that equal parameters
# have equal path strings
_INDEX = r"\[(0|[1-9]\d*)\]"
_LAYER_RE = re.compile(rf"^layers{_INDEX}\.thickness$")
_MAT_FIELD_RE = re.compile(r"^materials\.([A-Za-z_]\w*)\.([A-Za-z_]\w*)$")
_OSC_RE = re.compile(rf"^materials\.([A-Za-z_]\w*)\.oscillators{_INDEX}\.(f|k0|gamma)$")

# material fields that dataclasses.replace sets directly
_FIELDS = {
    LorentzMedium: ("eps_b",),
    DrudeLorentzMetal: ("omega_p", "f0", "gamma0", "damping_multiplier"),
}


def _locate(stack, path):
    """Resolve one parameter path against a stack.

    Returns (value, key, field): the value behind the path; key, the layer
    index of a thickness or the name of a material; and field, what the
    path sets in that layer or material: ("thickness",), (f,) for a
    material field f such as ("eps_b",) or ("eps",) (a constant medium's
    real part), or (f, j) for field f of oscillators[j].  Raises
    DomainError for a path outside the grammar of the module docstring or
    one the stack does not hold."""
    m = _LAYER_RE.match(path)
    if m:
        i = int(m.group(1))
        if i >= len(stack.layers):
            raise DomainError(f"layer index out of range in {path!r}")
        return stack.layers[i].thickness, i, ("thickness",)

    m = _OSC_RE.match(path) or _MAT_FIELD_RE.match(path)
    if m is None:
        raise DomainError(f"unrecognized parameter path {path!r}")
    name, fld = m.group(1), m.groups()[-1]
    if name not in stack.materials:
        raise DomainError(f"unknown material {name!r} in parameter path")
    mat = stack.materials[name]
    if m.re is _OSC_RE:
        j = int(m.group(2))
        if not isinstance(mat, LorentzMedium) or j >= len(mat.oscillators):
            raise DomainError(f"{path!r} does not address a Lorentz oscillator")
        return getattr(mat.oscillators[j], fld), name, (fld, j)
    if isinstance(mat, ConstantMedium) and fld == "eps":
        return mat.eps.real, name, (fld,)
    if fld in _FIELDS.get(type(mat), ()):
        return getattr(mat, fld), name, (fld,)
    raise DomainError(f"{path!r} does not address a fittable field")


def _rebuild(part, updates):
    """A layer or material with the {field: value} updates of `_locate`
    applied.  The part and each oscillator it changes are constructed
    once, so their checks run once."""
    if isinstance(part, ConstantMedium):
        return ConstantMedium(complex(updates[("eps",)], part.eps.imag))
    kwargs, oscillators = {}, {}
    for field, value in updates.items():
        if len(field) == 2:
            oscillators.setdefault(field[1], {})[field[0]] = value
        else:
            kwargs[field[0]] = value
    if oscillators:
        osc = list(part.oscillators)
        for j, new in oscillators.items():
            osc[j] = replace(osc[j], **new)
        kwargs["oscillators"] = tuple(osc)
    return replace(part, **kwargs)


def _build(stack, writes):
    """One new LayerStack with writes applied: writes maps each key of
    `_locate` to the {field: value} updates of that layer or material."""
    layers, materials = list(stack.layers), dict(stack.materials)
    for key, updates in writes.items():
        if isinstance(key, str):
            materials[key] = _rebuild(materials[key], updates)
        else:
            layers[key] = _rebuild(layers[key], updates)
    return replace(stack, layers=tuple(layers), materials=materials)


def apply_params(stack, updates):
    """New LayerStack with the path -> value updates applied."""
    writes = {}
    for path, value in updates.items():
        _, key, field = _locate(stack, path)
        writes.setdefault(key, {})[field] = float(value)
    return _build(stack, writes)


@dataclass
class FitProblem:
    """Target data plus the stack template and its free parameters."""

    stack: LayerStack
    free: tuple[FreeParameter, ...]
    k: np.ndarray
    target: np.ndarray
    channel: str = "T"
    angle: float = 0.0
    polarization: str = "s"

    def __post_init__(self):
        self.free = tuple(self.free)
        self.k = np.asarray(self.k, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        if self.k.ndim != 1 or self.k.shape != self.target.shape:
            raise DomainError("k and target must be 1-D arrays of equal length")
        for name in ("k", "target"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"fit {name} must hold finite values only")
        if np.any(self.k <= 0) or np.any(np.diff(self.k) <= 0):
            raise DomainError("target wavenumbers must be positive and increasing")
        _check_choice(self.channel, "fit channel", CHANNELS)
        _check_angle(self.angle)
        _check_polarization(self.polarization)
        seen = set()
        for p in self.free:
            if p.path in seen:
                raise DomainError(f"free parameter path {p.path!r} is listed more than once")
            seen.add(p.path)
            _, key, field = _locate(self.stack, p.path)
            # a box reaching outside the parameter's domain fails here, not mid-fit
            for name, bound in (("lower", p.lower), ("upper", p.upper)):
                try:
                    _build(self.stack, {key: {field: bound}})
                except DomainError as err:
                    raise DomainError(
                        f"{name} bound {bound!r} of {p.path!r} is outside its domain: {err}"
                    ) from err

    def params_dict(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self.free),):
            raise DomainError("expected one value per free parameter")
        return {p.path: float(v) for p, v in zip(self.free, values)}


def _checked(problem, values, what, result):
    """result(model, residuals, jacobian) of one `_Plan` pass at values,
    for the public evaluators: overflow warnings are off, and a result
    that is not finite raises DomainError naming `what` and the values."""
    plan = _Plan(problem)
    with np.errstate(all="ignore"):
        model, jac = plan.model(values)
        out = result(model, model - plan.problem.target, jac)
    if not np.isfinite(out).all():
        raise DomainError(f"{what} is not finite at {plan.problem.params_dict(values)}")
    return out


def model_values(problem, values):
    """Model channel evaluated on the target grid for the given parameter
    values (physical units, ordered like problem.free)."""
    return _checked(problem, values, "the model", lambda model, res, jac: model)


def residual_vector(problem, values):
    """(model - target) on the target grid."""
    return _checked(problem, values, "the residual vector", lambda model, res, jac: res)


def loss_value(problem, values):
    """Sum of squared residuals."""
    return float(_checked(problem, values, "the loss", lambda model, res, jac: res @ res))


class _Plan:
    """A problem's free parameters resolved against its stack and grid
    once, for the kernel passes of one solve.  The plan holds the
    problem's pieces as they were when it was made, so it lives no longer
    than the one public call that evaluates through it.

    `groups` maps each key of `_locate` (a layer index or a material
    name) to the (column, field) of its free parameters, keys in order of
    first appearance.  Each key is one kernel direction, a unit row in
    `directions` under the same key.  A pass writes each key's values into
    a working copy, builds each touched layer and material and one
    LayerStack, evaluates the eps and the d eps / dp of each free
    material's fields from one set of denominators over the template's
    `media` (a material no medium is made of is skipped: its column is 0),
    runs the kernel along the directions and fills each parameter's column
    from its key's sensitivity.

    The plan owns the arrays that every pass rewrites: `work`, the
    kernel's work arrays (`tmm._Work`), and `eps_out`, the eps and
    d eps / dp rows of each free dispersive material.  The model and the
    Jacobian a pass returns are new arrays, which a caller may keep.  The
    Jacobian is parameter-major: each column is contiguous.

    A FitProblem is mutable, so the plan works from `problem`, a copy
    built through the constructor: a field changed since construction
    fails here with the constructor's DomainError, once per plan."""

    def __init__(self, problem):
        self.problem = problem = replace(problem)
        stack, k = problem.stack, problem.k
        self.stack, self.k = stack, k
        located = [_locate(stack, p.path) for p in problem.free]
        self.template = np.array([value for value, _, _ in located])
        self.groups = {}
        for column, (_, key, field) in enumerate(located):
            self.groups.setdefault(key, []).append((column, field))
        unit = np.eye(len(self.groups))
        self.directions = {key: unit[:, [i]].astype(complex if isinstance(key, str) else float)
                           for i, key in enumerate(self.groups)}
        self.media = _media(stack, k)
        self.k0 = _K_TO_RAD_NM * k
        self.sin2 = _sin2(stack, problem.angle)
        # what every pass rewrites: the kernel's work arrays, and each
        # free dispersive material's eps and d eps / dp
        self.work = _Work()
        self.eps_out = {key: np.empty((1 + len(group), k.size), complex)
                        for key, group in self.groups.items()
                        if isinstance(self.media.get(key), np.ndarray)}

    def model(self, values):
        """The fitted channel at `values` (physical units, ordered like
        the free parameters) and its exact Jacobian with respect to the
        values, shape (nk, n_free), from one kernel pass: the transpose
        of a C-contiguous (n_free, nk) array."""
        values = list(self.problem.params_dict(values).values())
        stack = _build(self.stack, {key: {field: values[c] for c, field in group}
                                    for key, group in self.groups.items()})
        eps, derivs = dict(self.media), {}
        for key, group in self.groups.items():
            if key in self.media:
                eps[key], derivs[key] = stack.materials[key]._epsilon_and_derivatives(
                    self.k, [field for _, field in group], self.eps_out.get(key)
                )
                # the tangent of qz = sqrt(eps - sin2) divides by qz
                if np.any(eps[key] == self.sin2):
                    paths = ", ".join(repr(self.problem.free[c].path) for c, _ in group)
                    raise DomainError(f"the derivative along {paths} is singular: a medium it "
                                      "sets has eps = (n_ambient sin(angle))^2, so qz = 0")
        T, R, S_T, S_R = _response(
            stack, eps, self.k0, self.sin2, self.problem.polarization, self.work, self.directions
        )
        if self.problem.channel == "T":
            model, sens = T, S_T
        elif self.problem.channel == "R":
            model, sens = R, S_R
        else:
            model = np.subtract(np.subtract(1.0, T, T), R, T)
            sens = np.negative(np.add(S_T, S_R, S_T), S_T)
        jac = np.empty((len(values), self.k.size)).T
        product = self.work.array("column", self.k.shape)
        for s, (key, group) in zip(sens, self.groups.items()):
            for i, (column, _) in enumerate(group):
                jac[:, column] = np.real(np.multiply(s, derivs[key][i], product)
                                         if key in derivs else s)
        return model, jac

    def __call__(self, values):
        """Residuals and their Jacobian, from one kernel pass."""
        model, jac = self.model(values)
        return np.subtract(model, self.problem.target, model), jac


def loss_gradient(problem, values):
    """d(loss)/d(values) = 2 J^T r, with the exact residual Jacobian J
    from the same kernel pass as the residuals r."""
    return _checked(problem, values, "the loss gradient",
                    lambda model, res, jac: 2.0 * jac.T @ res)


@dataclass
class FitResult:
    """What `solve` found: the best start's parameters by path, loss and
    residuals (model - target), the template's loss, whether that start
    converged, the kernel passes of all starts, and each start's final
    loss and parameters with the index of the best."""

    params: dict
    loss: float
    initial_loss: float
    success: bool
    n_evaluations: int
    residuals: np.ndarray
    start_losses: list
    start_params: list
    best_start: int


def solve(problem, n_starts=1, seed=0, max_nfev=2000):
    """Multi-start bounded least squares over the free parameters.

    Start 0 uses the template's own parameter values (clipped into the
    bounds); further starts are uniform draws from numpy's
    default_rng(seed).  The best start is the first whose final loss lies
    within the solver's ftol (1e-8, relative) of the lowest, so starts
    that reach one minimum tie whatever the last bits of their losses
    read.  Hitting the iteration cap flags the result non-converged
    instead of raising.  initial_loss is the loss at the template point,
    taken from start 0's first evaluation; a non-finite one raises
    FitError.  With no free parameter each start stops at its first
    evaluation: n_starts equal starts and n_evaluations == n_starts.
    """
    _check_range(n_starts, "n_starts", ge=1, integer=True)
    _check_range(seed, "seed", ge=0, integer=True)
    _check_range(max_nfev, "max_nfev", ge=1, integer=True)

    plan = _Plan(problem)
    problem = plan.problem
    lower = np.array([p.lower for p in problem.free])
    upper = np.array([p.upper for p in problem.free])
    width = upper - lower

    def to_physical(x):
        return lower + x * width

    def fun_jac(x):
        res, jac = plan(to_physical(x))
        jac *= width
        return res, jac

    rng = np.random.default_rng(seed)
    starts = [np.clip((plan.template - lower) / width, 0.0, 1.0)]
    for _ in range(n_starts - 1):
        starts.append(rng.uniform(0.0, 1.0, size=len(problem.free)))

    ftol = 1e-8
    solutions = [
        least_squares(fun_jac, x0, 0.0, 1.0, ftol=ftol, max_nfev=max_nfev,
                      name="fit from the template point" if idx == 0 else f"fit from start {idx}")
        for idx, x0 in enumerate(starts)
    ]
    start_losses = [float(res.fun @ res.fun) for res in solutions]
    start_params = [problem.params_dict(to_physical(res.x)) for res in solutions]
    lowest = min(start_losses)
    idx = next(i for i, loss in enumerate(start_losses) if loss - lowest <= ftol * lowest)
    best = solutions[idx]
    return FitResult(
        params=dict(start_params[idx]),
        loss=start_losses[idx],
        initial_loss=solutions[0].initial_loss,
        success=best.status > 0,
        n_evaluations=sum(res.nfev for res in solutions),
        residuals=best.fun,
        start_losses=start_losses,
        start_params=start_params,
        best_start=idx,
    )
