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
by its bound width so the optimizer sees O(1) variables.  The model is
evaluated exactly on the wavenumbers of the target data.

The Jacobian is exact for all five forms: the stack kernel carries
forward-mode tangents through the same pass that computes the model,
one real direction per free thickness and one complex direction per
material that holds a free parameter, and each material path contributes
its closed-form d eps / d p.  No finite differences are taken.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, FitError
from .materials import ConstantMedium, DrudeLorentzMetal, LorentzMedium
from .tmm import (
    LayerStack,
    _check_angle,
    _check_polarization,
    _media,
    _response,
    _sin2,
    stack_response,
)

__all__ = [
    "FreeParameter",
    "FitProblem",
    "FitResult",
    "apply_params",
    "residual_vector",
    "loss_value",
    "loss_gradient",
    "model_values",
    "solve",
]

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

    Returns (value, put, tangent): the value behind the path; put(stack,
    v), which returns a copy of the stack with that value replaced; and
    tangent = (key, d_eps), how the kernel differentiates the value.  key
    is the layer index of a thickness, with d_eps None, or the material's
    name, with d_eps(material, k) its d eps / d value on k.  Raises
    DomainError for a path outside the grammar of the module docstring or
    one the stack does not hold."""
    m = _LAYER_RE.match(path)
    if m:
        i = int(m.group(1))
        if i >= len(stack.layers):
            raise DomainError(f"layer index out of range in {path!r}")

        def put(s, v):
            layers = list(s.layers)
            layers[i] = replace(layers[i], thickness=v)
            return replace(s, layers=tuple(layers))

        return stack.layers[i].thickness, put, (i, None)

    m = _OSC_RE.match(path) or _MAT_FIELD_RE.match(path)
    if m is None:
        raise DomainError(f"unrecognized parameter path {path!r}")
    name, fld = m.group(1), m.groups()[-1]
    if name not in stack.materials:
        raise DomainError(f"unknown material {name!r} in parameter path")
    mat = stack.materials[name]
    field = (fld,)
    if m.re is _OSC_RE:
        j = int(m.group(2))
        field = (fld, j)
        if not isinstance(mat, LorentzMedium) or j >= len(mat.oscillators):
            raise DomainError(f"{path!r} does not address a Lorentz oscillator")
        value = getattr(mat.oscillators[j], fld)

        def rebuild(mat, v):
            osc = list(mat.oscillators)
            osc[j] = replace(osc[j], **{fld: v})
            return replace(mat, oscillators=tuple(osc))

    elif isinstance(mat, ConstantMedium) and fld == "eps":
        value = mat.eps.real

        def rebuild(mat, v):
            return ConstantMedium(complex(v, mat.eps.imag))

    elif fld in _FIELDS.get(type(mat), ()):
        value = getattr(mat, fld)

        def rebuild(mat, v):
            return replace(mat, **{fld: v})

    else:
        raise DomainError(f"{path!r} does not address a fittable field")

    def d_eps(mat, k):
        return mat.d_epsilon(k, *field)

    def put(s, v):
        mats = dict(s.materials)
        mats[name] = rebuild(mats[name], v)
        return replace(s, materials=mats)

    return value, put, (name, d_eps)


def apply_params(stack, updates):
    """New LayerStack with the path -> value updates applied."""
    for path, value in updates.items():
        _, put, _ = _locate(stack, path)
        stack = put(stack, float(value))
    return stack


@dataclass(frozen=True)
class FreeParameter:
    """A fittable path with box bounds."""

    path: str
    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DomainError("parameter bounds must be finite")
        if not self.lower < self.upper:
            raise DomainError(f"bounds for {self.path!r} must satisfy lower < upper")


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
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.free = tuple(self.free)
        self.k = np.asarray(self.k, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        if self.k.ndim != 1 or self.k.shape != self.target.shape:
            raise DomainError("k and target must be 1-D arrays of equal length")
        if np.any(self.k <= 0) or np.any(np.diff(self.k) <= 0):
            raise DomainError("target wavenumbers must be positive and increasing")
        if self.channel not in ("T", "R", "A"):
            raise DomainError("fit channel must be T, R or A")
        _check_angle(self.angle)
        _check_polarization(self.polarization)
        seen = set()
        for p in self.free:
            if p.path in seen:
                raise DomainError(f"free parameter path {p.path!r} is listed more than once")
            seen.add(p.path)
            _, put, _ = _locate(self.stack, p.path)
            # a box reaching outside the parameter's domain fails here, not mid-fit
            for name, bound in (("lower", p.lower), ("upper", p.upper)):
                try:
                    put(self.stack, bound)
                except DomainError as err:
                    raise DomainError(
                        f"{name} bound {bound!r} of {p.path!r} is outside its domain: {err}"
                    ) from err
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.k.shape:
                raise DomainError("weights must match the target grid")

    def params_dict(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self.free),):
            raise DomainError("expected one value per free parameter")
        return {p.path: float(v) for p, v in zip(self.free, values)}


def model_values(problem, values):
    """Model channel evaluated on the target grid for the given parameter
    values (physical units, ordered like problem.free)."""
    stack = apply_params(problem.stack, problem.params_dict(values))
    T, R, A = stack_response(stack, problem.k, problem.angle, problem.polarization)
    return {"T": T, "R": R, "A": A}[problem.channel]


def residual_vector(problem, values):
    """Weighted (model - target) on the target grid."""
    res = model_values(problem, values) - problem.target
    if problem.weights is not None:
        res = res * problem.weights
    return res


def loss_value(problem, values):
    """Sum of squared weighted residuals."""
    r = residual_vector(problem, values)
    return float(r @ r)


def _residuals_and_jacobian(problem, values):
    """Weighted residuals at `values` and their exact Jacobian with
    respect to the values, shape (nk, n_free), from one kernel pass."""
    stack, tangents, directions = problem.stack, [], {}
    for path, v in problem.params_dict(values).items():
        _, put, tangent = _locate(stack, path)
        stack = put(stack, v)
        tangents.append(tangent)
        # one kernel direction per free thickness and per material that
        # holds a free parameter, labelled with the paths it serves
        key = tangent[0]
        directions[key] = f"{directions[key]}, {path!r}" if key in directions else repr(path)
    k = problem.k
    T, R, S_T, S_R = _response(
        stack, _media(stack, k), k, _sin2(stack, problem.angle), problem.polarization, directions
    )
    if problem.channel == "T":
        model, sens = T, S_T
    elif problem.channel == "R":
        model, sens = R, S_R
    else:
        model, sens = 1.0 - T - R, -(S_T + S_R)
    # sens lacks the direction axis only when no medium uses a direction;
    # it is zero then
    sens = np.broadcast_to(sens, (len(directions), k.size))
    row = {key: i for i, key in enumerate(directions)}
    jac = np.empty((k.size, len(tangents)))
    for col, (key, d_eps) in enumerate(tangents):
        s = sens[row[key]]
        jac[:, col] = np.real(s if d_eps is None else s * d_eps(stack.materials[key], k))
    res = model - problem.target
    if problem.weights is not None:
        res = res * problem.weights
        jac *= problem.weights[:, None]
    return res, jac


def loss_gradient(problem, values):
    """d(loss)/d(values) = 2 J^T r, with the exact residual Jacobian J
    from the same kernel pass as the residuals r."""
    res, jac = _residuals_and_jacobian(problem, values)
    return 2.0 * jac.T @ res


@dataclass
class FitResult:
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
    default_rng(seed).  The lowest final loss wins, ties broken by start
    index.  Hitting the iteration cap flags the result non-converged
    instead of raising.
    """
    if n_starts < 1:
        raise DomainError("n_starts must be >= 1")

    if not problem.free:
        residuals = residual_vector(problem, np.empty(0))
        loss = float(residuals @ residuals)
        return FitResult(
            params={}, loss=loss, initial_loss=loss, success=True,
            n_evaluations=1, residuals=residuals, start_losses=[loss],
            start_params=[{}], best_start=0,
        )

    lower = np.array([p.lower for p in problem.free])
    upper = np.array([p.upper for p in problem.free])
    width = upper - lower

    def to_physical(x):
        return lower + x * width

    last = {}

    def fun(x):
        # one pass gives the residuals and the Jacobian jac asks for next
        res, jac = _residuals_and_jacobian(problem, to_physical(x))
        last.update(x=x.copy(), jac=jac * width)
        return res

    def jac(x):
        if not np.array_equal(x, last.get("x")):
            fun(x)
        return last["jac"]

    template = np.array([_locate(problem.stack, p.path)[0] for p in problem.free])
    x0_template = np.clip((template - lower) / width, 0.0, 1.0)
    initial_residuals = residual_vector(problem, to_physical(x0_template))
    initial_loss = float(initial_residuals @ initial_residuals)
    if not np.isfinite(initial_loss):
        raise FitError("loss is non-finite at the template point")

    rng = np.random.default_rng(seed)
    starts = [x0_template]
    for _ in range(n_starts - 1):
        starts.append(rng.uniform(0.0, 1.0, size=len(problem.free)))

    import scipy.optimize

    best = None
    start_losses = []
    start_params = []
    total_nfev = 0
    for idx, x0 in enumerate(starts):
        res = scipy.optimize.least_squares(
            fun, x0, jac=jac, bounds=(np.zeros_like(x0), np.ones_like(x0)),
            method="trf", ftol=1e-8, max_nfev=max_nfev,
        )
        loss = float(2.0 * res.cost)
        start_losses.append(loss)
        start_params.append(problem.params_dict(to_physical(res.x)))
        total_nfev += int(res.nfev)
        if best is None or loss < best[0]:
            best = (loss, idx, res)
    loss, idx, res = best
    return FitResult(
        params=problem.params_dict(to_physical(res.x)),
        loss=loss,
        initial_loss=initial_loss,
        success=bool(res.status > 0),
        n_evaluations=total_nfev,
        residuals=res.fun.copy(),
        start_losses=start_losses,
        start_params=start_params,
        best_start=idx,
    )
