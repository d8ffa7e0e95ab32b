"""Dielectric models for the layers of a planar stack.

All models return the complex relative permittivity eps(k) on a wavenumber
grid in cm^-1 (1e-3 to 1e7).  The time convention is exp(-i omega t), so passive media
have Im(eps) >= 0 and the physical refractive-index branch has Im(n) >= 0.
Each model also has _epsilon_and_derivatives(k, fields, out=None), which
a fit pass calls on a wavenumber array it has already checked: it returns
eps(k) together with the closed-form d eps / d field for each requested
real field, ("eps_b",), ("f", j), ("k0", j), ("gamma", j), ("omega_p",)
and so on, all from one evaluation of the model's denominators (all three
models are rational in their parameters).  A dispersive model writes eps
and each array derivative into the complex arrays out[0], out[1], ... on
k when `out` is given, so a fit reuses them for every evaluation.
epsilon(k) is the same evaluation with no fields, so a fit's model values
match stack_response's bit for bit.  A ConstantMedium returns its eps as a
Python complex, as the stack kernel keeps it.  numpy is imported by the
functions that make or read arrays, so defining a model loads none.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import EV_TO_CM1
from .errors import DomainError, _check_range


# the wavenumbers the models and the stack kernel take (cm^-1), below THz to
# beyond the far UV; far outside, eps (k ~1e160) and |t|^2 (k ~1e-300) overflow
_K_MIN, _K_MAX = 1e-3, 1e7


def _check_wavenumbers(k):
    import numpy as np

    k = np.asarray(k, dtype=float)
    if k.size == 0:
        raise DomainError("empty wavenumber grid")
    inside = (k >= _K_MIN) & (k <= _K_MAX)
    if not np.all(inside):
        raise DomainError(f"wavenumbers must be between {_K_MIN:g} and {_K_MAX:g} cm^-1, "
                          f"got {k[~inside].flat[0]}")
    return k


# the largest float whose square is finite: the models square omega_p,
# k0 and omega0 as Python floats, whose ** raises OverflowError beyond it.
# It bounds the ambient index of a stack too, whose square is the
# ambient's eps, and a layer's thickness, which multiplies its qz
_SQUARE_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class LorentzOscillator:
    """One vibrational resonance: strength f (cm^-2), center k0 (cm^-1),
    damping gamma (cm^-1, FWHM of the eps_2 band)."""

    f: float
    k0: float
    gamma: float

    def __post_init__(self):
        _check_range(self.f, "oscillator strength f", ge=0.0, unit="cm^-2")
        _check_range(self.k0, "oscillator center k0", gt=0.0, le=_SQUARE_MAX, unit="cm^-1")
        _check_range(self.gamma, "oscillator damping gamma", gt=0.0, unit="cm^-1")


@dataclass(frozen=True)
class LorentzMedium:
    """Multi-oscillator Lorentz dielectric:

        eps(k) = eps_b - sum_j f_j / (k^2 - k0_j^2 + i k Gamma_j)

    which is positive-absorbing under the exp(-i omega t) convention.
    """

    eps_b: float
    oscillators: tuple[LorentzOscillator, ...] = ()

    def __post_init__(self):
        _check_range(self.eps_b, "background permittivity eps_b", ge=1.0)
        object.__setattr__(self, "oscillators", tuple(self.oscillators))

    def epsilon(self, k):
        return self._epsilon_and_derivatives(_check_wavenumbers(k), ())[0]

    def _epsilon_and_derivatives(self, k, fields, out=None):
        """eps on a checked k, and d eps / d field for each of fields:
        ("eps_b",), or (name, j) for f, k0 or gamma of oscillators[j]."""
        import numpy as np

        if out is None:
            out, eps = [None] * (len(fields) + 1), np.full_like(k, self.eps_b, dtype=complex)
        else:
            eps = out[0]
            eps[...] = self.eps_b
        denoms = []
        for osc in self.oscillators:
            denom = k**2 - osc.k0**2 + 1j * k * osc.gamma
            eps = np.subtract(eps, osc.f / denom, out[0])
            denoms.append(denom)
        derivs = []
        for field, o in zip(fields, out[1:]):
            if field == ("eps_b",):
                derivs.append(1.0)
                continue
            name, j = field
            osc, denom = self.oscillators[j], denoms[j]
            if name == "f":
                derivs.append(np.divide(-1.0, denom, o))
            elif name == "k0":
                derivs.append(np.divide(-2.0 * osc.f * osc.k0, denom**2, o))
            else:
                derivs.append(np.divide(1j * k * osc.f, denom**2, o))
        return eps, derivs


@dataclass(frozen=True)
class ConstantMedium:
    """Nondispersive permittivity, e.g. air (1.0) or germanium (16.0)."""

    eps: complex = 1.0

    def __post_init__(self):
        eps = complex(self.eps)
        _check_range(eps.real, "constant permittivity Re(eps)")
        _check_range(eps.imag, "constant permittivity Im(eps)", ge=0.0)
        if eps == 0:
            raise DomainError("constant permittivity must be nonzero")
        object.__setattr__(self, "eps", eps)

    def epsilon(self, k):
        import numpy as np

        k = _check_wavenumbers(k)
        return np.full_like(k, self.eps, dtype=complex)

    def _epsilon_and_derivatives(self, k, fields, out=None):
        """The eps, a Python complex, and d eps / d Re(eps), the one field
        ("eps",): one at every wavenumber.  No array is written."""
        return self.eps, [1.0 for _ in fields]


@dataclass(frozen=True)
class BoundTransition:
    """Interband term of the metal model: dimensionless strength f,
    linewidth gamma and center omega0, both in eV."""

    f: float
    gamma: float
    omega0: float

    def __post_init__(self):
        _check_range(self.f, "bound transition strength f", ge=0.0)
        _check_range(self.gamma, "bound transition linewidth gamma", gt=0.0, unit="eV")
        _check_range(self.omega0, "bound transition center omega0", gt=0.0, le=_SQUARE_MAX,
                     unit="eV")


# Tabulated Drude-Lorentz parameters for gold (eV).
_GOLD_BOUND = (
    BoundTransition(0.02, 0.24, 0.41),
    BoundTransition(0.01, 0.34, 0.83),
    BoundTransition(0.07, 0.870, 2.96),
    BoundTransition(0.60, 2.49, 4.30),
    BoundTransition(4.38, 2.21, 13.32),
)


@dataclass(frozen=True)
class DrudeLorentzMetal:
    """Free-electron term plus bound interband transitions:

        eps(w) = 1 - f0 wp^2 / (w (w + i Gtot))
                   + sum_j f_j wp^2 / (wj^2 - w^2 - i w g_j)

    with w the photon energy in eV and Gtot = damping_multiplier * gamma0.
    The multiplier absorbs the extra scattering of thin evaporated films
    relative to bulk.  Signs are written for exp(-i omega t).
    """

    omega_p: float = 9.03
    f0: float = 0.76
    gamma0: float = 0.05
    bound: tuple[BoundTransition, ...] = _GOLD_BOUND
    damping_multiplier: float = 2.5

    def __post_init__(self):
        _check_range(self.omega_p, "plasma energy omega_p", gt=0.0, le=_SQUARE_MAX, unit="eV")
        _check_range(self.f0, "free-electron strength f0", ge=0.0)
        _check_range(self.gamma0, "free-electron damping gamma0", gt=0.0, unit="eV")
        _check_range(self.damping_multiplier, "damping multiplier", ge=1.0)
        object.__setattr__(self, "bound", tuple(self.bound))

    @property
    def gamma_total(self):
        """Effective free-electron damping in eV."""
        return self.damping_multiplier * self.gamma0

    def epsilon(self, k):
        return self._epsilon_and_derivatives(_check_wavenumbers(k), ())[0]

    def _epsilon_and_derivatives(self, k, fields, out=None):
        """eps on a checked k, and d eps / d field for each of fields:
        ("omega_p",), ("f0",), ("gamma0",) or ("damping_multiplier",)."""
        import numpy as np

        out = [None] * (len(fields) + 1) if out is None else out
        w = k / EV_TO_CM1
        free = w + 1j * self.gamma_total
        w_free = w * free
        eps = np.subtract(1.0, self.f0 * self.omega_p**2 / w_free, out[0])
        for tr in self.bound:
            eps = np.add(eps, tr.f * self.omega_p**2 / (tr.omega0**2 - w**2 - 1j * w * tr.gamma),
                         out[0])
        derivs = []
        for (field,), o in zip(fields, out[1:]):
            if field == "omega_p":
                # every term but the 1 scales with omega_p^2
                derivs.append(np.divide(2.0 * (eps - 1.0), self.omega_p, o))
                continue
            drude = self.omega_p**2 / w_free
            if field == "f0":
                derivs.append(np.negative(drude, o))
                continue
            # d eps / d gamma_total, then the chain rule through the product
            d_total = 1j * self.f0 * drude / free
            derivs.append(np.multiply(
                d_total, self.damping_multiplier if field == "gamma0" else self.gamma0, o))
        return eps, derivs


def gold(damping_multiplier: float = 2.5) -> DrudeLorentzMetal:
    """Tabulated gold with the thin-film damping multiplier applied to the
    free-electron linewidth only."""
    return DrudeLorentzMetal(damping_multiplier=damping_multiplier)


def refractive_index(model_or_eps, k=None):
    """Complex refractive index n = sqrt(eps) on the physical branch
    Im(n) >= 0, Re(n) >= 0.

    Pass a dielectric model together with wavenumbers k (cm^-1), or a
    raw permittivity value/array directly."""
    import numpy as np

    from .tmm import _decaying_sqrt

    if hasattr(model_or_eps, "epsilon"):
        if k is None:
            raise DomainError("refractive_index of a model needs wavenumbers k")
        eps = model_or_eps.epsilon(k)
    else:
        eps = np.asarray(model_or_eps, dtype=complex)
        if not np.all(np.isfinite(eps)):
            raise DomainError("permittivity must be finite")
    return _decaying_sqrt(eps)

