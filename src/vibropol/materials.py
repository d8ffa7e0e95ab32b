"""Dielectric models for the layers of a planar stack.

All models return the complex relative permittivity eps(k) on a wavenumber
grid in cm^-1.  The time convention is exp(-i omega t), so passive media
have Im(eps) >= 0 and the physical refractive-index branch has Im(n) >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EV_TO_CM1
from .errors import DomainError

__all__ = [
    "LorentzOscillator",
    "LorentzMedium",
    "ConstantMedium",
    "DrudeLorentzMetal",
    "BoundTransition",
    "gold",
    "evaluate_epsilon",
    "refractive_index",
]


def _check_wavenumbers(k):
    k = np.asarray(k, dtype=float)
    if k.size == 0:
        raise DomainError("empty wavenumber grid")
    if not np.all(np.isfinite(k)) or np.any(k <= 0.0):
        raise DomainError("wavenumbers must be finite and positive (cm^-1)")
    return k


@dataclass(frozen=True)
class LorentzOscillator:
    """One vibrational resonance: strength f (cm^-2), center k0 (cm^-1),
    damping gamma (cm^-1, FWHM of the eps_2 band)."""

    f: float
    k0: float
    gamma: float

    def __post_init__(self):
        if not (self.f >= 0.0 and math.isfinite(self.f)):
            raise DomainError("oscillator strength f must be >= 0")
        if not (self.k0 > 0.0 and math.isfinite(self.k0)):
            raise DomainError("oscillator center k0 must be > 0")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise DomainError("oscillator damping gamma must be > 0")


@dataclass(frozen=True)
class LorentzMedium:
    """Multi-oscillator Lorentz dielectric:

        eps(k) = eps_b - sum_j f_j / (k^2 - k0_j^2 + i k Gamma_j)

    which is positive-absorbing under the exp(-i omega t) convention.
    """

    eps_b: float
    oscillators: tuple[LorentzOscillator, ...] = ()

    def __post_init__(self):
        if not (self.eps_b >= 1.0 and math.isfinite(self.eps_b)):
            raise DomainError("background permittivity eps_b must be >= 1")
        object.__setattr__(self, "oscillators", tuple(self.oscillators))

    def epsilon(self, k):
        k = _check_wavenumbers(k)
        eps = np.full_like(k, self.eps_b, dtype=complex)
        for osc in self.oscillators:
            eps = eps - osc.f / (k**2 - osc.k0**2 + 1j * k * osc.gamma)
        return eps


@dataclass(frozen=True)
class ConstantMedium:
    """Nondispersive permittivity, e.g. air (1.0) or germanium (16.0)."""

    eps: complex = 1.0

    def __post_init__(self):
        eps = complex(self.eps)
        if not (np.isfinite(eps.real) and np.isfinite(eps.imag)):
            raise DomainError("constant permittivity must be finite")
        if eps.imag < 0.0:
            raise DomainError("constant permittivity must have Im(eps) >= 0")
        if eps == 0:
            raise DomainError("constant permittivity must be nonzero")
        object.__setattr__(self, "eps", eps)

    def epsilon(self, k):
        k = _check_wavenumbers(k)
        return np.full_like(k, self.eps, dtype=complex)


@dataclass(frozen=True)
class BoundTransition:
    """Interband term of the metal model: dimensionless strength f,
    linewidth gamma and center omega0, both in eV."""

    f: float
    gamma: float
    omega0: float

    def __post_init__(self):
        if self.f < 0.0 or self.gamma <= 0.0 or self.omega0 <= 0.0:
            raise DomainError("bound transition requires f >= 0, gamma > 0 and omega0 > 0")


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
        if self.omega_p <= 0.0 or self.f0 < 0.0 or self.gamma0 <= 0.0:
            raise DomainError("metal requires omega_p > 0, f0 >= 0, gamma0 > 0")
        if self.damping_multiplier < 1.0:
            raise DomainError("damping multiplier must be >= 1")
        object.__setattr__(self, "bound", tuple(self.bound))

    @property
    def gamma_total(self):
        """Effective free-electron damping in eV."""
        return self.damping_multiplier * self.gamma0

    def epsilon(self, k):
        k = _check_wavenumbers(k)
        w = k / EV_TO_CM1
        eps = 1.0 - self.f0 * self.omega_p**2 / (w * (w + 1j * self.gamma_total))
        for tr in self.bound:
            eps = eps + tr.f * self.omega_p**2 / (tr.omega0**2 - w**2 - 1j * w * tr.gamma)
        return eps


def gold(damping_multiplier: float = 2.5) -> DrudeLorentzMetal:
    """Tabulated gold with the thin-film damping multiplier applied to the
    free-electron linewidth only."""
    return DrudeLorentzMetal(damping_multiplier=damping_multiplier)


def evaluate_epsilon(model, k):
    """eps(k) for any dielectric model on a cm^-1 grid."""
    return model.epsilon(k)


def refractive_index(model_or_eps, k=None):
    """Complex refractive index n = sqrt(eps) on the physical branch
    Im(n) >= 0, Re(n) >= 0.

    Pass a dielectric model together with wavenumbers k (cm^-1), or a
    raw permittivity value/array directly."""
    if hasattr(model_or_eps, "epsilon"):
        if k is None:
            raise DomainError("refractive_index of a model needs wavenumbers k")
        eps = model_or_eps.epsilon(k)
    else:
        eps = np.asarray(model_or_eps, dtype=complex)
    n = np.sqrt(eps)
    n = np.where(n.imag < 0.0, -n, n)
    n = np.where((n.imag == 0.0) & (n.real < 0.0), -n, n)
    return n
