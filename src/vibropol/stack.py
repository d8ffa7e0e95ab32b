"""The description of a run's optics: the layer stack, the wavenumber
grid, the spectrum, a fit's free parameter, and the checks of an angle,
a polarization and a beam divergence.  It loads no numpy (a grid's
`points` import it), so a config or a spectrum file is read without
numpy or the kernel of `vibropol.tmm`, which re-exports these names.
"""

from __future__ import annotations

import math
import typing
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .errors import _MAX_POINTS, DomainError, _check_choice, _check_range
from .materials import _K_MAX, _K_MIN, _SQUARE_MAX

if typing.TYPE_CHECKING:
    import numpy as np

POLARIZATIONS = ("s", "p", "unpolarized")
CHANNELS = ("T", "R", "A")


@dataclass(frozen=True)
class Layer:
    """One finite layer: a material name (resolved against the stack's
    materials map) and a thickness in nm."""

    material: str
    thickness: float

    def __post_init__(self):
        if not isinstance(self.material, str) or not self.material:
            raise DomainError("layer material must be a non-empty name")
        _check_range(self.thickness, "layer thickness", gt=0.0, le=_SQUARE_MAX, unit="nm")


@dataclass(frozen=True)
class LayerStack:
    """Ambient / finite layers / semi-infinite substrate.

    materials maps names to dielectric models; layers and the substrate
    refer to them by name so a single material edit propagates to every
    layer that uses it.  substrate_mode selects how the rear side is
    closed: "coherent" leaves the substrate semi-infinite, while
    "incoherent_to_air" multiplies the coherent transmittance by the
    single-pass substrate-to-air Fresnel factor (thick transparent
    substrate with its back face out of coherence range).
    """

    materials: Mapping[str, object]
    layers: tuple[Layer, ...]
    substrate: str
    n_ambient: float = 1.0
    substrate_mode: str = "coherent"

    def __post_init__(self):
        object.__setattr__(self, "materials", MappingProxyType(dict(self.materials)))
        object.__setattr__(self, "layers", tuple(self.layers))
        _check_range(self.n_ambient, "ambient index", ge=1.0, le=_SQUARE_MAX)
        _check_choice(self.substrate_mode, "substrate_mode", ("coherent", "incoherent_to_air"))
        missing = [ly.material for ly in self.layers if ly.material not in self.materials]
        if self.substrate not in self.materials:
            missing.append(self.substrate)
        if missing:
            raise DomainError(f"unknown material name(s): {sorted(set(missing))}")


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform wavenumber grid, inclusive of k_min; k_max is included when
    it falls on the lattice.  k_min == k_max yields a single-point grid.
    Both ends lie in the range of `materials._check_wavenumbers`."""

    k_min: float
    k_max: float
    step: float = 1.0

    def __post_init__(self):
        _check_range(self.k_min, "grid min", ge=_K_MIN, le=_K_MAX, unit="cm^-1")
        _check_range(self.k_max, "grid max", ge=self.k_min, le=_K_MAX, unit="cm^-1")
        _check_range(self.step, "grid step", gt=0.0, unit="cm^-1")
        _check_range((self.k_max - self.k_min) / self.step, "grid (max - min) / step",
                     lt=_MAX_POINTS)

    @property
    def points(self):
        import numpy as np

        n = int(math.floor((self.k_max - self.k_min) / self.step + 1e-9)) + 1
        return self.k_min + self.step * np.arange(n)


@dataclass
class Spectrum:
    """T/R/A on a wavenumber grid at one (angle, polarization)."""

    k: np.ndarray
    T: np.ndarray
    R: np.ndarray
    A: np.ndarray
    angle: float = 0.0
    polarization: str = "s"

    def channel(self, name):
        _check_choice(name, "channel", CHANNELS)
        return getattr(self, name)


@dataclass(frozen=True)
class FreeParameter:
    """A fittable path of a stack, as `vibropol.fit` reads it, with box
    bounds."""

    path: str
    lower: float
    upper: float

    def __post_init__(self):
        _check_range(self.lower, f"lower bound of {self.path!r}")
        _check_range(self.upper, f"upper bound of {self.path!r}", gt=self.lower)


def _check_angle(angle, name="incidence angle"):
    _check_range(angle, name, gt=-90.0, lt=90.0, unit="degrees")


def _check_polarization(polarization):
    _check_choice(polarization, "polarization", POLARIZATIONS)


def _check_sigma(sigma):
    _check_range(sigma, "divergence", ge=0.0, le=30.0, unit="degrees")
