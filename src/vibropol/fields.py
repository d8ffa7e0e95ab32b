"""Intra-cavity field reconstruction.

The tangential pair (U, V) of `tmm` is rebuilt inside every medium from
the forward and backward wave amplitudes that the stack recursion
(`tmm._rouard`) returns: U is E_y for s polarization and H_y for p, with
the incident wave normalized to unit electric-field amplitude.  A layer
spanning [z0, z1] holds

    U(z) = u+ e^{i kz (z - z0)} + u- e^{i kz (z1 - z)},
    V(z) = q (u+ e^{i kz (z - z0)} - u- e^{i kz (z1 - z)}),

with u+ stored at the entry face and u- at the exit face, so both
exponentials decay into the layer and thick lossy layers stay finite.
The intensity |E(z)|^2 / |E_inc|^2 follows directly (for p polarization
from E_x = V and E_z = -kx U / (k0 eps)).  z = 0 is the front face of
the first layer and grows toward the substrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tmm import SpectralGrid, _check_angle, _media, _rouard, _wavevectors

__all__ = ["FieldProfile", "FieldMap", "field_profile", "field_map"]


@dataclass
class FieldProfile:
    """|E|^2 and normalized Poynting flux along z at a single wavenumber."""

    z: np.ndarray
    intensity: np.ndarray
    poynting: np.ndarray
    k: float
    angle: float
    polarization: str
    boundaries: tuple[float, ...]


@dataclass
class FieldMap:
    """|E(z, k)|^2 over a wavenumber grid, shape (nk, nz)."""

    k: np.ndarray
    z: np.ndarray
    intensity: np.ndarray
    angle: float
    polarization: str
    boundaries: tuple[float, ...]


def _fields(stack, k, z, angle, polarization, flux=True):
    """Intensity and normalized Poynting flux (None unless `flux`) at
    every (k, z), shape (nk, nz); unpolarized averages s and p.

    One recursion over all of k per polarization, then each medium is
    evaluated on the z samples it contains."""
    _check_angle(angle)
    if polarization == "unpolarized":
        pols = ("s", "p")
    elif polarization in ("s", "p"):
        pols = (polarization,)
    else:
        raise DomainError("polarization must be 's', 'p' or 'unpolarized'")
    if not np.all(np.isfinite(z)):
        raise DomainError("z samples must be finite (nm)")
    eps = _media(stack, k)
    k0_rad, kx_rad = _wavevectors(stack, k, angle)
    sin_amb = stack.n_ambient * math.sin(math.radians(angle))
    edges = _boundaries(stack)
    # entry and exit face of each medium; the ambient's waves are both
    # referred to z = 0, and the substrate has no backward wave
    faces = [(0.0, 0.0)] + list(zip(edges[:-1], edges[1:])) + [(edges[-1], None)]
    spans = [(-math.inf, 0.0)] + list(zip(edges[:-1], edges[1:])) + [(edges[-1], math.inf)]
    columns = [np.flatnonzero((z >= lo) & (z < hi)) for lo, hi in spans]

    intensity = np.zeros((k.size, z.size))
    poynting = np.zeros((k.size, z.size)) if flux else None
    thickness = [ly.thickness for ly in stack.layers]
    for pol in pols:
        _, _, kz, q, fwd, bwd = _rouard(eps, thickness, k0_rad, kx_rad, pol)
        amp = 1.0 if pol == "s" else stack.n_ambient
        for j, cols in enumerate(columns):
            if cols.size == 0:
                continue
            zj = z[cols]
            kzj, qj = kz[j][:, None], q[j][:, None]
            z_entry, z_exit = faces[j]
            wave_p = (amp * fwd[j])[:, None] * np.exp(1j * kzj * (zj - z_entry))
            if z_exit is None:
                U = wave_p
                V = qj * wave_p
            else:
                wave_m = (amp * bwd[j])[:, None] * np.exp(1j * kzj * (z_exit - zj))
                U = wave_p + wave_m
                V = qj * (wave_p - wave_m)
            if pol == "s":
                intensity[:, cols] += np.abs(U) ** 2
            else:
                # E_x = V, E_z = -(kx/k0) U / eps, already per unit E_inc
                ez = sin_amb * U / eps[j][:, None]
                intensity[:, cols] += np.abs(V) ** 2 + np.abs(ez) ** 2
            if flux:
                poynting[:, cols] += np.real(U * np.conj(V)) / (np.real(q[0])[:, None] * amp**2)
    n = len(pols)
    return intensity / n, (poynting / n if flux else None)


def field_profile(stack, k, z, angle=0.0, polarization="s"):
    """Field intensity profile at one wavenumber (cm^-1) on a z grid (nm).

    Unpolarized input averages the s and p intensities and fluxes.  This
    is the one-row case of `field_map`."""
    if not (np.isscalar(k) or np.asarray(k).ndim == 0):
        raise DomainError("field_profile takes a scalar wavenumber")
    k = float(k)
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError("wavenumber must be positive")
    z = np.asarray(z, dtype=float)
    intensity, poynting = _fields(stack, np.array([k]), z.ravel(), angle, polarization)
    return FieldProfile(
        z=z, intensity=intensity[0].reshape(z.shape), poynting=poynting[0].reshape(z.shape),
        k=k, angle=angle, polarization=polarization, boundaries=_boundaries(stack),
    )


def _boundaries(stack):
    edges = [0.0]
    for layer in stack.layers:
        edges.append(edges[-1] + layer.thickness)
    return tuple(edges)


def default_z_grid(stack, z_step=10.0, margin_ambient=200.0, margin_substrate=200.0):
    """z samples spanning the stack plus margins into the ambient and the
    substrate (all nm)."""
    if z_step <= 0 or margin_ambient < 0 or margin_substrate < 0:
        raise DomainError("z_step must be > 0 and margins >= 0")
    total = stack.total_thickness()
    return np.arange(-margin_ambient, total + margin_substrate + 0.5 * z_step, z_step)


def field_map(stack, grid, z=None, angle=0.0, polarization="s"):
    """|E(z, k)|^2 over a wavenumber grid; rows follow the grid order.

    The whole grid goes through one stack recursion per polarization, so
    each row equals `field_profile` at that wavenumber."""
    k = grid.points if isinstance(grid, SpectralGrid) else np.asarray(grid, dtype=float)
    z = default_z_grid(stack) if z is None else np.asarray(z, dtype=float)
    k = np.atleast_1d(k)
    intensity, _ = _fields(stack, k, z.ravel(), angle, polarization, flux=False)
    return FieldMap(
        k=k, z=z, intensity=intensity, angle=angle,
        polarization=polarization, boundaries=_boundaries(stack),
    )
