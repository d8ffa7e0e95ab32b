"""Intra-cavity field reconstruction.

The tangential pair (U, V) of `tmm` is rebuilt inside every medium from
its forward and backward wave amplitudes, marched here from the ambient
with the per-layer factors of the stack recursion (`tmm._rouard`): U is
E_y for s polarization and H_y for p, with the incident wave normalized
to unit electric-field amplitude.  A layer spanning [z0, z1] holds

    U(z) = u+ e^{i kz (z - z0)} + u- e^{i kz (z1 - z)},
    V(z) = q (u+ e^{i kz (z - z0)} - u- e^{i kz (z1 - z)}),

with u+ stored at the entry face and u- at the exit face, so both
exponentials decay into the layer and thick lossy layers stay finite.
The intensity |E(z)|^2 / |E_inc|^2 follows directly (for p polarization
from E_x = V and E_z = -kx U / (k0 eps)).  z = 0 is the front face of
the first layer and grows toward the substrate.

The recursion runs once over the whole wavenumber grid per polarization,
s then p through one set of work arrays (`tmm._Work`), and a pass's
per-layer factors are read before the next pass rewrites them.  Each
medium's z columns are filled over blocks of k rows of about
`_BLOCK_CELLS` cells.  The per-cell arithmetic is that of a whole-map
pass, so every row is bit-identical to `field_profile` at its
wavenumber, while the complex temporaries stay a few hundred kB instead
of several times the map: a map's working memory is then little more
than its output.  V is formed only where it is used, for p polarization
and for the flux.  A map holds at most 10^6 cells (`_check_cells`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import _MAX_POINTS, DomainError, _check_range
from .materials import _check_wavenumbers
from .tmm import (_K_TO_RAD_NM, _Work, _check_angle, _check_polarization, _media, _points,
                  _rouard, _sequence)

# cells of one row block: each per-cell temporary of `_fields` stays a
# few hundred kB, so a map's working memory stays a small multiple of its
# output however long its k axis is
_BLOCK_CELLS = 2**14


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


def _check_cells(nk, nz):
    """Raise DomainError when a field map of nk wavenumbers by nz depths
    holds more than _MAX_POINTS cells."""
    if nk * nz > _MAX_POINTS:
        raise DomainError(f"field map of {nk} wavenumbers x {nz} depths must hold at most "
                          f"{_MAX_POINTS:g} cells, got {nk * nz}")


def _fields(stack, k, z, angle, polarization, flux=True):
    """Intensity and normalized Poynting flux (None unless `flux`) at
    every (k, z), shape (nk, nz); unpolarized averages s and p.

    One recursion over all of k per polarization, then each medium is
    evaluated on the z samples it contains, a block of k rows at a time."""
    _check_angle(angle)
    _check_polarization(polarization)
    _check_cells(k.size, z.size)
    pols = ("s", "p") if polarization == "unpolarized" else (polarization,)
    if not np.all(np.isfinite(z)):
        raise DomainError("z samples must be finite (nm)")
    eps = _media(stack, k)
    names, thicknesses = _sequence(stack)
    k0_rad = _K_TO_RAD_NM * k
    sin_amb = stack.n_ambient * math.sin(math.radians(angle))
    edges = _boundaries(stack)
    # entry and exit face of each medium; the ambient's waves are both
    # referred to z = 0, and the substrate has no backward wave
    faces = [(0.0, 0.0)] + list(zip(edges[:-1], edges[1:])) + [(edges[-1], None)]
    spans = [(-math.inf, 0.0)] + list(zip(edges[:-1], edges[1:])) + [(edges[-1], math.inf)]
    columns = [np.flatnonzero((z >= lo) & (z < hi)) for lo, hi in spans]

    intensity = np.zeros((k.size, z.size))
    poynting = np.zeros((k.size, z.size)) if flux else None

    def per_k(x):
        # constant media keep scalar values
        return np.broadcast_to(x, k.shape)

    work = _Work()
    for pol in pols:
        r, t, qz, q, _, steps = _rouard(names, thicknesses, eps, k0_rad, sin_amb**2, pol, work)
        # march the amplitudes from the ambient: fwd[j] at each medium's
        # entry face, bwd[j] at its exit face (none in the substrate)
        a, fwd, bwd = 1.0, [1.0], [r]
        for g, f, phase in steps:
            fwd.append(f * a)
            a = fwd[-1] * phase
            bwd.append(g * a)
        fwd, bwd = fwd + [t], bwd + [0.0]
        amp = 1.0 if pol == "s" else stack.n_ambient
        need_v = flux or pol == "p"
        for j, cols in enumerate(columns):
            if cols.size == 0:
                continue
            zj = z[cols]
            z_entry, z_exit = faces[j]
            kz, qj, epsj = per_k(k0_rad * qz[j]), per_k(q[j]), per_k(eps[names[j]])
            fwd_j, bwd_j = per_k(amp * fwd[j]), per_k(amp * bwd[j])
            step = max(1, _BLOCK_CELLS // cols.size)
            for r0 in range(0, k.size, step):
                rows = slice(r0, r0 + step)
                kzj = kz[rows, None]
                wave_p = fwd_j[rows, None] * np.exp(1j * kzj * (zj - z_entry))
                # V / q = u+ - u-, formed only where V is used
                U = V = wave_p
                if z_exit is not None:
                    wave_m = bwd_j[rows, None] * np.exp(1j * kzj * (z_exit - zj))
                    U = wave_p + wave_m
                    if need_v:
                        V = wave_p - wave_m
                if need_v:
                    V = qj[rows, None] * V
                if pol == "s":
                    intensity[rows, cols] += np.abs(U) ** 2
                else:
                    # E_x = V, E_z = -(kx/k0) U / eps, already per unit E_inc
                    ez = sin_amb * U / epsj[rows, None]
                    intensity[rows, cols] += np.abs(V) ** 2 + np.abs(ez) ** 2
                if flux:
                    poynting[rows, cols] += np.real(U * np.conj(V)) / (np.real(q[0]) * amp**2)
    if len(pols) == 2:
        intensity /= 2
        if flux:
            poynting /= 2
    return intensity, poynting


def field_profile(stack, k, z, angle=0.0, polarization="s"):
    """Field intensity profile at one wavenumber (cm^-1) on a z grid (nm).

    Unpolarized input averages the s and p intensities and fluxes.  This
    is the one-row case of `field_map`, so z holds at most 10^6 samples."""
    if np.ndim(k) != 0:
        raise DomainError("field_profile takes a scalar wavenumber")
    k = float(_check_wavenumbers(k))
    z = np.asarray(z, dtype=float)
    intensity, poynting = _fields(stack, np.array([k]), z.ravel(), angle, polarization)
    return FieldProfile(
        z=z, intensity=intensity[0].reshape(z.shape), poynting=poynting[0].reshape(z.shape),
        k=k, angle=angle, polarization=polarization, boundaries=_boundaries(stack),
    )


def _boundaries(stack):
    return tuple(accumulate(_sequence(stack)[1], initial=0.0))


def default_z_grid(stack, z_step=10.0, margin_ambient=200.0, margin_substrate=200.0):
    """z samples spanning the stack plus margins into the ambient and the
    substrate (all nm); the span over z_step must be below 10^6."""
    _check_range(z_step, "z_step", gt=0.0, unit="nm")
    _check_range(margin_ambient, "margin_ambient", ge=0.0, unit="nm")
    _check_range(margin_substrate, "margin_substrate", ge=0.0, unit="nm")
    total = _boundaries(stack)[-1]
    _check_range((margin_ambient + total + margin_substrate) / z_step,
                 "z span / z_step", lt=_MAX_POINTS)
    return np.arange(-margin_ambient, total + margin_substrate + 0.5 * z_step, z_step)


def field_map(stack, grid, z=None, angle=0.0, polarization="s"):
    """|E(z, k)|^2 over a wavenumber grid; rows follow the grid order.

    The whole grid goes through one stack recursion per polarization, so
    each row equals `field_profile` at that wavenumber.  A map of more
    than 10^6 cells raises DomainError before it is allocated."""
    k = _points(grid)
    z = default_z_grid(stack) if z is None else np.asarray(z, dtype=float)
    intensity, _ = _fields(stack, k, z.ravel(), angle, polarization, flux=False)
    return FieldMap(
        k=k, z=z, intensity=intensity, angle=angle,
        polarization=polarization, boundaries=_boundaries(stack),
    )
