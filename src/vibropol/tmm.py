"""Transfer-matrix optics for planar multilayer stacks.

The tangential field pair (U, V) is continuous across every interface;
U is E_y for s polarization and H_y for p, and V = q (u+ - u-) with the
polarization admittance q = kz/k0 (s) or q = kz/(k0 eps) (p).  The
out-of-plane wavevector kz = sqrt(k0^2 eps - kx^2) is taken on the
branch Im(kz) >= 0 (decay into the layer), with Re(kz) >= 0 when
Im(kz) = 0, and the in-plane kx = k0 n_ambient sin(angle) is conserved
across the stack.  Conventions follow exp(-i omega t).

Stacks are solved with Rouard's interface recursion (compared with the
scattering-matrix form in Li, JOSA A 13, 1024 (1996)): starting at the
substrate, the reflection coefficient seen from each medium is carried
back through one layer by the decaying factor exp(2i kz d) and across
one interface by r = (q - q_next)/(q + q_next).  Only phase factors of
modulus <= 1 are ever multiplied, so thick lossy or evanescent layers
underflow to zero transmission instead of overflowing.  The same pass
returns the forward and backward wave amplitudes of every medium, which
the field reconstruction in `fields` uses (bookkeeping as in Byrnes,
arXiv:1603.02720).  `layer_matrix` gives the characteristic matrix

    M = [[cos(delta), -i sin(delta)/q], [-i q sin(delta), cos(delta)]],

delta = kz d, det(M) = 1, of a single layer.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DomainError
from .materials import ConstantMedium, evaluate_epsilon

__all__ = [
    "Layer",
    "LayerStack",
    "SpectralGrid",
    "Spectrum",
    "layer_matrix",
    "stack_response",
    "spectrum_scan",
    "angle_scan",
    "divergence_nodes",
]

POLARIZATIONS = ("s", "p", "unpolarized")

# cm^-1 -> rad/nm
_K_TO_RAD_NM = 2.0e-7 * math.pi


@dataclass(frozen=True)
class Layer:
    """One finite layer: a material name (resolved against the stack's
    materials map) and a thickness in nm."""

    material: str
    thickness: float

    def __post_init__(self):
        if not isinstance(self.material, str) or not self.material:
            raise DomainError("layer material must be a non-empty name")
        if not (math.isfinite(self.thickness) and self.thickness > 0.0):
            raise DomainError("layer thickness must be finite and positive (nm)")


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
        if not (math.isfinite(self.n_ambient) and self.n_ambient >= 1.0):
            raise DomainError("ambient index must be real and >= 1")
        if self.substrate_mode not in ("coherent", "incoherent_to_air"):
            raise DomainError("substrate_mode must be 'coherent' or 'incoherent_to_air'")
        missing = [ly.material for ly in self.layers if ly.material not in self.materials]
        if self.substrate not in self.materials:
            missing.append(self.substrate)
        if missing:
            raise DomainError(f"unknown material name(s): {sorted(set(missing))}")

    def epsilon_of(self, name, k):
        return evaluate_epsilon(self.materials[name], k)

    def total_thickness(self):
        return sum(ly.thickness for ly in self.layers)

    def reversed(self):
        """Stack traversed from the substrate side.  Only meaningful when
        the substrate is lossless; the new ambient takes its index."""
        sub = self.materials[self.substrate]
        if not isinstance(sub, ConstantMedium) or sub.eps.imag != 0.0:
            raise DomainError("can only reverse onto a lossless constant substrate")
        mats = dict(self.materials)
        mats.setdefault("_reversed_exit", ConstantMedium(self.n_ambient**2))
        return LayerStack(
            materials=mats,
            layers=tuple(reversed(self.layers)),
            substrate="_reversed_exit",
            n_ambient=math.sqrt(sub.eps.real),
            substrate_mode="coherent",
        )


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform wavenumber grid, inclusive of k_min; k_max is included when
    it falls on the lattice.  k_min == k_max yields a single-point grid."""

    k_min: float
    k_max: float
    step: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.k_min <= self.k_max) or not math.isfinite(self.k_max):
            raise DomainError("grid requires 0 < k_min <= k_max")
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise DomainError("grid step must be positive")

    @property
    def points(self):
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
        try:
            return {"T": self.T, "R": self.R, "A": self.A}[name]
        except KeyError:
            raise DomainError(f"unknown channel {name!r}, expected T, R or A") from None


def _kz(eps, k0_rad, kx_rad):
    # the principal root already has Re(kz) >= 0; flip the roots that
    # grow into the layer
    kz = np.sqrt(k0_rad**2 * eps - kx_rad**2 + 0j)
    np.negative(kz, out=kz, where=kz.imag < 0.0)
    return kz


def _admittance(eps, kz, k0_rad, polarization):
    if polarization == "s":
        return kz / k0_rad
    return kz / (k0_rad * eps)


def _check_angle(angle):
    if not (math.isfinite(angle) and abs(angle) < 90.0):
        raise DomainError("incidence angle must satisfy |angle| < 90 degrees")


def layer_matrix(model, thickness, k, kx=0.0, polarization="s", n_ambient=1.0):
    """Characteristic matrix of a single layer, shape (nk, 2, 2).

    k and kx are both in cm^-1 (kx = k n_ambient sin(angle) for a wave
    launched from the ambient); thickness in nm.  kx at or beyond the
    ambient light line (|kx| >= k n_ambient) has no propagating source
    wave and is rejected; evanescent kz inside the layer itself is fine.
    """
    if polarization not in ("s", "p"):
        raise DomainError("layer_matrix polarization must be 's' or 'p'")
    if not (math.isfinite(thickness) and thickness >= 0.0):
        raise DomainError("thickness must be finite and >= 0")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    eps = evaluate_epsilon(model, k)
    k0_rad = _K_TO_RAD_NM * k
    kx_arr = np.asarray(kx, dtype=float)
    if not np.all(np.isfinite(kx_arr)):
        raise DomainError("in-plane wavevector must be finite")
    if np.any(np.abs(kx_arr) >= k * n_ambient):
        raise DomainError("|kx| >= k n_ambient: no propagating ambient wave")
    kx_rad = _K_TO_RAD_NM * kx_arr
    kz = _kz(eps, k0_rad, kx_rad)
    q = _admittance(eps, kz, k0_rad, polarization)
    delta = kz * thickness
    m = np.empty(k.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = np.cos(delta)
    m[..., 0, 1] = -1j * np.sin(delta) / q
    m[..., 1, 0] = -1j * q * np.sin(delta)
    m[..., 1, 1] = np.cos(delta)
    return m


def _media(stack, k):
    """Permittivities of the ambient, each layer and the substrate on k;
    every material is evaluated once, however many layers use it."""
    eps = {}
    for name in [ly.material for ly in stack.layers] + [stack.substrate]:
        if name not in eps:
            eps[name] = stack.epsilon_of(name, k)
    ambient = np.full(k.shape, stack.n_ambient**2, dtype=complex)
    return [ambient] + [eps[ly.material] for ly in stack.layers] + [eps[stack.substrate]]


def _wavevectors(stack, k, angle):
    """k0 and kx in rad/nm for wavenumbers k (cm^-1) at one angle."""
    kx_cm1 = k * stack.n_ambient * math.sin(math.radians(angle))
    return _K_TO_RAD_NM * k, _K_TO_RAD_NM * kx_cm1


def _rouard(eps, thickness, k0, kx, polarization):
    """Rouard's recursion over the media eps = (ambient, layers...,
    substrate), broadcast over k0 and kx.

    Returns (r, t, kz, q, fwd, bwd) for a unit U amplitude incident from
    the ambient.  r and t are the U-amplitude reflection (at z = 0) and
    transmission (into the substrate's front face); kz and q list each
    medium's values.  fwd[j] is the forward amplitude of medium j at its
    entry face and bwd[j] the backward amplitude at its exit face, both
    taken at z = 0 for the ambient; the substrate has no backward wave.
    """
    kz = [_kz(e, k0, kx) for e in eps]
    q = [_admittance(e, z, k0, polarization) for e, z in zip(eps, kz)]
    # r[i], t[i]: interface between media i and i + 1; t = 1 + r, but
    # 2 qa / (qa + qb) keeps its digits when qb >> qa (p-polarized ENZ)
    r, t = [], []
    for qa, qb in zip(q[:-1], q[1:]):
        qs = qa + qb
        r.append((qa - qb) / qs)
        t.append(2.0 * qa / qs)
    n = len(thickness)
    phase = [None] + [np.exp(1j * kz[j] * thickness[j - 1]) for j in range(1, n + 1)]

    # substrate -> ambient: gamma[j] is the reflection coefficient seen
    # from medium j at its exit face, denom[j] the multiple-reflection
    # sum at the entry face of layer j
    gamma = [None] * (n + 1)
    denom = [None] * (n + 1)
    g = r[n]
    for j in range(n, 0, -1):
        gamma[j] = g
        g_entry = g * phase[j] ** 2
        denom[j] = 1.0 + r[j - 1] * g_entry
        g = (r[j - 1] + g_entry) / denom[j]

    # ambient -> substrate: carry the forward amplitude a across each
    # interface and through each layer
    a = np.ones_like(g)
    fwd, bwd = [a], [g]
    for j in range(1, n + 1):
        f = t[j - 1] * a / denom[j]
        a = f * phase[j]
        fwd.append(f)
        bwd.append(gamma[j] * a)
    fwd.append(t[n] * a)
    bwd.append(np.zeros_like(a))
    return g, fwd[-1], kz, q, fwd, bwd


def _response(stack, eps, k, angle, polarization):
    """(T, R) of one or both polarizations from precomputed permittivities."""
    if polarization == "unpolarized":
        Ts, Rs = _response(stack, eps, k, angle, "s")
        Tp, Rp = _response(stack, eps, k, angle, "p")
        return 0.5 * (Ts + Tp), 0.5 * (Rs + Rp)
    k0_rad, kx_rad = _wavevectors(stack, k, angle)
    thickness = [ly.thickness for ly in stack.layers]
    r, t, _, q, _, _ = _rouard(eps, thickness, k0_rad, kx_rad, polarization)
    q_amb, q_sub = q[0], q[-1]

    R = np.abs(r) ** 2
    T = np.real(q_sub) / np.real(q_amb) * np.abs(t) ** 2

    if stack.substrate_mode == "incoherent_to_air":
        eps_air = np.ones_like(k, dtype=complex)
        q_air = _admittance(eps_air, _kz(eps_air, k0_rad, kx_rad), k0_rad, polarization)
        t_exit = 2.0 * q_sub / (q_sub + q_air)
        # evanescent substrate wave (total internal reflection inside the
        # stack): nothing reaches the rear face, T stays 0
        re_sub = np.real(q_sub)
        factor = np.zeros_like(T)
        open_channel = re_sub > 0.0
        factor[open_channel] = (
            np.real(q_air)[open_channel] / re_sub[open_channel]
            * np.abs(t_exit[open_channel]) ** 2
        )
        T = T * factor

    return T, R


def stack_response(stack, k, angle=0.0, polarization="s"):
    """(T, R, A) of the stack at one incidence angle.

    k: wavenumbers in cm^-1 (scalar or array).  Unpolarized input averages
    the s and p intensities.  A is defined as 1 - T - R.
    """
    _check_angle(angle)
    if polarization not in POLARIZATIONS:
        raise DomainError(f"polarization must be one of {POLARIZATIONS}")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    T, R = _response(stack, _media(stack, k), k, angle, polarization)
    return T, R, 1.0 - T - R


def spectrum_scan(stack, grid, angle=0.0, polarization="s"):
    """Spectrum over a SpectralGrid at a fixed angle."""
    k = grid.points if isinstance(grid, SpectralGrid) else np.asarray(grid, dtype=float)
    T, R, A = stack_response(stack, k, angle, polarization)
    return Spectrum(k=k, T=T, R=R, A=A, angle=angle, polarization=polarization)


def divergence_nodes(angle, sigma, n_nodes=11):
    """Angular quadrature for a Gaussian beam-divergence average: n_nodes
    uniformly spaced points across angle +- 3 sigma, Gaussian-weighted,
    truncated to |angle| < 90 and renormalized."""
    if sigma < 0.0 or not math.isfinite(sigma):
        raise DomainError("divergence sigma must be >= 0 degrees")
    if n_nodes < 1 or n_nodes % 2 == 0:
        raise DomainError("divergence quadrature needs an odd node count >= 1")
    if sigma == 0.0:
        return np.array([angle]), np.array([1.0])
    offsets = np.linspace(-3.0 * sigma, 3.0 * sigma, n_nodes)
    thetas = angle + offsets
    weights = np.exp(-0.5 * (offsets / sigma) ** 2)
    keep = np.abs(thetas) < 90.0
    if not np.any(keep):
        raise DomainError("divergence cone lies entirely beyond grazing")
    thetas, weights = thetas[keep], weights[keep]
    return thetas, weights / weights.sum()


def angle_scan(stack, grid, angles, polarization="s", divergence=0.0, n_nodes=11):
    """Spectra over a list of angles, optionally averaged over a Gaussian
    angular spread of half-width `divergence` degrees (one sigma).

    The permittivities are evaluated once for the whole scan; each angle,
    or each divergence node, is then one pass of the stack recursion over
    the grid.  Results are ordered like `angles`.
    """
    k = grid.points if isinstance(grid, SpectralGrid) else np.asarray(grid, dtype=float)
    k = np.atleast_1d(k)
    angles = [float(a) for a in angles]
    for a in angles:
        _check_angle(a)
    if polarization not in POLARIZATIONS:
        raise DomainError(f"polarization must be one of {POLARIZATIONS}")
    eps = _media(stack, k)

    scans = []
    for angle in angles:
        if divergence > 0.0:
            thetas, weights = divergence_nodes(angle, divergence, n_nodes)
            T = np.zeros_like(k)
            R = np.zeros_like(k)
            for theta, w in zip(thetas, weights):
                Ti, Ri = _response(stack, eps, k, theta, polarization)
                T += w * Ti
                R += w * Ri
        else:
            T, R = _response(stack, eps, k, angle, polarization)
        scans.append(Spectrum(k=k, T=T, R=R, A=1.0 - T - R, angle=angle,
                              polarization=polarization))
    return scans
