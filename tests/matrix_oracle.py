"""Characteristic-matrix optics: an independent oracle for the Rouard
kernel of `vibropol.tmm` on benign stacks.

Each layer has the characteristic matrix

    M = [[cos(delta), -i sin(delta)/q], [-i q sin(delta), cos(delta)]],

delta = kz d, det(M) = 1, with kz = sqrt(k0^2 eps - kx^2) on the branch
Im(kz) >= 0 and the admittance q = kz/k0 (s) or kz/(k0 eps) (p).  The
product of the layer matrices maps (U, V) at the substrate to (U, V) at
the ambient.  cos and sin of a complex delta grow like exp(|Im delta|),
so thick lossy or evanescent layers overflow here: use this oracle on
layers a few decay lengths thick at most.
"""

import math

import numpy as np

from vibropol import ConstantMedium, DomainError, LayerStack

K_TO_RAD_NM = 2.0e-7 * math.pi


def _kz(eps, k0_rad, kx_rad):
    kz = np.sqrt(k0_rad**2 * eps - kx_rad**2 + 0j)
    return np.where(kz.imag < 0.0, -kz, kz)


def _admittance(eps, kz, k0_rad, polarization):
    return kz / k0_rad if polarization == "s" else kz / (k0_rad * eps)


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
    eps = model.epsilon(k)
    k0_rad = K_TO_RAD_NM * k
    kx_arr = np.asarray(kx, dtype=float)
    if not np.all(np.isfinite(kx_arr)):
        raise DomainError("in-plane wavevector must be finite")
    if np.any(np.abs(kx_arr) >= k * n_ambient):
        raise DomainError("|kx| >= k n_ambient: no propagating ambient wave")
    kx_rad = K_TO_RAD_NM * kx_arr
    kz = _kz(eps, k0_rad, kx_rad)
    q = _admittance(eps, kz, k0_rad, polarization)
    delta = kz * thickness
    m = np.empty(k.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = np.cos(delta)
    m[..., 0, 1] = -1j * np.sin(delta) / q
    m[..., 1, 0] = -1j * q * np.sin(delta)
    m[..., 1, 1] = np.cos(delta)
    return m


def matrix_response(stack, k, angle, polarization):
    """(T, R) of a coherent stack from the product of its layer matrices:
    1 + r = B t and q_amb (1 - r) = C t, with (B, C) = M (1, q_sub)."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    kx = k * stack.n_ambient * math.sin(math.radians(angle))
    m = np.broadcast_to(np.eye(2, dtype=complex), k.shape + (2, 2))
    for layer in stack.layers:
        m = m @ layer_matrix(stack.materials[layer.material], layer.thickness, k, kx,
                             polarization, stack.n_ambient)
    k0_rad, kx_rad = K_TO_RAD_NM * k, K_TO_RAD_NM * kx
    eps_amb = np.full(k.shape, stack.n_ambient**2, dtype=complex)
    eps_sub = stack.materials[stack.substrate].epsilon(k)
    q_amb = _admittance(eps_amb, _kz(eps_amb, k0_rad, kx_rad), k0_rad, polarization)
    q_sub = _admittance(eps_sub, _kz(eps_sub, k0_rad, kx_rad), k0_rad, polarization)
    b = m[:, 0, 0] + m[:, 0, 1] * q_sub
    c = m[:, 1, 0] + m[:, 1, 1] * q_sub
    t = 2.0 * q_amb / (q_amb * b + c)
    r = (q_amb * b - c) / (q_amb * b + c)
    return np.real(q_sub) / np.real(q_amb) * np.abs(t) ** 2, np.abs(r) ** 2


def reversed_stack(stack):
    """The stack traversed from the substrate side, for reciprocity
    checks.  Only meaningful when the substrate is lossless; the new
    ambient takes its index."""
    sub = stack.materials[stack.substrate]
    if not isinstance(sub, ConstantMedium) or sub.eps.imag != 0.0:
        raise DomainError("can only reverse onto a lossless constant substrate")
    mats = dict(stack.materials)
    mats.setdefault("_reversed_exit", ConstantMedium(stack.n_ambient**2))
    return LayerStack(
        materials=mats,
        layers=tuple(reversed(stack.layers)),
        substrate="_reversed_exit",
        n_ambient=math.sqrt(sub.eps.real),
        substrate_mode="coherent",
    )
