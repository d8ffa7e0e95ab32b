"""Fixed reference work that gauges the host's speed during a run.

On a shared host the effective CPU speed drifts by up to 2x, in phases
of seconds to minutes, so the wall time of one operation says as much
about the neighbours as about the program.  The worker therefore runs a
reference right before the first operation and right after every
operation, and divides each operation's time by the mean of the two
reference times around it.  That ratio, times the reference's nominal
time, is the operation's time at a fixed host speed: the speed at which
the reference takes its nominal time.

Contention does not slow every kind of work alike, so each workload is
paired with the reference closest to what its operations do:

- ``KERNEL``, a small transfer-matrix calculation in plain numpy (complex
  square roots, sines and cosines, stacked 2x2 products on spectra of 801
  and 1801 points), run in the worker's own process: for the in-process
  workloads, whose operations are the package's numpy kernels;
- ``COLD_START``, a fresh isolated interpreter that imports numpy: for
  the CLI invocations and for every set-up, which are mostly interpreter
  start-up and imports.

Neither imports anything from vibropol: a change to the package cannot
change a reference.  Keep both fixed, since every normalised time is in
their units.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

_NM_PER_CM1 = 2e-7 * math.pi


def _kz(np, eps, k0, kx):
    kz = np.sqrt(k0**2 * eps - kx**2 + 0j)
    return np.where(kz.imag < 0.0, -kz, kz)


def _transmission(np, k, angle, thicknesses):
    """Summed |t|^2 of a stack of Lorentz layers on k at one angle."""
    k0 = _NM_PER_CM1 * k
    kx = k0 * math.sin(math.radians(angle))
    q_amb = _kz(np, np.ones_like(k, dtype=complex), k0, kx) / k0
    m = np.zeros(k.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = 1.0
    for j, thickness in enumerate(thicknesses):
        eps = 2.1 + (j + 1) * 5e4 / (1744.0**2 - k * k - 15j * k)
        kz = _kz(np, eps, k0, kx)
        q = kz / k0
        cos, sin = np.cos(kz * thickness), np.sin(kz * thickness)
        mj = np.empty(k.shape + (2, 2), dtype=complex)
        mj[..., 0, 0] = cos
        mj[..., 0, 1] = -1j * sin / q
        mj[..., 1, 0] = -1j * q * sin
        mj[..., 1, 1] = cos
        m = m @ mj
    denom = q_amb * (m[..., 0, 0] + q_amb * m[..., 0, 1]) + m[..., 1, 0] + q_amb * m[..., 1, 1]
    return float(np.sum(np.abs(2.0 * q_amb / denom) ** 2))


def kernel():
    """Six angles of a three-layer stack on 1801 points and twelve
    one-layer films on 801 points."""
    # imported here, not at the top: the worker imports this module
    # before it times a set-up, and numpy belongs to that set-up
    import numpy as np

    wide, narrow = 1000.0 + 1.0 * np.arange(1801), 1500.0 + 0.5 * np.arange(801)
    total = 0.0
    for angle in np.linspace(0.0, 40.0, 6):
        total += _transmission(np, wide, angle, (1000.0, 1880.0, 1000.0))
    for i in range(12):
        total += _transmission(np, narrow, 0.0, (1880.0 + i,))
    return total


def cold_start():
    """A fresh interpreter, isolated from the environment, importing numpy."""
    # no timeout: with one, the wait polls every 50 ms and the time comes
    # out in 50 ms steps.  The run's deadline kills this child with the
    # worker's process group.
    subprocess.run([sys.executable, "-I", "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


class Reference:
    """Fixed work and its nominal time: normalised times are "seconds at
    the host speed where this work takes `nominal_s`"."""

    def __init__(self, name, nominal_s, work):
        self.name = name
        self.nominal_s = nominal_s
        self.work = work

    def timed(self):
        """Wall time of one run of the work, in seconds."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def normalised(self, seconds, before, after):
        """A time at the nominal host speed, from the reference times
        measured just before and just after it."""
        return seconds * self.nominal_s / (0.5 * (before + after))


# Nominal times: each reference's time on this benchmark's reference host
# (2-vCPU VM, Python 3.11.7, numpy 2.4.6) in a quiet phase.
KERNEL = Reference("kernel", 0.020, kernel)
COLD_START = Reference("cold-start", 0.140, cold_start)
