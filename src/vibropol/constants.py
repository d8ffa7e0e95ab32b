"""Physical constants and unit conversions.

Spectroscopic wavenumbers (cm^-1) are the native frequency unit throughout
the package; energies cross to eV/meV through the fixed conversion factor
EV_TO_CM1 so that round trips are exact.
"""

import math

# CODATA 2018 (SI)
HBAR_J_S = 1.054571817e-34
H_J_S = 6.62607015e-34
C_M_S = 2.99792458e8
EPS0_F_M = 8.8541878128e-12
E_CHARGE_C = 1.602176634e-19
KB_J_K = 1.380649e-23
AMU_KG = 1.66053906660e-27
AVOGADRO = 6.02214076e23

# 1 debye in C m
DEBYE_C_M = 3.33564e-30

# fixed conversion: 1 eV = 8065.54 cm^-1
EV_TO_CM1 = 8065.54

# hbar in meV ps, for lifetimes from linewidths
HBAR_MEV_PS = 0.65821


def ev_to_cm1(energy_ev):
    """Photon energy in eV to wavenumber in cm^-1."""
    return energy_ev * EV_TO_CM1


def cm1_to_ev(k_cm1):
    """Wavenumber in cm^-1 to photon energy in eV."""
    return k_cm1 / EV_TO_CM1


def mev_to_cm1(energy_mev):
    return energy_mev * 1e-3 * EV_TO_CM1


def cm1_to_mev(k_cm1):
    return k_cm1 / EV_TO_CM1 * 1e3


def cm1_to_joule(k_cm1):
    """Wavenumber in cm^-1 to photon energy in J (via h c)."""
    return H_J_S * C_M_S * 100.0 * k_cm1


def cm1_to_rad_s(k_cm1):
    """Wavenumber in cm^-1 to angular frequency in rad/s."""
    return 2.0 * math.pi * C_M_S * 100.0 * k_cm1
