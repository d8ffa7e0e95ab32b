"""Coupled-mode models and order-of-magnitude estimators for vibrational
strong coupling.

Frequencies are wavenumbers in cm^-1 unless a name says otherwise; energy
linewidths cross to meV through the fixed eV <-> cm^-1 conversion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import constants as const
from .constants import cm1_to_mev, cm1_to_joule, cm1_to_rad_s
from .errors import DomainError, UltrastrongError, _check_choice, _check_range
from .tmm import _check_angle


def _in_float_range(estimator):
    """The estimator, raising DomainError that names it when a number in
    its result is not finite (numpy overflows quietly in here), or when a
    step towards the result fails: `**` past the largest float
    (OverflowError) or a divisor that underflowed to 0
    (ZeroDivisionError)."""

    @functools.wraps(estimator)
    def checked(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                result = estimator(*args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            result = math.inf
        parts = [getattr(result, f.name) for f in fields(result)] if is_dataclass(result) \
            else [result]
        numbers = np.concatenate([np.ravel(p) for p in parts if not isinstance(p, dict)])
        bad = numbers[~np.isfinite(numbers)]
        if bad.size:
            _check_range(float(bad[0]), f"the result of {estimator.__name__}")
        return result

    return checked


@dataclass(frozen=True)
class VibrationalMode:
    """A molecular vibration: center, transition dipole and linewidth."""

    omega_cm1: float
    dipole_debye: float = 0.0
    damping_fwhm_mev: float = 0.0
    reduced_mass_amu: float | None = None

    def __post_init__(self):
        _check_range(self.omega_cm1, "vibration frequency", gt=0.0, unit="cm^-1")
        _check_range(self.dipole_debye, "transition dipole", ge=0.0, unit="D")
        _check_range(self.damping_fwhm_mev, "vibration linewidth", ge=0.0, unit="meV")
        if self.reduced_mass_amu is not None:
            _check_range(self.reduced_mass_amu, "reduced mass", gt=0.0, unit="amu")

    @property
    def omega_mev(self):
        return cm1_to_mev(self.omega_cm1)


@dataclass(frozen=True)
class CavityMode:
    """One Fabry-Perot resonance; the default mode volume is the cube of
    the intra-cavity wavelength, (lambda/n)^3."""

    omega_cm1: float
    kappa_fwhm_mev: float = 0.0
    background_index: float = 1.41
    mode_volume_m3: float | None = None

    def __post_init__(self):
        _check_range(self.omega_cm1, "cavity frequency", gt=0.0, unit="cm^-1")
        _check_range(self.kappa_fwhm_mev, "cavity linewidth", ge=0.0, unit="meV")
        _check_range(self.background_index, "background index", gt=0.0)
        try:
            volume = self.volume_m3
        except OverflowError:  # the default's float ** past the largest float
            volume = math.inf
        _check_range(volume, "mode volume" if self.mode_volume_m3 is not None else
                     "mode volume (1e-2 / (omega_cm1 background_index))^3", gt=0.0, unit="m^3")

    @property
    def omega_mev(self):
        return cm1_to_mev(self.omega_cm1)

    @property
    def volume_m3(self):
        if self.mode_volume_m3 is not None:
            return self.mode_volume_m3
        lam_m = 1e-2 / self.omega_cm1 / self.background_index
        return lam_m**3


@_in_float_range
def vacuum_field(omega_cm1, volume_m3):
    """RMS vacuum field sqrt(hbar omega / 2 eps0 V) in V/m."""
    _check_range(omega_cm1, "frequency", gt=0.0, unit="cm^-1")
    _check_range(volume_m3, "mode volume", gt=0.0, unit="m^3")
    return math.sqrt(cm1_to_joule(omega_cm1) / (2.0 * const.EPS0_F_M * volume_m3))


@_in_float_range
def zero_point_amplitude(reduced_mass_amu, omega_cm1):
    """Zero-point displacement sqrt(hbar / 2 mu omega) in m."""
    _check_range(reduced_mass_amu, "reduced mass", gt=0.0, unit="amu")
    _check_range(omega_cm1, "frequency", gt=0.0, unit="cm^-1")
    mu = reduced_mass_amu * const.AMU_KG
    return math.sqrt(const.HBAR_J_S / (2.0 * mu * cm1_to_rad_s(omega_cm1)))


def single_coupling(dipole_debye, omega_cm1, volume_m3):
    """Single-molecule coupling energy d * E_vac, returned in eV.

    A zero dipole is allowed and gives exactly 0."""
    _check_range(dipole_debye, "transition dipole", ge=0.0, unit="D")
    e_vac = vacuum_field(omega_cm1, volume_m3)
    return dipole_debye * const.DEBYE_C_M * e_vac / const.E_CHARGE_C


@_in_float_range
def collective_splitting(single_ev, n_molecules):
    """Collective Rabi splitting single * sqrt(N), same unit as input."""
    _check_range(single_ev, "single-molecule coupling", ge=0.0)
    _check_range(n_molecules, "molecule number", ge=0.0)
    return single_ev * math.sqrt(n_molecules)


@_in_float_range
def effective_concentration(observed_splitting_ev, single_ev, volume_m3):
    """Concentration (cm^-3) that reproduces an observed splitting:
    N_eff = (Omega_R / Omega)^2 coupled dipoles in the mode volume."""
    _check_range(observed_splitting_ev, "observed splitting", gt=0.0, unit="eV")
    _check_range(single_ev, "single-molecule coupling", gt=0.0, unit="eV")
    _check_range(volume_m3, "mode volume", gt=0.0, unit="m^3")
    n_eff = (observed_splitting_ev / single_ev) ** 2
    return n_eff / (volume_m3 * 1e6)


@_in_float_range
def bond_density(mass_density_g_cm3, monomer_mass_g_mol, bonds_per_monomer=1.0):
    """Oscillator number density in cm^-3 from bulk density and the molar
    mass of the repeat unit."""
    _check_range(mass_density_g_cm3, "mass density", gt=0.0, unit="g/cm^3")
    _check_range(monomer_mass_g_mol, "monomer mass", gt=0.0, unit="g/mol")
    _check_range(bonds_per_monomer, "bonds per monomer", gt=0.0)
    return mass_density_g_cm3 * const.AVOGADRO / monomer_mass_g_mol * bonds_per_monomer


def thermal_occupation(omega_cm1, temperature_k):
    """Boltzmann factor exp(-hbar omega / kB T); 0 at T = 0."""
    _check_range(omega_cm1, "frequency", gt=0.0, unit="cm^-1")
    _check_range(temperature_k, "temperature", ge=0.0, unit="K")
    kt = const.KB_J_K * temperature_k
    if kt == 0.0:  # T = 0, or kB T below the smallest float: the T -> 0 limit
        return 0.0
    return math.exp(-cm1_to_joule(omega_cm1) / kt)


@_in_float_range
def quality_factor(omega, fwhm):
    """Q = omega / FWHM for any shared unit."""
    _check_range(omega, "frequency", gt=0.0)
    _check_range(fwhm, "linewidth", gt=0.0)
    return omega / fwhm


@_in_float_range
def dephasing_time(fwhm_mev):
    """Lifetime hbar / FWHM in ps, linewidth in meV."""
    _check_range(fwhm_mev, "linewidth", gt=0.0, unit="meV")
    return const.HBAR_MEV_PS / fwhm_mev


def is_strong_coupling(splitting_mev, vibration_fwhm_mev, cavity_fwhm_mev):
    """True when the splitting exceeds the mean of the two linewidths."""
    _check_range(splitting_mev, "splitting", ge=0.0, unit="meV")
    _check_range(vibration_fwhm_mev, "vibration linewidth", ge=0.0, unit="meV")
    _check_range(cavity_fwhm_mev, "cavity linewidth", ge=0.0, unit="meV")
    return splitting_mev > 0.5 * (vibration_fwhm_mev + cavity_fwhm_mev)


@_in_float_range
def fp_mode_estimate(n_eff, thickness_nm, order=1, angle=0.0, n_ambient=1.0):
    """Fabry-Perot resonance estimate in cm^-1:

        k = order * 1e7 / (2 n d[nm] cos(theta_int)),

    with the internal angle from Snell's law out of the ambient."""
    angle = np.asarray(angle, dtype=float)
    return float(_cavity_modes(n_eff, thickness_nm, order, angle, n_ambient)[0])


def _cavity_modes(n_eff, thickness_nm, order, angles, n_ambient):
    """fp_mode_estimate at every angle of the array `angles`, and cos^2 of
    the internal angles, with which d omega_c / d n_eff = -omega_c /
    (n_eff cos^2) and d omega_c / d thickness = -omega_c / thickness."""
    _check_range(n_eff, "effective index", gt=0.0)
    _check_range(thickness_nm, "thickness", gt=0.0, unit="nm")
    _check_range(order, "mode order", ge=1, integer=True)
    outside = angles[~(np.abs(angles) < 90.0)]
    if outside.size:
        _check_angle(float(outside.flat[0]))
    _check_range(n_ambient, "ambient index", ge=1.0)
    sin_int = n_ambient * np.sin(np.radians(angles)) / n_eff
    if np.any(np.abs(sin_int) >= 1.0):
        raise DomainError("angle is beyond total internal reflection for this index")
    cos2 = 1.0 - sin_int**2
    return order * 1e7 / (2.0 * n_eff * thickness_nm * np.sqrt(cos2)), cos2


def _branches(omega_c, omega_v, splitting, model="rwa"):
    """The branches of coupled_frequencies for a cavity frequency or an
    array of them: (upper, lower, cos, sin), where (cos, sin) = (delta,
    splitting) / sqrt(delta^2 + splitting^2) is the 2x2 mixing under either
    model.  Under the RWA, d upper / d omega_c = (1 + cos) / 2, the upper
    branch's photon fraction, and d upper / d splitting = sin / 2; at
    delta = splitting = 0, cos = 0 and sin = 1, the derivatives towards
    splitting > 0."""
    delta = omega_c - omega_v
    root = np.hypot(delta, splitting)
    safe = np.where(root > 0.0, root, 1.0)
    cos, sin = delta / safe, np.where(root > 0.0, splitting / safe, 1.0)
    if model == "rwa":
        mean = 0.5 * (omega_c + omega_v)
        return mean + 0.5 * root, mean - 0.5 * root, cos, sin
    if np.any(splitting**2 >= omega_c * omega_v):
        raise UltrastrongError(
            "splitting^2 >= omega_c * omega_v: lower branch frequency "
            "would be imaginary in the full two-oscillator model"
        )
    s = omega_c**2 + omega_v**2
    disc = np.sqrt((omega_c**2 - omega_v**2) ** 2 + 4.0 * splitting**2 * omega_c * omega_v)
    return np.sqrt(0.5 * (s + disc)), np.sqrt(0.5 * (s - disc)), cos, sin


@dataclass(frozen=True)
class CoupledModeResult:
    """Polariton frequencies and branch composition."""

    omega_upper: float
    omega_lower: float
    splitting_cm1: float
    splitting_mev: float
    # per branch: fraction of photon and vibration character, summing to 1
    weights: dict


@_in_float_range
def coupled_frequencies(omega_c, omega_v, splitting, model="rwa"):
    """Polariton branches of one cavity mode and one vibration.

    model="rwa" diagonalizes the 2x2 coupled-mode Hamiltonian:
        omega_pm = (omega_c + omega_v)/2 +- sqrt(delta^2 + Omega_R^2)/2.
    model="full" keeps the anti-resonant terms; the branches are the
    positive roots of (w^2 - omega_c^2)(w^2 - omega_v^2) =
    Omega_R^2 omega_c omega_v.  Mixing weights always come from the
    2x2 eigenvectors.
    """
    _check_range(omega_c, "cavity frequency", gt=0.0, unit="cm^-1")
    _check_range(omega_v, "vibration frequency", gt=0.0, unit="cm^-1")
    _check_range(splitting, "splitting", ge=0.0, unit="cm^-1")
    _check_choice(model, "model", ("rwa", "full"))
    upper, lower, cos, _ = map(float, _branches(omega_c, omega_v, splitting, model))
    up_photon = 0.5 * (1.0 + cos)
    split = upper - lower
    return CoupledModeResult(
        omega_upper=upper,
        omega_lower=lower,
        splitting_cm1=split,
        splitting_mev=cm1_to_mev(split),
        weights={
            "upper": {"photon": up_photon, "vibration": 1.0 - up_photon},
            "lower": {"photon": 1.0 - up_photon, "vibration": up_photon},
        },
    )


@dataclass
class AnticrossingCurve:
    """Model polariton dispersion versus incidence angle."""

    angles: np.ndarray
    omega_cavity: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    omega_vibration: float


@_in_float_range
def anticrossing_dispersion(
    omega_v, splitting, n_eff, thickness_nm, angles, order=1, n_ambient=1.0, model="rwa"
):
    """Polariton branches versus angle for a Fabry-Perot cavity mode
    crossing one vibration: fp_mode_estimate and coupled_frequencies at
    every angle."""
    angles = np.asarray(angles, dtype=float)
    omega_c, _ = _cavity_modes(n_eff, thickness_nm, order, angles, n_ambient)
    _check_range(omega_v, "vibration frequency", gt=0.0, unit="cm^-1")
    _check_range(splitting, "splitting", ge=0.0, unit="cm^-1")
    _check_choice(model, "model", ("rwa", "full"))
    upper, lower, _, _ = _branches(omega_c, omega_v, splitting, model)
    return AnticrossingCurve(
        angles=angles, omega_cavity=omega_c, upper=upper, lower=lower, omega_vibration=omega_v
    )


def estimate_report(
    vibration,
    cavity,
    temperature_k=300.0,
    density=None,
    observed_splitting_mev=None,
    polariton_fwhm_mev=None,
):
    """Order-of-magnitude scalar summary for one vibration/cavity pair.

    density, when given, is a dict with mass_density_g_cm3,
    monomer_mass_g_mol and optional bonds_per_monomer.  The report is a
    plain JSON-ready dict; blocks that lack inputs are simply absent.
    """
    volume = cavity.volume_m3
    report = {
        "vibration_cm1": vibration.omega_cm1,
        "vibration_mev": vibration.omega_mev,
        "cavity_cm1": cavity.omega_cm1,
        "cavity_mev": cavity.omega_mev,
        "mode_volume_m3": volume,
        "vacuum_field_v_per_m": vacuum_field(cavity.omega_cm1, volume),
        "thermal_occupation": thermal_occupation(vibration.omega_cm1, temperature_k),
        "temperature_k": temperature_k,
    }
    single_ev = single_coupling(vibration.dipole_debye, cavity.omega_cm1, volume)
    report["single_coupling_ev"] = single_ev
    report["single_coupling_uev"] = single_ev * 1e6
    if vibration.reduced_mass_amu is not None:
        report["zero_point_amplitude_m"] = zero_point_amplitude(
            vibration.reduced_mass_amu, vibration.omega_cm1
        )
    if vibration.damping_fwhm_mev > 0.0:
        report["vibration_quality_factor"] = quality_factor(
            vibration.omega_mev, vibration.damping_fwhm_mev
        )
        report["vibration_lifetime_ps"] = dephasing_time(vibration.damping_fwhm_mev)
    if cavity.kappa_fwhm_mev > 0.0:
        report["cavity_quality_factor"] = quality_factor(
            cavity.omega_mev, cavity.kappa_fwhm_mev
        )
        report["cavity_lifetime_ps"] = dephasing_time(cavity.kappa_fwhm_mev)
    if density is not None:
        rho = bond_density(
            density["mass_density_g_cm3"],
            density["monomer_mass_g_mol"],
            density.get("bonds_per_monomer", 1.0),
        )
        report["bond_density_cm3"] = rho
        if single_ev > 0.0:
            n_total = rho * volume * 1e6
            report["collective_splitting_upper_bound_mev"] = (
                collective_splitting(single_ev, n_total) * 1e3
            )
    if observed_splitting_mev is not None:
        report["observed_splitting_mev"] = observed_splitting_mev
        if single_ev > 0.0:
            rho_c = effective_concentration(observed_splitting_mev * 1e-3, single_ev, volume)
            report["effective_concentration_cm3"] = rho_c
            if "bond_density_cm3" in report:
                report["coupled_fraction"] = rho_c / report["bond_density_cm3"]
                _check_range(report["coupled_fraction"], "coupled fraction")
        if vibration.damping_fwhm_mev > 0.0 and cavity.kappa_fwhm_mev > 0.0:
            report["strong_coupling"] = is_strong_coupling(
                observed_splitting_mev, vibration.damping_fwhm_mev, cavity.kappa_fwhm_mev
            )
    if polariton_fwhm_mev:
        report["polariton_lifetimes_ps"] = {
            branch: dephasing_time(width) for branch, width in sorted(polariton_fwhm_mev.items())
        }
    return report
