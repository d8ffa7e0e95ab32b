"""One table-driven probe of the public API: every number a public call
takes is replaced, one at a time, by NaN, +-inf, 0, a negative and an
extreme value, and the call must then return finite values only or raise
DomainError; a NaN argument must always raise it.  Warnings are errors, so
a NaN that surfaces only as a RuntimeWarning fails too."""

import functools
import inspect
import math
import numbers
import warnings
from collections.abc import Mapping
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import vibropol
from vibropol import (
    CavityMode,
    DispersionRow,
    DispersionTable,
    DomainError,
    FitError,
    FitProblem,
    FreeParameter,
    PeakCountError,
    SpectralGrid,
    VibrationalMode,
    spectrum_scan,
)

from conftest import CO_BAND, make_stack

BAD = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, -1e300, 1e-300, 5e-324)
# an integer argument also meets these
BAD_INT = (0, -1)

CONVERSION = "unit conversion: array arithmetic with no domain (see vibropol.constants)"
NO_NUMBERS = "takes no number: its numbers arrive through the constructors probed here"
RECORD = "result record: holds what a probed call computed and checks nothing"
EXEMPT = {
    "cm1_to_ev": CONVERSION, "cm1_to_mev": CONVERSION, "ev_to_cm1": CONVERSION,
    "mev_to_cm1": CONVERSION,
    "ConfigError": NO_NUMBERS, "DomainError": NO_NUMBERS, "FitError": NO_NUMBERS,
    "PeakCountError": NO_NUMBERS, "UltrastrongError": NO_NUMBERS, "VibropolError": NO_NUMBERS,
    "Config": NO_NUMBERS, "load_config": NO_NUMBERS, "parse_config": NO_NUMBERS,
    "load_measured": NO_NUMBERS,
    "AnticrossingCurve": RECORD, "CoupledFitResult": RECORD, "CoupledModeResult": RECORD,
    "DispersionRow": RECORD, "DispersionTable": RECORD, "FieldMap": RECORD,
    "FieldProfile": RECORD, "FitResult": RECORD, "LorentzianBandFit": RECORD, "Peak": RECORD,
    "Spectrum": RECORD, "SplittingReport": RECORD,
}

# (name, site, value) of the calls that still fail; CHANGES.md names each
# group.  An entry that passes fails the probe until it leaves this table.
KNOWN = set()


@functools.cache
def baselines():
    """name -> list of valid (args, kwargs); every number in them is probed."""
    stack = make_stack([CO_BAND])
    k = np.linspace(1600.0, 1900.0, 31)
    z = np.linspace(-100.0, 2100.0, 12)
    spectrum = spectrum_scan(stack, SpectralGrid(1400.0, 2100.0, 1.0))
    problem = FitProblem(
        stack=stack, free=(FreeParameter("layers[1].thickness", 1800.0, 2100.0),),
        k=k, target=np.full_like(k, 0.1),
    )
    curve = vibropol.anticrossing_dispersion(1739.0, 160.0, 1.41, 1930.0, [-20.0, -10.0, 0.0,
                                                                          10.0, 20.0])
    table = DispersionTable(
        [DispersionRow(a, lo, up, "ok") for a, lo, up in zip(curve.angles, curve.lower,
                                                              curve.upper)], "T")
    band_k = np.linspace(1650.0, 1830.0, 91)
    band = 0.05 + 5.0e4 * band_k * 13.0 / ((band_k**2 - 1739.0**2) ** 2 + (band_k * 13.0) ** 2)
    vibration = VibrationalMode(1739.0, dipole_debye=1.0, damping_fwhm_mev=3.2,
                                reduced_mass_amu=6.86)
    cavity = CavityMode(1739.0, kappa_fwhm_mev=10.0, background_index=1.41,
                        mode_volume_m3=1e-15)
    one = lambda *args, **kwargs: [(args, kwargs)]  # noqa: E731
    return {
        "BoundTransition": one(0.6, 2.49, 4.3),
        "ConstantMedium": one(16.0),
        "DrudeLorentzMetal": one(omega_p=9.03, f0=0.76, gamma0=0.05, damping_multiplier=2.5),
        "LorentzMedium": one(1.99, ()),
        "LorentzOscillator": one(5.0e4, 1739.0, 13.0),
        "gold": one(2.5),
        "refractive_index": one(vibropol.gold(), k) + one(np.array([16.0, 2.0, -4.0])),
        "Layer": one("pvac", 1930.0),
        "LayerStack": one(stack.materials, stack.layers, "germanium", n_ambient=1.0),
        "SpectralGrid": one(1400.0, 2100.0, 0.5),
        "stack_response": one(stack, k, 10.0, "p"),
        "spectrum_scan": one(stack, k, 10.0, "unpolarized"),
        "angle_scan": one(stack, k, [0.0, 20.0], "s", divergence=1.0),
        "divergence_nodes": one(20.0, 1.0),
        "default_z_grid": one(stack, z_step=10.0, margin_ambient=200.0, margin_substrate=200.0),
        "field_map": one(stack, k[:4], z=z, angle=10.0, polarization="p"),
        "field_profile": one(stack, 1700.0, z, angle=10.0, polarization="unpolarized"),
        "FreeParameter": one("layers[1].thickness", 1800.0, 2100.0),
        "FitProblem": one(stack, problem.free, k, np.full_like(k, 0.1), angle=10.0),
        "apply_params": one(stack, {"layers[1].thickness": 1900.0,
                                    "materials.pvac.oscillators[0].gamma": 12.0}),
        "model_values": one(problem, np.array([1930.0])),
        "residual_vector": one(problem, np.array([1930.0])),
        "loss_value": one(problem, np.array([1930.0])),
        "loss_gradient": one(problem, np.array([1930.0])),
        "solve": one(problem, n_starts=1, seed=0, max_nfev=5),
        "VibrationalMode": one(1739.0, dipole_debye=1.0, damping_fwhm_mev=3.2,
                               reduced_mass_amu=6.86),
        "CavityMode": one(1739.0, kappa_fwhm_mev=10.0, background_index=1.41,
                          mode_volume_m3=1e-15),
        "vacuum_field": one(1739.0, 1e-15),
        "zero_point_amplitude": one(6.86, 1739.0),
        "single_coupling": one(1.0, 1739.0, 1e-15),
        "collective_splitting": one(1e-7, 1e20),
        "effective_concentration": one(0.02, 1e-7, 1e-15),
        "bond_density": one(1.19, 86.09, 1.0),
        "thermal_occupation": one(1739.0, 300.0),
        "quality_factor": one(1739.0, 20.0),
        "dephasing_time": one(3.2),
        "is_strong_coupling": one(20.0, 3.2, 10.0),
        "fp_mode_estimate": one(1.41, 1930.0, 1, 10.0, 1.0),
        "coupled_frequencies": one(1700.0, 1739.0, 160.0) + one(1700.0, 1739.0, 160.0, "full"),
        "anticrossing_dispersion": one(1739.0, 160.0, 1.41, 1930.0, [-10.0, 0.0, 10.0],
                                       order=1, n_ambient=1.0),
        "estimate_report": one(
            vibration, cavity, temperature_k=300.0,
            density={"mass_density_g_cm3": 1.19, "monomer_mass_g_mol": 86.09,
                     "bonds_per_monomer": 1.0},
            observed_splitting_mev=20.0, polariton_fwhm_mev={"lower": 5.0, "upper": 6.0},
        ),
        "find_peaks": one(spectrum.k, spectrum.T, min_prominence=0.01, window=(1500.0, 2000.0)),
        "extract_splitting": one(spectrum, "T", window=(1500.0, 2000.0), min_prominence=0.01),
        "build_dispersion": one([spectrum], "T", window=(1500.0, 2000.0), min_prominence=0.01),
        "fit_lorentzian_band": one(band_k, band, window=(1660.0, 1820.0),
                                   p0=[4.0e4, 1735.0, 15.0, 0.04], max_nfev=50),
        "fit_coupled_model": one(table, order=1, n_ambient=1.0, max_nfev=20)
        + one(table, x0=[1739.0, 1.41, 1930.0, 160.0], max_nfev=20),
    }


def swapped(container, key, value):
    """A copy of a list, tuple, dict or array with value at key."""
    if isinstance(container, tuple):
        return container[:key] + (value,) + container[key + 1:]
    new = container.copy()
    new[key] = value
    return new


def sites(bound):
    """(site, kind, replace) for each number among the bound arguments: an
    argument, an item of a list, tuple or dict, or the middle element of a
    float array.  kind is its type, and replace(v) gives the arguments
    with v in its place."""
    for name, arg in bound.items():
        if isinstance(arg, np.ndarray) and arg.dtype.kind == "f":
            keys = [arg.size // 2]
        elif isinstance(arg, (list, tuple, dict)):
            keys = list(arg) if isinstance(arg, dict) else range(len(arg))
        else:
            keys = [None]
        for key in keys:
            item = arg if key is None else arg[key]
            if isinstance(item, numbers.Real) and not isinstance(item, bool):
                site = name if key is None else f"{name}[{key!r}]"
                yield site, type(item), lambda v, name=name, key=key, arg=arg: {
                    **bound, name: v if key is None else swapped(arg, key, v)}


def non_finite(value, path="result"):
    """Paths of the NaN and infinite numbers inside a returned value."""
    if isinstance(value, (bool, str, type(None))):
        return []
    if isinstance(value, numbers.Number):
        return [] if np.isfinite(value) else [path]
    if isinstance(value, np.ndarray):
        ok = value.dtype.kind not in "fc" or np.all(np.isfinite(value))
        return [] if ok else [path]
    if is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
    elif isinstance(value, Mapping):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return []
    return [p for key, item in items for p in non_finite(item, f"{path}.{key}")]


def outcome(fn, call, value):
    """What is wrong with the call's outcome for a bad `value`, or None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(*call.args, **call.kwargs)
    except DomainError:
        return None
    except (PeakCountError, FitError) as err:
        # the documented end of a search or fit that ran
        return f"NaN ran to {err!r}" if math.isnan(value) else None
    except Exception as err:  # noqa: BLE001  (every other outcome is a finding)
        return f"{type(err).__name__}: {err}"
    if math.isnan(value):
        return "NaN accepted"
    bad = non_finite(out)
    return f"non-finite {bad}" if bad else None


def probe(name):
    """{(name, site, value): what went wrong} over every site and bad value."""
    fn = getattr(vibropol, name)
    failures = {}
    for args, kwargs in baselines()[name]:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        for site, kind, replace in sites(dict(bound.arguments)):
            for value in BAD + (BAD_INT if kind is int else ()):
                call = inspect.BoundArguments(bound.signature, replace(value))
                wrong = outcome(fn, call, value)
                if wrong:
                    failures[(name, site, value)] = wrong
    return failures


def test_every_public_name_is_probed_or_exempt():
    probed = set(baselines())
    assert not probed & set(EXEMPT)
    assert probed | set(EXEMPT) == set(vibropol.__all__)


@pytest.mark.parametrize("name", sorted(set(vibropol.__all__) - set(EXEMPT)))
def test_bad_numbers_raise_domain_error(name):
    failures = probe(name)
    known = {key for key in KNOWN if key[0] == name}
    assert {key: why for key, why in failures.items() if key not in known} == {}
    assert known - set(failures) == set(), "these pass now: take them off KNOWN"
