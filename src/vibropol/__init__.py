"""vibropol: vibrational strong coupling in planar Fabry-Perot
microcavities.

Transfer-matrix optics for layered stacks with Lorentz and Drude-Lorentz
dielectric models, intra-cavity field maps, coupled-mode polariton
analysis and least-squares fitting of spectra.

The namespace is lazy (PEP 562): `import vibropol` loads no submodule,
and a public name, or a submodule that defines some, is imported on
first access, so a program pays only for the modules it uses.

`_EXPORTS` is the one list of the package's API, and the submodules
declare no `__all__` of their own.  Their other names without a leading
underscore, such as the writers of `vibropol.io`, are importable by name
but are not part of the API.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "config": ("Config", "load_config", "parse_config"),
    "constants": ("cm1_to_ev", "cm1_to_mev", "ev_to_cm1", "mev_to_cm1"),
    "errors": (
        "ConfigError", "DomainError", "FitError", "PeakCountError", "UltrastrongError",
        "VibropolError",
    ),
    "fields": ("FieldMap", "FieldProfile", "default_z_grid", "field_map", "field_profile"),
    "fit": (
        "FitProblem", "FitResult", "FreeParameter", "apply_params", "loss_gradient",
        "loss_value", "model_values", "residual_vector", "solve",
    ),
    "materials": (
        "BoundTransition", "ConstantMedium", "DrudeLorentzMetal", "LorentzMedium",
        "LorentzOscillator", "gold", "refractive_index",
    ),
    "polariton": (
        "AnticrossingCurve", "CavityMode", "CoupledModeResult", "VibrationalMode",
        "anticrossing_dispersion", "bond_density", "collective_splitting",
        "coupled_frequencies", "dephasing_time", "effective_concentration", "estimate_report",
        "fp_mode_estimate", "is_strong_coupling", "quality_factor", "single_coupling",
        "thermal_occupation", "vacuum_field", "zero_point_amplitude",
    ),
    "spectra": (
        "CoupledFitResult", "DispersionRow", "DispersionTable", "LorentzianBandFit", "Peak",
        "SplittingReport", "build_dispersion", "extract_splitting", "find_peaks",
        "fit_coupled_model", "fit_lorentzian_band", "load_measured",
    ),
    "tmm": (
        "Layer", "LayerStack", "SpectralGrid", "Spectrum", "angle_scan", "divergence_nodes",
        "spectrum_scan", "stack_response",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        # importing a submodule binds it on the package
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
